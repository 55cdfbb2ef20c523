"""The polynomials q_k of d^k/dx^k <x>**t = q_k(x) * (1+x**2)**(t/2-k), from their exact recursion

    q_0 = 1,   q_{k+1} = q_k' * (1+x**2) + (t - 2k) * x * q_k,

the reference that the bracket ratios r_k = q_k(x) / (1+x**2)**k of ``gsmult.gsfunc`` are
checked against.  Row k holds the coefficients of q_k in ascending powers, k + 1 of them.
"""

from fractions import Fraction


def bracket_rows(t, k_max: int) -> list[tuple[Fraction, ...]]:
    """Rows q_0..q_{k_max} of the recursion for t."""
    t = Fraction(t)
    rows = [(Fraction(1),)]
    for k in range(k_max):
        q = rows[-1]
        nxt = [Fraction(0)] * (k + 2)
        for i in range(1, len(q)):  # q' and q' * x**2
            nxt[i - 1] += i * q[i]
            nxt[i + 1] += i * q[i]
        for i in range(len(q)):  # (t - 2k) * x * q
            nxt[i + 1] += (t - 2 * k) * q[i]
        rows.append(tuple(nxt))
    return rows


def horner(coeffs, x) -> Fraction:
    """The polynomial with ``coeffs`` (ascending powers) at x, exactly."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc
