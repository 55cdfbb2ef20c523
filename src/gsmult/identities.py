"""Exact verifiers for the standalone identities and bounds behind the tables.

Each check returns a CheckResult whose pass is a machine-checked certificate
at the tested parameters: integer comparisons are exact, rational exponents
are handled by raising both sides to the q-th power, and the one
real-analytic check (the auxiliary wedge function) bounds its powers by
integer arithmetic rounded down or up at every step, so a reported pass is
a directed-rounding certificate, never a float heuristic.  Nothing here
loads mpmath.

Checked facts, for degree m >= 2 and the table coefficients C[k][n]:

* floor steps: floor((k+1)(m-1)/m) equals floor(k(m-1)/m) when m | k and
  exceeds it by one otherwise.
* closed form C[k][1] = (m-1)k(k-1)/2 for k >= 2.
* fourth-power bound 2*C[k][2] <= m**2 * k**4 for k >= 4.
* adjacent-ratio bound C[k][n+1] <= C[k][n] * m * k**(m*theta) for rational
  theta >= 2/m, compared exactly via q-th powers for theta = p/q.  Each cell
  is first decided from bit lengths, which settles it exactly whenever the
  two sides differ by more than about q bits; only the cells in that band
  build the q-th powers.  The extremal ratio is the same float as a log of
  every cell's exact powers would give: a float estimate per cell picks the
  few cells near the maximum, and only those are evaluated exactly.
* auxiliary function f(x) = (1+x)**(m*theta) - (1-1/m)*x**(m*theta-1) - 1
  is nonnegative on [0,1], proved on all of it: a monotone lower bound of f
  on each box [2**-(j+1), 2**-j], j < 40, from directed-rounding integer
  powers, bisected while not positive, and below 2**-40 a lemma from
  Bernoulli's inequality; plus the endpoint identities f(0) = 0 and
  f(1) = 2**(m*theta) - 2 + 1/m.  No grid.
* evaluation lower bound: for lam = +/- i*m, integer theta >= 1, and the
  k_j orders, 4*|p_{k_j}(k_j**theta)|**2 >= m**(2 k_j) * k_j**(2 theta k_j (m-1))
  as exact integers (the |.|**2 is an exact Gaussian-integer modulus squared).

A table is a ``CoeffTable`` or a ``coeff_rows`` walk, read once in ascending k.
The per-row logic of each table check is written once, as a step that
``_walk`` feeds each row; ``check_table_bounds`` runs three of them on one
walk.
Rational parameters are plain fractions.Fraction values throughout.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._util import CheckResult, ParameterError, _result, format_fraction, require_degree, require_precision
from .derivpoly import CoeffRows, CoeffTable, _kj_polys, gaussian_parts


def check_floor_identities(m: int, k_max: int) -> CheckResult:
    """Exhaustive integer check of the floor-step behaviour for 1 <= k <= k_max."""
    require_degree(m)
    if k_max < 1:
        raise ParameterError("k_max must be >= 1, got %r" % (k_max,))
    witnesses = []
    for k in range(1, k_max + 1):
        cur = k * (m - 1) // m
        nxt = (k + 1) * (m - 1) // m
        expected = cur if k % m == 0 else cur + 1
        if nxt != expected:
            witnesses.append((k, cur, nxt))
    return _result("floor-step", {"m": m, "k_max": k_max}, witnesses)


class _Ck1Step:
    """C[k][1] == (m-1)k(k-1)/2 exactly, one row at a time from k = 2."""

    first_k = 2

    def __init__(self, m: int, k_max: int):
        if k_max < 2:
            raise ParameterError("table must reach k >= 2")
        self.m, self.k_max, self.witnesses = m, k_max, []

    def feed(self, k: int, row: tuple) -> None:
        expected = (self.m - 1) * k * (k - 1) // 2
        if row[1] != expected:
            self.witnesses.append((k, row[1], expected))

    def result(self) -> CheckResult:
        return _result("ck1-closed-form", {"m": self.m, "k_max": self.k_max}, self.witnesses)


class _Ck2Step:
    """2*C[k][2] <= m**2 * k**4 exactly, one row at a time from k = 4; records the max ratio."""

    first_k = 4

    def __init__(self, m: int, k_max: int):
        if k_max < 4:
            raise ParameterError("table must reach k >= 4")
        self.m, self.k_max, self.witnesses, self.max_ratio = m, k_max, [], None

    def feed(self, k: int, row: tuple) -> None:
        lhs = 2 * row[2]
        rhs = self.m * self.m * k**4
        if lhs > rhs:
            self.witnesses.append((k, lhs, rhs))
        ratio = math.exp(math.log(lhs) - math.log(rhs))
        if self.max_ratio is None or ratio > self.max_ratio:
            self.max_ratio = ratio

    def result(self) -> CheckResult:
        return _result("ck2-fourth-power-bound", {"m": self.m, "k_max": self.k_max}, self.witnesses, self.max_ratio)


# The float estimate q*(ln a - ln b) - ln f of a cell is off by well under
# 1e-10 for coefficients of a few thousand digits (the error grows like
# q * bits * 2**-52), so every cell that could hold the exact maximum of the
# log ratio lies within this slack of the largest estimate.
_EXTREMAL_SLACK = 1e-6


class _RatioStep:
    """C[k][n+1] <= C[k][n] * m * k**(m*theta) exactly, one row at a time from k = 2.

    For theta = p/q the comparison is a**q <= b**q * f with a = C[k][n+1],
    b = C[k][n] and f = m**q * k**(m*p), an exact integer statement.  Most
    cells are settled by bit lengths alone (see ``_exceeds``); the q-th
    powers are built only for the rest.  The extremal ratio is the maximum
    of (ln a**q - ln(b**q * f)) / q, evaluated only on the cells whose float
    estimate comes within ``_EXTREMAL_SLACK`` of the largest one.
    """

    first_k = 2

    def __init__(self, m: int, k_max: int, theta: Fraction):
        theta = Fraction(theta)
        if theta < Fraction(2, m):
            raise ParameterError("hypothesis violated: theta=%s < 2/m for m=%d" % (theta, m))
        self.params = {"m": m, "k_max": k_max, "theta": format_fraction(theta)}
        self.q, self.m_p, self.m_q = theta.denominator, m * theta.numerator, m**theta.denominator
        self.witnesses = []
        self.best = -math.inf
        self.near_best = []  # (estimate, a, b, f) within the slack of ``best``

    def feed(self, k: int, row: tuple) -> None:
        q = self.q
        scale = self.m_q * k**self.m_p
        ln_scale, lf = math.log(scale), scale.bit_length()
        # each entry's log and bit length serve both of its neighbours
        logs = [math.log(c) for c in row]
        bits = [c.bit_length() for c in row]
        for n in range(len(row) - 1):
            a, b = row[n + 1], row[n]
            if _exceeds(a, b, scale, q, bits[n + 1] - bits[n], lf):
                self.witnesses.append((k, n, a, b))
            estimate = q * (logs[n + 1] - logs[n]) - ln_scale
            if estimate > self.best - _EXTREMAL_SLACK:
                self.near_best.append((estimate, a, b, scale))
                if estimate > self.best:
                    self.best = estimate
                    self.near_best = [c for c in self.near_best if c[0] > self.best - _EXTREMAL_SLACK]

    def result(self) -> CheckResult:
        q, extremal = self.q, None
        if self.near_best:
            extremal = math.exp(max((math.log(a**q) - math.log(b**q * f)) / q for _, a, b, f in self.near_best))
        return _result("adjacent-ratio-bound", self.params, self.witnesses, extremal)


def _exceeds(a: int, b: int, f: int, q: int, gap: int, lf: int) -> bool:
    """a**q > b**q * f for positive ints, decided by bit lengths where they suffice.

    ``gap`` is la - lb and ``lf`` is lf, where la, lb, lf are the bit lengths
    of a, b, f.  a**q >= 2**(q*(la-1)) and b**q * f < 2**(q*lb + lf), so
    q*(la-lb-1) >= lf proves the excess; a**q < 2**(q*la) and
    b**q * f >= 2**(q*(lb-1) + lf - 1), so q*(la-lb+1) < lf rules it out.
    Only the band between needs the powers.
    """
    if q * (gap - 1) >= lf:
        return True
    if q * (gap + 1) < lf:
        return False
    return a**q > b**q * f


def _walk(table: CoeffTable | CoeffRows, *steps) -> list[CheckResult]:
    """Feed every row of ``table`` once, in ascending k, to each step from its ``first_k``; return their results."""
    for k, row in enumerate(table, start=1):
        for step in steps:
            if k >= step.first_k:
                step.feed(k, row)
    return [step.result() for step in steps]


def check_ck1_closed_form(table: CoeffTable | CoeffRows) -> CheckResult:
    """C[k][1] == (m-1)k(k-1)/2 exactly, for every 2 <= k <= k_max."""
    return _walk(table, _Ck1Step(table.m, table.k_max))[0]


def check_ck2_bound(table: CoeffTable | CoeffRows) -> CheckResult:
    """2*C[k][2] <= m**2 * k**4 exactly for 4 <= k <= k_max; records the max ratio."""
    return _walk(table, _Ck2Step(table.m, table.k_max))[0]


def check_ratio_bound(table: CoeffTable | CoeffRows, theta: Fraction) -> CheckResult:
    """C[k][n+1] <= C[k][n] * m * k**(m*theta) exactly, via q-th powers.

    See ``_RatioStep``.  Requires theta >= 2/m (the bound's hypothesis).
    """
    return _walk(table, _RatioStep(table.m, table.k_max, theta))[0]


def check_table_bounds(table: CoeffTable | CoeffRows, theta: Fraction) -> list[CheckResult]:
    """``check_ck1_closed_form``, ``check_ck2_bound`` and ``check_ratio_bound`` from one walk of ``table``.

    Each row is read once and fed to the three checks in turn, so a
    ``coeff_rows`` walk makes every row once.  The table must reach k >= 4.
    """
    m, k_max = table.m, table.k_max
    return _walk(table, _Ck1Step(m, k_max), _Ck2Step(m, k_max), _RatioStep(m, k_max, theta))


# Boxes [2**-(j+1), 2**-j] for j < _WEDGE_TAIL_EXP cover [2**-_WEDGE_TAIL_EXP, 1];
# a box whose lower bound is not positive is bisected, at most _WEDGE_MAX_DEPTH times.
_WEDGE_TAIL_EXP = 40
_WEDGE_MAX_DEPTH = 10
# The powers in the wedge proof are bounded with this many bits beyond the requested precision.
_WEDGE_GUARD_BITS = 32


def _mul(x: tuple[int, int], y: tuple[int, int], bits: int, up: bool) -> tuple[int, int]:
    """x*y for nonnegative numbers held as (mantissa, exponent) int pairs, the
    mantissa cut to ``bits`` bits, rounded down (``up``: up)."""
    man, exp = x[0] * y[0], x[1] + y[1]
    drop = man.bit_length() - bits
    if drop > 0:
        man = -(-man >> drop) if up else man >> drop
        exp += drop
    return man, exp


def _pow(x: tuple[int, int], n: int, bits: int, up: bool) -> tuple[int, int]:
    """x**n by squaring; every product is rounded the same way, so the result
    is a bound of x**n in that direction, within about 2n units of 2**-bits."""
    result = (1, 0)
    while n:
        if n & 1:
            result = _mul(result, x, bits, up)
        n >>= 1
        if n:
            x = _mul(x, x, bits, up)
    return result


def _cut(x: Fraction, bits: int, up: bool) -> tuple[int, int]:
    """A rational x > 0 as a (mantissa, exponent) pair of about ``bits`` bits,
    rounded down (``up``: up); exact when x is dyadic and that short."""
    exp = x.numerator.bit_length() - x.denominator.bit_length() - bits
    num, den = (x.numerator, x.denominator << exp) if exp >= 0 else (x.numerator << -exp, x.denominator)
    return (-(-num // den) if up else num // den), exp


def _value(x: tuple[int, int]) -> Fraction:
    """The exact value of a (mantissa, exponent) pair."""
    man, exp = x
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def _root(x: tuple[int, int], q: int, bits: int) -> tuple[int, int]:
    """Newton's approximation of x**(1/q) to about ``bits`` bits, for a pair x > 0; not a bound.

    Seeded by a float root of the mantissa's top bits, each step
    y <- ((q-1)*y + x/y**(q-1))/q about doubles the correct bits, until a
    step moves y by at most a few units.
    """
    num, e = x
    drop = max(num.bit_length() - 53, 0)
    whole, rest = divmod(e + drop, q)  # x = (num >> drop) * 2**(q*whole + rest), near enough
    frac, exp = math.frexp(math.exp((math.log(num >> drop) + rest * math.log(2)) / q))
    y = (int(frac * 2**53), exp - 53 + whole)
    for _ in range(bits):
        zm, ze = _pow(y, q - 1, bits, False)
        shift = bits + zm.bit_length() - num.bit_length()  # x / y**(q-1) to ``bits`` bits
        quo, quo_exp = (num << shift) // zm, e - shift - ze
        low = min(y[1], quo_exp)
        man = (((q - 1) * y[0] << (y[1] - low)) + (quo << (quo_exp - low))) // q
        drop = max(man.bit_length() - bits, 0)
        prev, y = y, (man >> drop, low + drop)
        if y[1] == prev[1] and abs(y[0] - prev[0]) <= 4:
            break
    return y


def _power_bound(x: Fraction, p: int, q: int, bits: int, up: bool) -> Fraction:
    """A lower bound of x**(p/q) (``up``: an upper bound) for a rational x >= 0 and ints p, q >= 1.

    x is cut to ``bits`` bits in the bound's direction (exactly, for the
    dyadic points of the wedge proof).  The root r of the cut is Newton's,
    certified by one q-th power rounded the other way: r**q rounded up at
    or below the cut proves r <= x**(1/q) (rounded down at or above it,
    r >= x**(1/q)), and r moves by a doubling step until it does.  Then
    r**p is rounded in the bound's own direction at every product.  All of
    it is integer arithmetic on ``bits``-bit mantissas, so the cost grows
    with log p and log q, not with p or q, and the bound is within about
    8p units of 2**-bits of x**(p/q), relatively.
    """
    if x == 0:
        return x
    root = cut = _cut(x, bits, up)
    if q > 1:
        target, root, step = _value(cut), _root(cut, q, bits), 1
        while True:
            power = _value(_pow(root, q, bits, not up))
            if (power >= target) if up else (power <= target):
                break
            root = (root[0] + step if up else max(root[0] - step, 0), root[1])
            step *= 2
    return _value(_pow(root, p, bits, up))


def _wedge_fn_bound(p: int, q: int, m: int, lo: Fraction, hi: Fraction, bits: int, up: bool = False) -> Fraction:
    """A lower bound of f(x) = (1+x)**a - (1-1/m)*x**(a-1) - 1 on [lo, hi], a = p/q >= 2
    (``up``: an upper bound), for rationals 0 <= lo <= hi.

    Both powers increase in x, so (1+lo)**a - (1-1/m)*hi**(a-1) - 1 lies at or
    below f on the box; it is bounded below by a floor-rounded (1+lo)**(p/q)
    and a ceiling-rounded hi**((p-q)/q).  ``up`` swaps lo and hi and both
    roundings.  At lo == hi the two bracket f(lo).
    """
    first = _power_bound(1 + (hi if up else lo), p, q, bits, up)
    second = _power_bound(lo if up else hi, p - q, q, bits, not up)
    return first - Fraction(m - 1, m) * second - 1


def _wedge_box_bound(
    p: int, q: int, m: int, lo: Fraction, hi: Fraction, bits: int, depth: int, witnesses: list
) -> float:
    """The least of 0 and a lower bound of f on [lo, hi], bisecting while that bound is not positive.

    A box still not positive after _WEDGE_MAX_DEPTH bisections is a
    witness; only such a bound, which is at least -2, is made a float.
    """
    lower = _wedge_fn_bound(p, q, m, lo, hi, bits)
    if lower > 0:
        return 0.0
    if depth == _WEDGE_MAX_DEPTH:
        witnesses.append((format_fraction(lo), format_fraction(hi), str(float(lower))))
        return float(lower)
    mid = (lo + hi) / 2
    return min(
        _wedge_box_bound(p, q, m, lo, mid, bits, depth + 1, witnesses),
        _wedge_box_bound(p, q, m, mid, hi, bits, depth + 1, witnesses),
    )


def check_wedge_fn_nonneg(m: int, theta: Fraction, precision_bits: int = 192) -> CheckResult:
    """f(x) = (1+x)**a - (1-1/m)*x**(a-1) - 1 >= 0 on [0,1], for a = m*theta >= 2.

    A proof over all of [0,1] in integer directed rounding at
    ``precision_bits`` plus _WEDGE_GUARD_BITS, one path for every rational
    a = p/q.  Each box [2**-(j+1), 2**-j], j < 40, gets the lower bound of
    ``_wedge_fn_bound`` (a floor-rounded (1+lo)**(p/q) less (1-1/m) times a
    ceiling-rounded hi**((p-q)/q), less 1), compared exactly as a Fraction
    and bisected while not positive; a box that stays so is a witness.
    Below 2**-40, Bernoulli's inequality and x**(a-1) <= x give
    f(x) >= (a - 1 + 1/m)*x > 0.  The endpoint identities f(0) = 0 and
    f(1) = 2**a - 2 + 1/m are checked on the lower and upper bounds of f
    there.  The extremal ratio is the least of f(0) = 0 and the box lower
    bounds: 0.0, the minimum of f, on a pass.
    """
    require_degree(m)
    require_precision(precision_bits)
    theta = Fraction(theta)
    if theta < Fraction(2, m):
        raise ParameterError("hypothesis violated: theta=%s < 2/m for m=%d" % (theta, m))
    a = m * theta
    p, q = a.numerator, a.denominator
    bits = precision_bits + _WEDGE_GUARD_BITS
    witnesses = []
    zero, one = Fraction(0), Fraction(1)
    f0 = _wedge_fn_bound(p, q, m, zero, zero, bits), _wedge_fn_bound(p, q, m, zero, zero, bits, up=True)
    if f0 != (0, 0):
        witnesses.append(("endpoint-0", str(float(f0[0]))))
    rest = Fraction(1, m) - 2  # f(1) - 2**a
    gap_lo = _wedge_fn_bound(p, q, m, one, one, bits) - _power_bound(Fraction(2), p, q, bits, True) - rest
    gap_hi = _wedge_fn_bound(p, q, m, one, one, bits, up=True) - _power_bound(Fraction(2), p, q, bits, False) - rest
    if not gap_lo <= 0 <= gap_hi:
        witnesses.append(("endpoint-1", str(float(gap_lo))))
    min_value = 0.0  # f(0)
    for j in reversed(range(_WEDGE_TAIL_EXP)):
        bound = _wedge_box_bound(p, q, m, Fraction(1, 2 ** (j + 1)), Fraction(1, 2**j), bits, 0, witnesses)
        min_value = min(min_value, bound)
    params = {"m": m, "theta": format_fraction(theta)}
    return _result("auxiliary-function-nonneg", params, witnesses, min_value)


def check_lower_bound(
    m: int,
    lambda_sign: int,
    theta: int,
    j_max: int,
    table: CoeffTable | CoeffRows | None = None,
) -> CheckResult:
    """4*|p_{k_j}(k_j**theta)|**2 >= m**(2 k_j) * k_j**(2 theta k_j (m-1)), exactly.

    theta must be a positive integer so that the evaluation point is an
    integer and the Gaussian-integer modulus squared is exact.  The k_j
    construction invariants are re-asserted by kj_sequence itself.
    """
    witnesses = []
    min_log_ratio = None
    for j, k, poly in _kj_polys(m, theta, j_max, table):
        re, im = gaussian_parts(poly, lambda_sign, k**theta)
        lhs = 4 * (re * re + im * im)
        rhs = m ** (2 * k) * k ** (2 * theta * k * (m - 1))
        if lhs < rhs:
            witnesses.append((j, k))
        log_ratio = (math.log(lhs) - math.log(rhs)) / 2
        if min_log_ratio is None or log_ratio < min_log_ratio:
            min_log_ratio = log_ratio
    extremal = None if min_log_ratio is None else math.exp(min_log_ratio)
    params = {"m": m, "lambda_sign": lambda_sign, "theta": theta, "j_max": j_max}
    return _result("evaluation-lower-bound", params, witnesses, extremal)
