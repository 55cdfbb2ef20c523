"""Independent ground-truth computations certifying the coefficient table.

Three constructions of C[k][n] that share no code with the convolution in
``derivpoly``:

* ``coeff_oracle`` -- a composition-sum formula.  Expanding the k-th
  derivative of exp(lam*x**m/m) by the chain rule over compositions
  k_1 + ... + k_{k-n} = k with 1 <= k_l <= m gives

      C[k][n] = k! / (m**(k-n) * (k-n)!) * S,
      S = sum over compositions of prod_l binom(m, k_l),

  and S = S_k[k-n] is stepped over k by splitting off the last part,
  S_k[p] = sum_{j=1..m} binom(m, j) * S_{k-j}[p-1] with S_0 = [1], keeping
  only the last m rows (S_k[p] is also [y**k] ((1+y)**m - 1)**p).  The
  compositions themselves, whose count explodes, are never enumerated.
  The rational prefactor times S must be an integer; anything else
  indicates a bug.

* ``symbolic_recursion_oracle`` -- builds p_k literally as a sparse
  polynomial in (lam, x) by k applications of
  p_{k+1} = lam*x**(m-1)*p_k + p_k', then reads coefficients off the
  exponent pattern, verifying no stray monomials appear.

* ``hermite_oracle`` -- for m = 2 only: the classical Hermite recurrence
  H_{k+1} = 2x*H_k - 2k*H_{k-1} gives C[k][n] = k!/(2**n * n! * (k-2n)!),
  recovered from the integer coefficients of H_k.

Each oracle has one stepping generator; the point functions walk it to
order k, and ``certify`` walks all of them once, in lockstep, along the
rows of a table.

Everything here is exact integer/rational arithmetic; no floating point.
"""

from __future__ import annotations

from collections import deque
from itertools import count, islice
from math import comb

from ._util import ParameterError, Record, format_int, require_degree
from .derivpoly import CoeffRows, CoeffTable, row_length


class NonIntegralCoefficientError(ArithmeticError):
    """The composition-sum prefactor failed to divide exactly (bug indicator)."""


class MonomialPatternError(ArithmeticError):
    """A symbolically built polynomial violated the exponent pattern (bug indicator)."""


def _composition_sums(m: int):
    """Yield S_k for k = 0, 1, ...: S_k[p] = [y**k] ((1+y)**m - 1)**p, p = 0..k.

    S_k[p] sums prod_l binom(m, k_l) over compositions k = k_1 + ... + k_p
    with 1 <= k_l <= m; splitting off the last part gives
    S_k[p] = sum_{j=1..m} binom(m, j) * S_{k-j}[p-1], with S_0 = [1].  Only
    the last m rows are kept.
    """
    binomials = [comb(m, j) for j in range(1, m + 1)]
    window = deque([[1]], maxlen=m)  # S_{k-1}, S_{k-2}, ..., S_{k-m}
    yield [1]
    for k in count(1):
        row = [0] * (k + 1)
        for b, prev in zip(binomials, window):
            for p, s in enumerate(prev):
                row[p + 1] += b * s
        window.appendleft(row)
        yield row


def _composition_cells(m: int):
    """Yield, for k = 1, 2, ..., the pairs (k!/(k-n)! * S_k[k-n], m**(k-n)), n = 0..floor(k(m-1)/m).

    C[k][n] = k! * S_k[k-n] / (m**(k-n) * (k-n)!), and (k-n)! always divides
    k!, so C[k][n] is the first of its pair divided by the second, and the
    division must be exact.  Along a row, k!/(k-n)! and m**(k-n) are carried
    from n to n+1 by one small-factor product and one exact division by m.
    """
    for k, sums in enumerate(islice(_composition_sums(m), 1, None), 1):
        cells, falling, power = [], 1, m**k  # k!/(k-n)! and m**(k-n) at n = 0
        for n in range(row_length(m, k)):
            cells.append((falling * sums[k - n], power))
            falling *= k - n
            power //= m
        yield cells


def _composition_value(m: int, k: int, n: int, cell: tuple[int, int]) -> int:
    """C[k][n] from its composition-sum pair; NonIntegralCoefficientError unless the division is exact."""
    value, rem = divmod(*cell)
    if rem:
        raise NonIntegralCoefficientError("prefactor does not divide at (m=%d, k=%d, n=%d)" % (m, k, n))
    return value


def coeff_oracle(m: int, k: int, n: int) -> int:
    """C[k][n] from the composition-sum formula, exactly; walks ``_composition_cells`` to order k."""
    require_degree(m)
    if k < 1:
        raise ParameterError("order k must be >= 1")
    if not 0 <= n <= k * (m - 1) // m:
        raise ParameterError("index n=%d outside 0..%d" % (n, k * (m - 1) // m))
    return _composition_value(m, k, n, next(islice(_composition_cells(m), k - 1, None))[n])


def _symbolic_rows(m: int):
    """Yield C[k][.] for k = 1, 2, ... by literal symbolic differentiation.

    The polynomial p_k is a dict (lam_power, x_power) -> coefficient, started
    at the constant 1 and advanced one derivative per order by
    p_{k+1} = lam*x**(m-1)*p_k + p_k'.  Each order's row is read off the
    exponent pattern, which is checked for stray monomials and missing term
    indices.  Shares no code with ``build_coeff_table``: this is the
    independent check of its convolution.
    """
    poly: dict[tuple[int, int], int] = {(0, 0): 1}
    for k in count(1):
        nxt: dict[tuple[int, int], int] = {}
        for (a, b), c in poly.items():
            key = (a + 1, b + m - 1)  # lam * x**(m-1) * term
            nxt[key] = nxt.get(key, 0) + c
            if b >= 1:  # term'
                key = (a, b - 1)
                nxt[key] = nxt.get(key, 0) + c * b
        poly = {key: c for key, c in nxt.items() if c}
        out: dict[int, int] = {}
        for (a, b), c in poly.items():
            n = k - a
            if not 0 <= n <= k * (m - 1) // m or b != (m - 1) * k - n * m or c <= 0:
                raise MonomialPatternError(
                    "stray monomial lam**%d x**%d (coeff %d) at m=%d, k=%d" % (a, b, c, m, k)
                )
            out[n] = c
        if sorted(out) != list(range(row_length(m, k))):
            raise MonomialPatternError("missing term indices at m=%d, k=%d" % (m, k))
        yield out


def symbolic_recursion_oracle(m: int, k: int) -> dict[int, int]:
    """C[k][.] by literal symbolic differentiation, keyed by the term index n.

    Walks ``_symbolic_rows`` up to order k; independent of ``build_coeff_table``.
    """
    require_degree(m)
    if k < 1:
        raise ParameterError("order k must be >= 1")
    return next(islice(_symbolic_rows(m), k - 1, None))


def _hermite_rows():
    """Yield C[k][.] for m = 2 and k = 1, 2, ... from the Hermite recurrence.

    The pair H_{k-1}, H_k of integer coefficient vectors is stepped
    iteratively by H_{k+1} = 2x*H_k - 2k*H_{k-1}.  H_k's coefficient of
    x**(k-2n) equals (-1)**n * 2**(k-n) * C[k][n]; the division and the sign
    pattern are asserted exactly.  Shares no code with ``build_coeff_table``.
    """
    prev, cur = (1,), (0, 2)  # H_0, H_1
    for k in count(1):
        out: dict[int, int] = {}
        for n in range(k // 2 + 1):
            c = cur[k - 2 * n]
            expected_sign = -1 if n % 2 else 1
            if c == 0 or (c > 0) != (expected_sign > 0):
                raise MonomialPatternError("Hermite sign pattern broken at k=%d, n=%d" % (k, n))
            value, rem = divmod(abs(c), 2 ** (k - n))
            if rem:
                raise NonIntegralCoefficientError("Hermite coefficient not divisible at k=%d, n=%d" % (k, n))
            out[n] = value
        yield out
        nxt = [0] * (k + 2)
        for i, c in enumerate(cur):  # 2x * H_k
            nxt[i + 1] += 2 * c
        for i, c in enumerate(prev):  # -2k * H_{k-1}
            nxt[i] -= 2 * k * c
        prev, cur = cur, nxt


def hermite_oracle(k: int) -> dict[int, int]:
    """C[k][.] for m = 2 from the classical Hermite recurrence.

    Walks ``_hermite_rows`` up to order k; independent of ``build_coeff_table``.
    """
    if k < 1:
        raise ParameterError("order k must be >= 1")
    return next(islice(_hermite_rows(), k - 1, None))


class OracleReport(Record):
    """Outcome of certifying a table; empty discrepancies means certified equal.

    Each discrepancy is (k, n, table_value, oracle_value) with the values as
    decimal strings.
    """

    m: int
    k_range: tuple[int, int]
    discrepancies: tuple[tuple[int, int, str, str], ...]

    @property
    def certified(self) -> bool:
        return not self.discrepancies

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "k_range": list(self.k_range),
            "certified": self.certified,
            "discrepancies": [list(d) for d in self.discrepancies],
        }

    def to_json(self, **kwargs) -> str:
        import json

        return json.dumps(self.to_json_dict(), **kwargs)


def certify(table: CoeffTable | CoeffRows) -> OracleReport:
    """Compare every table entry against every applicable oracle.

    One walk over the rows k = 1..k_max (a walk holds none) advances the
    composition-sum, symbolic and (for m = 2) Hermite recursions one order
    at a time.  A cell is reported at most once, with the value of the first
    disagreeing oracle in that order.  The composition sum is checked
    without division, as C[k][n] * m**(k-n) == k!/(k-n)! * S_k[k-n]; only a
    cell that fails it is divided, to report the oracle's value (or raise
    ``NonIntegralCoefficientError``).  Discrepancies are data, not errors:
    fault-injection tests rely on getting a report back.
    """
    m = table.m
    walks = [_symbolic_rows(m)]
    if m == 2:
        walks.append(_hermite_rows())
    discrepancies = []
    for k, (table_row, cells, *oracle_rows) in enumerate(zip(table, _composition_cells(m), *walks), start=1):
        for n, value in enumerate(table_row):
            numerator, power = cells[n]
            if value * power == numerator:
                for row in oracle_rows:
                    if value != row[n]:
                        expected = row[n]
                        break
                else:
                    continue
            else:
                expected = _composition_value(m, k, n, cells[n])
            discrepancies.append((k, n, format_int(value), format_int(expected)))
    return OracleReport(m=m, k_range=(1, table.k_max), discrepancies=tuple(discrepancies))
