"""Independent ground-truth computations certifying the coefficient table.

Three constructions of C[k][n] that share no code with the convolution in
``derivpoly``:

* ``coeff_oracle`` -- a composition-sum formula.  Expanding the k-th
  derivative of exp(lam*x**m/m) by the chain rule over compositions
  k_1 + ... + k_p = k, p = k-n, with 1 <= k_l <= m gives

      C[k][n] = T_k[k-n],  T_k[p] = k! * S_k[p] / (m**p * p!),
      S_k[p] = sum over compositions of prod_l binom(m, k_l)

  (S_k[p] is also [y**k] ((1+y)**m - 1)**p).  Splitting off the last part,
  S_k[p] = sum_{j=1..m} binom(m, j) * S_{k-j}[p-1], and multiplying by
  k!/(m**p * p!) = k!/(k-j)! * (k-j)!/(m**(p-1) * (p-1)!) / (m*p) gives

      T_k[p] = sum_{j=1..m} binom(m, j) * k!/(k-j)! * T_{k-j}[p-1] / (m*p),

  with T_0 = [1], stepped over k keeping only the last m rows.  The
  compositions themselves, whose count explodes, are never enumerated.
  Every division by m*p must be exact; anything else indicates a bug.

* ``symbolic_recursion_oracle`` -- builds p_k literally as a sparse
  polynomial in (lam, x) by k applications of
  p_{k+1} = lam*x**(m-1)*p_k + p_k', then reads coefficients off the
  exponent pattern, verifying no stray monomials appear.

* ``hermite_oracle`` -- for m = 2 only: the classical Hermite recurrence
  H_{k+1} = 2x*H_k - 2k*H_{k-1} gives C[k][n] = k!/(2**n * n! * (k-2n)!),
  recovered from the integer coefficients of H_k.

Each oracle has one stepping generator, which yields C[k][.] as a tuple
row; the point functions walk it to order k, and ``certify`` walks all of
them once, in lockstep, along the rows of a table, comparing whole rows.

Everything here is exact integer/rational arithmetic; no floating point.
"""

from __future__ import annotations

from collections import deque
from itertools import count, islice
from math import comb

from ._util import ParameterError, Record, format_int, require_degree
from .derivpoly import CoeffRows, CoeffTable, row_length


class NonIntegralCoefficientError(ArithmeticError):
    """A composition-sum or Hermite division was not exact (bug indicator)."""


class MonomialPatternError(ArithmeticError):
    """A symbolically built polynomial violated the exponent pattern (bug indicator)."""


def _composition_rows(m: int):
    """Yield C[k][.] for k = 1, 2, ... by stepping T_k[p] = C[k][k-p] over k.

    T_k[p] = sum_{j=1..m} binom(m, j) * k!/(k-j)! * T_{k-j}[p-1] / (m*p), so
    cell n of row k sums binom(m, j) * k!/(k-j)! * C[k-j][n-j+1] over the
    last m rows (out-of-range cells read as zero) and divides by m*(k-n);
    every division is checked exact.
    """
    binomials = [comb(m, j) for j in range(1, m + 1)]
    window = deque([(1,)], maxlen=m)  # C[k-1], C[k-2], ..., C[k-m]; C[0] = (1,)
    for k in count(1):
        sums = [0] * row_length(m, k)
        falling = 1  # k!/(k-j)!
        for j, (b, prev) in enumerate(zip(binomials, window), 1):
            falling *= k - j + 1
            f = b * falling
            for n, c in enumerate(prev, j - 1):  # C[k-j][n-j+1] goes to cell n
                sums[n] += f * c
        for n, s in enumerate(sums):
            sums[n], rem = divmod(s, m * (k - n))
            if rem:
                raise NonIntegralCoefficientError("composition sum does not divide at (m=%d, k=%d, n=%d)" % (m, k, n))
        row = tuple(sums)
        window.appendleft(row)
        yield row


def coeff_oracle(m: int, k: int, n: int) -> int:
    """C[k][n] from the composition-sum formula, exactly: cell n of the row T_k[k-.] that
    ``_composition_rows`` steps to order k, every division of the step checked exact."""
    require_degree(m)
    if k < 1:
        raise ParameterError("order k must be >= 1")
    if not 0 <= n <= k * (m - 1) // m:
        raise ParameterError("index n=%d outside 0..%d" % (n, k * (m - 1) // m))
    return next(islice(_composition_rows(m), k - 1, None))[n]


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
        yield tuple(out[n] for n in range(len(out)))


def symbolic_recursion_oracle(m: int, k: int) -> dict[int, int]:
    """C[k][.] by literal symbolic differentiation, keyed by the term index n.

    Walks ``_symbolic_rows`` up to order k; independent of ``build_coeff_table``.
    """
    require_degree(m)
    if k < 1:
        raise ParameterError("order k must be >= 1")
    return dict(enumerate(next(islice(_symbolic_rows(m), k - 1, None))))


def _hermite_polys():
    """Yield (k, H_k) for k = 1, 2, ...: the integer coefficient vectors of the
    Hermite polynomials, ascending powers, stepped iteratively by
    H_{k+1} = 2x*H_k - 2k*H_{k-1} from H_0 = 1 and H_1 = 2x."""
    prev, cur = (1,), (0, 2)  # H_0, H_1
    for k in count(1):
        yield k, cur
        nxt = [0] * (k + 2)
        for i, c in enumerate(cur):  # 2x * H_k
            nxt[i + 1] += 2 * c
        for i, c in enumerate(prev):  # -2k * H_{k-1}
            nxt[i] -= 2 * k * c
        prev, cur = cur, nxt


def _hermite_rows():
    """Yield C[k][.] for m = 2 and k = 1, 2, ... from the Hermite polynomials.

    H_k's coefficient of x**(k-2n) equals (-1)**n * 2**(k-n) * C[k][n]; the
    sign pattern and the division are asserted exactly: divisibility by a mask
    of the low k-n bits, the quotient by a shift.  Shares no code with
    ``build_coeff_table``.
    """
    for k, poly in _hermite_polys():
        out = []
        for n in range(k // 2 + 1):
            c = poly[k - 2 * n]
            expected_sign = -1 if n % 2 else 1
            if c == 0 or (c > 0) != (expected_sign > 0):
                raise MonomialPatternError("Hermite sign pattern broken at k=%d, n=%d" % (k, n))
            magnitude, shift = abs(c), k - n
            if magnitude & ((1 << shift) - 1):
                raise NonIntegralCoefficientError("Hermite coefficient not divisible at k=%d, n=%d" % (k, n))
            out.append(magnitude >> shift)
        yield tuple(out)


def hermite_oracle(k: int) -> dict[int, int]:
    """C[k][.] for m = 2 from the classical Hermite recurrence.

    Walks ``_hermite_rows`` up to order k; independent of ``build_coeff_table``.
    """
    if k < 1:
        raise ParameterError("order k must be >= 1")
    return dict(enumerate(next(islice(_hermite_rows(), k - 1, None))))


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

    def to_json(self) -> str:
        """The report as ``verify coeffs --json`` writes it: indented by 2, with the final newline."""
        import json

        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def certify(table: CoeffTable | CoeffRows) -> OracleReport:
    """Compare every table entry against every applicable oracle.

    One walk over the rows k = 1..k_max (a walk holds none) advances the
    composition-sum, symbolic and (for m = 2) Hermite generators one order
    at a time; each yields C[k][.] as a tuple after its own checks, and a
    table row equal to every oracle row is certified as a whole.  Only the
    cells of a row that differs are read: a cell is reported at most once,
    with the value of the first disagreeing oracle in that order.
    Discrepancies are data, not errors: fault-injection tests rely on
    getting a report back.
    """
    m = table.m
    walks = [_composition_rows(m), _symbolic_rows(m)]
    if m == 2:
        walks.append(_hermite_rows())
    discrepancies = []
    for k, (table_row, *oracle_rows) in enumerate(zip(table, *walks), start=1):
        if all(row == table_row for row in oracle_rows):
            continue
        for n, value in enumerate(table_row):
            for row in oracle_rows:
                if value != row[n]:
                    discrepancies.append((k, n, format_int(value), format_int(row[n])))
                    break
    return OracleReport(m=m, k_range=(1, table.k_max), discrepancies=tuple(discrepancies))
