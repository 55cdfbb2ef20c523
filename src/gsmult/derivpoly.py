"""Derivative polynomials of exponential monomials exp(lam*x**m/m).

Repeated differentiation of g(x) = exp(lam * x**m / m), m >= 2, gives

    d^k/dx^k g(x) = p_k(x) * g(x)

where p_k is a polynomial of degree k*(m-1).  Ordered by descending x-power
its nonzero terms follow a rigid pattern:

    p_k(x) = sum_{n=0}^{floor(k*(m-1)/m)} lam**(k-n) * x**((m-1)*k - n*m) * C[k][n]

with coefficients C[k][n] that are positive integers depending on m alone
(for m = 2, lam = -2 they reduce to Hermite polynomial coefficients up to
sign and powers of two).  Differentiating the pattern once more yields the
convolution step used to build the whole table:

    C[k+1][n] = C[k][n] + C[k][n-1] * ((m-1)*k - m*(n-1))

where out-of-range entries are read as zero.  Reading them as zero makes the
two boundary cases of the step (top index present or absent, depending on
whether m divides k) a single uniform formula; the oracle module certifies
the result against two independent constructions.

The step is written once, in ``_next_row``; only + and * by an int touch
the entries, so it walks Python ints (``coeff_rows``, for every consumer
that reads the values) and exact ``decimal.Decimal`` integers
(``CoeffRows.decimals``, for the JSON export: a Decimal's ``str`` takes
time linear in its digits, an int's quadratic).  The Decimal walk runs each
step in a context of maximal precision that traps every rounding, so a
digit cannot be lost silently.  Nothing here loads mpmath until a
magnitude is evaluated, so ``table`` and ``verify coeffs`` never load it.

|p_k(x)| is the same for lam = +i*m and lam = -i*m (at a real x the two
values are complex conjugates), so no magnitude here takes a sign.
``_halves`` splits the row by parity into two real Horner loops in
-(m*x**m)**2 (Knuth, TAOCP vol. 2, 4.6.4) that run unchanged over Python
ints, Fractions and mpmath intervals: |p_k(x)|**2 is an exact integer
whenever x is a nonnegative integer, and any other x (a Fraction, an mpf, or
an interval enclosing a point such as k**theta) is enclosed.  On both paths
the log is only enclosed here and made a value, correctly rounded at
``precision.RESULT_BITS``, by ``precision.certified_values``, so the value
does not depend on the path.  ``_log_magnitudes`` is the one evaluator at the
paper's points x_k = k**theta, along any set of orders: exact at an integer
theta, else with k**theta enclosed and certified together with its log.
Only ``gaussian_parts``, which makes p_k(x) itself, reads the sign.
|D^k g| = |d^k/dx^k g| since D = i^{-1} d/dx only changes the phase, so all
magnitude-level results hold for either normalization.
"""

from __future__ import annotations

import decimal
import io
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import islice

from . import precision  # lazy: its body, and mpmath, load at the first evaluation
from ._util import ParameterError, Record, format_int, parse_int, require_degree, require_power_size, require_sign
from ._util import require_theta

# Exact integer arithmetic on Decimals: a result that would need rounding raises instead.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.Overflow, decimal.InvalidOperation],
)


def row_length(m: int, k: int) -> int:
    """Number of table entries for order k: floor(k*(m-1)/m) + 1."""
    return k * (m - 1) // m + 1


class CoeffTable(Record):
    """Triangular table of the positive integer coefficients C[k][n].

    rows[k-1] holds the row for derivative order k, of length
    floor(k*(m-1)/m) + 1.  Immutable after construction; safe to share.
    Rows are checked as they are read, as ``CoeffRows`` checks them: ``row``
    refuses an order the rows do not hold, and iteration refuses rows that
    do not number k_max, each with ``ParameterError``.
    """

    m: int
    k_max: int
    rows: tuple[tuple[int, ...], ...]

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        if len(self.rows) != self.k_max:
            raise ParameterError("row count %d does not match k_max %d" % (len(self.rows), self.k_max))
        for k in range(1, self.k_max + 1):
            yield self.row(k)

    def row(self, k: int) -> tuple[int, ...]:
        held = min(self.k_max, len(self.rows))
        if not 1 <= k <= held:
            raise ParameterError("order %d outside the rows held, 1..%d" % (k, held))
        row = self.rows[k - 1]
        _check_row(self.m, k, row)
        return row

    def to_json(self) -> str:
        """Exact export in the ``table`` file format: the text ``write_table_json`` writes for these rows."""
        out = io.StringIO()
        write_table_json(out, self.m, self.k_max, self.rows)
        return out.getvalue()

    @classmethod
    def from_json_dict(cls, data: dict) -> "CoeffTable":
        rows = tuple(tuple(parse_int(c) for c in row) for row in data["rows"])
        table = cls(m=int(data["m"]), k_max=int(data["k_max"]), rows=rows)
        table.validate()
        return table

    def validate(self) -> None:
        """Structural invariants: the degree, then every row read as iteration reads it."""
        require_degree(self.m)
        for _ in self:
            pass


def _check_row(m: int, k: int, row: tuple) -> None:
    """Row k of a degree-m table, of ints or Decimals: its length, leading 1 and positivity."""
    if len(row) != row_length(m, k):
        raise ParameterError("row %d has length %d, expected %d" % (k, len(row), row_length(m, k)))
    if row[0] != 1:
        raise ParameterError("row %d does not start with 1" % k)
    if min(row) <= 0:
        raise ParameterError("row %d contains a nonpositive entry" % k)


def write_table_json(fp, m: int, k_max: int, rows) -> None:
    """Write the compact JSON export of a table given by its rows to ``fp``.

    ``rows`` may be any iterable of rows of ints or of integral Decimals,
    such as ``coeff_rows(m, k_max).decimals()``: each row is checked as
    ``CoeffTable.validate`` does and written by ``format_int`` before the
    next is read, so at most one row is held.
    """
    fp.write('{"m":%d,"k_max":%d,"rows":[' % (m, k_max))
    sep = '["'
    count = 0
    for count, row in enumerate(rows, start=1):
        _check_row(m, count, row)
        fp.write(sep + '","'.join(map(format_int, row)) + '"]')
        sep = ',["'
    if count != k_max:
        raise ParameterError("row count %d does not match k_max %d" % (count, k_max))
    fp.write("]}\n")


class CoeffRows(Record):
    """A table that holds no rows: like a ``CoeffTable`` it has ``m`` and ``k_max`` and
    iterates over rows 1..k_max, but each iteration makes every row from the one before
    and checks it as ``CoeffTable.validate`` does.  Made by ``coeff_rows``."""

    m: int
    k_max: int

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        row = (1,)  # p_0 = 1
        for k in range(self.k_max):
            row = _next_row(self.m, k, row)
            _check_row(self.m, k + 1, row)
            yield row

    def decimals(self) -> Iterator[tuple[decimal.Decimal, ...]]:
        """The same rows as exact ``decimal.Decimal`` integers, for export.

        Each step runs under ``_EXACT``, so a rounded digit raises instead of
        being written; the context is set per step and never held across a
        ``yield``, so the caller's context holds between rows and after an
        abandoned walk.  The rows are left to their reader to check, as
        ``write_table_json`` does.
        """
        row = (decimal.Decimal(1),)
        for k in range(self.k_max):
            with decimal.localcontext(_EXACT):
                row = _next_row(self.m, k, row)
            yield row


def _next_row(m: int, k: int, row: tuple) -> tuple:
    """Row k+1 from row k: C[k+1][n] = C[k][n] + C[k][n-1] * w, w = (m-1)k - m(n-1).

    Only + and * by an int touch the entries, so the step is the same over
    ints and exact Decimals.
    """
    padded = row + (0,) if row_length(m, k + 1) > len(row) else row
    return row[:1] + tuple([a + b * w for a, b, w in zip(padded[1:], row, range((m - 1) * k, -1, -m))])


def coeff_rows(m: int, k_max: int) -> CoeffRows:
    """Rows 1..k_max of the degree-m table as a walk; the arguments are checked here, before any row."""
    require_degree(m)
    if not isinstance(k_max, int) or k_max < 1:
        raise ParameterError("k_max must be an integer >= 1, got %r" % (k_max,))
    return CoeffRows(m, k_max)


def build_coeff_table(m: int, k_max: int) -> CoeffTable:
    """The coefficient table for degree m up to order k_max, held; ``coeff_rows`` holds none."""
    return CoeffTable(m=m, k_max=k_max, rows=tuple(coeff_rows(m, k_max)))


def _rows_to(m: int, k_top: int, table: CoeffTable | CoeffRows | None) -> Iterator[tuple[int, ...]]:
    """Rows 1..k_top of ``table``, checked to be of degree m and to reach k_top; walked when None."""
    if table is None:
        table = coeff_rows(m, k_top)
    elif table.m != m or table.k_max < k_top:
        raise ParameterError("table does not cover m=%d up to k=%d" % (m, k_top))
    return islice(table, k_top)


class DerivPoly(Record):
    """Structured view of p_k: coefficient row plus the exponent pattern.

    Term n carries lam**(k-n) * x**((m-1)*k - n*m); coefficients are shared
    with the table, never copied.
    """

    m: int
    k: int
    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return (self.m - 1) * self.k

    def exponent(self, n: int) -> int:
        return (self.m - 1) * self.k - n * self.m

    def terms(self) -> Iterator[tuple[int, int, int, int]]:
        """Yield (n, lambda_power, x_exponent, coefficient) by ascending n."""
        for n, c in enumerate(self.coeffs):
            yield n, self.k - n, self.exponent(n), c


def derivative_poly(table: CoeffTable, k: int) -> DerivPoly:
    """The order-k polynomial as a view into the table; k = 0 is the constant 1."""
    if k == 0:
        return DerivPoly(m=table.m, k=0, coeffs=(1,))
    return DerivPoly(m=table.m, k=k, coeffs=table.row(k))


class LogMagnitude(Record):
    """Natural log of |p_k(x)| with provenance of how it was computed.

    log_mag is correctly rounded at the result precision, -inf when the
    value is 0.  When ``exact`` is set it was rounded from an exact integer
    modulus squared; otherwise from an interval enclosure of p_k(x).
    """

    log_mag: precision.mp.mpf
    exact: bool


def _halves(poly: DerivPoly, x):
    """(scale, E, y*O) with p_k(x) = i**(k - n_top) * scale * (E + i*y*O) for lam = i*m.

    With y = m * x**m, term n of p_k is i**(k-n_top) * scale * C[n] * (i*y)**(n_top-n),
    scale = m**(k-n_top) * x**e_top.  E sums the terms with n_top - n even and i*y*O the
    others, as Horner loops in w = -y**2 from n_top % 2 and from 1 - n_top % 2 (Knuth,
    TAOCP vol. 2, 4.6.4), so every product is real.  Only + - * and integer powers touch x:
    the loop is exact over ints and Fractions, an outward-rounded enclosure over intervals.
    """
    m, k = poly.m, poly.k
    n_top = len(poly.coeffs) - 1
    y = m * x**m
    w = -(y**2)
    even = odd = 0
    for c in poly.coeffs[n_top % 2 :: 2]:
        even = even * w + c
    for c in poly.coeffs[1 - n_top % 2 :: 2]:
        odd = odd * w + c
    return m ** (k - n_top) * x ** poly.exponent(n_top), even, y * odd


def _modulus2(poly: DerivPoly, x):
    """|p_k(x)|**2 = scale**2 * (E**2 + y**2 * O**2) from ``_halves``, the same for lam = +i*m and
    lam = -i*m: at a real x the two values of p_k(x) are complex conjugates."""
    scale, even, odd = _halves(poly, x)
    return scale**2 * (even**2 + odd**2)


def gaussian_parts(poly: DerivPoly, lambda_sign: int, x: int) -> tuple[int, int]:
    """Exact real/imaginary parts of p_k(x) for lam = lambda_sign * i * m, x integer.

    ``_halves`` turned by i**(k - n_top), and conjugated for lam = -i*m: all
    integer multiplication, so the result is exact for any size of k and x.
    """
    require_sign(lambda_sign)
    if not isinstance(x, int) or x < 0:
        raise ParameterError("exact evaluation requires a nonnegative integer x")
    scale, re, im = _halves(poly, x)
    for _ in range((poly.k - len(poly.coeffs) + 1) % 4):
        re, im = -im, re
    return re * scale, lambda_sign * im * scale


def _log_enclosure(poly: DerivPoly, x):
    """(lo, hi, e) of ln|p_k(x)| at the current interval precision; PrecisionError when the
    enclosure of |p_k(x)|**2 touches zero."""
    mag2 = _modulus2(poly, precision.to_iv(x))
    lo, hi, e = precision.iv_fixed(mag2)
    if lo <= 0 <= hi:
        raise precision.PrecisionError("modulus enclosure touches zero", precision.mp.ldexp(hi - lo, e))
    return precision.iv_fixed(precision.iv.log(mag2) / 2)


def eval_log_magnitude(poly: DerivPoly, x) -> LogMagnitude:
    """ln |p_k(x)|, the same for lam = +i*m and lam = -i*m, correctly rounded at ``precision.RESULT_BITS``.

    Integer x (including Fractions with denominator one) goes through the
    exact integer |p_k(x)|**2 of ``_modulus2``.  Other x -- a Fraction, an mpf,
    or an mpmath interval enclosing the point -- is enclosed in interval
    arithmetic by ``precision.certified_values``, again while the log's
    enclosure rounds apart; at the cap (at once for an exact zero)
    PrecisionError is raised.  An integral mpf or interval point takes the
    interval path too, and gets the same value as the exact path.
    """
    x_int = x.numerator if isinstance(x, (int, Fraction)) and x.denominator == 1 else None
    lo = precision.iv_endpoints(x)[0] if isinstance(x, precision.iv.mpf) else x
    if not lo >= 0:
        raise ParameterError("x must be nonnegative")

    if x_int is not None:
        mag2 = _modulus2(poly, x_int)
        log_mag = precision.half_log_of_int(mag2) if mag2 else precision.mp.ninf
        return LogMagnitude(log_mag=log_mag, exact=True)
    (log_mag,) = precision.certified_values(lambda work: [_log_enclosure(poly, x)])
    return LogMagnitude(log_mag=log_mag, exact=False)


def _enclosed_point(poly: DerivPoly, theta: Fraction):
    """The enclosures of x = k**theta, then of ln|p_k(x)| on it, at the current interval precision."""
    x_enc = precision.iv.mpf(poly.k) ** precision.to_iv(theta)
    yield precision.iv_fixed(x_enc)
    yield _log_enclosure(poly, x_enc)


def _log_magnitudes(
    m: int, theta: int | Fraction, orders: Iterable[int], table: CoeffTable | CoeffRows | None
) -> Iterator[tuple[int, object, LogMagnitude]]:
    """(k, x_k, ln|p_k(x_k)|) at the paper's points x_k = k**theta, for each k of ``orders``
    once, in ascending k; the log is correctly rounded at ``precision.RESULT_BITS``.

    At an integer theta x_k is the int k**theta and ``eval_log_magnitude`` is
    exact.  Otherwise x_k is k**theta correctly rounded at the result precision,
    and the enclosure of the point and the log on it are certified together by
    one ``precision.certified_values``, again while either rounds apart.  Rows
    1..max(orders) are read once from ``table``, walked when it is None, after the size of
    the exact path's largest int, p_k's leading term k**(theta*k*(m-1)), is checked.
    """
    wanted = set(orders)
    theta = Fraction(theta)
    k_top = max(wanted)
    if theta.denominator == 1:
        require_power_size(theta, k_top, theta * k_top * (m - 1))
    for k, row in enumerate(_rows_to(m, k_top, table), start=1):
        if k not in wanted:
            continue
        poly = DerivPoly(m=m, k=k, coeffs=row)
        if theta.denominator == 1:
            x = k**theta.numerator
            lm = eval_log_magnitude(poly, x)
        else:
            x, log_mag = precision.certified_values(lambda work: _enclosed_point(poly, theta))
            lm = LogMagnitude(log_mag=log_mag, exact=False)
        yield k, x, lm


class KjSequence(Record):
    """Orders k_j where the alternating real part of p_k is provably dominant.

    entries[j-1] is the smallest integer in [4j*m/(m-1), (4j+1)*m/(m-1)];
    the interval has length m/(m-1) > 1 so it always contains one.  Along
    these orders floor(k_j*(m-1)/m) lands in {4j, 4j+1}, which is what makes
    |p_k(k**theta)| >= (1/2) * m**k * k**(theta*k*(m-1)) provable term by term.
    """

    m: int
    entries: tuple[int, ...]

    def k(self, j: int) -> int:
        if not 1 <= j <= len(self.entries):
            raise ParameterError("j=%d outside stored range 1..%d" % (j, len(self.entries)))
        return self.entries[j - 1]


def kj_sequence(m: int, j_max: int) -> KjSequence:
    """The k_j sequence for degree m, for j = 1..j_max, with invariant checks."""
    require_degree(m)
    if j_max < 1:
        raise ParameterError("j_max must be >= 1")
    entries = []
    for j in range(1, j_max + 1):
        kj = -((-4 * j * m) // (m - 1))  # ceil(4j*m/(m-1))
        if not 4 * j * m <= kj * (m - 1) or not kj * (m - 1) <= (4 * j + 1) * m:
            raise AssertionError("k_%d=%d escaped its defining interval" % (j, kj))
        floor_idx = kj * (m - 1) // m
        if not 4 * j <= floor_idx <= 4 * j + 1:
            raise AssertionError("floor index %d for k_%d=%d outside [4j, 4j+1]" % (floor_idx, j, kj))
        if floor_idx // 2 != 2 * j:
            raise AssertionError("half floor index for k_%d=%d is not 2j" % (j, kj))
        entries.append(kj)
    return KjSequence(m=m, entries=tuple(entries))


def kj_count(m: int, k_max: int) -> int:
    """How many k_j = ceil(4jm/(m-1)) are <= k_max >= 0: exactly those with j <= k_max*(m-1)/(4m)."""
    require_degree(m)
    return k_max * (m - 1) // (4 * m)


def _kj_orders(m: int, theta: int | Fraction, j_max: int) -> tuple[int | Fraction, tuple[int, ...]]:
    """(theta, k_1..k_{j_max}) for the checks along the k_j orders: theta must be rational
    (an int or a Fraction) with m*theta >= 2, and is returned as an int when it is integral."""
    if not isinstance(theta, (int, Fraction)):
        raise ParameterError("theta must be rational (an int or a Fraction), got %r" % (theta,))
    require_theta(m, theta)
    return int(theta) if theta.denominator == 1 else theta, kj_sequence(m, j_max).entries
