"""Multiprecision plumbing shared by every numeric path in the package.

All arithmetic here is either exact (Python ints / fractions.Fraction) or
mpmath floating point with an explicit bit budget.  mpmath keeps global
precision state in its ``mp`` and ``iv`` contexts.  The scalar context is
scoped with ``mp.workprec``; the interval context has no ``workprec`` and
cannot convert ``Fraction`` directly, so its scoped precision manager and the
conversion helpers live here and are used everywhere instead of ad-hoc
context fiddling.

Conversions round at most once at the requested precision; equal Fractions
therefore always convert to bit-identical mpf values, which several
determinism and dilation-identity checks rely on.

The precision policy lives here alone: no function outside this module
takes or states a result precision (a producer is handed the working
precision of one attempt).  ``certified_values``, ``half_log_of_int`` and
``ols_slope`` read ``RESULT_BITS`` when they are called, as every command
does, so setting it raises the precision everywhere; only ``escalate`` and
the pure rounding rule are handed bits.  ``certified_values`` is the one
way a certified value is made: a producer only encloses, yielding
(lo, hi, e) enclosures at the interval precision it is handed, and
``certified_values`` turns each into a value by ``fixed_rounded`` as it is
yielded, under ``escalate``, which starts the work ``GUARD_BITS`` above the
result precision and doubles it while an enclosure rounds apart: Ziv's
strategy.  ``certified_values`` and ``escalate`` are thus where the
precision each certified value used is seen.  ``_first_attempt`` runs a
producer once at the work where ``certified_values`` starts (``_start_work``
states it for both), for a caller that screens with the enclosures before
it certifies any.

An enclosure is read in one way only: ``iv_fixed`` reads an interval
exactly as ints [lo, hi] * 2**e.  ``fixed_rounded`` gives the value both
endpoints round to at the result precision, hence correctly rounded, or
raises.  Kernels that sum exact products keep their enclosures in this
form throughout, rounded outward only where they are trimmed or divided,
the lower end with floor and the upper with ceiling (``fixed_outward``,
``fixed_scaled``).

``PrecisionError`` lives here: an enclosure too wide to certify.  The
package's other error type, ``ParameterError`` for a rejected
caller-supplied value (the only one the CLI maps to a usage error), is
defined in ``_util`` and imported here.  ``ols_slope``, the least-squares
fit of the rate and bound estimators, sits next to the conversions it uses.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction

from mpmath import iv, mp
from mpmath.libmp import from_man_exp, round_nearest

from ._util import ParameterError

RESULT_BITS = 192  # the result precision of every command, far above the at most 24 digits any prints
GUARD_BITS = 64  # ``escalate`` starts this far above the result precision


class PrecisionError(ArithmeticError):
    """An interval enclosure is too wide to certify; ``width`` says how wide (0: exact)."""

    def __init__(self, message, width=None):
        super().__init__(message)
        self.width = width


@contextmanager
def iv_prec(bits: int):
    """Scoped working precision for the interval context (no native workprec)."""
    old = iv.prec
    iv.prec = bits
    try:
        yield iv
    finally:
        iv.prec = old


def to_mpf(value):
    """Convert int/float/Fraction/mpf to mpf at the current working precision.

    Fractions are converted as numerator/denominator with a single rounding,
    so equal Fractions give identical mpf values at equal precision.
    """
    if isinstance(value, Fraction):
        return mp.mpf(value.numerator) / mp.mpf(value.denominator)
    return mp.mpf(value)


def ols_slope(xs, ys):
    """Ordinary least squares slope of ys against xs at ``RESULT_BITS``."""
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two points for a slope")
    with mp.workprec(RESULT_BITS):
        xm = [to_mpf(x) for x in xs]
        ym = [to_mpf(y) for y in ys]
        mean_x = sum(xm) / n
        mean_y = sum(ym) / n
        sxx = sum((x - mean_x) ** 2 for x in xm)
        sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xm, ym))
        return sxy / sxx


def to_iv(value):
    """Enclose int/float/Fraction/mpf in an interval at the current iv precision.

    An interval is passed through unchanged.
    """
    if isinstance(value, Fraction):
        return iv.mpf(value.numerator) / iv.mpf(value.denominator)
    return iv.mpf(value)


def iv_endpoints(x):
    """Exact lower/upper endpoints of an interval as plain mpf values."""
    a, b = x._mpi_
    return mp.make_mpf(a), mp.make_mpf(b)


def iv_fixed(x):
    """(lo, hi, e) of ints with x = [lo * 2**e, hi * 2**e] exactly: an interval's endpoints over one exponent.

    An infinite endpoint, or nonzero endpoints more than 2**16 binades apart (too
    far to align), raises PrecisionError with infinite width: ``escalate`` retries.
    """
    ends = []
    for sign, man, exp, size in x._mpi_:
        if not man and exp:  # an infinity (or nan) has no mantissa and exponent
            raise PrecisionError("enclosure has an infinite endpoint", mp.inf)
        ends.append((-man if sign else man, exp, exp + size))
    (lo, e_lo, top_lo), (hi, e_hi, top_hi) = ends
    if lo and hi and abs(top_lo - top_hi) > 1 << 16:
        raise PrecisionError("enclosure endpoints are too many binades apart to align", mp.inf)
    e = min(e_lo, e_hi)
    return lo << (e_lo - e), hi << (e_hi - e), e


def fixed_rounded(lo: int, hi: int, e: int, bits: int):
    """The value both endpoints of [lo, hi] * 2**e round to at ``bits``: rounding is
    monotone, so every point of the enclosure rounds to it.  Endpoints that round
    apart raise PrecisionError carrying the width, which ``escalate`` retries."""
    value = from_man_exp(lo, e, bits, round_nearest)
    if value != from_man_exp(hi, e, bits, round_nearest):
        raise PrecisionError("enclosure rounds apart at %d bits" % bits, mp.ldexp(hi - lo, e))
    return mp.make_mpf(value)


def fixed_outward(lo: int, hi: int, e: int, prec: int):
    """[lo, hi] * 2**e trimmed outward to ``prec`` bits, as (lo, hi, e, top) with
    |value| < 2**top; None for the exact zero."""
    size = max(lo.bit_length(), hi.bit_length())
    if not size:
        return None
    if size > prec:
        shift = size - prec
        lo, hi, e = lo >> shift, -(-hi >> shift), e + shift
        size = max(lo.bit_length(), hi.bit_length())  # prec, or prec + 1 when hi rounds up to 2**prec
    return lo, hi, e, e + size


def fixed_scaled(x, p: int, q: int, prec: int):
    """The enclosure x = (lo, hi, e, ...) times the exact p/q (q > 0), by one floor
    and one ceiling division, as ``fixed_outward`` makes it; None when p = 0.
    It straddles zero only if x does."""
    n_lo, n_hi = sorted((x[0] * p, x[1] * p))
    shift = max(0, prec + q.bit_length() - max(n_lo.bit_length(), n_hi.bit_length()))
    return fixed_outward((n_lo << shift) // q, -((-n_hi << shift) // q), x[2] - shift, prec)


def certified_midpoint(x, bits: int, rel_error_bits: int = 64):
    """The midpoint of the interval x, read exactly by ``iv_fixed``, certified.

    An enclosure that straddles zero (other than the exact 0), or whose
    width exceeds 2**-rel_error_bits times its smaller endpoint modulus,
    raises PrecisionError; otherwise the exact midpoint is rounded once, at
    ``bits``.  A reference only: certified values are ``fixed_rounded``.
    """
    lo, hi, e = iv_fixed(x)
    width = hi - lo
    if width and lo <= 0 <= hi:
        abs_width = mp.ldexp(width, e)
        raise PrecisionError("enclosure of width %s straddles zero" % mp.nstr(abs_width, 8), abs_width)
    near = -hi if hi < 0 else lo  # the smaller endpoint modulus
    if width << rel_error_bits > near:
        with mp.workprec(53):
            rel = mp.mpf(width) / near
        raise PrecisionError("relative width %s exceeds the certification bound" % mp.nstr(rel, 8), rel)
    return mp.make_mpf(from_man_exp(lo + hi, e - 1, bits, round_nearest))


def _start_work(bits: int) -> int:
    """The work of the first attempt at a result precision of ``bits``."""
    return bits + GUARD_BITS


def escalate(compute, bits: int):
    """``compute(work)`` for a result precision of ``bits``: ``work`` starts at
    ``_start_work(bits)`` = bits + GUARD_BITS and doubles on PrecisionError up to
    16 times the start.

    An exact enclosure (width 0) and the error at the cap re-raise as they are.
    """
    start = _start_work(bits)
    for step in range(5):
        try:
            return compute(start << step)
        except PrecisionError as exc:
            if exc.width == 0 or step == 4:
                raise


def certified_values(enclose):
    """Values certified at the result precision ``RESULT_BITS``, read when called:
    ``fixed_rounded(lo, hi, e, RESULT_BITS)`` of each enclosure that ``enclose(work)``
    yields, hence correctly rounded, with the interval context at ``work`` while
    it runs, made again under ``escalate`` while an enclosure rounds apart.

    Each enclosure is turned into a value as soon as it is yielded, so no
    enclosure after one that raises is made.
    """
    bits = RESULT_BITS

    def compute(work):
        with iv_prec(work):
            return [fixed_rounded(*enc, bits) for enc in enclose(work)]

    return escalate(compute, bits)


def _first_attempt(enclose):
    """(work, enclose(work)) at the work where ``certified_values`` makes its first
    attempt, with the interval context at it.  Nothing is certified: a caller screens
    with these enclosures, and may hand them back to the first attempt."""
    work = _start_work(RESULT_BITS)
    with iv_prec(work):
        return work, enclose(work)


def half_log_of_int(n: int):
    """ln(n)/2 for a positive integer n, correctly rounded at ``RESULT_BITS``,
    from the enclosure ``iv.log`` makes."""
    if n <= 0:
        raise ParameterError("positive integer required")
    return certified_values(lambda work: [iv_fixed(iv.log(iv.mpf(n)) / 2)])[0]
