"""Small cross-cutting helpers: ordered map, least squares, and the
exact-string formats used by every file-emitting code path."""

from __future__ import annotations

import decimal
import re
import sys
from fractions import Fraction

import mpmath

from .precision import ParameterError, mp_prec, to_mpf


def require_degree(m) -> None:
    """Reject a degree m that is not an integer >= 2."""
    if not isinstance(m, int) or m < 2:
        raise ParameterError("degree m must be an integer >= 2, got %r" % (m,))


def pmap(fn, items):
    """Map ``fn`` over ``items`` in order and return the results as a list."""
    return [fn(it) for it in items]


def ols_slope(xs, ys, bits: int = 128):
    """Ordinary least squares slope of ys against xs at ``bits`` precision."""
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two points for a slope")
    with mp_prec(bits):
        xm = [to_mpf(x) for x in xs]
        ym = [to_mpf(y) for y in ys]
        mean_x = sum(xm) / n
        mean_y = sum(ym) / n
        sxx = sum((x - mean_x) ** 2 for x in xm)
        sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xm, ym))
        return sxy / sxx


def parse_fraction(text: str) -> Fraction:
    """Parse 'p/q', an integer string, or a decimal string into a Fraction."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    if "." in text or "e" in text or "E" in text:
        return Fraction(text)
    return Fraction(int(text))


_INT_LITERAL = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def format_int(n: int) -> str:
    """Decimal string of an int of any size, without touching the process limit.

    CPython's ``str`` refuses ints above ``sys.get_int_max_str_digits()``
    digits (4300 by default); those go through ``decimal.Decimal``, whose
    conversion has no digit limit.  Below the limit this is exactly ``str``.
    """
    limit = sys.get_int_max_str_digits()
    # n has at most floor(bits * log10(2)) + 1 digits, and log10(2) < 0.30103
    if not limit or n.bit_length() * 30103 <= (limit - 1) * 100000:
        return str(n)
    return str(decimal.Decimal(n))


def parse_int(text) -> int:
    """Inverse of ``format_int``: ``int(text)``, also for literals above the digit limit."""
    limit = sys.get_int_max_str_digits()
    if not isinstance(text, str) or not limit or len(text) <= limit:
        return int(text)
    if not _INT_LITERAL.fullmatch(text):
        raise ValueError("invalid integer literal of %d characters" % len(text))
    return int(decimal.Decimal(text))


def format_fraction(q: Fraction) -> str:
    """Canonical exact string for a rational: 'p' or 'p/q'."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def format_mpf(x, digits: int = 24) -> str:
    """Deterministic decimal string for an mpf value."""
    if x == mpmath.inf:
        return "inf"
    if x == mpmath.ninf:
        return "-inf"
    return mpmath.nstr(x, digits)
