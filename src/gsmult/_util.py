"""The light base every module builds on, with no mpmath, ``dataclasses`` or ``json`` at import.

It holds ``ParameterError``, the ``Record`` base of every value type, the
``CheckResult`` every verifier returns, the degree check, and the
exact-string formats used by every file-emitting code path.
``format_mpf`` imports mpmath only for an mpmath value, so the exact
commands, which print Python floats, never load it; ``json`` is imported by
the functions that write JSON.
"""

from __future__ import annotations

import decimal
import re
import sys
from fractions import Fraction


class ParameterError(ValueError):
    """A caller-supplied argument or value lies outside what the function accepts."""


def require_degree(m) -> None:
    """Reject a degree m that is not an integer >= 2."""
    if not isinstance(m, int) or m < 2:
        raise ParameterError("degree m must be an integer >= 2, got %r" % (m,))


def require_precision(bits, least: int = 64) -> None:
    """Reject a result precision of fewer than ``least`` bits (64 unless a function needs more)."""
    if not bits >= least:
        raise ParameterError("precision_bits must be >= %d" % least)


def pmap(fn, items):
    """Map ``fn`` over ``items`` in order and return the results as a list."""
    return [fn(it) for it in items]


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


def format_int(n) -> str:
    """Decimal string of an int of any size, or of an integer held as a ``decimal.Decimal``.

    CPython's ``str`` refuses ints above ``sys.get_int_max_str_digits()``
    digits (4300 by default); those go through ``decimal.Decimal``, whose
    conversion has no digit limit.  Below the limit this is exactly ``str``.
    A Decimal is written by its own ``str``, in time linear in its digits
    (an int's takes quadratic time), and must be an integer with exponent 0.
    """
    if isinstance(n, decimal.Decimal):
        if not n.same_quantum(1):
            raise ValueError("Decimal %.40s is not an integer with exponent 0" % n)
        return str(n)
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
    """Deterministic decimal string for an mpf value, ``mpmath.nstr(x, digits)``.

    A Python int or float is ``str(x)``, which is what ``nstr`` returns for
    it, so it is written without importing mpmath.
    """
    if isinstance(x, (int, float)):
        return str(x)
    import mpmath

    if x == mpmath.inf:
        return "inf"
    if x == mpmath.ninf:
        return "-inf"
    return mpmath.nstr(x, digits)


class Record:
    """Immutable value type, the light stand-in for a frozen dataclass.

    A subclass names its fields by annotations, in order, and gives defaults
    as class attributes.  Its ``__init__`` is generated, as a namedtuple's
    ``__new__`` is, with one parameter per field, so it takes positional and
    keyword arguments and has the signature a dataclass would have; it stores
    the fields, then runs ``__post_init__`` (which may check the fields, or
    coerce one by ``object.__setattr__``).  After that no attribute can be set
    or deleted.  Equality, hash and ``repr`` go by the fields, and
    ``_replace(**changes)`` builds a copy with some fields changed.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        annotations = vars(cls).get("__annotations__", {})
        cls._fields += tuple(name for name in annotations if name not in cls._fields)
        params = ", ".join(name + ("=_cls.%s" % name if hasattr(cls, name) else "") for name in cls._fields)
        stores = ", ".join("%s=%s" % (name, name) for name in cls._fields)
        source = "def __init__(self, %s):\n    self.__dict__.update(%s)\n    self.__post_init__()\n"
        namespace = {"_cls": cls}
        exec(source % (params, stores), namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = cls.__qualname__ + ".__init__"
        cls.__init__.__annotations__ = {**annotations, "return": None}

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def _replace(self, **changes):
        """A copy with ``changes`` applied, built (and checked) as a new instance."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        pairs = ", ".join("%s=%r" % pair for pair in zip(self._fields, self._values()))
        return "%s(%s)" % (type(self).__qualname__, pairs)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


class CheckResult(Record):
    """One verified (or falsified) statement with its counterexamples.

    pass iff witnesses is empty; extremal_ratio is a tightness diagnostic
    (how close the worst tested case came to the bound), not part of the
    verdict.
    """

    name: str
    params: dict[str, str]
    passed: bool
    witnesses: tuple[tuple, ...]
    extremal_ratio: object = None

    def __post_init__(self):
        if self.passed != (not self.witnesses):
            raise ValueError("pass flag inconsistent with witness list")

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "params": dict(self.params),
            "passed": self.passed,
            "witnesses": [[format_int(x) if isinstance(x, int) else str(x) for x in w] for w in self.witnesses],
            "extremal_ratio": None if self.extremal_ratio is None else str(self.extremal_ratio),
        }

    def to_json(self, **kwargs) -> str:
        import json

        return json.dumps(self.to_json_dict(), **kwargs)


def _result(name, params, witnesses, extremal=None) -> CheckResult:
    return CheckResult(
        name=name,
        params={k: str(v) for k, v in params.items()},
        passed=not witnesses,
        witnesses=tuple(witnesses),
        extremal_ratio=extremal,
    )
