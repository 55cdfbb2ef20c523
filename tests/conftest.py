import tracemalloc
from fractions import Fraction

import pytest

from gsmult.derivpoly import CoeffTable, build_coeff_table, coeff_rows

_CACHE: dict[int, object] = {}


def get_table(m: int, k_max: int):
    """Exactly rows 1..k_max, cut from a session-wide cache that is rebuilt
    only when a larger k_max is needed."""
    table = _CACHE.get(m)
    if table is None or table.k_max < k_max:
        table = build_coeff_table(m, k_max)
        _CACHE[m] = table
    return CoeffTable(m=m, k_max=k_max, rows=table.rows[:k_max])


def held_and_walk(m: int, k_max: int):
    """The same table twice: held as a ``CoeffTable`` and as a ``coeff_rows`` walk."""
    return get_table(m, k_max), coeff_rows(m, k_max)


def traced_peak(fn):
    """``(fn(), peak bytes allocated while it ran)``, measured by tracemalloc."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def tables():
    return get_table


def frac(text) -> Fraction:
    return Fraction(text)
