import importlib.util
import os
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from gsmult import precision
from gsmult.derivpoly import CoeffTable, build_coeff_table, coeff_rows

ROOT = Path(__file__).resolve().parent.parent

_CACHE: dict[int, object] = {}


def get_table(m: int, k_max: int):
    """Exactly rows 1..k_max, cut from a session-wide cache that is rebuilt
    only when a larger k_max is needed."""
    table = _CACHE.get(m)
    if table is None or table.k_max < k_max:
        table = build_coeff_table(m, k_max)
        _CACHE[m] = table
    return CoeffTable(m=m, k_max=k_max, rows=table.rows[:k_max])


def short_tables(m: int, k_max: int) -> list:
    """Two held tables that claim rows 1..k_max of degree m and are short: one whose
    rows end at k_max // 2, and one whose row k_max lacks its last cell."""
    rows = get_table(m, k_max).rows
    return [
        CoeffTable(m=m, k_max=k_max, rows=rows[: k_max // 2]),
        CoeffTable(m=m, k_max=k_max, rows=rows[:-1] + (rows[-1][:-1],)),
    ]


class _RawTable:
    """Rows handed to a consumer as they are, without the checks a ``CoeffTable`` makes as it is read."""

    def __init__(self, m, rows):
        self.m, self.k_max, self.rows = m, len(rows), rows

    def __iter__(self):
        return iter(self.rows)

    def row(self, k):
        return self.rows[k - 1]


def term_loop_parts(poly, turn, x):
    """(re, im) of p_k(x) for lam = m * i**turn, summed term by term: the reference for
    ``derivpoly``'s evaluators.  Term n is C[n] * m**(k-n) * x**((m-1)k - nm) * i**(turn*(k-n))."""
    m, k = poly.m, poly.k
    parts = [0, 0]
    for n, c in enumerate(poly.coeffs):
        t = c * m ** (k - n) * x ** poly.exponent(n)
        q = turn * (k - n) % 4
        if q < 2:
            parts[q] += t
        else:
            parts[q - 2] -= t
    return parts[0], parts[1]


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


def bench_module(name: str):
    """``bench/<name>.py`` of the checkout, loaded as a module; the benchmark's files are only read."""
    spec = importlib.util.spec_from_file_location("bench_" + name, ROOT / "bench" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_env() -> dict:
    """The environment of this process with the checkout's ``src`` first on ``PYTHONPATH``,
    so a child interpreter imports the package under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@contextmanager
def result_bits(bits: int):
    """``precision.RESULT_BITS`` set to ``bits`` while the block runs, and restored after it."""
    old = precision.RESULT_BITS
    precision.RESULT_BITS = bits
    try:
        yield bits
    finally:
        precision.RESULT_BITS = old


def certified_work(monkeypatch) -> list:
    """The working precision at which each certified value was made, in order, as
    ``precision.escalate`` hands it out, while the spy is in place."""
    seen = []
    escalate = precision.escalate

    def spy(compute, bits):
        def recorded(work):
            result = compute(work)
            seen.append(work)
            return result

        return escalate(recorded, bits)

    monkeypatch.setattr(precision, "escalate", spy)
    return seen


@pytest.fixture
def tables():
    return get_table


def frac(text) -> Fraction:
    return Fraction(text)
