import inspect
import random
from fractions import Fraction

import pytest
from mpmath import iv, mp
from mpmath.libmp import from_man_exp

import gsmult

from gsmult import precision
from gsmult.precision import (
    GUARD_BITS,
    ParameterError,
    PrecisionError,
    escalate,
    certified_midpoint,
    certified_values,
    fixed_rounded,
    half_log_of_int,
    iv_endpoints,
    iv_fixed,
    iv_prec,
)

from conftest import result_bits


def test_no_public_callable_takes_a_precision():
    # the result precision is ``precision.RESULT_BITS`` alone: no exported function, class or
    # f_spec ``derivatives`` method has a parameter that would set another
    exported = [getattr(gsmult, name) for name in gsmult.__all__]
    f_specs = [gsmult.GSFunction, gsmult.Gaussian]
    errors = (gsmult.ParameterError, gsmult.PrecisionError)  # builtin-derived: no signature to read
    callables = [obj for obj in exported if callable(obj) and obj not in errors] + [s.derivatives for s in f_specs]
    assert len(callables) > 40
    for obj in callables:
        assert not {"precision_bits", "bits"} & set(inspect.signature(obj).parameters), obj


def interval(lo, hi, e):
    """The interval [lo, hi] * 2**e, built exactly."""
    return iv.make_mpf((from_man_exp(lo, e), from_man_exp(hi, e)))


def exact(v):
    """An mpf as the Fraction it is."""
    sign, man, exp, _ = v._mpf_
    return (-man if sign else man) * Fraction(2) ** exp


class TestEscalate:
    def test_doubles_until_the_computation_certifies(self):
        tried = []

        def compute(bits):
            tried.append(bits)
            if bits < 500:
                raise PrecisionError("too wide", mp.mpf(2) ** -bits)
            return bits

        assert escalate(compute, 128 - GUARD_BITS) == 512  # the work starts GUARD_BITS above the result precision
        assert tried == [128, 256, 512]

    def test_reraises_the_last_error_at_sixteen_times_the_start(self):
        tried = []

        def compute(bits):
            tried.append(bits)
            raise PrecisionError("width %d" % bits, bits)

        with pytest.raises(PrecisionError) as info:
            escalate(compute, 100)
        start = 100 + GUARD_BITS
        assert tried == [start, 2 * start, 4 * start, 8 * start, 16 * start]
        assert info.value.width == 16 * start and str(info.value) == "width %d" % (16 * start)

    def test_exact_enclosure_raises_at_once(self):
        tried = []

        def compute(bits):
            tried.append(bits)
            raise PrecisionError("exact zero", 0)

        with pytest.raises(PrecisionError):
            escalate(compute, 64)
        assert tried == [64 + GUARD_BITS]

    def test_other_errors_pass_through(self):
        def compute(bits):
            raise ParameterError("bad")

        with pytest.raises(ParameterError):
            escalate(compute, 64)


class TestCertifiedValues:
    START = 64 + GUARD_BITS

    def test_applies_the_rule_to_each_enclosure(self, monkeypatch):
        def enclose(work):
            yield 5, 5, -1
            yield 3, 7, 2

        with result_bits(64):
            with monkeypatch.context() as patch:  # fixed_rounded is looked up when certified_values runs
                patch.setattr(precision, "fixed_rounded", lambda *args: args)
                assert certified_values(enclose) == [(5, 5, -1, 64), (3, 7, 2, 64)]
            assert certified_values(lambda work: [(5, 5, -1)]) == [mp.mpf(2.5)]

    def test_no_enclosure_is_made_after_one_that_raises(self):
        made = []

        def enclose(work):
            for n in (1, 2, 3):
                made.append((work, n))
                yield n, n + (n == 2 and work == self.START), 0  # the second is too wide at the start

        with result_bits(64):
            assert certified_values(enclose) == [1, 2, 3]  # fixed_rounded rejects (2, 3, 0) by itself
        start = self.START
        assert made == [(start, 1), (start, 2), (2 * start, 1), (2 * start, 2), (2 * start, 3)]

    def test_work_is_the_interval_precision_inside_and_restored_after(self):
        before, seen = iv.prec, []

        def enclose(work):
            seen.append((work, iv.prec))
            yield 1, 1 + (work < 4 * self.START), 0

        with result_bits(64):
            assert certified_values(enclose) == [1]
        assert seen == [(w, w) for w in (self.START, 2 * self.START, 4 * self.START)]
        assert iv.prec == before
        seen.clear()
        with result_bits(64), pytest.raises(PrecisionError):
            certified_values(lambda work: enclose(0))  # rounds apart at every precision
        assert [prec for _, prec in seen] == [self.START << step for step in range(5)] and iv.prec == before

    def test_first_attempt_makes_the_first_attempts_enclosures_and_certifies_none(self):
        before, seen = iv.prec, []

        def enclose(work):
            seen.append((work, iv.prec))
            return [(1, 2, 0)]  # rounds apart at every precision

        with result_bits(64):
            assert precision._first_attempt(enclose) == (self.START, [(1, 2, 0)])
            assert certified_values(lambda work: enclose(work)[:0]) == []
        assert seen == [(self.START, self.START)] * 2 and iv.prec == before

    def test_exact_enclosure_raises_without_a_retry(self):
        made = []

        def enclose(work):
            made.append(work)
            raise PrecisionError("exactly zero", 0)

        with result_bits(64), pytest.raises(PrecisionError):
            certified_values(enclose)
        assert made == [self.START]


class TestHalfLogOfInt:
    @staticmethod
    def reference(n, bits):
        with mp.workprec(4 * bits):
            v = mp.log(mp.mpf(n)) / 2
        with mp.workprec(bits):
            return +v

    def test_matches_four_times_precision_reference(self):
        rng = random.Random(20240917)
        cases = [2, 3, 10, 2**64, 2**64 - 1, 2**64 + 1, 10**4000, 3**2000, 7**11827]
        cases += [rng.randrange(2, 10 ** rng.randint(1, 10_000)) for _ in range(300)]
        for i, n in enumerate(cases):
            bits = (64, 128, 192, 333)[i % 4]
            with result_bits(bits):
                assert half_log_of_int(n) == self.reference(n, bits), (n.bit_length(), bits)

    def test_one_is_exact_zero(self):
        assert half_log_of_int(1) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            half_log_of_int(0)


class TestFixedRounded:
    def test_point_enclosure_is_its_value_rounded(self):
        with mp.workprec(128):
            assert fixed_rounded(2**200 + 1, 2**200 + 1, -3, 128) == mp.mpf(2**200 + 1) / 8
        assert fixed_rounded(0, 0, 0, 128) == 0

    def test_enclosure_inside_one_rounding_cell_rounds_to_its_value(self):
        # at 53 bits the representable values above 2**53 are 2 apart: [2**53 + 1/4, 2**53 + 3/4]
        # lies below the boundary 2**53 + 1 and every point of it rounds to 2**53
        assert exact(fixed_rounded(2**55 + 1, 2**55 + 3, -2, 53)) == 2**53

    def test_enclosure_straddling_a_rounding_boundary_raises_with_its_width(self):
        # [2**53 + 3/4, 2**53 + 5/4] holds the boundary 2**53 + 1: its endpoints round apart
        with pytest.raises(PrecisionError) as info:
            fixed_rounded(2**55 + 3, 2**55 + 5, -2, 53)
        assert info.value.width == Fraction(1, 2)


class TestFixedPoint:
    def test_endpoints_are_exact_over_one_exponent(self):
        with iv_prec(100):
            x = iv.mpf([mp.mpf(-3) / 8, mp.mpf(5) / 7])
        a, b = iv_endpoints(x)
        lo, hi, e = iv_fixed(x)
        assert lo * Fraction(2) ** e == exact(a) and hi * Fraction(2) ** e == exact(b)

    def test_exact_enclosure_is_its_value_rounded(self):
        v = certified_midpoint(interval(2**200 + 1, 2**200 + 1, -3), 128)
        with mp.workprec(128):
            assert v == mp.mpf(2**200 + 1) / 8
        assert certified_midpoint(interval(0, 0, 0), 128) == 0

    def test_midpoint_is_rounded_once(self):
        # the exact midpoint 2**200 + 2**136 + 1 lies just above a tie at 64 bits; rounded
        # first at 80 bits it would land on the tie and then round to even, 2**200
        v = certified_midpoint(interval(2**200 + 2**136, 2**200 + 2**136 + 2, 0), 64)
        assert exact(v) == 2**200 + 2**137

    def test_infinite_endpoint_raises_precision_error(self):
        with iv_prec(64):
            x = iv.mpf([1, mp.inf])
        with pytest.raises(PrecisionError):
            iv_fixed(x)

    def test_interval_midpoint_is_rounded_once(self):
        # the exact midpoint 1 + 2**-53 + 2**-80 lies just above a tie at 53 bits; rounded
        # first at 69 bits it would land on the tie and then round to even, 1
        with mp.workprec(100), iv_prec(100):
            x = iv.mpf([1, 1 + mp.ldexp(1, -52) + mp.ldexp(1, -79)])
        assert exact(certified_midpoint(x, 53, rel_error_bits=32)) == 1 + Fraction(1, 2**52)
        with pytest.raises(PrecisionError):
            certified_midpoint(x, 53)  # relative width 2**-52 exceeds the default 2**-64

    def test_straddling_and_wide_enclosures_raise_with_their_width(self):
        with pytest.raises(PrecisionError) as info:
            certified_midpoint(interval(-1, 3, -2), 128)
        assert info.value.width == 1
        with pytest.raises(PrecisionError) as info:
            certified_midpoint(interval(-(2**64) - 2, -(2**64), 0), 128)  # width 2 > |hi| * 2**-64
        assert info.value.width > 0
        assert certified_midpoint(interval(-(2**64) - 1, -(2**64), 0), 128) < 0  # width 1: at the bound

    @pytest.mark.parametrize(
        "ends",
        [((1, -70000), (1, 0)), ((-1, 70000), (-1, 0)), ((-1, 0), (3, 10**77))],
        ids=["tiny-lo", "huge-lo", "straddling"],
    )
    def test_endpoints_too_many_binades_apart_raise_an_infinite_width(self, ends):
        # exp(-<x>**t) at 256 bits can have endpoints ~10**77 binades apart: aligning them on
        # one exponent would take an int of that many bits, so the enclosure goes back to escalate
        x = iv.make_mpf(tuple(from_man_exp(man, exp) for man, exp in ends))
        with pytest.raises(PrecisionError) as info:
            iv_fixed(x)
        assert info.value.width == mp.inf

    def test_endpoints_within_the_binade_bound_are_read_exactly(self):
        assert iv_fixed(interval(1, 1 << 65536, -65536)) == (1, 1 << 65536, -65536)  # 2**16 binades apart
        assert iv_fixed(interval(0, 1, -(1 << 20))) == (0, 1, -(1 << 20))  # a zero endpoint has no magnitude
