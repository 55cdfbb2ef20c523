import random

import pytest
from mpmath import mp

from gsmult.precision import ParameterError, PrecisionError, escalate, half_log_of_int


class TestEscalate:
    def test_doubles_until_the_computation_certifies(self):
        tried = []

        def compute(bits):
            tried.append(bits)
            if bits < 500:
                raise PrecisionError("too wide", mp.mpf(2) ** -bits)
            return bits

        assert escalate(compute, 128) == 512
        assert tried == [128, 256, 512]

    def test_reraises_the_last_error_at_sixteen_times_the_start(self):
        tried = []

        def compute(bits):
            tried.append(bits)
            raise PrecisionError("width %d" % bits, bits)

        with pytest.raises(PrecisionError) as info:
            escalate(compute, 100)
        assert tried == [100, 200, 400, 800, 1600]
        assert info.value.width == 1600 and str(info.value) == "width 1600"

    def test_exact_enclosure_raises_at_once(self):
        tried = []

        def compute(bits):
            tried.append(bits)
            raise PrecisionError("exact zero", 0)

        with pytest.raises(PrecisionError):
            escalate(compute, 64)
        assert tried == [64]

    def test_other_errors_pass_through(self):
        def compute(bits):
            raise ParameterError("bad")

        with pytest.raises(ParameterError):
            escalate(compute, 64)


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
            assert half_log_of_int(n, bits) == self.reference(n, bits), (n.bit_length(), bits)

    def test_one_is_exact_zero(self):
        assert half_log_of_int(1, 128) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            half_log_of_int(0, 128)
