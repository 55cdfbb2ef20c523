import math
from fractions import Fraction

import pytest
from mpmath import mp

from gsmult import derivpoly as derivpoly_module
from gsmult.derivpoly import _enclosed_point, build_coeff_table, derivative_poly, eval_log_magnitude, kj_sequence
from gsmult.precision import PrecisionError
from gsmult.probe import (
    RATE_BITS,
    ProbeConfig,
    ProbeRecord,
    _decay,
    criterion_check,
    estimate_rate,
    probe_series,
)

from conftest import get_table, traced_peak


def config(m=2, theta=1, nu=None, ks=(1, 2, 3), sign=1):
    return ProbeConfig(
        m=m,
        lambda_sign=sign,
        theta=Fraction(theta),
        nu=Fraction(nu if nu is not None else theta),
        k_values=tuple(ks),
    )


class TestProbeConfig:
    def test_rejects_theta_below_two_over_m(self):
        with pytest.raises(ValueError):
            config(m=2, theta=Fraction(1, 2))

    def test_rejects_nu_above_theta(self):
        with pytest.raises(ValueError):
            config(m=2, theta=1, nu=2)

    def test_beurling_style_needs_strict_nu(self):
        with pytest.raises(ValueError):
            config(m=2, theta=2, nu=1)  # nu = 2/m exactly, with nu < theta
        config(m=2, theta=2, nu=Fraction(3, 2))  # fine

    def test_rejects_bad_sign_and_orders(self):
        with pytest.raises(ValueError):
            config(sign=2)
        with pytest.raises(ValueError):
            config(ks=(0, 1))


class TestProbeSeries:
    def test_first_order_record(self):
        records = probe_series(config(ks=(1,)))
        (rec,) = records
        assert rec.k == 1 and rec.x == 1 and rec.exact
        with mp.workprec(120):
            expected = mp.log(2) - mp.sqrt(2)
            assert abs(rec.log_dkg_f - expected) < mp.mpf(2) ** -90
        assert rec.rate == 0

    def test_empty_orders_give_empty_list(self):
        assert probe_series(config(ks=())) == []

    @pytest.mark.parametrize("theta", [1, Fraction(3, 2)], ids=["exact", "enclosed"])
    def test_records_come_back_in_the_callers_order(self, theta):
        # the rows are walked once, in ascending k; the records follow k_values
        ks = (7, 3, 7, 1, 12, 3)
        records = probe_series(config(m=3, theta=theta, ks=ks))
        single = {k: probe_series(config(m=3, theta=theta, ks=(k,)))[0] for k in set(ks)}
        assert records == [single[k] for k in ks]

    def test_walk_holds_no_table(self):
        # without a table the rows are made as they are walked, and none is held
        table_bytes = traced_peak(lambda: build_coeff_table(4, 300))[1]
        records, peak = traced_peak(lambda: probe_series(config(m=4, ks=range(1, 301))))
        assert len(records) == 300 and peak < table_bytes / 4

    def test_k8_meets_paper_scale_lower_bound(self):
        records = probe_series(config(ks=(8,)))
        (rec,) = records
        bound = math.log(0.5 * 2**8 * 8**8) - math.sqrt(1 + 8**2)
        assert float(rec.log_dkg_f) >= bound

    def test_lower_bound_invariant_along_kj(self):
        # end-to-end: log|p| - decay >= log(1/2) + k log m + theta (m-1) k log k - decay
        for m, theta in ((2, 1), (3, 1), (2, 2)):
            seq = kj_sequence(m, 3)
            cfg = config(m=m, theta=theta, ks=seq.entries)
            for rec in probe_series(cfg):
                k = rec.k
                with mp.workprec(128):
                    decay = mp.exp(mp.log(1 + mp.mpf(rec.x) ** 2) / (2 * theta))
                    floor = mp.log(mp.mpf(1) / 2) + k * mp.log(m) + theta * (m - 1) * k * mp.log(k) - decay
                    assert rec.log_dkg_f >= floor

    def test_determinism(self):
        cfg = config(m=2, theta=2, ks=range(1, 13))
        a = probe_series(cfg)
        b = probe_series(cfg)
        assert [(r.k, r.log_dkg_f, r.rate) for r in a] == [(r.k, r.log_dkg_f, r.rate) for r in b]

    def test_rate_field_tracks_polynomial_scale(self):
        # rate = log|p| / (k log k) approaches theta*(m-1) + log(m)/log(k)
        records = probe_series(config(m=2, theta=2, ks=(40,)))
        expected = 2 + math.log(2) / math.log(40)
        assert abs(float(records[0].rate) - expected) < 0.05

    @pytest.mark.parametrize("sign", [1, -1])
    def test_non_integer_theta_encloses_the_point(self, sign):
        # theta = 3/2: x_4 = 8 and x_9 = 27 are integers, so the exact path is a reference
        cfg = config(m=3, theta=Fraction(3, 2), ks=(4, 9), sign=sign)
        table = get_table(3, 9)
        for rec, x in zip(probe_series(cfg, table), (8, 27)):
            assert not rec.exact
            bits = 4096
            exact = eval_log_magnitude(derivative_poly(table, rec.k), sign, x, precision_bits=bits)
            with mp.workprec(bits):
                assert abs(rec.x - x) < mp.mpf(2) ** -64
                assert abs(rec.log_dkg_f + _decay(rec.x, cfg.nu, bits) - exact.log_mag) < mp.mpf(2) ** -32

    def test_non_integer_theta_escalates_the_point_with_the_log(self, monkeypatch):
        # started at the 192-bit result precision itself, the enclosures round apart there
        # (the log's for x_4, x_9's own before its log is tried): x_k and the log are enclosed
        # again, together, at 384 bits, and the records are those of the 256-bit start
        cfg = config(m=3, theta=Fraction(3, 2), ks=(4, 9))
        reference = probe_series(cfg, get_table(3, 9))
        monkeypatch.setattr(derivpoly_module, "_GUARD_BITS", 0)
        real, seen = derivpoly_module._interval_log_magnitude, []

        def spy(poly, sign, x, out_bits, bits):
            seen.append(bits)
            return real(poly, sign, x, out_bits, bits)

        monkeypatch.setattr(derivpoly_module, "_interval_log_magnitude", spy)
        records = probe_series(cfg, get_table(3, 9))
        assert seen == [192, 384, 384]
        assert records == reference
        assert [rec.x for rec in records] == [8, 27] and not any(rec.exact for rec in records)

    def test_point_is_certified_by_both_endpoints_rounding_alike(self):
        # x_5 = 5**(3/2) enclosed at the result precision itself is a few units wide there and
        # its endpoints round apart; 64 guard bits later both round to 5**(3/2) correctly rounded
        poly = derivative_poly(get_table(3, 5), 5)
        with pytest.raises(PrecisionError):
            _enclosed_point(poly, 1, Fraction(3, 2), 192, 192)
        x, _ = _enclosed_point(poly, 1, Fraction(3, 2), 192, 256)
        with mp.workprec(1024):
            reference = 5 * mp.sqrt(5)
        with mp.workprec(192):
            assert x == +reference

    @pytest.mark.parametrize("m,theta", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_result_precision_matches_logs_at_the_operand_budget(self, m, theta):
        # the records before logs were sized to their results: every step at 4096 bits,
        # above the operand budget of each order here (at most 3,634 bits, at m=3, theta=2, k=120)
        table = get_table(m, 120)
        cfg = config(m=m, theta=theta, ks=range(1, 121))
        bits = 4096
        for rec in probe_series(cfg, table):
            k, x = rec.k, rec.k**theta
            lm = eval_log_magnitude(derivative_poly(table, k), 1, x, precision_bits=bits)
            decay = _decay(x, cfg.nu, bits)
            with mp.workprec(bits):
                log_prod = lm.log_mag - decay
                rate = (log_prod + decay) / (k * mp.log(k)) if k >= 2 else mp.mpf(0)
            with mp.workprec(RATE_BITS):
                assert (rec.log_dkg_f, rec.rate) == (+log_prod, +rate), k

    def test_undersized_table_rejected(self):
        from gsmult.derivpoly import build_coeff_table

        with pytest.raises(ValueError):
            probe_series(config(ks=(10,)), table=build_coeff_table(2, 5))


class TestEstimateRate:
    def test_constant_records_have_zero_slope(self):
        with mp.workprec(128):
            records = [
                ProbeRecord(k=k, x=k, log_dkg_f=mp.mpf(5), rate=mp.mpf(0), exact=True)
                for k in range(2, 12)
            ]
        assert estimate_rate(records, 1.0) == 0

    def test_requires_minimum_tail(self):
        records = probe_series(config(ks=range(1, 9)))
        with pytest.raises(ValueError):
            estimate_rate(records, 0.5)  # only 4 in the tail
        estimate_rate(records, 0.5, min_records=4)

    def test_rejects_bad_fraction(self):
        records = probe_series(config(ks=range(1, 17)))
        with pytest.raises(ValueError):
            estimate_rate(records, 0)
        with pytest.raises(ValueError):
            estimate_rate(records, 0.5, min_records=1)

    def test_rate_ordering_across_configs(self):
        # ordinal sanity: higher theta*(m-1) gives a higher fitted rate
        fitted = {}
        for m, theta in ((2, 1), (2, 2), (3, 1)):
            cfg = config(m=m, theta=theta, ks=range(2, 41))
            fitted[(m, theta)] = float(estimate_rate(probe_series(cfg), 0.5))
        assert fitted[(2, 1)] < fitted[(2, 2)]
        assert fitted[(2, 1)] < fitted[(3, 1)]


class TestCriterionCheck:
    def test_divergence_m2(self):
        result = criterion_check(2, 1, Fraction(1, 2), 4)
        assert result.passed
        assert float(result.extremal_ratio) > kj_sequence(2, 4).k(4)

    def test_divergence_m3(self):
        result = criterion_check(3, 1, Fraction(1), 4)
        assert result.passed

    def test_rejects_s_at_or_above_gap(self):
        with pytest.raises(ValueError):
            criterion_check(2, 1, Fraction(3), 4)
        with pytest.raises(ValueError):
            criterion_check(2, 1, Fraction(1), 4)  # s = (m-1)*theta exactly

    def test_rejects_non_integer_theta(self):
        with pytest.raises(ValueError):
            criterion_check(2, Fraction(3, 2), Fraction(1, 2), 4)

    def test_integral_fraction_theta_is_the_integer_theta(self):
        result = criterion_check(2, Fraction(2), Fraction(1, 2), 4)
        assert result.passed and result.to_json() == criterion_check(2, 2, Fraction(1, 2), 4).to_json()

    def test_needs_two_orders(self):
        with pytest.raises(ValueError):
            criterion_check(2, 1, Fraction(1, 2), 1)

    def test_reuses_supplied_table(self):
        table = get_table(2, 32)
        result = criterion_check(2, 1, Fraction(1, 2), 4, table=table)
        assert result.passed

    def test_rejects_table_of_other_degree_or_too_short(self):
        # an m=4 table would evaluate the wrong polynomials for m=3
        with pytest.raises(ValueError):
            criterion_check(3, 1, 1, 6, table=get_table(4, 100))
        with pytest.raises(ValueError):
            criterion_check(3, 1, 1, 6, table=get_table(3, kj_sequence(3, 6).k(6) - 1))
