import math
from fractions import Fraction

import pytest
from mpmath import mp

from gsmult import derivpoly as derivpoly_module
from gsmult import precision
from gsmult import probe as probe_module
from gsmult._util import format_mpf
from gsmult.derivpoly import (
    CoeffTable,
    LogMagnitude,
    _enclosed_point,
    build_coeff_table,
    derivative_poly,
    eval_log_magnitude,
    gaussian_parts,
    kj_sequence,
)
from gsmult.precision import RESULT_BITS, ParameterError, PrecisionError, fixed_rounded, iv_prec
from gsmult.probe import ProbeConfig, ProbeRecord, _decay, criterion_check, estimate_rate, probe_series

from conftest import get_table, result_bits, traced_peak


def config(m=2, theta=1, nu=None, ks=(1, 2, 3)):
    return ProbeConfig(
        m=m,
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

    def test_rejects_bad_orders(self):
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
        # theta = 3/2: x_4 = 8 and x_9 = 27 are integers, so the exact path is a reference,
        # and so is |p_k(x)| from the value at either lam = +i*m or lam = -i*m
        cfg = config(m=3, theta=Fraction(3, 2), ks=(4, 9))
        table = get_table(3, 9)
        for rec, x in zip(probe_series(cfg, table), (8, 27)):
            assert not rec.exact
            poly = derivative_poly(table, rec.k)
            re, im = gaussian_parts(poly, sign, x)
            with result_bits(4096) as bits, mp.workprec(bits):
                exact = eval_log_magnitude(poly, x)
                assert exact.log_mag == precision.half_log_of_int(re * re + im * im)
                assert abs(rec.x - x) < mp.mpf(2) ** -64
                assert abs(rec.log_dkg_f + _decay(rec.x, cfg.nu) - exact.log_mag) < mp.mpf(2) ** -32

    def test_non_integer_theta_escalates_the_point_with_the_log(self, monkeypatch):
        # started at the 192-bit result precision itself, the enclosures round apart there
        # (the log's for x_4, x_9's own before its log is tried): x_k and the log are enclosed
        # again, together, at 384 bits, and the records are those of the 256-bit start
        cfg = config(m=3, theta=Fraction(3, 2), ks=(4, 9))
        reference = probe_series(cfg, get_table(3, 9))
        monkeypatch.setattr(precision, "GUARD_BITS", 0)
        real, seen = derivpoly_module._log_enclosure, []

        def spy(poly, x):
            seen.append(precision.iv.prec)
            return real(poly, x)

        monkeypatch.setattr(derivpoly_module, "_log_enclosure", spy)
        records = probe_series(cfg, get_table(3, 9))
        assert seen == [192, 384, 384]
        assert records == reference
        assert [rec.x for rec in records] == [8, 27] and not any(rec.exact for rec in records)

    def test_point_is_certified_by_both_endpoints_rounding_alike(self):
        # x_5 = 5**(3/2) enclosed at the result precision itself is a few units wide there and
        # its endpoints round apart; 64 guard bits later both round to 5**(3/2) correctly rounded
        poly = derivative_poly(get_table(3, 5), 5)
        with iv_prec(192), pytest.raises(PrecisionError):
            fixed_rounded(*next(_enclosed_point(poly, Fraction(3, 2))), 192)
        with iv_prec(256):
            x = fixed_rounded(*next(_enclosed_point(poly, Fraction(3, 2))), 192)
        with mp.workprec(1024):
            reference = 5 * mp.sqrt(5)
        with mp.workprec(192):
            assert x == +reference

    @pytest.mark.parametrize("m,theta", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_records_match_a_4096_bit_recomputation(self, m, theta):
        # each record, recomputed with every step at 4096 bits, is within 2**-(RESULT_BITS - 8)
        # relative of the record and prints alike
        table = get_table(m, 120)
        cfg = config(m=m, theta=theta, ks=range(1, 121))
        tolerance = mp.mpf(2) ** (8 - precision.RESULT_BITS)
        for rec in probe_series(cfg, table):
            k, x = rec.k, rec.k**theta
            with result_bits(4096) as bits, mp.workprec(bits):
                log_prod = eval_log_magnitude(derivative_poly(table, k), x).log_mag - _decay(x, cfg.nu)
                rate = (log_prod + _decay(x, cfg.nu)) / (k * mp.log(k)) if k >= 2 else mp.mpf(0)
                for got, want in ((rec.log_dkg_f, log_prod), (rec.rate, rate)):
                    assert abs(got - want) <= abs(want) * tolerance, k
                    assert format_mpf(got) == format_mpf(want), k

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

    @pytest.mark.parametrize("m,theta,s", [(3, "3/2", "2"), (4, "2/3", "1"), (2, "3/2", "1"), (3, "5/6", "3/2")])
    def test_rational_theta_passes(self, m, theta, s):
        # at a non-integer theta the points k_j**theta are enclosed and certified with their logs
        result = criterion_check(m, Fraction(theta), Fraction(s), 30)
        assert result.passed and result.params["theta"] == theta
        assert float(result.extremal_ratio) > kj_sequence(m, 30).k(30)

    def test_corrupted_table_fails_at_rational_theta(self):
        # the cells of row k_4 past its leading 1 scaled by 10**100 lift Delta(4) above Delta(5)
        seq = kj_sequence(3, 10)
        table = get_table(3, seq.k(10))
        rows = list(table.rows)
        row = rows[seq.k(4) - 1]
        rows[seq.k(4) - 1] = row[:1] + tuple(c * 10**100 for c in row[1:])
        result = criterion_check(3, Fraction(3, 2), 2, 10, table=CoeffTable(m=3, k_max=table.k_max, rows=tuple(rows)))
        assert not result.passed
        assert [w[:2] for w in result.witnesses] == [("not-increasing", 5)]

    def test_a_near_tie_is_reported(self, monkeypatch):
        # Delta_2 exceeds Delta_1 = 30 by 2**-190 * 30, less than the logs (about 38 and 52), correctly
        # rounded at the result precision, can tell apart: round-to-nearest Delta reads it as
        # increasing, but no bound of the exact Delta proves it, so order 2 is a witness.  Delta_3 is
        # far above both
        orders, s = kj_sequence(2, 3).entries, Fraction(1, 2)
        with mp.workprec(1024):
            deltas = [mp.mpf(30), 30 + 30 * mp.mpf(2) ** -190, mp.mpf(1030)]
            logs = [d + s.numerator * k * mp.log(k) / s.denominator for d, k in zip(deltas, orders)]
        with mp.workprec(RESULT_BITS):
            logs = [+v for v in logs]

        def log_magnitudes(m, theta, ks, table):
            return ((k, k, LogMagnitude(log_mag=v, exact=False)) for k, v in zip(ks, logs))

        monkeypatch.setattr(probe_module, "_log_magnitudes", log_magnitudes)
        result = criterion_check(2, 1, s, 3)
        assert [w[:2] for w in result.witnesses] == [("not-increasing", 2)]

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

    def test_short_held_table_is_refused(self):
        # a table that claims rows 1..20 and holds 8 is refused, though k_3 = 18 is within its k_max
        with pytest.raises(ParameterError):
            criterion_check(3, 2, 1, 3, table=CoeffTable(m=3, k_max=20, rows=get_table(3, 8).rows))
