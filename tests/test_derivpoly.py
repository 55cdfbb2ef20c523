import decimal
import io
import json
import sys
import tracemalloc
from fractions import Fraction
from itertools import islice

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from gsmult.derivpoly import (
    CoeffTable,
    DerivPoly,
    build_coeff_table,
    coeff_rows,
    derivative_poly,
    eval_log_magnitude,
    gaussian_parts,
    kj_count,
    kj_sequence,
    row_length,
    write_table_json,
)
from gsmult import derivpoly as derivpoly_module
from gsmult import precision
from gsmult._util import format_int
from gsmult.precision import ParameterError, PrecisionError, iv_endpoints, iv_fixed, iv_prec, to_iv

from conftest import certified_work, get_table, result_bits, short_tables, term_loop_parts


def _compact_json(m, k_max, rows):
    """The ``table`` file format built by ``json.dumps``: a reference for the writer."""
    data = {"m": m, "k_max": k_max, "rows": [[str(c) for c in row] for row in rows]}
    return json.dumps(data, separators=(",", ":")) + "\n"


class TestBuildCoeffTable:
    def test_row_k2_is_m_minus_1(self):
        assert get_table(2, 2).row(2) == (1, 1)
        for m in range(2, 9):
            assert build_coeff_table(m, 2).row(2) == (1, m - 1)

    def test_m3_row4(self):
        assert get_table(3, 4).row(4) == (1, 12, 20)

    def test_m2_row4_hermite_values(self):
        assert get_table(2, 4).row(4) == (1, 6, 3)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            build_coeff_table(1, 5)
        with pytest.raises(ValueError):
            build_coeff_table(2, 0)

    @pytest.mark.parametrize("m, k_max", [(1, 5), (2, 0)])
    def test_rows_checked_at_the_call(self, m, k_max):
        # not at the first row, after a writer has begun its output
        with pytest.raises(ParameterError):
            coeff_rows(m, k_max)

    def test_a_walk_is_a_table_that_holds_no_rows(self):
        walk, table = coeff_rows(5, 40), get_table(5, 40)
        assert (walk.m, walk.k_max) == (table.m, table.k_max)
        assert tuple(walk) == tuple(walk) == tuple(table) == table.rows

    def test_walk_checks_each_row_as_it_makes_it(self, monkeypatch):
        seen = []
        real = derivpoly_module._check_row
        monkeypatch.setattr(derivpoly_module, "_check_row", lambda m, k, row: seen.append(k) or real(m, k, row))
        walk = iter(coeff_rows(3, 6))
        assert (next(walk), next(walk), seen) == ((1,), (1, 2), [1, 2])

    @given(m=st.integers(2, 6), k=st.integers(1, 40))
    def test_row_length_and_index_bounds(self, m, k):
        table = get_table(m, 40)
        length = len(table.row(k))
        top = k * (m - 1) // m
        assert length == top + 1
        assert (k - 1) / 2 <= k // 2 <= top <= k - 1

    @given(m=st.integers(2, 6), k=st.integers(1, 30))
    def test_entries_positive_and_leading_one(self, m, k):
        row = get_table(m, 30).row(k)
        assert row[0] == 1
        assert all(c > 0 for c in row)

    def test_recursion_step_from_symbolic_row(self):
        # push row k through one symbolic application of
        # p_{k+1} = lam*x**(m-1)*p_k + p_k' and compare with row k+1
        for m in (2, 3, 5):
            table = get_table(m, 20)
            for k in range(1, 20):
                poly = {}
                for n, c in enumerate(table.row(k)):
                    poly[(k - n, (m - 1) * k - n * m)] = c
                nxt = {}
                for (a, b), c in poly.items():
                    key = (a + 1, b + m - 1)
                    nxt[key] = nxt.get(key, 0) + c
                    if b >= 1:
                        key = (a, b - 1)
                        nxt[key] = nxt.get(key, 0) + c * b
                rebuilt = {}
                for (a, b), c in nxt.items():
                    n = (k + 1) - a
                    assert b == (m - 1) * (k + 1) - n * m
                    rebuilt[n] = c
                expected = dict(enumerate(table.row(k + 1)))
                assert rebuilt == expected

    def test_json_round_trip(self):
        table = get_table(3, 12)
        clone = CoeffTable.from_json_dict(json.loads(table.to_json()))
        assert clone == table

    def test_validate_rejects_corruption(self):
        table = get_table(2, 6)
        rows = [list(r) for r in table.rows]
        rows[3][1] = -rows[3][1]
        with pytest.raises(ValueError):
            CoeffTable(m=2, k_max=6, rows=tuple(tuple(r) for r in rows)).validate()


class TestJsonExport:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_write_table_json_is_the_compact_to_json(self, m):
        table = get_table(m, 60)
        buf = io.StringIO()
        write_table_json(buf, m, 60, table.rows)
        assert buf.getvalue() == table.to_json() == _compact_json(m, 60, table.rows)

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_streamed_rows_write_the_table_bytes(self, m):
        buf = io.StringIO()
        write_table_json(buf, m, 60, coeff_rows(m, 60))
        assert buf.getvalue() == _compact_json(m, 60, get_table(m, 60).rows)
        assert tuple(coeff_rows(m, 60)) == get_table(m, 60).rows

    def test_streamed_build_holds_no_table(self):
        # rows go from the build into the writer one at a time; a built table
        # held first peaks at about two thirds of the file size here
        class Sink:
            size = 0

            def write(self, text):
                self.size += len(text)

        sink = Sink()
        tracemalloc.start()
        try:
            write_table_json(sink, 4, 300, coeff_rows(4, 300))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sink.size / 20

    def test_streamed_rows_are_checked_as_validate_does(self):
        rows = [list(r) for r in get_table(3, 8).rows]
        rows[5][2] = 0
        with pytest.raises(ValueError, match="row 6 contains a nonpositive entry"):
            write_table_json(io.StringIO(), 3, 8, map(tuple, rows))
        with pytest.raises(ValueError, match="row 2 does not start with 1"):
            write_table_json(io.StringIO(), 3, 8, [(1,), (2, 2)])
        with pytest.raises(ValueError, match="row 3 has length"):
            write_table_json(io.StringIO(), 3, 8, [(1,), (1, 2), (1,)])
        with pytest.raises(ValueError, match="row count 7 does not match k_max 8"):
            write_table_json(io.StringIO(), 3, 8, coeff_rows(3, 7))

    def test_ints_beyond_the_str_digit_limit_round_trip(self):
        limit = sys.get_int_max_str_digits()
        big = 10**5000 + 7
        table = CoeffTable(m=2, k_max=2, rows=((1,), (1, big)))
        buf = io.StringIO()
        write_table_json(buf, 2, 2, table.rows)
        digits = "1" + "0" * 4999 + "7"
        assert buf.getvalue() == table.to_json() == _compact_json(2, 2, [["1"], ["1", digits]])
        data = json.loads(buf.getvalue())
        assert data["rows"][1][1] == digits
        assert CoeffTable.from_json_dict(data) == table
        assert CoeffTable.from_json_dict(json.loads(table.to_json())) == table
        assert sys.get_int_max_str_digits() == limit

    def test_from_json_rejects_a_long_non_integer(self):
        data = {"m": 2, "k_max": 2, "rows": [["1"], ["1", "1" * 5000 + ".5"]]}
        with pytest.raises(ValueError):
            CoeffTable.from_json_dict(data)


class TestDecimalWalk:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_entries_print_as_the_int_walk(self, m):
        decimals = coeff_rows(m, 300).decimals()
        for ints, row in zip(coeff_rows(m, 300), decimals, strict=True):
            assert all(type(c) is decimal.Decimal for c in row)
            assert list(map(str, row)) == list(map(format_int, ints))

    def test_callers_context_holds_between_rows_after_and_when_abandoned(self):
        with decimal.localcontext(decimal.Context(prec=7, traps=[])) as ours:
            walk = coeff_rows(6, 200).decimals()
            for _ in islice(walk, 150):
                assert decimal.getcontext() is ours and ours.prec == 7
            assert ours.flags[decimal.Rounded] is False
            walk.close()  # abandoned after 150 of 200 rows
            assert decimal.getcontext() is ours
            assert sum(1 for _ in coeff_rows(3, 40).decimals()) == 40
            assert decimal.getcontext() is ours and ours.prec == 7

    def test_a_rounded_digit_raises(self, monkeypatch):
        exact = derivpoly_module._EXACT
        assert exact.prec == decimal.MAX_PREC
        for signal in (decimal.Inexact, decimal.Rounded, decimal.Overflow, decimal.InvalidOperation):
            assert exact.traps[signal]
        # the same traps at 40 digits stop the walk at the first row that would need more
        monkeypatch.setattr(derivpoly_module, "_EXACT", exact.copy())
        derivpoly_module._EXACT.prec = 40
        walk = coeff_rows(4, 200).decimals()
        with pytest.raises((decimal.Inexact, decimal.Rounded)):
            for row in walk:
                assert max(row).adjusted() < 40

    def test_export_checks_each_row_once(self, monkeypatch):
        seen = []
        real = derivpoly_module._check_row
        monkeypatch.setattr(derivpoly_module, "_check_row", lambda m, k, row: seen.append(k) or real(m, k, row))
        buf = io.StringIO()
        write_table_json(buf, 4, 80, coeff_rows(4, 80).decimals())
        assert seen == list(range(1, 81))
        assert buf.getvalue() == _compact_json(4, 80, get_table(4, 80).rows)

    def test_writer_rejects_a_decimal_that_is_not_an_integer(self):
        for bad in ("2.0", "2E+1", "Infinity"):
            with pytest.raises(ValueError, match="not an integer with exponent 0"):
                write_table_json(io.StringIO(), 2, 2, [(decimal.Decimal(1),), (decimal.Decimal(1), decimal.Decimal(bad))])


class TestDerivPoly:
    def test_k1_single_term(self):
        poly = derivative_poly(get_table(2, 4), 1)
        assert list(poly.terms()) == [(0, 1, 1, 1)]
        for m in (3, 5):
            poly = derivative_poly(get_table(m, 4), 1)
            assert list(poly.terms()) == [(0, 1, m - 1, 1)]

    def test_k0_constant(self):
        poly = derivative_poly(get_table(2, 4), 0)
        assert poly.coeffs == (1,)
        assert poly.degree == 0
        assert poly.exponent(0) == 0

    def test_m3_k3_structure(self):
        poly = derivative_poly(get_table(3, 4), 3)
        assert list(poly.terms()) == [(0, 3, 6, 1), (1, 2, 3, 6), (2, 1, 0, 2)]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            derivative_poly(build_coeff_table(2, 4), 5)

    def test_short_held_table_is_refused(self):
        # an order the rows do not hold, and a row that lacks its last cell, are refused as they are read
        rows_end, cell_lacks = short_tables(3, 10)
        with pytest.raises(ParameterError, match="order 7 outside the rows held, 1..5"):
            derivative_poly(rows_end, 7)
        with pytest.raises(ParameterError, match="row 10 has length 6, expected 7"):
            derivative_poly(cell_lacks, 10)
        assert derivative_poly(cell_lacks, 9).coeffs == get_table(3, 9).row(9)
        for table in (rows_end, cell_lacks):
            with pytest.raises(ParameterError):
                table.validate()

    @given(m=st.integers(2, 6), k=st.integers(1, 40))
    def test_exponents_nonnegative_and_degree(self, m, k):
        poly = derivative_poly(get_table(m, 40), k)
        exps = [e for _, _, e, _ in poly.terms()]
        assert all(e >= 0 for e in exps)
        assert exps[0] == (m - 1) * k
        assert sorted(exps, reverse=True) == exps


POINTS = st.one_of(st.integers(0, 40), st.fractions(-20, 20, max_denominator=12))


def term_loop_modulus2(poly, turn, x):
    re, im = term_loop_parts(poly, turn, x)
    return re * re + im * im


class TestParts:
    # |p_k(x)|**2 from the even/odd Horner loops against the term loop at lam = +i*m and lam = -i*m
    @given(m=st.integers(2, 6), k=st.integers(1, 60), turn=st.sampled_from([1, 3]), x=POINTS)
    def test_horner_equals_the_term_loop(self, m, k, turn, x):
        poly = derivative_poly(get_table(m, 60), k)
        assert derivpoly_module._modulus2(poly, x) == term_loop_modulus2(poly, turn, x)

    @given(m=st.integers(2, 6), k=st.integers(1, 60), turn=st.sampled_from([1, 3]), x=POINTS)
    def test_interval_parts_enclose_the_exact_value(self, m, k, turn, x):
        poly = derivative_poly(get_table(m, 60), k)
        with iv_prec(128):
            lo, hi, e = iv_fixed(derivpoly_module._modulus2(poly, to_iv(x)))
        assert lo * Fraction(2) ** e <= term_loop_modulus2(poly, turn, Fraction(x)) <= hi * Fraction(2) ** e

    @given(m=st.integers(2, 6), k=st.integers(0, 60), x=st.integers(0, 40))
    def test_gaussian_parts_are_the_term_loop_and_conjugate_across_the_sign(self, m, k, x):
        poly = derivative_poly(get_table(m, 60), k)
        re, im = gaussian_parts(poly, 1, x)
        assert (re, im) == term_loop_parts(poly, 1, x)
        assert gaussian_parts(poly, -1, x) == (re, -im) == term_loop_parts(poly, 3, x)


class TestEvalLogMagnitude:
    def test_linear_term_exact(self):
        poly = derivative_poly(get_table(2, 4), 1)
        lm = eval_log_magnitude(poly, 8)
        assert lm.exact
        assert mpmath.almosteq(mpmath.exp(lm.log_mag), 16)

    def test_k2_modulus_sqrt20(self):
        poly = derivative_poly(get_table(2, 4), 2)
        re, im = gaussian_parts(poly, 1, 1)
        assert (re, im) == (-4, 2)
        with result_bits(128):
            lm = eval_log_magnitude(poly, 1)
        with mp.workprec(128):
            assert abs(lm.log_mag - mp.log(20) / 2) < mp.mpf(2) ** -100

    def test_k8_meets_half_power_lower_bound(self):
        poly = derivative_poly(get_table(2, 8), 8)
        for sign in (1, -1):
            re, im = gaussian_parts(poly, sign, 8)
            assert 4 * (re * re + im * im) >= 2**16 * 8**16

    def test_zero_value_exact(self):
        poly = derivative_poly(get_table(2, 4), 1)
        lm = eval_log_magnitude(poly, 0)
        assert lm.exact and lm.log_mag == mpmath.mpf("-inf")

    def test_interval_path_rejects_exact_zero(self):
        poly = derivative_poly(get_table(2, 4), 1)
        with result_bits(128), pytest.raises(PrecisionError):
            eval_log_magnitude(poly, mpmath.mpf(0))

    def test_exact_zero_raises_without_escalating(self, monkeypatch):
        halves, calls = derivpoly_module._halves, []
        monkeypatch.setattr(derivpoly_module, "_halves", lambda *args: calls.append(args) or halves(*args))
        poly = derivative_poly(get_table(2, 4), 1)
        with result_bits(128), pytest.raises(PrecisionError) as info:
            eval_log_magnitude(poly, mpmath.mpf(0))
        assert len(calls) == 1 and info.value.width == 0

    def test_interval_path_escalates_and_records_its_bits(self, monkeypatch):
        # started at the result precision itself, the log's enclosure is a few units wide there
        # and rounds apart: the working precision doubles, and the value is the same
        poly = derivative_poly(get_table(3, 40), 40)
        x = Fraction(7, 3)
        work = certified_work(monkeypatch)
        with result_bits(64):
            reference = eval_log_magnitude(poly, x)
        assert work == [64 + precision.GUARD_BITS]
        monkeypatch.setattr(precision, "GUARD_BITS", 0)
        with result_bits(64):
            lm = eval_log_magnitude(poly, x)
        assert work[1:] == [128] and not lm.exact
        assert lm.log_mag == reference.log_mag

    def test_exact_path_rounds_at_the_result_precision(self, monkeypatch):
        poly = derivative_poly(get_table(3, 60), 60)
        re, im = gaussian_parts(poly, 1, 9)
        work = certified_work(monkeypatch)
        with result_bits(192):
            lm = eval_log_magnitude(poly, 9)
        assert lm.exact and work == [192 + precision.GUARD_BITS]  # the log of the exact modulus is certified too
        with mp.workprec(4 * 192):
            ref = mp.log(mp.mpf(re * re + im * im)) / 2
        with mp.workprec(192):
            assert lm.log_mag == +ref

    def test_rejects_bad_inputs(self):
        poly = derivative_poly(get_table(2, 4), 2)
        with pytest.raises(ValueError):
            gaussian_parts(poly, 2, 1)
        with pytest.raises(ValueError):
            eval_log_magnitude(poly, -3)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("k", [5, 17, 40])
    @pytest.mark.parametrize("x", [1, 2, 7])
    def test_exact_float_agreement(self, m, k, x):
        # both paths round the log correctly at the default result precision: the same bits
        poly = derivative_poly(get_table(m, 40), k)
        exact = eval_log_magnitude(poly, x)
        boxed = eval_log_magnitude(poly, mpmath.mpf(x))
        assert exact.exact and not boxed.exact
        assert boxed.log_mag == exact.log_mag

    def test_heavy_cancellation_escalates_past_the_start_and_certifies(self, monkeypatch):
        # at m=4, x=16/3 the terms of p_1200 cancel so far that the start (RESULT_BITS +
        # GUARD_BITS bits) cannot separate |p| from zero; one doubling certifies it
        for row in coeff_rows(4, 1200):
            pass
        poly = DerivPoly(m=4, k=1200, coeffs=row)
        work = certified_work(monkeypatch)
        with result_bits(192):
            lm = eval_log_magnitude(poly, Fraction(16, 3))
        with result_bits(2048):
            reference = eval_log_magnitude(poly, Fraction(16, 3))
        assert work[0] == 2 * (192 + precision.GUARD_BITS) and not lm.exact
        with mp.workprec(2048):
            assert abs(lm.log_mag - reference.log_mag) < mp.mpf(2) ** -32

    def test_fraction_with_unit_denominator_goes_exact(self):
        poly = derivative_poly(get_table(2, 4), 2)
        lm = eval_log_magnitude(poly, Fraction(4))
        assert lm.exact

    @pytest.mark.parametrize("sign", [1, -1])
    def test_interval_and_mpf_points_agree_with_exact(self, sign, monkeypatch):
        # |p_k(5)| is that of either conjugate value, lam = +i*m or lam = -i*m
        poly = derivative_poly(get_table(3, 12), 12)
        exact = eval_log_magnitude(poly, 5)
        re, im = gaussian_parts(poly, sign, 5)
        assert exact.log_mag == precision.half_log_of_int(re * re + im * im)
        with iv_prec(precision.RESULT_BITS):
            point = mpmath.iv.mpf(10) / 2
        work = certified_work(monkeypatch)
        for x in (point, mpmath.mpf(5)):
            lm = eval_log_magnitude(poly, x)
            assert not lm.exact and work.pop() == precision.RESULT_BITS + precision.GUARD_BITS
            assert lm.log_mag == exact.log_mag

    def test_interval_point_below_zero_rejected(self):
        poly = derivative_poly(get_table(2, 4), 2)
        with pytest.raises(ValueError):
            eval_log_magnitude(poly, mpmath.iv.mpf([-1, 2]))


def test_to_iv_encloses_mpf():
    with mp.workprec(300):
        third = mp.mpf(1) / 3
    with iv_prec(53):
        lo, hi = iv_endpoints(to_iv(third))
    assert lo <= third <= hi


class TestKjSequence:
    def test_examples(self):
        assert kj_sequence(2, 1).k(1) == 8
        assert kj_sequence(3, 1).k(1) == 6
        assert kj_sequence(4, 2).k(2) == 11
        assert kj_sequence(2, 4).entries == (8, 16, 24, 32)

    @given(m=st.integers(2, 10), j=st.integers(1, 50))
    @settings(max_examples=200)
    def test_smallest_integer_in_interval(self, m, j):
        kj = kj_sequence(m, j).k(j)
        lower = Fraction(4 * j * m, m - 1)
        upper = Fraction((4 * j + 1) * m, m - 1)
        assert lower <= kj <= upper
        assert kj - 1 < lower  # smallest such integer
        floor_idx = kj * (m - 1) // m
        assert 4 * j <= floor_idx <= 4 * j + 1
        assert floor_idx // 2 == 2 * j

    def test_count_is_the_number_of_orders_up_to_k_max(self):
        for m in range(2, 9):
            entries = kj_sequence(m, 100).entries  # k_j >= 4j: every k_j below 400
            for k_max in range(400):
                assert kj_count(m, k_max) == sum(k <= k_max for k in entries), (m, k_max)
        with pytest.raises(ValueError):
            kj_count(1, 10)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            kj_sequence(1, 3)
        with pytest.raises(ValueError):
            kj_sequence(2, 0)
        with pytest.raises(ValueError):
            kj_sequence(2, 3).k(4)


def test_row_length_helper():
    assert row_length(2, 4) == 3
    assert row_length(3, 4) == 3
    assert row_length(2, 1) == 1
