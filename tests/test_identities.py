import json
import math
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsmult._util import format_fraction
from gsmult.derivpoly import CoeffTable, build_coeff_table, coeff_rows
from gsmult.identities import (
    CheckResult,
    _result,
    check_ck1_closed_form,
    check_ck2_bound,
    check_floor_identities,
    check_lower_bound,
    check_ratio_bound,
    check_table_bounds,
    check_wedge_fn_nonneg,
)
from gsmult.precision import ParameterError, iv_fixed, iv_prec, to_iv

from conftest import _RawTable, get_table, held_and_walk, short_tables, traced_peak


def check_both(check, m, k_max, *args):
    """``check`` on the held table, asserted equal to ``check`` on its ``coeff_rows`` walk."""
    held, walk = held_and_walk(m, k_max)
    result = check(held, *args)
    assert check(walk, *args) == result
    return result


class TestCheckResult:
    def test_pass_iff_no_witnesses(self):
        with pytest.raises(ValueError):
            CheckResult(name="x", params={}, passed=True, witnesses=((1,),))
        with pytest.raises(ValueError):
            CheckResult(name="x", params={}, passed=False, witnesses=())


class TestFloorIdentities:
    def test_small_cases(self):
        # k = 2 with m = 2: floors stay equal; with m = 3 they step by one
        assert 3 * 1 // 2 == 2 * 1 // 2 == 1
        assert 2 * 2 // 3 == 1 and 3 * 2 // 3 == 2
        assert check_floor_identities(2, 64).passed
        assert check_floor_identities(3, 64).passed

    def test_m10_exhaustive(self):
        result = check_floor_identities(10, 10**4)
        assert result.passed and not result.witnesses

    def test_rejects_m1(self):
        with pytest.raises(ValueError):
            check_floor_identities(1, 10)

    def test_rejects_kmax_below_one(self):
        with pytest.raises(ParameterError):
            check_floor_identities(3, 0)


class TestCk1ClosedForm:
    def test_examples(self):
        assert get_table(3, 4).row(4)[1] == 12 == (3 - 1) * 4 * 3 // 2
        assert get_table(2, 2).row(2)[1] == 1
        assert check_both(check_ck1_closed_form, 6, 100).passed

    def test_all_small_degrees(self):
        for m in range(2, 7):
            assert check_both(check_ck1_closed_form, m, 64).passed


class TestCk2Bound:
    def test_examples(self):
        assert 2 * get_table(3, 4).row(4)[2] == 40 <= 9 * 256
        assert 2 * get_table(2, 4).row(4)[2] == 6 <= 4 * 256
        result = check_both(check_ck2_bound, 6, 128)
        assert result.passed
        assert 0 < result.extremal_ratio < 1

    def test_requires_k4(self):
        with pytest.raises(ValueError):
            check_ck2_bound(build_coeff_table(2, 3))

    @pytest.mark.parametrize("cut", [0, 1], ids=["rows", "cell"])
    def test_short_held_table_is_refused(self, cut):
        with pytest.raises(ParameterError):
            check_ck2_bound(short_tables(3, 10)[cut])


class TestRatioBound:
    def test_theta_one_small(self):
        result = check_both(check_ratio_bound, 2, 32, Fraction(1))
        assert result.passed
        assert result.extremal_ratio <= 1

    def test_exact_power_instance(self):
        # m = 3, theta = 2/3, k = 4, n = 1: 20**3 <= 12**3 * 27 * 4**6
        assert 20**3 <= 12**3 * 27 * 4**6
        assert check_both(check_ratio_bound, 3, 32, Fraction(2, 3)).passed

    def test_rejects_below_two_over_m(self):
        with pytest.raises(ValueError):
            check_ratio_bound(get_table(2, 8), Fraction(1, 4))

    def test_tightness_near_two_over_m(self):
        # at theta = 2/m the recorded ratio comes within an order of magnitude of 1
        result = check_both(check_ratio_bound, 4, 64, Fraction(1, 2))
        assert result.passed
        assert result.extremal_ratio > 0.1

    def test_walk_is_sized_by_the_checks_that_read_it(self):
        # no table given: rows 1..max(k_max, k_{j_max}) are walked, here to k_3 = 18 for m = 3
        held = get_table(3, 4)
        expected = [check_ck1_closed_form(held), check_ck2_bound(held), check_ratio_bound(held, 2)]
        assert check_table_bounds(3, 2, 4, j_max=3) == [*expected, check_lower_bound(3, 2, 3)]
        with pytest.raises(ParameterError, match="up to k=18"):
            check_table_bounds(3, 2, 4, j_max=3, table=get_table(3, 17))

    def test_walk_holds_no_table(self):
        # the check reads one row at a time, so a walk is checked without the table
        table_bytes = traced_peak(lambda: build_coeff_table(4, 300))[1]
        result, peak = traced_peak(lambda: check_ratio_bound(coeff_rows(4, 300), Fraction(1, 2)))
        assert result.passed and peak < table_bytes / 4

    @pytest.mark.parametrize("cut", [0, 1], ids=["rows", "cell"])
    def test_short_held_table_is_refused(self, cut):
        with pytest.raises(ParameterError):
            check_ratio_bound(short_tables(3, 10)[cut], Fraction(1))


def reference_ratio_bound(table, theta):
    """The adjacent-ratio check as exact q-th powers of every cell, literally."""
    theta = Fraction(theta)
    m = table.m
    p, q = theta.numerator, theta.denominator
    witnesses = []
    max_log_ratio = None
    m_q = m**q
    for k in range(2, table.k_max + 1):
        row = table.row(k)
        scale = m_q * k ** (m * p)
        powers = [c**q for c in row]  # each C[k][n]**q serves both of its neighbours
        for n in range(len(row) - 1):
            lhs = powers[n + 1]
            rhs = powers[n] * scale
            if lhs > rhs:
                witnesses.append((k, n, row[n + 1], row[n]))
            log_ratio = (math.log(lhs) - math.log(rhs)) / q
            if max_log_ratio is None or log_ratio > max_log_ratio:
                max_log_ratio = log_ratio
    extremal = None if max_log_ratio is None else math.exp(max_log_ratio)
    params = {"m": m, "k_max": table.k_max, "theta": format_fraction(theta)}
    return _result("adjacent-ratio-bound", params, witnesses, extremal)


def _theta_for(m, data):
    q = data.draw(st.integers(1, 6))
    p = data.draw(st.integers(-(-2 * q // m), 3 * q))  # theta = p/q >= 2/m
    return Fraction(p, q)


def _edited(table, edits):
    rows = [list(r) for r in table.rows]
    for k, n, value in edits:
        rows[k - 1][n] = value
    return CoeffTable(m=table.m, k_max=table.k_max, rows=tuple(map(tuple, rows)))


def _cell(table, data):
    k = data.draw(st.integers(2, table.k_max))
    n = data.draw(st.integers(1, len(table.row(k)) - 1))
    return k, n


def _iroot(n: int, q: int) -> int:
    """The largest int a with a**q <= n, for n >= 1, by bisection."""
    lo, hi = 1, 1 << -(-n.bit_length() // q)  # lo**q <= n < hi**q
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**q <= n else (lo, mid)
    return lo


def _on_the_bound(table, theta, k, n):
    """The largest C[k][n] that keeps the cell (k, n - 1) within the bound: a**q <= b**q * f."""
    p, q = theta.numerator, theta.denominator
    return _iroot(table.row(k)[n - 1] ** q * table.m**q * k ** (table.m * p), q)


class TestRatioBoundMatchesReference:
    """The row screens must not move a witness or the extremal ratio: the whole
    CheckResult equals that of the literal per-cell loop."""

    @staticmethod
    def assert_same(table, theta):
        got = check_ratio_bound(table, theta)
        assert got == reference_ratio_bound(table, theta)
        return got

    @pytest.mark.parametrize(
        "m, k_max, theta",
        [
            (4, 120, Fraction(1, 2)),
            (3, 120, Fraction(5, 6)),
            (6, 80, Fraction(1, 3)),
            (2, 120, 1),
            (5, 80, Fraction(7, 5)),
            # the sizes of the benchmark's ``verify identities`` jobs
            (4, 600, Fraction(1, 2)),
            (3, 400, Fraction(5, 6)),
            # large q, where the float estimates are largest and the margin scales with them
            (2, 30, Fraction(2001, 1000)),
            (3, 30, Fraction(2001, 1000)),
            (5, 30, Fraction(2001, 1000)),
            (2, 12, Fraction(20011, 10007)),
            (3, 12, Fraction(20011, 10007)),
            (5, 12, Fraction(20011, 10007)),
        ],
    )
    def test_clean_tables(self, m, k_max, theta):
        result = self.assert_same(get_table(m, k_max), theta)
        assert result.passed
        assert check_ratio_bound(coeff_rows(m, k_max), theta) == result

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_tampered_tables(self, data):
        m = data.draw(st.integers(2, 6))
        table = get_table(m, data.draw(st.integers(2, 40)))
        theta = _theta_for(m, data)
        edits = []
        for _ in range(data.draw(st.integers(1, 6))):
            k, n = _cell(table, data)
            old = table.row(k)[n]
            edits.append((k, n, data.draw(st.sampled_from([old + 1, max(1, old - 1), old * 2**40, 1, old * 7 + 3]))))
        self.assert_same(_edited(table, edits), theta)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_cells_on_equality(self, data):
        # k = j**q makes f = m**q * k**(m*p) the q-th power of m * j**(m*p), so
        # a = b * m * j**(m*p) puts the cell exactly on a**q == b**q * f
        m = data.draw(st.integers(2, 6))
        theta = _theta_for(m, data)
        p, q = theta.numerator, theta.denominator
        j = data.draw(st.integers(2, max(2, int(64 ** (1 / q)))))
        k = j**q  # at most 64 for q <= 6
        table = get_table(m, 64)
        n = data.draw(st.integers(1, len(table.row(k)) - 1))
        b = table.row(k)[n - 1]
        a = b * m * j ** (m * p)
        assert a**q == b**q * m**q * k ** (m * p)
        result = self.assert_same(_edited(table, [(k, n, a)]), theta)
        assert (k, n - 1, a, b) not in result.witnesses

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_cells_one_bit_either_side_of_each_test(self, data):
        m = data.draw(st.integers(2, 6))
        table = get_table(m, data.draw(st.integers(2, 40)))
        theta = _theta_for(m, data)
        p, q = theta.numerator, theta.denominator
        k, n = _cell(table, data)
        b = table.row(k)[n - 1]
        lb, lf = b.bit_length(), (m**q * k ** (m * p)).bit_length()
        exceeds_from = lb + 1 + -(-lf // q)  # least la with q*(la-lb-1) >= lf
        within_to = lb - 1 + (lf - 1) // q  # largest la with q*(la-lb+1) < lf
        la = data.draw(st.sampled_from([exceeds_from - 1, exceeds_from, within_to, within_to + 1]))
        la = max(la, 1)
        a = data.draw(st.sampled_from([2 ** (la - 1), 2**la - 1, data.draw(st.integers(2 ** (la - 1), 2**la - 1))]))
        self.assert_same(_edited(table, [(k, n, a)]), theta)

    @pytest.mark.parametrize(
        "m, k_max, theta, k",
        [
            (4, 160, Fraction(1, 2), 150),
            (3, 120, Fraction(5, 6), 101),
            (2, 30, Fraction(2001, 1000), 30),
            (5, 12, Fraction(20011, 10007), 12),
        ],
    )
    def test_late_cell_on_the_bound_is_the_new_extremal(self, m, k_max, theta, k):
        # late rows (k >= 100) at small q, the last row at large q: a cell at the
        # largest a with a**q <= b**q * f is no witness, and its ratio, just
        # below 1, is larger than every clean cell's
        table = get_table(m, k_max)
        n = len(table.row(k)) // 2
        result = self.assert_same(_edited(table, [(k, n, _on_the_bound(table, theta, k, n))]), theta)
        assert result.passed
        assert check_ratio_bound(table, theta).extremal_ratio < 0.5 < result.extremal_ratio <= 1

    @pytest.mark.parametrize("m, theta", [(4, Fraction(1, 2)), (3, Fraction(5, 6)), (2, Fraction(2001, 1000))])
    def test_witness_in_a_row_without_extremal_candidates(self, m, theta):
        # a cell 2**200 times its neighbour at k = 10 sets a best estimate that no
        # later row's gaps can reach, so row 50 logs no cell; a cell there one past
        # the bound is still a witness, found by the witness screen alone
        p, q = theta.numerator, theta.denominator
        table = get_table(m, 60)
        n = len(table.row(50)) // 2
        big = (10, 2, table.row(10)[2] * 2**200)
        tampered = _edited(table, [big, (50, n, _on_the_bound(table, theta, 50, n) + 1)])
        bits = [c.bit_length() for c in tampered.row(50)]
        top = max(y - x for x, y in zip(bits, bits[1:]))
        best = q * (math.log(big[2]) - math.log(table.row(10)[1])) - math.log(m**q * 10 ** (m * p))
        assert q * (top + 1) * math.log(2) - math.log(m**q * 50 ** (m * p)) < best - 1
        result = self.assert_same(tampered, theta)
        assert [w[:2] for w in result.witnesses] == [(10, 1), (50, n - 1)]

    def test_every_cell_of_the_first_row_is_logged(self):
        # the first row has no best to screen against: in (1, 63, 2079) the cell
        # 63 -> 2079 has the row's top gap (6, ratio 33) but 1 -> 63 (gap 5) has
        # the larger ratio.  A table's row 2 holds one cell, so this row is fed
        # unchecked, followed by clean rows that stay below it
        rows = [(1,), (1, 63, 2079), *get_table(2, 12).rows[2:]]
        result = self.assert_same(_RawTable(2, rows), Fraction(1))
        assert result.extremal_ratio == pytest.approx(63 / 8)  # the cell 1 -> 63, over f = 8


class TestTableBounds:
    """The three table checks from one walk give what each gives on its own."""

    @pytest.mark.parametrize(
        "m, k_max, theta",
        [(4, 120, Fraction(1, 2)), (3, 60, Fraction(5, 6)), (2, 4, Fraction(1)), (6, 40, Fraction(7, 3))],
    )
    def test_one_walk_gives_the_three_checks(self, m, k_max, theta):
        held, walk = held_and_walk(m, k_max)
        expected = [check_ck1_closed_form(held), check_ck2_bound(held), check_ratio_bound(held, theta)]
        assert all(r.passed for r in expected)
        assert check_table_bounds(m, theta, k_max, table=walk) == check_table_bounds(m, theta, k_max, table=held)
        assert check_table_bounds(m, theta, k_max) == expected

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_tampered_tables(self, data):
        m = data.draw(st.integers(2, 6))
        table = get_table(m, data.draw(st.integers(4, 40)))
        theta = _theta_for(m, data)
        edits = []
        for _ in range(data.draw(st.integers(1, 4))):
            k, n = _cell(table, data)
            edits.append((k, n, table.row(k)[n] * data.draw(st.sampled_from([2, 3, 2**40]))))
        tampered = _edited(table, edits)
        results = check_table_bounds(m, theta, table.k_max, table=tampered)
        alone = [check_ck1_closed_form(tampered), check_ck2_bound(tampered), check_ratio_bound(tampered, theta)]
        assert results == alone
        assert results[0].passed == all(n != 1 for _, n, _ in edits)  # every edit moves its cell
        assert results[2].to_json() == reference_ratio_bound(tampered, theta).to_json()

    @pytest.mark.parametrize(
        "k_max, theta", [(3, Fraction(1)), (10, Fraction(1, 4))], ids=["below-k4", "theta-below-2-over-m"]
    )
    def test_rejected_before_any_row(self, k_max, theta):
        class Rows:
            m = 2

            def __iter__(self):
                raise AssertionError("a row was read")

        rows = Rows()
        rows.k_max = k_max
        with pytest.raises(ParameterError):
            check_table_bounds(2, theta, k_max, table=rows)

    @pytest.mark.parametrize("cut", [0, 1], ids=["rows", "cell"])
    def test_short_held_table_is_refused(self, cut):
        with pytest.raises(ParameterError):
            check_table_bounds(3, 1, 10, table=short_tables(3, 10)[cut])

    def test_walk_is_sized_by_the_checks_that_read_it(self):
        # no table given: rows 1..max(k_max, k_{j_max}) are walked, here to k_3 = 18 for m = 3
        held = get_table(3, 4)
        expected = [check_ck1_closed_form(held), check_ck2_bound(held), check_ratio_bound(held, 2)]
        assert check_table_bounds(3, 2, 4, j_max=3) == [*expected, check_lower_bound(3, 2, 3)]
        with pytest.raises(ParameterError, match="up to k=18"):
            check_table_bounds(3, 2, 4, j_max=3, table=get_table(3, 17))

    def test_walk_holds_no_table(self):
        table_bytes = traced_peak(lambda: build_coeff_table(4, 300))[1]
        results, peak = traced_peak(lambda: check_table_bounds(4, Fraction(1, 2), 300))
        assert all(r.passed for r in results) and peak < table_bytes / 4


class TestCheckResultJson:
    def test_witness_beyond_the_int_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        big = 10**5000 + 7
        result = CheckResult(name="x", params={}, passed=False, witnesses=((3, big, "s"),))
        data = json.loads(result.to_json())
        assert data["witnesses"] == [["3", "1" + "0" * 4999 + "7", "s"]]
        assert sys.get_int_max_str_digits() == limit


def _exact_root(v: Fraction, n: int) -> Fraction:
    """The n-th root of a rational that is an exact n-th power."""
    root = Fraction(round(v.numerator ** (1 / n)), round(v.denominator ** (1 / n)))
    assert root**n == v
    return root


def reference_wedge_fn(m, theta, x):
    """f(x) = (1+x)**a - (1-1/m)*x**(a-1) - 1 as an exact Fraction, a = m*theta = p/q;
    1+x and x must be exact q-th powers."""
    a = m * Fraction(theta)
    p, q = a.numerator, a.denominator
    return _exact_root(1 + x, q) ** p - Fraction(m - 1, m) * _exact_root(x, q) ** (p - q) - 1


def _interval_reference(m, theta, x, bits):
    """The outward-rounded interval enclosure of f(x) = (1+x)**a - (1-1/m)*x**(a-1) - 1, as exact Fractions."""
    with iv_prec(bits):
        a, c, x = to_iv(m * Fraction(theta)), to_iv(Fraction(m - 1, m)), to_iv(x)
        enc = (1 + x) ** a - c * x ** (a - 1) - 1
        lo_end, hi_end, e = iv_fixed(enc)
    return lo_end * Fraction(2) ** e, hi_end * Fraction(2) ** e


def lemma_bound(m, theta, x):
    """The lower bound (a - 1 + 1/m)*x of f(x) that ``check_wedge_fn_nonneg`` rests on, a = m*theta."""
    return (m * Fraction(theta) - 1 + Fraction(1, m)) * x


_SWEEP = [(m, Fraction(2, m)) for m in range(2, 9)] + [
    (2, Fraction(7, 5)),
    (3, Fraction(5, 6)),
    (3, Fraction(2)),
    (7, Fraction(9, 7)),
    (100, Fraction(1, 50)),
    (2, Fraction(1001, 1000)),  # a = 1001/500
    (3, Fraction(2001, 3)),  # a = 2001
]


class TestWedgeFnNonneg:
    def test_exact_integer_exponent(self):
        result = check_wedge_fn_nonneg(2, Fraction(1))
        assert result.passed
        assert result.params == {"m": "2", "theta": "1"}

    def test_half_point_value(self):
        # m = 2, theta = 1: f(1/2) = 2.25 - 0.25 - 1 = 1 >= (2 - 1 + 1/2) * 1/2
        x = Fraction(1, 2)
        assert reference_wedge_fn(2, 1, x) == 1 >= lemma_bound(2, 1, x) == Fraction(3, 4)

    def test_endpoints(self):
        # f(0) = 0 is the minimum the check reports; f(1) = 2**a - 2 + 1/m
        zero, one = Fraction(0), Fraction(1)
        assert reference_wedge_fn(3, 1, zero) == 0 == lemma_bound(3, 1, zero)
        assert reference_wedge_fn(3, 1, one) == Fraction(2) ** 3 - 2 + Fraction(1, 3) >= lemma_bound(3, 1, one)

    @pytest.mark.parametrize(
        "m, theta, x",
        [
            (3, 1, Fraction(1, 3)),
            (4, Fraction(1, 2), Fraction(3, 4)),
            (5, 1, Fraction(1, 1024)),
            (6, 1, Fraction(1, 2**40)),
            (7, Fraction(9, 7), Fraction(255, 256)),
            (2, Fraction(5, 4), Fraction(9, 16)),  # a = 5/2: 1+x = (5/4)**2, x = (3/4)**2
            (5, Fraction(1, 2), Fraction(9, 16)),
            (3, Fraction(5, 6), Fraction(0)),
        ],
    )
    def test_degenerate_box_encloses_the_exact_value(self, m, theta, x):
        # the lemma's bound on the one-point box [x, x] lies at or below the exact value of f there
        assert 0 <= lemma_bound(m, theta, x) <= reference_wedge_fn(m, theta, x)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_bounds_agree_with_an_interval_enclosure(self, data):
        # the lemma's bound of f(x) at a dyadic x in [0,1] never exceeds the upper end of f's interval enclosure
        m, theta = data.draw(st.sampled_from(_SWEEP))
        scale = 2 ** data.draw(st.integers(0, 50))
        x = Fraction(data.draw(st.integers(0, scale)), scale)
        assert lemma_bound(m, theta, x) <= _interval_reference(m, theta, x, 128)[1]

    def test_fractional_exponent(self):
        result = check_wedge_fn_nonneg(3, Fraction(5, 6))
        assert result.passed

    @pytest.mark.parametrize("m, theta", _SWEEP)
    def test_sweep_passes_with_minimum_zero_and_no_bisection(self, m, theta):
        # a proof, not a sweep: the minimum reported is f(0), as a float
        result = check_wedge_fn_nonneg(m, theta)
        assert result.passed and not result.witnesses
        assert result.extremal_ratio == 0.0 and isinstance(result.extremal_ratio, float)

    @pytest.mark.parametrize("bits", [64, 192])
    @pytest.mark.parametrize("m, theta", [(2, Fraction(1001, 1000)), (3, Fraction(2001, 3))])
    def test_large_exponents_pass_quickly(self, m, theta, bits):
        # a = 1001/500 and a = 2001: the check costs nothing in p or q, and the lemma's bound
        # stays below an interval enclosure of f at `bits` bits across [0,1]
        start = time.perf_counter()
        result = check_wedge_fn_nonneg(m, theta)
        assert time.perf_counter() - start < 2
        assert result.passed and result.extremal_ratio == 0.0
        for x in [Fraction(i, 16) for i in range(17)]:
            assert lemma_bound(m, theta, x) <= _interval_reference(m, theta, x, bits)[1]

    def test_rejects_hypothesis_violation(self):
        with pytest.raises(ValueError):
            check_wedge_fn_nonneg(2, Fraction(1, 4))

    @pytest.mark.parametrize("m", [0, 1, -1])
    def test_rejects_degree_below_two(self, m):
        with pytest.raises(ParameterError):
            check_wedge_fn_nonneg(m, Fraction(2))


class TestLowerBound:
    def test_m2_theta1_first_order(self):
        result = check_lower_bound(2, 1, 1)
        assert result.passed
        assert result.extremal_ratio >= 1

    def test_m3_theta1(self):
        assert check_lower_bound(3, 1, 1).passed

    def test_m2_j4_reaches_k32(self):
        result = check_lower_bound(2, 1, 4, table=get_table(2, 32))
        assert result.passed

    def test_rejects_non_integer_theta(self):
        with pytest.raises(ValueError):
            check_lower_bound(2, Fraction(3, 2), 2)

    def test_integral_fraction_theta_is_the_integer_theta(self):
        result = check_lower_bound(2, Fraction(2), 3)
        assert result.passed and result.to_json() == check_lower_bound(2, 2, 3).to_json()
        # check_table_bounds hands its theta to the lower-bound step as it is
        results = check_table_bounds(2, Fraction(2), 24, j_max=3)
        assert results == check_table_bounds(2, 2, 24, j_max=3) and results[3] == result

    def test_rejects_undersized_table(self):
        from gsmult.derivpoly import build_coeff_table

        with pytest.raises(ValueError):
            check_lower_bound(2, 1, 4, table=build_coeff_table(2, 8))
