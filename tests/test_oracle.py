import json
import tracemalloc
from collections import deque
from itertools import count, islice, product
from math import comb, factorial, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gsmult import oracle as oracle_module
from gsmult._util import ParameterError
from gsmult.derivpoly import CoeffTable, build_coeff_table, coeff_rows, row_length
from gsmult.oracle import (
    MonomialPatternError,
    NonIntegralCoefficientError,
    _composition_rows,
    certify,
    coeff_oracle,
    hermite_oracle,
    symbolic_recursion_oracle,
)

from conftest import _RawTable, get_table, held_and_walk, short_tables, traced_peak


def _composition_sums(m: int):
    """Yield S_k for k = 0, 1, ...: S_k[p] = [y**k] ((1+y)**m - 1)**p, p = 0..k.

    S_k[p] sums prod_l binom(m, k_l) over compositions k = k_1 + ... + k_p
    with 1 <= k_l <= m; splitting off the last part gives
    S_k[p] = sum_{j=1..m} binom(m, j) * S_{k-j}[p-1], with S_0 = [1].  The
    reference that ties the oracle's T_k[p] = C[k][k-p] to the compositions.
    """
    binomials = [comb(m, j) for j in range(1, m + 1)]
    window = deque([[1]], maxlen=m)  # S_{k-1}, S_{k-2}, ..., S_{k-m}
    yield [1]
    for k in count(1):
        row = [0] * (k + 1)
        for b, prev in zip(binomials, window):
            for p, s in enumerate(prev):
                row[p + 1] += b * s
        window.appendleft(row)
        yield row


class TestCoeffOracle:
    def test_n0_always_one(self):
        for m in range(2, 7):
            for k in (1, 2, 7, 19):
                assert coeff_oracle(m, k, 0) == 1

    def test_closed_form_n1_instance(self):
        assert coeff_oracle(2, 4, 1) == 6  # (1/2)*(m-1)*k*(k-1)

    def test_m3_k3_n2(self):
        assert coeff_oracle(3, 3, 2) == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            coeff_oracle(3, 3, 3)
        with pytest.raises(ValueError):
            coeff_oracle(1, 3, 0)
        with pytest.raises(ValueError):
            coeff_oracle(3, 0, 0)


class TestSymbolicOracle:
    def test_m3_k3(self):
        assert symbolic_recursion_oracle(3, 3) == {0: 1, 1: 6, 2: 2}

    def test_m2_k1(self):
        assert symbolic_recursion_oracle(2, 1) == {0: 1}

    def test_m3_k4(self):
        assert symbolic_recursion_oracle(3, 4) == {0: 1, 1: 12, 2: 20}


class TestHermiteOracle:
    def test_k4(self):
        assert hermite_oracle(4) == {0: 1, 1: 6, 2: 3}

    def test_k1(self):
        assert hermite_oracle(1) == {0: 1}

    def test_k2(self):
        assert hermite_oracle(2) == {0: 1, 1: 1}

    def test_high_order_cold(self):
        # the Hermite pair is stepped iteratively, so no recursion depth limit
        values = hermite_oracle(1200)
        assert len(values) == 601 and values[0] == 1 and values[1] == 1200 * 1199 // 2

    def test_factorial_formula(self):
        from math import factorial

        for k in (3, 8, 15):
            values = hermite_oracle(k)
            for n, c in values.items():
                assert c * 2**n * factorial(n) * factorial(k - 2 * n) == factorial(k)

    @staticmethod
    def edit_h6(monkeypatch, edit):
        """Make the Hermite walk yield H_6 with ``edit`` applied to its coefficient of x**4."""
        real = oracle_module._hermite_polys

        def polys():
            for k, poly in real():
                if k == 6:
                    poly = list(poly)
                    poly[4] = edit(poly[4])
                yield k, poly

        monkeypatch.setattr(oracle_module, "_hermite_polys", polys)

    def test_broken_sign_pattern_is_caught(self, monkeypatch):
        # H_6's coefficient of x**4 is -2**5 * C[6][1]; n = 1 asks for a negative sign
        self.edit_h6(monkeypatch, lambda c: -c)
        with pytest.raises(MonomialPatternError, match="k=6, n=1"):
            hermite_oracle(6)
        with pytest.raises(MonomialPatternError, match="k=6, n=1"):
            certify(get_table(2, 10))

    def test_coefficient_not_divisible_is_caught(self, monkeypatch):
        # a multiple of 2**5 moved by 2**4: its lowest bit stays clear
        self.edit_h6(monkeypatch, lambda c: c - 2**4)
        with pytest.raises(NonIntegralCoefficientError, match="k=6, n=1"):
            hermite_oracle(6)
        with pytest.raises(NonIntegralCoefficientError, match="k=6, n=1"):
            certify(get_table(2, 10))


class TestThreeWayAgreement:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_table_matches_both_oracles(self, m):
        table = get_table(m, 12)
        for k in range(1, 13):
            symbolic = symbolic_recursion_oracle(m, k)
            for n, value in enumerate(table.row(k)):
                assert value == coeff_oracle(m, k, n)
                assert value == symbolic[n]


class TestGeneratingFunction:
    # _composition_sums yields S_k with S_k[p] = [y**k] ((1+y)**m - 1)**p for p = 0..k
    @given(m=st.integers(2, 6), k=st.integers(1, 20))
    def test_vanishes_above_top_index(self, m, k):
        sums = next(islice(_composition_sums(m), k, None))
        top = k * (m - 1) // m
        for n in range(top + 1, k):
            assert sums[k - n] == 0

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_brute_force_compositions(self, m):
        # S = sum over compositions of degree into `power` parts in 1..m of prod binom(m, part)
        for degree, sums in enumerate(islice(_composition_sums(m), 9)):
            brute = [
                sum(
                    prod(comb(m, part) for part in parts)
                    for parts in product(range(1, m + 1), repeat=power)
                    if sum(parts) == degree
                )
                for power in range(degree + 2)
            ]
            assert sums + [0] == brute

    @pytest.mark.parametrize("m", range(2, 9))
    def test_stepped_rows_are_the_normalized_sums(self, m):
        # T_k[p] = C[k][k-p] (zero outside the row) times m**p * p! is k! * S_k[p]
        for k, (row, sums) in enumerate(zip(_composition_rows(m), islice(_composition_sums(m), 1, 61)), 1):
            for p, s in enumerate(sums):
                t = row[k - p] if k - p < len(row) else 0
                assert t * m**p * factorial(p) == factorial(k) * s

    def test_top_term_exists_only_up_to_degree(self):
        # the n = k-1 term (exponent m-k) survives exactly when k <= m
        for m in range(2, 7):
            for k, sums in enumerate(islice(_composition_sums(m), 1, 21), 1):
                has_top = row_length(m, k) == k
                assert has_top == (k <= m)
                assert (sums[1] != 0) == (k <= m)


class TestCertify:
    def test_m3_kmax10_clean(self):
        held, walk = held_and_walk(3, 10)
        report = certify(held)
        assert report.certified and report.k_range == (1, 10)
        assert certify(walk) == report

    def test_m2_kmax25_with_hermite(self):
        held, walk = held_and_walk(2, 25)
        report = certify(held)
        assert report.certified
        assert certify(walk) == report

    def test_fault_injection_single_cell(self):
        table = get_table(3, 6)
        rows = [list(r) for r in table.rows]
        rows[3][2] += 1
        corrupt = CoeffTable(m=3, k_max=6, rows=tuple(tuple(r) for r in rows))
        report = certify(corrupt)
        assert len(report.discrepancies) == 1
        k, n, got, want = report.discrepancies[0]
        assert (k, n) == (4, 2)
        assert int(got) == int(want) + 1

    @pytest.mark.parametrize("m", [2, 4])
    def test_only_a_disagreeing_cell_is_formatted(self, monkeypatch, m):
        # rows are compared whole: a clean table formats no cell, and a table
        # with one changed cell formats and reports exactly that cell
        formatted = []
        real = oracle_module.format_int
        monkeypatch.setattr(oracle_module, "format_int", lambda v: formatted.append(v) or real(v))
        assert certify(coeff_rows(m, 60)).certified and formatted == []
        rows = [list(r) for r in get_table(m, 60).rows]
        rows[49][5] -= 3
        report = certify(CoeffTable(m=m, k_max=60, rows=tuple(map(tuple, rows))))
        assert formatted == [rows[49][5], coeff_oracle(m, 50, 5)]
        assert report.discrepancies == ((50, 5, str(rows[49][5]), str(coeff_oracle(m, 50, 5))),)

    def test_m4_kmax300_certified(self):
        held, walk = held_and_walk(4, 300)
        report = certify(held)
        assert report.certified and report.k_range == (1, 300)
        assert certify(walk) == report

    def test_walk_holds_no_table(self):
        # certifying a walk holds one row of the table at a time, not all of them
        table_bytes = traced_peak(lambda: build_coeff_table(4, 300))[1]
        report, peak = traced_peak(lambda: certify(coeff_rows(4, 300)))
        assert report.certified and peak < table_bytes / 4

    def test_m4_kmax300_memory_bounded(self):
        # every oracle keeps a bounded window of rows, not every power or order
        table = get_table(4, 300)
        tracemalloc.start()
        try:
            report = certify(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.certified and peak < 2 * 10**6

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
    def test_walk_matches_point_oracles(self, m):
        # certify's single walk over k must report exactly what the per-order
        # point oracles give, on a clean table and on one with corrupt cells;
        # a changed leading cell is fed unchecked, as a held table refuses it
        table = get_table(m, 40)
        rows = [list(r) for r in table.rows]
        rows[9][1] += 1
        rows[19][0] += 1
        rows[39][-1] -= 1
        corrupt = _RawTable(m, tuple(tuple(r) for r in rows))
        for t in (table, corrupt):
            expected = []
            for k in range(1, 41):
                oracles = [symbolic_recursion_oracle(m, k)]
                if m == 2:
                    oracles.append(hermite_oracle(k))
                for n, value in enumerate(t.row(k)):
                    for ov in [coeff_oracle(m, k, n)] + [o[n] for o in oracles]:
                        if value != ov:
                            expected.append((k, n, str(value), str(ov)))
                            break
            assert certify(t).discrepancies == tuple(expected)
        assert len(certify(corrupt).discrepancies) == 3

    def test_non_integral_prefactor_is_caught_along_the_row(self, monkeypatch):
        # T_7[6] = C[7][1] moved by one as it enters the window: in T_8[7] = C[8][1]
        # it adds binom(3, 1) * 8 = 24 to the sum, which m*p = 21 does not divide
        class Window(deque):
            steps = 0

            def appendleft(self, row):
                Window.steps += 1
                super().appendleft(row[:1] + (row[1] + 1,) + row[2:] if Window.steps == 7 else row)

        monkeypatch.setattr(oracle_module, "deque", Window)
        with pytest.raises(NonIntegralCoefficientError, match=r"m=3, k=8, n=1\)"):
            certify(get_table(3, 10))

    @pytest.mark.parametrize("cut", [0, 1], ids=["rows", "cell"])
    def test_short_held_table_is_refused(self, cut):
        # a held table whose rows end before k_max, or whose last row lacks a cell, is never certified
        with pytest.raises(ParameterError):
            certify(short_tables(3, 10)[cut])

    def test_json_shape(self):
        report = certify(build_coeff_table(2, 5))
        data = report.to_json_dict()
        assert data["certified"] is True
        assert data["k_range"] == [1, 5]
        # to_json() is the `verify coeffs --json` file text
        assert report.to_json() == json.dumps(data, indent=2) + "\n"
