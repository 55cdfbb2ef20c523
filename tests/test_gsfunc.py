import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv, mp
from mpmath.libmp import from_int

from gsmult import gsfunc, precision
from gsmult._util import ParameterError, format_mpf
from gsmult.gsfunc import (
    Gaussian,
    GSFunction,
    bracket_eval,
    geometric_grid,
    gs_derivative_series,
    seminorm,
    seminorm_cells,
    uniform_grid,
    verify_bracket_bound,
    verify_gs_bound,
)
from gsmult.derivpoly import build_coeff_table, derivative_poly
from gsmult.precision import (
    GUARD_BITS,
    RESULT_BITS,
    PrecisionError,
    certified_midpoint,
    fixed_outward,
    fixed_scaled,
    iv_fixed,
    iv_prec,
    to_iv,
    to_mpf,
)

from bracket_rows import bracket_rows, horner
from conftest import result_bits, term_loop_parts

rationals = st.fractions(min_value=-4, max_value=4)


class SampledDerivatives:
    """An f_spec whose derivative values are given as a {(x, order): value} mapping."""

    def __init__(self, samples: dict, name: str = "sampled"):
        self.samples = dict(samples)
        self.name = name

    def derivatives(self, x, k_max: int):
        try:
            return [self.samples[(x, k)] for k in range(k_max + 1)]
        except KeyError as exc:
            raise ParameterError("no sampled derivative for point %r" % (exc.args[0],)) from exc


def hermite(x, k_max):
    """Physicists' Hermite values H_0(x)..H_k_max(x) at a rational x, exactly, from
    H_k = 2x * H_{k-1} - 2(k-1) * H_{k-2}: the reference for the Gaussian."""
    x = Fraction(x)
    values = [Fraction(1), 2 * x]
    for k in range(2, k_max + 1):
        values.append(2 * x * values[k - 1] - 2 * (k - 1) * values[k - 2])
    return values[: k_max + 1]


def times_gaussian(values, x):
    """Each exact Fraction of ``values`` times an enclosure of exp(-x**2), certified."""
    x = Fraction(x)
    return precision.certified_values(lambda work: [iv_fixed(to_iv(v) * iv.exp(-to_iv(x * x))) for v in values])


def _count_calls(monkeypatch, name):
    """The list of the arguments of every ``precision.<name>`` call from now on; for
    ``fixed_rounded``, one per certified value."""
    calls = []
    original = getattr(precision, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(precision, name, counting)
    return calls


class TestBracketDerivative:
    def test_q1_is_tx(self):
        assert bracket_rows(Fraction(7, 3), 1)[1] == (Fraction(0), Fraction(7, 3))

    def test_q2(self):
        t = Fraction(7, 3)
        assert bracket_rows(t, 2)[2] == (t, Fraction(0), t * (t - 1))

    def test_polynomial_case_t2(self):
        # <x>**2 = 1 + x**2 has second derivative identically 2
        for x in (0, Fraction(1, 2), Fraction(-3)):
            assert mpmath.almosteq(bracket_eval(2, 2, x), 2)

    def test_float_t_converts_exactly(self):
        assert bracket_eval(2.5, 1, 0.75) == bracket_eval(Fraction(5, 2), 1, Fraction(3, 4))

    @given(t=rationals.filter(lambda v: v != 0), k=st.integers(0, 10))
    @settings(max_examples=60)
    def test_recursion_identity(self, t, k):
        # q_{k+1} == q_k' * (1+x**2) + (t-2k) * x * q_k as exact polynomials
        q_k, q_next = bracket_rows(t, k + 1)[k:]
        expected = [Fraction(0)] * (k + 2)
        for i in range(1, len(q_k)):
            expected[i - 1] += i * q_k[i]
            expected[i + 1] += i * q_k[i]
        for i in range(len(q_k)):
            expected[i + 1] += (Fraction(t) - 2 * k) * q_k[i]
        assert list(q_next) == expected

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            bracket_eval(1, -1, 0)

    @pytest.mark.parametrize("t", [Fraction(1, 2), Fraction(1, 3), Fraction(5, 2), Fraction(-7, 3), 10, -1])
    def test_values_are_certified(self, t, monkeypatch):
        # each value is r_k = q_k(x) / (1+x**2)**k from the exact rows times an enclosure of
        # <x>**t, certified, and is made by one certified_values call
        rows = bracket_rows(t, 20)
        calls = _count_calls(monkeypatch, "certified_values")
        for x in (Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(-5, 2), Fraction(7), Fraction(22, 7)):
            ratios = [horner(q, x) / (1 + x * x) ** k for k, q in enumerate(rows)]
            ref = precision.certified_values(
                lambda work: [iv_fixed(to_iv(r) * to_iv(1 + x * x) ** to_iv(Fraction(t) / 2)) for r in ratios]
            )
            del calls[:]
            assert [bracket_eval(t, k, x) for k in range(21)] == ref, x
            assert len(calls) == 21

    @given(t=rationals, x=rationals, k=st.integers(0, 12))
    @settings(max_examples=80)
    def test_point_ratios_match_rows(self, t, x, k):
        # r_k * (1+x**2)**k == q_k(x), exactly
        assert gsfunc._bracket_ratios(t, x, k)[k] * (1 + x**2) ** k == horner(bracket_rows(t, k)[k], x)


class TestBracketBound:
    def test_ratio_zero_at_origin_order_one(self):
        assert gsfunc._bracket_ratios(1, 0, 1)[1] == 0

    @pytest.mark.parametrize("t", [1, -1, Fraction(5, 2), Fraction(1, 3)])
    def test_sweep_is_finite(self, t):
        result = verify_bracket_bound(t, 20)
        assert result.passed
        assert result.extremal_ratio is not None and mp.isfinite(result.extremal_ratio)

    def test_t_minus_one_stays_at_unit_scale(self):
        result = verify_bracket_bound(-1, 20)
        assert result.extremal_ratio <= 1

    def test_generator_grid_is_read_once(self):
        points = tuple(Fraction(i, 4) for i in range(-8, 9))
        from_tuple = verify_bracket_bound(Fraction(1, 3), 10, grid=points)
        from_generator = verify_bracket_bound(Fraction(1, 3), 10, grid=(x for x in points))
        assert from_generator.params["grid_points"] == "17"
        assert from_generator.to_json() == from_tuple.to_json()

    @pytest.mark.parametrize("t", [1, -1, Fraction(5, 2), Fraction(1, 3)])
    def test_extremal_ratio_matches_the_rows_at_1024_bits(self, t):
        # max |q_k(x)| * (1+x**2)**(-k/2) / (8**k * k!) from the exact polynomials themselves
        grid = uniform_grid(Fraction(-3), Fraction(3), 13)
        result = verify_bracket_bound(t, 8, grid)
        with mp.workprec(1024):
            ref = max(
                abs(to_mpf(horner(q, x))) / (mp.sqrt(to_mpf(1 + x * x)) ** k * 8**k * mp.factorial(k))
                for k, q in enumerate(bracket_rows(t, 8))
                for x in grid
                if horner(q, x) != 0
            )
            assert abs(result.extremal_ratio - ref) <= ref * mp.mpf(2) ** -100


class TestGsDerivative:
    def test_first_derivative_vanishes_at_origin(self):
        for theta in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(7, 5)):
            assert gs_derivative_series(theta, 1, 0)[1] == 0

    def test_value_at_origin(self):
        with result_bits(256):
            v = gs_derivative_series(1, 0, 0)[0]
        with mp.workprec(256):
            assert abs(v - mp.exp(-1)) < mp.mpf(2) ** -200

    def test_second_derivative_at_origin(self):
        with result_bits(256):
            v = gs_derivative_series(1, 2, 0)[2]
        with mp.workprec(256):
            assert abs(v + mp.exp(-1)) < mp.mpf(2) ** -200

    def test_series_prefix_consistency(self):
        xs = gs_derivative_series(Fraction(1, 2), 8, Fraction(3, 4))
        for k in (0, 3, 8):
            assert gs_derivative_series(Fraction(1, 2), k, Fraction(3, 4))[k] == xs[k]

    def test_order_zero_positive(self):
        for x in (0, Fraction(1, 3), 5):
            assert gs_derivative_series(2, 0, x)[0] > 0

    def test_rejects_nonpositive_theta(self):
        with pytest.raises(ValueError):
            gs_derivative_series(0, 1, 0)

    def test_high_order_at_rational_point_certifies(self):
        # the ratios run in exact Fractions; in intervals they lose the 2**-64 bound here
        series = gs_derivative_series(Fraction(1, 2), 200, Fraction(25, 4))
        assert len(series) == 201 and all(mp.isfinite(v) for v in series)

    def test_matches_sympy_reference(self):
        sp = pytest.importorskip("sympy")
        xs = sp.Symbol("x")
        for theta in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(2, 3)):
            t = 1 / theta
            d = sp.exp(-((1 + xs**2) ** sp.Rational(t.numerator, 2 * t.denominator)))
            derivs = []
            for _ in range(9):
                derivs.append(d)
                d = sp.diff(d, xs)
            for x in (Fraction(0), Fraction(3, 4), Fraction(5)):
                got = gs_derivative_series(theta, 8, x)
                for k, dk in enumerate(derivs):
                    ref = dk.subs(xs, sp.Rational(x.numerator, x.denominator)).evalf(60)
                    with mp.workprec(256):
                        ref = mp.mpf(str(ref))
                        if ref == 0:
                            assert got[k] == 0
                        else:
                            assert abs(got[k] - ref) <= abs(ref) * mp.mpf(2) ** -180, (theta, x, k)

    @pytest.mark.parametrize("theta", [Fraction(1, 2), Fraction(1), Fraction(2)])
    def test_finite_difference_consistency_small(self, theta):
        h = Fraction(1, 2**20)
        for x in (Fraction(1, 2), Fraction(2)):
            series_lo = gs_derivative_series(theta, 5, x - h)
            series_hi = gs_derivative_series(theta, 5, x + h)
            series = gs_derivative_series(theta, 6, x)
            with mp.workprec(256):
                for k in range(5):
                    fd = (series_hi[k] - series_lo[k]) / (2 * mpmath.mpf(2) ** -20)
                    assert abs(fd - series[k + 1]) <= abs(series[k + 1]) * mp.mpf(10) ** -4


def binomial_leibniz_series(theta, k_max, x, bits=256):
    """The binomial Leibniz loop f^(j+1) = sum_i binom(j, i) * h^(i+1) * f^(j-i), kept literally
    as the reference for the Taylor-coefficient engine; returns the raw enclosures."""
    t = 1 / Fraction(theta)
    xf = Fraction(x)
    ratios = gsfunc._bracket_ratios(t, xf, k_max)
    with iv_prec(bits):
        bracket_pow = iv.exp(to_iv(t / 2) * iv.log(to_iv(1 + xf * xf)))  # <x>**t
        f0 = iv.exp(-bracket_pow)
        h = [None] + [-(bracket_pow * to_iv(r)) for r in ratios[1:]]
        f = [f0]
        for j in range(k_max):
            acc = iv.mpf(0)
            b = 1
            for i in range(j + 1):  # b = binom(j, i)
                acc += iv.mpf(b) * h[i + 1] * f[j - i]
                b = b * (j - i) // (i + 1)
            f.append(acc)
    return f


def iv_operator_taylor_series(theta, k_max, x, bits=256):
    """The engine's Taylor-coefficient loop written with ``iv`` operators; raw enclosures."""
    t = 1 / Fraction(theta)
    xf = Fraction(x)
    ratios = gsfunc._bracket_ratios(t, xf, k_max)
    with iv_prec(bits):
        bracket_pow = iv.exp(to_iv(t / 2) * iv.log(to_iv(1 + xf * xf)))
        c = [-(bracket_pow * to_iv(ratios[i + 1] / math.factorial(i))) for i in range(k_max)]
        a = [iv.exp(-bracket_pow)]
        for j in range(k_max):
            acc = iv.mpf(0)
            for i in range(j + 1):
                acc = acc + c[i] * a[j - i]
            a.append(acc / (j + 1))
        return [a_j * iv.make_mpf((from_int(math.factorial(j)),) * 2) for j, a_j in enumerate(a)]


class TestTaylorKernel:
    @pytest.mark.parametrize("theta", [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(1, 3), Fraction(2, 3)])
    def test_matches_binomial_leibniz_reference(self, theta):
        for x in (Fraction(0), Fraction(1, 10), Fraction(3, 4), Fraction(5), Fraction(-3)):
            with result_bits(256):
                got = gs_derivative_series(theta, 60, x)
            ref = [certified_midpoint(v, 256) for v in binomial_leibniz_series(theta, 60, x)]
            with mp.workprec(256):
                for k, (g, r) in enumerate(zip(got, ref)):
                    assert abs(g - r) <= abs(r) * mp.mpf(2) ** -200, (theta, x, k)

    @given(
        c=st.lists(
            st.tuples(st.integers(-(2**40), 2**40), st.integers(0, 2**8), st.integers(-60, 60), st.booleans()),
            min_size=1,
            max_size=12,
        ),
        a_0=st.tuples(st.integers(1, 2**40), st.integers(-60, 60)),
        prec=st.integers(8, 80),
    )
    @settings(max_examples=200, deadline=None)
    def test_integer_kernel_encloses_the_exact_recurrence(self, c, a_0, prec):
        # c_i = [n, n + w] * 2**e on one side of zero (w = 0: an exact point) and an exact a_0,
        # held at 64 bits; the exact recurrence runs on one endpoint of each c_i.  The kernel
        # rounds at a small prec, so every shift, division and trim is exercised
        def dyadic(n, e):
            return n * Fraction(2) ** e

        ends = [(n, n + w) if n > 0 else (n - w, n) if n < 0 else (0, 0) for n, w, _, _ in c]
        enc_c = [fixed_outward(lo, hi, e, 64) for (lo, hi), (_, _, e, _) in zip(ends, c)]
        got = gsfunc._taylor_kernel(enc_c, fixed_outward(a_0[0], a_0[0], a_0[1], 64), len(c), prec)
        exact_c = [dyadic(hi if upper else lo, e) for (lo, hi), (_, _, e, upper) in zip(ends, c)]
        exact = [dyadic(*a_0)]
        for j in range(len(c)):
            exact.append(sum(exact_c[i] * exact[j - i] for i in range(j + 1)) / (j + 1))
        for j, (enc, v) in enumerate(zip(got, exact)):
            if enc is None:
                assert v == 0, j
            else:
                lo, hi, e, top = enc
                assert dyadic(lo, e) <= v <= dyadic(hi, e), j
                assert max(-dyadic(lo, e), dyadic(hi, e)) < Fraction(2) ** top, j

    @given(
        lo=st.integers(-(2**200), 2**200),
        width=st.integers(0, 2**120),
        e=st.integers(-300, 300),
        prec=st.integers(8, 120),
    )
    @settings(max_examples=200)
    def test_outward_trim_encloses_its_input(self, lo, width, e, prec):
        hi = lo + width
        enc = fixed_outward(lo, hi, e, prec)
        if enc is None:
            assert lo == hi == 0
            return
        t_lo, t_hi, t_e, top = enc
        scale, t_scale = Fraction(2) ** e, Fraction(2) ** t_e
        assert t_lo * t_scale <= lo * scale and hi * scale <= t_hi * t_scale
        assert max(t_lo.bit_length(), t_hi.bit_length()) <= prec + 1
        assert max(-t_lo, t_hi) * t_scale < Fraction(2) ** top

    @given(
        b=st.integers(1, 2**80),
        width=st.integers(0, 2**20),
        e=st.integers(-100, 100),
        p=st.integers(-(2**90), 2**90),
        q=st.integers(1, 2**90),
        prec=st.integers(8, 120),
    )
    @settings(max_examples=200)
    def test_scaled_coefficient_encloses_the_exact_product(self, b, width, e, p, q, prec):
        # c = -<x>**t * p/q from the enclosure [b, b + width] * 2**e of <x>**t
        enc = fixed_scaled((b, b + width, e), -p, q, prec)
        if p == 0:
            assert enc is None
            return
        lo, hi, c_e, _ = enc
        ends = sorted(-v * Fraction(2) ** e * Fraction(p, q) for v in (b, b + width))
        assert lo * Fraction(2) ** c_e <= ends[0] and ends[1] <= hi * Fraction(2) ** c_e
        assert lo >= 0 or hi <= 0  # the kernel relies on a definite sign

    def test_encloses_the_high_precision_reference_no_wider_than_iv_operators(self, monkeypatch):
        # the raw enclosure of f^(k) = a_k * k! at the start (256 bits plus the guard), against the loop written
        # with iv operators at 256 bits
        monkeypatch.setattr(precision, "fixed_rounded", lambda lo, hi, e, bits: (lo, hi, e))
        contained = 0
        for theta in (Fraction(1, 2), Fraction(2, 3), Fraction(2), Fraction(1), Fraction(1, 3)):
            for x in (Fraction(0), Fraction(3, 4), Fraction(-3), Fraction(5), Fraction(25)):
                with result_bits(256):
                    got = gs_derivative_series(theta, 40, x)
                ref = iv_operator_taylor_series(theta, 40, x, bits=1024)
                ops = iv_operator_taylor_series(theta, 40, x, bits=256)
                for k, ((lo, hi, e), r, o) in enumerate(zip(got, ref, ops)):
                    r_lo, r_hi, r_e = iv_fixed(r)
                    o_lo, o_hi, o_e = iv_fixed(o)
                    scale = Fraction(2) ** e
                    assert lo * scale <= Fraction(r_lo + r_hi, 2) * Fraction(2) ** r_e <= hi * scale, (theta, x, k)
                    assert (hi - lo) * scale <= (o_hi - o_lo) * Fraction(2) ** o_e, (theta, x, k)
                    contained += 1
        assert contained == 5 * 5 * 41

    @pytest.mark.parametrize("theta", [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(2, 3)])
    def test_values_are_correctly_rounded(self, theta):
        # each value is the one its enclosure rounds to: the 1024-bit value rounded to nearest
        for x in (Fraction(0), Fraction(3, 4), Fraction(-3), Fraction(5)):
            got = gs_derivative_series(theta, 40, x)
            with result_bits(1024):
                ref = gs_derivative_series(theta, 40, x)
            with mp.workprec(RESULT_BITS):
                assert got == [+v for v in ref], (theta, x)

    @pytest.mark.parametrize("theta", [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(2, 3)])
    def test_odd_orders_at_the_origin_stay_exact_zeros(self, theta, monkeypatch):
        series = gs_derivative_series(theta, 40, 0)
        assert all(series[k] == 0 for k in range(1, 41, 2))
        assert all(series[k] != 0 for k in range(0, 41, 2))
        monkeypatch.setattr(precision, "fixed_rounded", lambda lo, hi, e, bits: (lo, hi))
        assert all(enc == (0, 0) for enc in gs_derivative_series(theta, 40, 0)[1::2])

    def test_escalates_where_the_starting_budget_runs_out(self, monkeypatch):
        # `gs bound --theta 1/2 --kmax 400` needs this point; at its start alone (the result
        # precision plus the guard) the enclosures are too wide, so a fixed budget raises
        series = gs_derivative_series(Fraction(1, 2), 400, 25)
        assert len(series) == 401 and all(mp.isfinite(v) and v != 0 for v in series)
        monkeypatch.setattr(precision, "escalate", lambda compute, bits: compute(bits + GUARD_BITS))
        with pytest.raises(PrecisionError):
            gs_derivative_series(Fraction(1, 2), 400, 25)

    @pytest.mark.parametrize("work", [256, 512, 1024])
    def test_enclosures_keep_the_working_precision(self, work):
        # f^(j) = a_j * j! is trimmed outward to the work, not widened by the log2(j!) bits of j!
        with iv_prec(work):
            enclosures = list(gsfunc._exp_series(gsfunc._taylor_terms(Fraction(1, 2), 400, 25), 400)(work))
        assert len(enclosures) == 401
        assert all(max(lo.bit_length(), hi.bit_length()) <= work + 1 for lo, hi, _ in enclosures)


def all_cells_gs_bound(theta, k_max, grid=None, slope_tol=1e-3):
    """``verify_gs_bound`` evaluated on every certified cell, without a screen: the
    reference for the screened sweep.  Each nonzero (x, k) certifies 1 + ln|a_k|,
    a_k = f^(k)/(k! * f(x)), from the kernel's enclosure of a_k by iv operators."""
    theta = Fraction(theta)
    grid = gsfunc._default_grid(theta, k_max) if grid is None else tuple(grid)
    tau = max(1 / theta - 1, Fraction(0))
    best_log = [None] * (k_max + 1)
    with mp.workprec(RESULT_BITS):
        tau_mpf = to_mpf(tau)
        for x in grid:
            ratios = gsfunc._taylor_ratios(theta, k_max, x)
            orders = [k for k, a_k in enumerate(precision._first_attempt(ratios)[1]) if k and a_k is not None]

            def enclose(work):
                series = ratios(work)
                for k in orders:
                    lo, hi, e, _ = series[k]
                    yield iv_fixed(1 + iv.log(abs(iv.ldexp(iv.mpf([lo, hi]), e))))

            xf = Fraction(x)
            log_bracket = mp.log(to_mpf(1 + xf * xf)) / 2
            for k, value in zip(orders, precision.certified_values(enclose)):
                lr = value - 1 - k * tau_mpf * log_bracket
                if best_log[k] is None or lr > best_log[k]:
                    best_log[k] = lr
        orders = [k for k in range(1, k_max + 1) if best_log[k] is not None]
        log_c_emp = {k: best_log[k] / k for k in orders}
        tail = [k for k in orders if k >= orders[-1] // 2 + 1]
        slope = precision.ols_slope(tail, [log_c_emp[k] for k in tail])
        c_max = mp.exp(max(log_c_emp.values()))
        within = slope <= to_mpf(slope_tol)
    return within, format_mpf(slope, 10), c_max


class TestGsBoundScreen:
    @pytest.mark.parametrize(
        "theta, k_max, grid",
        [
            (Fraction(1, 2), 30, None),
            (Fraction(1), 30, None),
            (Fraction(2), 30, None),
            (Fraction(2, 3), 30, None),
            # +-x tie exactly, and the odd orders at 0 are exact zeros
            (Fraction(1), 12, (Fraction(-5), Fraction(-2), Fraction(-1, 2), 0, Fraction(1, 2), 2, 5)),
            (Fraction(1, 2), 16, (-3, Fraction(-1, 3), 0, Fraction(1, 3), 3)),
            # f(x) is as small as exp(-10**60) here
            (Fraction(1, 60), 10, None),
            # the kept high orders at 25 need more than the starting precision
            (Fraction(1, 2), 400, (25,)),
            # f(20) = exp(-<20>**1000) is about 10**(-10**1301), which no interval at the cap encloses
            (Fraction(1, 1000), 10, None),
        ],
        ids=["t1_2", "t1", "t2", "t2_3", "t1-pm-grid", "t1_2-pm-grid", "t1_60", "t1_2-k400-at-25", "t1_1000"],
    )
    def test_matches_the_sweep_over_every_cell(self, theta, k_max, grid):
        within, slope_text, c_max = all_cells_gs_bound(theta, k_max, grid)
        result = verify_gs_bound(theta, k_max, grid=grid)
        assert result.passed is within
        assert [tuple(w) for w in result.witnesses] == ([] if within else [("slope", slope_text)])
        assert result.params["slope"] == slope_text
        assert result.extremal_ratio == c_max

    def test_certifies_about_one_value_per_point_and_one_per_order(self, monkeypatch):
        calls = _count_calls(monkeypatch, "fixed_rounded")
        verify_gs_bound(Fraction(1, 2), 60)
        assert len(calls) <= 2 * 60  # no f(x) is certified; every cell would be 26 * 60

    def test_keeps_cells_within_the_slack_and_drops_those_below_it(self):
        size = 10.0
        slack = gsfunc._SCREEN_SLACK * size
        for offers in ([(5.0, "a"), (5.0 - slack, "b")], [(5.0 - slack, "b"), (5.0, "a")]):
            screen = gsfunc._OrderScreen(2)
            for lr, cell in offers:
                screen.offer(1, lr, lr, size, cell)
            assert sorted(cell for _, cell in screen.kept[1]) == ["a", "b"]
        # 3 slacks below: kept while it was the best, dropped once "a" is offered, and not
        # admitted after it; another order is screened on its own
        screen = gsfunc._OrderScreen(2)
        screen.offer(1, 5.0 - 3 * slack, 5.0 - 3 * slack, size, "c")
        screen.offer(2, 0.0, 0.0, size, "d")
        assert [cell for _, cell in screen.kept[1]] == ["c"]
        screen.offer(1, 5.0, 5.0, size, "a")
        screen.offer(1, 5.0 - 3 * slack, 5.0 - 3 * slack, size, "e")
        assert [cell for _, cell in screen.kept[1]] == ["a"]
        assert [cell for _, cell in screen.kept[2]] == ["d"]


class TestGsBound:
    def test_certifies_every_order_where_the_ratio_is_a_tie(self, monkeypatch):
        # at theta = 1/2, f^(k)/f = (-1)**k * H_k(x), and H_47(25/4) is an odd 193-bit integer over
        # 2**47: exactly halfway between two 192-bit floats, so no enclosure of the ratio rounds to
        # one value.  Its log is transcendental; with one grid point every order is kept.  At the
        # start the log of order 37 rounds apart, and the doubled attempt certifies all 47
        x = Fraction(25, 4)
        h_47 = hermite(x, 47)[47]
        assert h_47.denominator == 2**47
        assert h_47.numerator % 2 and h_47.numerator.bit_length() == 193
        ratios = gsfunc._taylor_ratios(Fraction(1, 2), 47, x)

        def ratio(work):
            lo, hi, e, _ = ratios(work)[47]
            yield lo * math.factorial(47), hi * math.factorial(47), e

        with pytest.raises(PrecisionError):
            precision.certified_values(ratio)
        work = []  # the interval precision of each fixed_rounded call: the work of its attempt
        rounded = precision.fixed_rounded
        monkeypatch.setattr(precision, "fixed_rounded", lambda *args: work.append(iv.prec) or rounded(*args))
        result = verify_gs_bound(Fraction(1, 2), 47, grid=(x,))
        start = RESULT_BITS + precision.GUARD_BITS
        assert work == [start] * 36 + [2 * start] * 47
        assert result.extremal_ratio == all_cells_gs_bound(Fraction(1, 2), 47, (x,))[2]

    def test_a_coefficient_of_modulus_one_is_certified(self):
        # at theta = 1/2, a_1 = f'/f = -2x is -1 at x = 1/2: ln|a_1| = 0, which an enclosure that is
        # not exact never rounds to.  The extremal is |a_1| / <1/2>
        result = verify_gs_bound(Fraction(1, 2), 4, grid=(Fraction(1, 2),), slope_tol=1)
        with mp.workprec(RESULT_BITS):
            assert abs(result.extremal_ratio - 2 / mp.sqrt(5)) < mp.mpf(2) ** -180

    @pytest.mark.parametrize("theta", [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(2, 3)])
    def test_ratios_are_the_derivatives_over_k_factorial_and_f(self, theta):
        # the kernel started at a_0 = 1 gives f^(k)/(k! * f(x)), sign included
        for x in (Fraction(0), Fraction(3, 4), Fraction(-3), Fraction(5)):
            _, ratios = precision._first_attempt(gsfunc._taylor_ratios(theta, 30, x))
            series = gs_derivative_series(theta, 30, x)
            with mp.workprec(RESULT_BITS):
                for k, (a_k, f_k) in enumerate(zip(ratios, series)):
                    if a_k is None:
                        assert f_k == 0, (theta, x, k)
                        continue
                    ref = f_k / (mp.factorial(k) * series[0])
                    mid = mp.ldexp(mp.mpf(a_k[0] + a_k[1]), a_k[2] - 1)
                    assert abs(mid - ref) <= abs(ref) * mp.mpf(2) ** -150, (theta, x, k)

    def test_theta_half_passes_default_tolerance(self):
        result = verify_gs_bound(Fraction(1, 2), 30)
        assert result.passed

    @pytest.mark.parametrize("theta", [Fraction(1), Fraction(2)])
    def test_bounded_sweep_with_transient_budget(self, theta):
        # a bounded C_emp approaches its limit like k**(-a/k); at k_max = 30
        # that transient alone contributes ~a*ln(k)/k**2 <= 8e-3 to the slope
        result = verify_gs_bound(theta, 30, slope_tol=8e-3)
        assert result.passed
        assert result.extremal_ratio < 2

    def test_requires_enough_orders(self):
        with pytest.raises(ValueError):
            verify_gs_bound(1, 3)

    @pytest.mark.parametrize("tol", [Fraction(1, 100), Fraction(-1, 100)], ids=["passing", "failing"])
    def test_fraction_tolerance_is_the_float_tolerance(self, tol):
        exact = verify_gs_bound(2, 30, slope_tol=tol)
        rounded = verify_gs_bound(2, 30, slope_tol=float(tol))
        assert exact.passed is rounded.passed is (tol > 0)
        assert exact.witnesses == rounded.witnesses and exact.params["slope"] == rounded.params["slope"]
        assert exact.params["slope_tol"] == str(tol)

    def test_generator_grid_is_read_once(self):
        points = (0, Fraction(1, 2), 2, 5)
        from_tuple = verify_gs_bound(1, 12, grid=points, slope_tol=1)
        from_generator = verify_gs_bound(1, 12, grid=(x for x in points), slope_tol=1)
        assert from_generator.params["grid_points"] == "4"
        assert from_generator.to_json() == from_tuple.to_json()


class TestGrids:
    def test_geometric_grid_contains_zero_and_max(self):
        g = geometric_grid(8, 4)
        assert g == (0, 1, 2, 4, 8)

    def test_uniform_grid(self):
        g = uniform_grid(-1, 1, 5)
        assert g == (-1, Fraction(-1, 2), 0, Fraction(1, 2), 1)

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            geometric_grid(0, 4)
        with pytest.raises(ValueError):
            uniform_grid(0, 1, 1)


class TestSeminorm:
    def test_gaussian_a_family_calculus_maximum(self):
        # theta = 1/2, a = 1/2, order zero only: sup exp(x**2/2 - x**2) = 1 at x = 0
        est = seminorm(
            "a",
            Gaussian(),
            theta=Fraction(1, 2),
            s=Fraction(1),
            a=Fraction(1, 2),
            max_deriv=0,
            grid=geometric_grid(4, 16),
        )
        assert est.value == 1
        assert est.is_lower_bound

    def test_monotone_in_truncation(self):
        f = GSFunction(1)
        small = seminorm("a", f, theta=1, s=1, a=Fraction(1, 2), max_deriv=4, grid=geometric_grid(8, 8))
        bigger_orders = seminorm("a", f, theta=1, s=1, a=Fraction(1, 2), max_deriv=10, grid=geometric_grid(8, 8))
        bigger_grid = seminorm("a", f, theta=1, s=1, a=Fraction(1, 2), max_deriv=4, grid=geometric_grid(16, 20))
        assert bigger_orders.value >= small.value
        assert bigger_grid.value >= small.value

    @pytest.mark.parametrize(
        "x", [Fraction(0), Fraction(1, 3), Fraction(-5, 2), Fraction(7), Fraction(22, 7), Fraction(-1, 8), Fraction(40)]
    )
    def test_gaussian_derivatives_are_hermite(self, x, monkeypatch):
        # d^k/dx^k exp(-x**2) = (-1)**k * H_k(x) * exp(-x**2), physicists' H_k: each value is the
        # exact (-1)**k * H_k(x) times an enclosure of exp(-x**2), certified, all made by one
        # certified_values call
        h = hermite(x, 60)
        assert h[:5] == [1, 2 * x, 4 * x**2 - 2, 8 * x**3 - 12 * x, 16 * x**4 - 48 * x**2 + 12]
        ref = times_gaussian([-h_k if k % 2 else h_k for k, h_k in enumerate(h)], x)
        calls = _count_calls(monkeypatch, "certified_values")
        assert Gaussian().derivatives(x, 60) == ref
        assert len(calls) == 1

    @pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 3), Fraction(-5, 2), Fraction(7), Fraction(22, 7), Fraction(-1, 8)])
    def test_gaussian_hermite_recurrence_matches_the_table_path(self, x):
        # the m = 2 table at lam = -2 gives the Fractions (-1)**k * H_k(x), hence the same certified values
        table = build_coeff_table(2, 40)
        values = [Fraction(1)] + [term_loop_parts(derivative_poly(table, k), 2, x)[0] for k in range(1, 41)]
        assert Gaussian().derivatives(x, 40) == times_gaussian(values, x)

    def test_gs_function_finite_plateau(self):
        f = GSFunction(1)
        est = seminorm("a", f, theta=1, s=1, a=Fraction(1, 2), max_deriv=20)
        assert mp.isfinite(est.value) and est.value > 0

    def test_dilation_identity_order_zero(self):
        # for the beta = 0 slice, ||f(c.)||_a on grid G equals ||f||_{a*c**(-1/theta)}
        # on grid c*G, exactly (same rational weight exponents, same mpf ops)
        c = 4
        theta = Fraction(1, 2)
        a = Fraction(1, 2)
        grid = geometric_grid(2, 8)
        gauss = Gaussian()
        dilated_samples = {
            (x, 0): gauss.derivatives(c * x, 0)[0] for x in grid
        }
        dilated = SampledDerivatives(dilated_samples, name="gaussian(4x)")
        lhs = seminorm("a", dilated, theta=theta, s=1, a=a, max_deriv=0, grid=grid)
        rhs = seminorm(
            "a",
            gauss,
            theta=theta,
            s=1,
            a=a / c ** 2,  # c**(-1/theta) = c**-2
            max_deriv=0,
            grid=[c * x for x in grid],
        )
        assert lhs.value == rhs.value

    def test_h_family_runs_and_bounds(self):
        est = seminorm("h", Gaussian(), theta=Fraction(1, 2), s=1, h=1, max_deriv=6, max_power=6, grid=geometric_grid(4, 10))
        assert mp.isfinite(est.value) and est.value > 0

    def test_cells_match_sup(self):
        kwargs = dict(theta=1, s=1, a=Fraction(1, 2), max_deriv=6, grid=geometric_grid(4, 8))
        cells = seminorm_cells("a", GSFunction(1), **kwargs)
        est = seminorm("a", GSFunction(1), **kwargs)
        assert max(v for _, _, v in cells) == est.value

    def test_rejects_negative_truncation(self):
        with pytest.raises(ValueError):
            seminorm_cells("h", Gaussian(), theta=1, s=1, h=1, max_deriv=2, max_power=-1)
        with pytest.raises(ValueError):
            seminorm_cells("a", Gaussian(), theta=1, s=1, a=1, max_deriv=-1)

    def test_rejects_bad_kind_and_missing_weights(self):
        with pytest.raises(ValueError):
            seminorm("b", Gaussian(), theta=1, s=1, a=1)
        with pytest.raises(ValueError):
            seminorm("a", Gaussian(), theta=1, s=1)
        with pytest.raises(ValueError):
            seminorm("h", Gaussian(), theta=1, s=1)

    def test_sampled_spec_unsupported_point(self):
        spec = SampledDerivatives({(Fraction(0), 0): mp.mpf(1)})
        with pytest.raises(ValueError):
            seminorm("a", spec, theta=1, s=1, a=1, max_deriv=0, grid=[Fraction(1)])


def test_equivalence_table_finite():
    # the a- and h-family estimates of one function at paired weights: both finite and positive
    f, grid = GSFunction(1), geometric_grid(8, 10)
    for a, h in ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(1, 4))):
        norm_a = seminorm("a", f, theta=1, s=1, a=a, max_deriv=8, grid=grid).value
        norm_h = seminorm("h", f, theta=1, s=1, h=h, max_deriv=8, max_power=10, grid=grid).value
        assert mp.isfinite(norm_a) and mp.isfinite(norm_h)
        assert norm_a > 0 and norm_h > 0
