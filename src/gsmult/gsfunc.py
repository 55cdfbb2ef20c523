"""High-order derivative engines for <x>**t and for f = exp(h), empirical
verification of their factorial derivative bounds, and truncated
Gelfand-Shilov seminorm estimation.

Here <x> = (1 + x**2)**(1/2).  Derivatives of the bracket power are

    d^k/dx^k <x>**t = r_k(x) * <x>**t,   r_k = q_k(x) / (1+x**2)**k

for polynomials q_k of degree at most k.  Every engine here evaluates the
ratios r_k at a rational point, never the q_k: they follow from k
derivatives of (1+x**2) * g' = t*x*g (g = <x>**t) as

    r_0 = 1,   r_1 = t*x / (1+x**2),
    r_{k+1} = ((t - 2k) * x * r_k + k * (t - k + 1) * r_{k-1}) / (1+x**2),

O(k) exact operations per point; with t = a/b and x = p/q they run on ints
alone, as r_k = n_k / (b*(p**2+q**2))**k.

Every derivative value of an f = exp(h) comes from one kernel, the
exponential of a power series (Brent and Kung, J. ACM 1978): f' = h' * f on
the Taylor coefficients a_j = f^(j)/j! is

    (j+1) * a_{j+1} = sum_{i=0}^{j} c_i * a_{j-i},   c_i = h^(i+1)/i!,

O(k^2) without binomials.  An f is handed to it as ``terms(work)``: the
interval h(x) and the enclosures c_i.  For exp(-<x>**(1/theta)) they are
h = -<x>**t and c_i = -<x>**t * r_{i+1}/i! (``_taylor_terms``); for the
Gaussian, h = -x**2, c_0 = -2x and c_1 = -2.  The kernel runs in fixed point
on Python ints: an enclosure is [lo, hi] * 2**e, and each order is one exact
dot product of the nonzero terms and one outward rounding, so exact zeros
are skipped and stay exact.  ``_exp_series``, the one value producer, starts
it at the enclosure of exp(h(x)) and scales a_j by j!; started at a_0 = 1 it
gives a_k = f^(k)/(k! * f(x)), which is all the bound sweep reads.  The
kernel only encloses, at the working precision it is handed;
``precision.certified_values`` makes every derivative value here, and
``bracket_eval``'s, correctly rounded at the result precision.  Everything
runs at ``precision.RESULT_BITS``, read when it is called; no function here
takes a precision.

``verify_gs_bound`` needs only each order's grid maximum of
lr = ln|f^(k)/f| - ln k! - k*tau*ln<x> = ln|a_k| - k*tau*ln<x>.  It screens
every (x, k) in floats (``_OrderScreen``), then certifies ln|a_k| only on the
cells that can still be their order's maximum: about k_max certified values
instead of |grid| * k_max, with the same maxima.  No f(x) is enclosed, so it
runs where f(x) is too small for any interval, as at theta = 1/1000.

Seminorm estimators are truncated suprema over finitely many derivative
orders, power orders and grid points: the truncation makes them *lower*
bounds of the true seminorms, computed at the result precision but not yet
certified, as each cell takes round-to-nearest ``mp.log`` and ``mp.exp``.
Grids default to geometric spacing in |x| up to 2 * k_max**ceil(theta)
because the maximizing x of order k grows with k.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate

from mpmath import iv, mp

from . import precision
from ._util import CheckResult, ParameterError, Record, _result, format_fraction, format_mpf, require_power_size
from .precision import fixed_outward, fixed_scaled, iv_fixed, ols_slope, to_iv, to_mpf


def _bracket_ratio_numerators(t: Fraction, x: Fraction, k_max: int) -> tuple[list[int], int]:
    """Ints n_0..n_k_max and d with r_k = n_k / d**k exactly, for k_max >= 0.

    For t = a/b, x = p/q and w = p**2 + q**2, the ratio recurrence multiplied
    through by (b*w)**(k+1) / q**(k+1) is, on m_k = n_k / q**k,

        m_0 = 1,   m_1 = a*p,
        m_{k+1} = (a - 2k*b) * p * m_k + k * (a - (k-1)*b) * b * w * m_{k-1},

    so d = b*w and the whole walk runs on ints, without a gcd.
    """
    a, b, p, q = t.numerator, t.denominator, x.numerator, x.denominator
    bw = b * (p * p + q * q)
    m = [1, a * p]
    for k in range(1, k_max):
        m.append((a - 2 * k * b) * p * m[k] + k * (a - (k - 1) * b) * bw * m[k - 1])
    q_pow = 1
    nums = []
    for m_k in m[: k_max + 1]:
        nums.append(m_k * q_pow)
        q_pow *= q
    return nums, bw


def _bracket_ratios(t: Fraction, x, k_max: int) -> list[Fraction]:
    """Exact r_k = q_k(x) / (1+x**2)**k for k = 0..k_max at a rational x."""
    nums, d = _bracket_ratio_numerators(t, Fraction(x), k_max)
    out = []
    d_pow = 1
    for n in nums:
        out.append(Fraction(n, d_pow))
        d_pow *= d
    return out


def _bracket_power(t: Fraction, x: Fraction):
    """The interval <x>**t = exp(t/2 * ln(1 + x**2)) at the current interval precision."""
    return iv.exp(to_iv(t / 2) * iv.log(to_iv(1 + x * x)))


def bracket_eval(t, k: int, x):
    """d^k/dx^k <x>**t at a rational x (int, float or Fraction): the exact r_k times
    an enclosure of <x>**t, certified as one value by ``precision.certified_values``."""
    if k < 0:
        raise ParameterError("derivative order must be >= 0")
    tf = Fraction(t)
    xf = Fraction(x)
    r_k = _bracket_ratios(tf, xf, k)[k]
    return precision.certified_values(lambda work: [iv_fixed(to_iv(r_k) * _bracket_power(tf, xf))])[0]


def uniform_grid(lo: Fraction, hi: Fraction, points: int) -> tuple[Fraction, ...]:
    """Uniform rational grid with ``points`` samples, endpoints included."""
    lo, hi = Fraction(lo), Fraction(hi)
    if points < 2:
        raise ParameterError("need at least two grid points")
    step = (hi - lo) / (points - 1)
    return tuple(lo + i * step for i in range(points))


def geometric_grid(x_max, points: int = 25) -> tuple[Fraction, ...]:
    """{0} plus ``points`` halvings of x_max: geometric coverage of [0, x_max]."""
    x_max = Fraction(x_max)
    if x_max <= 0 or points < 1:
        raise ParameterError("x_max must be positive, points >= 1")
    return (Fraction(0),) + tuple(x_max / 2**j for j in reversed(range(points)))


def _default_grid(theta: Fraction, k_max: int) -> tuple[Fraction, ...]:
    """The grid of the sweeps and seminorms: ``geometric_grid(2 * k_max**ceil(theta), 25)``."""
    require_power_size(theta, max(k_max, 1), math.ceil(theta))
    return geometric_grid(2 * Fraction(max(k_max, 1)) ** math.ceil(theta), 25)


def _log_factorials(k_max: int) -> list:
    """ln k! for k = 0..k_max, as running sums of ln k at the current mp precision."""
    return list(accumulate(map(mp.log, range(1, k_max + 1)), initial=mp.mpf(0)))


def verify_bracket_bound(t, k_max: int, grid: Sequence | None = None) -> CheckResult:
    """Empirical constant for |d^k <x>**t| <= C * 8**k * k! * <x>**(t-k).

    The ratio simplifies to |r_k(x)| * (1+x**2)**(k/2) / (8**k * k!), with
    r_k = q_k(x) / (1+x**2)**k, which is evaluated on the grid; the check
    reports its maximum as the empirical C_t and has no failing case (an
    mpf exponent is unbounded, so every ratio is finite).
    """
    tf = Fraction(t)
    grid = uniform_grid(Fraction(-10), Fraction(10), 81) if grid is None else tuple(grid)
    max_log = None
    with mp.workprec(precision.RESULT_BITS):
        log_fact, log_8 = _log_factorials(k_max), mp.log(8)
        for x in grid:
            xf = Fraction(x)
            log_base = mp.log(to_mpf(1 + xf * xf))
            for k, r_k in enumerate(_bracket_ratios(tf, xf, k_max)):
                if r_k == 0:
                    continue
                log_ratio = mp.log(to_mpf(abs(r_k))) + k * log_base / 2 - k * log_8 - log_fact[k]
                if max_log is None or log_ratio > max_log:
                    max_log = log_ratio
        max_ratio = None if max_log is None else mp.exp(max_log)
    params = {"t": format_fraction(tf), "k_max": k_max, "grid_points": len(grid)}
    return _result("bracket-derivative-bound", params, [], max_ratio)


def _taylor_kernel(c, a_0, k_max: int, prec: int):
    """Enclosures of a_0..a_k_max from (j+1) * a_{j+1} = sum_i c_i * a_{j-i}.

    Enclosures are (lo, hi, e, top) as made by ``fixed_outward``, None for
    an exact zero; no c_i straddles zero.  Order j sums the exact products of
    its nonzero terms at one exponent, prec bits below the largest term's
    magnitude bound (each lower end shifted with floor, each upper end with
    ceiling), then floor/ceil-divides by j+1 and trims outward to prec bits.
    """
    nonzero = [(i,) + c_i for i, c_i in enumerate(c) if c_i is not None]
    a = [a_0]
    for j in range(k_max):
        products = []
        top = None
        for i, c_lo, c_hi, c_e, c_top in nonzero:
            if i > j:
                break
            a_k = a[j - i]
            if a_k is None:
                continue
            a_lo, a_hi, a_e, a_top = a_k
            if c_lo >= 0:  # the endpoints of [c_lo, c_hi] * [a_lo, a_hi], exactly
                p_lo = (c_lo if a_lo >= 0 else c_hi) * a_lo
                p_hi = (c_hi if a_hi >= 0 else c_lo) * a_hi
            else:
                p_lo = (c_lo if a_hi >= 0 else c_hi) * a_hi
                p_hi = (c_hi if a_lo >= 0 else c_lo) * a_lo
            products.append((p_lo, p_hi, c_e + a_e))
            if top is None or c_top + a_top > top:
                top = c_top + a_top
        if top is None:
            a.append(None)
            continue
        base = top - prec
        lo = hi = 0
        for p_lo, p_hi, p_e in products:
            shift = p_e - base
            if shift >= 0:
                lo += p_lo << shift
                hi += p_hi << shift
            else:
                lo += p_lo >> -shift
                hi -= -p_hi >> -shift
        a.append(fixed_outward(lo // (j + 1), -(-hi // (j + 1)), base, prec))
    return a


def _taylor_terms(theta, k_max: int, x):
    """The kernel's input for f = exp(-<x>**t), t = 1/theta: ``terms(work)`` returns the
    interval h(x) = -<x>**t and the enclosures c_i = h^(i+1)(x)/i! = -<x>**t * r_{i+1}/i!,
    i < k_max, at the working precision ``work`` (None for an exact zero)."""
    theta = Fraction(theta)
    if theta <= 0:
        raise ParameterError("theta must be positive")
    t = 1 / theta
    xf = Fraction(x)
    nums, d = _bracket_ratio_numerators(t, xf, k_max)
    scaled = []  # r_{i+1}/i! = n_{i+1} / (d**(i+1) * i!), exact
    den = 1
    for i in range(k_max):
        den *= d * (i or 1)
        scaled.append((nums[i + 1], den))

    def terms(work):
        bracket_pow = _bracket_power(t, xf)
        fixed = iv_fixed(bracket_pow)
        return -bracket_pow, [fixed_scaled(fixed, -n, den, work) for n, den in scaled]

    return terms


def _taylor_ratios(theta, k_max: int, x):
    """``ratios(work)``: enclosures of a_k = f^(k)/(k! * f(x)), k = 0..k_max, from the
    kernel started at the exact a_0 = 1, as the recursion is linear in a_0."""
    terms = _taylor_terms(theta, k_max, x)
    return lambda work: _taylor_kernel(terms(work)[1], (1, 1, 0, 1), k_max, work)


def _exp_series(terms, k_max: int):
    """The one value producer: ``series(work)`` yields (lo, hi, e) with f^(j) in
    [lo, hi] * 2**e, j = 0..k_max, for the f = exp(h) that ``terms`` gives, trimmed
    outward to the working precision ``work`` ((0, 0, 0) for an exact zero): the
    kernel started at the enclosure of f(x) = exp(h(x)), each a_j times j!."""

    def series(work):
        h, c = terms(work)
        a_0 = fixed_outward(*iv_fixed(iv.exp(h)), work)
        fact = 1
        for j, a_j in enumerate(_taylor_kernel(c, a_0, k_max, work)):
            fact *= j or 1
            f_j = a_j and fixed_outward(a_j[0] * fact, a_j[1] * fact, a_j[2], work)  # a_j * j!, trimmed outward
            yield f_j[:3] if f_j else (0, 0, 0)

    return series


def gs_derivative_series(theta, k_max: int, x):
    """d^k/dx^k exp(-<x>**(1/theta)) for k = 0..k_max at a rational x (int, float or
    Fraction), each correctly rounded at ``precision.RESULT_BITS`` (exact zeros, such as
    the odd orders at x = 0, exact), the work doubling while an enclosure rounds apart;
    PrecisionError otherwise."""
    return precision.certified_values(_exp_series(_taylor_terms(theta, k_max, x), k_max))


_SCREEN_SLACK = 2.0**-40  # per unit of a cell's ``size``; see ``_OrderScreen``
_LN2 = math.log(2)


class _OrderScreen:
    """Per order k, the cells that can hold the order's largest lr.

    A cell is offered with float estimates lo <= hi of its lr, each summed in
    round-to-nearest doubles from three terms (``_screen_point``), and with
    ``size``, the sum of the magnitudes of those terms plus 2.  Each term, a
    ``math.log`` of a positive int, an int times ln 2, or k times the product
    of tau and a float read off a result-precision mpf, is within
    2**-50 * (|term| + 1) of its exact value, and the two additions add at
    most 2**-52 times the sum of the magnitudes: a float estimate is within
    2**-49 * size of the exact value at its end of the enclosure.  The lr
    that ``verify_gs_bound`` evaluates at the result precision, p bits, is
    within (k*tau + 8) * 2**(2-p) * size of the exact lr.  For p >= 96 and
    k*tau < 2**40 the two errors together stay below 2**-48 * size, so lo and
    hi widened by ``_SCREEN_SLACK * size`` = 2**-40 * size bound both the
    exact lr and the evaluated one, with a factor of 2**8 to spare.

    A cell is kept while its upper bound reaches the order's best lower
    bound, and dropped once a better lower bound passes it: a dropped cell's
    evaluated lr is then strictly below another cell's, so it is not the
    order's maximum.
    """

    def __init__(self, k_max: int):
        self.best = [-math.inf] * (k_max + 1)
        self.kept = [[] for _ in range(k_max + 1)]  # (upper bound, cell) per order

    def offer(self, k: int, lo: float, hi: float, size: float, cell) -> None:
        slack = _SCREEN_SLACK * size
        lo, hi = lo - slack, hi + slack
        if lo > self.best[k]:
            self.best[k] = lo
            self.kept[k] = [kept for kept in self.kept[k] if kept[0] >= lo]
        if hi >= self.best[k]:
            self.kept[k].append((hi, cell))


def _magnitude(lo: int, hi: int) -> list[int]:
    """The least and the largest |v| over v in [lo, hi]."""
    if lo > 0:
        return [lo, hi]
    if hi < 0:
        return [-hi, -lo]
    return [0, max(-lo, hi)]


def _screen_point(screen: _OrderScreen, point: int, ratios, tau_log_bracket: float) -> None:
    """Offer every nonzero (x, k), k >= 1, to the screen from the enclosures ``ratios`` of a_k.

    lr = ln|a_k| - k*tau*ln<x> is summed in floats from the logs of an
    enclosure's ints, its exponent times ln 2 and k times ``tau_log_bracket``
    = tau*ln<x>; an enclosure that reaches zero has no lower bound."""
    for k, a_k in enumerate(ratios[1:], 1):
        if a_k is None:
            continue
        m_lo, m_hi = _magnitude(a_k[0], a_k[1])
        ln_lo = math.log(m_lo) if m_lo else -math.inf
        ln_hi = math.log(m_hi)
        shift, rest = a_k[2] * _LN2, k * tau_log_bracket
        size = ln_hi + abs(shift) + abs(rest) + 2
        screen.offer(k, ln_lo + shift - rest, ln_hi + shift - rest, size, (point, k, a_k))


def _kept_logs(theta, x, cells, made_at: int):
    """Certified 1 + ln|a_k| of the kept cells (k, enclosure of a_k), ascending in k.

    ln|a_k| is 0 where |a_k| = 1 (a_1 = -2x at theta = 1/2, x = 1/2), and an
    inexact enclosure of 0 rounds apart at every precision; ln(e * |a_k|) is
    never 0, as a_k is algebraic, nor a tie, as the log of an algebraic number
    other than 1 is transcendental.  The screen's enclosures serve the attempt
    at their work; a later one runs the kernel again to the largest kept order."""
    orders = [k for k, _ in cells]

    def enclose(work):
        if work == made_at:
            ratios = [a_k for _, a_k in cells]
        else:
            series = _taylor_ratios(theta, orders[-1], x)(work)
            ratios = [series[k] for k in orders]
        for lo, hi, e, _ in ratios:
            yield iv_fixed(1 + iv.log(iv.ldexp(iv.mpf(_magnitude(lo, hi)), e)))

    return precision.certified_values(enclose)


def verify_gs_bound(
    theta,
    k_max: int,
    grid: Sequence | None = None,
    slope_tol: float | Fraction = 1e-3,
) -> CheckResult:
    """Empirical constant for |f^(k)| <= C**k * k! * f(x) * <x>**(k*max(1/theta-1,0)).

    C_emp(k) is the grid maximum of the normalized ratio taken to the 1/k
    power.  The check asserts C_emp stays bounded: the least-squares slope
    of log C_emp against k over the top half of the orders must not exceed
    ``slope_tol`` (a finite float or a Fraction, compared as an mpf at the
    result precision).  Everything is computed at ``precision.RESULT_BITS``: the
    printed slope and C_emp keep 10 digits, so a higher precision changes no
    printed byte.

    The log of the normalized ratio is lr = ln|a_k| - k*tau*ln<x>, with
    a_k = f^(k)/(k! * f(x)) from the kernel started at a_0 = 1, and its maximum
    per order comes in two passes.  The first screens every (x, k) in floats
    from the enclosures of a_k at the work where certifying starts
    (``precision._first_attempt``, ``_OrderScreen``).  The second certifies
    1 + ln|a_k| and evaluates lr at the result precision only on the cells
    that can still be their order's maximum (``_kept_logs``): the same maxima
    as over every cell, from about k_max certified values.

    Calibration constraint: a bounded C_emp with an algebraic prefactor
    approaches its limit like k**(-a/k), whose log-slope transient is about
    a*ln(k)/k**2 (a is typically <= 2 here).  For short sweeps (k_max ~ 30)
    that transient is ~5e-3, so slope_tol must budget for it; the 1e-3
    default only discriminates once k_max is ~100 or larger.
    """
    theta = Fraction(theta)
    if theta <= 0:
        raise ParameterError("theta must be positive")
    if k_max < 4:
        raise ParameterError("need k_max >= 4 for a slope over the top half")
    if not mp.isfinite(to_mpf(slope_tol)):
        raise ParameterError("slope_tol must be finite, got %r" % (slope_tol,))
    grid = _default_grid(theta, k_max) if grid is None else tuple(grid)
    tau = max(1 / theta - 1, Fraction(0))
    screen = _OrderScreen(k_max)
    points = []  # (x, ln<x>) per grid point
    best_log = [None] * (k_max + 1)
    with mp.workprec(precision.RESULT_BITS):
        tau_mpf, tau_float = to_mpf(tau), float(tau)
        for point, x in enumerate(grid):
            xf = Fraction(x)
            log_bracket = mp.log(to_mpf(1 + xf * xf)) / 2
            made_at, ratios = precision._first_attempt(_taylor_ratios(theta, k_max, xf))  # the same work at every point
            _screen_point(screen, point, ratios, tau_float * float(log_bracket))
            points.append((xf, log_bracket))
        kept = {}  # grid point: [(k, enclosure)], ascending in k
        for cells in screen.kept:
            for _, (point, k, a_k) in cells:
                kept.setdefault(point, []).append((k, a_k))
        for point, cells in sorted(kept.items()):
            xf, log_bracket = points[point]
            for (k, _), value in zip(cells, _kept_logs(theta, xf, cells, made_at)):
                lr = value - 1 - k * tau_mpf * log_bracket
                if best_log[k] is None or lr > best_log[k]:
                    best_log[k] = lr
        orders = [k for k in range(1, k_max + 1) if best_log[k] is not None]
        log_c_emp = {k: best_log[k] / k for k in orders}
        tail = [k for k in orders if k >= orders[-1] // 2 + 1]
        slope = ols_slope(tail, [log_c_emp[k] for k in tail])
        c_max = mp.exp(max(log_c_emp.values()))
        within = slope <= to_mpf(slope_tol)
    slope_text = format_mpf(slope, 10)
    witnesses = [] if within else [("slope", slope_text)]
    params = {
        "theta": format_fraction(theta),
        "k_max": k_max,
        "grid_points": len(grid),
        "slope": slope_text,
        "slope_tol": slope_tol,
    }
    return _result("gs-derivative-bound", params, witnesses, c_max)


class GSFunction:
    """f(x) = exp(-<x>**(1/theta)): derivatives from the certified engine."""

    def __init__(self, theta):
        self.theta = Fraction(theta)
        self.name = "gs_function(theta=%s)" % format_fraction(self.theta)

    def derivatives(self, x, k_max: int):
        return gs_derivative_series(self.theta, k_max, x)


class Gaussian:
    """f(x) = exp(h), h = -x**2, so f^(k) = (-1)**k * H_k(x) * f(x): the kernel with c_0 = -2x
    (rounded outward unless x is dyadic; an exact zero at x = 0, where the odd orders stay
    exact zeros), c_1 = -2 and no other c_i, certified as in ``gs_derivative_series``."""

    name = "gaussian"

    def derivatives(self, x, k_max: int):
        xf = Fraction(x)

        def terms(work):
            c_0 = fixed_scaled((1, 1, 0), -2 * xf.numerator, xf.denominator, work)
            return -to_iv(xf * xf), [c_0, fixed_outward(-2, -2, 0, work)]

        return precision.certified_values(_exp_series(terms, k_max))


class SeminormEstimate(Record):
    """Truncated supremum of a seminorm: a lower bound of the true value, not yet certified.

    Deterministic for a fixed truncation, and monotone nondecreasing as the
    truncation (derivative orders, power orders, grid) grows.
    """

    kind: str
    params: dict[str, str]
    truncation: dict[str, object]
    value: object
    is_lower_bound: bool = True


def _weight_log(a: Fraction, theta: Fraction, x: Fraction):
    """a * |x|**(1/theta) as an mpf exponent; exact Fraction path when 1/theta is integral."""
    inv = 1 / theta
    xa = abs(Fraction(x))
    if xa == 0:
        return mp.mpf(0)
    if inv.denominator == 1:
        return to_mpf(a * xa ** inv.numerator)
    return to_mpf(a) * mp.exp(to_mpf(inv) * mp.log(to_mpf(xa)))


def seminorm_cells(
    kind: str,
    f_spec,
    *,
    theta,
    s,
    a=None,
    h=None,
    max_deriv: int = 10,
    max_power: int = 10,
    grid: Sequence | None = None,
):
    """Per-(order, point) summands of a truncated seminorm.

    Returns (beta, x, value) triples: for kind "a" the value is
    exp(a*|x|**(1/theta)) * beta!**(-s) * a**beta * |f^(beta)(x)|; for kind
    "h" it is the maximum over alpha <= max_power of
    |x**alpha * f^(beta)(x)| / (h**(alpha+beta) * alpha!**theta * beta!**s).
    The seminorm estimate is the maximum over all cells.  Cells are computed
    at ``precision.RESULT_BITS``, as f_spec computes its derivatives.
    """
    theta = Fraction(theta)
    s = Fraction(s)
    if theta <= 0 or s <= 0:
        raise ParameterError("theta and s must be positive")
    if kind == "a":
        if a is None:
            raise ParameterError("kind 'a' requires the exponential weight a")
        a = Fraction(a)
        if a <= 0:
            raise ParameterError("a must be positive")
    elif kind == "h":
        if h is None:
            raise ParameterError("kind 'h' requires the geometric weight h")
        h = Fraction(h)
        if h <= 0:
            raise ParameterError("h must be positive")
    else:
        raise ParameterError("kind must be 'a' or 'h'")
    if max_deriv < 0 or max_power < 0:
        raise ParameterError("max_deriv and max_power must be >= 0")
    grid = _default_grid(theta, max_deriv) if grid is None else tuple(Fraction(g) for g in grid)

    cells = []
    with mp.workprec(precision.RESULT_BITS):
        log_fact = _log_factorials(max(max_deriv, max_power))
        s_mpf, theta_mpf = to_mpf(s), to_mpf(theta)
        log_step = mp.log(to_mpf(a)) if kind == "a" else -mp.log(to_mpf(h))  # a**beta, or h**(-beta)
        for x in grid:
            # log of the part of each cell that depends on x only
            if kind == "a":
                log_weight = _weight_log(a, theta, x)
            elif x == 0:
                log_weight = mp.mpf(0)  # x**alpha = 0 at x = 0 for alpha > 0
            else:
                log_xh = mp.log(to_mpf(abs(x))) + log_step
                log_weight = max(alpha * log_xh - theta_mpf * log_fact[alpha] for alpha in range(max_power + 1))
            derivs = f_spec.derivatives(x, max_deriv)
            for beta in range(max_deriv + 1):
                fv = abs(derivs[beta])
                if fv == 0:
                    cells.append((beta, x, mp.mpf(0)))
                    continue
                log_cell = log_weight - s_mpf * log_fact[beta] + beta * log_step + mp.log(fv)
                cells.append((beta, x, mp.exp(log_cell)))
    return cells


def seminorm(
    kind: str,
    f_spec,
    *,
    theta,
    s,
    a=None,
    h=None,
    max_deriv: int = 10,
    max_power: int = 10,
    grid: Sequence | None = None,
) -> SeminormEstimate:
    """Truncated Gelfand-Shilov seminorm of f_spec.

    kind "a": sup over orders beta <= max_deriv and grid x of
        exp(a*|x|**(1/theta)) * beta!**(-s) * a**beta * |f^(beta)(x)|.
    kind "h": sup over alpha <= max_power, beta <= max_deriv and grid x of
        |x**alpha * f^(beta)(x)| / (h**(alpha+beta) * alpha!**theta * beta!**s).

    |D^beta f| = |f^(beta)| throughout (the normalizations differ by a phase).
    """
    cells = seminorm_cells(
        kind,
        f_spec,
        theta=theta,
        s=s,
        a=a,
        h=h,
        max_deriv=max_deriv,
        max_power=max_power,
        grid=grid,
    )
    theta = Fraction(theta)
    s = Fraction(s)
    value = max((c for _, _, c in cells), default=mp.mpf(0))
    params = {"theta": format_fraction(theta), "s": format_fraction(s), "f": f_spec.name}
    if kind == "a":
        params["a"] = format_fraction(Fraction(a))
    else:
        params["h"] = format_fraction(Fraction(h))
    grid_used = tuple(sorted({x for _, x, _ in cells}))
    truncation = {"max_deriv": max_deriv, "max_power": max_power if kind == "h" else 0, "grid": grid_used}
    return SeminormEstimate(kind=kind, params=params, truncation=truncation, value=value)

