"""High-order derivative engines for <x>**t and exp(-<x>**(1/theta)),
empirical verification of their factorial derivative bounds, and truncated
Gelfand-Shilov seminorm estimation.

Here <x> = (1 + x**2)**(1/2).  Derivatives of the bracket power satisfy

    d^k/dx^k <x>**t = q_k(x) * (1+x**2)**(t/2 - k)

with polynomials q_k built by the exact recursion

    q_0 = 1,   q_{k+1} = q_k' * (1+x**2) + (t - 2k) * x * q_k,

whose coefficients stay rational for rational t.  (The leading coefficient
is the falling factorial t(t-1)...(t-k+1), so for small nonnegative integer
t the literal degree drops below k; rows are stored with degree bound k.)
The rows serve only the polynomial API (``bracket_derivative``,
``bracket_derivative_series``).  At a rational point every engine instead
uses the ratios r_k = d^k<x>**t / <x>**t = q_k(x) / (1+x**2)**k, which
follow from k derivatives of (1+x**2) * g' = t*x*g (g = <x>**t) as

    r_0 = 1,   r_1 = t*x / (1+x**2),
    r_{k+1} = ((t - 2k) * x * r_k + k * (t - k + 1) * r_{k-1}) / (1+x**2),

O(k) exact operations per point instead of O(k^2) for the rows; with
t = a/b and x = p/q they run on ints alone, as r_k = n_k / (b*(p**2+q**2))**k.

Derivatives of f(x) = exp(-<x>**(1/theta)) = exp(h(x)) with h = -<x>**(1/theta)
come from f' = h' * f on the Taylor coefficients a_j = f^(j)/j!:

    (j+1) * a_{j+1} = sum_{i=0}^{j} c_i * a_{j-i},   c_i = h^(i+1)/i!,

the Leibniz recursion without binomials, O(k^2) instead of the exponential
partition sum of the chain rule.  It runs in fixed point on Python ints: an
enclosure is [lo, hi] * 2**e, and each order is one exact dot product of
the nonzero terms followed by a single outward rounding (floor on the lower
end, ceiling on the upper), where mpmath interval operators would round
each of the 2(j+1) multiplies and adds.  Only <x>**t and exp(-<x>**t) come
from mpmath.  The kernel starts at the requested precision and doubles it
while an enclosure is too wide; each value, rounded once at the requested
precision, is certified to relative error below 2**-64, else
PrecisionError is raised.

Seminorm estimators are truncated suprema over finitely many derivative
orders, power orders and grid points, hence certified *lower* bounds of the
true seminorms; no extrapolation to the full supremum is claimed.  Grids
default to geometric spacing in |x| up to 2 * k_max**theta because the
maximizing x of order k grows with k.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from mpmath import iv, mp

from ._util import CheckResult, ParameterError, Record, _result, format_fraction, require_precision
from .precision import (
    certified_fixed_midpoint,
    escalate,
    fixed_outward,
    fixed_scaled,
    iv_fixed,
    iv_prec,
    ols_slope,
    to_iv,
    to_mpf,
)

BRACKET_BITS = 192  # the precision of bracket_eval and verify_bracket_bound
SEMINORM_BITS = 192  # the precision of every seminorm cell
GS_BOUND_BITS = 256  # the precision of verify_gs_bound and of the derivatives it reads


class BracketDerivPoly(Record):
    """q_k with d^k/dx^k <x>**t = q_k(x) * (1+x**2)**(t/2-k); exact coefficients."""

    t: Fraction
    k: int
    coeffs: tuple[Fraction, ...]  # length k+1, ascending powers

    def __call__(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def _bracket_rows(t: Fraction, k_max: int) -> list[tuple[Fraction, ...]]:
    """Rows q_0..q_{k_max} of the recursion for t, built afresh on each call."""
    rows = [(Fraction(1),)]
    for k in range(k_max):
        q = rows[-1]
        nxt = [Fraction(0)] * (k + 2)
        for i in range(1, len(q)):  # q' and q' * x**2
            nxt[i - 1] += i * q[i]
            nxt[i + 1] += i * q[i]
        for i in range(len(q)):  # (t - 2k) * x * q
            nxt[i + 1] += (t - 2 * k) * q[i]
        rows.append(tuple(nxt))
    return rows


def bracket_derivative(t, k: int) -> BracketDerivPoly:
    """The exact polynomial part of the k-th derivative of <x>**t."""
    if k < 0:
        raise ParameterError("derivative order must be >= 0")
    tf = Fraction(t)
    return BracketDerivPoly(t=tf, k=k, coeffs=_bracket_rows(tf, k)[k])


def bracket_derivative_series(t, k_max: int) -> tuple[BracketDerivPoly, ...]:
    """All orders 0..k_max at once (one recursion pass)."""
    tf = Fraction(t)
    rows = _bracket_rows(tf, k_max)
    return tuple(BracketDerivPoly(t=tf, k=k, coeffs=rows[k]) for k in range(k_max + 1))


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


def bracket_eval(t, k: int, x):
    """d^k/dx^k <x>**t at a rational x (int, float or Fraction), as an mpf."""
    if k < 0:
        raise ParameterError("derivative order must be >= 0")
    tf = Fraction(t)
    xf = Fraction(x)
    r_k = _bracket_ratios(tf, xf, k)[k]
    with mp.workprec(BRACKET_BITS):
        return to_mpf(r_k) * mp.exp(to_mpf(tf) / 2 * mp.log(to_mpf(1 + xf * xf)))


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


def verify_bracket_bound(t, k_max: int, grid: Sequence | None = None) -> CheckResult:
    """Empirical constant for |d^k <x>**t| <= C * 8**k * k! * <x>**(t-k).

    The ratio simplifies to |q_k(x)| * (1+x**2)**(-k/2) / (8**k * k!), which
    is evaluated on the grid; the check asserts the maximum is finite and
    reports it as the empirical C_t.
    """
    tf = Fraction(t)
    if grid is None:
        grid = uniform_grid(Fraction(-10), Fraction(10), 81)
    max_ratio = None
    witnesses = []
    with mp.workprec(BRACKET_BITS):
        for x in grid:
            xf = Fraction(x)
            u = 1 + xf * xf
            log_base = mp.log(to_mpf(u))
            for k, r_k in enumerate(_bracket_ratios(tf, xf, k_max)):
                qv = r_k * u**k
                if qv == 0:
                    continue
                log_ratio = mp.log(to_mpf(abs(qv))) - k * log_base / 2 - k * mp.log(8) - mp.log(mp.factorial(k))
                ratio = mp.exp(log_ratio)
                if not mp.isfinite(ratio):
                    witnesses.append((k, format_fraction(xf)))
                elif max_ratio is None or ratio > max_ratio:
                    max_ratio = ratio
    params = {"t": format_fraction(tf), "k_max": k_max, "grid_points": len(tuple(grid))}
    return _result("bracket-derivative-bound", params, witnesses, max_ratio)


MIN_GS_PRECISION_BITS = 128
_GS_REL_ERROR_BITS = 64  # certified relative error of each returned value: < 2**-64
_GUARD_BITS = 32


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


def gs_derivative_series(theta, k_max: int, x, precision_bits: int = 256):
    """Certified values of d^k/dx^k exp(-<x>**(1/theta)) for k = 0..k_max.

    x must be rational (int, float or Fraction).  At a working budget of
    ``bits``, mpmath encloses <x>**t (t = 1/theta) and exp(-<x>**t) once;
    everything after runs on ints, an enclosure being [lo, hi] * 2**e kept
    to bits + 32 bits.  c_i = -<x>**t * r_{i+1}/i! comes from the exact
    bracket ratios r_i by one floor and one ceiling division, and each
    order of the Taylor recursion costs one exact dot product and one
    outward rounding (``_taylor_kernel``); exact zeros (c_i for i >= 2 at
    theta = 1/2, the odd orders at x = 0) are skipped and stay exact.  Each
    returned value, f^(j) = a_j * j! rounded once at ``precision_bits``, is
    certified to relative error < 2**-64 (exact zeros are returned as
    exact), the budget doubling while it is not; PrecisionError otherwise.
    """
    theta = Fraction(theta)
    if theta <= 0:
        raise ParameterError("theta must be positive")
    require_precision(precision_bits, MIN_GS_PRECISION_BITS)
    t = 1 / theta
    xf = Fraction(x)
    nums, d = _bracket_ratio_numerators(t, xf, k_max)
    scaled = []  # r_{i+1}/i! = n_{i+1} / (d**(i+1) * i!), exact
    den = 1
    for i in range(k_max):
        den *= d * (i or 1)
        scaled.append((nums[i + 1], den))

    def series(bits):
        prec = bits + _GUARD_BITS
        with iv_prec(bits):
            bracket_pow = iv.exp(to_iv(t / 2) * iv.log(to_iv(1 + xf * xf)))  # <x>**t
            a_0 = iv_fixed(iv.exp(-bracket_pow))
        bracket_pow = iv_fixed(bracket_pow)
        c = [fixed_scaled(bracket_pow, -n, den, prec) for n, den in scaled]  # c_i = -<x>**t * r_{i+1}/i!
        a = _taylor_kernel(c, fixed_outward(*a_0, prec), k_max, prec)
        out = []
        fact = 1
        for j, a_j in enumerate(a):
            fact *= j or 1
            lo, hi, e = a_j[:3] if a_j else (0, 0, 0)
            out.append(certified_fixed_midpoint(lo * fact, hi * fact, e, precision_bits, _GS_REL_ERROR_BITS))
        return out

    return escalate(series, precision_bits)


def gs_derivative(theta, k: int, x, precision_bits: int = 256):
    """Certified value of the k-th derivative of exp(-<x>**(1/theta)) at x."""
    return gs_derivative_series(theta, k, x, precision_bits)[k]


def verify_gs_bound(
    theta,
    k_max: int,
    grid: Sequence | None = None,
    slope_tol: float = 1e-3,
) -> CheckResult:
    """Empirical constant for |f^(k)| <= C**k * k! * f(x) * <x>**(k*max(1/theta-1,0)).

    C_emp(k) is the grid maximum of the normalized ratio taken to the 1/k
    power.  The check asserts C_emp stays bounded: the least-squares slope
    of log C_emp against k over the top half of the orders must not exceed
    ``slope_tol``.  Everything, the derivatives included, is computed at
    GS_BOUND_BITS: the printed slope and C_emp keep 10 digits, so a higher
    precision changes no printed byte.

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
    grid = geometric_grid(2 * Fraction(k_max) ** math.ceil(theta), 25) if grid is None else tuple(grid)
    tau = max(1 / theta - 1, Fraction(0))
    best_log = [None] * (k_max + 1)
    with mp.workprec(GS_BOUND_BITS):
        tau_mpf = to_mpf(tau)
        log_fact = [None] + [mp.log(mp.factorial(k)) for k in range(1, k_max + 1)]
        k_tau = [k * tau_mpf for k in range(k_max + 1)]
        for x in grid:
            series = gs_derivative_series(theta, k_max, x, GS_BOUND_BITS)
            xf = Fraction(x)
            log_bracket = mp.log(to_mpf(1 + xf * xf)) / 2
            log_f0 = mp.log(series[0])
            for k in range(1, k_max + 1):
                if series[k] == 0:
                    continue
                lr = mp.log(abs(series[k])) - log_fact[k] - log_f0 - k_tau[k] * log_bracket
                if best_log[k] is None or lr > best_log[k]:
                    best_log[k] = lr
        orders = [k for k in range(1, k_max + 1) if best_log[k] is not None]
        log_c_emp = {k: best_log[k] / k for k in orders}
        tail = [k for k in orders if k >= orders[-1] // 2 + 1]
        slope = ols_slope(tail, [log_c_emp[k] for k in tail], bits=GS_BOUND_BITS)
        c_max = mp.exp(max(log_c_emp.values()))
    witnesses = [] if slope <= slope_tol else [("slope", mp.nstr(slope, 10))]
    params = {
        "theta": format_fraction(theta),
        "k_max": k_max,
        "grid_points": len(grid),
        "slope": mp.nstr(slope, 10),
        "slope_tol": slope_tol,
    }
    return _result("gs-derivative-bound", params, witnesses, c_max)


class GSFunction:
    """f(x) = exp(-<x>**(1/theta)): derivatives from the certified engine."""

    def __init__(self, theta):
        self.theta = Fraction(theta)
        self.name = "gs_function(theta=%s)" % format_fraction(self.theta)

    def derivatives(self, x, k_max: int, precision_bits: int):
        return gs_derivative_series(self.theta, k_max, x, max(precision_bits, MIN_GS_PRECISION_BITS))


class Gaussian:
    """f(x) = exp(-x**2): f^(k) = (-1)**k * H_k(x) * f(x), physicists' Hermite H_k, exact at rational x."""

    name = "gaussian"

    def derivatives(self, x, k_max: int, precision_bits: int):
        xf = Fraction(x)
        hermite = [Fraction(1), 2 * xf]  # H_k = 2x * H_{k-1} - 2(k-1) * H_{k-2}
        for k in range(2, k_max + 1):
            hermite.append(2 * xf * hermite[k - 1] - 2 * (k - 1) * hermite[k - 2])
        with mp.workprec(precision_bits):
            fx = mp.exp(to_mpf(-xf * xf))
            return [fx] + [to_mpf(-hermite[k] if k % 2 else hermite[k]) * fx for k in range(1, k_max + 1)]


class SampledDerivatives:
    """Derivative values supplied externally as a {(x, order): value} mapping."""

    def __init__(self, samples: dict, name: str = "sampled"):
        self.samples = dict(samples)
        self.name = name

    def derivatives(self, x, k_max: int, precision_bits: int):
        try:
            return [self.samples[(x, k)] for k in range(k_max + 1)]
        except KeyError as exc:
            raise ParameterError("no sampled derivative for point %r" % (exc.args[0],)) from exc


class SeminormEstimate(Record):
    """Truncated supremum of a seminorm: a certified lower bound of the true value.

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
    at SEMINORM_BITS, and f_spec is asked for its derivatives at that precision.
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
    if grid is None:
        grid = geometric_grid(2 * Fraction(max(max_deriv, 1)) ** math.ceil(theta), 25)
    grid = tuple(Fraction(g) for g in grid)

    cells = []
    with mp.workprec(SEMINORM_BITS):
        log_fact = [mp.mpf(0)]
        for k in range(1, max(max_deriv, max_power) + 1):
            log_fact.append(log_fact[-1] + mp.log(k))
        for x in grid:
            # log of the part of each cell that depends on x only
            if kind == "a":
                log_weight = _weight_log(a, theta, x)
            elif x == 0:
                log_weight = mp.mpf(0)  # x**alpha = 0 at x = 0 for alpha > 0
            else:
                log_xh = mp.log(to_mpf(abs(x))) - mp.log(to_mpf(h))
                log_weight = max(alpha * log_xh - to_mpf(theta) * log_fact[alpha] for alpha in range(max_power + 1))
            derivs = f_spec.derivatives(x, max_deriv, SEMINORM_BITS)
            for beta in range(max_deriv + 1):
                fv = abs(derivs[beta])
                if fv == 0:
                    cells.append((beta, x, mp.mpf(0)))
                    continue
                if kind == "a":
                    log_cell = log_weight - to_mpf(s) * log_fact[beta] + beta * mp.log(to_mpf(a)) + mp.log(fv)
                else:
                    log_cell = log_weight + mp.log(fv) - beta * mp.log(to_mpf(h)) - to_mpf(s) * log_fact[beta]
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
    with mp.workprec(SEMINORM_BITS):
        value = max((c for _, _, c in cells), default=mp.mpf(0))
    params = {"theta": format_fraction(theta), "s": format_fraction(s), "f": f_spec.name}
    if kind == "a":
        params["a"] = format_fraction(Fraction(a))
    else:
        params["h"] = format_fraction(Fraction(h))
    grid_used = tuple(sorted({x for _, x, _ in cells}))
    truncation = {"max_deriv": max_deriv, "max_power": max_power if kind == "h" else 0, "grid": grid_used}
    return SeminormEstimate(kind=kind, params=params, truncation=truncation, value=value)


def seminorm_equivalence_table(
    f_spec,
    *,
    theta,
    s,
    pairs: Sequence[tuple[Fraction, Fraction]] = ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(1, 4))),
    max_deriv: int = 10,
    max_power: int = 10,
    grid: Sequence | None = None,
):
    """Diagnostic table pairing a-family and h-family estimates.

    One row (a, h, value_a, value_h) per pair; finiteness of both columns is
    the only assertable content (the families generate the same topology but
    the pairing constants are existential).
    """
    rows = []
    for a_val, h_val in pairs:
        est_a = seminorm("a", f_spec, theta=theta, s=s, a=a_val, max_deriv=max_deriv, grid=grid)
        est_h = seminorm("h", f_spec, theta=theta, s=s, h=h_val, max_deriv=max_deriv, max_power=max_power, grid=grid)
        rows.append((Fraction(a_val), Fraction(h_val), est_a.value, est_h.value))
    return rows
