"""Exact verifiers for the standalone identities and bounds behind the tables.

Each check returns a CheckResult whose pass is a machine-checked certificate
at the tested parameters: integer comparisons are exact, rational exponents
are handled by raising both sides to the q-th power, and the one
real-analytic check (the auxiliary wedge function) uses outward-rounded
interval arithmetic so a reported pass is a directed-rounding certificate,
never a float heuristic.

Checked facts, for degree m >= 2 and the table coefficients C[k][n]:

* floor steps: floor((k+1)(m-1)/m) equals floor(k(m-1)/m) when m | k and
  exceeds it by one otherwise.
* closed form C[k][1] = (m-1)k(k-1)/2 for k >= 2.
* fourth-power bound 2*C[k][2] <= m**2 * k**4 for k >= 4.
* adjacent-ratio bound C[k][n+1] <= C[k][n] * m * k**(m*theta) for rational
  theta >= 2/m, compared exactly via q-th powers for theta = p/q.  Each cell
  is first decided from bit lengths, which settles it exactly whenever the
  two sides differ by more than about q bits; only the cells in that band
  build the q-th powers.  The extremal ratio is the same float as a log of
  every cell's exact powers would give: a float estimate per cell picks the
  few cells near the maximum, and only those are evaluated exactly.
* auxiliary function f(x) = (1+x)**(m*theta) - (1-1/m)*x**(m*theta-1) - 1
  is nonnegative on [0,1], proved on all of it: a monotone lower bound of f
  on each box [2**-(j+1), 2**-j], j < 40, bisected while not positive, and
  below 2**-40 a lemma from Bernoulli's inequality; plus the endpoint
  identities f(0) = 0 and f(1) = 2**(m*theta) - 2 + 1/m.  No grid.
* evaluation lower bound: for lam = +/- i*m, integer theta >= 1, and the
  k_j orders, 4*|p_{k_j}(k_j**theta)|**2 >= m**(2 k_j) * k_j**(2 theta k_j (m-1))
  as exact integers (the |.|**2 is an exact Gaussian-integer modulus squared).

A table is a ``CoeffTable`` or a ``coeff_rows`` walk, read once in ascending k.
Rational parameters are plain fractions.Fraction values throughout.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice

from ._util import CheckResult, ParameterError, _result, format_fraction, require_degree, require_precision
from .derivpoly import CoeffRows, CoeffTable, _kj_polys, gaussian_parts
from .precision import iv_endpoints, iv_prec, to_iv


def check_floor_identities(m: int, k_max: int) -> CheckResult:
    """Exhaustive integer check of the floor-step behaviour for 1 <= k <= k_max."""
    require_degree(m)
    if k_max < 1:
        raise ParameterError("k_max must be >= 1, got %r" % (k_max,))
    witnesses = []
    for k in range(1, k_max + 1):
        cur = k * (m - 1) // m
        nxt = (k + 1) * (m - 1) // m
        expected = cur if k % m == 0 else cur + 1
        if nxt != expected:
            witnesses.append((k, cur, nxt))
    return _result("floor-step", {"m": m, "k_max": k_max}, witnesses)


def check_ck1_closed_form(table: CoeffTable | CoeffRows) -> CheckResult:
    """C[k][1] == (m-1)k(k-1)/2 exactly, for every 2 <= k <= k_max."""
    if table.k_max < 2:
        raise ParameterError("table must reach k >= 2")
    m = table.m
    witnesses = []
    for k, row in islice(enumerate(table, start=1), 1, None):
        expected = (m - 1) * k * (k - 1) // 2
        got = row[1]
        if got != expected:
            witnesses.append((k, got, expected))
    return _result("ck1-closed-form", {"m": m, "k_max": table.k_max}, witnesses)


def check_ck2_bound(table: CoeffTable | CoeffRows) -> CheckResult:
    """2*C[k][2] <= m**2 * k**4 exactly for 4 <= k <= k_max; records the max ratio."""
    if table.k_max < 4:
        raise ParameterError("table must reach k >= 4")
    m = table.m
    witnesses = []
    max_ratio = None
    for k, row in islice(enumerate(table, start=1), 3, None):
        lhs = 2 * row[2]
        rhs = m * m * k**4
        if lhs > rhs:
            witnesses.append((k, lhs, rhs))
        ratio = math.exp(math.log(lhs) - math.log(rhs))
        if max_ratio is None or ratio > max_ratio:
            max_ratio = ratio
    return _result("ck2-fourth-power-bound", {"m": m, "k_max": table.k_max}, witnesses, max_ratio)


# The float estimate q*(ln a - ln b) - ln f of a cell is off by well under
# 1e-10 for coefficients of a few thousand digits (the error grows like
# q * bits * 2**-52), so every cell that could hold the exact maximum of the
# log ratio lies within this slack of the largest estimate.
_EXTREMAL_SLACK = 1e-6


def check_ratio_bound(table: CoeffTable | CoeffRows, theta: Fraction) -> CheckResult:
    """C[k][n+1] <= C[k][n] * m * k**(m*theta) exactly, via q-th powers.

    For theta = p/q the comparison is a**q <= b**q * f with a = C[k][n+1],
    b = C[k][n] and f = m**q * k**(m*p), an exact integer statement.  Most
    cells are settled by bit lengths alone (see ``_exceeds``); the q-th
    powers are built only for the rest.  The extremal ratio is the maximum
    of (ln a**q - ln(b**q * f)) / q, evaluated only on the cells whose float
    estimate comes within ``_EXTREMAL_SLACK`` of the largest one.  Requires
    theta >= 2/m (the bound's hypothesis).
    """
    theta = Fraction(theta)
    m = table.m
    if theta < Fraction(2, m):
        raise ParameterError("hypothesis violated: theta=%s < 2/m for m=%d" % (theta, m))
    p, q = theta.numerator, theta.denominator
    witnesses = []
    best = -math.inf
    near_best = []  # (estimate, a, b, f) within the slack of ``best``
    m_q = m**q
    for k, row in islice(enumerate(table, start=1), 1, None):
        scale = m_q * k ** (m * p)
        ln_scale = math.log(scale)
        logs = [math.log(c) for c in row]  # each ln C[k][n] serves both of its neighbours
        for n in range(len(row) - 1):
            a, b = row[n + 1], row[n]
            if _exceeds(a, b, scale, q):
                witnesses.append((k, n, a, b))
            estimate = q * (logs[n + 1] - logs[n]) - ln_scale
            if estimate > best - _EXTREMAL_SLACK:
                near_best.append((estimate, a, b, scale))
                if estimate > best:
                    best = estimate
                    near_best = [c for c in near_best if c[0] > best - _EXTREMAL_SLACK]
    extremal = None
    if near_best:
        extremal = math.exp(max((math.log(a**q) - math.log(b**q * f)) / q for _, a, b, f in near_best))
    params = {"m": m, "k_max": table.k_max, "theta": format_fraction(theta)}
    return _result("adjacent-ratio-bound", params, witnesses, extremal)


def _exceeds(a: int, b: int, f: int, q: int) -> bool:
    """a**q > b**q * f for positive ints, decided by bit lengths where they suffice.

    With la, lb, lf the bit lengths, a**q >= 2**(q*(la-1)) and
    b**q * f < 2**(q*lb + lf), so q*(la-lb-1) >= lf proves the excess;
    a**q < 2**(q*la) and b**q * f >= 2**(q*(lb-1) + lf - 1), so
    q*(la-lb+1) < lf rules it out.  Only the band between needs the powers.
    """
    gap = a.bit_length() - b.bit_length()
    lf = f.bit_length()
    if q * (gap - 1) >= lf:
        return True
    if q * (gap + 1) < lf:
        return False
    return a**q > b**q * f


# Boxes [2**-(j+1), 2**-j] for j < _WEDGE_TAIL_EXP cover [2**-_WEDGE_TAIL_EXP, 1];
# a box whose lower bound is not positive is bisected, at most _WEDGE_MAX_DEPTH times.
_WEDGE_TAIL_EXP = 40
_WEDGE_MAX_DEPTH = 10


def _wedge_fn_enclosure(a, c, lo: Fraction, hi: Fraction):
    """Interval holding (1+lo)**a - c*hi**(a-1) - 1, for intervals a >= 2 and c.

    Both powers increase in x, so this is a lower bound of
    f(x) = (1+x)**a - c*x**(a-1) - 1 on [lo, hi]; at lo == hi it encloses f(lo).
    """
    return (1 + to_iv(lo)) ** a - c * to_iv(hi) ** (a - 1) - 1


def _wedge_box_bound(a, c, lo: Fraction, hi: Fraction, depth: int, witnesses: list) -> float:
    """A lower bound of f on [lo, hi], bisecting while it is not positive.

    A box still not positive after _WEDGE_MAX_DEPTH bisections is a witness.
    """
    lower = iv_endpoints(_wedge_fn_enclosure(a, c, lo, hi))[0]
    if lower > 0 or depth == _WEDGE_MAX_DEPTH:
        if not lower > 0:
            witnesses.append((format_fraction(lo), format_fraction(hi), str(lower)))
        return float(lower)
    mid = (lo + hi) / 2
    return min(
        _wedge_box_bound(a, c, lo, mid, depth + 1, witnesses),
        _wedge_box_bound(a, c, mid, hi, depth + 1, witnesses),
    )


def check_wedge_fn_nonneg(m: int, theta: Fraction, precision_bits: int = 192) -> CheckResult:
    """f(x) = (1+x)**a - (1-1/m)*x**(a-1) - 1 >= 0 on [0,1], for a = m*theta >= 2.

    A proof over all of [0,1] in outward-rounded intervals at
    ``precision_bits``, one path for every rational a.  Each box
    [2**-(j+1), 2**-j], j < 40, gets the lower bound
    (1+lo)**a - (1-1/m)*hi**(a-1) - 1 of f, bisected while not positive;
    a box that stays so is a witness.  Below 2**-40, Bernoulli's inequality
    and x**(a-1) <= x give f(x) >= (a - 1 + 1/m)*x > 0.  The endpoint
    identities f(0) = 0 and f(1) = 2**a - 2 + 1/m are checked on the same
    enclosure.  The extremal ratio is the least of f(0) = 0 and the box
    lower bounds: 0.0, the minimum of f, on a pass.
    """
    require_degree(m)
    require_precision(precision_bits)
    theta = Fraction(theta)
    if theta < Fraction(2, m):
        raise ParameterError("hypothesis violated: theta=%s < 2/m for m=%d" % (theta, m))
    witnesses = []
    with iv_prec(precision_bits):
        a, c = to_iv(m * theta), to_iv(Fraction(m - 1, m))
        f0 = iv_endpoints(_wedge_fn_enclosure(a, c, Fraction(0), Fraction(0)))
        if f0 != (0, 0):
            witnesses.append(("endpoint-0", str(f0[0])))
        gap = _wedge_fn_enclosure(a, c, Fraction(1), Fraction(1)) - (to_iv(2) ** a - 2 + to_iv(Fraction(1, m)))
        lo, hi = iv_endpoints(gap)
        if not lo <= 0 <= hi:
            witnesses.append(("endpoint-1", str(lo)))
        min_value = 0.0  # f(0)
        for j in reversed(range(_WEDGE_TAIL_EXP)):
            bound = _wedge_box_bound(a, c, Fraction(1, 2 ** (j + 1)), Fraction(1, 2**j), 0, witnesses)
            min_value = min(min_value, bound)
    params = {"m": m, "theta": format_fraction(theta)}
    return _result("auxiliary-function-nonneg", params, witnesses, min_value)


def check_lower_bound(
    m: int,
    lambda_sign: int,
    theta: int,
    j_max: int,
    table: CoeffTable | CoeffRows | None = None,
) -> CheckResult:
    """4*|p_{k_j}(k_j**theta)|**2 >= m**(2 k_j) * k_j**(2 theta k_j (m-1)), exactly.

    theta must be a positive integer so that the evaluation point is an
    integer and the Gaussian-integer modulus squared is exact.  The k_j
    construction invariants are re-asserted by kj_sequence itself.
    """
    witnesses = []
    min_log_ratio = None
    for j, k, poly in _kj_polys(m, theta, j_max, table):
        re, im = gaussian_parts(poly, lambda_sign, k**theta)
        lhs = 4 * (re * re + im * im)
        rhs = m ** (2 * k) * k ** (2 * theta * k * (m - 1))
        if lhs < rhs:
            witnesses.append((j, k))
        log_ratio = (math.log(lhs) - math.log(rhs)) / 2
        if min_log_ratio is None or log_ratio < min_log_ratio:
            min_log_ratio = log_ratio
    extremal = None if min_log_ratio is None else math.exp(min_log_ratio)
    params = {"m": m, "lambda_sign": lambda_sign, "theta": theta, "j_max": j_max}
    return _result("evaluation-lower-bound", params, witnesses, extremal)
