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
  is nonnegative on [0,1] (grid with downward rounding, plus the endpoint
  identities f(0) = 0 and f(1) = 2**(m*theta) - 2 + 1/m).
* evaluation lower bound: for lam = +/- i*m, integer theta >= 1, and the
  k_j orders, 4*|p_{k_j}(k_j**theta)|**2 >= m**(2 k_j) * k_j**(2 theta k_j (m-1))
  as exact integers (the |.|**2 is an exact Gaussian-integer modulus squared).

Rational parameters are plain fractions.Fraction values throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

from ._util import format_fraction, format_int
from .derivpoly import CoeffTable, _table_covering, derivative_poly, gaussian_parts, kj_sequence
from .precision import ParameterError, iv_endpoints, iv_prec, to_iv, to_mpf


@dataclass(frozen=True)
class CheckResult:
    """One verified (or falsified) statement with its counterexamples.

    pass iff witnesses is empty; extremal_ratio is a tightness diagnostic
    (how close the worst tested case came to the bound), not part of the
    verdict.
    """

    name: str
    params: dict[str, str]
    passed: bool
    witnesses: tuple[tuple, ...]
    extremal_ratio: Optional[Any] = None

    def __post_init__(self):
        if self.passed != (not self.witnesses):
            raise ValueError("pass flag inconsistent with witness list")

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "params": dict(self.params),
            "passed": self.passed,
            "witnesses": [[format_int(x) if isinstance(x, int) else str(x) for x in w] for w in self.witnesses],
            "extremal_ratio": None if self.extremal_ratio is None else str(self.extremal_ratio),
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_json_dict(), **kwargs)


def _result(name, params, witnesses, extremal=None) -> CheckResult:
    return CheckResult(
        name=name,
        params={k: str(v) for k, v in params.items()},
        passed=not witnesses,
        witnesses=tuple(witnesses),
        extremal_ratio=extremal,
    )


def check_floor_identities(m: int, k_max: int) -> CheckResult:
    """Exhaustive integer check of the floor-step behaviour for 1 <= k <= k_max."""
    if m < 2:
        raise ParameterError("degree m must be >= 2")
    witnesses = []
    for k in range(1, k_max + 1):
        cur = k * (m - 1) // m
        nxt = (k + 1) * (m - 1) // m
        expected = cur if k % m == 0 else cur + 1
        if nxt != expected:
            witnesses.append((k, cur, nxt))
    return _result("floor-step", {"m": m, "k_max": k_max}, witnesses)


def check_ck1_closed_form(table: CoeffTable) -> CheckResult:
    """C[k][1] == (m-1)k(k-1)/2 exactly, for every 2 <= k <= k_max."""
    if table.k_max < 2:
        raise ParameterError("table must reach k >= 2")
    m = table.m
    witnesses = []
    for k in range(2, table.k_max + 1):
        expected = (m - 1) * k * (k - 1) // 2
        got = table.coeff(k, 1)
        if got != expected:
            witnesses.append((k, got, expected))
    return _result("ck1-closed-form", {"m": m, "k_max": table.k_max}, witnesses)


def check_ck2_bound(table: CoeffTable) -> CheckResult:
    """2*C[k][2] <= m**2 * k**4 exactly for 4 <= k <= k_max; records the max ratio."""
    if table.k_max < 4:
        raise ParameterError("table must reach k >= 4")
    m = table.m
    witnesses = []
    max_ratio = None
    for k in range(4, table.k_max + 1):
        lhs = 2 * table.coeff(k, 2)
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


def check_ratio_bound(table: CoeffTable, theta: Fraction) -> CheckResult:
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
    for k in range(2, table.k_max + 1):
        row = table.row(k)
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


def _wedge_fn_exact(m: int, mt: int, x: Fraction) -> Fraction:
    return (1 + x) ** mt - Fraction(m - 1, m) * x ** (mt - 1) - 1


def check_wedge_fn_nonneg(
    m: int, theta: Fraction, grid_size: int = 256, precision_bits: int = 192
) -> CheckResult:
    """f(x) = (1+x)**(m*theta) - (1-1/m)*x**(m*theta-1) - 1 >= 0 on [0,1].

    Evaluated on the uniform grid i/grid_size with the result rounded
    downward (exact rational arithmetic when m*theta is an integer, interval
    lower endpoints otherwise) and compared against -2**-64.  The endpoint
    identities f(0) = 0 and f(1) = 2**(m*theta) - 2 + 1/m are checked as well.
    """
    theta = Fraction(theta)
    if theta < Fraction(2, m):
        raise ParameterError("hypothesis violated: theta=%s < 2/m for m=%d" % (theta, m))
    if grid_size < 1:
        raise ParameterError("grid_size must be >= 1")
    mt = m * theta
    tol = Fraction(-1, 2**64)
    witnesses = []
    min_value = None

    if mt.denominator == 1:
        mt_int = mt.numerator
        for i in range(grid_size + 1):
            x = Fraction(i, grid_size)
            fx = _wedge_fn_exact(m, mt_int, x)
            if fx < tol:
                witnesses.append((format_fraction(x), str(fx)))
            fxf = float(fx)
            if min_value is None or fxf < min_value:
                min_value = fxf
        f0 = _wedge_fn_exact(m, mt_int, Fraction(0))
        f1 = _wedge_fn_exact(m, mt_int, Fraction(1))
        if f0 != 0:
            witnesses.append(("endpoint-0", str(f0)))
        if f1 != Fraction(2) ** mt_int - 2 + Fraction(1, m):
            witnesses.append(("endpoint-1", str(f1)))
    else:
        with iv_prec(precision_bits):
            mt_iv = to_iv(mt)
            for i in range(grid_size + 1):
                x = Fraction(i, grid_size)
                xi = to_iv(x)
                if i == 0:
                    fx = to_iv(0)  # x**(m*theta-1) = 0 at x = 0 since m*theta > 1
                else:
                    one_plus = (1 + xi) ** mt_iv
                    tail = to_iv(Fraction(m - 1, m)) * xi ** (mt_iv - 1)
                    fx = one_plus - tail - 1
                lower, _ = iv_endpoints(fx)
                if lower < to_mpf(tol):
                    witnesses.append((format_fraction(x), str(lower)))
                if min_value is None or float(lower) < min_value:
                    min_value = float(lower)
            f1 = to_iv(2) ** mt_iv - 2 + to_iv(Fraction(1, m))
            f1_direct = (1 + to_iv(1)) ** mt_iv - to_iv(Fraction(m - 1, m)) - 1
            gap = f1 - f1_direct
            lo, hi = iv_endpoints(gap)
            if not (lo <= 0 <= hi):
                witnesses.append(("endpoint-1", str(lo)))
    params = {"m": m, "theta": format_fraction(theta), "grid_size": grid_size}
    return _result("auxiliary-function-nonneg", params, witnesses, min_value)


def check_lower_bound(
    m: int,
    lambda_sign: int,
    theta: int,
    j_max: int,
    table: Optional[CoeffTable] = None,
) -> CheckResult:
    """4*|p_{k_j}(k_j**theta)|**2 >= m**(2 k_j) * k_j**(2 theta k_j (m-1)), exactly.

    theta must be a positive integer so that the evaluation point is an
    integer and the Gaussian-integer modulus squared is exact.  The k_j
    construction invariants are re-asserted by kj_sequence itself.
    """
    if not isinstance(theta, int) or theta < 1:
        raise ParameterError("theta must be a positive integer for exact evaluation")
    if m * theta < 2:
        raise ParameterError("hypothesis violated: theta < 2/m")
    seq = kj_sequence(m, j_max)
    k_top = seq.k(j_max)
    table = _table_covering(m, k_top, table)
    witnesses = []
    min_log_ratio = None
    for j in range(1, j_max + 1):
        k = seq.k(j)
        x = k**theta
        re, im = gaussian_parts(derivative_poly(table, k), lambda_sign, x)
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
