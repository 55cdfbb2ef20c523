"""Exact verifiers for the standalone identities and bounds behind the tables.

Each check returns a CheckResult whose pass is a machine-checked certificate
at the tested parameters: integer comparisons are exact, rational exponents
are handled by raising both sides to the q-th power, and the one
real-analytic check (the auxiliary wedge function) is a lemma whose
hypothesis is an exact comparison, so a reported pass is never a float
heuristic.  Nothing here loads mpmath.

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
  is nonnegative on [0,1] for theta >= 2/m, proved for every x in [0,1]
  by one lemma: Bernoulli's inequality and x**(a-1) <= x give
  f(x) >= (a - 1 + 1/m)*x >= 0 for a = m*theta >= 2.  No grid, no sweep.
* evaluation lower bound: for lam = +/- i*m, integer theta >= 1, and the
  k_j orders, 4*|p_{k_j}(k_j**theta)|**2 >= m**(2 k_j) * k_j**(2 theta k_j (m-1))
  as exact integers (the |.|**2 is an exact Gaussian-integer modulus squared).

A table is a ``CoeffTable`` or a ``coeff_rows`` walk, read once in ascending k.
The per-row logic of each check that reads rows is written once, as a step
that ``_walk`` feeds the rows from its ``first_k`` to its ``last_k``;
``check_table_bounds`` runs the three table checks, and at integer theta the
evaluation lower bound, on one walk that it sizes itself.
Rational parameters are plain fractions.Fraction values throughout.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._util import CheckResult, ParameterError, _result, format_fraction, require_degree, require_theta
from .derivpoly import CoeffRows, CoeffTable, DerivPoly, _kj_orders, _rows_to, gaussian_parts


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


class _Ck1Step:
    """C[k][1] == (m-1)k(k-1)/2 exactly, one row at a time from k = 2."""

    first_k = 2

    def __init__(self, m: int, k_max: int):
        if k_max < 2:
            raise ParameterError("table must reach k >= 2")
        self.m, self.last_k, self.witnesses = m, k_max, []

    def feed(self, k: int, row: tuple) -> None:
        expected = (self.m - 1) * k * (k - 1) // 2
        if row[1] != expected:
            self.witnesses.append((k, row[1], expected))

    def result(self) -> CheckResult:
        return _result("ck1-closed-form", {"m": self.m, "k_max": self.last_k}, self.witnesses)


class _Ck2Step:
    """2*C[k][2] <= m**2 * k**4 exactly, one row at a time from k = 4; records the max ratio."""

    first_k = 4

    def __init__(self, m: int, k_max: int):
        if k_max < 4:
            raise ParameterError("table must reach k >= 4")
        self.m, self.last_k, self.witnesses, self.max_ratio = m, k_max, [], None

    def feed(self, k: int, row: tuple) -> None:
        lhs = 2 * row[2]
        rhs = self.m * self.m * k**4
        if lhs > rhs:
            self.witnesses.append((k, lhs, rhs))
        ratio = math.exp(math.log(lhs) - math.log(rhs))
        if self.max_ratio is None or ratio > self.max_ratio:
            self.max_ratio = ratio

    def result(self) -> CheckResult:
        return _result("ck2-fourth-power-bound", {"m": self.m, "k_max": self.last_k}, self.witnesses, self.max_ratio)


# The float estimate q*(ln a - ln b) - ln f of a cell is off by well under
# 1e-10 for coefficients of a few thousand digits (the error grows like
# q * bits * 2**-52), so every cell that could hold the exact maximum of the
# log ratio lies within this slack of the largest estimate.
_EXTREMAL_SLACK = 1e-6


class _RatioStep:
    """C[k][n+1] <= C[k][n] * m * k**(m*theta) exactly, one row at a time from k = 2.

    For theta = p/q the comparison is a**q <= b**q * f with a = C[k][n+1],
    b = C[k][n] and f = m**q * k**(m*p), an exact integer statement.  Most
    cells are settled by bit lengths alone (see ``_exceeds``); the q-th
    powers are built only for the rest.  The extremal ratio is the maximum
    of (ln a**q - ln(b**q * f)) / q, evaluated only on the cells whose float
    estimate comes within ``_EXTREMAL_SLACK`` of the largest one.
    """

    first_k = 2

    def __init__(self, m: int, k_max: int, theta: Fraction):
        theta = Fraction(theta)
        require_theta(m, theta)
        self.params = {"m": m, "k_max": k_max, "theta": format_fraction(theta)}
        self.last_k = k_max
        self.q, self.m_p, self.m_q = theta.denominator, m * theta.numerator, m**theta.denominator
        self.witnesses = []
        self.best = -math.inf
        self.near_best = []  # (estimate, a, b, f) within the slack of ``best``

    def feed(self, k: int, row: tuple) -> None:
        q = self.q
        scale = self.m_q * k**self.m_p
        ln_scale, lf = math.log(scale), scale.bit_length()
        # each entry's log and bit length serve both of its neighbours
        logs = [math.log(c) for c in row]
        bits = [c.bit_length() for c in row]
        for n in range(len(row) - 1):
            a, b = row[n + 1], row[n]
            if _exceeds(a, b, scale, q, bits[n + 1] - bits[n], lf):
                self.witnesses.append((k, n, a, b))
            estimate = q * (logs[n + 1] - logs[n]) - ln_scale
            if estimate > self.best - _EXTREMAL_SLACK:
                self.near_best.append((estimate, a, b, scale))
                if estimate > self.best:
                    self.best = estimate
                    self.near_best = [c for c in self.near_best if c[0] > self.best - _EXTREMAL_SLACK]

    def result(self) -> CheckResult:
        q, extremal = self.q, None
        if self.near_best:
            extremal = math.exp(max((math.log(a**q) - math.log(b**q * f)) / q for _, a, b, f in self.near_best))
        return _result("adjacent-ratio-bound", self.params, self.witnesses, extremal)


def _exceeds(a: int, b: int, f: int, q: int, gap: int, lf: int) -> bool:
    """a**q > b**q * f for positive ints, decided by bit lengths where they suffice.

    ``gap`` is la - lb and ``lf`` is lf, where la, lb, lf are the bit lengths
    of a, b, f.  a**q >= 2**(q*(la-1)) and b**q * f < 2**(q*lb + lf), so
    q*(la-lb-1) >= lf proves the excess; a**q < 2**(q*la) and
    b**q * f >= 2**(q*(lb-1) + lf - 1), so q*(la-lb+1) < lf rules it out.
    Only the band between needs the powers.
    """
    if q * (gap - 1) >= lf:
        return True
    if q * (gap + 1) < lf:
        return False
    return a**q > b**q * f


class _LowerBoundStep:
    """4*|p_k(k**theta)|**2 >= m**(2k) * k**(2 theta k (m-1)) exactly, at the orders k_1..k_{j_max} only.

    theta must equal a positive integer so that the evaluation point is an
    integer and the Gaussian-integer modulus squared is exact.  The extremal
    ratio is the least ratio of the two sides' square roots.
    """

    def __init__(self, m: int, lambda_sign: int, theta: int | Fraction, j_max: int):
        if not isinstance(theta, (int, Fraction)) or theta.denominator != 1 or theta < 1:
            raise ParameterError("theta must be a positive integer for exact evaluation")
        theta, entries = _kj_orders(m, theta, j_max)
        self.j_at = {k: j for j, k in enumerate(entries, start=1)}
        self.first_k, self.last_k = entries[0], entries[-1]
        self.m, self.lambda_sign, self.theta = m, lambda_sign, theta
        self.params = {"m": m, "lambda_sign": lambda_sign, "theta": theta, "j_max": j_max}
        self.witnesses, self.min_log_ratio = [], None

    def feed(self, k: int, row: tuple) -> None:
        j = self.j_at.get(k)
        if j is None:
            return
        m, theta = self.m, self.theta
        re, im = gaussian_parts(DerivPoly(m=m, k=k, coeffs=row), self.lambda_sign, k**theta)
        lhs = 4 * (re * re + im * im)
        rhs = m ** (2 * k) * k ** (2 * theta * k * (m - 1))
        if lhs < rhs:
            self.witnesses.append((j, k))
        log_ratio = (math.log(lhs) - math.log(rhs)) / 2
        if self.min_log_ratio is None or log_ratio < self.min_log_ratio:
            self.min_log_ratio = log_ratio

    def result(self) -> CheckResult:
        extremal = None if self.min_log_ratio is None else math.exp(self.min_log_ratio)
        return _result("evaluation-lower-bound", self.params, self.witnesses, extremal)


def _walk(rows, *steps) -> list[CheckResult]:
    """Feed rows 1, 2, ... of ``rows`` once each, in ascending k, to every step whose
    ``first_k``..``last_k`` holds k; return their results."""
    for k, row in enumerate(rows, start=1):
        for step in steps:
            if step.first_k <= k <= step.last_k:
                step.feed(k, row)
    return [step.result() for step in steps]


def check_ck1_closed_form(table: CoeffTable | CoeffRows) -> CheckResult:
    """C[k][1] == (m-1)k(k-1)/2 exactly, for every 2 <= k <= k_max."""
    return _walk(table, _Ck1Step(table.m, table.k_max))[0]


def check_ck2_bound(table: CoeffTable | CoeffRows) -> CheckResult:
    """2*C[k][2] <= m**2 * k**4 exactly for 4 <= k <= k_max; records the max ratio."""
    return _walk(table, _Ck2Step(table.m, table.k_max))[0]


def check_ratio_bound(table: CoeffTable | CoeffRows, theta: Fraction) -> CheckResult:
    """C[k][n+1] <= C[k][n] * m * k**(m*theta) exactly, via q-th powers.

    See ``_RatioStep``.  Requires theta >= 2/m (the bound's hypothesis).
    """
    return _walk(table, _RatioStep(table.m, table.k_max, theta))[0]


def check_table_bounds(
    m: int, theta: Fraction, k_max: int, j_max: int | None = None, table: CoeffTable | CoeffRows | None = None
) -> list[CheckResult]:
    """``check_ck1_closed_form``, ``check_ck2_bound`` and ``check_ratio_bound`` up to
    ``k_max`` (at least 4), then, given ``j_max`` (theta must then equal an integer),
    ``check_lower_bound(m, 1, theta, j_max)``, all from one walk of rows 1..max(k_max, k_{j_max}).

    The walk is sized here, by the checks that read it: it is ``coeff_rows``
    without a ``table``, and a ``table`` must reach that order.
    """
    require_degree(m)
    steps = [_Ck1Step(m, k_max), _Ck2Step(m, k_max), _RatioStep(m, k_max, theta)]
    if j_max is not None:
        steps.append(_LowerBoundStep(m, 1, theta, j_max))
    return _walk(_rows_to(m, max(step.last_k for step in steps), table), *steps)


def check_wedge_fn_nonneg(m: int, theta: Fraction) -> CheckResult:
    """f(x) = (1+x)**a - (1-1/m)*x**(a-1) - 1 >= 0 on [0,1], for a = m*theta >= 2.

    Proved for every x in [0,1] by one lemma, whose hypothesis a >= 2 is the
    exact comparison theta >= 2/m: Bernoulli's inequality gives
    (1+x)**a >= 1 + a*x, and x**(a-1) <= x since a - 1 >= 1, so
    f(x) >= (a - 1 + 1/m)*x >= 0, with equality only at x = 0.  The extremal
    ratio is the minimum of f, f(0) = 0.0.
    """
    require_degree(m)
    theta = Fraction(theta)
    require_theta(m, theta)
    return _result("auxiliary-function-nonneg", {"m": m, "theta": format_fraction(theta)}, [], 0.0)


def check_lower_bound(
    m: int,
    lambda_sign: int,
    theta: int | Fraction,
    j_max: int,
    table: CoeffTable | CoeffRows | None = None,
) -> CheckResult:
    """4*|p_{k_j}(k_j**theta)|**2 >= m**(2 k_j) * k_j**(2 theta k_j (m-1)), exactly.

    theta must equal a positive integer so that the evaluation point is an
    integer and the Gaussian-integer modulus squared is exact.  The k_j
    construction invariants are re-asserted by kj_sequence itself.  A
    ``table`` must reach k_{j_max}; without one the rows are walked.
    """
    step = _LowerBoundStep(m, lambda_sign, theta, j_max)
    return _walk(_rows_to(m, step.last_k, table), step)[0]
