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
  theta >= 2/m, compared exactly via q-th powers for theta = p/q.  A row is
  read as the bit lengths of its entries, and two screens on the gaps between
  neighbours, each run in C by ``map`` and ``itertools.compress``, pick the
  few cells that need more.  Witness screen: a cell whose gap puts its two
  sides more than about q bits apart is settled by the gap alone; only the
  rest go to ``_exceeds``, which builds q-th powers only in the band that bit
  lengths leave open.  Extremal screen: the gap bounds a cell's log ratio
  from above, so only the cells whose bound, widened by a proved float-error
  margin, reaches the largest estimate so far take float logs.  The extremal
  ratio is the same float as a log of every cell's exact powers would give.
* auxiliary function f(x) = (1+x)**(m*theta) - (1-1/m)*x**(m*theta-1) - 1
  is nonnegative on [0,1] for theta >= 2/m, proved for every x in [0,1]
  by one lemma: Bernoulli's inequality and x**(a-1) <= x give
  f(x) >= (a - 1 + 1/m)*x >= 0 for a = m*theta >= 2.  No grid, no sweep.
* evaluation lower bound: for lam = +/- i*m, integer theta >= 1, and the
  k_j orders, 4*|p_{k_j}(k_j**theta)|**2 >= m**(2 k_j) * k_j**(2 theta k_j (m-1))
  as exact integers (|.|**2 is the exact integer modulus squared, the same
  for both signs of lam).

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
from itertools import compress, repeat
from operator import ge, sub

from ._util import CheckResult, ParameterError, _result, format_fraction, require_degree, require_power_size
from ._util import require_theta
from .derivpoly import CoeffRows, CoeffTable, DerivPoly, _kj_orders, _modulus2, _rows_to


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


# A cell's float estimate q*(ln a - ln b) - ln f is within 2**-49 * S of its
# exact value, S = q*(la + lb + 2) + lf + 1 in the bit lengths of a, b and f
# (see ``_RatioStep``).  The cell of the largest exact log ratio then lies
# within this slack of the largest estimate while every S stays below 10**8
# (four such errors, 7.2e-7 < 1e-6): q = 1000 with coefficients of up to
# 40,000 bits, say.  Past that the slack, not the screen, limits the extremal
# ratio; the pass or fail is exact at every size.
_EXTREMAL_SLACK = 1e-6
# per unit of the magnitudes that the extremal screen's threshold sums; see ``_RatioStep``
_RATIO_MARGIN = 2.0**-40
_LN2 = math.log(2)


class _RatioStep:
    """C[k][n+1] <= C[k][n] * m * k**(m*theta) exactly, one row at a time from k = 2.

    For theta = p/q the comparison is a**q <= b**q * f with a = C[k][n+1],
    b = C[k][n] and f = m**q * k**(m*p), an exact integer statement.  The
    extremal ratio is the maximum of (ln a**q - ln(b**q * f)) / q, evaluated
    only on the cells whose float estimate comes within ``_EXTREMAL_SLACK``
    of the largest one.  A row is screened from the bit lengths la, lb, lf of
    a, b, f and the gap la - lb, with no per-cell Python work outside the
    cells the screens keep:

    * witnesses: ``_exceeds`` answers False without powers when
      q*(gap + 1) < lf, so only the cells with q*(gap + 1) >= lf go to it.
    * extremal: a < 2**la and b >= 2**(lb - 1) give
      E = q*(ln a - ln b) - ln f < q*(gap + 1)*ln 2 - ln f.  Each
      ``math.log`` of a positive int n is within 2**-50 * (bits(n) + 1) of
      ln n, and each float operation rounds by at most 2**-53 of its result,
      so the float estimate is within 2**-49 * S of E, with
      S = q*(la + lb + 2) + lf + 1.  Against the threshold T = best -
      ``_EXTREMAL_SLACK`` that a new estimate must pass, the row logs only the
      cells with gap >= g = floor((T - M + ln f) / (q*ln 2)), computed in
      floats from T.  That quotient times q*ln 2 is within
      2**-49 * (|T| + M + S) of T - M + ln f, so a cell with gap < g has an
      estimate below T + 2**-48 * (|T| + S) + 2**-49 * M - M, which is below T
      for the margin M = ``_RATIO_MARGIN`` * (S_row + |T|) = 2**-40 * (S_row +
      |T|), S_row = q*(2*lmax + 2) + lf + 1 >= S for lmax the row's largest
      bit length: a factor of 2**7 to spare, for every q and every size.
      Such a cell would not have been kept, nor moved the best, so the kept
      cells and the extremal ratio are those of logging every cell.  The
      first row has no best, so all its cells are logged.
    """

    first_k = 2

    def __init__(self, m: int, k_max: int, theta: Fraction):
        theta = Fraction(theta)
        require_theta(m, theta)
        require_power_size(theta, m, theta.denominator)  # the factors of f = m**q * k**(m*p)
        require_power_size(theta, k_max, m * theta.numerator)
        self.params = {"m": m, "k_max": k_max, "theta": format_fraction(theta)}
        self.last_k = k_max
        self.q, self.m_p, self.m_q = theta.denominator, m * theta.numerator, m**theta.denominator
        self.witnesses = []
        self.best = -math.inf
        self.near_best = []  # (estimate, a, b, f) within the slack of ``best``

    def feed(self, k: int, row: tuple) -> None:
        q = self.q
        scale = self.m_q * k**self.m_p
        lf = scale.bit_length()
        bits = list(map(int.bit_length, row))
        gaps = list(map(sub, bits[1:], bits))
        top, cells = max(gaps), range(len(gaps))
        least = -(-lf // q) - 1  # the least gap with q*(gap + 1) >= lf
        if top >= least:
            for n in compress(cells, map(ge, gaps, repeat(least))):
                if _exceeds(row[n + 1], row[n], scale, q, gaps[n], lf):
                    self.witnesses.append((k, n, row[n + 1], row[n]))
        ln_scale = math.log(scale)
        if self.best > -math.inf:
            threshold = self.best - _EXTREMAL_SLACK
            margin = _RATIO_MARGIN * (q * (2 * max(bits) + 2) + lf + 1 + abs(threshold))
            g = math.floor((threshold - margin + ln_scale) / (q * _LN2))
            cells = compress(cells, map(ge, gaps, repeat(g))) if top >= g else ()
        for n in cells:
            a, b = row[n + 1], row[n]
            estimate = q * (math.log(a) - math.log(b)) - ln_scale
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

    With la, lb, lf the bit lengths of a, b, f, ``gap`` is la - lb and ``lf``
    is the bit length of f.  a**q >= 2**(q*(la-1)) and b**q * f < 2**(q*lb + lf), so
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
    integer and |p_k|**2 (``derivpoly._modulus2``) an exact integer, the same for
    lam = +i*m and lam = -i*m; the params keep lambda_sign 1.  The extremal
    ratio is the least ratio of the two sides' square roots.
    """

    def __init__(self, m: int, theta: int | Fraction, j_max: int):
        if not isinstance(theta, (int, Fraction)) or theta.denominator != 1 or theta < 1:
            raise ParameterError("theta must be a positive integer for exact evaluation")
        theta, entries = _kj_orders(m, theta, j_max)
        require_power_size(theta, entries[-1], 2 * theta * entries[-1] * (m - 1))
        self.j_at = {k: j for j, k in enumerate(entries, start=1)}
        self.first_k, self.last_k = entries[0], entries[-1]
        self.m, self.theta = m, theta
        self.params = {"m": m, "lambda_sign": 1, "theta": theta, "j_max": j_max}
        self.witnesses, self.min_log_ratio = [], None

    def feed(self, k: int, row: tuple) -> None:
        j = self.j_at.get(k)
        if j is None:
            return
        m, theta = self.m, self.theta
        lhs = 4 * _modulus2(DerivPoly(m=m, k=k, coeffs=row), k**theta)
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
    ``check_lower_bound(m, theta, j_max)``, all from one walk of rows 1..max(k_max, k_{j_max}).

    The walk is sized here, by the checks that read it: it is ``coeff_rows``
    without a ``table``, and a ``table`` must reach that order.
    """
    require_degree(m)
    steps = [_Ck1Step(m, k_max), _Ck2Step(m, k_max), _RatioStep(m, k_max, theta)]
    if j_max is not None:
        steps.append(_LowerBoundStep(m, theta, j_max))
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
    theta: int | Fraction,
    j_max: int,
    table: CoeffTable | CoeffRows | None = None,
) -> CheckResult:
    """4*|p_{k_j}(k_j**theta)|**2 >= m**(2 k_j) * k_j**(2 theta k_j (m-1)), exactly,
    for lam = +i*m and lam = -i*m alike: |p_k| does not depend on the sign.

    theta must equal a positive integer so that the evaluation point is an
    integer and the modulus squared is an exact integer.  The k_j
    construction invariants are re-asserted by kj_sequence itself.  A
    ``table`` must reach k_{j_max}; without one the rows are walked.
    """
    step = _LowerBoundStep(m, theta, j_max)
    return _walk(_rows_to(m, step.last_k, table), step)[0]
