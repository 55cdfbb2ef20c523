"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not calibrated elsewhere.
"""

import random
from fractions import Fraction as F

from mpmath import mp

from gsmult.derivpoly import kj_sequence
from gsmult.gsfunc import bracket_eval, gs_derivative_series
from gsmult.identities import (
    check_ck1_closed_form,
    check_ck2_bound,
    check_floor_identities,
    check_lower_bound,
    check_ratio_bound,
)
from gsmult.oracle import certify, hermite_oracle
from gsmult.probe import ProbeConfig, criterion_check, estimate_rate, probe_series
from gsmult.wedge import (
    GridSpec,
    Mode,
    Operator,
    Space,
    Verdict,
    WedgeQuery,
    audit_rule_disjointness,
    classify,
    render_region_csv,
    render_region_svg,
)

from conftest import get_table, result_bits


def report(number, passed, text):
    print("[criterion %02d] %s - %s" % (number, "PASS" if passed else "FAIL", text))
    assert passed, text


def test_criterion_01_oracle_equivalence():
    ok = True
    for m in (2, 3, 4, 5, 6):
        ok = ok and certify(get_table(m, 25)).certified
    report(1, ok, "table == generating-function oracle == symbolic oracle, m in 2..6, k <= 25")


def test_criterion_02_hermite_equivalence():
    table = get_table(2, 50)
    ok = True
    for k in range(1, 51):
        oracle_row = hermite_oracle(k)
        ok = ok and dict(enumerate(table.row(k))) == oracle_row
    report(2, ok, "m = 2 rows equal k!/(2^n n! (k-2n)!) from the Hermite recurrence, k <= 50")


def test_criterion_03_ck1_closed_form():
    ok = all(check_ck1_closed_form(get_table(m, 200)).passed for m in range(2, 7))
    report(3, ok, "C[k][1] = (m-1)k(k-1)/2 exactly, m <= 6, 2 <= k <= 200")


def test_criterion_04_ck2_bound():
    ok = all(check_ck2_bound(get_table(m, 300)).passed for m in range(2, 7))
    report(4, ok, "2*C[k][2] <= m^2 k^4 exactly, m <= 6, 4 <= k <= 300")


def test_criterion_05_ratio_bound():
    ok = True
    for m in range(2, 7):
        table = get_table(m, 100)
        for theta in (F(2, m), F(1)):
            ok = ok and check_ratio_bound(table, theta).passed
    report(5, ok, "C[k][n+1] <= C[k][n] m k^(m theta) via exact q-th powers, theta in {2/m, 1}, k <= 100")


def test_criterion_06_evaluation_lower_bound():
    ok = True
    for m, theta in ((2, 1), (3, 1), (4, 1), (2, 2)):
        k_top = kj_sequence(m, 4).k(4)
        result = check_lower_bound(m, theta, 4, table=get_table(m, k_top))
        ok = ok and result.passed
    report(6, ok, "4|p(k_j^theta)|^2 >= m^(2k_j) k_j^(2 theta k_j (m-1)) exactly, plus k_j invariants")


def test_criterion_07_floor_identities():
    ok = all(check_floor_identities(m, 10**4).passed for m in range(2, 11))
    report(7, ok, "floor-step identities exhaustively, m <= 10, k <= 10^4")


def _fd_check(series, points):
    """Central differences at step 2**-20 of the orders 0..9 of ``series(k_max, x)`` against order k+1
    at each point, to relative error 1e-4, all at 300 bits."""
    h = F(1, 2**20)
    ok = True
    with mp.workprec(300), result_bits(300):
        inv_step = mp.mpf(2) ** 20
        for x in points:
            lo = series(10, x - h)
            hi = series(10, x + h)
            mid = series(11, x)
            for k in range(10):
                fd = (hi[k] - lo[k]) * inv_step / 2
                target = mid[k + 1]
                if target == 0:
                    continue
                if abs(fd - target) > abs(target) * mp.mpf(10) ** -4:
                    ok = False
    return ok


def test_criterion_08_finite_difference_consistency():
    rng = random.Random(20250810)
    ok = True
    for t in (1, -1, F(5, 2), F(1, 3)):
        points = [F(rng.randint(-320, 320), 64) for _ in range(20)]
        ok = ok and _fd_check(lambda k_max, x: [bracket_eval(t, k, x) for k in range(k_max + 1)], points)
    for theta in (F(1, 2), F(1), F(2)):
        points = [F(rng.randint(8, 320), 64) for _ in range(20)]
        ok = ok and _fd_check(lambda k_max, x: gs_derivative_series(theta, k_max, x), points)
    report(8, ok, "central differences at step 2^-20 match next-order values to rel. err < 1e-4")


def test_criterion_09_growth_probe_rates():
    cfg_a = ProbeConfig(m=2, theta=F(2), nu=F(2), k_values=tuple(range(1, 51)))
    rate_a = float(estimate_rate(probe_series(cfg_a, table=get_table(2, 50)), 0.5))
    ok_a = 1.7 <= rate_a <= 2.1

    kj = [k for k in kj_sequence(3, 5).entries if k <= 30]
    cfg_b = ProbeConfig(m=3, theta=F(1), nu=F(1), k_values=tuple(kj))
    rate_b = float(estimate_rate(probe_series(cfg_b, table=get_table(3, 30)), 1.0, min_records=5))
    ok_b = 1.7 <= rate_b <= 2.2

    report(
        9,
        ok_a and ok_b,
        "fitted rates: (m,theta)=(2,2) k<=50 gives %.4f in [1.7,2.1]; (3,1) along k_j<=30 gives %.4f in [1.7,2.2]"
        % (rate_a, rate_b),
    )


def test_criterion_10_multiplier_criterion():
    r1 = criterion_check(2, 1, F(1, 2), 4, table=get_table(2, 32))
    r2 = criterion_check(3, 1, F(1), 4, table=get_table(3, 24))
    report(10, r1.passed and r2.passed, "Delta(j) strictly increasing with superlinear spread, both configs")


TRUTH_TABLE = [
    (F(1), F(1), 2, Space.ROUMIEU, {}, Verdict.CONTINUOUS, False),
    (F(1, 2), F(3), 3, Space.ROUMIEU, {}, Verdict.CONTINUOUS, False),
    (F(1), F(1), 2, Space.BEURLING, {}, Verdict.UNKNOWN, True),
    (F(1, 3), F(1), 4, Space.BEURLING, {}, Verdict.UNKNOWN, True),
    (F(2), F(1), 2, Space.ROUMIEU, {}, Verdict.NOT_CONTINUOUS, False),
    (F(2), F(3, 2), 2, Space.BEURLING, {}, Verdict.NOT_CONTINUOUS, False),
    (F(1, 3), F(1, 2), 2, Space.ROUMIEU, {}, Verdict.TRIVIAL_SPACE, False),
    (F(2, 5), F(3, 5), 2, Space.BEURLING, {}, Verdict.TRIVIAL_SPACE, False),
    (F(1, 2), F(5, 4), 4, Space.ROUMIEU, {}, Verdict.UNKNOWN, False),
    (F(1, 2), F(5, 4), 4, Space.ROUMIEU, {"mode": Mode.PURE_MONOMIAL}, Verdict.NOT_CONTINUOUS, False),
    (F(1), F(2), 2, Space.ROUMIEU, {"operator": Operator.PROPAGATOR}, Verdict.NOT_CONTINUOUS, False),
    (F(5, 6), F(1), 3, Space.ROUMIEU, {}, Verdict.UNKNOWN, False),
]


def test_criterion_11_wedge_classifier():
    table_ok = True
    for theta, s, m, space, extra, expected, excluded in TRUTH_TABLE:
        verdict = classify(WedgeQuery(theta=theta, s=s, m=m, space=space, **extra))
        table_ok = table_ok and verdict.verdict is expected and verdict.boundary_excluded is excluded

    grid = GridSpec(F(1, 25), F(4), F(1, 25), F(1, 25), F(4), F(1, 25))  # 100 x 100 cells
    audit_ok = True
    for space in Space:
        for mode in Mode:
            audit_ok = audit_ok and audit_rule_disjointness(4, space, grid, mode=mode).passed

    fig_grid = GridSpec(F(1, 10), F(2), F(1, 10), F(1, 10), F(4), F(1, 10))
    det_ok = all(
        render(4, Space.BEURLING, fig_grid) == render(4, Space.BEURLING, fig_grid)
        for render in (render_region_csv, render_region_svg)
    )

    report(
        11,
        table_ok and audit_ok and det_ok,
        "12-point truth table, zero rule conflicts over 10^4 cells, byte-deterministic emission",
    )
