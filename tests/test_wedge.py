from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsmult.wedge import (
    GridSpec,
    Mode,
    Operator,
    Space,
    Verdict,
    WedgeQuery,
    WedgeVerdict,
    audit_rule_disjointness,
    classify,
    classify_multiplier,
    classify_propagator,
    emit_region_grid,
    render_region_csv,
    render_region_svg,
)


def q(theta, s, m, space, **kw):
    return WedgeQuery(theta=F(theta), s=F(s), m=m, space=space, **kw)


# (theta, s, m, space, extra-kwargs, expected verdict, expects-excluded-flag)
TRUTH_TABLE = [
    (F(1), F(1), 2, Space.ROUMIEU, {}, Verdict.CONTINUOUS, False),
    (F(1, 2), F(3), 3, Space.ROUMIEU, {}, Verdict.CONTINUOUS, False),
    (F(1), F(1), 2, Space.BEURLING, {}, Verdict.UNKNOWN, True),  # (1/(m-1), 1) corner
    (F(1, 3), F(1), 4, Space.BEURLING, {}, Verdict.UNKNOWN, True),
    (F(2), F(1), 2, Space.ROUMIEU, {}, Verdict.NOT_CONTINUOUS, False),
    (F(2), F(3, 2), 2, Space.BEURLING, {}, Verdict.NOT_CONTINUOUS, False),
    (F(1, 3), F(1, 2), 2, Space.ROUMIEU, {}, Verdict.TRIVIAL_SPACE, False),
    (F(2, 5), F(3, 5), 2, Space.BEURLING, {}, Verdict.TRIVIAL_SPACE, False),  # s+theta = 1
    (F(1, 2), F(5, 4), 4, Space.ROUMIEU, {}, Verdict.UNKNOWN, False),  # gap region
    (F(1, 2), F(5, 4), 4, Space.ROUMIEU, {"mode": Mode.PURE_MONOMIAL}, Verdict.NOT_CONTINUOUS, False),
    (F(1), F(2), 2, Space.ROUMIEU, {"operator": Operator.PROPAGATOR}, Verdict.NOT_CONTINUOUS, False),
    (F(5, 6), F(1), 3, Space.ROUMIEU, {}, Verdict.UNKNOWN, False),  # m=3 needs theta >= 1
]


class TestTruthTable:
    @pytest.mark.parametrize("theta,s,m,space,extra,expected,excluded", TRUTH_TABLE)
    def test_hand_coded_points(self, theta, s, m, space, extra, expected, excluded):
        verdict = classify(q(theta, s, m, space, **extra))
        assert verdict.verdict is expected
        assert verdict.boundary_excluded is excluded

    def test_identity_propagator(self):
        query = q(F(1, 3), F(1, 2), 5, Space.ROUMIEU, operator=Operator.PROPAGATOR, t_nonzero=False)
        verdict = classify(query)
        assert verdict.verdict is Verdict.CONTINUOUS
        assert verdict.citation == "identity-operator"

    def test_propagator_continuous_case(self):
        query = q(1, 1, 2, Space.ROUMIEU, operator=Operator.PROPAGATOR)
        assert classify(query).verdict is Verdict.CONTINUOUS


class TestRules:
    def test_beurling_strip_needs_strict_s(self):
        assert classify_multiplier(q(2, 1, 2, Space.BEURLING)).verdict is Verdict.UNKNOWN
        assert classify_multiplier(q(2, F(3, 2), 2, Space.BEURLING)).verdict is Verdict.NOT_CONTINUOUS

    def test_m3_beurling_needs_strict_theta(self):
        assert classify_multiplier(q(1, F(3, 2), 3, Space.BEURLING)).verdict is Verdict.UNKNOWN
        assert classify_multiplier(q(F(11, 10), F(3, 2), 3, Space.BEURLING)).verdict is Verdict.NOT_CONTINUOUS

    def test_dimension_gates_negative_results(self):
        base = q(2, 1, 2, Space.ROUMIEU)
        assert classify_multiplier(base).verdict is Verdict.NOT_CONTINUOUS
        assert classify_multiplier(replace(base, d=2)).verdict is Verdict.UNKNOWN

    def test_monomial_rule_requires_monomial_mode(self):
        gap = q(F(1, 2), F(1, 2), 4, Space.ROUMIEU)
        assert classify_multiplier(gap).verdict is Verdict.UNKNOWN
        assert classify_multiplier(replace(gap, mode=Mode.PURE_MONOMIAL)).verdict is Verdict.NOT_CONTINUOUS

    def test_monomial_rule_respects_two_over_m(self):
        at_threshold = q(F(1, 2), F(3, 5), 4, Space.ROUMIEU, mode=Mode.PURE_MONOMIAL)
        assert classify_multiplier(at_threshold).verdict is Verdict.NOT_CONTINUOUS
        below = q(F(9, 20), F(3, 5), 4, Space.ROUMIEU, mode=Mode.PURE_MONOMIAL)
        assert classify_multiplier(below).verdict is Verdict.UNKNOWN

    def test_verdict_requires_citation_when_decided(self):
        with pytest.raises(ValueError):
            WedgeVerdict(Verdict.CONTINUOUS, "")

    def test_query_validation(self):
        with pytest.raises(ValueError):
            WedgeQuery(theta=F(0), s=F(1), m=2, space=Space.ROUMIEU)
        with pytest.raises(ValueError):
            WedgeQuery(theta=F(1), s=F(1), m=1, space=Space.ROUMIEU)


positive_rationals = st.fractions(min_value=F(1, 100), max_value=6)


class TestProperties:
    @given(theta=positive_rationals, s=positive_rationals, m=st.integers(2, 6))
    @settings(max_examples=300)
    def test_propagator_duality(self, theta, s, m):
        for space in Space:
            direct = classify_propagator(
                WedgeQuery(theta=theta, s=s, m=m, space=space, operator=Operator.PROPAGATOR)
            )
            swapped = classify_multiplier(WedgeQuery(theta=s, s=theta, m=m, space=space))
            assert direct.verdict is swapped.verdict
            assert direct.boundary_excluded == swapped.boundary_excluded

    @given(
        theta=positive_rationals,
        s=positive_rationals,
        bump=st.fractions(min_value=0, max_value=4),
        m=st.integers(2, 6),
    )
    @settings(max_examples=300)
    def test_continuity_upward_closed_in_s(self, theta, s, bump, m):
        for space in Space:
            first = classify_multiplier(WedgeQuery(theta=theta, s=s, m=m, space=space))
            if first.verdict is Verdict.CONTINUOUS:
                later = classify_multiplier(WedgeQuery(theta=theta, s=s + bump, m=m, space=space))
                assert later.verdict is Verdict.CONTINUOUS

    @given(theta=positive_rationals, s=positive_rationals, m=st.integers(2, 6))
    @settings(max_examples=300)
    def test_exactly_one_rule_fires(self, theta, s, m):
        for space in Space:
            for mode in Mode:
                v = classify_multiplier(WedgeQuery(theta=theta, s=s, m=m, space=space, mode=mode))
                if v.verdict is Verdict.UNKNOWN:
                    assert v.citation in ("", "open-boundary-point")
                else:
                    assert v.citation


class TestAudit:
    def test_disjoint_on_fine_grid(self):
        grid = GridSpec(F(1, 25), F(4), F(4, 25), F(1, 25), F(6), F(6, 25))
        for space in Space:
            for mode in Mode:
                result = audit_rule_disjointness(3, space, grid, mode=mode)
                assert result.passed

    def test_gap_points_exist_for_m4(self):
        # between the strip's upper edge and the wedge edge for theta < 1
        grid = GridSpec(F(1, 8), F(1), F(1, 8), F(1, 8), F(3), F(1, 8))
        rows = render_region_csv(4, Space.ROUMIEU, grid).splitlines()[1:]
        gap = []
        for row in rows:
            theta_s, s_s, verdict, _ = row.split(",")
            theta, s = F(theta_s), F(s_s)
            if verdict == "Unknown" and 4 * theta - max(theta, 1) <= s < 3 * theta:
                gap.append((theta, s))
        assert gap


class TestEmission:
    def test_csv_deterministic(self, tmp_path):
        grid = GridSpec(F(1, 4), F(2), F(1, 4), F(1, 4), F(3), F(1, 4))
        a = emit_region_grid(4, Space.BEURLING, grid, "csv", tmp_path / "a.csv")
        b = emit_region_grid(4, Space.BEURLING, grid, "csv", tmp_path / "b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_single_cell_csv(self, tmp_path):
        grid = GridSpec(F(1), F(1), F(1), F(1), F(1), F(1))
        path = emit_region_grid(2, Space.ROUMIEU, grid, "csv", tmp_path / "one.csv")
        lines = path.read_text().splitlines()
        assert lines == ["theta,s,verdict,citation", "1,1,Continuous,continuity-wedge"]

    def test_svg_structure(self):
        grid = GridSpec(F(1, 8), F(1), F(1, 8), F(1, 8), F(2), F(1, 8))
        svg = render_region_svg(3, Space.BEURLING, grid)
        assert svg.startswith("<svg ")
        assert svg.count("<line ") == 2  # the two boundary lines
        assert "<circle " in svg  # excluded point (1/2, 1) in range
        svg_roumieu = render_region_svg(3, Space.ROUMIEU, grid)
        assert "<circle " not in svg_roumieu

    def test_svg_deterministic(self):
        grid = GridSpec(F(1, 8), F(1), F(1, 8), F(1, 8), F(2), F(1, 8))
        assert render_region_svg(4, Space.BEURLING, grid) == render_region_svg(4, Space.BEURLING, grid)

    def test_rejects_unknown_format(self, tmp_path):
        grid = GridSpec(F(1), F(1), F(1), F(1), F(1), F(1))
        with pytest.raises(ValueError):
            emit_region_grid(2, Space.ROUMIEU, grid, "png", tmp_path / "x.png")

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(F(0), F(1), F(1), F(1), F(1), F(1))
        with pytest.raises(ValueError):
            GridSpec(F(1), F(1), F(-1), F(1), F(1), F(1))
        with pytest.raises(ValueError):
            GridSpec(F(2), F(1), F(1), F(1), F(1), F(1))
