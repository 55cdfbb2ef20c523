import hashlib
import re
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
from gsmult._util import format_fraction
from gsmult.precision import ParameterError

from conftest import traced_peak


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
        assert classify_multiplier(base._replace(d=2)).verdict is Verdict.UNKNOWN

    def test_monomial_rule_requires_monomial_mode(self):
        gap = q(F(1, 2), F(1, 2), 4, Space.ROUMIEU)
        assert classify_multiplier(gap).verdict is Verdict.UNKNOWN
        assert classify_multiplier(gap._replace(mode=Mode.PURE_MONOMIAL)).verdict is Verdict.NOT_CONTINUOUS

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

    @pytest.mark.xfail(strict=True, reason="the dashed line s = m*theta - 1 is drawn for theta > 1 too")
    def test_svg_dashed_strip_edge_ends_at_theta_one(self):
        # the strip's upper edge is m*theta - max(theta, 1), which for theta > 1 is the solid wedge
        # edge (m-1)*theta; at m = 2, (theta, s) = (3/2, 7/4) lies between the two lines and is Continuous
        grid = GridSpec(F(1, 20), F(2), F(1, 20), F(1, 20), F(4), F(1, 20))  # the CLI's default box
        (x2,) = re.findall(r'<line [^>]*x2="([0-9.]+)"[^>]*stroke-dasharray', render_region_svg(2, Space.ROUMIEU, grid))
        t_lo, t_hi = grid.theta_start, grid.theta_stop + grid.theta_step
        assert float(t_lo) + (float(x2) - 60) / 520 * float(t_hi - t_lo) <= 1 + 1e-3

    def test_rejects_unknown_format(self, tmp_path):
        grid = GridSpec(F(1), F(1), F(1), F(1), F(1), F(1))
        with pytest.raises(ValueError):
            emit_region_grid(2, Space.ROUMIEU, grid, "png", tmp_path / "x.png")
        assert not (tmp_path / "x.png").exists()

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_written_file_is_the_rendered_text(self, tmp_path, m):
        grid = GridSpec(F(1, 6), F(2), F(1, 6), F(1, 5), F(3), F(1, 5))
        for space in Space:
            for mode in Mode:
                for fmt, render in (("csv", render_region_csv), ("svg", render_region_svg)):
                    path = emit_region_grid(m, space, grid, fmt, tmp_path / ("r." + fmt), mode)
                    assert path.read_bytes() == render(m, space, grid, mode).encode()

    def test_writer_holds_one_column(self, tmp_path):
        # the b3 grid of the benchmark: 200 theta columns of 400 cells, a 5.9 MB file
        grid = GridSpec(F(1, 100), F(2), F(1, 100), F(1, 100), F(4), F(1, 100))
        path = tmp_path / "b3.svg"
        _, peak = traced_peak(lambda: emit_region_grid(3, Space.BEURLING, grid, "svg", path, Mode.PURE_MONOMIAL))
        size = path.stat().st_size
        assert size > 5_000_000
        assert peak < size / 10

    @pytest.mark.parametrize("region", [render_region_csv, render_region_svg, audit_rule_disjointness])
    def test_region_paths_reject_degree_below_two(self, region):
        grid = GridSpec(F(1), F(1), F(1), F(1), F(1), F(1))
        with pytest.raises(ParameterError):
            region(1, Space.ROUMIEU, grid)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(F(0), F(1), F(1), F(1), F(1), F(1))
        with pytest.raises(ValueError):
            GridSpec(F(1), F(1), F(-1), F(1), F(1), F(1))
        with pytest.raises(ValueError):
            GridSpec(F(2), F(1), F(1), F(1), F(1), F(1))


def reference_verdict(theta, s, m, space, mode=Mode.GENERAL_POLYNOMIAL, d=1):
    """Rules (a)-(e) of the ``gsmult.wedge`` docstring, as literal 2-D predicates."""
    beurling = space is Space.BEURLING
    if (s + theta <= 1) if beurling else (s + theta < 1):  # (a)
        return Verdict.TRIVIAL_SPACE, "nontrivial-threshold", False
    if s >= (m - 1) * theta and (m - 1) * theta >= 1:  # (b)
        if beurling and theta == F(1, m - 1) and s == 1:
            return Verdict.UNKNOWN, "open-boundary-point", True
        return Verdict.CONTINUOUS, "continuity-wedge", False
    if d == 1:
        upper = m * theta - max(theta, 1)
        if beurling:  # (c)
            in_strip = 1 < s < upper and (m != 3 or theta > 1)
        else:
            in_strip = 1 <= s < upper and (m != 3 or theta >= 1)
        if in_strip:
            return Verdict.NOT_CONTINUOUS, "discontinuity-strip", False
        if mode is Mode.PURE_MONOMIAL and 0 < s < (m - 1) * theta and theta >= F(2, m):  # (d)
            return Verdict.NOT_CONTINUOUS, "monomial-criterion", False
    return Verdict.UNKNOWN, "", False  # (e)


def boundary_points(m):
    """Points on and beside every rule boundary for degree m."""
    eps = F(1, 997)
    corner = F(1, m - 1)
    thetas = {F(1, 4), F(1, 2), F(3, 2), F(2)}
    for t in (F(1), F(2, m), corner):
        thetas.update((t - eps, t, t + eps))
    points = {(corner, F(1)), (corner, 1 - eps), (corner, 1 + eps)}
    for theta in thetas:
        for s in (1 - theta, (m - 1) * theta, F(1), m * theta - max(theta, 1), F(1, 2), F(3)):
            points.update((theta, s + e) for e in (-eps, 0, eps))
    return sorted((theta, s) for theta, s in points if theta > 0 and s > 0)


small_rationals = st.one_of(
    st.fractions(min_value=F(1, 12), max_value=4, max_denominator=12), positive_rationals
)


class TestReferenceRules:
    """The interval rules agree with the docstring's rules stated cell by cell."""

    @given(
        theta=small_rationals,
        s=small_rationals,
        m=st.integers(2, 6),
        space=st.sampled_from(list(Space)),
        mode=st.sampled_from(list(Mode)),
        d=st.sampled_from([1, 2]),
    )
    @settings(max_examples=500)
    def test_point_queries_match(self, theta, s, m, space, mode, d):
        v = classify_multiplier(WedgeQuery(theta=theta, s=s, m=m, space=space, d=d, mode=mode))
        assert (v.verdict, v.citation, v.boundary_excluded) == reference_verdict(theta, s, m, space, mode, d)

    @pytest.mark.parametrize("m", range(2, 7))
    def test_boundary_points_match(self, m):
        for theta, s in boundary_points(m):
            for space in Space:
                for mode in Mode:
                    for d in (1, 2):
                        v = classify_multiplier(WedgeQuery(theta=theta, s=s, m=m, space=space, d=d, mode=mode))
                        got = (v.verdict, v.citation, v.boundary_excluded)
                        assert got == reference_verdict(theta, s, m, space, mode, d), (theta, s, space, mode, d)

    @pytest.mark.parametrize("m", range(2, 7))
    def test_grid_csv_matches(self, m):
        # every boundary line of rules (a)-(d), and the corner, lies on this grid for m <= 6
        grid = GridSpec(F(1, 60), F(3, 2), F(1, 60), F(1, 60), F(5, 2), F(1, 60))
        for space in Space:
            for mode in Mode:
                lines = ["theta,s,verdict,citation"]
                for theta in grid.theta_values():
                    for s in grid.s_values():
                        verdict, citation, _ = reference_verdict(theta, s, m, space, mode)
                        lines.append("%s,%s,%s,%s" % (format_fraction(theta), format_fraction(s), verdict.value, citation))
                assert render_region_csv(m, space, grid, mode) == "\n".join(lines) + "\n"


# sha256 of the demo-grid files, pinned from the per-cell classifier they replaced
GOLDEN_DIGESTS = {
    (2, Space.ROUMIEU): (
        "bb639537c765243c64bba5b73df4556adba6a7c847ca59e5206c8da92acc6afa",
        "afdcf6b3a679e3a03e52c89b8b4efc42264b2362d833f04e318e01570be68b62",
    ),
    (2, Space.BEURLING): (
        "f19e5c55d16108d3256b8bd6f92f4a11078555498fc703ba04d2798842aa4a06",
        "fd79cb34023773e8dcf1abcbaea9829325a320ab86dd5433bd749a5dde8701da",
    ),
    (3, Space.ROUMIEU): (
        "e173ad5bd5d1904852491bf1256fdb17678b1d1b7dd11b31d9afd0df4e33e92c",
        "d90ec1ea9c5480e4d41cb52143f0d0cc201206639f419ff3938a00c2b0e81967",
    ),
    (3, Space.BEURLING): (
        "49cf1fd182ea1db8d7b8064155c54244b39f0ddf15d95c15c0415601289b79d4",
        "0aff5a2e816c5b8db2afde7b31a2316ed6e8223cd39db742373631ee7964aa2c",
    ),
    (4, Space.ROUMIEU): (
        "881c3f4e1caab72429f6a4bc3dab632a7d4c5224d83389d519cef7c94f463d8c",
        "eb4bab4f844ad4f924388106c51a0b05dc38b08918680754f23938d545b68f82",
    ),
    (4, Space.BEURLING): (
        "98ef66ba12b783f8497c24e9d357ddbc7fb29fb41e689a7dde9fecf39a41b442",
        "be5456811cc96429ed5668585c808e868dd73087a7e810cf1370a8baa9f80cd1",
    ),
}


@pytest.mark.parametrize("m, space", list(GOLDEN_DIGESTS))
def test_region_files_keep_their_bytes(m, space):
    grid = GridSpec(F(1, 20), F(2), F(1, 20), F(1, 20), F(4), F(1, 20))
    csv = render_region_csv(m, space, grid, Mode.PURE_MONOMIAL)
    svg = render_region_svg(m, space, grid, Mode.PURE_MONOMIAL)
    digests = (hashlib.sha256(csv.encode()).hexdigest(), hashlib.sha256(svg.encode()).hexdigest())
    assert digests == GOLDEN_DIGESTS[(m, space)]
