"""Classification of (theta, s) parameter points for the multiplier
exp(i*q(x)) with deg q = m, and for the conjugate propagator, on the
Roumieu/Beurling function space scales.

All comparisons are exact rational, so open/closed boundaries are decided,
never fuzzy.  The decision rules, applied in order:

(a) triviality: the Roumieu-type space is nonzero iff s + theta >= 1, the
    Beurling-type space iff s + theta > 1; otherwise the question is empty
    and the verdict is TrivialSpace.
(b) continuity wedge: s >= (m-1)*theta and (m-1)*theta >= 1 gives
    Continuous -- except the single Beurling corner point
    (theta, s) = (1/(m-1), 1), which is genuinely open and returns Unknown
    with boundary_excluded set.
(c) discontinuity strip (dimension one only): Roumieu when
    1 <= s < m*theta - max(theta, 1) (and theta >= 1 if m = 3); Beurling
    when 1 < s < m*theta - max(theta, 1) (and theta > 1 if m = 3).
(d) pure-monomial criterion (dimension one only): when the phase is exactly
    +/- x**m, additionally NotContinuous for 0 < s < (m-1)*theta with
    theta >= 2/m.
(e) anything else is Unknown: the strip's upper edge m*theta - max(theta,1)
    sits strictly below the wedge edge (m-1)*theta when theta < 1, and the
    gap between them is genuinely undecided, as is the excluded corner.

The rules live in code only in ``_column_rules``, as exact s-intervals at
one theta (the max(theta, 1) kink, the m = 3 side conditions and the
Beurling corner are settled per column).  The point query, the grids and
the disjointness audit all read them through ``_paint``, which bisects a
sorted column of s values once per rule and returns the column as runs of
cells that share a verdict; the files are written a run at a time.

Verdicts depend on the polynomial only through its degree m, so no
coefficients are modeled.  The propagator exp(-i*t*p(D)) is the Fourier
conjugate of a multiplier, which swaps the roles of theta and s; t = 0 is
the identity and always continuous.

Rule identifiers (the ``citation`` strings) are stable output, used in CSV:
"nontrivial-threshold", "continuity-wedge", "open-boundary-point",
"discontinuity-strip", "monomial-criterion", "identity-operator", and the
"index-swap:" prefix for propagator verdicts.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path

from ._util import CheckResult, ParameterError, Record, _result, format_fraction, require_degree


class Space(enum.Enum):
    ROUMIEU = "roumieu"
    BEURLING = "beurling"


class Mode(enum.Enum):
    GENERAL_POLYNOMIAL = "general_polynomial"
    PURE_MONOMIAL = "pure_monomial"


class Operator(enum.Enum):
    MULTIPLIER = "multiplier"
    PROPAGATOR = "propagator"


class Verdict(enum.Enum):
    CONTINUOUS = "Continuous"
    NOT_CONTINUOUS = "NotContinuous"
    TRIVIAL_SPACE = "TrivialSpace"
    UNKNOWN = "Unknown"


class WedgeQuery(Record):
    theta: Fraction
    s: Fraction
    m: int
    space: Space
    d: int = 1
    mode: Mode = Mode.GENERAL_POLYNOMIAL
    operator: Operator = Operator.MULTIPLIER
    t_nonzero: bool = True

    def __post_init__(self):
        theta = Fraction(self.theta)
        s = Fraction(self.s)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "s", s)
        if theta <= 0 or s <= 0:
            raise ParameterError("theta and s must be positive")
        require_degree(self.m)
        if self.d < 1:
            raise ParameterError("dimension must be >= 1")


class WedgeVerdict(Record):
    verdict: Verdict
    citation: str
    boundary_excluded: bool = False

    def __post_init__(self):
        if self.verdict is not Verdict.UNKNOWN and not self.citation:
            raise ValueError("decided verdicts require a citation")


_TRIVIAL = WedgeVerdict(Verdict.TRIVIAL_SPACE, "nontrivial-threshold")
_CORNER = WedgeVerdict(Verdict.UNKNOWN, "open-boundary-point", boundary_excluded=True)
_WEDGE = WedgeVerdict(Verdict.CONTINUOUS, "continuity-wedge")
_STRIP = WedgeVerdict(Verdict.NOT_CONTINUOUS, "discontinuity-strip")
_MONOMIAL = WedgeVerdict(Verdict.NOT_CONTINUOUS, "monomial-criterion")
_UNKNOWN = WedgeVerdict(Verdict.UNKNOWN, "")


def _column_rules(theta: Fraction, m: int, space: Space, mode: Mode, d: int) -> list[tuple]:
    """Rules (a)-(d) at one theta, in order, as s-intervals
    ``(lo, lo_open, hi, hi_open, verdict)``; ``hi`` is None when unbounded
    and an interval may be empty.  The first rule holding s decides."""
    require_degree(m)
    roumieu = space is Space.ROUMIEU
    edge = (m - 1) * theta
    rules = [(0, True, 1 - theta, roumieu, _TRIVIAL)]
    if edge >= 1:
        if not roumieu and edge == 1:
            rules.append((1, False, 1, False, _CORNER))
        rules.append((edge, False, None, False, _WEDGE))
    if d == 1:
        if m != 3 or theta > 1 or (roumieu and theta == 1):
            rules.append((1, not roumieu, m * theta - max(theta, 1), True, _STRIP))
        if mode is Mode.PURE_MONOMIAL and m * theta >= 2:
            rules.append((0, True, edge, True, _MONOMIAL))
    return rules


def _paint(rules: list[tuple], svals: list[Fraction]) -> list[tuple]:
    """The ascending list ``svals`` as sorted runs ``(i, j, verdict)`` that
    partition its indices: ``svals[i:j]`` take the verdict of the first rule
    whose interval holds them, else Unknown (rule (e))."""
    spans = []
    for lo, lo_open, hi, hi_open, verdict in rules:
        i = (bisect_right if lo_open else bisect_left)(svals, lo)
        j = len(svals) if hi is None else (bisect_left if hi_open else bisect_right)(svals, hi)
        spans.append((i, j, verdict))
    spans.append((0, len(svals), _UNKNOWN))
    cuts = sorted({end for i, j, _ in spans for end in (i, j)})
    return [(a, b, next(v for i, j, v in spans if i <= a and b <= j)) for a, b in zip(cuts, cuts[1:])]


def classify_multiplier(q: WedgeQuery) -> WedgeVerdict:
    """Verdict for the multiplier operator; rules applied in the order above."""
    ((_, _, verdict),) = _paint(_column_rules(q.theta, q.m, q.space, q.mode, q.d), [q.s])
    return verdict


def classify_propagator(q: WedgeQuery) -> WedgeVerdict:
    """Verdict for the propagator: identity when t = 0, index swap otherwise."""
    if not q.t_nonzero:
        return WedgeVerdict(Verdict.CONTINUOUS, "identity-operator")
    swapped = q._replace(theta=q.s, s=q.theta, operator=Operator.MULTIPLIER)
    inner = classify_multiplier(swapped)
    citation = "index-swap:%s" % inner.citation if inner.citation else ""
    return WedgeVerdict(inner.verdict, citation, inner.boundary_excluded)


def classify(q: WedgeQuery) -> WedgeVerdict:
    if q.operator is Operator.PROPAGATOR:
        return classify_propagator(q)
    return classify_multiplier(q)


class GridSpec(Record):
    """Rational rectangular grid over the (theta, s) quadrant, endpoints included."""

    theta_start: Fraction
    theta_stop: Fraction
    theta_step: Fraction
    s_start: Fraction
    s_stop: Fraction
    s_step: Fraction

    def __post_init__(self):
        for name in ("theta_start", "theta_stop", "theta_step", "s_start", "s_stop", "s_step"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.theta_start <= 0 or self.s_start <= 0:
            raise ParameterError("grid must stay in the open positive quadrant")
        if self.theta_step <= 0 or self.s_step <= 0:
            raise ParameterError("grid steps must be positive")
        if self.theta_stop < self.theta_start or self.s_stop < self.s_start:
            raise ParameterError("grid stop must not precede start")

    def theta_values(self) -> list[Fraction]:
        return _arange(self.theta_start, self.theta_stop, self.theta_step)

    def s_values(self) -> list[Fraction]:
        return _arange(self.s_start, self.s_stop, self.s_step)


def _arange(start: Fraction, stop: Fraction, step: Fraction) -> list[Fraction]:
    return [start + n * step for n in range((stop - start) // step + 1)]


_VERDICT_COLORS = {
    Verdict.CONTINUOUS: "#4daf4a",
    Verdict.NOT_CONTINUOUS: "#e41a1c",
    Verdict.TRIVIAL_SPACE: "#377eb8",
    Verdict.UNKNOWN: "#cccccc",
}


def _column(prefix: str, cells: list[str], runs: list[tuple], text) -> str:
    """One theta column of a region file: ``prefix + cells[n] + text(verdict)``
    for every cell n, written with one join per run."""
    parts = []
    for i, j, verdict in runs:
        tail = text(verdict)
        parts.append(prefix + (tail + prefix).join(cells[i:j]) + tail)
    return "".join(parts)


def _csv_chunks(m: int, space: Space, grid: GridSpec, mode: Mode):
    """The CSV text: the header, then one chunk per theta column."""
    svals = grid.s_values()
    s_strs = [format_fraction(s) + "," for s in svals]
    yield "theta,s,verdict,citation\n"
    for theta in grid.theta_values():
        runs = _paint(_column_rules(theta, m, space, mode, 1), svals)
        yield _column(format_fraction(theta) + ",", s_strs, runs, lambda v: "%s,%s\n" % (v.verdict.value, v.citation))


def _svg_chunks(m: int, space: Space, grid: GridSpec, mode: Mode):
    """The SVG text: the frame, one chunk of cells per theta column, then
    the boundary lines, the excluded point and the axis labels."""
    width, height, margin = 640, 640, 60
    t_lo, t_hi = grid.theta_start, grid.theta_stop + grid.theta_step
    s_lo, s_hi = grid.s_start, grid.s_stop + grid.s_step

    def sx(theta):
        return margin + float((theta - t_lo) / (t_hi - t_lo)) * (width - 2 * margin)

    def sy(s):
        return height - margin - float((s - s_lo) / (s_hi - s_lo)) * (height - 2 * margin)

    cell_w = float(grid.theta_step / (t_hi - t_lo)) * (width - 2 * margin)
    cell_h = float(grid.s_step / (s_hi - s_lo)) * (height - 2 * margin)
    yield (
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">\n'
        '<rect x="0" y="0" width="%d" height="%d" fill="white"/>\n' % (width, height, width, height, width, height)
    )
    svals = grid.s_values()
    # a cell's <rect> is its column's x part + its row's y part + its run's fill part
    y_mids = ['%.3f" width="%.3f" height="%.3f" fill="' % (sy(s) - cell_h, cell_w, cell_h) for s in svals]
    for theta in grid.theta_values():
        runs = _paint(_column_rules(theta, m, space, mode, 1), svals)
        x_part = '<rect x="%.3f" y="' % sx(theta)
        yield _column(x_part, y_mids, runs, lambda v: '%s"/>\n' % _VERDICT_COLORS[v.verdict])

    def clip_line(slope: Fraction, intercept: Fraction) -> tuple | None:
        # s = slope*theta + intercept clipped to the plotted box
        pts = []
        for t_edge in (t_lo, t_hi):
            s_val = slope * t_edge + intercept
            if s_lo <= s_val <= s_hi:
                pts.append((t_edge, s_val))
        for s_edge in (s_lo, s_hi):
            t_val = (s_edge - intercept) / slope  # both lines rise: slope m - 1 or m
            if t_lo <= t_val <= t_hi:
                pts.append((t_val, s_edge))
        pts = sorted(set(pts))
        return (pts[0], pts[-1]) if len(pts) >= 2 else None

    parts = []
    for slope, intercept, dash in ((Fraction(m - 1), Fraction(0), ""), (Fraction(m), Fraction(-1), ' stroke-dasharray="6,3"')):
        seg = clip_line(slope, intercept)
        if seg:
            (t0, s0), (t1, s1) = seg
            parts.append(
                '<line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" stroke="black" stroke-width="1.5"%s/>'
                % (sx(t0), sy(s0), sx(t1), sy(s1), dash)
            )
    excluded_theta = Fraction(1, m - 1)
    if space is Space.BEURLING and t_lo <= excluded_theta <= t_hi and s_lo <= 1 <= s_hi:
        parts.append(
            '<circle cx="%.3f" cy="%.3f" r="5" fill="white" stroke="black" stroke-width="1.5"/>'
            % (sx(excluded_theta), sy(Fraction(1)))
        )
    parts.append(
        '<text x="%.3f" y="%.3f" font-size="14">theta</text>' % (width - margin + 8, height - margin + 4)
    )
    parts.append('<text x="%.3f" y="%.3f" font-size="14">s</text>' % (margin - 14, margin - 12))
    parts.append("</svg>")
    yield "\n".join(parts) + "\n"


def _region_chunks(m: int, space: Space, grid: GridSpec, fmt: str, mode: Mode):
    """Check ``m`` and ``fmt`` now, then return the chunks of the region
    file, at most one theta column of text each."""
    require_degree(m)
    if fmt == "csv":
        return _csv_chunks(m, space, grid, mode)
    if fmt == "svg":
        return _svg_chunks(m, space, grid, mode)
    raise ParameterError("format must be 'csv' or 'svg'")


def render_region_csv(m: int, space: Space, grid: GridSpec, mode: Mode = Mode.GENERAL_POLYNOMIAL) -> str:
    """Deterministic CSV of verdicts over the grid; header theta,s,verdict,citation.
    Holds the whole text: ``emit_region_grid`` writes the same bytes one
    column at a time."""
    return "".join(_region_chunks(m, space, grid, "csv", mode))


def render_region_svg(m: int, space: Space, grid: GridSpec, mode: Mode = Mode.GENERAL_POLYNOMIAL) -> str:
    """Deterministic SVG: one rect per grid cell colored by verdict class,
    the boundary lines s = (m-1)*theta and s = m*theta - 1, and (for the
    Beurling scale) an open circle at the excluded point (1/(m-1), 1).
    Holds the whole text: ``emit_region_grid`` writes the same bytes one
    column at a time."""
    return "".join(_region_chunks(m, space, grid, "svg", mode))


def emit_region_grid(
    m: int,
    space: Space,
    grid: GridSpec,
    fmt: str,
    out_path,
    mode: Mode = Mode.GENERAL_POLYNOMIAL,
) -> Path:
    """Write the region file (CSV or SVG), the bytes of ``render_region_csv``
    or ``render_region_svg``; same arguments give identical bytes.  This is
    the writer of ``wedge figure``: it holds at most one theta column of
    text, and a rejected argument raises before the file is opened."""
    chunks = _region_chunks(m, space, grid, fmt, mode)
    out_path = Path(out_path)
    with out_path.open("w", encoding="utf-8") as fp:
        fp.writelines(chunks)
    return out_path


def audit_rule_disjointness(
    m: int,
    space: Space,
    grid: GridSpec,
    mode: Mode = Mode.PURE_MONOMIAL,
) -> CheckResult:
    """No grid point may satisfy both a continuity and a discontinuity rule.

    Paints the continuity rules and the discontinuity rules apart (ignoring
    the classifier's rule order, save that triviality comes first) and
    reports each cell where a continuity run meets a discontinuity run;
    auditing in pure-monomial mode covers the larger discontinuity region.
    """
    thetas = grid.theta_values()
    svals = grid.s_values()
    conflicts = []
    for theta in thetas:
        rules = _column_rules(theta, m, space, mode, 1)
        # the excluded corner lies on the wedge's closed edge, so it counts as continuity
        cont = _paint([r for r in rules if r[4] in (_CORNER, _WEDGE)], svals)
        # rule (a) stays first, so a trivial cell never paints as discontinuity
        disc = _paint([r for r in rules if r[4] in (_TRIVIAL, _STRIP, _MONOMIAL)], svals)
        for a, b, c in cont:
            for i, j, v in disc:
                if c.citation and v.verdict is Verdict.NOT_CONTINUOUS:
                    conflicts.extend((format_fraction(theta), format_fraction(s)) for s in svals[max(a, i) : min(b, j)])
    params = {"m": m, "space": space.value, "mode": mode.value, "cells": len(thetas) * len(svals)}
    return _result("wedge-rule-disjointness", params, conflicts)
