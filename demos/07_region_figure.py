"""Classifying the (theta, s) parameter quadrant and emitting the region map.

For a degree-m polynomial phase the multiplier is continuous on the wedge
s >= (m-1)*theta >= 1, discontinuous (in dimension one) on the strip
1 <=/< s < m*theta - max(theta, 1), trivial below the nontriviality
threshold, and genuinely undecided in between; the pure-monomial criterion
enlarges the discontinuity region to all of s < (m-1)*theta, theta >= 2/m.
The m = 4 region map is written to region_m4.csv and region_m4.svg in the
current directory.
"""

from fractions import Fraction as F

from gsmult import (
    GridSpec,
    Mode,
    Operator,
    Space,
    WedgeQuery,
    audit_rule_disjointness,
    classify,
    emit_region_grid,
)

probes = [
    ("wedge interior", WedgeQuery(theta=F(1), s=F(2), m=3, space=Space.ROUMIEU)),
    ("strip, Roumieu", WedgeQuery(theta=F(2), s=F(1), m=2, space=Space.ROUMIEU)),
    ("excluded corner", WedgeQuery(theta=F(1, 3), s=F(1), m=4, space=Space.BEURLING)),
    ("gap point", WedgeQuery(theta=F(1, 2), s=F(5, 4), m=4, space=Space.ROUMIEU)),
    ("gap, monomial", WedgeQuery(theta=F(1, 2), s=F(5, 4), m=4, space=Space.ROUMIEU, mode=Mode.PURE_MONOMIAL)),
    ("trivial space", WedgeQuery(theta=F(1, 3), s=F(1, 2), m=2, space=Space.ROUMIEU)),
    ("propagator", WedgeQuery(theta=F(1), s=F(2), m=2, space=Space.ROUMIEU, operator=Operator.PROPAGATOR)),
]
for label, query in probes:
    verdict = classify(query)
    flag = " [excluded point]" if verdict.boundary_excluded else ""
    print("%-16s theta=%-4s s=%-4s m=%d -> %s (%s)%s" % (
        label, query.theta, query.s, query.m, verdict.verdict.value, verdict.citation or "-", flag))

# rule disjointness audit over a fine rational grid
grid = GridSpec(F(1, 25), F(4), F(4, 25), F(1, 25), F(6), F(6, 25))
audit = audit_rule_disjointness(4, Space.ROUMIEU, grid, mode=Mode.PURE_MONOMIAL)
print("\ndisjointness audit over %s cells: %s" % (audit.params["cells"], "no conflicts" if audit.passed else "CONFLICTS"))

# emit the quadrant for m = 4 (the degree where the undecided gap is widest)
fig_grid = GridSpec(F(1, 20), F(2), F(1, 20), F(1, 20), F(4), F(1, 20))
for fmt in ("csv", "svg"):
    path = emit_region_grid(4, Space.BEURLING, fig_grid, fmt, "region_m4.%s" % fmt)
    print("wrote", path)
