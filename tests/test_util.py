"""``_util``: the degree check every public entry point that takes m makes through
``_util.require_degree``, and ``format_mpf`` on plain Python numbers."""

import math
import re
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gsmult import (
    CoeffTable,
    GridSpec,
    ParameterError,
    ProbeConfig,
    Space,
    WedgeQuery,
    audit_rule_disjointness,
    build_coeff_table,
    check_floor_identities,
    check_lower_bound,
    check_wedge_fn_nonneg,
    coeff_oracle,
    criterion_check,
    emit_region_grid,
    kj_sequence,
    render_region_csv,
    render_region_svg,
    symbolic_recursion_oracle,
)
from gsmult._util import format_mpf
from gsmult.derivpoly import coeff_rows

GRID = GridSpec(1, 2, 1, 1, 2, 1)

ENTRY_POINTS = {
    "build_coeff_table": lambda m, tmp: build_coeff_table(m, 4),
    "coeff_rows": lambda m, tmp: coeff_rows(m, 4),
    "CoeffTable.validate": lambda m, tmp: CoeffTable(m=m, k_max=1, rows=((1,),)).validate(),
    "kj_sequence": lambda m, tmp: kj_sequence(m, 2),
    "coeff_oracle": lambda m, tmp: coeff_oracle(m, 2, 0),
    "symbolic_recursion_oracle": lambda m, tmp: symbolic_recursion_oracle(m, 2),
    "check_floor_identities": lambda m, tmp: check_floor_identities(m, 4),
    "check_wedge_fn_nonneg": lambda m, tmp: check_wedge_fn_nonneg(m, 2),
    "check_lower_bound": lambda m, tmp: check_lower_bound(m, 1, 2, 1),
    "criterion_check": lambda m, tmp: criterion_check(m, 2, Fraction(1, 2), 2),
    "ProbeConfig": lambda m, tmp: ProbeConfig(m=m, lambda_sign=1, theta=2, nu=2, k_values=(1,)),
    "WedgeQuery": lambda m, tmp: WedgeQuery(theta=2, s=1, m=m, space=Space.ROUMIEU),
    "render_region_csv": lambda m, tmp: render_region_csv(m, Space.ROUMIEU, GRID),
    "render_region_svg": lambda m, tmp: render_region_svg(m, Space.ROUMIEU, GRID),
    "audit_rule_disjointness": lambda m, tmp: audit_rule_disjointness(m, Space.ROUMIEU, GRID),
    "emit_region_grid": lambda m, tmp: emit_region_grid(m, Space.ROUMIEU, GRID, "csv", tmp / "r.csv"),
}


@pytest.mark.parametrize("m", [1, Fraction(5, 2), 2.5], ids=repr)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_degree_must_be_an_integer_of_at_least_two(entry, m, tmp_path):
    with pytest.raises(ParameterError, match="^degree m must be an integer >= 2, got %s$" % re.escape(repr(m))):
        ENTRY_POINTS[entry](m, tmp_path)
    assert list(tmp_path.iterdir()) == []


_PLAIN = [0, 7, -12, 10**40, True, 0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300, 0.10963587152777757, -2.5]


@pytest.mark.parametrize("digits", [10, 24])
@pytest.mark.parametrize("x", _PLAIN, ids=repr)
def test_format_mpf_of_a_plain_number_is_nstr(x, digits):
    assert format_mpf(x, digits) == mpmath.nstr(x, digits)


@given(st.floats(allow_nan=True, allow_infinity=True) | st.integers(), st.sampled_from([10, 24]))
def test_format_mpf_of_any_float_or_int_is_nstr(x, digits):
    assert format_mpf(x, digits) == mpmath.nstr(x, digits)


def test_format_mpf_of_a_float_loads_no_mpmath(monkeypatch):
    monkeypatch.setitem(sys.modules, "mpmath", None)  # an import of mpmath would now raise
    assert format_mpf(0.5, 10) == "0.5" and format_mpf(-3) == "-3"
    with pytest.raises(ImportError):
        format_mpf(Fraction(1, 2))
