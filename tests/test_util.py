"""``_util``: the degree check every public entry point that takes m makes through
``_util.require_degree``, ``format_mpf`` on plain Python numbers, and the
``Record`` contract of every value type."""

import dataclasses
import inspect
import json
import math
import re
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gsmult import (
    BracketDerivPoly,
    CheckResult,
    CoeffTable,
    DerivPoly,
    GridSpec,
    KjSequence,
    LogMagnitude,
    Mode,
    Operator,
    OracleReport,
    ParameterError,
    ProbeConfig,
    ProbeRecord,
    SeminormEstimate,
    Space,
    Verdict,
    WedgeQuery,
    WedgeVerdict,
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
from gsmult.derivpoly import CoeffRows, coeff_rows

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


# One instance of each value type: (class, positional arguments, the defaults
# those leave to the class).  Every argument is already of its field's type, so
# no ``__post_init__`` coerces it.
RECORDS = {
    "CheckResult": (CheckResult, ("c", {"m": "3"}, False, ((1, 2),)), {"extremal_ratio": None}),
    "CoeffTable": (CoeffTable, (3, 2, ((1,), (1, 2))), {}),
    "CoeffRows": (CoeffRows, (3, 2), {}),
    "DerivPoly": (DerivPoly, (3, 2, (1, 2)), {}),
    "LogMagnitude": (LogMagnitude, (mpmath.mpf(2.5), True, 192), {}),
    "KjSequence": (KjSequence, (3, (6, 12)), {}),
    "BracketDerivPoly": (BracketDerivPoly, (Fraction(1, 2), 1, (Fraction(0), Fraction(1, 2))), {}),
    "SeminormEstimate": (
        SeminormEstimate, ("h", {"theta": "2"}, {"max_deriv": 3}, mpmath.mpf(7)), {"is_lower_bound": True}
    ),
    "OracleReport": (OracleReport, (2, (1, 4), ((3, 1, "5", "6"),)), {}),
    "ProbeConfig": (ProbeConfig, (3, 1, Fraction(2), Fraction(2), (1, 2)), {}),
    "ProbeRecord": (ProbeRecord, (2, 4, mpmath.mpf(3), mpmath.mpf(1), True), {}),
    "WedgeQuery": (
        WedgeQuery,
        (Fraction(1, 2), Fraction(1), 3, Space.BEURLING),
        {"d": 1, "mode": Mode.GENERAL_POLYNOMIAL, "operator": Operator.MULTIPLIER, "t_nonzero": True},
    ),
    "WedgeVerdict": (WedgeVerdict, (Verdict.CONTINUOUS, "continuity-wedge"), {"boundary_excluded": False}),
    "GridSpec": (GridSpec, tuple(Fraction(n, 4) for n in (1, 8, 1, 1, 16, 1)), {}),
}


def _reference(record):
    """The frozen dataclass the record type replaced, holding the same values."""
    cls = type(record)
    ref = dataclasses.make_dataclass(cls.__name__, list(cls._fields), frozen=True)
    return ref(*(getattr(record, name) for name in cls._fields))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_builds_by_position_and_keyword_with_its_defaults(name):
    cls, args, defaults = RECORDS[name]
    assert cls._fields[len(args):] == tuple(defaults)
    parameters = inspect.signature(cls).parameters.values()  # the signature the dataclass had
    expected = [(f, defaults.get(f, inspect.Parameter.empty)) for f in cls._fields]
    assert [(p.name, p.default) for p in parameters] == expected
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(cls._fields, args)))
    explicit = cls(*args, **defaults)
    assert by_position == by_keyword == explicit
    assert [getattr(by_position, f) for f in cls._fields] == list(args) + list(defaults.values())
    with pytest.raises(TypeError):
        cls(*args, *defaults.values(), None)  # one positional too many
    with pytest.raises(TypeError):
        cls(*args, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*args[:-1])  # a field without a default is missing
    with pytest.raises(TypeError):
        cls(*args, **{cls._fields[0]: args[0]})  # given twice


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_equality_hash_and_repr_are_the_dataclass_ones(name):
    cls, args, _ = RECORDS[name]
    record, ref = cls(*args), _reference(cls(*args))
    assert record == cls(*args) and not record != cls(*args)
    assert record != ref and record != tuple(args)  # another class is never equal
    assert repr(record) == repr(ref) and all("%s=" % f in repr(record) for f in cls._fields)
    try:
        expected = hash(ref)
    except TypeError:  # a dict field makes both unhashable
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_refuses_assignment_and_deletion(name):
    cls, args, _ = RECORDS[name]
    record = cls(*args)
    field = cls._fields[0]
    with pytest.raises(AttributeError, match="cannot assign to field %r" % field):
        setattr(record, field, args[0])
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    with pytest.raises(AttributeError, match="cannot delete field %r" % field):
        delattr(record, field)
    assert cls(*args) == record


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_replace_changes_only_the_named_fields(name):
    cls, args, _ = RECORDS[name]
    record = cls(*args)
    assert record._replace() == record and record._replace() is not record
    last = cls._fields[-1]
    assert record._replace(**{last: getattr(record, last)}) == record
    with pytest.raises(TypeError):
        record._replace(no_such_field=1)


def test_replace_reruns_the_checks_and_coercions():
    query = WedgeQuery(Fraction(1, 2), 1, 3, Space.BEURLING)
    swapped = query._replace(theta=query.s, s=query.theta, d=2)
    assert (swapped.theta, swapped.s, swapped.d, swapped.m) == (1, Fraction(1, 2), 2, 3)
    assert type(query._replace(theta=2).theta) is Fraction
    with pytest.raises(ParameterError, match="^theta and s must be positive$"):
        query._replace(s=0)


def test_coeff_table_round_trips_through_its_json_dict():
    table = build_coeff_table(4, 30)
    assert CoeffTable.from_json_dict(json.loads(table.to_json())) == table
    assert hash(CoeffTable.from_json_dict(json.loads(table.to_json()))) == hash(table)


def test_post_init_coerces_its_fields():
    cfg = ProbeConfig(3, 1, 2, "3/2", [1, 2.0])
    assert (cfg.theta, cfg.nu, cfg.k_values) == (Fraction(2), Fraction(3, 2), (1, 2))
    assert type(cfg.theta) is Fraction and type(cfg.k_values[1]) is int
    assert WedgeQuery(1, "1/2", 3, Space.ROUMIEU).s == Fraction(1, 2)
    grid = GridSpec(1, 2, "1/2", 1, 2, 1)
    assert grid.theta_step == Fraction(1, 2) and all(type(v) is Fraction for v in vars(grid).values())


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: CheckResult("c", {}, True, ((1,),)), ValueError, "pass flag inconsistent with witness list"),
        (lambda: CheckResult("c", {}, False, ()), ValueError, "pass flag inconsistent with witness list"),
        (lambda: ProbeConfig(1, 1, 2, 2, (1,)), ParameterError, "degree m must be an integer >= 2, got 1"),
        (lambda: ProbeConfig(3, 2, 2, 2, (1,)), ParameterError, "lambda_sign must be +1 or -1"),
        (lambda: ProbeConfig(3, 1, Fraction(1, 2), Fraction(1, 2), (1,)), ParameterError,
         "hypothesis violated: theta=1/2 < 2/m"),
        (lambda: ProbeConfig(3, 1, 1, 2, (1,)), ParameterError, "decay exponent nu=2 must not exceed theta=1"),
        (lambda: ProbeConfig(3, 1, 2, Fraction(2, 3), (1,)), ParameterError,
         "hypothesis violated: nu=2/3 <= 2/m with nu < theta"),
        (lambda: ProbeConfig(3, 1, 2, 2, (1, 0)), ParameterError, "orders must be >= 1"),
        (lambda: WedgeQuery(0, 1, 3, Space.ROUMIEU), ParameterError, "theta and s must be positive"),
        (lambda: WedgeQuery(1, -1, 3, Space.ROUMIEU), ParameterError, "theta and s must be positive"),
        (lambda: WedgeQuery(1, 1, 1, Space.ROUMIEU), ParameterError, "degree m must be an integer >= 2, got 1"),
        (lambda: WedgeQuery(1, 1, 3, Space.ROUMIEU, d=0), ParameterError, "dimension must be >= 1"),
        (lambda: WedgeVerdict(Verdict.CONTINUOUS, ""), ValueError, "decided verdicts require a citation"),
        (lambda: GridSpec(0, 1, 1, 1, 2, 1), ParameterError, "grid must stay in the open positive quadrant"),
        (lambda: GridSpec(1, 2, 1, 1, 2, 0), ParameterError, "grid steps must be positive"),
        (lambda: GridSpec(1, 2, 1, 3, 2, 1), ParameterError, "grid stop must not precede start"),
    ],
)
def test_post_init_rejects_with_its_message(build, error, message):
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        build()
