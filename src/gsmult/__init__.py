"""gsmult: exact and multiprecision tools around the derivative polynomials
of exp(lam*x**m/m), their coefficient tables and bounds, Gelfand-Shilov
seminorm estimation, and the continuity-region classification for
polynomial phase multipliers and propagators."""

from .derivpoly import (
    CoeffTable,
    DerivPoly,
    KjSequence,
    LogMagnitude,
    build_coeff_table,
    derivative_poly,
    eval_log_magnitude,
    gaussian_parts,
    kj_sequence,
)
from .gsfunc import (
    BracketDerivPoly,
    Gaussian,
    GSFunction,
    SampledDerivatives,
    SeminormEstimate,
    bracket_derivative,
    bracket_derivative_series,
    bracket_eval,
    geometric_grid,
    gs_derivative,
    gs_derivative_series,
    seminorm,
    seminorm_cells,
    seminorm_equivalence_table,
    uniform_grid,
    verify_bracket_bound,
    verify_gs_bound,
)
from .identities import (
    CheckResult,
    check_ck1_closed_form,
    check_ck2_bound,
    check_floor_identities,
    check_lower_bound,
    check_ratio_bound,
    check_wedge_fn_nonneg,
)
from .oracle import (
    OracleReport,
    certify,
    coeff_oracle,
    hermite_oracle,
    symbolic_recursion_oracle,
)
from .precision import ParameterError, PrecisionError
from .probe import ProbeConfig, ProbeRecord, criterion_check, estimate_rate, probe_series
from .wedge import (
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

__version__ = "0.1.0"
