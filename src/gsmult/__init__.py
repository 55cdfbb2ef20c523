"""gsmult: exact and multiprecision tools around the derivative polynomials
of exp(lam*x**m/m), their coefficient tables and bounds, Gelfand-Shilov
seminorm estimation, and the continuity-region classification for
polynomial phase multipliers and propagators.

``import gsmult`` loads no mpmath, ``dataclasses`` or ``json``.  The
submodules below are registered in ``sys.modules`` at once, but each one's
body runs only when an attribute of it is first read; the public names are
served from them on first use.  Every value type (``CheckResult``,
``CoeffTable``, ``WedgeQuery``, ...) is a ``_util.Record``: immutable,
compared and hashed by its fields, and copied with changes by
``_replace(**changes)``; ``json`` is imported only by the functions that
write JSON.
"""

import importlib.util
import sys

from . import _util

__version__ = "0.1.0"


def _lazy(name: str):
    """Register submodule ``name``; its body runs on first attribute access."""
    spec = importlib.util.find_spec("%s.%s" % (__name__, name))
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


precision = _lazy("precision")
derivpoly = _lazy("derivpoly")
identities = _lazy("identities")
oracle = _lazy("oracle")
gsfunc = _lazy("gsfunc")
probe = _lazy("probe")
wedge = _lazy("wedge")

_EXPORTS = {
    name: module
    for module, names in (
        (_util, "CheckResult ParameterError"),
        (precision, "PrecisionError"),
        (
            derivpoly,
            "CoeffTable DerivPoly KjSequence LogMagnitude build_coeff_table derivative_poly"
            " eval_log_magnitude gaussian_parts kj_sequence",
        ),
        (
            gsfunc,
            "BracketDerivPoly Gaussian GSFunction SampledDerivatives SeminormEstimate bracket_derivative"
            " bracket_derivative_series bracket_eval geometric_grid gs_derivative gs_derivative_series seminorm"
            " seminorm_cells seminorm_equivalence_table uniform_grid verify_bracket_bound verify_gs_bound",
        ),
        (
            identities,
            "check_ck1_closed_form check_ck2_bound check_floor_identities check_lower_bound"
            " check_ratio_bound check_wedge_fn_nonneg",
        ),
        (oracle, "OracleReport certify coeff_oracle hermite_oracle symbolic_recursion_oracle"),
        (probe, "ProbeConfig ProbeRecord criterion_check estimate_rate probe_series"),
        (
            wedge,
            "GridSpec Mode Operator Space Verdict WedgeQuery WedgeVerdict audit_rule_disjointness classify"
            " classify_multiplier classify_propagator emit_region_grid render_region_csv render_region_svg",
        ),
    )
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
