"""Growth probe: the quantity |(D^k g)(x_k) * f(x_k)| that drives the
discontinuity mechanism, its Gevrey-rate estimate, and the multiplier
criterion divergence check.

For g(x) = exp(+/- i x**m) and f(x) = exp(-<x>**(1/nu)) the probe evaluates,
at x_k = k**theta,

    log |(D^k g)(x_k) f(x_k)| = log |p_k(x_k)| - <x_k>**(1/nu)

with log |p_k(x_k)| from ``derivpoly._log_magnitudes``: exact Gaussian
integers whenever theta is an integer; otherwise x_k and |p_k| on it are
enclosed together, and made again at doubled precision until x_k and the
log each round to one value at the result precision (Ziv's test,
``precision.fixed_rounded``).  Either way the log is correctly rounded.
Logs, the decay term, the rate, the records, the fitted slope and Delta are
all computed at that result precision, ``precision.RESULT_BITS``, read when
the probe is called; the probe states no precision of its own.
Along k the leading behaviour is

    log|p_k(x_k)| = k log m + theta (m-1) k log k + o(k),

so a factorial-scale bound k!**s on the product forces s to be at least
theta*(m-1); the probe quantifies this two ways:

* ``estimate_rate`` regresses the logged product against k*log(k); since
  the decay term is ~ -k when nu = theta, the slope estimates theta*(m-1)
  with a finite-k correction of about (log m - 1)/log k.
* ``criterion_check`` tracks Delta(j) = log|p_{k_j}(k_j**theta)| -
  s*k_j*log(k_j) along the k_j orders, at any rational theta with
  m*theta >= 2: for s below theta*(m-1) it grows superlinearly in k_j,
  which no geometric factor h**k or linear-in-k exponential allowance can
  absorb.  A pass is evidence at finitely many orders, not a proof.

The probe reports the product (D^k g) * f, not D^k(g*f): the former is the
pivot quantity of the argument and needs no Leibniz expansion.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

import mpmath
from mpmath import mp

from . import precision
from ._util import CheckResult, ParameterError, Record, _result, format_fraction, format_mpf
from ._util import require_degree, require_theta
from .derivpoly import CoeffRows, CoeffTable, _kj_orders, _log_magnitudes
from .precision import ols_slope, to_mpf


class ProbeConfig(Record):
    """One growth experiment: evaluation exponent theta, decay exponent nu.

    nu = theta probes the borderline decay; nu < theta is the configuration
    used against the stronger (all-weights) topology.  theta must satisfy
    theta >= 2/m and nu > 2/m for the lower-bound mechanism to apply.
    k_values may be any orders, e.g. range(1, 51) or a k_j subsequence.
    No field sets a precision: every record is computed at ``precision.RESULT_BITS``.
    """

    m: int
    theta: Fraction
    nu: Fraction
    k_values: tuple[int, ...]

    def __post_init__(self):
        require_degree(self.m)
        theta = Fraction(self.theta)
        nu = Fraction(self.nu)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "nu", nu)
        require_theta(self.m, theta)
        if nu > theta:
            raise ParameterError("decay exponent nu=%s must not exceed theta=%s" % (nu, theta))
        if nu < theta and nu * self.m <= 2:
            # strict nu > 2/m is what the separated-exponent experiment needs (nu = theta has nu*m >= 2 above)
            raise ParameterError("hypothesis violated: nu=%s <= 2/m with nu < theta" % nu)
        object.__setattr__(self, "k_values", tuple(int(k) for k in self.k_values))
        if any(k < 1 for k in self.k_values):
            raise ParameterError("orders must be >= 1")


class ProbeRecord(Record):
    """One sample: order k, point x_k, logged product, running rate estimate.

    x is k**theta itself for integer theta, else k**theta correctly rounded
    at the result precision, at which the other fields are computed.
    rate = log|p_k(x_k)| / (k*log k) = (log_dkg_f + <x_k>**(1/nu)) / (k*log k) is the
    per-record point estimate of the growth exponent (0 for k < 2 where the scale vanishes).
    """

    k: int
    x: object
    log_dkg_f: mpmath.mpf
    rate: mpmath.mpf
    exact: bool


def _decay(x, nu: Fraction):
    """<x>**(1/nu) = (1 + x**2)**(1/(2 nu)) at the result precision."""
    with mp.workprec(precision.RESULT_BITS):
        return mp.exp(to_mpf(1 / (2 * nu)) * mp.log(to_mpf(1 + x * x)))


def probe_series(cfg: ProbeConfig, table: CoeffTable | CoeffRows | None = None) -> list[ProbeRecord]:
    """Evaluate the logged product per order, in the order of ``cfg.k_values``; deterministic for a
    fixed config.  Rows are read once, in ascending k, and without a ``table`` none is held."""
    if not cfg.k_values:
        return []
    records = {}
    for k, x, lm in _log_magnitudes(cfg.m, cfg.theta, cfg.k_values, table):
        decay = _decay(x, cfg.nu)
        with mp.workprec(precision.RESULT_BITS):
            log_prod = lm.log_mag - decay
            rate = lm.log_mag / (k * mp.log(k)) if k >= 2 else mp.mpf(0)
        records[k] = ProbeRecord(k=k, x=x, log_dkg_f=log_prod, rate=rate, exact=lm.exact)
    return [records[k] for k in cfg.k_values]


def estimate_rate(
    records: Sequence[ProbeRecord],
    tail_fraction: float = 0.5,
    min_records: int = 8,
):
    """Least-squares slope of log_dkg_f against k*log(k) over the trailing records.

    Estimates theta*(m-1): the decay term contributes ~ -k (for nu equal to
    the evaluation exponent), so together with the k*log(m) term the
    finite-k bias of the slope is about (log m - 1)/log k.  Requires at
    least ``min_records`` records in the tail (relax explicitly for short
    deterministic subsequences such as the k_j orders).
    """
    if not 0 < tail_fraction <= 1:
        raise ParameterError("tail_fraction must be in (0, 1]")
    if min_records < 2:
        raise ParameterError("min_records must be >= 2")
    records = list(records)
    count = max(1, int(len(records) * tail_fraction + 0.5))
    tail = records[-count:]
    if len(tail) < min_records:
        raise ParameterError("too few records in the tail: %d < %d" % (len(tail), min_records))
    with mp.workprec(precision.RESULT_BITS):
        xs = [r.k * mp.log(r.k) for r in tail]
    return ols_slope(xs, [r.log_dkg_f for r in tail])


def _exact(value):
    """The mpf ``value`` as the exact Fraction it holds; -inf, the log of a zero |p_k|, as a float."""
    if value == mp.ninf:
        return -math.inf
    man, exp = value.man_exp
    return man * Fraction(2) ** exp


def criterion_check(
    m: int,
    theta: int | Fraction,
    s: Fraction,
    j_max: int,
    table: CoeffTable | CoeffRows | None = None,
) -> CheckResult:
    """Divergence of Delta(j) = log|p_{k_j}(k_j**theta)| - s*k_j*log(k_j).

    For 0 < s < (m-1)*theta the multiplier criterion would need
    C*h**k * k**(s k) * e**(c k) to dominate |p_k(k**theta)| along k_j, but
    Delta grows superlinearly: the check asserts Delta is strictly
    increasing and Delta(j_max) - Delta(1) > k_{j_max}, which no admissible
    constants can absorb.  theta may be any rational (an int or a Fraction)
    with m*theta >= 2: at an integral theta the evaluations are exact, at any
    other the point and its log are certified together.  Each comparison is
    decided on exact bounds of Delta: the log and ln k (``precision.half_log_of_int``)
    are correctly rounded at the result precision, so each lies within 2**-p of
    itself in relative terms (p = ``precision.RESULT_BITS``), and a witness is
    reported unless the bounds prove the opposite; the printed Delta and spread
    are those of the rounded logs.  A pass shows the divergence at the orders
    k_1..k_{j_max} only: evidence, not a proof.
    """
    if j_max < 2:
        raise ParameterError("j_max must be >= 2 to compare increments")
    require_degree(m)  # before the s hypothesis, which reads m; no walk is made until every argument passes
    theta, orders = _kj_orders(m, theta, j_max)
    s = Fraction(s)
    if not 0 < s < (m - 1) * theta:
        raise ParameterError("hypothesis violated: need 0 < s < (m-1)*theta, got s=%s" % s)
    eps = Fraction(1, 1 << precision.RESULT_BITS)  # a value correctly rounded there is within eps * |value|
    lows, highs, deltas = [], [], []  # exact bounds of each Delta, and the Delta of the rounded logs
    for k, _, lm in _log_magnitudes(m, theta, orders, table):
        log_mag = _exact(lm.log_mag)
        s_log_k = s * k * 2 * _exact(precision.half_log_of_int(k))  # s*k*ln k, within eps times itself
        mag_lo, mag_hi = sorted((log_mag * (1 - eps), log_mag * (1 + eps)))
        lows.append(mag_lo - s_log_k * (1 + eps))
        highs.append(mag_hi - s_log_k * (1 - eps))
        deltas.append(log_mag - s_log_k)
    with mp.workprec(precision.RESULT_BITS):
        spread = to_mpf(deltas[-1] - deltas[0])
        deltas = [to_mpf(d) for d in deltas]
    witnesses = []
    for j in range(1, j_max):
        if not lows[j] > highs[j - 1]:
            witnesses.append(("not-increasing", j + 1, format_mpf(deltas[j], 12)))
    if not lows[-1] - highs[0] > orders[-1]:
        witnesses.append(("growth-below-linear", j_max, format_mpf(spread, 12)))
    params = {
        "m": m,
        "theta": theta,
        "s": format_fraction(s),
        "j_max": j_max,
    }
    return _result("multiplier-criterion-divergence", params, witnesses, spread)
