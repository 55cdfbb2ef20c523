"""The growth mechanism: |(D^k g)(x_k) * f(x_k)| along x_k = k**theta.

For g = exp(+/- i x**m) the k-th derivative factor grows like
m**k * k**(theta (m-1) k) at x_k = k**theta, while f = exp(-<x>**(1/nu))
only supplies exp(-~k) of decay.  A factorial bound k!**s on the product
therefore forces s >= theta*(m-1).  The probe measures exactly this rate,
and the criterion check shows the divergence that rules out a multiplier
bound with any admissible constants.
"""

from fractions import Fraction

from gsmult import ProbeConfig, criterion_check, estimate_rate, kj_sequence, probe_series

# (m, theta) = (2, 2): target rate theta*(m-1) = 2
cfg = ProbeConfig(m=2, theta=Fraction(2), nu=Fraction(2), k_values=tuple(range(1, 51)))
records = probe_series(cfg)
print("k   x      log|D^k g * f|      running rate")
for r in records[::7]:
    print("%-3d %-6d %-19.6f %.4f" % (r.k, r.x, float(r.log_dkg_f), float(r.rate)))
rate = estimate_rate(records, tail_fraction=0.5)
print("\nfitted rate over the tail: %.4f  (target 2; finite-k bias ~ (log m - 1)/log k)" % float(rate))

# along the k_j orders for m = 3 the lower bound is provable term by term
seq = kj_sequence(3, 5)
cfg3 = ProbeConfig(m=3, theta=Fraction(1), nu=Fraction(1), k_values=seq.entries)
rate3 = estimate_rate(probe_series(cfg3), tail_fraction=1.0, min_records=5)
print("m=3 along k_j = %s: fitted rate %.4f (target 2)" % (list(seq.entries), float(rate3)))

# the divergence that no constants C, h can absorb: Delta(j) grows
# superlinearly in k_j when s < (m-1)*theta
result = criterion_check(2, 1, Fraction(1, 2), j_max=4)
print("\ncriterion divergence (m=2, theta=1, s=1/2):", "PASS" if result.passed else "FAIL")
print("Delta(4) - Delta(1) = %s > k_4 = %d" % (result.extremal_ratio, kj_sequence(2, 4).k(4)))
