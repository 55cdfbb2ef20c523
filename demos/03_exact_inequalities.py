"""Machine-checked certificates for the coefficient identities and bounds.

Every check here is exact: integer comparisons, q-th-power comparisons for
rational exponents, or a lemma whose hypothesis is compared exactly.  A
reported PASS is a certificate at the tested parameters, not a float
heuristic.
"""

from fractions import Fraction

from gsmult import (
    build_coeff_table,
    check_ck1_closed_form,
    check_ck2_bound,
    check_floor_identities,
    check_lower_bound,
    check_ratio_bound,
    check_wedge_fn_nonneg,
)


def show(result):
    print("%-28s %s   extremal=%s" % (result.name, "PASS" if result.passed else "FAIL", result.extremal_ratio))


table = build_coeff_table(m=4, k_max=120)

# floor(k(m-1)/m) steps by one exactly when m does not divide k
show(check_floor_identities(4, 5000))

# C[k][1] has the closed form (m-1)k(k-1)/2
show(check_ck1_closed_form(table))

# 2*C[k][2] <= m^2 k^4; the extremal ratio shows the slack
show(check_ck2_bound(table))

# adjacent coefficients satisfy C[k][n+1] <= C[k][n] * m * k^(m*theta)
# for theta >= 2/m; theta = 1/2 is the tight threshold for m = 4
show(check_ratio_bound(table, Fraction(1, 2)))
show(check_ratio_bound(table, Fraction(1)))

# the auxiliary function (1+x)^(m t) - (1-1/m)x^(m t - 1) - 1 is >= 0 on all of [0,1]:
# for m t >= 2, Bernoulli's inequality bounds it below by (m t - 1 + 1/m) x
show(check_wedge_fn_nonneg(4, Fraction(1, 2)))

# evaluated at x = k_j^theta, the polynomial modulus, the same for lam = +i*m and
# lam = -i*m, dominates half the top term: 4|p|^2 >= m^(2k) k^(2 theta k (m-1)) exactly
show(check_lower_bound(4, 1, j_max=3))
show(check_lower_bound(2, 2, j_max=4))
