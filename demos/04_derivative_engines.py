"""High-order derivative engines for <x>**t and exp(-<x>**(1/theta)).

The bracket power's derivatives come from an exact three-term recurrence for
d^k<x>**t / <x>**t at a rational point; the stretched exponential runs through
an interval-certified Leibniz recursion.  Both come with factorial-scale bound
sweeps reporting empirical constants.
"""

from fractions import Fraction

from gsmult import bracket_eval, gs_derivative_series, verify_bracket_bound, verify_gs_bound

# d^k <x>^t at x = 1/2 for t = 1/3: <x>^t, then t x <x>^(t-2), ...
for k in range(4):
    print("d^%d <x>^(1/3) at x=1/2: %s" % (k, bracket_eval(Fraction(1, 3), k, Fraction(1, 2))))

print("\nd^2/dx^2 <x>^2 at x=0.7:", bracket_eval(2, 2, Fraction(7, 10)))  # identically 2

# |d^k <x>^t| <= C_t * 8^k * k! * <x>^(t-k): the sweep reports empirical C_t
for t in (1, -1, Fraction(5, 2)):
    result = verify_bracket_bound(t, k_max=20)
    print("bracket bound t=%s: %s, C_t ~= %s" % (t, "PASS" if result.passed else "FAIL", result.extremal_ratio))

# f = exp(-<x>^(1/theta)): certified values, e.g. f''(0) = -e^{-1} for theta=1
print("\nf(0), f'(0), f''(0) at theta=1:", [str(v) for v in gs_derivative_series(1, 2, 0)])
print("f^(10) at x=2, theta=1/2:", gs_derivative_series(Fraction(1, 2), 10, 2)[10])

# |f^(k)| <= C^k k! f(x) <x>^(k max(1/theta-1, 0)): slope of log C_emp(k)
# over the top orders detects any growth trend (see the docstring for the
# finite-k transient budget behind the theta=2 tolerance)
for theta, tol in ((Fraction(1, 2), 1e-3), (Fraction(2), 8e-3)):
    result = verify_gs_bound(theta, k_max=30, slope_tol=tol)
    print("gs bound theta=%s: %s, slope=%s" % (theta, "PASS" if result.passed else "FAIL", result.params["slope"]))
