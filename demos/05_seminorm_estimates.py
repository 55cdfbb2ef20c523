"""Truncated Gelfand-Shilov seminorm estimation.

Two equivalent seminorm families: the power-weighted family indexed by
h > 0 and the exponential-weighted family indexed by a > 0.  Truncating to
finitely many orders and grid points gives certified lower bounds of the
true suprema; supremum candidates stabilize once the truncation covers
the maximizing region.
"""

from fractions import Fraction

from gsmult import Gaussian, GSFunction, geometric_grid, seminorm

# calculus sanity: for f = e^{-x^2}, theta = 1/2, a = 1/2 and order zero,
# sup_x e^{x^2/2} e^{-x^2} = 1, attained at x = 0
est = seminorm("a", Gaussian(), theta=Fraction(1, 2), s=1, a=Fraction(1, 2), max_deriv=0, grid=geometric_grid(4, 16))
print("gaussian a-family, order 0:", est.value)

# the stretched exponential with matching theta: finite plateau as the
# truncation grows (membership in the s = 1 scale)
f = GSFunction(1)
for orders in (5, 10, 20):
    est = seminorm("a", f, theta=1, s=1, a=Fraction(1, 2), max_deriv=orders, grid=geometric_grid(16, 20))
    print("exp(-<x>) a-family, orders <= %2d: %s" % (orders, est.value))

# h-family on the same function
est_h = seminorm("h", f, theta=1, s=1, h=Fraction(1, 2), max_deriv=10, max_power=10, grid=geometric_grid(16, 20))
print("exp(-<x>) h-family, orders <= 10:", est_h.value)

# side-by-side diagnostic for (a, h) pairs: both finite, same topology
print("\n(a, h, |.|_a, |.|_h) diagnostic rows:")
grid = geometric_grid(16, 20)
for a, h in ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(1, 4))):
    est_a = seminorm("a", f, theta=1, s=1, a=a, max_deriv=10, grid=grid)
    est_h = seminorm("h", f, theta=1, s=1, h=h, max_deriv=10, max_power=10, grid=grid)
    print("  a=%s h=%s -> %s | %s" % (a, h, est_a.value, est_h.value))
