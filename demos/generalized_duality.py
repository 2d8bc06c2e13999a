"""The generalized dual cone keeps the geometry the metric one loses.

Defined through the duality map on functionals rather than points, the
generalized dual cone of a finitely generated cone is a shifted
polyhedral cone in the dual space.  Convexity survives at every smooth
exponent, the double dual returns the original cone, and the dual of an
intersection is the closed conic hull of the union of duals.

Run: python3 demos/generalized_duality.py
"""

from lpgeom import (
    FinitelyGeneratedCone,
    LpSpace,
    find_double_dual_certificate,
    generalized_double_dual_member,
    intersection_dual_check_family,
)

S = LpSpace(3, 3.0)
zero = S.point([0, 0, 0])
K = FinitelyGeneratedCone(zero, [S.point(g) for g in ([1, 0.2, 0.1], [0.4, 1, 0], [0.3, 0.1, 1])])

# Convexity needs no sampling: psi is a member exactly when <psi - J(v), g> <= 0
# for every generator g, so the cone is an intersection of half-spaces.
print("convexity: an intersection of", len(K.generators), "half-spaces <psi - J(v), g_i> <= 0")

# Double duality: cone points come back in, outsiders are separated.
inside = S.point([0.8, 0.5, 0.4])
outside = S.point([-1.0, -0.5, -0.8])
print("inside member of K**:", generalized_double_dual_member(K, inside))
print("outside member of K**:", generalized_double_dual_member(K, outside))
cert = find_double_dual_certificate(K, outside)
print("  separating functional:", cert.data["functional"], " margin", cert.value)

# Intersection identity, checked both ways on a crossing pair of cones.
A = FinitelyGeneratedCone(zero, [S.point(g) for g in ([1, 0, 0], [0, 1, 0], [0, 0, 1])])
B = FinitelyGeneratedCone(zero, [S.point(g) for g in ([1, 1, 0], [0, 1, 1], [1, 0, 1])])
rep = intersection_dual_check_family([A, B])
print("intersection identity ok:", rep.ok)
print("  forward margin  =", rep.forward_margin)
print("  backward resid  =", rep.backward_residual)
print("  A int B generated by", [[float(c) for c in g.coords] for g in rep.intersection_generators])

# The same identity fails for METRIC duals; the generalized route is
# what makes the union formula exact at p != 2.
