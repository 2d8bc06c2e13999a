"""The metric dual cone misbehaves outside Hilbert space.

Three phenomena on one ray at p = 3, each with a concrete certificate:
the metric dual cone is not convex, the metric double dual overshoots
the cone it came from, and the Hilbert inner-product identity for
projections picks up a strictly negative defect.  Forcing p = 2 makes
all three vanish, which is the point.

Run: python3 demos/dual_cones.py
"""

from lpgeom import (
    LpSpace,
    Ray,
    hilbert_identity_violation,
    member_metric_dual,
    metric_double_dual_violation,
    probe_nonconvexity_metric_dual,
)

for p in (3.0, 2.0):
    S = LpSpace(3, p)
    K = Ray(S.point([0, 0, 0]), S.point([-25, -37, -77]))
    print(f"== exponent p = {p} ==")

    x = S.point([3, -2, -1])
    y = S.point([1, -3, 2])
    print("x member of dual:", member_metric_dual(K, x),
          " y member:", member_metric_dual(K, y))

    w = probe_nonconvexity_metric_dual(K)
    if w is None:
        print("convexity probe: no escaping combination found")
    else:
        print("convexity probe: escape with margin", w.value,
              "at lam =", w.data["lam"])
        print("  witness revalidates:", w.revalidate())

    g = metric_double_dual_violation(K)
    if g is None:
        print("double dual: the search finds no member that separates K from K**")
    else:
        print("double dual: member", g.data["x"], "separates K from K**,",
              "margin", g.value)

    wpt = S.point([-28, -35, -76])
    print("identity defect <Jw, Pw> - ||Pw||^2 =", hilbert_identity_violation(K, wpt))
    print()
