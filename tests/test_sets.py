import math

import numpy as np
import pytest

from lpgeom import LpSpace, norm, pair, window_functional
from lpgeom.projections import generalized_project, metric_project
from lpgeom.sets import (
    Ball,
    FinitelyGeneratedCone,
    Line,
    Polytope,
    Ray,
    Segment,
    Subspace,
)

import _oracles


@pytest.fixture
def l3():
    return LpSpace(3, 3.0)


def test_ray_contains(l3):
    ray = Ray(l3.zero(), l3.point([-25.0, -37.0, -77.0]))
    assert ray.contains(l3.point([-12.5, -18.5, -38.5]))
    assert ray.contains(ray.vertex)
    assert not ray.contains(l3.point([25.0, 37.0, 77.0]))
    assert not ray.contains(l3.point([-25.0, -37.0, 0.0]))


def test_ball_contains(l3):
    ball = Ball(l3, 1.0)
    assert not ball.contains(l3.point([1.0, 1.0, 1.0]))  # norm 3^(1/3) > 1
    assert ball.contains(l3.point([0.5, 0.5, 0.5]))
    assert ball.contains(l3.point([1.0, 0.0, 0.0]))


def test_cone_contains(l3):
    cone = FinitelyGeneratedCone(
        l3.zero(), [l3.point([1.0, 0.0, 0.0]), l3.point([0.0, 1.0, 0.0])]
    )
    assert cone.contains(l3.point([2.0, 3.0, 0.0]))
    assert not cone.contains(l3.point([1.0, 1.0, -0.1]))
    assert not cone.contains(l3.point([-1.0, 1.0, 0.0]))


def test_segment_line_subspace_distances(l3):
    a, b = l3.point([0.0, 0.0, 0.0]), l3.point([2.0, 0.0, 0.0])
    seg = Segment(a, b)
    assert seg.distance(l3.point([1.0, 1.0, 0.0])) == pytest.approx(1.0)
    assert seg.distance(l3.point([3.0, 0.0, 0.0])) == pytest.approx(1.0)
    line = Line(a, l3.point([1.0, 0.0, 0.0]))
    assert line.distance(l3.point([3.0, 0.0, 0.0])) == 0.0
    sub = Subspace(l3, [l3.point([1.0, 0.0, 0.0]), l3.point([0.0, 1.0, 0.0])])
    assert sub.distance(l3.point([1.0, 2.0, 3.0])) == pytest.approx(3.0)


def test_polytope_membership():
    space = LpSpace(2, 2.0)
    tri = Polytope([space.point([0, 0]), space.point([1, 0]), space.point([0, 1])])
    assert tri.contains(space.point([0.25, 0.25]))
    assert tri.contains(space.point([0.5, 0.5]))  # edge midpoint
    assert tri.contains(space.point([1.0, 0.0]))
    assert not tri.contains(space.point([0.6, 0.6]))
    assert not tri.contains(space.point([-0.1, 0.5]))


def test_validation_errors(l3):
    with pytest.raises(ValueError):
        Segment(l3.point([1, 1, 1]), l3.point([1, 1, 1]))
    with pytest.raises(ValueError):
        Ray(l3.zero(), l3.zero())
    with pytest.raises(ValueError):
        FinitelyGeneratedCone(l3.zero(), [l3.zero()])
    with pytest.raises(ValueError):
        Ball(l3, 0.0)
    with pytest.raises(ValueError):
        Subspace(l3, [l3.point([1, 0, 0]), l3.point([2, 0, 0])])
    with pytest.raises(ValueError):
        Polytope([])
    with pytest.raises(ValueError):
        Segment(l3.point([0, 0, 0]), LpSpace(3, 2.0).point([1, 1, 1]))


def test_ray_support(l3):
    u = l3.point([25.0, 37.0, 77.0])
    ray = Ray(l3.zero(), u)
    psi = l3.functional([-9.0, 4.0, 1.0])  # annihilates u
    assert ray.support(psi) == 0.0
    assert ray.support(l3.functional([1.0, 1.0, 1.0])) == math.inf
    assert ray.support(l3.functional([-1.0, -1.0, -1.0])) == 0.0


def test_ball_support_window(l3):
    # p = 1 with window functionals: level is the radius times the sup norm
    space = LpSpace(5, 1.0)
    ball = Ball(space, 1.0)
    psi = window_functional(space, {1, 2})
    assert ball.support(psi) == pytest.approx(1.0)
    ball3 = Ball(LpSpace(5, 3.0), 1.0)
    psi3 = window_functional(LpSpace(5, 3.0), {1, 2})
    assert ball3.support(psi3) == pytest.approx(2.0 ** (2.0 / 3.0))


def test_support_sublinearity():
    rng = np.random.default_rng(5)
    space = LpSpace(3, 3.0, [1.0, 2.0, 0.5])
    sets = [
        Ball(space, 1.5),
        Segment(space.point([0, 0, 0]), space.point([1, 2, 3])),
        Polytope([space.point(rng.standard_normal(3)) for _ in range(4)]),
    ]
    for C in sets:
        for _ in range(100):
            p1 = space.functional(rng.standard_normal(3))
            p2 = space.functional(rng.standard_normal(3))
            s12 = C.support(p1 + p2)
            assert s12 <= C.support(p1) + C.support(p2) + 1e-9
        for _ in range(20):
            p1 = space.functional(rng.standard_normal(3))
            t = float(10.0 ** rng.uniform(-2, 2))
            assert C.support(t * p1) == pytest.approx(t * C.support(p1), rel=1e-12)


def test_row_product_matches_the_pairings_row_by_row():
    # support and face read one product of the stacked rows with w psi; the
    # reference pairs psi with each row on its own, summing in another order,
    # so the two agree within the dot product's roundoff bound n eps sum |w psi d|
    rng = np.random.default_rng(17)
    eps = np.finfo(float).eps
    for n in (2, 5, 40):
        space = LpSpace(n, 3.0, rng.uniform(0.5, 2.0, n))
        pts = [space.point(rng.normal(size=n)) for _ in range(6)]
        for C in (Polytope(pts), FinitelyGeneratedCone(pts[0], pts[1:]), Line(pts[0], pts[1])):
            nv = len(C.V)
            for _ in range(10):
                psi = space.functional(rng.normal(size=n))
                ref = np.array([pair(psi, space.point(row)) for row in C._rows])
                bound = 2 * n * eps * (np.abs(C._rows) @ np.abs(space.weights * psi.coords))
                lengths = np.array([np.linalg.norm(psi.coords) * np.linalg.norm(d) for d in C._rows[nv:]])
                vals, rays, lines = C._pairings(psi.coords)
                assert np.all(np.abs(vals - ref[:nv]) <= bound[:nv])
                unit = np.concatenate([rays, lines])
                assert np.all(np.abs(unit - ref[nv:] / lengths) <= bound[nv:] / lengths + 4 * eps * np.abs(unit))
                escapes = np.any(ref[nv : nv + len(C.R)] > 0.0) or np.any(ref[nv + len(C.R) :] != 0.0)
                expected = math.inf if escapes else pytest.approx(np.max(ref[:nv]), abs=np.max(bound[:nv]))
                assert C.support(psi) == expected


def test_support_cone_tolerance(l3):
    cone = FinitelyGeneratedCone(l3.zero(), [l3.point([1.0, 0.0, 0.0])])
    psi = l3.functional([1e-12, -1.0, 0.0])
    assert cone.support(psi) == math.inf
    assert cone.support(psi, tol=1e-9) == 0.0


def test_samples_are_members():
    rng = np.random.default_rng(17)
    space = LpSpace(3, 1.5, [1.0, 0.5, 2.0])
    sets = [
        Segment(space.point([0, 0, 0]), space.point([1, -1, 2])),
        Ray(space.point([1, 0, 0]), space.point([0, 1, 1])),
        Line(space.point([1, 1, 1]), space.point([1, -2, 0])),
        FinitelyGeneratedCone(
            space.zero(), [space.point(rng.standard_normal(3)) for _ in range(3)]
        ),
        Polytope([space.point(rng.standard_normal(3)) for _ in range(4)]),
        Ball(space, 2.0),
        Subspace(space, [space.point([1, 0, 0]), space.point([0, 1, 1])]),
    ]
    for C in sets:
        for x in C.sample(50, seed=99):
            assert C.contains(x, tol=1e-9), f"{C!r} sample escaped"


def test_sampling_is_deterministic():
    space = LpSpace(3, 3.0)
    ball = Ball(space, 1.0)
    one = [x.tolist() for x in ball.sample(10, seed=4)]
    two = [x.tolist() for x in ball.sample(10, seed=4)]
    assert one == two


def _outputs(C, x, psi):
    """Bytes of C's metric and generalized projections and of its samples."""
    res = [metric_project(C, x), generalized_project(C, psi)]
    out = [(r.point.coords.tobytes(), r.vi_residual, r.iterations, r.stop_reason, r.method) for r in res]
    return out, [s.coords.tobytes() for s in C.sample(6, seed=3)]


def test_one_set_one_chart():
    # a set reads its chart from (V, R, L), so two types describing one set agree bit for bit
    rng = np.random.default_rng(41)
    for p in (1.5, 3.0):
        S = LpSpace(4, p, weights=rng.uniform(0.5, 2.0, 4))
        a, b, d = (S.point(rng.normal(size=4)) for _ in range(3))
        pairs = [
            (Segment(a, b), Polytope([a, b])),
            (Ray(a, d), FinitelyGeneratedCone(a, [d])),
            (Line(S.zero(), d), Subspace(S, [d])),
        ]
        for one, other in pairs:
            for _ in range(4):
                x = S.point(3.0 * rng.normal(size=4))
                psi = S.functional(2.0 * rng.normal(size=4))
                assert _outputs(one, x, psi) == _outputs(other, x, psi), (one, other)


def test_one_vertex_polytope():
    S = LpSpace(3, 3.0, weights=[0.5, 1.0, 2.0])
    v = S.point([1.0, -2.0, 0.5])
    P = Polytope([v])
    assert P.contains(v)
    assert not P.contains(S.point([1.0, -2.0, 0.6]))
    for res in (metric_project(P, S.point([3.0, 0.0, -1.0])), generalized_project(P, S.functional([1.0, 2.0, 3.0]))):
        assert res.converged and res.point.coords.tobytes() == v.coords.tobytes()
    assert all(s.coords.tobytes() == v.coords.tobytes() for s in P.sample(3, seed=1))
    # a repeated vertex leaves one point too
    twice = Polytope([v, v])
    assert twice.contains(v) and not twice.contains(S.point([0.0, 0.0, 0.0]))
    assert metric_project(twice, S.point([3.0, 0.0, -1.0])).converged


def test_mixed_charts_are_refused(l3):
    from lpgeom.sets import _Polyhedral

    a, b, d = l3.point([0, 0, 0]), l3.point([1, 0, 0]), l3.point([0, 1, 0])
    for V, R, L in (([a.coords, b.coords], [d.coords], []), ([a.coords], [d.coords], [b.coords])):
        with pytest.raises(NotImplementedError):
            _Polyhedral(l3, V, R, L)


def test_trivial_subspace(l3):
    sub = Subspace(l3)
    assert sub.dim() == 0
    assert sub.contains(l3.zero())
    assert not sub.contains(l3.point([0.1, 0, 0]))
    assert sub.support(l3.functional([5, 5, 5])) == 0.0
    assert all(np.all(s.coords == 0.0) for s in sub.sample(3, seed=0))
