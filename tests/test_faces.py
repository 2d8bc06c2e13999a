import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import _oracles
from lpgeom.cones import member_generalized_dual
from lpgeom.faces import (
    classify_point,
    dual_vision_identity_check,
    face,
    face_membership,
    fixed_point_check,
    solve_vi,
    vision_dual_member,
    vision_primal_member,
)
from lpgeom.projections import generalized_project
from lpgeom.sets import Ball, ConvexSet, FinitelyGeneratedCone, Line, Polytope, Ray, Segment, Subspace
from lpgeom.spaces import LpSpace, duality_map, duality_map_inv, norm, pair, window_functional


def _cubic_space():
    return LpSpace(3, 3.0)


def test_ray_face_trichotomy():
    S = _cubic_space()
    C = Ray(S.zero(), S.point([25.0, 37.0, 77.0]))

    whole = face(C, S.functional([-9.0, 4.0, 1.0]))
    assert whole.kind == "whole-set"
    assert whole.level == 0.0

    origin = face(C, S.functional([-1.0, -1.0, -1.0]))
    assert origin.kind == "singleton"
    assert np.all(origin.representatives[0].coords == 0.0)

    gone = face(C, S.functional([1.0, 1.0, 1.0]))
    assert gone.kind == "empty"
    assert math.isinf(gone.level)
    assert gone.representatives == ()


def test_window_functional_faces_on_balls():
    M = 2.0
    S1 = LpSpace(4, 1.0)
    w1 = window_functional(S1, [2, 3])
    d1 = face(Ball(S1, M), w1)
    assert d1.kind == "affine-slice"
    assert abs(d1.level - M) <= 1e-12
    assert np.allclose(d1.representatives[0].coords, [0.0, M / 2, M / 2, 0.0])
    for rep in d1.representatives:
        assert face_membership(Ball(S1, M), w1, rep)

    # away from exponent 1 the level picks up the dual norm of the window
    S3 = LpSpace(4, 3.0)
    w3 = window_functional(S3, [2, 3])
    d3 = face(Ball(S3, M), w3)
    assert d3.kind == "singleton"
    assert abs(d3.level - M * 2.0 ** (2.0 / 3.0)) <= 1e-12
    assert abs(norm(d3.representatives[0]) - M) <= 1e-12


def test_ball_faces_at_extreme_exponents():
    S1 = LpSpace(3, 1.0, weights=[2.0, 1.0, 0.5])
    psi = S1.functional([3.0, -3.0, 1.0])
    d = face(Ball(S1, 1.5), psi)
    assert d.kind == "affine-slice"
    assert abs(d.level - 1.5 * 3.0) <= 1e-12
    # uniform representative splits mass over both peak coordinates
    assert np.allclose(d.representatives[0].coords, [0.75 / 2.0, -0.75 / 1.0, 0.0])

    Sinf = LpSpace(3, math.inf, weights=[2.0, 1.0, 0.5])
    psif = Sinf.functional([1.0, -2.0, 0.0])
    di = face(Ball(Sinf, 2.0), psif)
    assert di.kind == "affine-slice"
    assert abs(di.level - 2.0 * (2.0 * 1.0 + 1.0 * 2.0)) <= 1e-12
    assert np.allclose(di.representatives[0].coords, [2.0, -2.0, 0.0])

    lone = face(Ball(S1, 1.0), S1.functional([2.0, -1.0, 0.0]))
    assert lone.kind == "singleton"


def test_ball_ties_at_p_one_are_relative_to_the_top_coordinate():
    # a functional far below tol still has one top coordinate, and one corner as its face
    S = LpSpace(3, 1.0)
    ball = Ball(S, 1.0)
    psi = S.functional([1e-10, 0.0, 0.0])
    d = face(ball, psi)
    assert d.kind == "singleton"
    assert d.level == pytest.approx(1e-10, rel=1e-12)
    assert [r.coords.tolist() for r in d.representatives] == [[1.0, 0.0, 0.0]] * 2
    # coordinates within tol of the top, relatively, still tie
    assert face(ball, S.functional([1.0, 1.0 - 1e-12, 0.5])).kind == "affine-slice"


def test_only_the_zero_functional_has_the_whole_ball_as_its_face():
    # a nonzero functional of dual norm below tol still has one top point on a
    # smooth ball, and a member on its far side is outside that face
    S = _cubic_space()
    ball = Ball(S, 50.0)
    u = S.point([-1e-10, 0.0, 0.0])
    psi = duality_map(u)
    y = S.point([50.0, 0.0, 0.0])
    tiny = face(ball, psi)
    assert tiny.kind == "singleton"
    assert tiny.level == pytest.approx(5e-9, rel=1e-12)
    assert ball.support(psi, tol=1e-9) == tiny.level
    assert not face_membership(ball, psi, y)
    assert not vision_primal_member(ball, y, u)
    assert vision_primal_member(ball, -y, u)
    zero = face(ball, S.zero_functional())
    assert (zero.kind, zero.level) == ("whole-set", 0.0)
    assert face_membership(ball, S.zero_functional(), y)


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("kind", ["segment", "ball"])
def test_face_and_generalized_projection_refuse_a_point_as_functional(p, kind):
    # at p = 2 a primal vector's space pairs with the set's, so only its type tells it apart
    S = LpSpace(3, p)
    C = Segment(S.zero(), S.point([1.0, 2.0, 3.0])) if kind == "segment" else Ball(S, 2.0)
    v = S.point([1.0, -1.0, 0.5])
    with pytest.raises(TypeError, match="expected a DualVec"):
        face(C, v)
    with pytest.raises(TypeError, match="expected a DualVec"):
        generalized_project(C, v)


def test_polytope_faces_by_tie_count():
    S = LpSpace(3, 2.0)
    P = Polytope([S.point([1.0, 0, 0]), S.point([0, 1.0, 0]), S.point([0, 0, 1.0])])
    edge = face(P, S.functional([1.0, 1.0, 0.0]))
    assert edge.kind == "vertex-subset"
    assert len(edge.representatives) == 2
    single = face(P, S.functional([2.0, 0.5, 0.0]))
    assert single.kind == "singleton"
    everything = face(P, S.zero_functional())
    assert everything.kind == "whole-set"
    assert len(everything.representatives) == 3


def test_segment_vision_membership_signs():
    S = _cubic_space()
    y = S.point([25.0, 37.0, 77.0])
    seg = Segment(S.zero(), y)
    x = S.point([3.0, -2.0, -1.0])
    z = S.point([1.0, -3.0, 2.0])
    h = (2.0 / 3.0) * x + (1.0 / 3.0) * z
    assert vision_primal_member(seg, y, x)
    assert vision_primal_member(seg, y, z)
    assert not vision_primal_member(seg, y, h)
    # the zero point sees every member through the zero functional
    assert vision_primal_member(seg, y, S.zero())
    with pytest.raises(ValueError):
        vision_primal_member(seg, S.point([1.0, 1.0, 1.0]), x)


def test_vision_routes_share_the_flat_ray_tolerance():
    # J(u) pairs 1e-17 per unit length with the ray: flat for the face and for
    # the support alike, however long the ray's direction vector is
    S = LpSpace(3, 2.0)
    u = S.point([1e-17, 1.0, 0.0])
    for length in (1.0, 1e10):
        ray = Ray(S.zero(), S.point([length, 0.0, 0.0]))
        assert 0.0 < pair(duality_map(u), ray.direction) <= 1e-17 * length
        assert vision_primal_member(ray, ray.vertex, u)
        assert ray.support(duality_map(u), tol=1e-9) == 0.0


def test_sphere_visions_are_rays_of_the_duality_image():
    S = _cubic_space()
    ball = Ball(S, 2.0)
    rng = np.random.default_rng(72)
    y = S.point(rng.normal(size=3))
    y = (2.0 / norm(y)) * y
    jy = duality_map(y)
    for t in (0.5, 1.0, 7.0):
        assert vision_dual_member(ball, y, t * jy)
    assert vision_dual_member(ball, y, 0.0 * jy)
    for _ in range(30):
        psi = S.functional(rng.normal(size=3))
        aligned = norm(psi - (pair(psi, y) / 4.0) * jy) <= 1e-9 * norm(psi)
        if not aligned:
            assert not vision_dual_member(ball, y, psi)

    inside = S.point([0.1, -0.2, 0.05])
    assert vision_dual_member(ball, inside, S.zero_functional())
    for _ in range(30):
        psi = S.functional(rng.normal(size=3))
        assert not vision_dual_member(ball, inside, psi)


def test_classification_closed_forms():
    S = _cubic_space()
    ball = Ball(S, 2.0)
    assert classify_point(ball, S.zero()).verdict == "internal"
    assert classify_point(ball, S.point([0.4, -0.3, 0.2])).verdict == "internal"
    on = classify_point(ball, S.point([2.0, 0.0, 0.0]))
    assert on.verdict == "cuticle"
    assert on.witness is not None
    assert face_membership(ball, on.witness, S.point([2.0, 0.0, 0.0]))

    with pytest.raises(ValueError):
        classify_point(ball, S.point([5.0, 0.0, 0.0]))


def test_classification_of_flats_and_polyhedra():
    S = _cubic_space()
    y = S.point([25.0, 37.0, 77.0])
    seg = Segment(S.zero(), y)
    # in three dimensions every segment point has a sideways supporter
    for alpha in (0.0, 0.3, 1.0):
        res = classify_point(seg, S.point(alpha * y.coords))
        assert res.verdict == "cuticle"
        assert res.witness is not None

    P = Polytope([S.point([1.0, 0, 0]), S.point([0, 1.0, 0]), S.point([0, 0, 1.0]), S.point([-1.0, -1.0, -1.0])])
    assert classify_point(P, S.zero()).verdict == "internal"
    assert classify_point(P, S.point([1.0, 0.0, 0.0])).verdict == "cuticle"

    K = FinitelyGeneratedCone(
        S.zero(), [S.point([1.0, 0, 0]), S.point([0, 1.0, 0]), S.point([0, 0, 1.0])]
    )
    assert classify_point(K, S.point([0.5, 0.7, 0.9])).verdict == "internal"
    ridge = classify_point(K, S.point([0.0, 0.7, 0.9]))
    assert ridge.verdict == "cuticle"

    line = Line(S.point([1.0, 0.0, 0.0]), S.point([0.0, 1.0, 0.0]))
    assert classify_point(line, S.point([1.0, 3.0, 0.0])).verdict == "cuticle"

    sub = Subspace(S, [S.point([1.0, 0.0, 0.0])])
    assert classify_point(sub, S.point([2.0, 0.0, 0.0])).verdict == "cuticle"
    whole = Subspace(S, [S.point([1.0, 0, 0]), S.point([0, 1.0, 0]), S.point([0, 0, 1.0])])
    assert classify_point(whole, S.point([1.0, 2.0, 3.0])).verdict == "internal"


def _random_polyhedral(rng, S, kind):
    n = S.n
    g = lambda: S.point(rng.normal(size=n))  # noqa: E731
    if kind == "segment":
        return Segment(g(), g())
    if kind == "ray":
        return Ray(g(), g())
    if kind == "line":
        return Line(g(), g())
    if kind == "cone":
        return FinitelyGeneratedCone(g(), [g() for _ in range(int(rng.integers(1, n + 3)))])
    if kind == "polytope":
        return Polytope([g() for _ in range(int(rng.integers(2, n + 5)))])
    return Subspace(S, [g() for _ in range(int(rng.integers(1, n + 1)))])


def _classify_without_linprog(monkeypatch, C, y):
    scipy_optimize = pytest.importorskip("scipy.optimize")

    def refuse(*args, **kwargs):
        raise AssertionError("classification must not solve a linear program")

    with monkeypatch.context() as m:
        m.setattr(scipy_optimize, "linprog", refuse)
        return classify_point(C, y)


def _assert_matches_linear_programs(monkeypatch, C, y):
    res = _classify_without_linprog(monkeypatch, C, y)
    W = _oracles.difference_directions(C.V, C.R, C.L, y.coords)
    expected = _oracles.supporting_direction_by_linear_programs(W)
    assert res.verdict == ("internal" if expected is None else "cuticle")
    if res.verdict == "cuticle":
        c = C.space.weights * res.witness.coords  # the witness in pairing coordinates
        assert float(np.max(W @ c, initial=0.0)) <= 1e-9 * float(np.linalg.norm(c))
        assert face_membership(C, res.witness, y)
    else:
        assert res.witness is None
    return res.verdict


def test_classification_matches_the_linear_program_route(monkeypatch):
    pytest.importorskip("scipy.optimize")
    verdicts = {"internal": 0, "cuticle": 0}
    for n in range(2, 7):
        for k, kind in enumerate(("segment", "ray", "line", "cone", "polytope", "subspace")):
            for seed in range(3):
                rng = np.random.default_rng([n, k, seed])
                S = LpSpace(n, float(rng.choice([1.5, 2.0, 3.0])), weights=rng.uniform(0.3, 3.0, n))
                C = _random_polyhedral(rng, S, kind)
                points = C.sample(3, seed=seed) + [S.point(v) for v in C.V[:2]]
                for _ in range(2):
                    points += face(C, S.functional(rng.normal(size=n))).representatives[:1]
                for y in points:
                    verdicts[_assert_matches_linear_programs(monkeypatch, C, y)] += 1
    # the sweep reaches both verdicts
    assert min(verdicts.values()) > 0


def test_classification_of_a_large_polytope(monkeypatch):
    rng = np.random.default_rng(12)
    S = LpSpace(12, 3.0)
    P = Polytope([S.point(v) for v in rng.normal(size=(80, 12))])
    centroid = S.point(P.V.mean(axis=0))
    assert _assert_matches_linear_programs(monkeypatch, P, centroid) == "internal"
    # the vertex that tops the first coordinate is extreme
    top = S.point(P.V[int(np.argmax(P.V[:, 0]))])
    assert _assert_matches_linear_programs(monkeypatch, P, top) == "cuticle"


def test_one_dimensional_ray_interior_is_internal():
    S = LpSpace(1, 3.0)
    r = Ray(S.zero(), S.point([1.0]))
    assert classify_point(r, S.point([2.0])).verdict == "internal"
    assert classify_point(r, S.zero()).verdict == "cuticle"


def test_fixed_point_three_way_agreement():
    S = _cubic_space()
    y = S.point([25.0, 37.0, 77.0])
    seg = Segment(S.zero(), y)
    x = S.point([3.0, -2.0, -1.0])
    h = S.point([7.0 / 3.0, -7.0 / 3.0, 0.0])

    hit = fixed_point_check(seg, x, y)
    assert hit.face_member and hit.metric_fixed and hit.generalized_fixed
    assert hit.agree and not hit.inconclusive

    miss = fixed_point_check(seg, h, y)
    assert not (miss.face_member or miss.metric_fixed or miss.generalized_fixed)
    assert miss.agree

    ball = Ball(S, 2.0)
    u = S.point([1.0, -0.5, 0.8])
    juface = face(ball, duality_map(u))
    ystar = juface.representatives[0]
    rep = fixed_point_check(ball, u, ystar)
    assert rep.agree and rep.face_member
    other = (2.0 / norm(S.point([1.0, 1.0, 1.0]))) * S.point([1.0, 1.0, 1.0])
    rep2 = fixed_point_check(ball, u, other)
    assert rep2.agree and not rep2.face_member


def test_solve_vi_returns_certified_face_point():
    S = _cubic_space()
    ball = Ball(S, 2.0)
    psi = S.functional([0.5, -1.0, 2.0])
    sol = solve_vi(ball, psi)
    assert sol.point is not None
    expect = (2.0 / norm(psi)) * duality_map_inv(psi)
    assert np.max(np.abs(sol.point.coords - expect.coords)) <= 1e-9
    assert sol.metric_residual <= 1e-6 and sol.generalized_residual <= 1e-6

    unbounded = solve_vi(Ray(S.zero(), S.point([1.0, 1.0, 1.0])), S.functional([1.0, 1.0, 1.0]))
    assert unbounded.point is None
    assert unbounded.description.kind == "empty"


def test_dual_vision_identity_for_cones():
    rng = np.random.default_rng(73)
    for p in (1.5, 3.0):
        S = LpSpace(3, p, weights=rng.uniform(0.5, 1.8, size=3))
        K = FinitelyGeneratedCone(
            S.point(rng.normal(size=3)),
            [S.point([1.0, 0.0, 0.4]), S.point([0.0, 1.0, 0.1])],
        )
        rep = dual_vision_identity_check(K)
        assert rep.ok
        # the origin and every polar generator, each also pushed across its facets
        assert rep.checked >= len(K._polar)
        assert rep.disagreements == 0


def test_dual_vision_identity_sides_share_one_tolerance_rule():
    # the raw margin <psi, (100, 0)> = 5e-10 is below tol, but the unit pairing 5e-9 is not:
    # both sides of the identity must judge psi by the unit pairing, so both reject it
    S = LpSpace(2, 3.0)
    K = FinitelyGeneratedCone(S.zero(), [S.point([100.0, 0.0]), S.point([0.0, 1.0])])
    psi = S.functional([5e-12, -1e-3])
    v = S.zero()
    assert member_generalized_dual(K, psi) is False
    assert face_membership(K, psi - duality_map(v), v) is False


def _count_contains(monkeypatch):
    calls, contains = [], ConvexSet.contains

    def counted(self, x, tol=1e-9):
        calls.append(x)
        return contains(self, x, tol)

    monkeypatch.setattr(ConvexSet, "contains", counted)
    return calls


def test_classification_fits_the_point_once(monkeypatch):
    # the witness check takes y as the member classification has already fitted
    S = _cubic_space()
    K = FinitelyGeneratedCone(S.zero(), [S.point([1.0, 0.0, 0.0]), S.point([0.0, 1.0, 0.0])])
    calls = _count_contains(monkeypatch)
    for C, y in ((K, [2.0, 1.0, 0.0]), (K, [2.0, 0.0, 0.0]), (Ball(S, 2.0), [2.0, 0.0, 0.0])):
        calls.clear()
        assert classify_point(C, S.point(y)).verdict == "cuticle"
        assert len(calls) == 1


def test_dual_vision_identity_does_not_fit_the_vertex(monkeypatch):
    # y is the cone's own vertex, a member by construction
    rng = np.random.default_rng(74)
    S = LpSpace(3, 3.0, weights=rng.uniform(0.5, 1.8, size=3))
    K = FinitelyGeneratedCone(S.point(rng.normal(size=3)), [S.point(rng.normal(size=3)) for _ in range(3)])
    calls = _count_contains(monkeypatch)
    rep = dual_vision_identity_check(K)
    assert rep.ok and rep.checked > 1
    assert calls == []


def test_face_membership_requires_a_member():
    S = _cubic_space()
    ball = Ball(S, 1.0)
    with pytest.raises(ValueError):
        face_membership(ball, S.functional([1.0, 0.0, 0.0]), S.point([3.0, 0.0, 0.0]))


def test_classification_cross_check_survives_optimized_mode():
    # Under python -O a bare assert would vanish; the witness check must not.
    code = (
        "import sys\n"
        "import lpgeom.faces as F\n"
        "from lpgeom import LpSpace\n"
        "from lpgeom.sets import Ball\n"
        "F._attains = lambda *args, **kwargs: False\n"
        "S = LpSpace(3, 3.0)\n"
        "try:\n"
        "    F.classify_point(Ball(S, 2.0), S.point([2.0, 0.0, 0.0]))\n"
        "except RuntimeError:\n"
        "    print('raised', sys.flags.optimize)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised", "1"]
