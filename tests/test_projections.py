import math

import numpy as np
import pytest

from lpgeom.projections import (
    ProjectionResult,
    SolverOptions,
    _project_simplex,
    generalized_project,
    inverse_image_member_metric,
    metric_project,
    vi_residual_generalized,
    vi_residual_metric,
)
from lpgeom.sets import Ball, FinitelyGeneratedCone, Line, Polytope, Ray, Segment, Subspace
from lpgeom.spaces import LpSpace, duality_map, duality_map_inv, lyapunov, norm, pair

from _oracles import (
    euclid_project_ball,
    euclid_project_orthant_cone,
    euclid_project_segment,
    euclid_project_subspace,
    grid_min_lyapunov_on_line,
    grid_min_on_line,
)


def test_ray_projection_lands_on_unit_coefficient():
    S = LpSpace(3, 3.0)
    u = S.point([-25.0, -37.0, -77.0])
    K = Ray(S.zero(), u)
    w = S.point([-28.0, -35.0, -76.0])
    res = metric_project(K, w)
    assert res.converged
    assert res.vi_residual <= 1e-9
    assert np.max(np.abs(res.point.coords - u.coords)) <= 1e-6 * np.max(np.abs(u.coords))


def test_metric_segment_matches_grid():
    rng = np.random.default_rng(51)
    for p in (1.5, 3.0):
        w = rng.uniform(0.3, 2.5, size=3)
        S = LpSpace(3, p, weights=w)
        a = rng.normal(size=3)
        b = a + rng.normal(size=3) * 2.0
        seg = Segment(S.point(a), S.point(b))
        x = S.point(rng.normal(size=3) * 3.0)
        res = metric_project(seg, x)
        assert res.converged
        t_grid, v_grid = grid_min_on_line(x.coords, a, b - a, p, w, 0.0, 1.0)
        assert res.objective <= v_grid + 1e-10 * (1.0 + abs(v_grid))
        t_solver = float(np.dot(res.point.coords - a, b - a) / np.dot(b - a, b - a))
        assert abs(t_solver - t_grid) <= 2e-6


def test_generalized_ray_matches_grid():
    rng = np.random.default_rng(52)
    for p in (1.5, 3.0):
        w = rng.uniform(0.3, 2.5, size=3)
        S = LpSpace(3, p, weights=w)
        d = rng.normal(size=3)
        K = Ray(S.zero(), S.point(d))
        psi = S.functional(rng.normal(size=3))
        res = generalized_project(K, psi)
        assert res.converged
        t_solver = float(np.dot(res.point.coords, d) / np.dot(d, d))
        hi = max(4.0, 4.0 * t_solver)
        t_grid, v_grid = grid_min_lyapunov_on_line(
            psi.coords, norm(psi), np.zeros(3), d, p, w, 0.0, hi
        )
        assert res.objective <= v_grid + 1e-10 * (1.0 + abs(v_grid))
        assert abs(t_solver - t_grid) <= 2.0 * hi / 10**6 + 1e-9


def test_euclidean_closed_forms_at_p_two():
    S = LpSpace(3, 2.0)
    rng = np.random.default_rng(53)
    for _ in range(20):
        x = rng.normal(size=3) * 4.0
        xp = S.point(x)

        got = metric_project(Ball(S, 1.5), xp).point.coords
        assert np.max(np.abs(got - euclid_project_ball(x, 1.5))) <= 1e-9

        a, b = rng.normal(size=3), rng.normal(size=3)
        got = metric_project(Segment(S.point(a), S.point(b)), xp).point.coords
        assert np.max(np.abs(got - euclid_project_segment(x, a, b))) <= 1e-9

        gens = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
        K = FinitelyGeneratedCone(S.zero(), [S.point(g) for g in gens])
        got = metric_project(K, xp).point.coords
        assert np.max(np.abs(got - euclid_project_orthant_cone(x, gens))) <= 1e-9

        basis = [rng.normal(size=3), rng.normal(size=3)]
        got = metric_project(Subspace(S, [S.point(v) for v in basis]), xp).point.coords
        assert np.max(np.abs(got - euclid_project_subspace(x, basis))) <= 1e-8


def test_ball_closed_forms_with_weights():
    S = LpSpace(4, 3.0, weights=[0.4, 1.0, 1.7, 2.2])
    rng = np.random.default_rng(54)
    x = S.point(rng.normal(size=4) * 5.0)
    res = metric_project(Ball(S, 1.0), x)
    assert res.method == "closed-form"
    assert abs(norm(res.point) - 1.0) <= 1e-12
    assert res.vi_residual <= 1e-12

    psi = S.functional(rng.normal(size=4) * 3.0)
    gres = generalized_project(Ball(S, 1.0), psi)
    scale = min(1.0, 1.0 / norm(psi))
    expect = scale * duality_map_inv(psi).coords
    assert np.max(np.abs(gres.point.coords - expect)) <= 1e-12
    assert gres.vi_residual <= 1e-10


def test_projection_is_idempotent():
    S = LpSpace(3, 1.5, weights=[0.8, 1.1, 1.9])
    rng = np.random.default_rng(55)
    K = FinitelyGeneratedCone(
        S.zero(), [S.point([1.0, 0.1, 0.0]), S.point([0.0, 1.0, 0.3]), S.point([0.2, 0.0, 1.0])]
    )
    seg = Segment(S.point([1.0, -1.0, 0.5]), S.point([-2.0, 0.5, 1.0]))
    for C in (K, seg, Ball(S, 2.0)):
        x = S.point(rng.normal(size=3) * 4.0)
        once = metric_project(C, x).point
        twice = metric_project(C, once).point
        assert np.max(np.abs(once.coords - twice.coords)) <= 1e-7


def test_metric_projection_homogeneous_on_pointed_cones():
    rng = np.random.default_rng(56)
    for p in (1.5, 3.0):
        S = LpSpace(3, p, weights=rng.uniform(0.4, 2.0, size=3))
        K = FinitelyGeneratedCone(S.zero(), [S.point([1.0, 0.0, 0.4]), S.point([0.0, 1.0, 0.2])])
        x = S.point(rng.normal(size=3) * 2.0)
        base = metric_project(K, x).point.coords
        for lam in (0.5, 2.0, 10.0):
            scaled = metric_project(K, lam * x).point.coords
            assert np.max(np.abs(scaled - lam * base)) <= 1e-6 * (1.0 + lam * np.max(np.abs(base)))


def test_trace_is_monotone_nonincreasing():
    S = LpSpace(4, 3.0, weights=[0.5, 1.0, 1.5, 2.0])
    K = FinitelyGeneratedCone(
        S.zero(),
        [S.point([1.0, 0.0, 0.0, 0.2]), S.point([0.0, 1.0, 0.1, 0.0]), S.point([0.0, 0.0, 1.0, 0.5])],
    )
    x = S.point([-1.0, 2.0, -0.5, 3.0])
    res = metric_project(K, x, SolverOptions(collect_trace=True))
    assert res.trace is not None and len(res.trace) >= 2
    diffs = np.diff(np.array(res.trace))
    assert np.all(diffs <= 1e-12)


def test_members_are_fixed_points():
    S = LpSpace(3, 3.0, weights=[0.6, 1.0, 1.4])
    ball = Ball(S, 2.0)
    inside = S.point([0.3, -0.2, 0.1])
    assert np.max(np.abs(metric_project(ball, inside).point.coords - inside.coords)) <= 1e-12

    K = FinitelyGeneratedCone(S.zero(), [S.point([1.0, 0.0, 0.0]), S.point([0.0, 1.0, 0.0])])
    member = S.point([1.5, 0.7, 0.0])
    got = metric_project(K, member).point.coords
    assert np.max(np.abs(got - member.coords)) <= 1e-7

    # V(J x, x) = 0, so the generalized projection of J x is x itself
    psi = duality_map(member)
    gres = generalized_project(K, psi)
    assert np.max(np.abs(gres.point.coords - member.coords)) <= 1e-7
    assert lyapunov(psi, gres.point) <= 1e-10


def test_nonconvergence_is_reported_honestly():
    S = LpSpace(3, 3.0, weights=[0.5, 1.0, 2.0])
    psi = S.functional([2.0, -1.0, 0.5])
    K = FinitelyGeneratedCone(S.zero(), [S.point([1.0, 0.0, 0.0]), S.point([0.0, 1.0, 1.0])])
    starved = SolverOptions(max_iters=1, polish=False, vi_tol=1e-12)
    res = generalized_project(K, psi, starved)
    assert not res.converged
    assert K.contains(res.point, 1e-6)
    # with the full budget the same instance certifies
    assert generalized_project(K, psi).converged


def test_nonsmooth_exponents_rejected():
    for p in (1.0, math.inf):
        S = LpSpace(2, p)
        ball = Ball(S, 1.0)
        with pytest.raises(ValueError):
            metric_project(ball, S.point([2.0, 0.0]))
        with pytest.raises(ValueError):
            generalized_project(ball, S.functional([2.0, 0.0]))


def test_vi_residual_requires_membership():
    S = LpSpace(2, 2.0)
    ball = Ball(S, 1.0)
    outside = S.point([3.0, 0.0])
    with pytest.raises(ValueError):
        vi_residual_metric(ball, S.point([5.0, 0.0]), outside)
    with pytest.raises(ValueError):
        vi_residual_generalized(ball, S.functional([5.0, 0.0]), outside)


def test_inverse_image_membership_decision():
    S = LpSpace(3, 2.0)
    K = FinitelyGeneratedCone(S.zero(), [S.point([1.0, 0.0, 0.0]), S.point([0.0, 1.0, 0.0])])
    x = S.point([-1.0, 2.0, 3.0])
    assert inverse_image_member_metric(K, S.point([0.0, 2.0, 0.0]), x)
    assert not inverse_image_member_metric(K, S.point([1.0, 0.0, 0.0]), x)

    # cross-check against the solver at p = 3
    S3 = LpSpace(3, 3.0, weights=[0.7, 1.2, 1.0])
    K3 = FinitelyGeneratedCone(S3.zero(), [S3.point([1.0, 0.0, 0.2]), S3.point([0.0, 1.0, 0.0])])
    x3 = S3.point([0.5, -2.0, 1.5])
    y3 = metric_project(K3, x3).point
    assert inverse_image_member_metric(K3, y3, x3)


def test_simplex_projection_certificate():
    rng = np.random.default_rng(57)
    for _ in range(200):
        v = rng.normal(size=rng.integers(2, 7)) * 3.0
        t = _project_simplex(v)
        assert np.all(t >= 0.0)
        assert abs(t.sum() - 1.0) <= 1e-12
        # Euclidean variational inequality against every vertex
        for i in range(v.size):
            e = np.zeros(v.size)
            e[i] = 1.0
            assert np.dot(v - t, e - t) <= 1e-10


def test_line_and_polytope_round_trip():
    S = LpSpace(3, 3.0, weights=[1.0, 0.5, 1.5])
    line = Line(S.point([1.0, 0.0, 0.0]), S.point([0.0, 1.0, -1.0]))
    x = S.point([2.0, 3.0, 1.0])
    res = metric_project(line, x)
    assert res.converged and res.vi_residual <= 1e-9

    P = Polytope([S.point([1.0, 0.0, 0.0]), S.point([0.0, 1.0, 0.0]), S.point([0.0, 0.0, 1.0])])
    res = metric_project(P, x)
    assert res.converged
    assert P.contains(res.point, 1e-7)
    gres = generalized_project(P, S.functional([0.3, -1.0, 2.0]))
    assert gres.converged
    assert P.contains(gres.point, 1e-7)


def test_solver_options_validated():
    with pytest.raises(ValueError):
        SolverOptions(max_iters=0)
    with pytest.raises(ValueError):
        SolverOptions(vi_tol=0.0)


def test_metric_projection_small_perturbation_proxy():
    """Coarse continuity proxy: nearby inputs project to nearby outputs.

    This checks a finite modulus on random instances (input shift 1e-6
    relative, output drift under 1e-3), which is weaker than continuity
    itself but catches any jump the solvers could smuggle in.
    """
    rng = np.random.default_rng(77)
    opts = SolverOptions(vi_tol=1e-9)
    checked = 0
    for trial in range(40):
        p = (1.5, 3.0)[trial % 2]
        S = LpSpace(3, p, weights=rng.uniform(0.4, 2.0, size=3))
        a = rng.normal(size=3) * 2.0
        b = a + rng.normal(size=3) * 2.0
        C = (
            Segment(S.point(a), S.point(b))
            if trial % 3 == 0
            else Ray(S.point(a), S.point(b))
            if trial % 3 == 1
            else Ball(S, 1.5)
        )
        x = S.point(rng.normal(size=3) * 3.0)
        scale = 1.0 + float(np.max(np.abs(x.coords)))
        base = metric_project(C, x, opts)
        if not base.converged:
            continue
        shift = rng.normal(size=3)
        shift *= 1e-6 * scale / np.linalg.norm(shift)
        moved = metric_project(C, S.point(x.coords + shift), opts)
        if not moved.converged:
            continue
        drift = float(np.max(np.abs(moved.point.coords - base.point.coords)))
        assert drift <= 1e-3 * scale, (trial, p, drift)
        checked += 1
    assert checked >= 35
