import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import lpgeom.projections
from lpgeom.projections import (
    ProjectionResult,
    _arc_search,
    _ChartObjective,
    _model_step,
    generalized_project,
    inverse_image_member_metric,
    metric_project,
    vi_residual_generalized,
    vi_residual_metric,
)
from lpgeom.sets import (
    Ball,
    FinitelyGeneratedCone,
    Line,
    Polytope,
    Ray,
    Segment,
    Subspace,
    _Polyhedral,
    _project_simplex,
)
from lpgeom.spaces import LpSpace, duality_map, duality_map_inv, lyapunov, norm, pair
from lpgeom.suite import _PROPERTIES, _rng, fuzz_target_ids

from _oracles import (
    chart_gradient,
    chart_objective,
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
    assert res.method == "closed-form" and res.stop_reason == "closed-form"
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


def test_trace_is_monotone_nonincreasing(monkeypatch):
    # the objective at the warm start, then after each step the arc search accepts
    trace = []

    def recording(F, project, t, fval, *rest):
        if not trace:
            trace.append(fval)
        moved = _arc_search(F, project, t, fval, *rest)
        if moved is not None:
            trace.append(moved[0].f)
        return moved

    monkeypatch.setattr(lpgeom.projections, "_arc_search", recording)
    S = LpSpace(4, 3.0, weights=[0.5, 1.0, 1.5, 2.0])
    K = FinitelyGeneratedCone(
        S.zero(),
        [S.point([1.0, 0.0, 0.0, 0.2]), S.point([0.0, 1.0, 0.1, 0.0]), S.point([0.0, 0.0, 1.0, 0.5])],
    )
    x = S.point([-1.0, 2.0, -0.5, 3.0])
    res = metric_project(K, x)
    assert len(trace) >= 2 and len(trace) == res.iterations + 1
    diffs = np.diff(np.array(trace))
    assert np.all(diffs <= 1e-12)


def _polyhedral_family(rng, n):
    """A space and one set of each type in R^n, with independent and dependent charts.

    Cones and polytopes come three ways: at most n generic directions, n + 2
    of them, and k <= n drawn inside an r-dimensional subspace, r < k.
    """
    S = LpSpace(n, float(rng.choice([1.5, 2.0, 3.0, 4.0])), weights=rng.uniform(0.5, 2.0, n))
    pts = lambda k: [S.point(v) for v in rng.normal(size=(k, n))]  # noqa: E731
    r = int(rng.integers(1, n))
    basis = rng.normal(size=(r, n))
    flat = [S.point(c @ basis) for c in rng.normal(size=(int(rng.integers(r + 1, n + 1)), r))]
    few = int(rng.integers(1, n + 1))
    return S, [
        Segment(*pts(2)),
        Ray(*pts(2)),
        Line(*pts(2)),
        FinitelyGeneratedCone(pts(1)[0], pts(few)),
        FinitelyGeneratedCone(pts(1)[0], pts(n + 2)),
        FinitelyGeneratedCone(pts(1)[0], flat),
        Polytope(pts(few)),
        Polytope(pts(n + 2)),
        Polytope(flat),
        Subspace(S, pts(int(rng.integers(1, n)))),
    ]


def _chart_member(C, rng, zeros=0):
    """A member base + D t of C with t in the chart's domain, ``zeros`` coefficients at 0 where it has a bound."""
    k = C._lo.size
    free = np.all(np.isinf(C._lo))
    if C._simplex:
        t = rng.dirichlet(np.ones(k))
    elif np.all(np.isfinite(C._hi)):
        t = rng.uniform(0.0, 1.0, k)
    else:
        t = rng.uniform(0.1, 3.0, k) * (rng.choice([-1.0, 1.0], k) if free else 1.0)
    if not free and k > 1:
        t[rng.choice(k, size=min(zeros, k - 1), replace=False)] = 0.0
        if C._simplex:
            t /= t.sum()
    return C.space.point(C._base + C._D @ t), t


def test_members_are_fixed_points():
    # every set type returns a member bit for bit, without a solver step, whatever its chart
    rng = np.random.default_rng(61)
    checked = 0
    for trial in range(12):
        S, family = _polyhedral_family(rng, 2 + trial % 5)
        for C in family + [Ball(S, 2.0)]:
            members = C.sample(2, seed=trial)
            if not isinstance(C, Ball):
                members += [_chart_member(C, rng, zeros)[0] for zeros in (0, 1, 2)]
            for x in members:
                res = metric_project(C, x)
                assert res.point.coords.tobytes() == x.coords.tobytes(), (trial, C)
                assert res.objective == 0.0 and res.stop_reason == "closed-form" and res.converged
                # V(J x, x) = 0, so the generalized projection of J x is J*(J x), the unconstrained minimizer
                psi = duality_map(x)
                gres = generalized_project(C, psi)
                assert gres.point.coords.tobytes() == duality_map_inv(psi).coords.tobytes(), (trial, C)
                assert gres.stop_reason == "closed-form" and gres.converged
                assert lyapunov(psi, gres.point) <= 1e-10 * (1.0 + norm(x) ** 2)
                checked += 1
    assert checked >= 12 * 11 * 2


def _refuse_nnls(*args):
    raise AssertionError("nonnegative least squares on the projection path")


def test_projections_certify_without_nnls(monkeypatch):
    import lpgeom.polyhedra
    import lpgeom.sets

    monkeypatch.setattr(lpgeom.sets, "_nnls", _refuse_nnls)
    monkeypatch.setattr(lpgeom.polyhedra, "_nnls", _refuse_nnls)
    rng = np.random.default_rng(62)
    n, k = 50, 12
    S = LpSpace(n, 3.0, weights=rng.uniform(0.3, 3.0, n))
    pts = lambda m: [S.point(v) for v in rng.normal(size=(m, n))]  # noqa: E731
    for C in (FinitelyGeneratedCone(pts(1)[0], pts(k)), Polytope(pts(k)), Subspace(S, pts(k))):
        for _ in range(3):
            res = metric_project(C, S.point(3.0 * rng.normal(size=n)))
            assert res.converged and res.stop_reason != "closed-form", C
            assert generalized_project(C, S.functional(2.0 * rng.normal(size=n))).converged, C
        for zeros in (0, 3):
            x, _ = _chart_member(C, rng, zeros)
            res = metric_project(C, x)
            assert res.converged and res.point.coords.tobytes() == x.coords.tobytes(), C
            gres = generalized_project(C, duality_map(x))
            assert gres.converged and gres.stop_reason == "closed-form", C


def test_witness_is_sound():
    # a witness is rejected whenever it is off its domain or does not rebuild u,
    # and one that is accepted always passes the independent NNLS membership test
    rng = np.random.default_rng(63)
    accepted = 0
    for trial in range(20):
        S, family = _polyhedral_family(rng, 2 + trial % 5)
        for C in family:
            x = S.point(rng.normal(size=S.n))
            u, t = _chart_member(C, rng, zeros=trial % 3)
            vi_residual_metric(C, x, u, witness=t)  # the true witness passes
            scale = 1.0 + float(np.linalg.norm(u.coords)) + C._scale()

            def rejects(v, tw):
                with pytest.raises(ValueError):
                    vi_residual_metric(C, x, v, witness=tw)

            rebuilt = lambda tw: S.point(C._base + C._D @ tw)  # noqa: E731
            if t.size and np.all(C._lo == 0.0):
                neg = t.copy()
                neg[rng.integers(t.size)] = -1e-3
                rejects(rebuilt(neg), neg)
            if t.size and np.all(C._hi == 1.0):
                over = np.full(t.size, 1.0 + 1e-3)
                rejects(rebuilt(over), over)
            if C._simplex:
                off = t * (1.0 + 1e-3)
                rejects(rebuilt(off), off)
            step = rng.normal(size=S.n)
            rejects(S.point(u.coords + 1e-3 * scale * step / np.linalg.norm(step)), t)
            # near the acceptance threshold, acceptance implies the NNLS test
            for size in (1e-9, 1e-7, 1e-6, 3e-6, 1e-5):
                step = rng.normal(size=S.n)
                v = S.point(u.coords + size * scale * step / np.linalg.norm(step))
                tw = t + size * rng.normal(size=t.size)
                for w in (t, tw):
                    try:
                        vi_residual_metric(C, x, v, witness=w)
                    except ValueError:
                        continue
                    assert C.contains(v, 1e-6), (trial, C, size)
                    accepted += 1
    assert accepted >= 200
    # a ball has no chart, so nothing can witness membership in it
    ball = Ball(S, 1.0)
    with pytest.raises(TypeError):
        vi_residual_metric(ball, S.point(np.ones(S.n)), S.zero(), witness=np.zeros(1))


def test_nonconvergence_is_reported_honestly(monkeypatch):
    S = LpSpace(3, 3.0, weights=[0.5, 1.0, 2.0])
    psi = S.functional([2.0, -1.0, 0.5])
    K = FinitelyGeneratedCone(S.zero(), [S.point([1.0, 0.0, 0.0]), S.point([0.0, 1.0, 1.0])])
    with monkeypatch.context() as m:
        m.setattr(lpgeom.projections, "_MAX_ITERS", 1)
        res = generalized_project(K, psi, vi_tol=1e-12)
    assert not res.converged
    assert res.iterations == 1 and res.stop_reason == "max-iters"
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


@pytest.mark.parametrize(
    "v, want",
    [
        ([9.1e15, 1.0, 0.5], [1.0, 0.0, 0.0]),
        ([1e17, 1e17, 0.0], [0.5, 0.5, 0.0]),
        ([-1e17, -1e17, -3e17], [0.5, 0.5, 0.0]),
        ([1e300, 1e300, 1e300], [1.0 / 3.0] * 3),
    ],
)
def test_simplex_projection_of_coordinates_beyond_two_to_the_53(v, want):
    # u0 - 1 rounds to u0 there, so the sorting rule finds no support unless it shifts by u0 first
    t = _project_simplex(np.array(v))
    assert np.all(t >= 0.0)
    assert abs(t.sum() - 1.0) <= 4 * np.finfo(float).eps
    assert np.allclose(t, want, rtol=0.0, atol=4 * np.finfo(float).eps)


def test_a_projection_builds_one_typed_vector_its_point(monkeypatch):
    # arrays inside: the unconstrained minimizer, the closed form, the member
    # shortcut and the certificate's functional are never wrapped
    import lpgeom.spaces

    built = []
    init = lpgeom.spaces._CoordVec.__init__

    def counted(self, space, coords):
        built.append(type(self).__name__)
        init(self, space, coords)

    S = LpSpace(3, 3.0, weights=[0.5, 1.0, 2.0])
    K = FinitelyGeneratedCone(S.point([0.5, -1.0, 0.0]), [S.point([1.0, 0.2, 0.0]), S.point([0.0, 1.0, 0.3])])
    cases = [
        (K, [3.0, -4.0, 2.0]),  # outside: the chart loop
        (K, [2.0, 0.2, 0.3]),  # a member: the shortcut
        (Ball(S, 1.5), [3.0, -4.0, 2.0]),  # outside: the radial closed form
        (Ball(S, 1.5), [0.1, 0.2, -0.3]),  # inside: the point itself
    ]
    for C, v in cases:
        for project, arg in ((metric_project, S.point(v)), (generalized_project, S.functional(v))):
            with monkeypatch.context() as m:
                m.setattr(lpgeom.spaces._CoordVec, "__init__", counted)
                built.clear()
                res = project(C, arg)
            assert res.converged and built == ["PrimalVec"], (C, v, project.__name__, built)


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
    # vi_tol must be a finite positive float: NaN would certify nothing, inf anything
    S = LpSpace(2, 3.0)
    ball = Ball(S, 1.0)
    for vi_tol in (0.0, -1e-6, math.nan, math.inf):
        with pytest.raises(ValueError, match="vi_tol"):
            metric_project(ball, S.point([2.0, 0.0]), vi_tol)
        with pytest.raises(ValueError, match="vi_tol"):
            generalized_project(ball, S.functional([2.0, 0.0]), vi_tol=vi_tol)


def test_metric_projection_small_perturbation_proxy():
    """Coarse continuity proxy: nearby inputs project to nearby outputs.

    This checks a finite modulus on random instances (input shift 1e-6
    relative, output drift under 1e-3), which is weaker than continuity
    itself but catches any jump the solvers could smuggle in.
    """
    rng = np.random.default_rng(77)
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
        base = metric_project(C, x, vi_tol=1e-9)
        if not base.converged:
            continue
        shift = rng.normal(size=3)
        shift *= 1e-6 * scale / np.linalg.norm(shift)
        moved = metric_project(C, S.point(x.coords + shift), vi_tol=1e-9)
        if not moved.converged:
            continue
        drift = float(np.max(np.abs(moved.point.coords - base.point.coords)))
        assert drift <= 1e-3 * scale, (trial, p, drift)
        checked += 1
    assert checked >= 35


def test_small_generalized_projections_certify():
    # a weighted Euclidean polygon with four vertices, and a p = 3 cone
    S = LpSpace(2, 2.0, weights=[2.3952342616386706, 2.4394481332079074])
    P = Polytope(
        [
            S.point([-0.23687894629141873, -1.072703285943777]),
            S.point([0.7519045574883961, 0.28420157889417047]),
            S.point([1.4957983368875416, 1.297693004639104]),
            S.point([-1.8740127088139558, 0.4531401576112154]),
        ]
    )
    assert generalized_project(P, S.functional([0.7694357691326593, 0.24392897346277803])).converged

    S = LpSpace(3, 3.0, weights=[2.401729762133054, 2.411419696668394, 0.4288674288679706])
    K = FinitelyGeneratedCone(
        S.point([-0.043688011724091196, -1.4078659108655613, -0.3918975638107645]),
        [
            S.point([0.023442799796641513, 1.4507704349397363, 0.8361797265818771]),
            S.point([0.960981417609757, 1.978808134584209, 0.6022637450156023]),
            S.point([-0.7076781265704745, 0.4847094601543568, 0.7020962379489094]),
        ],
    )
    psi = S.functional([2.8376842816270775e-05, 6.550873610160751, 1.8489463691788122])
    assert generalized_project(K, psi).converged


def test_sixty_dimensional_cones_certify_at_p_one_and_a_half():
    S = LpSpace(60, 1.5)
    for seed, kind in ((14, "metric"), (32, "generalized")):
        rng = np.random.default_rng(seed)
        K = FinitelyGeneratedCone(S.zero(), [S.point(rng.normal(size=60)) for _ in range(15)])
        x = S.point(3.0 * rng.normal(size=60))
        if kind == "metric":
            res = metric_project(K, x)
        else:
            res = generalized_project(K, S.functional(2.0 * rng.normal(size=60)))
        assert res.converged, (seed, res.vi_residual)


@pytest.mark.parametrize(
    "seed, p, trial",
    [(0, 1.5, 456), (0, 1.5, 1253), (0, 1.5, 1907), (1, 1.5, 114), (1, 1.5, 854), (1, 1.5, 1123),
     (0, 2.0, 840), (0, 1.1, 75)],
)
def test_metric_projection_vi_fuzz_trials_certify(seed, p, trial):
    # rebuilt from (seed, target, trial); (0, 2.0, 840) starts at a simplex vertex;
    # (0, 1.1, 75) runs out of steps if shrunk steps must also pass the overshoot test
    index = fuzz_target_ids().index("metric-projection-vi")
    prop = _PROPERTIES["metric-projection-vi"]
    assert prop.holds(*prop.sample(_rng(seed, index, trial), p)) is None


@pytest.mark.parametrize(
    "weights, a, b, x",
    [
        (
            [2.7908647816877155, 2.853180461152472, 2.3994264437399595],
            [0.3938188351643765, 0.7313870826593354, -0.10880705217848688],
            [0.23642689250859533, 0.6406483264048408, -2.141472762199571],
            [1.1915488761929813, -1.9937493047176729, -0.8275289348404761],
        ),
        (
            [1.4440304321930886, 1.7691023066525131, 0.6433032737434696, 0.5578072466869786, 2.726440751719381],
            [0.4401873564518526, -0.47220995425312595, 2.0563035584174365, -1.541972877278924, -1.3444005929852376],
            [0.6774763581542552, 0.17700707129719614, -1.485142182377684, -0.4876881869386512, 2.1826010578125135],
            [-0.26918402344246894, 1.0406174882764532, 3.177378496810454, 3.3707048111441065, -1.3039523346998252],
        ),
    ],
)
def test_segments_with_a_vanishing_residual_coordinate_certify_quickly(weights, a, b, x):
    # at p = 1.5 the optimum's residual has a coordinate near zero, where the
    # Hessian blows up, and full Newton steps can bounce across the optimum
    S = LpSpace(len(a), 1.5, weights=weights)
    res = metric_project(Segment(S.point(a), S.point(b)), S.point(x))
    assert res.converged and res.stop_reason == "grad-tol"
    assert res.iterations <= 40


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("where", [0.0, 1.0, 0.37])
def test_segment_optimum_at_either_endpoint_or_inside(p, where):
    # x - u* = J*(phi) (metric) or psi = J(u*) + phi (generalized) puts the
    # optimum at u* = a + where (b - a) exactly when <phi, b - a> is < 0, > 0
    # or 0 for where = 0, 1 or inside
    rng = np.random.default_rng(58)
    w = rng.uniform(0.3, 2.5, size=4)
    S = LpSpace(4, p, weights=w)
    a, d = rng.normal(size=4), 2.0 * rng.normal(size=4)
    seg = Segment(S.point(a), S.point(a + d))
    phi = rng.normal(size=4)
    phi -= (np.dot(w * phi, d) / np.dot(w * d, d)) * d
    phi += {0.0: -0.5, 1.0: 0.5}.get(where, 0.0) * d
    best = S.point(a + where * d)
    x = S.point(best.coords + duality_map_inv(S.functional(phi)).coords)
    for res in (metric_project(seg, x), generalized_project(seg, duality_map(best) + S.functional(phi))):
        assert res.converged and res.method == "projected-gradient"
        assert np.max(np.abs(res.point.coords - best.coords)) <= 1e-7 * (1.0 + np.max(np.abs(a)))


def test_one_direction_solves_take_few_newton_steps():
    # a count of steps, not a timing: a regression to a slow route shows here
    rng = np.random.default_rng(59)
    worst = 0
    for trial in range(400):
        n = int(rng.integers(2, 7))
        S = LpSpace(n, (1.5, 2.0, 3.0, 4.0)[trial % 4], weights=rng.uniform(0.3, 3.0, size=n))
        a, d = rng.normal(size=n), 2.0 * rng.normal(size=n)
        C = (Segment(S.point(a), S.point(a + d)), Ray(S.point(a), S.point(d)), Line(S.point(a), S.point(d)))[
            trial % 3
        ]
        if (trial // 4) % 2:
            res = metric_project(C, S.point(3.0 * rng.normal(size=n)))
        else:
            res = generalized_project(C, S.functional(3.0 * rng.normal(size=n)))
        assert res.converged, (trial, res.vi_residual)
        worst = max(worst, res.iterations)
    assert worst <= 40


def test_arc_search_stops_once_no_smaller_step_can_pass():
    # a flat objective whose gradient mapping no step halves; the coefficient at
    # zero keeps the move from ever rounding away, so halving alone runs 60 times
    evals = []
    g = np.array([0.0, 1e-12])

    class FlatObjective:
        def __call__(self, t):
            evals.append(t)
            return SimpleNamespace(f=1.0)

        def gradient(self, x):
            return g

    t = np.array([1.0, 0.0])
    assert _arc_search(FlatObjective(), lambda u: u, t, 1.0, g, 1e-12, -g, 1.0, 1e-14) is None
    assert len(evals) < 20


def _guard_sets(S):
    line = Line(S.point([1.0, -2.0, 0.5, 3.0]), S.point([0.3, 1.0, -1.0, 0.2]))
    cone = FinitelyGeneratedCone(
        S.zero(),
        [S.point([1.0, 0.0, 0.0, 0.2]), S.point([0.0, 1.0, 0.1, 0.0]), S.point([0.0, 0.0, 1.0, 0.5])],
    )
    return line, cone


def test_loop_takes_one_norm_per_trial_point_and_no_duality_map(monkeypatch):
    # inside the loop norm_of runs once per objective evaluation, plus once
    # for the nonzero datum: ||c|| of the metric projection, ||ell||_* of the
    # generalized one (the zero datum takes no norm); J comes from the shared
    # kernel, not jmap
    calls = {"norm_of": 0, "jmap": 0}
    for name in calls:

        def counted(self, *args, _name=name, _original=getattr(LpSpace, name)):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(LpSpace, name, counted)
    solve = lpgeom.projections._solve_on_chart
    inside = []

    def recording(*args):
        before = dict(calls)
        out = solve(*args)
        inside.append((calls["norm_of"] - before["norm_of"], calls["jmap"] - before["jmap"]))
        return out

    monkeypatch.setattr(lpgeom.projections, "_solve_on_chart", recording)
    x = [-1.0, 2.0, -0.5, 3.0]
    for p in (1.5, 3.0, 4.0):
        S = LpSpace(4, p, weights=[0.5, 1.0, 1.5, 2.0])
        for C in _guard_sets(S):
            for project, data in ((metric_project, S.point(x)), (generalized_project, S.functional(x))):
                inside.clear()
                res = project(C, data)
                assert res.iterations >= 1 and len(inside) == 1, (p, C, project)
                norms, jmaps = inside[0]
                assert norms == res.objective_evaluations + 1, (p, C, project)
                assert jmaps == 0, (p, C, project)


def test_evaluation_counts():
    # closed forms and members take no evaluation; the loop evaluates the
    # warm start and then each trial point, and its gradient where the arc
    # search asks for one, which it does at least at every accepted point
    rng = np.random.default_rng(64)
    S = LpSpace(4, 3.0, weights=[0.5, 1.0, 1.5, 2.0])
    ball = metric_project(Ball(S, 1.0), S.point(rng.normal(size=4) * 5.0))
    line, cone = _guard_sets(S)
    member = metric_project(cone, S.point([2.0, 1.0, 1.1, 0.9]))  # 2 g1 + g2 + g3
    for res in (ball, member):
        assert res.stop_reason == "closed-form"
        assert (res.objective_evaluations, res.gradient_evaluations) == (0, 0)
    for C in (line, cone):
        res = metric_project(C, S.point([-1.0, 2.0, -0.5, 3.0]))
        assert res.stop_reason == "grad-tol" and res.iterations >= 1
        assert res.iterations + 1 <= res.gradient_evaluations <= res.objective_evaluations


def test_chart_objective_gives_the_separate_formulas_bit_for_bit():
    # F and its gradient from one evaluation equal the formulas that each
    # rebuild the residual, at random points, with zero residual coordinates
    # and with a zero residual
    rng = np.random.default_rng(65)
    for p in (1.5, 2.0, 3.0, 4.0):
        S = LpSpace(5, p, weights=rng.uniform(0.3, 3.0, 5))
        C = FinitelyGeneratedCone(S.point(rng.normal(size=5)), [S.point(rng.normal(size=5)) for _ in range(3)])
        base, D = C._base, C._D
        for trial in range(12):
            t = rng.uniform(0.0, 2.0, 3)
            u = base + D @ t
            c = rng.normal(size=5) * 3.0
            if trial % 3 == 1:
                c[:2] = u[:2]
            elif trial % 3 == 2:
                c = u.copy()
            for ell in (np.zeros(5), rng.normal(size=5)):
                F = _ChartObjective(C, c, ell)
                at = F(t)
                assert at.f == chart_objective(S, base, D, c, ell, t)
                assert np.array_equal(F.gradient(at), chart_gradient(S, base, D, c, ell, t))


def test_one_by_one_systems_divide_with_the_bits_of_solve(monkeypatch):
    # the division is dgesv's at n = 1; entries span 1e-150..1e150, both signs
    rng = np.random.default_rng(66)
    H = rng.uniform(-1.0, 1.0, 10000) * 10.0 ** rng.uniform(-150.0, 150.0, 10000)
    rhs = rng.uniform(-1.0, 1.0, 10000) * 10.0 ** rng.uniform(-150.0, 150.0, 10000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for h, r in zip(H, rhs):
            system = (np.array([[h]]), np.array([r]))
            step = _model_step(*system, True)
            assert step.shape == (1,) and step[0] == np.linalg.solve(*system)[0], (h, r)
        # a singular 1 x 1 system still goes to the least-squares solve, which returns 0
        calls = []
        lstsq = np.linalg.lstsq

        def counted(*args, **kwargs):
            calls.append(args)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counted)
        assert np.array_equal(_model_step(np.zeros((1, 1)), np.zeros(1), True), [0.0])
        assert len(calls) == 1


def test_non_finite_systems_never_reach_lapack(monkeypatch):
    # such a system gets a NaN step before any solve: LAPACK's scaling routine would print an error
    def refused(*args, **kwargs):
        raise AssertionError("a non-finite system reached LAPACK")

    monkeypatch.setattr(np.linalg, "solve", refused)
    monkeypatch.setattr(np.linalg, "lstsq", refused)
    for bad in (math.inf, -math.inf, math.nan):
        for size in (1, 3):
            for in_matrix in (True, False):
                H, rhs = np.eye(size), np.ones(size)
                if in_matrix:
                    H[0, -1] = bad
                else:
                    rhs[-1] = bad
                for full_rank in (True, False):
                    step = _model_step(H, rhs, full_rank)
                    assert step.shape == (size,) and np.isnan(step).all(), (bad, size, in_matrix)


def test_chart_constants_are_built_once_and_keep_every_bit(monkeypatch):
    # answers on one set, projected many times, equal answers on fresh copies of it
    rng = np.random.default_rng(67)
    S = LpSpace(4, 3.0, weights=[0.5, 1.0, 1.5, 2.0])
    data = [rng.normal(size=4) * 3.0 for _ in range(5)]

    def cone():
        return FinitelyGeneratedCone(S.point([0.5, -1.0, 0.0, 0.2]), [S.point(v) for v in np.eye(4)[:3] + 0.3])

    def polytope():
        return Polytope([S.point(v) for v in ([1.0, 0.0, 0.0, 0.0], [0.0, 2.0, 1.0, 0.0], [-1.0, 0.5, 0.0, 1.0])])

    def segment():
        return Segment(S.point([1.0, -2.0, 0.5, 3.0]), S.point([0.3, 1.0, -1.0, 0.2]))

    chart = _Polyhedral.__dict__["_chart"]
    builds = []
    build = chart.func

    def counted(C):
        builds.append(C)
        return build(C)

    monkeypatch.setattr(chart, "func", counted)
    for make in (cone, polytope, segment):
        C = make()
        builds.clear()
        for v in data:
            for project, arg in ((metric_project, S.point), (generalized_project, S.functional)):
                kept, fresh = project(C, arg(v)), project(make(), arg(v))
                assert np.array_equal(kept.point.coords, fresh.point.coords), (make, v)
                assert (kept.objective, kept.vi_residual, kept.iterations, kept.stop_reason) == (
                    fresh.objective,
                    fresh.vi_residual,
                    fresh.iterations,
                    fresh.stop_reason,
                )
        assert builds.count(C) == 1, make
