import numpy as np
import pytest

import lpgeom.polyhedra
from _oracles import convex_combination_escape_by_loops, double_dual_gap_by_loops
from lpgeom.cones import (
    find_double_dual_certificate,
    generalized_double_dual_member,
    hilbert_identity_violation,
    intersection_dual_check_family,
    member_generalized_dual,
    member_metric_dual,
    metric_double_dual_violation,
    probe_nonconvexity_metric_dual,
)
from lpgeom.polyhedra import polar_cone_generators
from lpgeom.sets import FinitelyGeneratedCone, Ray, Segment
from lpgeom.spaces import LpSpace, duality_map, pair
from lpgeom.suite import _pinned_families, _sample_cone_pair


def _canonical_ray(p):
    S = LpSpace(3, p)
    return S, Ray(S.zero(), S.point([-25.0, -37.0, -77.0]))


def test_metric_dual_membership_depends_on_exponent():
    S3, K3 = _canonical_ray(3.0)
    x = S3.point([3.0, -2.0, -1.0])
    y = S3.point([1.0, -3.0, 2.0])
    assert member_metric_dual(K3, x)
    assert member_metric_dual(K3, y)

    S2, K2 = _canonical_ray(2.0)
    # at exponent 2 the pairing is the plain inner product: <x, u> = 76 > 0
    assert not member_metric_dual(K2, S2.point([3.0, -2.0, -1.0]))
    assert member_metric_dual(K2, S2.point([1.0, -3.0, 2.0]))


def test_metric_dual_membership_and_the_certificate_refuse_a_foreign_point():
    # both answered silently once: a point of another space, or a functional, read as coordinates
    S, K = _canonical_ray(3.0)
    other = LpSpace(3, 2.0, [1.0, 2.0, 3.0]).point([3.0, -2.0, -1.0])
    for routine in (member_metric_dual, find_double_dual_certificate, generalized_double_dual_member):
        with pytest.raises(ValueError, match="different space"):
            routine(K, other)
        with pytest.raises(TypeError, match="expected a PrimalVec"):
            routine(K, S.functional([1.0, 1.0, 1.0]))


def test_metric_dual_cone_is_not_convex_at_p_three():
    _, K = _canonical_ray(3.0)
    wit = probe_nonconvexity_metric_dual(K)
    assert wit is not None
    assert wit.kind == "convex-combination-escape"
    assert wit.revalidate()
    # the escape amount for the known pair is 14 * 4^(1/3)
    assert abs(wit.value - 14.0 * 4.0 ** (1.0 / 3.0)) <= 1e-9
    h = wit.data["h"]
    assert np.allclose(h.coords, [7.0 / 3.0, -7.0 / 3.0, 0.0], atol=1e-12)


def test_metric_dual_cone_convex_at_p_two():
    _, K = _canonical_ray(2.0)
    assert probe_nonconvexity_metric_dual(K) is None


def test_metric_double_dual_gap_at_p_three():
    S, K = _canonical_ray(3.0)
    wit = metric_double_dual_violation(K)
    assert wit is not None and wit.kind == "double-dual-gap"
    assert wit.revalidate()
    z, x = wit.data["z"], wit.data["x"]
    assert abs(wit.value - pair(duality_map(z), x)) <= 1e-12 * (1.0 + wit.value)
    # the known pair gives <J u, -x> strictly negative
    u = S.point([-25.0, -37.0, -77.0])
    xx = S.point([3.0, -2.0, -1.0])
    assert pair(duality_map(u), -1.0 * xx) < -1e-6


def test_metric_double_dual_gap_absent_at_p_two():
    _, K = _canonical_ray(2.0)
    assert metric_double_dual_violation(K) is None


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_built_witness_searches_cover_the_seeded_ones(p):
    # the seeded searches the built ones replaced (tests/_oracles.py) are the reference: on the
    # pinned ray and 100 random cones, wherever a seed finds a witness the built candidates find
    # one that revalidates
    rng = np.random.default_rng(int(10 * p))
    cones = [_canonical_ray(p)[1]]
    for _ in range(100):
        n = int(rng.integers(2, 5))
        S = LpSpace(n, p, weights=rng.uniform(0.3, 3.0, n))
        cones.append(FinitelyGeneratedCone(S.zero(), [S.point(rng.normal(size=n)) for _ in range(rng.integers(1, n + 1))]))
    pairs = (
        (probe_nonconvexity_metric_dual, convex_combination_escape_by_loops),
        (metric_double_dual_violation, double_dual_gap_by_loops),
    )
    found, seeded = [0, 0], [0, 0]
    for K in cones:
        seed = int(rng.integers(10**6))
        for k, (search, oracle) in enumerate(pairs):
            w = search(K)
            ref = oracle(K, seed=seed)
            assert w is not None or ref is None, (K, seed, search.__name__)
            assert w is None or w.revalidate()
            found[k] += w is not None
            seeded[k] += ref is not None
    # at p = 2 the metric dual cone is convex and K lies in its double dual, so both come back empty
    assert found == seeded == [0, 0] if p == 2.0 else min(found) > 0


def test_double_dual_checks_require_origin_vertex():
    S = LpSpace(3, 3.0)
    K = Ray(S.point([1.0, 0.0, 0.0]), S.point([0.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        metric_double_dual_violation(K)
    with pytest.raises(ValueError):
        hilbert_identity_violation(K, S.point([1.0, 1.0, 1.0]))


def test_generalized_double_dual_is_involutive():
    rng = np.random.default_rng(31)
    for p in (1.5, 3.0):
        S = LpSpace(3, p, weights=rng.uniform(0.4, 2.0, size=3))
        v = S.point(rng.normal(size=3))
        gens = [S.point([1.0, 0.0, 0.3]), S.point([0.0, 1.0, 0.1]), S.point([0.2, 0.1, 1.0])]
        K = FinitelyGeneratedCone(v, gens)
        for _ in range(40):
            coef = rng.uniform(0.0, 3.0, size=3)
            inside = S.point(v.coords + sum(c * g.coords for c, g in zip(coef, gens)))
            assert generalized_double_dual_member(K, inside)
            assert find_double_dual_certificate(K, inside) is None
        for _ in range(40):
            cand = S.point(v.coords - rng.uniform(0.5, 3.0, size=3))
            if K.contains(cand):
                continue
            assert not generalized_double_dual_member(K, cand)
            cert = find_double_dual_certificate(K, cand)
            assert cert is not None and cert.revalidate()
            phi = cert.data["functional"]
            # the certificate separates: nonpositive on every generator,
            # strictly positive on the offset of the rejected point
            assert max(pair(phi, g) for g in gens) <= 1e-9
            assert pair(phi, cand - v) > 0.0


_CONES_BEYOND_R3 = {
    4: [[1.0, 0.0, 0.0, 0.2], [0.0, 1.0, 0.3, 0.0], [0.2, 0.0, 1.0, 0.0], [0.0, 0.1, 0.0, 1.0]],
    5: [[1.0, 0.2, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.3, 0.0], [0.0, 0.0, 1.0, 0.0, 0.1],
        [0.2, 0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.3, 0.0, 1.0], [1.0, 1.0, 1.0, 1.0, 1.0]],
}


@pytest.mark.parametrize("n", [4, 5])
def test_generalized_double_duality_beyond_three_dimensions(n, monkeypatch):
    calls = []

    def counted(rows):
        calls.append(rows)
        return polar_cone_generators(rows)

    # the set's generator matrix is built by polyhedra._polar_rows, which calls this name
    monkeypatch.setattr(lpgeom.polyhedra, "polar_cone_generators", counted)
    S = LpSpace(n, 3.0, weights=np.linspace(0.5, 2.0, n))
    gens = [S.point(g) for g in _CONES_BEYOND_R3[n]]
    K = FinitelyGeneratedCone(S.zero(), gens)
    inside = S.point(sum((k + 1.0) * g.coords for k, g in enumerate(gens)))
    assert generalized_double_dual_member(K, inside)
    assert find_double_dual_certificate(K, inside) is None
    outside = S.point(-np.ones(n))
    assert not generalized_double_dual_member(K, outside)
    cert = find_double_dual_certificate(K, outside)
    assert cert is not None and cert.revalidate()
    # the set computes its polar once for both routines
    assert len(calls) == 1


@pytest.mark.parametrize("n", [4, 5])
def test_intersection_dual_identity_beyond_three_dimensions(n):
    S = LpSpace(n, 3.0, weights=np.linspace(0.5, 2.0, n))
    orthant = FinitelyGeneratedCone(S.zero(), [S.point(e) for e in np.eye(n)])
    # each generator has one negative coordinate, so the cone is not inside the orthant
    twisted = FinitelyGeneratedCone(
        S.zero(), [S.point(np.roll([1.0, 1.0, -0.5] + [0.0] * (n - 3), k)) for k in range(n)]
    )
    rep = intersection_dual_check_family([orthant, twisted])
    assert rep.ok
    assert rep.forward_margin <= 1e-8 and rep.backward_residual <= 1e-8
    assert rep.intersection_generators
    for g in rep.intersection_generators:
        assert orthant.contains(g) and twisted.contains(g)


def test_generalized_dual_membership_translates_with_vertex():
    S = LpSpace(3, 3.0, weights=[0.8, 1.0, 1.3])
    v = S.point([0.5, -1.0, 2.0])
    K = FinitelyGeneratedCone(v, [S.point([1.0, 0.0, 0.0]), S.point([0.0, 1.0, 0.5])])
    jv = duality_map(v)
    assert member_generalized_dual(K, jv)
    # moving against a generator leaves the dual cone
    bad = jv + S.functional([1.0, 0.0, 0.0])
    assert not member_generalized_dual(K, bad)
    good = jv - S.functional([1.0, 1.0, 0.0])
    assert member_generalized_dual(K, good)


def _generalized_dual_member_pairs(rng, K, count):
    """``count`` pairs of generalized dual members drawn around J(v), then ``count`` drawn from the polar."""
    S = K.space
    jv = duality_map(K.vertex).coords
    drawn = [[S.functional(jv + d) for d in rng.normal(size=(2, S.n)) * 2.0] for _ in range(10 * count)]
    around = [(a, b) for a, b in drawn if member_generalized_dual(K, a) and member_generalized_dual(K, b)][:count]
    # J(v) + (P^T lam) / w with lam >= 0 is a member for every nonnegative lam, even when the cone has no interior
    lam = rng.uniform(0.0, 3.0, size=(count, 2, len(K._polar)))
    polar = [(S.functional(jv + a), S.functional(jv + b)) for a, b in (lam @ K._polar) / S.weights]
    return around, polar


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_generalized_dual_cone_mixes_stay_members(p):
    # the sampled convexity probe the CLI once ran, kept as an oracle for the half-space answer it gives now
    rng = np.random.default_rng(int(100 * p))
    thin = LpSpace(2, p)
    cones = [FinitelyGeneratedCone(thin.zero(), [thin.point(g) for g in ([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0])])]
    for k in range(12):
        n = int(rng.integers(2, 7))
        S = LpSpace(n, p, weights=rng.uniform(0.5, 2.0, n))
        v = S.point(rng.normal(size=n) * 3.0) if k % 2 else S.zero()
        gens = [S.point(rng.normal(size=n) * 20.0) for _ in range(int(rng.integers(1, n + 2)))]
        cones.append(FinitelyGeneratedCone(v, gens))
    sampled = [0, 0]
    for K in cones:
        for route, pairs in enumerate(_generalized_dual_member_pairs(rng, K, 20)):
            sampled[route] += len(pairs)
            for a, b in pairs:
                assert member_generalized_dual(K, a) and member_generalized_dual(K, b)
                for mix in (0.1, 0.25, 0.5, 0.75, 0.9):
                    assert member_generalized_dual(K, mix * a + (1.0 - mix) * b), (K, mix)
    # around J(v) the draws miss a dual cone without interior, the thin cone's; the polar route never does
    assert sampled[0] > 0 and sampled[1] == 20 * len(cones)


def test_intersection_dual_identity_pairs():
    for p, w in ((2.0, None), (3.0, [0.5, 1.2, 2.0])):
        S = LpSpace(3, p, weights=w)
        A = FinitelyGeneratedCone(
            S.zero(), [S.point([1.0, 0, 0]), S.point([0, 1.0, 0]), S.point([0, 0, 1.0])]
        )
        B = FinitelyGeneratedCone(
            S.zero(), [S.point([1.0, 1.0, 0]), S.point([0, 1.0, 0]), S.point([0, 0, 1.0])]
        )
        rep = intersection_dual_check_family([A, B])
        assert rep.ok
        assert rep.forward_margin <= 1e-8
        assert rep.backward_residual <= 1e-8
        assert len(rep.intersection_generators) >= 2


def test_intersection_dual_identity_plane_pair():
    S = LpSpace(2, 3.0, weights=[0.9, 1.4])
    A = FinitelyGeneratedCone(S.zero(), [S.point([1.0, 0.0]), S.point([1.0, 1.0])])
    B = FinitelyGeneratedCone(S.zero(), [S.point([1.0, 0.5]), S.point([0.0, 1.0])])
    rep = intersection_dual_check_family([A, B])
    assert rep.ok


def test_intersection_dual_identity_family_of_three():
    S = LpSpace(3, 3.0, weights=[0.5, 1.2, 2.0])
    A = FinitelyGeneratedCone(S.zero(), [S.point([1.0, 0, 0]), S.point([0, 1.0, 0]), S.point([0, 0, 1.0])])
    B = FinitelyGeneratedCone(S.zero(), [S.point([1.0, 1.0, 0]), S.point([0, 1.0, 0]), S.point([0, 0, 1.0])])
    C = FinitelyGeneratedCone(S.zero(), [S.point([1.0, 0.2, 0]), S.point([0, 1.0, 0.3]), S.point([0.1, 0, 1.0])])
    rep = intersection_dual_check_family([A, B, C])
    assert rep.ok
    with pytest.raises(ValueError):
        intersection_dual_check_family([A])


def test_hull_combinations_obey_every_intersection_inequality():
    # the hull side of the identity by sampling: every combination c = M lam of the
    # stacked polar generators, lam ~ U[0, 2], pairs with each intersection generator g
    # to at most sum(lam) tol scale, which the exact forward margin already bounds
    rng = np.random.default_rng(18)
    families = [cones for p in (2.0, 3.0) for (cones,) in _pinned_families(p)]
    families += [_sample_cone_pair(rng, p)[0] for p in (2.0, 3.0) * 50]
    tol = 1e-8
    for cones in families:
        rep = intersection_dual_check_family(cones, tol=tol)
        assert rep.ok
        M = np.vstack([K._polar for K in cones]).T
        scale = 1.0 + float(np.max(np.abs(M), initial=0.0))
        lam = rng.uniform(0.0, 2.0, size=(50, M.shape[1]))
        G = np.array([g.coords for g in rep.intersection_generators]).reshape(-1, M.shape[0])
        assert np.all((lam @ M.T) @ G.T <= lam.sum(axis=1)[:, None] * tol * scale)


def test_hilbert_identity_defect_by_exponent():
    for p in (1.5, 3.0):
        S, K = _canonical_ray(p)
        w = S.point([-28.0, -35.0, -76.0])
        assert abs(hilbert_identity_violation(K, w)) > 1e-3
    S2, K2 = _canonical_ray(2.0)
    assert abs(hilbert_identity_violation(K2, S2.point([-28.0, -35.0, -76.0]))) <= 1e-8


def test_cone_routines_take_a_ray_and_reject_a_segment():
    S = LpSpace(2, 2.0)
    r = Ray(S.zero(), S.point([1.0, 0.0]))
    assert member_metric_dual(r, S.point([-1.0, 0.5]))
    assert not member_generalized_dual(r, S.functional([1.0, 0.0]))
    assert generalized_double_dual_member(r, S.point([3.0, 0.0]))
    assert find_double_dual_certificate(r, S.point([3.0, 0.0])) is None
    seg = Segment(S.point([0.0, 0.0]), S.point([1.0, 0.0]))
    for routine, arg in (
        (member_metric_dual, S.point([-1.0, 0.5])),
        (member_generalized_dual, S.functional([1.0, 0.0])),
        (generalized_double_dual_member, S.point([0.5, 0.0])),
        (find_double_dual_certificate, S.point([0.5, 0.0])),
        (hilbert_identity_violation, S.point([1.0, 1.0])),
    ):
        with pytest.raises(TypeError):
            routine(seg, arg)
    for search in (probe_nonconvexity_metric_dual, metric_double_dual_violation):
        with pytest.raises(TypeError, match="ray or a finitely generated cone"):
            search(seg)
    with pytest.raises(TypeError):
        intersection_dual_check_family([r, seg])
