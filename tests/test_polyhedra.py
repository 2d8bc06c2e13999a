"""``lpgeom.polyhedra`` against scipy and a brute-force oracle.

lpgeom replaced ``scipy.linalg.null_space`` with its own SVD and scipy's
``nnls`` with its own Lawson-Hanson fit, so that no command loads scipy.
Its polyhedral answers stay the same only if the null space returns the
same bits, including the rank it picks under scipy's rule, and the fit
the same residuals.  The tests that compare with scipy skip when it is
not installed; the fit's optimality (KKT) test needs no scipy.

The double description routine behind ``polar_cone_generators`` and
``intersect_cone_generators`` is checked against an enumeration over row
subsets that shares no code with it, by the bipolar property, and on
degenerate generator sets, in dimensions 2 to 6.
"""

import numpy as np
import pytest

from _oracles import polar_cone_by_enumeration
from lpgeom.polyhedra import _nnls, _null_space, intersect_cone_generators, polar_cone_generators


def _same_bits(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _rank_deficient(rng):
    m, n = (int(k) for k in rng.integers(1, 7, size=2))
    rank = int(rng.integers(0, min(m, n)))
    A = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))
    return A * 10.0 ** rng.uniform(-3, 3)


@pytest.mark.parametrize("rcond", [None, 1e-12])
def test_null_space_matches_scipy_bit_for_bit(rcond):
    null_space = pytest.importorskip("scipy.linalg").null_space
    rng = np.random.default_rng(20261018)
    for _ in range(200):
        A = _rank_deficient(rng)
        assert _same_bits(_null_space(A, rcond), null_space(A, rcond=rcond)), A


@pytest.mark.parametrize(
    "A",
    [
        np.array([[1.0, -2.0, 0.5]]),
        np.random.default_rng(3).normal(size=(5, 3)),
        np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]),
    ],
    ids=["one-row", "full-column-rank", "zero-row"],
)
@pytest.mark.parametrize("rcond", [None, 1e-12])
def test_null_space_edge_cases_match_scipy(A, rcond):
    null_space = pytest.importorskip("scipy.linalg").null_space
    got = _null_space(A, rcond)
    assert _same_bits(got, null_space(A, rcond=rcond))
    assert got.shape == (3, 3 - np.linalg.matrix_rank(A))


def _same_rays(got, want, tol=1e-9):
    return len(got) == len(want) and all(min(np.linalg.norm(g - w) for w in want) <= tol for g in got)


def _generators(rays, lin):
    return list(rays) + [s * b for b in lin for s in (1.0, -1.0)]


def _in_cone(gens, x, tol=1e-9):
    if not gens:
        return np.linalg.norm(x) <= tol
    return _nnls(np.stack(gens, axis=1), x)[1] <= tol * (1.0 + np.linalg.norm(x))


def _same_cone(gens_a, gens_b):
    return all(_in_cone(gens_b, g) for g in gens_a) and all(_in_cone(gens_a, g) for g in gens_b)


def _constraint_rows(rng, n):
    m = int(rng.integers(1, n + 5))
    if rng.integers(2):
        return rng.normal(size=(m, n))
    # small integer rows: many rows tight at one ray, repeats and opposite pairs
    rows = rng.integers(-1, 2, size=(m, n)).astype(float)
    rows[~rows.any(axis=1), 0] = 1.0
    return np.vstack([rows, rows[: int(rng.integers(0, 3))]])


@pytest.mark.parametrize("n", range(2, 7))
def test_polar_rays_match_subset_enumeration(n):
    rng = np.random.default_rng(400 + n)
    for _ in range(60):
        rows = _constraint_rows(rng, n)
        rays, lin = polar_cone_generators(rows)
        want, lin_dim = polar_cone_by_enumeration(rows)
        assert _same_rays(rays, want), rows
        assert len(lin) == lin_dim, rows
        if lin:
            assert np.allclose(rows @ np.stack(lin, axis=1), 0.0, atol=1e-9)


@pytest.mark.parametrize("n", range(2, 7))
def test_polar_of_the_polar_is_the_cone(n):
    rng = np.random.default_rng(500 + n)
    for _ in range(20):
        G = rng.normal(size=(int(rng.integers(1, n + 3)), n))
        polar = _generators(*polar_cone_generators(G))
        if not polar:  # the polar is {0}: the generators span the whole space
            assert _same_cone(list(G), [s * e for e in np.eye(n) for s in (1.0, -1.0)])
            continue
        assert _same_cone(list(G), _generators(*polar_cone_generators(np.stack(polar))))


@pytest.mark.parametrize(
    "generators, rays, lineality_dim",
    [
        ([[1, 0, 0], [1, 0, 0], [0, 1, 0]], [[-1, 0, 0], [0, -1, 0]], 1),
        ([[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]], [[-1, 0, 0], [0, -1, 0], [0, 0, -1]], 0),
        ([[1, 0, 0], [-1, 0, 0], [0, 1, 0]], [[0, -1, 0]], 1),
        ([[0, 0, 2]], [[0, 0, -1]], 2),
        ([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], [], 0),
        ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [-1, -1, -1, 0]], [], 1),
    ],
    ids=["repeated", "non-extreme", "opposite-pair", "one-generator", "whole-space", "whole-subspace"],
)
def test_polar_of_degenerate_generator_sets(generators, rays, lineality_dim):
    G = np.array(generators, dtype=float)
    got, lin = polar_cone_generators(G)
    assert _same_rays(got, [np.array(r, dtype=float) for r in rays])
    assert len(lin) == lineality_dim
    assert _same_rays(polar_cone_by_enumeration(G)[0], got)


def _enumerated_polar(rows):
    rays, lin_dim = polar_cone_by_enumeration(rows)
    return rays, list(_null_space(np.asarray(rows)).T) if lin_dim else []


def _pointed_generators(rng, n):
    G = rng.normal(size=(n, int(rng.integers(1, n + 3))))
    G[0] = np.abs(G[0]) + 0.3
    return G


@pytest.mark.parametrize("n", range(2, 6))  # the oracle's subsets grow too many at n = 6
def test_intersection_matches_the_stacked_inequalities(n):
    rng = np.random.default_rng(600 + n)
    for _ in range(20):
        GA, GB = _pointed_generators(rng, n), _pointed_generators(rng, n)
        got = intersect_cone_generators(GA, GB)
        # A and B as inequalities, through the oracle alone
        rows = [c for G in (GA, GB) for c in _generators(*_enumerated_polar(G.T))]
        want = _generators(*_enumerated_polar(np.stack(rows)))
        assert _same_cone(got, want), (GA, GB)


def test_intersection_of_degenerate_pairs():
    eye = np.eye(3)
    whole = np.hstack([eye, -eye])
    line = np.array([[1.0, -1.0], [0.0, 0.0], [0.0, 0.0]])
    assert _same_cone(intersect_cone_generators(eye, whole), list(eye.T))
    assert _same_cone(intersect_cone_generators(line, line), list(line.T))
    assert _same_cone(intersect_cone_generators(line, eye), [eye[0]])
    assert intersect_cone_generators(eye, -eye) == []
    # a rotated line through one generator of a cone: the null space of
    # [line, -cone] has roundoff-sized rows that must not act as constraints
    Q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
    cone = np.stack([2.0 * Q[:, 0], Q[:, 1] + Q[:, 2], Q[:, 1] - Q[:, 2]], axis=1)
    got = intersect_cone_generators(np.stack([Q[:, 0], -Q[:, 0]], axis=1), cone)
    assert _same_rays(got, [Q[:, 0]])


def test_nnls_without_columns_is_the_empty_fit():
    b = np.array([3.0, -4.0, 0.0])
    x, rho = _nnls(np.zeros((3, 0)), b)
    assert x.shape == (0,) and rho == 5.0


def _nnls_problems():
    """Seeded (A, b): every shape from 2 x 1 to 6 x 5, 51 x 12, repeated and
    dependent columns, more columns than rows, targets inside the cone of the
    columns, and A and b scaled by 1e-12 or 1e12."""
    rng = np.random.default_rng(20261019)
    shapes = [(m, n) for m in range(2, 7) for n in range(1, 6)] + [(51, 12), (3, 7), (2, 5), (4, 9)]
    for m, n in shapes:
        for k in range(6):
            A = rng.normal(size=(m, n))
            if k == 1 and n > 1:
                A[:, -1] = A[:, 0]
            if k == 2 and n > 2:
                A[:, 2] = A[:, 0] + 0.5 * A[:, 1]
            b = A @ rng.uniform(0.0, 2.0, n) if k == 3 else rng.normal(size=m)
            scale_a, scale_b = (1.0, 1.0) if k < 4 else 10.0 ** rng.choice([-12.0, 12.0], size=2)
            yield A * scale_a, b * scale_b


def test_nnls_residual_matches_scipy():
    nnls = pytest.importorskip("scipy.optimize").nnls
    for A, b in _nnls_problems():
        # 0 <= residual <= ||b||, so ||b|| is the size both residuals are measured against
        assert abs(_nnls(A, b)[1] - nnls(A, b)[1]) <= 1e-10 * np.linalg.norm(b), (A, b)


def test_nnls_meets_the_optimality_conditions():
    # KKT: x >= 0, the gradient A^T (b - A x) is <= 0 where x = 0 and vanishes where x > 0
    for A, b in _nnls_problems():
        x, rho = _nnls(A, b)
        w = A.T @ (b - A @ x)
        tol = 1e-12 * np.linalg.norm(A) * np.linalg.norm(b)
        assert np.all(x >= 0.0), (A, b)
        assert np.all(w[x == 0.0] <= tol), (A, b)
        assert np.all(np.abs(w[x > 0.0]) <= tol), (A, b)
        assert rho == pytest.approx(np.linalg.norm(A @ x - b), rel=1e-12, abs=1e-300), (A, b)
