"""Exact polyhedral linear algebra in raw coordinates, in any dimension.

Helpers for cones of the form {phi : <row_i, phi> <= 0}: extreme rays by
the double description method plus the lineality space, or both stacked
as the rows of one generator matrix, and generators of the intersection
of two finitely generated cones, computed by the same method.
Everything here is Euclidean; callers fold any weighted pairing into the
constraint rows.

The module imports nothing from lpgeom, so it also holds the two
primitives that sets and cones share, both in numpy alone: a null space
from the SVD, and Lawson & Hanson's active-set nonnegative least squares
(1974, ch. 23) for every membership fit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["polar_cone_generators", "intersect_cone_generators"]

_FEAS_TOL = 1e-10


def _nnls(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Nonnegative least squares: (x >= 0 minimizing ||A x - b||, that norm).

    Lawson & Hanson's active-set method (1974, *Solving Least Squares
    Problems*, ch. 23, algorithm NNLS).  The passive set P starts empty
    and x at 0.  Each outer step moves into P the column whose gradient
    entry w = A^T (b - A x) is largest, solves least squares on the
    columns in P, and while that solution z has an entry <= 0 steps from
    x towards z until the first entry of P reaches 0 and drops it.  The
    fit is optimal once every column outside P has w <= tol.  Each
    solve is ``np.linalg.lstsq`` on the passive columns; normal
    equations square their condition number.  tol is relative to the
    sizes of A and b, so the answer does not depend on the data's scale.
    An unconstrained fit that is already nonnegative is the optimum
    and is returned at once.  A column whose own solution comes out
    nonpositive on entering P entered on roundoff alone; it is set aside
    until the next step, as in the book, so P cannot cycle.
    """
    m, n = A.shape
    if n == 0:
        return np.zeros(0), float(np.linalg.norm(b))
    z = np.linalg.lstsq(A, b, rcond=None)[0]
    if np.all(z >= 0.0):
        return z, float(np.linalg.norm(A @ z - b))
    tol = 10.0 * np.finfo(float).eps * max(m, n) * float(np.linalg.norm(A)) * float(np.linalg.norm(b))
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    w = A.T @ b
    for _ in range(3 * n):
        j = int(np.argmax(np.where(passive, -np.inf, w)))
        if passive[j] or w[j] <= tol:
            return x, float(np.linalg.norm(A @ x - b))
        passive[j] = True
        z = np.zeros(n)
        z[passive] = np.linalg.lstsq(A[:, passive], b, rcond=None)[0]
        if z[j] <= 0.0:
            passive[j] = False
            w[j] = 0.0
            continue
        while np.any(z[passive] <= 0.0):
            neg = np.flatnonzero(passive & (z <= 0.0))
            ratios = x[neg] / (x[neg] - z[neg])
            x = x + ratios.min() * (z - x)
            passive[neg[np.argmin(ratios)]] = False
            passive &= x > 0.0
            x[~passive] = 0.0
            z = np.zeros(n)
            z[passive] = np.linalg.lstsq(A[:, passive], b, rcond=None)[0]
        x = z
        w = A.T @ (b - A @ x)
    raise RuntimeError("nnls: iteration limit reached")


def _svd_rank(A: np.ndarray, rcond: float | None = None) -> tuple[int, np.ndarray]:
    """(rank, vt) from the full SVD of A, with scipy.linalg.null_space's rank rule.

    The rank counts singular values above max(s) * rcond, and rcond defaults
    to eps * max(m, n).  Rows vt[:rank] span the row space of A and rows
    vt[rank:] its null space.
    """
    _, s, vt = np.linalg.svd(A)
    return _rank(s, A.shape, rcond), vt


def _rank(s: np.ndarray, shape: tuple[int, ...], rcond: float | None = None) -> int:
    """How many singular values s of a matrix of this shape count, by _svd_rank's rule."""
    if rcond is None:
        rcond = np.finfo(s.dtype).eps * max(shape)
    return int(np.count_nonzero(s > s.max(initial=0.0) * rcond))


def _null_space(A: np.ndarray, rcond: float | None = None) -> np.ndarray:
    """Orthonormal basis of the null space of A, one column per direction."""
    rank, vt = _svd_rank(A, rcond)
    return vt[rank:].T


def _dedupe_directions(cands: list[np.ndarray], tol: float = 1e-9) -> list[np.ndarray]:
    out: list[np.ndarray] = []
    for c in cands:
        nrm = np.linalg.norm(c)
        if nrm <= tol:
            continue
        c = c / nrm
        if not any(np.linalg.norm(c - o) <= tol for o in out):
            out.append(c)
    return out


def _extreme_rays(R: np.ndarray) -> list[np.ndarray]:
    """Extreme rays of the pointed cone {z : R @ z <= 0}, R of full column rank.

    Double description (Motzkin et al. 1953; Fukuda & Prodon 1996): start
    from the simplicial cone of r independent rows, then add the other rows
    one at a time.  Each keeps the rays on its side and joins every adjacent
    pair it separates; two rays are adjacent when the rows tight at both
    have rank r - 2.  Rows are unit vectors and rays stay unit vectors, so
    one absolute tolerance decides both sides and tightness.
    """
    m, r = R.shape
    start, rest = [], R
    for _ in range(r):  # pivoted Gram-Schmidt picks a well-conditioned start
        i = int(np.argmax(np.linalg.norm(rest, axis=1)))
        start.append(i)
        q = rest[i] / np.linalg.norm(rest[i])
        rest = rest - np.outer(rest @ q, q)
    R = R[start + [i for i in range(m) if i not in start]]
    Z = -np.linalg.inv(R[:r]).T
    for k in range(r, m):
        Z = Z / np.linalg.norm(Z, axis=1, keepdims=True)
        s = Z @ R[k]
        tight = np.abs(R[:k] @ Z.T) <= _FEAS_TOL
        joined = [
            s[j] * Z[i] - s[i] * Z[j]
            for i in np.flatnonzero(s < -_FEAS_TOL)
            for j in np.flatnonzero(s > _FEAS_TOL)
            if len(c := R[:k][tight[:, i] & tight[:, j]]) >= r - 2 and _svd_rank(c, 1e-9)[0] == r - 2
        ]
        Z = np.vstack([Z[s <= _FEAS_TOL], *joined])
    return list(Z / np.linalg.norm(Z, axis=1, keepdims=True))


def polar_cone_generators(rows: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Generators of P = {phi : rows @ phi <= 0}, in any dimension.

    Returns (extreme_rays, lineality_basis); P is the conic hull of the rays
    plus the span of the lineality basis, so ``rays + [b, -b for b in lin]``
    generates P with nonnegative coefficients.  Rows are normalized first;
    the rays are unit vectors in the row space, where P is pointed.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError("need a nonempty 2-D constraint matrix")
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("zero constraint row")
    rows = rows / norms[:, None]

    rank, vt = _svd_rank(rows, rcond=1e-12)
    B = vt[:rank].T  # n x rank orthonormal basis of the row space
    rays = _dedupe_directions(_extreme_rays(rows @ B))
    return [B @ c for c in rays], list(vt[rank:])


def _polar_rows(rows: np.ndarray) -> np.ndarray:
    """Generators of P = {phi : rows @ phi <= 0} as the rows of one matrix.

    The extreme rays, then +b and -b for each lineality vector b.  P is
    the set of nonnegative combinations of the rows, so x pairs
    nonpositively with all of P iff no entry of this matrix @ x is positive.
    """
    rays, lin = polar_cone_generators(rows)
    n = np.shape(rows)[1]
    lin = np.reshape(lin, (-1, n))
    return np.vstack([np.reshape(rays, (-1, n)), np.stack([lin, -lin], axis=1).reshape(-1, n)])


def intersect_cone_generators(GA: np.ndarray, GB: np.ndarray) -> list[np.ndarray]:
    """Generators of cone(GA) intersected with cone(GB), both with vertex 0.

    x = GA a = GB b with a, b >= 0: the pairs (a, b) = N z over a basis N of
    the null space of [GA, -GB] form the pointed cone {z : -N z <= 0}, and
    GA a over its extreme rays generates the intersection.  Returns a
    deduplicated list of unit directions (empty when the intersection is
    the origin alone).
    """
    GA = np.asarray(GA, dtype=float)
    GB = np.asarray(GB, dtype=float)
    if GB.shape[0] != GA.shape[0]:
        raise ValueError("dimension mismatch")
    N = _null_space(np.hstack([GA, -GB]))
    if N.shape[1] == 0:
        return []
    rays, _ = polar_cone_generators(-N[np.linalg.norm(N, axis=1) > 1e-9])
    return _dedupe_directions([GA @ (N[: GA.shape[1]] @ z) for z in rays])
