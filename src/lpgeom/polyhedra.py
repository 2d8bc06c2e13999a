"""Exact polyhedral linear algebra in raw coordinates (rank at most 3).

Helpers for cones of the form {phi : <row_i, phi> <= 0}: extreme-ray and
lineality enumeration, and generator computation for intersections of
finitely generated cones in R^2 / R^3.  Everything here is Euclidean;
callers fold any weighted pairing into the constraint rows.

The module imports nothing from lpgeom, so it also holds the two
primitives that sets, cones and faces share: a numpy null space and
nonnegative least squares, whose scipy import waits for the first fit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["UnsupportedGeometryError", "polar_cone_generators", "intersect_cone_generators"]

_FEAS_TOL = 1e-10


class UnsupportedGeometryError(ValueError):
    """The polyhedral computation is outside the supported rank-3 cases."""


def _nnls(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """scipy's compiled nonnegative least squares: (x >= 0, ||A x - b||).

    scipy.optimize is imported here, on first use, because importing it
    takes most of a cold process's start-up and most commands never fit.
    """
    from scipy.optimize import nnls

    return nnls(A, b)


def _svd_rank(A: np.ndarray, rcond: float | None = None) -> tuple[int, np.ndarray]:
    """(rank, vt) from the full SVD of A, with scipy.linalg.null_space's rank rule.

    The rank counts singular values above max(s) * rcond, and rcond defaults
    to eps * max(m, n).  Rows vt[:rank] span the row space of A and rows
    vt[rank:] its null space.
    """
    _, s, vt = np.linalg.svd(A)
    if rcond is None:
        rcond = np.finfo(s.dtype).eps * max(A.shape)
    return int(np.sum(s > np.amax(s, initial=0.0) * rcond)), vt


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


def _feasible(rows: np.ndarray, cand: np.ndarray) -> bool:
    return bool(np.all(rows @ cand <= _FEAS_TOL))


def polar_cone_generators(rows: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Generators of P = {phi : rows @ phi <= 0}.

    Returns (extreme_rays, lineality_basis); P is the conic hull of the rays
    plus the span of the lineality basis, so ``rays + [b, -b for b in lin]``
    generates P with nonnegative coefficients.  Rows are normalized first.
    Requires rank(rows) <= 3.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError("need a nonempty 2-D constraint matrix")
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("zero constraint row")
    rows = rows / norms[:, None]

    rank, vt = _svd_rank(rows, rcond=1e-12)
    if rank > 3:
        raise UnsupportedGeometryError(f"constraint rank {rank} exceeds 3")
    lineality = list(vt[rank:])

    # Work inside the row space W; the cone is pointed there.
    B = vt[:rank].T  # n x rank orthonormal basis of W
    R = rows @ B  # constraints in W coordinates

    if rank == 1:
        dirs = _dedupe_directions([R[i] for i in range(R.shape[0])])
        cands = [-d for d in dirs]
    elif rank == 2:
        cands = []
        for i in range(R.shape[0]):
            a = R[i]
            rot = np.array([-a[1], a[0]])
            cands.extend([rot, -rot])
    else:
        cands = []
        for i in range(R.shape[0]):
            for j in range(i + 1, R.shape[0]):
                c = np.cross(R[i], R[j])
                cands.extend([c, -c])

    rays = [c for c in _dedupe_directions(cands) if _feasible(R, c)]
    return [B @ c for c in rays], lineality


def _in_cone(generators: np.ndarray, x: np.ndarray, tol: float = 1e-9) -> bool:
    _, resid = _nnls(generators, x)
    return resid <= tol * (1.0 + float(np.linalg.norm(x)))


def _facet_normals_3d(G: np.ndarray) -> list[np.ndarray]:
    """Outer normals of the facets of cone(G) in R^3 (pointed or not)."""
    m = G.shape[1]
    normals = []
    for i in range(m):
        for j in range(i + 1, m):
            c = np.cross(G[:, i], G[:, j])
            if np.linalg.norm(c) <= 1e-12:
                continue
            c = c / np.linalg.norm(c)
            vals = G.T @ c
            if np.all(vals <= _FEAS_TOL):
                normals.append(c)
            elif np.all(vals >= -_FEAS_TOL):
                normals.append(-c)
    if m == 1:
        # a single ray: every plane containing it supports the cone
        basis = _null_space(G[:, 0][None, :])
        normals.extend([basis[:, 0], -basis[:, 0], basis[:, 1], -basis[:, 1]])
    return normals


def intersect_cone_generators(GA: np.ndarray, GB: np.ndarray) -> list[np.ndarray]:
    """Generators of cone(GA) intersected with cone(GB), both with vertex 0.

    Supported in R^2 and R^3 via candidate enumeration: generators of one
    cone inside the other plus facet-facet intersection lines.  Returns a
    deduplicated list of unit directions (empty when the intersection is
    the origin alone).
    """
    GA = np.asarray(GA, dtype=float)
    GB = np.asarray(GB, dtype=float)
    n = GA.shape[0]
    if GB.shape[0] != n:
        raise ValueError("dimension mismatch")
    if n not in (2, 3):
        raise UnsupportedGeometryError(f"cone intersection implemented for R^2/R^3, not R^{n}")

    cands = []
    for k in range(GA.shape[1]):
        if _in_cone(GB, GA[:, k]):
            cands.append(GA[:, k])
    for k in range(GB.shape[1]):
        if _in_cone(GA, GB[:, k]):
            cands.append(GB[:, k])

    if n == 3:
        for na in _facet_normals_3d(GA):
            for nb in _facet_normals_3d(GB):
                d = np.cross(na, nb)
                if np.linalg.norm(d) <= 1e-12:
                    continue
                for cand in (d, -d):
                    if _in_cone(GA, cand) and _in_cone(GB, cand):
                        cands.append(cand)

    return _dedupe_directions(cands)
