"""Dual cones of finitely generated cones under both projection notions.

For a cone K with vertex v and generators g_1..g_m, membership of a
candidate in either dual cone reduces to finitely many pairings: the
defining inequality <phi, v - z> >= 0 must hold for every z = v + sum
t_i g_i with t >= 0, and since <phi, v - z> = -sum t_i <phi, g_i>, it
holds for all such z exactly when <phi, g_i> <= 0 for every generator
(take t = e_i one way; nonnegative combinations the other).

The metric dual cone {x : <J(x - v), g_i> <= 0} is generally not convex
when the exponent differs from 2, and the cone it came from need not
survive dualizing twice.  The generalized dual cone
{psi : <psi - J(v), g_i> <= 0} is the translate by J(v) of a polar cone,
is always convex, and dualizing twice returns K exactly.  Routines here
decide membership by two independent routes where possible and refuse to
reconcile disagreements silently.

Every routine takes the ray or finitely generated cone itself and reads
the vertex from its one row of ``V`` and the generators from the rows of
``R``; the polar cone comes from the set, which computes it once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .polyhedra import _nnls, intersect_cone_generators, polar_cone_generators
from .projections import SolverOptions, metric_project, vi_residual_metric
from .spaces import DualVec, PrimalVec, duality_map, norm, pair

__all__ = [
    "Witness",
    "member_metric_dual",
    "member_generalized_dual",
    "probe_nonconvexity_metric_dual",
    "metric_double_dual_violation",
    "generalized_double_dual_member",
    "find_double_dual_certificate",
    "IntersectionDualReport",
    "intersection_dual_check",
    "intersection_dual_check_family",
    "hilbert_identity_violation",
]


@dataclass(frozen=True)
class Witness:
    """A concrete counterexample with a recomputable positive margin."""

    kind: str
    data: dict
    value: float
    _validator: Callable[[], float] = field(repr=False, compare=False)

    def revalidate(self) -> bool:
        fresh = self._validator()
        return math.isfinite(fresh) and fresh > 0.0


def _vertex_and_generators(K) -> tuple[PrimalVec, np.ndarray]:
    """(vertex, generator rows) of a set with one vertex, some rays and no lineality."""
    V, R, L = (getattr(K, name, ()) for name in ("V", "R", "L"))
    if len(V) != 1 or not len(R) or len(L):
        raise TypeError("expected a ray or a finitely generated cone")
    return K.space.point(V[0]), R


def _require_origin_vertex(v: PrimalVec):
    if not np.all(v.coords == 0.0):
        raise ValueError("this check is defined for cones with vertex at the origin")


def _pairings(phi: DualVec, R: np.ndarray) -> tuple[float, ...]:
    """<phi, g_i> for every generator row g_i; phi passes the dual test when none is positive."""
    return tuple(phi.space.pairing(phi.coords, g) for g in R)


def _dual_margin(v: PrimalVec, R: np.ndarray, x: PrimalVec) -> float:
    return max(_pairings(duality_map(x - v), R))


def member_metric_dual(K, x: PrimalVec, tol: float = 1e-9) -> bool:
    """Membership of x in the metric dual cone of K."""
    v, R = _vertex_and_generators(K)
    worst = _dual_margin(v, R, x)
    # same reduction through the projection certificate; must agree
    vi = vi_residual_metric(K, x, v)
    if abs(max(worst, 0.0) - max(vi, 0.0)) > 1e-12 * (1.0 + abs(worst)):
        raise RuntimeError(f"metric dual routes disagree: generators {worst:.3e}, certificate {vi:.3e}")
    return worst <= tol


def member_generalized_dual(K, psi: DualVec, tol: float = 1e-9) -> bool:
    """Membership of psi in the generalized dual cone of K."""
    v, R = _vertex_and_generators(K)
    return max(_pairings(psi - duality_map(v), R)) <= tol


def probe_nonconvexity_metric_dual(
    K, seed: int = 0, trials: int = 400, tol: float = 1e-9
) -> Witness | None:
    """Search for a convex combination that escapes the metric dual cone.

    Returns a witness (x, y members, h = lam x + (1 - lam) y not a member)
    or None when no escape is found within the trial budget.  At exponent
    2 the dual cone is convex and the search comes back empty.
    """
    v, R = _vertex_and_generators(K)
    space = K.space
    rng = np.random.default_rng(seed)
    lam_grid = (2.0 / 3.0, 0.5, 0.25, 0.75, 0.1, 0.9)

    def margin(pt: PrimalVec) -> float:
        return _dual_margin(v, R, pt)

    def witness_from(x: PrimalVec, y: PrimalVec, lam: float) -> Witness:
        h = lam * x + (1.0 - lam) * y
        gaps = _pairings(duality_map(h - v), R)
        val = max(gaps)

        def check() -> float:
            hh = lam * x + (1.0 - lam) * y
            inside = max(margin(x), margin(y))
            out = margin(hh)
            return out if inside <= tol else -math.inf

        return Witness(
            kind="convex-combination-escape",
            data={"x": x, "y": y, "lam": lam, "h": h, "generator_gaps": gaps},
            value=val,
            _validator=check,
        )

    candidates: list[tuple[PrimalVec, PrimalVec]] = []
    if space.n == 3:
        xc = space.point([3.0, -2.0, -1.0])
        yc = space.point([1.0, -3.0, 2.0])
        if margin(xc) <= tol and margin(yc) <= tol:
            candidates.append((xc, yc))

    members: list[PrimalVec] = []
    for _ in range(trials):
        scale = float(rng.uniform(0.5, 5.0))
        pt = space.point(rng.normal(size=space.n) * scale)
        if margin(pt) <= tol:
            members.append(pt)
    rng.shuffle(members)
    for i in range(0, max(len(members) - 1, 0), 2):
        candidates.append((members[i], members[i + 1]))

    for x, y in candidates:
        for lam in lam_grid:
            h = lam * x + (1.0 - lam) * y
            if margin(h) > tol:
                return witness_from(x, y, lam)
    return None


def metric_double_dual_violation(K, seed: int = 0, trials: int = 200, tol: float = 1e-9) -> Witness | None:
    """Search for z in K that the twice-dualized metric cone rejects.

    z lies in the double dual only if <J z, x> <= 0 for every member x of
    the metric dual cone, so a pair with <J z, x> > 0 is a witness that K
    is not contained in its metric double dual.  Returns None when the
    search finds nothing (the expected outcome at exponent 2).
    """
    v, R = _vertex_and_generators(K)
    _require_origin_vertex(v)
    space = K.space
    rng = np.random.default_rng(seed)

    z_cands: list[PrimalVec] = []
    x_cands: list[PrimalVec] = []
    if space.n == 3:
        zc = space.point([-25.0, -37.0, -77.0])
        if K.contains(zc):
            z_cands.append(zc)
        xc = space.point([3.0, -2.0, -1.0])
        if _dual_margin(v, R, xc) <= tol:
            x_cands.append(xc)
    z_cands.extend(space.point(g) for g in R)
    z_cands.extend(K.sample(min(trials // 4, 25), seed=seed + 1))
    for _ in range(trials):
        scale = float(rng.uniform(0.5, 5.0))
        pt = space.point(rng.normal(size=space.n) * scale)
        if _dual_margin(v, R, pt) <= tol:
            x_cands.append(pt)

    for z in z_cands:
        jz = duality_map(z)
        for x in x_cands:
            val = pair(jz, x)
            if val > max(tol, 1e-9 * norm(z) * norm(x)):

                def check(z=z, x=x) -> float:
                    if _dual_margin(v, R, x) > tol:
                        return -math.inf
                    if not K.contains(z):
                        return -math.inf
                    return pair(duality_map(z), x)

                return Witness(
                    kind="double-dual-gap",
                    data={"z": z, "x": x},
                    value=val,
                    _validator=check,
                )
    return None


def generalized_double_dual_member(K, x: PrimalVec, tol: float = 1e-8) -> bool:
    """Membership of x in the twice-dualized generalized cone, two routes.

    Route one tests x in K directly.  Route two tests the finitely many
    extreme-ray inequalities of the polar cone, an exact alternative-free
    decision.  The routes must agree; a disagreement raises instead of
    picking a side.
    """
    v, _ = _vertex_and_generators(K)
    primal = K.contains(x, tol)

    rays, lin = K._polar
    d = x.coords - v.coords
    scale = tol * (1.0 + float(np.linalg.norm(d)))
    cert = all(float(np.dot(r, d)) <= scale for r in rays) and all(
        abs(float(np.dot(l, d))) <= scale for l in lin
    )
    if primal != cert:
        raise RuntimeError(
            "double-dual routes disagree: "
            f"primal membership {primal}, certificate {cert}, "
            f"distance {K.distance(x):.3e}"
        )
    return cert


def find_double_dual_certificate(K, x: PrimalVec, tol: float = 1e-8) -> Witness | None:
    """Separating functional proving x is outside the generalized double dual."""
    v, R = _vertex_and_generators(K)
    rays, lin = K._polar
    d = x.coords - v.coords
    best, best_val = None, tol * (1.0 + float(np.linalg.norm(d)))
    for r in list(rays) + [s * l for l in lin for s in (1.0, -1.0)]:
        val = float(np.dot(r, d))
        if val > best_val:
            best, best_val = r, val
    if best is None:
        return None
    space = K.space
    phi = DualVec(space.dual(), best / space.weights)

    def check(best=best) -> float:
        if np.max(R @ best) > 1e-10 * (1.0 + float(np.linalg.norm(best))):
            return -math.inf  # not actually in the polar cone
        return float(np.dot(best, x.coords - v.coords))

    return Witness(
        kind="separating-functional",
        data={"functional": phi, "point": x},
        value=best_val,
        _validator=check,
    )


@dataclass(frozen=True)
class IntersectionDualReport:
    """Outcome of checking dual(A int B) = hull(dual A union dual B)."""

    ok: bool
    forward_margin: float
    backward_residual: float
    intersection_generators: tuple[PrimalVec, ...]
    sampled: int


def _stacked_polar(cones) -> np.ndarray:
    cols: list[np.ndarray] = []
    for K in cones:
        rays, lin = K._polar
        cols.extend(rays)
        for l in lin:
            cols.append(l)
            cols.append(-l)
    if not cols:
        return np.zeros((cones[0].space.n, 1))
    return np.stack(cols, axis=1)


def intersection_dual_check_family(
    cones, seed: int = 0, trials: int = 50, tol: float = 1e-8
) -> IntersectionDualReport:
    """Exact two-way inclusion check of the intersection-dual identity.

    The dual of the intersection and the hull of the duals are both
    polyhedral after subtracting J(v), so each inclusion reduces to
    finitely many generator tests: hull generators must satisfy the
    intersection's inequalities, and the intersection dual's extreme rays
    must decompose as nonnegative combinations across the family's polars.
    Random functionals from the hull provide an extra sampled inclusion.
    """
    cones = list(cones)
    data = [_vertex_and_generators(K) for K in cones]
    if len(data) < 2:
        raise ValueError("need at least two cones")
    v0 = data[0][0]
    for v, _ in data[1:]:
        if v.space != v0.space or not np.array_equal(v.coords, v0.coords):
            raise ValueError("cones must share one vertex in one space")
    space = v0.space

    H = data[0][1].T
    for _, R in data[1:]:
        if H.shape[1] == 0:
            break
        gens = intersect_cone_generators(H, R.T)
        H = np.stack(gens, axis=1) if gens else np.zeros((space.n, 0))
    # H columns generate the intersection cone (possibly none: just the vertex)

    M = _stacked_polar(cones)
    scale = 1.0 + float(np.max(np.abs(M)))

    # forward: every hull generator obeys every intersection inequality
    if H.size:
        forward = float(np.max(H.T @ M))
    else:
        forward = 0.0  # intersection is the vertex alone; its dual is everything

    # backward: extreme rays of the intersection's polar decompose over M
    backward = 0.0
    if H.size:
        rays, lin = polar_cone_generators(H.T)
        targets = list(rays) + [s * l for l in lin for s in (1.0, -1.0)]
    else:
        eye = np.eye(space.n)
        targets = [s * e for e in eye for s in (1.0, -1.0)]
    for tvec in targets:
        backward = max(backward, float(_nnls(M, tvec)[1]))

    rng = np.random.default_rng(seed)
    sampled = 0
    for _ in range(trials):
        c = M @ rng.uniform(0.0, 2.0, size=M.shape[1])
        if H.size:
            forward = max(forward, float(np.max(c @ H)))
        sampled += 1

    ok = forward <= tol * scale and backward <= tol * scale
    gens = tuple(space.point(H[:, j]) for j in range(H.shape[1])) if H.size else ()
    return IntersectionDualReport(
        ok=bool(ok),
        forward_margin=float(forward),
        backward_residual=float(backward),
        intersection_generators=gens,
        sampled=sampled,
    )


def intersection_dual_check(A, B, seed: int = 0, trials: int = 50, tol: float = 1e-8) -> IntersectionDualReport:
    return intersection_dual_check_family([A, B], seed=seed, trials=trials, tol=tol)


def hilbert_identity_violation(K, w: PrimalVec, opts: SolverOptions | None = None) -> float:
    """Defect <J w, P_K w> - ||P_K w||^2, zero in the Euclidean case only."""
    v, _ = _vertex_and_generators(K)
    _require_origin_vertex(v)
    res = metric_project(K, w, opts)
    if not res.converged:
        raise RuntimeError("projection did not certify; defect value would be unreliable")
    u = res.point
    return pair(duality_map(w), u) - norm(u) ** 2
