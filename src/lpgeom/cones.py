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
is always convex, and dualizing twice returns K exactly.  One membership
test, ``generalized_double_dual_member``, decides by two independent
routes and refuses to reconcile a disagreement silently.

Every routine takes the ray or finitely generated cone itself and reads
the vertex from its one row of ``V`` and the generators from the rows of
``R``.  Each question is one matrix product over those rows.  The metric
tests pair J(x - v) with R for a whole batch of candidates x at once
(``_margins``), and the generalized tests pair with the polar cone's
generator matrix, which the set computes once (``sets._Polyhedral._polar``).
The witness searches draw nothing: every member of the metric dual cone is
v + J*(phi) for phi in the polar, so they build their candidates from the
polar generators and score them all in one product.  J, J* and the norm
come from ``LpSpace.jmap`` (of the space or its dual) and
``LpSpace.norm_of``, which map a stack of rows row by row.  The two
searches and ``hilbert_identity_violation`` take no tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .polyhedra import _nnls, _polar_rows, intersect_cone_generators
from .projections import _VI_TOL, metric_project
from .spaces import DualVec, PrimalVec

__all__ = [
    "Witness",
    "member_metric_dual",
    "member_generalized_dual",
    "probe_nonconvexity_metric_dual",
    "metric_double_dual_violation",
    "generalized_double_dual_member",
    "find_double_dual_certificate",
    "IntersectionDualReport",
    "intersection_dual_check_family",
    "hilbert_identity_violation",
]

# two members of the metric dual cone of the ray through (-25, -37, -77) at
# exponent 3 whose 2/3 : 1/3 combination escapes.  In R^3 the convexity
# search tries the pair, and the double-dual search its first member, before
# the members built from the polar
_PINNED_PAIR = np.array([[3.0, -2.0, -1.0], [1.0, -3.0, 2.0]])
_PINNED_PAIR.setflags(write=False)

# the mixes (1 - s) a + s b of two candidates, and the combinations lam x + (1 - lam) y tested for escape
_MIXES = np.array([0.25, 0.5, 0.75])
_LAMBDAS = np.array([2.0 / 3.0, 0.5, 0.25, 0.75])
# the searches' metric dual membership slack: a candidate is in when its margin is at most this
_SEARCH_TOL = 1e-9


@dataclass(frozen=True)
class Witness:
    """A concrete counterexample with a recomputable positive margin."""

    kind: str
    value: float
    data: dict
    _validator: Callable[[], float] = field(repr=False, compare=False)

    def revalidate(self) -> bool:
        fresh = self._validator()
        return math.isfinite(fresh) and fresh > 0.0


def _vertex_and_generators(K) -> tuple[np.ndarray, np.ndarray]:
    """(vertex row, generator rows) of a set with one vertex, some rays and no lineality."""
    V, R, L = (getattr(K, name, ()) for name in ("V", "R", "L"))
    if len(V) != 1 or not len(R) or len(L):
        raise TypeError("expected a ray or a finitely generated cone")
    return V[0], R


def _require_origin_vertex(v: np.ndarray):
    if not np.all(v == 0.0):
        raise ValueError("this check is defined for cones with vertex at the origin")


def _margins(K, X: np.ndarray) -> np.ndarray:
    """max_i <J(x - v), g_i> for every row x of X; x is in the metric dual cone when it is <= tol."""
    return np.max((K.space.weights * K.space.jmap(X - K.V[0])) @ K.R.T, axis=-1)


def _pair_mixes(rows: np.ndarray) -> np.ndarray:
    """The rows, then (1 - s) a + s b for every pair a < b of them, pair-major, for s in ``_MIXES``."""
    a, b = np.triu_indices(len(rows), k=1)
    mixes = (1.0 - _MIXES[:, None]) * rows[a, None] + _MIXES[:, None] * rows[b, None]
    return np.vstack([rows, mixes.reshape(-1, rows.shape[1])])


def _polar_members(K) -> np.ndarray:
    """v + J*(c / w) for the unit polar generators c and their pair mixes, in ``_pair_mixes`` order.

    <c / w, g_i> = <c, g_i> <= 0 and J(J* phi) = phi, so each row is a
    member of the metric dual cone up to roundoff.
    """
    space = K.space
    C = K._polar / np.linalg.norm(K._polar, axis=1, keepdims=True)
    return K.V[0] + space.dual().jmap(_pair_mixes(C) / space.weights)


def member_metric_dual(K, x: PrimalVec, tol: float = 1e-9) -> bool:
    """Membership of x in the metric dual cone of K."""
    _vertex_and_generators(K)  # a ray or a cone, else TypeError
    K._check_point(x)
    return bool(_margins(K, x.coords) <= tol)


def member_generalized_dual(K, psi: DualVec, tol: float = 1e-9) -> bool:
    """Membership of psi in the generalized dual cone of K: psi - J(v) is bounded on K, by ``faces.face``'s rule."""
    v, _ = _vertex_and_generators(K)
    K._check_functional(psi)
    return math.isfinite(K._support(psi.coords - K.space.jmap(v), tol))


def probe_nonconvexity_metric_dual(K) -> Witness | None:
    """Search for a convex combination that escapes the metric dual cone.

    Returns a witness (x, y members, h = lam x + (1 - lam) y not a member)
    or None when no candidate escapes; None is the outcome of a search,
    not a proof of convexity.  At exponent 2 the dual cone is convex and
    the search comes back empty.

    The members are built, not drawn (``_polar_members``).  The pairs are
    the pinned pair in R^3, then, for each pair of polar generators, every
    two of the five members along their segment (c_a, the three mixes,
    c_b), so the pairs grow with the square of the polar generators.
    """
    v, R = _vertex_and_generators(K)
    space = K.space
    pinned = _PINNED_PAIR if space.n == 3 else np.zeros((0, space.n))
    X = np.vstack([pinned, _polar_members(K)])

    # rows of X as pairs [x, y]: the pinned pair, then every two of the five members along each polar segment
    count = len(K._polar)
    a, b = np.triu_indices(count, k=1)
    segments = len(pinned) + np.column_stack([a, count + np.arange(3 * len(a)).reshape(-1, 3), b])
    s, t = np.triu_indices(5, k=1)
    pairs = np.stack([segments[:, s], segments[:, t]], axis=-1).reshape(-1, 2)
    pairs = np.vstack([np.arange(len(pinned)).reshape(-1, 2), pairs])
    pairs = pairs[np.all(_margins(K, X)[pairs] <= _SEARCH_TOL, axis=1)]

    grid = _LAMBDAS[:, None]
    H = grid * X[pairs[:, None, 0]] + (1.0 - grid) * X[pairs[:, None, 1]]  # pair-major, then _LAMBDAS order
    escaped = np.flatnonzero(_margins(K, H.reshape(-1, space.n)) > _SEARCH_TOL)
    if not escaped.size:
        return None
    k, j = divmod(int(escaped[0]), len(_LAMBDAS))
    lam = float(_LAMBDAS[j])
    xyh = np.array([X[pairs[k, 0]], X[pairs[k, 1]], lam * X[pairs[k, 0]] + (1.0 - lam) * X[pairs[k, 1]]])
    x, y, h = (space.point(row) for row in xyh)
    gaps = tuple((R @ (space.weights * space.jmap(xyh[2] - v))).tolist())

    def check() -> float:
        m = _margins(K, xyh)
        return float(m[2]) if max(m[0], m[1]) <= _SEARCH_TOL else -math.inf

    return Witness(
        kind="convex-combination-escape",
        value=max(gaps),
        data={"x": x, "y": y, "lam": lam, "h": h, "generator_gaps": gaps},
        _validator=check,
    )


def metric_double_dual_violation(K) -> Witness | None:
    """Search for z in K that the twice-dualized metric cone rejects.

    z lies in the double dual only if <J z, x> <= 0 for every member x of
    the metric dual cone, so a pair with <J z, x> > 0 is a witness that K
    is not contained in its metric double dual.  Returns None when the
    search finds nothing (the expected outcome at exponent 2).

    The candidates z are the generators and their pair mixes
    (``_pair_mixes``); the candidates x are the first member of the pinned
    pair in R^3, then the built members of ``_polar_members``.
    """
    v, R = _vertex_and_generators(K)
    _require_origin_vertex(v)
    space = K.space
    Z = _pair_mixes(R)
    X = np.vstack([_PINNED_PAIR[:1] if space.n == 3 else np.zeros((0, space.n)), _polar_members(K)])
    X = X[_margins(K, X) <= _SEARCH_TOL]

    # every pair at once, z-major as a loop over z then x would meet them
    scores = (space.weights * space.jmap(Z)) @ X.T
    hits = np.argwhere(scores > np.maximum(_SEARCH_TOL, (1e-9 * space.norm_of(Z))[:, None] * space.norm_of(X)))
    if not len(hits):
        return None
    i, j = hits[0]
    z, x = Z[i], X[j]

    def check() -> float:
        if _margins(K, x) > _SEARCH_TOL or not K._contains(z, 1e-9):
            return -math.inf
        return space.pairing(space.jmap(z), x)

    # the value as the validator recomputes it, not the product's roundoff
    value = space.pairing(space.jmap(z), x)
    data = {"z": space.point(z), "x": space.point(x)}
    return Witness(kind="double-dual-gap", value=value, data=data, _validator=check)


def generalized_double_dual_member(K, x: PrimalVec, tol: float = 1e-8) -> bool:
    """Membership of x in the twice-dualized generalized cone, two routes.

    Route one tests x in K directly.  Route two tests the finitely many
    generator inequalities of the polar cone, an exact alternative-free
    decision.  The routes must agree; a disagreement raises instead of
    picking a side.
    """
    v, _ = _vertex_and_generators(K)
    primal = K.contains(x, tol)
    d = x.coords - v
    cert = bool(np.all(K._polar @ d <= tol * (1.0 + float(np.linalg.norm(d)))))
    if primal != cert:
        raise RuntimeError(
            "double-dual routes disagree: "
            f"primal membership {primal}, certificate {cert}, "
            f"distance {K._distance(x.coords):.3e}"
        )
    return cert


def find_double_dual_certificate(K, x: PrimalVec, tol: float = 1e-8) -> Witness | None:
    """Separating functional proving x is outside the generalized double dual.

    The functional is the polar generator with the largest pairing against
    x - v, the first one when several tie.
    """
    v, R = _vertex_and_generators(K)
    K._check_point(x)
    d = x.coords - v
    vals = K._polar @ d
    if not np.any(vals > tol * (1.0 + float(np.linalg.norm(d)))):
        return None
    k = int(np.argmax(vals))
    best = K._polar[k]
    space = K.space
    phi = DualVec(space.dual(), best / space.weights)

    def check() -> float:
        if np.max(R @ best) > 1e-10 * (1.0 + float(np.linalg.norm(best))):
            return -math.inf  # not actually in the polar cone
        return float(np.dot(best, x.coords - v))

    return Witness(
        kind="separating-functional",
        value=float(np.dot(best, d)),
        data={"functional": phi, "point": x},
        _validator=check,
    )


@dataclass(frozen=True)
class IntersectionDualReport:
    """Outcome of checking dual(A int B) = hull(dual A union dual B)."""

    ok: bool
    forward_margin: float
    backward_residual: float
    intersection_generators: tuple[PrimalVec, ...]


def intersection_dual_check_family(cones, tol: float = 1e-8) -> IntersectionDualReport:
    """Exact two-way inclusion check of the intersection-dual identity.

    The dual of the intersection and the hull of the duals are both
    polyhedral after subtracting J(v), so each inclusion reduces to
    finitely many generator tests: hull generators must satisfy the
    intersection's inequalities, and the intersection dual's extreme rays
    must decompose as nonnegative combinations across the family's polars.
    """
    cones = list(cones)
    data = [_vertex_and_generators(K) for K in cones]
    if len(data) < 2:
        raise ValueError("need at least two cones")
    space, v0 = cones[0].space, data[0][0]
    for K, (v, _) in zip(cones[1:], data[1:]):
        if K.space != space or not np.array_equal(v, v0):
            raise ValueError("cones must share one vertex in one space")

    H = data[0][1].T
    for _, R in data[1:]:
        if H.shape[1] == 0:
            break
        gens = intersect_cone_generators(H, R.T)
        H = np.stack(gens, axis=1) if gens else np.zeros((space.n, 0))
    # H columns generate the intersection cone (possibly none: just the vertex)

    M = np.vstack([K._polar for K in cones]).T
    if not M.size:
        M = np.zeros((space.n, 1))  # every polar is the origin alone
    scale = 1.0 + float(np.max(np.abs(M)))

    # forward: every hull generator obeys every intersection inequality
    if H.size:
        forward = float(np.max(H.T @ M))
    else:
        forward = 0.0  # intersection is the vertex alone; its dual is everything

    # backward: extreme rays of the intersection's polar decompose over M
    # (with no hull generator the intersection is the vertex, whose polar is everything)
    targets = _polar_rows(H.T) if H.size else np.kron(np.eye(space.n), [[1.0], [-1.0]])
    backward = max([0.0] + [float(_nnls(M, t)[1]) for t in targets])

    ok = forward <= tol * scale and backward <= tol * scale
    gens = tuple(space.point(H[:, j]) for j in range(H.shape[1])) if H.size else ()
    return IntersectionDualReport(
        ok=bool(ok),
        forward_margin=float(forward),
        backward_residual=float(backward),
        intersection_generators=gens,
    )


def _identity_defect(K, w: PrimalVec, vi_tol: float) -> tuple[float, PrimalVec]:
    """(<J w, P_K w> - ||P_K w||^2, P_K w) for a cone with vertex at the origin, P_K w certified to ``vi_tol``."""
    v, _ = _vertex_and_generators(K)
    _require_origin_vertex(v)
    res = metric_project(K, w, vi_tol)
    if not res.converged:
        raise RuntimeError("projection did not certify; defect value would be unreliable")
    u = res.point.coords
    return K.space.pairing(K.space.jmap(w.coords), u) - K.space.norm_of(u) ** 2, res.point


def hilbert_identity_violation(K, w: PrimalVec) -> float:
    """Defect <J w, P_K w> - ||P_K w||^2, zero in the Euclidean case only."""
    return _identity_defect(K, w, _VI_TOL)[0]
