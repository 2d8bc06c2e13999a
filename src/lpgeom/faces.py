"""Argmax faces, the functionals that see a point, and point classification.

The face of a functional psi on a set C is the subset of C where
<psi, .> attains its supremum.  Reversing the roles: the dual vision of
a member y collects every functional whose face contains y, and the
primal vision collects every point u whose image J(u) does.  A member
with trivial dual vision (only the zero functional) is internal;
otherwise it is a cuticle point, and the two kinds partition C.

Faces here are described, not enumerated: the supremum reduces to
finitely many pairings (the vertices, rays and lineality directions of
a polyhedral set, or for balls the dual-norm alignment direction),
giving the level, the face's shape kind, and representative members
that attain the level exactly.

Classification is decided exactly for balls (norm against radius) and
for the polyhedral types by linear algebra on the difference directions
at y: a nonzero supporting functional exists iff the polyhedral cone
{c : <w_j, c> <= 0} is nontrivial.  A null-space check settles the case
where the cone holds a line; otherwise Stiemke's alternative makes it one
nonnegative least-squares fit, in any dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cones import _vertex_and_generators, member_generalized_dual
from .polyhedra import _nnls, _null_space
from .projections import SolverOptions, generalized_project, metric_project
from .sets import Ball, ConvexSet
from .spaces import DualVec, PrimalVec, duality_map, duality_map_inv, norm, pair

__all__ = [
    "FaceDescription",
    "face",
    "face_membership",
    "vision_dual_member",
    "vision_primal_member",
    "vision_conjugation_check",
    "ClassifyResult",
    "classify_point",
    "FixedPointReport",
    "fixed_point_check",
    "VISolution",
    "solve_vi",
    "DualVisionIdentityReport",
    "dual_vision_identity_check",
]


@dataclass(frozen=True)
class FaceDescription:
    """Where a functional tops out on a set.

    ``level`` is the supremum (math.inf when nothing attains it),
    ``kind`` one of empty / whole-set / singleton / vertex-subset /
    affine-slice, ``representatives`` members attaining the level, and
    ``gaps`` per-element slack diagnostics in the order the set stores
    its vertices or generators.
    """

    level: float
    kind: str
    representatives: tuple[PrimalVec, ...]
    gaps: tuple[float, ...]


def _check_pairing(C: ConvexSet, psi: DualVec):
    if not psi.space.is_dual_of(C.space):
        raise ValueError("functional does not pair with this set's space")


def _ball_face(C: Ball, psi: DualVec, tol: float) -> FaceDescription:
    space = C.space
    r = C.radius
    lvl_psi = norm(psi)
    if lvl_psi <= tol:
        return FaceDescription(0.0, "whole-set", (space.zero(),), ())
    p = space.p
    if p == 1.0:
        mags = np.abs(psi.coords)
        top = float(np.max(mags))
        on = np.nonzero(mags >= top - tol * (1.0 + top))[0]
        signs = np.sign(psi.coords[on])
        uniform = np.zeros(space.n)
        uniform[on] = (r / on.size) * signs / space.weights[on]
        reps = [space.point(uniform)]
        for i, s in zip(on, signs):
            corner = np.zeros(space.n)
            corner[i] = r * s / space.weights[i]
            reps.append(space.point(corner))
        kind = "singleton" if on.size == 1 else "affine-slice"
        return FaceDescription(r * top, kind, tuple(reps), tuple(float(top - m) for m in mags))
    if math.isinf(p):
        level = r * float(np.dot(space.weights, np.abs(psi.coords)))
        corner = r * np.sign(psi.coords)
        free = np.nonzero(psi.coords == 0.0)[0]
        kind = "singleton" if free.size == 0 else "affine-slice"
        return FaceDescription(level, kind, (space.point(corner),), tuple(np.abs(psi.coords)))
    # smooth range: the argmax is the scaled inverse duality image, alone
    y = (r / lvl_psi) * duality_map_inv(psi)
    return FaceDescription(r * lvl_psi, "singleton", (y,), ())


def face(C: ConvexSet, psi: DualVec, tol: float = 1e-9) -> FaceDescription:
    """Describe the subset of C on which psi attains its supremum.

    On conv(V) + cone(R) + span(L) the face is empty when a ray pairs
    above ``tol`` or a lineality direction off zero (unit pairings);
    otherwise it is the hull of the vertices at the level plus the flat
    rays and the lineality.  ``gaps`` lists each vertex's slack below the
    level when there is more than one vertex, then each direction's unit
    pairing.
    """
    _check_pairing(C, psi)
    if isinstance(C, Ball):
        return _ball_face(C, psi, tol)
    space = C.space
    vals = [space.pairing(psi.coords, v) for v in C.V]
    level = max(vals)
    ray_pairs, line_pairs = C._unit_pairings(psi)
    slack = [level - v for v in vals] if len(vals) > 1 else []
    gaps = tuple(slack + ray_pairs + line_pairs)
    if C._escapes(ray_pairs, line_pairs, tol):
        return FaceDescription(math.inf, "empty", (), gaps)

    scale = tol * (1.0 + max(abs(v) for v in vals))
    hits = [space.point(v) for v, val in zip(C.V, vals) if level - val <= scale]
    flat = [d for d, pr in zip(C.R, ray_pairs) if abs(pr) <= tol] + list(C.L)
    if len(hits) == len(vals) and len(flat) == len(C.R) + len(C.L):
        kind = "whole-set"
    elif len(hits) == 1 and not flat:
        kind = "singleton"
    else:
        kind = "vertex-subset"
    reps = tuple(hits) + tuple(space.point(hits[0].coords + d) for d in flat)
    return FaceDescription(level, kind, reps, gaps)


def face_membership(C: ConvexSet, psi: DualVec, y: PrimalVec, tol: float = 1e-9) -> bool:
    """Whether the member y attains the supremum of psi on C."""
    if not C.contains(y, max(tol, 1e-9)):
        raise ValueError("y is not a member of the set")
    desc = face(C, psi, tol)
    if desc.kind == "empty":
        return False
    lhs = pair(psi, y)
    scale = tol * (1.0 + abs(desc.level) + float(np.linalg.norm(psi.coords)) * float(np.linalg.norm(y.coords)))
    return lhs >= desc.level - scale


def vision_dual_member(C: ConvexSet, y: PrimalVec, psi: DualVec, tol: float = 1e-9) -> bool:
    """Whether psi sees y: y lies in the face of psi on C."""
    return face_membership(C, psi, y, tol)


def vision_primal_member(C: ConvexSet, y: PrimalVec, u: PrimalVec, tol: float = 1e-9) -> bool:
    """Whether u sees y through the duality map: y lies in the face of J(u)."""
    return face_membership(C, duality_map(u), y, tol)


def vision_conjugation_check(C: ConvexSet, y: PrimalVec, u: PrimalVec, tol: float = 1e-9) -> bool:
    """Primal and dual vision memberships must agree through J; returns the verdict.

    The primal route reads whether y lies in the face of J(u) from
    ``face``.  The dual route asks whether <J(u), y> reaches the support
    function of C at J(u), within the slack ``face_membership`` allows;
    both routes count a direction as flat by the same unit-pairing rule.
    Disagreement raises.
    """
    primal = vision_primal_member(C, y, u, tol)
    psi = duality_map(u)
    level = C.support(psi, tol)
    scale = tol * (1.0 + abs(level) + float(np.linalg.norm(psi.coords)) * float(np.linalg.norm(y.coords)))
    dual = math.isfinite(level) and pair(psi, y) >= level - scale
    if primal != dual:
        raise RuntimeError("vision routes disagree through the duality map")
    return primal


@dataclass(frozen=True)
class ClassifyResult:
    verdict: str  # "internal" or "cuticle"
    witness: DualVec | None
    method: str


def _difference_rows(C: ConvexSet, y: PrimalVec) -> list[np.ndarray]:
    """Directions w with <psi, w> <= 0 required for psi to support C at y."""
    yc = y.coords
    rows = [v - yc for v in C.V] + list(C.R) + [s * l for l in C.L for s in (1.0, -1.0)]
    kept = []
    for r in rows:
        nr = float(np.linalg.norm(r))
        if nr > 1e-12 * (1.0 + float(np.linalg.norm(yc))):
            kept.append(r / nr)
    return kept


def _require_face_member(C: ConvexSet, psi: DualVec, y: PrimalVec, tol: float):
    # second route: the witness must put y in its own face
    if not face_membership(C, psi, y, max(tol, 1e-7)):
        raise RuntimeError("classification witness does not support the set at the point")


def classify_point(C: ConvexSet, y: PrimalVec, tol: float = 1e-9) -> ClassifyResult:
    """Decide whether y is internal to C or a cuticle point, with a witness.

    A cuticle verdict comes with a nonzero functional whose face contains
    y; an internal verdict certifies that no such functional exists.
    """
    if not C.contains(y, max(tol, 1e-9)):
        raise ValueError("y is not a member of the set")
    space = C.space

    if isinstance(C, Ball):
        ny = norm(y)
        if ny < C.radius * (1.0 - 1e-9) - tol:
            return ClassifyResult("internal", None, "closed-form")
        p = space.p
        if 1.0 < p < math.inf:
            psi = duality_map(y)
        elif p == 1.0:
            psi = DualVec(space.dual(), np.sign(y.coords))
        else:
            i = int(np.argmax(np.abs(y.coords)))
            c = np.zeros(space.n)
            c[i] = math.copysign(1.0, y.coords[i]) / space.weights[i]
            psi = DualVec(space.dual(), c)
        _require_face_member(C, psi, y, tol)
        return ClassifyResult("cuticle", psi, "closed-form")

    rows = _difference_rows(C, y)
    if not rows:
        # the set is the single point y; any nonzero functional supports it
        c = np.zeros(space.n)
        c[0] = 1.0
        return ClassifyResult("cuticle", DualVec(space.dual(), c / space.weights), "null-space")
    W = np.stack(rows, axis=0)

    def to_witness(c: np.ndarray, method: str) -> ClassifyResult:
        c = c / np.linalg.norm(c)
        psi = DualVec(space.dual(), c / space.weights)
        _require_face_member(C, psi, y, tol)
        return ClassifyResult("cuticle", psi, method)

    N = _null_space(W, rcond=1e-12)
    if N.shape[1] > 0:
        return to_witness(N[:, 0], "null-space")

    # W has full column rank, so W c <= 0 has a nonzero solution iff no
    # lam > 0 has W^T lam = 0 (Stiemke), iff b = -sum_j W_j is not in the
    # cone of the rows.  When the fit of b misses, its residual is a
    # solution: the fit's optimality conditions give W (b - W^T lam) <= 0.
    b = -W.sum(axis=0)
    lam, rho = _nnls(W.T, b)
    if rho > 1e-9 * (1.0 + float(np.linalg.norm(b))):
        return to_witness(b - W.T @ lam, "least-squares")
    return ClassifyResult("internal", None, "least-squares")


@dataclass(frozen=True)
class FixedPointReport:
    """Agreement record for the three views of seeing y from u."""

    face_member: bool
    metric_fixed: bool
    generalized_fixed: bool
    agree: bool
    inconclusive: bool


def fixed_point_check(
    C: ConvexSet,
    u: PrimalVec,
    y: PrimalVec,
    tol: float = 1e-6,
    opts: SolverOptions | None = None,
) -> FixedPointReport:
    """Check y in face(J u) against y = P_C(u + y) and y = pi_C(Ju + Jy).

    The three are equivalent characterizations; ``agree`` reports whether
    the computed booleans coincide, and ``inconclusive`` is set instead
    of guessing when a projection solve fails to certify.
    """
    ju = duality_map(u)
    fm = face_membership(C, ju, y, tol)

    mres = metric_project(C, u + y, opts)
    gres = generalized_project(C, ju + duality_map(y), opts)
    if not (mres.converged and gres.converged):
        return FixedPointReport(fm, False, False, False, True)
    scale = tol * (1.0 + float(np.linalg.norm(y.coords)))
    mf = bool(np.linalg.norm(mres.point.coords - y.coords) <= scale)
    gf = bool(np.linalg.norm(gres.point.coords - y.coords) <= scale)
    return FixedPointReport(fm, mf, gf, fm == mf == gf, False)


@dataclass(frozen=True)
class VISolution:
    """Solution record for <psi, y - x> >= 0 over x in C."""

    point: PrimalVec | None
    description: FaceDescription
    metric_residual: float | None
    generalized_residual: float | None


def solve_vi(C: ConvexSet, psi: DualVec, tol: float = 1e-6, opts: SolverOptions | None = None) -> VISolution:
    """Solve the variational inequality of psi over C through its face.

    The solution set is exactly the face of psi on C; when nonempty, one
    representative is cross-validated through both projection equations,
    and a disagreement raises rather than returning an uncertified point.
    """
    desc = face(C, psi)
    if not desc.representatives:
        return VISolution(None, desc, None, None)
    y = desc.representatives[0]
    u = duality_map_inv(psi)
    mres = metric_project(C, u + y, opts)
    gres = generalized_project(C, psi + duality_map(y), opts)
    m_err = float(np.linalg.norm(mres.point.coords - y.coords))
    g_err = float(np.linalg.norm(gres.point.coords - y.coords))
    scale = tol * (1.0 + float(np.linalg.norm(y.coords)))
    if mres.converged and gres.converged and (m_err > scale or g_err > scale):
        raise RuntimeError(
            f"face representative fails a projection equation: metric {m_err:.3e}, generalized {g_err:.3e}"
        )
    return VISolution(y, desc, m_err, g_err)


@dataclass(frozen=True)
class DualVisionIdentityReport:
    checked: int
    disagreements: int
    ok: bool


def dual_vision_identity_check(K, seed: int = 0, trials: int = 200, tol: float = 1e-9) -> DualVisionIdentityReport:
    """Sampled check that the generalized dual cone is J(v) plus the dual vision of v.

    Functionals psi are drawn around J(v); membership of psi in the dual
    cone must match membership of psi - J(v) in the dual vision of the
    vertex, i.e. v attaining the supremum of psi - J(v) on the cone.
    """
    v, _ = _vertex_and_generators(K)
    space = K.space
    jv = duality_map(v)
    rng = np.random.default_rng(seed)

    checked = disagreements = 0
    for _ in range(trials):
        offset = rng.normal(size=space.n) * float(rng.uniform(0.1, 5.0))
        psi = DualVec(space.dual(), jv.coords + offset)
        lhs = member_generalized_dual(K, psi, tol)
        rhs = face_membership(K, psi - jv, v, tol)
        checked += 1
        disagreements += int(lhs != rhs)
    return DualVisionIdentityReport(checked, disagreements, disagreements == 0)
