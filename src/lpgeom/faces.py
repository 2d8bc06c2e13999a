"""Argmax faces, the functionals that see a point, and point classification.

The face of a functional psi on a set C is the subset of C where
<psi, .> attains its supremum.  Reversing the roles: the dual vision of
a member y collects every functional whose face contains y, and the
primal vision collects every point u whose image J(u) does.  A member
with trivial dual vision (only the zero functional) is internal;
otherwise it is a cuticle point, and the two kinds partition C.

Faces here are described, not enumerated, and each set describes its
own (``ConvexSet._face``): the supremum reduces to finitely many
pairings (the vertices, rays and lineality directions of a polyhedral
set, or for balls the dual-norm alignment direction), giving the level,
the face's shape kind, and representative members that attain the level
exactly.

Classification asks the set for a nonzero supporting functional at y
(``ConvexSet._supporting_functional``).  A ball compares the norm with
the radius.  A polyhedral set looks for a nonzero c with <w_j, c> <= 0
on the difference directions w_j at y: a null vector when the cone of
such c holds a line, otherwise one nonnegative least-squares fit by
Stiemke's alternative, in any dimension.  Every witness is checked once
more here, by the support function: a point already fitted is not fitted
again.  The second route to a primal vision is ``fixed_point_check``.
Nothing here draws samples: the dual-vision identity is checked on the
polar cone's generators.  The three cross-checks take no tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cones import _vertex_and_generators, member_generalized_dual
from .projections import generalized_project, metric_project
from .sets import ConvexSet
from .spaces import DualVec, PrimalVec, duality_map, duality_map_inv

__all__ = [
    "FaceDescription",
    "face",
    "face_membership",
    "vision_dual_member",
    "vision_primal_member",
    "ClassifyResult",
    "classify_point",
    "FixedPointReport",
    "fixed_point_check",
    "VISolution",
    "solve_vi",
    "DualVisionIdentityReport",
    "dual_vision_identity_check",
]

# how far a projection may land from y, relative to 1 + |y|, for y to be its fixed point
_FIXED_POINT_TOL = 1e-6
_DUAL_VISION_TOL = 1e-9


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


def face(C: ConvexSet, psi: DualVec, tol: float = 1e-9) -> FaceDescription:
    """Describe the subset of C on which psi attains its supremum.

    On conv(V) + cone(R) + span(L) the face is empty when a ray pairs
    above ``tol`` or a lineality direction off zero (unit pairings);
    otherwise it is the hull of the vertices at the level plus the flat
    rays and the lineality.  ``gaps`` lists each vertex's slack below the
    level when there is more than one vertex, then each direction's unit
    pairing.  On a ball only psi = 0 has the whole ball as its face.
    """
    C._check_functional(psi)
    level, kind, reps, gaps = C._face(psi.coords, tol)
    return FaceDescription(level, kind, tuple(C.space.point(r) for r in reps), gaps)


def _attains(C: ConvexSet, psi: np.ndarray, y: np.ndarray, tol: float) -> bool:
    """Whether the member y reaches the face of psi on C, within tol (1 + |level| + |psi| |y|)."""
    level = C._support(psi, tol)  # the face's level bit for bit, infinite exactly when the face is empty
    if level == math.inf:
        return False
    scale = tol * (1.0 + abs(level) + float(np.linalg.norm(psi)) * float(np.linalg.norm(y)))
    return C.space.pairing(psi, y) >= level - scale


def face_membership(C: ConvexSet, psi: DualVec, y: PrimalVec, tol: float = 1e-9) -> bool:
    """Whether the member y attains the supremum of psi on C."""
    if not C.contains(y, max(tol, 1e-9)):
        raise ValueError("y is not a member of the set")
    C._check_functional(psi)
    return _attains(C, psi.coords, y.coords, tol)


def vision_dual_member(C: ConvexSet, y: PrimalVec, psi: DualVec, tol: float = 1e-9) -> bool:
    """Whether psi sees y: y lies in the face of psi on C."""
    return face_membership(C, psi, y, tol)


def vision_primal_member(C: ConvexSet, y: PrimalVec, u: PrimalVec, tol: float = 1e-9) -> bool:
    """Whether u sees y through the duality map: y lies in the face of J(u)."""
    return face_membership(C, duality_map(u), y, tol)


@dataclass(frozen=True)
class ClassifyResult:
    verdict: str  # "internal" or "cuticle"
    witness: DualVec | None
    method: str


def classify_point(C: ConvexSet, y: PrimalVec, tol: float = 1e-9) -> ClassifyResult:
    """Decide whether y is internal to C or a cuticle point, with a witness.

    A cuticle verdict comes with a nonzero functional whose supremum on C,
    its support function, y attains; an internal verdict certifies that no
    such functional exists.
    """
    if not C.contains(y, max(tol, 1e-9)):
        raise ValueError("y is not a member of the set")
    c, method = C._supporting_functional(y.coords, tol)
    if c is None:
        return ClassifyResult("internal", None, method)
    witness = C.space.functional(c)
    # second route: the witness must put y, fitted above, in its own face
    if not _attains(C, c, y.coords, max(tol, 1e-7)):
        raise RuntimeError("classification witness does not support the set at the point")
    return ClassifyResult("cuticle", witness, method)


@dataclass(frozen=True)
class FixedPointReport:
    """Agreement record for the three views of seeing y from u."""

    face_member: bool
    metric_fixed: bool
    generalized_fixed: bool
    agree: bool
    inconclusive: bool


def _fixed_point_errors(C: ConvexSet, u: PrimalVec, ju: DualVec, y: PrimalVec) -> tuple[float, float, bool, float]:
    """|P_C(u + y) - y|, |pi_C(ju + Jy) - y| for ju = J(u), whether both certified, and the scale to judge them."""
    mres = metric_project(C, u + y)
    gres = generalized_project(C, ju + duality_map(y))
    m_err = float(np.linalg.norm(mres.point.coords - y.coords))
    g_err = float(np.linalg.norm(gres.point.coords - y.coords))
    scale = _FIXED_POINT_TOL * (1.0 + float(np.linalg.norm(y.coords)))
    return m_err, g_err, mres.converged and gres.converged, scale


def fixed_point_check(C: ConvexSet, u: PrimalVec, y: PrimalVec) -> FixedPointReport:
    """Check y in face(J u) against y = P_C(u + y) and y = pi_C(Ju + Jy).

    The three are equivalent characterizations; ``agree`` reports whether
    the computed booleans coincide, and ``inconclusive`` is set instead
    of guessing when a projection solve fails to certify.
    """
    ju = duality_map(u)
    fm = face_membership(C, ju, y, _FIXED_POINT_TOL)
    m_err, g_err, certified, scale = _fixed_point_errors(C, u, ju, y)
    if not certified:
        return FixedPointReport(fm, False, False, False, True)
    mf, gf = m_err <= scale, g_err <= scale
    return FixedPointReport(fm, mf, gf, fm == mf == gf, False)


@dataclass(frozen=True)
class VISolution:
    """Solution record for <psi, y - x> >= 0 over x in C."""

    point: PrimalVec | None
    description: FaceDescription
    metric_residual: float | None
    generalized_residual: float | None


def solve_vi(C: ConvexSet, psi: DualVec) -> VISolution:
    """Solve the variational inequality of psi over C through its face.

    The solution set is exactly the face of psi on C; when nonempty, one
    representative is cross-validated through both projection equations,
    and a disagreement raises rather than returning an uncertified point.
    """
    desc = face(C, psi)
    if not desc.representatives:
        return VISolution(None, desc, None, None)
    y = desc.representatives[0]
    m_err, g_err, certified, scale = _fixed_point_errors(C, duality_map_inv(psi), psi, y)
    if certified and (m_err > scale or g_err > scale):
        raise RuntimeError(
            f"face representative fails a projection equation: metric {m_err:.3e}, generalized {g_err:.3e}"
        )
    return VISolution(y, desc, m_err, g_err)


@dataclass(frozen=True)
class DualVisionIdentityReport:
    checked: int
    disagreements: int
    ok: bool


def dual_vision_identity_check(K) -> DualVisionIdentityReport:
    """Exact check that the generalized dual cone is J(v) plus the dual vision of v.

    The double-description polar is the second route: with c = w phi,
    {phi : <phi, g_i> <= 0} is the cone of the polar generators c.  So
    psi = J(v) + phi must be in the dual cone, and phi must see the vertex,
    for phi = 0 and for each unit polar generator.  Pushed across the facet
    of each generator g it lies on (<c, g> >= 0, within ``_DUAL_VISION_TOL``), to
    c + g / |g|, it must be in neither.  ``disagreements`` counts the
    cases where either side departs from the polar's answer.
    """
    v, R = _vertex_and_generators(K)
    space, tol = K.space, _DUAL_VISION_TOL
    jv = space.jmap(v)
    lengths = np.linalg.norm(R, axis=1)
    cases = []
    for c in np.vstack([np.zeros(space.n), K._polar / np.linalg.norm(K._polar, axis=1, keepdims=True)]):
        on_facet = R @ c >= -tol * lengths
        cases += [(c, True)] + [(c + g / length, False) for g, length in zip(R[on_facet], lengths[on_facet])]
    disagreements = 0
    for c, member in cases:
        psi = space.functional(jv + c / space.weights)
        sides = (member_generalized_dual(K, psi, tol), _attains(K, psi.coords - jv, v, tol))
        disagreements += sides != (member, member)
    return DualVisionIdentityReport(len(cases), disagreements, disagreements == 0)
