"""Closed convex point sets with exact support functions.

Seven set types cover the geometry the projection and face machinery
needs: segments, rays, lines, finitely generated cones, polytopes,
norm balls centered at the origin, and linear subspaces.  All but the
ball share one polyhedral description, conv(V) + cone(R) + span(L), on
which every set operation is written once.  Membership is decided by
closed-form or least-squares coefficient fits measured in the Euclidean
coefficient sense; support functions are closed form.  Each polyhedral
set reads from (V, R, L) the affine chart the projection solver works
on: base + D t, with per-coefficient bounds lo <= t <= hi, or the
probability simplex over the vertices.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .polyhedra import _nnls, _rank, polar_cone_generators
from .spaces import DualVec, LpSpace, PrimalVec

__all__ = [
    "ConvexSet",
    "Segment",
    "Ray",
    "Line",
    "FinitelyGeneratedCone",
    "Polytope",
    "Ball",
    "Subspace",
]

# rank rule of a Gram matrix D^T D: its entries carry roundoff of order eps max(D^T D)
_GRAM_RCOND = math.sqrt(float(np.finfo(float).eps))


def _as_points(points, what: str) -> tuple[PrimalVec, ...]:
    pts = tuple(points)
    if not pts:
        raise ValueError(f"{what} must be nonempty")
    space = pts[0].space
    for p in pts:
        if not isinstance(p, PrimalVec):
            raise TypeError(f"{what} must be PrimalVec instances")
        if p.space != space:
            raise ValueError(f"{what} must share one space")
    return pts


def _frozen_rows(rows, n: int) -> np.ndarray:
    M = np.array(rows, dtype=float).reshape(-1, n)
    M.setflags(write=False)
    return M


class ConvexSet:
    """Base class; subclasses fix the geometry."""

    space: LpSpace

    def contains(self, x: PrimalVec, tol: float = 1e-9) -> bool:
        """True when x is within ``tol`` (scaled by magnitude) of the set."""
        self._check_point(x)
        return self.distance(x) <= self._slack(x, tol)

    def distance(self, x: PrimalVec) -> float:
        """Distance from x to the set in the Euclidean coefficient sense.

        Exact for one-direction sets and subspaces (closed-form and
        least-squares fits) and for the ball (norm residual, in norm
        units); for cones and polytopes it is the residual of a
        nonnegative least-squares coefficient fit, which vanishes exactly
        on members.
        """
        raise NotImplementedError

    def support(self, psi: DualVec, tol: float = 0.0) -> float:
        """sup_{x in C} <psi, x>; +inf when the functional is unbounded above.

        ``tol`` follows ``faces.face``: a ray or lineality direction whose
        unit pairing <psi, d> / (|psi| |d|) (Euclidean norms) is within tol
        of zero is flat, and on a ball a functional of dual norm at most tol
        counts as zero.
        """
        raise NotImplementedError

    def sample(self, count: int, seed: int = 0) -> list[PrimalVec]:
        """Deterministic members; unbounded coefficients are log-uniform in [1e-2, 1e2]."""
        raise NotImplementedError

    def _scale(self) -> float:
        raise NotImplementedError

    def _slack(self, x: PrimalVec, tol: float) -> float:
        """The distance ``contains`` allows: tol scaled by the sizes of x and the set."""
        return tol * (1.0 + float(np.linalg.norm(x.coords)) + self._scale())

    def _fits(self, x: PrimalVec, t, tol: float) -> bool:
        """True when chart coefficients t witness that x is a member within ``tol``."""
        raise TypeError(f"{type(self).__name__} has no chart coefficients to witness membership")

    def _check_point(self, x: PrimalVec):
        if not isinstance(x, PrimalVec):
            raise TypeError("expected a PrimalVec")
        if x.space != self.space:
            raise ValueError("point lives in a different space")

    def _check_functional(self, psi: DualVec):
        if not isinstance(psi, DualVec):
            raise TypeError("expected a DualVec")
        if not psi.space.is_dual_of(self.space):
            raise ValueError("functional does not pair with this set's space")


class _Polyhedral(ConvexSet):
    """conv(V) + cone(R) + span(L), with the affine chart the solvers use.

    By Minkowski-Weyl every non-ball set type is such a sum, so each set
    operation below is written once against three coordinate matrices,
    whose rows are points of the space: ``V`` the vertices (at least
    one), ``R`` the recession rays and ``L`` the lineality directions.
    The subclasses only build (V, R, L).

    The chart u = base + D t is read from them.  Over more than two
    vertices (a polytope) it is the probability simplex over V, with
    base 0.  Otherwise the base is V[0], and the columns of D are the
    edge V[1] - V[0] on [0, 1], the rays (t >= 0) and the lineality
    directions (free), with the bounds in ``_lo`` and ``_hi``.  A set
    that mixes more than one vertex, rays and lineality has no chart yet.
    """

    def __init__(self, space: LpSpace, V, R, L):
        self.space = space
        self.V, self.R, self.L = (_frozen_rows(M, space.n) for M in (V, R, L))
        nv, nr, nl = len(self.V), len(self.R), len(self.L)
        if (nv > 1) + (nr > 0) + (nl > 0) > 1:
            raise NotImplementedError("no chart mixes vertices, rays and lineality directions")
        self._simplex = nv > 2
        if self._simplex:
            self._base, cols = np.zeros(space.n), self.V
            self._lo, self._hi = np.zeros(nv), np.full(nv, math.inf)
        else:
            self._base = self.V[0]
            cols = np.vstack([self.V[1:] - self._base, self.R, self.L])
            counts = [nv - 1, nr, nl]
            self._lo = np.repeat([0.0, 0.0, -math.inf], counts)
            self._hi = np.repeat([1.0, math.inf, math.inf], counts)
        self._D = np.ascontiguousarray(cols.T)
        self._rows = np.vstack([self.V, self.R, self.L])
        reach = np.max(np.linalg.norm(self._rows[nv:], axis=1), initial=0.0)
        self._extent = float(np.max(np.linalg.norm(self.V, axis=1)) + reach)
        self._independent: bool | None = None  # set by _independent_directions on first use

    def distance(self, x: PrimalVec) -> float:
        self._check_point(x)
        r = x.coords - self._base
        D = self._D
        if self._simplex:
            # Convex-combination fit: stack the affine constraint sum(c) = 1 as
            # an extra row so one nonnegative least-squares solve handles both.
            # The blended residual vanishes exactly on members.
            rho = self._sum_weight(x)
            A = np.vstack([D, rho * np.ones(D.shape[1])])
            return float(_nnls(A, np.concatenate([r, [rho]]))[1])
        if D.shape[1] == 1:
            # one direction on an interval: the fit is a clamped projection
            d = D[:, 0]
            dd = np.dot(d, d)  # zero only for a polytope with two equal vertices
            t = np.minimum(np.maximum(np.dot(r, d) / dd if dd else 0.0, self._lo[0]), self._hi[0])
            return float(np.linalg.norm(r - t * d))
        if np.all(np.isinf(self._lo)):
            coef, *_ = np.linalg.lstsq(D, r, rcond=None)
            return float(np.linalg.norm(r - D @ coef))
        return float(_nnls(D, r)[1])

    def _fits(self, x: PrimalVec, t, tol: float) -> bool:
        """True when chart coefficients t witness that x is a member within ``tol``.

        t must lie within the chart's bounds (the simplex's sum is judged by
        the residual), and base + D t must reproduce x within the distance
        that ``contains`` allows.  The residual is the one ``distance``
        minimizes over the domain, sum row included, so distance(x) never
        exceeds it and a pass here implies contains(x, tol).  Nothing is
        fitted.
        """
        self._check_point(x)
        t = np.asarray(t, dtype=float)
        if t.shape != self._lo.shape:
            raise ValueError(f"a witness needs {self._lo.size} chart coefficients, got shape {t.shape}")
        if not np.all((t >= self._lo) & (t <= self._hi)):
            return False
        res = float(np.linalg.norm(self._D @ t - (x.coords - self._base)))
        if self._simplex:
            res = math.hypot(res, self._sum_weight(x) * (float(np.sum(t)) - 1.0))
        return res <= self._slack(x, tol)

    def _independent_directions(self) -> bool:
        """True when the chart's directions are independent, with room for roundoff.

        Then each member has one coefficient vector, which the normal
        equations D^T D t = D^T r recover, so a fit that misses x proves x is
        not a member.  Decided on the first call by ``polyhedra._svd_rank``'s
        rule on the singular values of the k x k matrix D^T D, with
        rcond = sqrt(eps) to clear the roundoff of forming it; so cond(D) is
        below eps^(-1/4), about 1e4.  More directions than the dimension are
        dependent.  No n x k factorization is taken: with BLAS threads on a
        2-CPU Xeon, an SVD of 200 x 50 stalled for about 50 ms.
        """
        if self._independent is None:
            n, k = self._D.shape
            gram = self._D.T @ self._D
            # a 1 x 1 Gram matrix is its own singular value
            s = np.linalg.svd(gram, compute_uv=False) if k > 1 else gram.ravel()
            self._independent = k <= n and _rank(s, gram.shape, _GRAM_RCOND) == k
        return self._independent

    @functools.cached_property
    def _polar(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Extreme rays and lineality of {c : R c <= 0}, the Euclidean polar of cone(R).

        With c_k = mu_k phi_k the weighted constraints <phi, r_i> <= 0 become
        plain dot products dot(c, r_i) <= 0, and so does the pairing against
        any primal vector; the weights cancel end to end, so this one polar
        serves both dual cones.  Computed on first use and kept.
        """
        return polar_cone_generators(self.R)

    def _sum_weight(self, x: PrimalVec) -> float:
        # weight of the simplex's sum row in a fit of x: on the scale of x and the set
        return max(1.0, float(np.linalg.norm(x.coords)), self._scale())

    def support(self, psi: DualVec, tol: float = 0.0) -> float:
        self._check_functional(psi)
        if self._escapes(*self._unit_pairings(psi), tol):
            return math.inf
        return max(self.space.pairing(psi.coords, v) for v in self.V)

    def _unit_pairings(self, psi: DualVec) -> tuple[list[float], list[float]]:
        """<psi, d> / (|psi| |d|) in Euclidean norms, for each ray and each lineality direction."""
        pairing = self.space.pairing
        npsi = float(np.linalg.norm(psi.coords))

        def unit_pair(d: np.ndarray) -> float:
            nd = float(np.linalg.norm(d))
            return pairing(psi.coords, d) / (npsi * nd) if npsi * nd > 0.0 else 0.0

        return [unit_pair(r) for r in self.R], [unit_pair(l) for l in self.L]

    @staticmethod
    def _escapes(ray_pairs: list[float], line_pairs: list[float], tol: float) -> bool:
        """True when a ray pairs above tol, or a lineality direction off it: psi is unbounded above.

        The one tolerance rule for directions, shared by ``support`` and
        ``faces.face``: unit pairings within tol of zero count as zero.
        """
        return any(d > tol for d in ray_pairs) or any(abs(d) > tol for d in line_pairs)

    def sample(self, count: int, seed: int = 0) -> list[PrimalVec]:
        rng = np.random.default_rng(seed)
        shape = (count, self._lo.size)
        if self._simplex:
            coeffs = rng.dirichlet(np.ones(shape[1]), size=count)
        elif np.all(np.isfinite(self._hi)):  # a segment's edge
            coeffs = rng.uniform(0.0, 1.0, shape)
        else:
            coeffs = 10.0 ** rng.uniform(-2.0, 2.0, shape)
            if np.all(np.isinf(self._lo)):
                coeffs *= rng.choice([-1.0, 1.0], shape)
        return [self.space.point(self._base + self._D @ c) for c in coeffs]

    def is_pointed(self, tol: float = 1e-9) -> bool:
        """True when the set contains no full line.

        A nontrivial nonnegative combination sum t_i r_i = 0 exists iff
        -r_j lies in the cone of the rays for some j (move the j-th term
        across the equation), so checking each negated ray decides
        pointedness exactly once the lineality is empty.  The fit is
        judged relative to the ray's length, so scaling the set does not
        change the answer.
        """
        if len(self.L):
            return False
        for r in self.R:
            _, resid = _nnls(self.R.T, -r)
            if resid <= tol * float(np.linalg.norm(r)):
                return False
        return True

    def _scale(self) -> float:
        return self._extent


class Segment(_Polyhedral):
    """The segment [a, b] between two distinct points."""

    def __init__(self, a: PrimalVec, b: PrimalVec):
        a, b = _as_points([a, b], "segment endpoints")
        if np.array_equal(a.coords, b.coords):
            raise ValueError("segment endpoints must be distinct")
        self.a = a
        self.b = b
        super().__init__(a.space, [a.coords, b.coords], [], [])

    def __repr__(self):
        return f"Segment({self.a!r}, {self.b!r})"


class Ray(_Polyhedral):
    """The half line {vertex + t * direction : t >= 0}."""

    def __init__(self, vertex: PrimalVec, direction: PrimalVec):
        vertex, direction = _as_points([vertex, direction], "ray data")
        if np.all(direction.coords == 0.0):
            raise ValueError("ray direction must be nonzero")
        self.vertex = vertex
        self.direction = direction
        super().__init__(vertex.space, [vertex.coords], [direction.coords], [])

    def __repr__(self):
        return f"Ray({self.vertex!r}, {self.direction!r})"


class Line(_Polyhedral):
    """The full line {point + t * direction : t real}."""

    def __init__(self, point: PrimalVec, direction: PrimalVec):
        point, direction = _as_points([point, direction], "line data")
        if np.all(direction.coords == 0.0):
            raise ValueError("line direction must be nonzero")
        self.point = point
        self.direction = direction
        super().__init__(point.space, [point.coords], [], [direction.coords])

    def __repr__(self):
        return f"Line({self.point!r}, {self.direction!r})"


class FinitelyGeneratedCone(_Polyhedral):
    """{vertex + sum_i t_i g_i : t_i >= 0} for nonzero generators g_i."""

    def __init__(self, vertex: PrimalVec, generators: Sequence[PrimalVec]):
        generators = _as_points(generators, "generators")
        vertex, = _as_points([vertex], "vertex")
        if vertex.space != generators[0].space:
            raise ValueError("vertex and generators must share one space")
        for g in generators:
            if np.all(g.coords == 0.0):
                raise ValueError("generators must be nonzero")
        self.vertex = vertex
        self.generators = generators
        super().__init__(vertex.space, [vertex.coords], [g.coords for g in generators], [])

    def __repr__(self):
        return f"FinitelyGeneratedCone({self.vertex!r}, {len(self.generators)} generators)"


class Polytope(_Polyhedral):
    """Convex hull of finitely many vertices."""

    def __init__(self, vertices: Sequence[PrimalVec]):
        self.vertices = _as_points(vertices, "vertices")
        space = self.vertices[0].space
        super().__init__(space, [v.coords for v in self.vertices], [], [])

    def __repr__(self):
        return f"Polytope({len(self.vertices)} vertices)"


class Ball(ConvexSet):
    """The closed norm ball {x : ||x|| <= r} centered at the origin."""

    def __init__(self, space: LpSpace, radius: float):
        radius = float(radius)
        if not (radius > 0.0 and math.isfinite(radius)):
            raise ValueError("radius must be positive and finite")
        self.space = space
        self.radius = radius

    def distance(self, x: PrimalVec) -> float:
        self._check_point(x)
        return max(0.0, self.space.norm_of(x.coords) - self.radius)

    def support(self, psi: DualVec, tol: float = 0.0) -> float:
        self._check_functional(psi)
        level = psi.space.norm_of(psi.coords)
        return self.radius * level if level > tol else 0.0

    def sample(self, count: int, seed: int = 0) -> list[PrimalVec]:
        rng = np.random.default_rng(seed)
        pts = []
        for _ in range(count):
            g = rng.standard_normal(self.space.n)
            nrm = self.space.norm_of(g)
            if nrm == 0.0:
                pts.append(self.space.zero())
                continue
            pts.append(self.space.point(self.radius * rng.random() * g / nrm))
        return pts

    def _scale(self) -> float:
        return self.radius

    def __repr__(self):
        return f"Ball({self.space!r}, r={self.radius:g})"


class Subspace(_Polyhedral):
    """Linear span of an independent basis (possibly empty: the origin)."""

    def __init__(self, space: LpSpace, basis: Sequence[PrimalVec] = ()):
        basis = tuple(basis)
        if basis:
            basis = _as_points(basis, "basis")
            if basis[0].space != space:
                raise ValueError("basis must live in the given space")
            if np.linalg.matrix_rank(np.stack([b.coords for b in basis], axis=1)) < len(basis):
                raise ValueError("basis vectors must be linearly independent")
        self.basis = basis
        super().__init__(space, [np.zeros(space.n)], [], [b.coords for b in basis])

    def dim(self) -> int:
        return len(self.basis)

    def __repr__(self):
        return f"Subspace(dim={self.dim()}, n={self.space.n})"
