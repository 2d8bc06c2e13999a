"""Closed convex point sets with exact support functions.

Seven set types cover the geometry the projection and face machinery
needs: segments, rays, lines, finitely generated cones, polytopes,
norm balls centered at the origin, and linear subspaces.  All but the
ball share one polyhedral description, conv(V) + cone(R) + span(L), on
which every set operation is written once.  Membership is decided by
closed-form or least-squares coefficient fits measured in the Euclidean
coefficient sense; support functions are closed form; every polyhedral
type can describe itself as an affine parameterization over a standard
coefficient domain.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
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
    "Parameterization",
    "NONNEGATIVE",
    "UNIT_INTERVAL",
    "SIMPLEX",
    "UNRESTRICTED",
]

NONNEGATIVE = "nonnegative-orthant"
UNIT_INTERVAL = "unit-interval"
SIMPLEX = "simplex"
UNRESTRICTED = "unrestricted"

# coefficient range of each one-dimensional domain
_INTERVALS = {UNIT_INTERVAL: (0.0, 1.0), NONNEGATIVE: (0.0, math.inf), UNRESTRICTED: (-math.inf, math.inf)}
# rank rule of a Gram matrix D^T D: its entries carry roundoff of order eps max(D^T D)
_GRAM_RCOND = math.sqrt(float(np.finfo(float).eps))


@dataclass(frozen=True)
class Parameterization:
    """Affine chart u(t) = base + sum_i t_i d_i over a coefficient domain."""

    base: PrimalVec
    directions: tuple[PrimalVec, ...]
    feasible: str

    def direction_matrix(self) -> np.ndarray:
        if not self.directions:
            return np.zeros((self.base.space.n, 0))
        return np.stack([d.coords for d in self.directions], axis=1)


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

        ``tol`` treats pairings within tol of zero as zero when deciding
        boundedness, so downstream face logic can share one tolerance.
        """
        raise NotImplementedError

    def sample(self, count: int, seed: int = 0) -> list[PrimalVec]:
        """Deterministic members; unbounded coefficients are log-uniform in [1e-2, 1e2]."""
        raise NotImplementedError

    def parameterize(self) -> Parameterization:
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
    The subclasses only build (V, R, L, chart).
    """

    def __init__(self, space: LpSpace, V, R, L, chart: Parameterization):
        self.space = space
        self.V, self.R, self.L = (_frozen_rows(M, space.n) for M in (V, R, L))
        self._chart = chart
        self._D = chart.direction_matrix()
        self._rows = np.vstack([self.V, self.R, self.L])
        reach = np.max(np.linalg.norm(self._rows[len(self.V):], axis=1), initial=0.0)
        self._extent = float(np.max(np.linalg.norm(self.V, axis=1)) + reach)
        self._independent: bool | None = None  # set by _independent_directions on first use

    def distance(self, x: PrimalVec) -> float:
        self._check_point(x)
        r = x.coords - self._chart.base.coords
        D, feasible = self._D, self._chart.feasible
        if D.shape[1] == 1 and feasible in _INTERVALS:
            # one direction on an interval: the fit is a clipped projection
            d = D[:, 0]
            t = np.clip(np.dot(r, d) / np.dot(d, d), *_INTERVALS[feasible])
            return float(np.linalg.norm(r - t * d))
        if feasible == NONNEGATIVE:
            return float(_nnls(D, r)[1])
        if feasible == SIMPLEX:
            # Convex-combination fit: stack the affine constraint sum(c) = 1 as
            # an extra row so one nonnegative least-squares solve handles both.
            # The blended residual vanishes exactly on members.
            rho = self._sum_weight(x)
            A = np.vstack([D, rho * np.ones(D.shape[1])])
            return float(_nnls(A, np.concatenate([r, [rho]]))[1])
        coef, *_ = np.linalg.lstsq(D, r, rcond=None)
        return float(np.linalg.norm(r - D @ coef))

    def _fits(self, x: PrimalVec, t, tol: float) -> bool:
        """True when chart coefficients t witness that x is a member within ``tol``.

        t must lie in the chart's domain (the simplex's sum is judged by the
        residual), and base + D t must reproduce x within the distance that
        ``contains`` allows.  The residual is the one ``distance`` minimizes
        over the domain, sum row included, so distance(x) never exceeds it
        and a pass here implies contains(x, tol).  Nothing is fitted.
        """
        self._check_point(x)
        t = np.asarray(t, dtype=float)
        if t.shape != (self._D.shape[1],):
            raise ValueError(f"a witness needs {self._D.shape[1]} chart coefficients, got shape {t.shape}")
        feasible = self._chart.feasible
        lo, hi = _INTERVALS.get(feasible, (0.0, math.inf))
        if not np.all((t >= lo) & (t <= hi)):
            return False
        res = float(np.linalg.norm(self._D @ t - (x.coords - self._chart.base.coords)))
        if feasible == SIMPLEX:
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
        pairing = self.space.pairing
        if any(pairing(psi.coords, r) > tol for r in self.R):
            return math.inf
        if any(abs(pairing(psi.coords, l)) > tol for l in self.L):
            return math.inf
        return max(pairing(psi.coords, v) for v in self.V)

    def sample(self, count: int, seed: int = 0) -> list[PrimalVec]:
        rng = np.random.default_rng(seed)
        shape = (count, self._D.shape[1])
        feasible = self._chart.feasible
        if feasible == UNIT_INTERVAL:
            coeffs = rng.uniform(0.0, 1.0, shape)
        elif feasible == SIMPLEX:
            coeffs = rng.dirichlet(np.ones(shape[1]), size=count)
        else:
            coeffs = 10.0 ** rng.uniform(-2.0, 2.0, shape)
            if feasible == UNRESTRICTED:
                coeffs *= rng.choice([-1.0, 1.0], shape)
        base = self._chart.base.coords
        return [self.space.point(base + self._D @ c) for c in coeffs]

    def parameterize(self) -> Parameterization:
        return self._chart

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
        chart = Parameterization(a, (a.space.point(b.coords - a.coords),), UNIT_INTERVAL)
        super().__init__(a.space, [a.coords, b.coords], [], [], chart)

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
        chart = Parameterization(vertex, (direction,), NONNEGATIVE)
        super().__init__(vertex.space, [vertex.coords], [direction.coords], [], chart)

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
        chart = Parameterization(point, (direction,), UNRESTRICTED)
        super().__init__(point.space, [point.coords], [], [direction.coords], chart)

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
        chart = Parameterization(vertex, generators, NONNEGATIVE)
        super().__init__(vertex.space, [vertex.coords], [g.coords for g in generators], [], chart)

    def __repr__(self):
        return f"FinitelyGeneratedCone({self.vertex!r}, {len(self.generators)} generators)"


class Polytope(_Polyhedral):
    """Convex hull of finitely many vertices."""

    def __init__(self, vertices: Sequence[PrimalVec]):
        self.vertices = _as_points(vertices, "vertices")
        space = self.vertices[0].space
        chart = Parameterization(space.zero(), self.vertices, SIMPLEX)
        super().__init__(space, [v.coords for v in self.vertices], [], [], chart)

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
        return self.radius * psi.space.norm_of(psi.coords)

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

    def parameterize(self) -> Parameterization:
        raise TypeError("a ball has no affine parameterization; projection onto it is closed form")

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
        chart = Parameterization(space.zero(), basis, UNRESTRICTED)
        super().__init__(space, [np.zeros(space.n)], [], [b.coords for b in basis], chart)

    def dim(self) -> int:
        return len(self.basis)

    def __repr__(self):
        return f"Subspace(dim={self.dim()}, n={self.space.n})"
