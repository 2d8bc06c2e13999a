"""Closed convex point sets, each answering every question asked of it.

Seven set types cover the geometry the projection and face machinery
needs: segments, rays, lines, finitely generated cones, polytopes,
norm balls centered at the origin, and linear subspaces.  All but the
ball share one polyhedral description, conv(V) + cone(R) + span(L), on
which every set operation is written once.  Membership is decided by
closed-form or least-squares coefficient fits measured in the Euclidean
coefficient sense; support functions are closed form.  Each set also
answers what the projections and faces ask of it: its closed-form
projection if it has one, the worst violation of a variational
inequality, the face of a functional, and a supporting functional at a
member.  This is the one module that tells the set types apart.  Each
polyhedral set reads from (V, R, L) the affine chart the projection
solver works on: base + D t, with per-coefficient bounds lo <= t <= hi,
or the probability simplex over the vertices.  It forms the solver's
constants for that chart on the first projection and keeps them
(``_Polyhedral._chart``).
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .polyhedra import _nnls, _null_space, _polar_rows, _rank
from .spaces import DualVec, LpSpace, PrimalVec, duality_map, duality_map_inv

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


def _project_simplex(v: np.ndarray) -> np.ndarray:
    # Euclidean projection onto {t >= 0, sum t = 1}, by sorting.
    u = np.sort(v)[::-1]
    cssv = np.cumsum(u) - 1.0
    k = np.arange(1, v.size + 1)
    rho = int(np.nonzero(u * k > cssv)[0][-1])
    theta = cssv[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


class _SolverChart(NamedTuple):
    """What the projection solver reads from a polyhedral set's chart u = base + D t."""

    sqrt_weights: np.ndarray  # sqrt(w)
    A: np.ndarray  # sqrt(w) D: a Euclidean fit in A is the weighted fit in D
    gram: np.ndarray  # A^T A, the matrix of that fit's k x k normal equations
    clamp: Callable[[np.ndarray], np.ndarray]  # Euclidean projection onto the coefficient domain
    independent: bool  # _Polyhedral._independent_directions


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
        of zero is flat.  A ball has none, so its support is exact.
        """
        raise NotImplementedError

    def _closed_form(self, y: PrimalVec, data) -> PrimalVec | None:
        """The projection in closed form, or None when the set has none.

        y is the unconstrained minimizer (x, or J*(psi)), and ``data`` the
        x or psi it came from, whose norm is the norm of y.
        """
        return None

    def _vi_violation(self, phi: DualVec, u: PrimalVec) -> float:
        """Worst violation of <phi, u - z> >= 0 over z in the set."""
        raise NotImplementedError

    def _face(self, psi: DualVec, tol: float) -> tuple:
        """(level, kind, representatives, gaps) of the face of psi, as ``faces.face`` reports it."""
        raise NotImplementedError

    def _supporting_functional(self, y: PrimalVec, tol: float) -> tuple[DualVec | None, str]:
        """A nonzero functional whose face holds the member y, or None when y is internal; and the method."""
        raise NotImplementedError

    def sample(self, count: int, seed: int = 0) -> list[PrimalVec]:
        """Deterministic members; unbounded coefficients are log-uniform in [1e-2, 1e2]."""
        raise NotImplementedError

    def _scale(self) -> float:
        raise NotImplementedError

    def _slack(self, x: PrimalVec, tol: float) -> float:
        """The distance ``contains`` allows: tol scaled by the sizes of x and the set."""
        return tol * (1.0 + math.sqrt(float(x.coords.dot(x.coords))) + self._scale())

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
        self._lengths = np.linalg.norm(self._rows[nv:], axis=1)  # of the rays and lineality directions
        self._extent = float(np.max(np.linalg.norm(self.V, axis=1)) + np.max(self._lengths, initial=0.0))

    @functools.cached_property
    def _chart(self) -> _SolverChart:
        """The constants the projection solver reads from the chart, formed on first use and kept."""
        sw = np.sqrt(self.space.weights)
        A = sw[:, None] * self._D
        return _SolverChart(sw, A, A.T @ A, self._domain_clamp(), self._independent_directions())

    def _domain_clamp(self) -> Callable[[np.ndarray], np.ndarray]:
        """Euclidean projection onto the coefficient domain: the simplex, or the box [lo, hi].

        The box is read from the one kind of column the chart has: free
        lineality coefficients (or none) pass as they are, ray coefficients
        are floored at 0, and an edge's coefficient is held in [0, 1].
        Each form returns the bits of min(max(t, lo), hi).
        """
        if self._simplex:
            return _project_simplex
        if not np.isfinite(self._lo).any():
            return lambda t: t
        if np.isfinite(self._hi).any():
            return lambda t: np.minimum(np.maximum(t, 0.0), 1.0)
        return lambda t: np.maximum(t, 0.0)

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
        if not ((t >= self._lo) & (t <= self._hi)).all():
            return False
        miss = self._D @ t - (x.coords - self._base)
        res = math.sqrt(float(miss.dot(miss)))
        if self._simplex:
            res = math.hypot(res, self._sum_weight(x) * (float(np.sum(t)) - 1.0))
        return res <= self._slack(x, tol)

    def _independent_directions(self) -> bool:
        """True when the chart's directions are independent, with room for roundoff.

        Then each member has one coefficient vector, which the normal
        equations D^T D t = D^T r recover, so a fit that misses x proves x is
        not a member.  Decided once per set, when ``_chart`` is formed, by
        ``polyhedra._svd_rank``'s rule on the singular values of the k x k
        matrix D^T D (at k = 1, on its one entry), with
        rcond = sqrt(eps) to clear the roundoff of forming it; so cond(D) is
        below eps^(-1/4), about 1e4.  More directions than the dimension are
        dependent.  No n x k factorization is taken: with BLAS threads on a
        2-CPU Xeon, an SVD of 200 x 50 stalled for about 50 ms.
        """
        n, k = self._D.shape
        if k > n:
            return False
        if k == 0:
            return True
        gram = self._D.T @ self._D
        if k == 1:
            # a 1 x 1 Gram matrix is its own singular value, and _rank's rule on it is this
            g = float(gram[0, 0])
            return g > g * _GRAM_RCOND
        return _rank(np.linalg.svd(gram, compute_uv=False), gram.shape, _GRAM_RCOND) == k

    @functools.cached_property
    def _polar(self) -> np.ndarray:
        """Generators of {c : R c <= 0}, the Euclidean polar of cone(R), one per row.

        The rows are the extreme rays, then +b and -b for each lineality
        vector b, so the polar is their nonnegative combinations and a
        test against all of it is one product with this matrix.  With
        c_k = mu_k phi_k the weighted constraints <phi, r_i> <= 0 become
        plain dot products dot(c, r_i) <= 0, and so does the pairing against
        any primal vector; the weights cancel end to end, so this one polar
        serves both dual cones.  Computed on first use and kept.
        """
        return _polar_rows(self.R)

    def _sum_weight(self, x: PrimalVec) -> float:
        # weight of the simplex's sum row in a fit of x: on the scale of x and the set
        return max(1.0, float(np.linalg.norm(x.coords)), self._scale())

    def support(self, psi: DualVec, tol: float = 0.0) -> float:
        self._check_functional(psi)
        vals, rays, lines = self._pairings(psi)
        return math.inf if self._escapes(rays, lines, tol) else float(np.max(vals))

    def _pairings(self, psi: DualVec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """<psi, v> per vertex, and <psi, d> / (|psi| |d|) in Euclidean norms per ray and lineality direction.

        One product of the stacked rows with w psi gives them all.
        """
        vals = self._rows @ (self.space.weights * psi.coords)
        nv, nr = len(self.V), len(self.R)
        denom = float(np.linalg.norm(psi.coords)) * self._lengths
        unit = np.divide(vals[nv:], denom, out=np.zeros(denom.size), where=denom > 0.0)
        return vals[:nv], unit[:nr], unit[nr:]

    @staticmethod
    def _escapes(rays: np.ndarray, lines: np.ndarray, tol: float) -> bool:
        """psi is unbounded above: a ray's unit pairing exceeds tol, or a lineality direction's |pairing| does."""
        return bool(np.any(rays > tol) or np.any(np.abs(lines) > tol))

    def _vi_violation(self, phi: DualVec, u: PrimalVec) -> float:
        """Over the vertices; per unit coefficient along rays and lineality, so it stays finite.

        max <phi, r> over rays and |<phi, l>| over lineality directions
        replace the unbounded supremum.
        """
        wphi = self.space.weights * phi.coords
        vals = self._rows @ wphi
        nv, nr = len(self.V), len(self.R)
        vals[:nv] -= float(wphi.dot(u.coords))
        if len(self.L):
            vals[nv + nr:] = np.abs(vals[nv + nr:])
        return float(vals.max())

    def _face(self, psi: DualVec, tol: float) -> tuple:
        """As ``faces.face`` states it; a vertex within tol (1 + max |<psi, v>|) of the level is on it."""
        vals, rays, lines = self._pairings(psi)
        level = float(np.max(vals))
        slack = (level - vals).tolist() if len(vals) > 1 else []
        gaps = tuple(slack + rays.tolist() + lines.tolist())
        if self._escapes(rays, lines, tol):
            return math.inf, "empty", (), gaps
        hit = level - vals <= tol * (1.0 + float(np.max(np.abs(vals))))
        hits, flat = self.V[hit], np.vstack([self.R[np.abs(rays) <= tol], self.L])
        if hit.all() and len(flat) == len(self.R) + len(self.L):
            kind = "whole-set"
        elif len(hits) == 1 and not len(flat):
            kind = "singleton"
        else:
            kind = "vertex-subset"
        point = self.space.point
        return level, kind, tuple([point(v) for v in hits] + [point(hits[0] + d) for d in flat]), gaps

    def _supporting_functional(self, y: PrimalVec, tol: float) -> tuple[DualVec | None, str]:
        """Linear algebra on the unit difference rows W at y.

        A nonzero c with W c <= 0 supports the set at y.  A null vector of
        W is one.  Otherwise W has full column rank, and W c <= 0 has a
        nonzero solution iff no lam > 0 has W^T lam = 0 (Stiemke), iff
        b = -sum_j W_j is not in the cone of the rows.  When the fit of b
        misses, its residual is a solution: the fit's optimality
        conditions give W (b - W^T lam) <= 0.
        """
        space, yc = self.space, y.coords
        # psi supports the set at y iff <psi, w> <= 0 for each w; lineality enters with both signs
        W = np.vstack([self.V - yc, self.R, np.stack([self.L, -self.L], axis=1).reshape(-1, space.n)])
        # one norm per row, as a vector norm: on a null space of dimension > 1
        # the witness picked depends on the last bit of W
        lengths = np.array([np.linalg.norm(w) for w in W])
        keep = lengths > 1e-12 * (1.0 + float(np.linalg.norm(yc)))
        if not keep.any():
            # the set is the single point y; any nonzero functional supports it
            c, method = np.eye(space.n)[0], "null-space"
        else:
            W = W[keep] / lengths[keep, None]
            N = _null_space(W, rcond=1e-12)
            if N.shape[1] > 0:
                c, method = N[:, 0], "null-space"
            else:
                b = -W.sum(axis=0)
                lam, rho = _nnls(W.T, b)
                if rho <= 1e-9 * (1.0 + float(np.linalg.norm(b))):
                    return None, "least-squares"
                c, method = b - W.T @ lam, "least-squares"
            c = c / np.linalg.norm(c)
        return DualVec(space.dual(), c / space.weights), method

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
        return self.radius * psi.space.norm_of(psi.coords)

    def _closed_form(self, y: PrimalVec, data) -> PrimalVec:
        """y, pulled in radially when the data is longer than the radius."""
        level = data.space.norm_of(data.coords)
        return y if level <= self.radius else (self.radius / level) * y

    def _vi_violation(self, phi: DualVec, u: PrimalVec) -> float:
        """The support function, radius times the dual norm, less <phi, u>."""
        return self.radius * phi.space.norm_of(phi.coords) - self.space.pairing(phi.coords, u.coords)

    def _face(self, psi: DualVec, tol: float) -> tuple:
        """Only psi = 0 has the whole ball as its face; ``tol``, relative, decides the ties of p = 1."""
        space, r = self.space, self.radius
        level = psi.space.norm_of(psi.coords)  # the dual norm: sup norm at p = 1, weighted l_1 at oo
        if level == 0.0:
            return 0.0, "whole-set", (space.zero(),), ()
        mags = np.abs(psi.coords)
        if space.p == 1.0:
            on = np.nonzero(mags >= level * (1.0 - tol))[0]
            signs = np.sign(psi.coords[on])
            uniform = np.zeros(space.n)
            uniform[on] = (r / on.size) * signs / space.weights[on]
            reps = [space.point(uniform)]
            for i, s in zip(on, signs):
                corner = np.zeros(space.n)
                corner[i] = r * s / space.weights[i]
                reps.append(space.point(corner))
            kind = "singleton" if on.size == 1 else "affine-slice"
            return r * level, kind, tuple(reps), tuple(float(level - m) for m in mags)
        if math.isinf(space.p):
            kind = "singleton" if np.all(mags) else "affine-slice"
            return r * level, kind, (space.point(r * np.sign(psi.coords)),), tuple(mags)
        # smooth range: the argmax is the scaled inverse duality image, alone
        return r * level, "singleton", ((r / level) * duality_map_inv(psi),), ()

    def _supporting_functional(self, y: PrimalVec, tol: float) -> tuple[DualVec | None, str]:
        """Inside the sphere none; on it J(y), or at p = 1 and oo a subgradient of the norm."""
        space, p = self.space, self.space.p
        if space.norm_of(y.coords) < self.radius * (1.0 - 1e-9) - tol:
            return None, "closed-form"
        if 1.0 < p < math.inf:
            return duality_map(y), "closed-form"
        if p == 1.0:
            return DualVec(space.dual(), np.sign(y.coords)), "closed-form"
        i = int(np.argmax(np.abs(y.coords)))
        c = np.zeros(space.n)
        c[i] = math.copysign(1.0, y.coords[i]) / space.weights[i]
        return DualVec(space.dual(), c), "closed-form"

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
