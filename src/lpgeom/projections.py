"""Metric and generalized projections onto closed convex sets.

The metric projection minimizes ||x - u||^2 over the set; the
generalized projection minimizes the Lyapunov functional
V(psi, u) = ||psi||^2 - 2 <psi, u> + ||u||^2 over it.  Both are single
valued for p in (1, oo).  Solutions are certified through the
variational characterizations

    metric:       <J(x - u), u - z> >= 0   for all z in C,
    generalized:  <psi - J(u), u - z> >= 0 for all z in C,

whose worst violation over the set reduces to finitely many pairings
(vertices, and rays and lineality directions per unit coefficient, or
the ball's support function).  A nonpositive residual certifies optimality.

Solver strategy: both projections minimize ||u - c||^2 - 2 <ell, u> plus
a constant, with c = x, ell = 0 (metric) or c = 0, ell = psi
(generalized).  Balls take a closed form; a set with one chart direction
on an interval takes derivative-sign bisection with doubling bracket
expansion; every other set takes one projected Newton loop on its chart
coefficients, with the exact Hessian of the squared norm and a projected
gradient fallback.  That loop keeps the method label "projected-gradient",
which reports and the result schema read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sets import NONNEGATIVE, SIMPLEX, UNIT_INTERVAL, UNRESTRICTED, Ball, ConvexSet
from .spaces import DualVec, PrimalVec, duality_map, duality_map_inv, lyapunov, norm, pair

__all__ = [
    "SolverOptions",
    "ProjectionResult",
    "metric_project",
    "generalized_project",
    "vi_residual_metric",
    "vi_residual_generalized",
    "inverse_image_member_metric",
]

_BRACKET_BOUND = 1e8

# Armijo backtracking along the projection arc: step shrink factor, sufficient
# decrease slope, and the most shrinks tried per direction
_ARMIJO_SHRINK = 0.5
_ARMIJO_SLOPE = 1e-4
_MAX_SHRINKS = 60
# relative roundoff of the objective, below which a step counts as flat
_ROUNDOFF = 1e-14
# coefficients within this distance of their bound may be held there
_ACTIVE_WIDTH = 1e-3


@dataclass(frozen=True)
class SolverOptions:
    """Iteration and tolerance knobs shared by both projections.

    ``max_iters`` caps the accepted steps of the coefficient loop, which
    stops early once the unit-step gradient mapping is at most
    ``grad_tol * (1 + ||t||)``.  ``vi_tol`` is the certificate threshold
    on the VI residual, and ``collect_trace`` records the objective after
    each accepted step.
    """

    max_iters: int = 10000
    grad_tol: float = 1e-10
    vi_tol: float = 1e-6
    collect_trace: bool = False

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        for name in ("grad_tol", "vi_tol"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class ProjectionResult:
    """A projection candidate with its optimality certificate.

    ``vi_residual`` is the worst violation of the variational inequality
    over the set (nonpositive up to roundoff at the true projection);
    ``converged`` is True only when the residual passes the vi tolerance.
    ``iterations`` counts accepted steps on the coefficient route, bracket
    doublings and bisection steps on the one-direction route, and 0 for
    closed forms.  ``trace`` holds accepted objective values when trace
    collection is on.
    """

    point: PrimalVec
    objective: float
    vi_residual: float
    iterations: int
    converged: bool
    method: str
    trace: tuple[float, ...] | None = None


def _require_smooth(space):
    if not (1.0 < space.p < math.inf):
        raise ValueError("projections require a space exponent in (1, oo)")


def _project_simplex(v: np.ndarray) -> np.ndarray:
    # Euclidean projection onto {t >= 0, sum t = 1}, by sorting.
    u = np.sort(v)[::-1]
    cssv = np.cumsum(u) - 1.0
    k = np.arange(1, v.size + 1)
    rho = int(np.nonzero(u * k > cssv)[0][-1])
    theta = cssv[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _coefficient_projector(feasible: str) -> Callable[[np.ndarray], np.ndarray]:
    if feasible == NONNEGATIVE:
        return lambda t: np.maximum(t, 0.0)
    if feasible == SIMPLEX:
        return _project_simplex
    if feasible == UNRESTRICTED:
        return lambda t: t
    if feasible == UNIT_INTERVAL:
        return lambda t: np.clip(t, 0.0, 1.0)
    raise ValueError(f"unknown coefficient domain {feasible!r}")


def _bisect_derivative(dphi, lo: float, hi: float) -> tuple[float, int]:
    """Root of an increasing derivative on [lo, hi] with dphi(lo) <= 0 <= dphi(hi)."""
    iters = 0
    for _ in range(200):
        if (hi - lo) <= 1e-15 * (1.0 + abs(lo) + abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        iters += 1
        if dphi(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), iters


def _minimize_1d(dphi, feasible: str) -> tuple[float, int, bool]:
    """Minimize a differentiable convex function along one coefficient.

    Returns (t, iterations, bracketed); ``bracketed`` is False when the
    doubling bracket expansion hits the 1e8 bound without a derivative
    sign change, which is reported as non-convergence upstream.
    """
    if feasible == UNIT_INTERVAL:
        if dphi(0.0) >= 0.0:
            return 0.0, 0, True
        if dphi(1.0) <= 0.0:
            return 1.0, 0, True
        t, iters = _bisect_derivative(dphi, 0.0, 1.0)
        return t, iters, True

    if feasible == NONNEGATIVE:
        if dphi(0.0) >= 0.0:
            return 0.0, 0, True
        hi, iters = 1.0, 0
        while dphi(hi) < 0.0:
            hi *= 2.0
            iters += 1
            if hi > _BRACKET_BOUND:
                return hi, iters, False
        t, it2 = _bisect_derivative(dphi, hi / 2.0 if hi > 1.0 else 0.0, hi)
        return t, iters + it2, True

    # unrestricted line
    lo, hi, iters = -1.0, 1.0, 0
    while dphi(lo) > 0.0:
        lo *= 2.0
        iters += 1
        if -lo > _BRACKET_BOUND:
            return lo, iters, False
    while dphi(hi) < 0.0:
        hi *= 2.0
        iters += 1
        if hi > _BRACKET_BOUND:
            return hi, iters, False
    t, it2 = _bisect_derivative(dphi, lo, hi)
    return t, iters + it2, True


def _model_step(H: np.ndarray, rhs: np.ndarray, full_rank: bool) -> np.ndarray:
    if full_rank:
        try:
            return np.linalg.solve(H, rhs)
        except np.linalg.LinAlgError:
            pass
    return np.linalg.lstsq(H, rhs, rcond=None)[0]


def _arc_search(f_t, grad_t, project, t, fval, g, gap, d, step, flat):
    """Armijo backtracking along the projection arc s -> P(t + s d).

    Returns (t, f, g, gap) at the accepted point, or None when no step is
    accepted.  Within ``flat`` of f the objective is at roundoff: there a
    decrease proves nothing, and a step is accepted only when it halves
    the gradient mapping, which still measures progress.
    """
    for _ in range(_MAX_SHRINKS):
        cand = project(t + step * d)
        delta = cand - t
        if not np.any(delta):
            return None
        fc = f_t(cand)
        armijo = fc < fval - flat and fc <= fval + _ARMIJO_SLOPE * float(np.dot(g, delta))
        if armijo or fc <= fval + flat:
            gc = grad_t(cand)
            gap_c = float(np.linalg.norm(cand - project(cand - gc)))
            if armijo or gap_c <= 0.5 * gap:
                return cand, fc, gc, gap_c
        step *= _ARMIJO_SHRINK
    return None


def _solve_parameterized(C: ConvexSet, c: np.ndarray, ell: np.ndarray, opts: SolverOptions):
    """Minimize F(u) = ||u - c||^2 - 2 <ell, u> + ||ell||_*^2 over C on its chart.

    Projected Newton (Bertsekas 1982) on the coefficients t, from the
    weighted least-squares fit of the unconstrained minimizer c + J*(ell):
    coefficients at their bound whose gradient pushes outward go to the
    bound, and the free block takes a Newton step with the exact Hessian
    D^T (diag(h) + beta a a^T) D, bordered by the sum constraint on the
    simplex.  Returns the point, F there, the accepted steps, the trace
    and the method label.
    """
    space = C.space
    pm = C.parameterize()
    base = pm.base.coords
    D = pm.direction_matrix()
    w = space.weights
    wl = w * ell
    ell_sq = space.dual().norm_of(ell) ** 2

    def f_t(t):
        u = base + D @ t
        return space.norm_of(u - c) ** 2 - 2.0 * float(np.dot(wl, u)) + ell_sq

    def grad_t(t):
        return D.T @ (2.0 * (w * space.jmap(base + D @ t - c) - wl))

    if D.shape[1] == 1 and pm.feasible in (UNIT_INTERVAL, NONNEGATIVE, UNRESTRICTED):
        dphi = lambda t: float(grad_t(np.array([t]))[0])
        t, iters, _ = _minimize_1d(dphi, pm.feasible)
        tvec = np.array([t])
        return base + D @ tvec, f_t(tvec), iters, None, "one-dimensional"

    project = _coefficient_projector(pm.feasible)
    simplex = pm.feasible == SIMPLEX
    # the reduced Hessian has rank at most n, and its bordered form at most
    # n + 2; larger systems are singular
    rank_cap = space.n + 2 if simplex else space.n
    data_sq = space.norm_of(c) ** 2 + ell_sq
    sw = np.sqrt(w)
    warm = c + space.dual().jmap(ell)
    t0, *_ = np.linalg.lstsq(sw[:, None] * D, sw * (warm - base), rcond=None)
    t = project(t0)
    fval, g = f_t(t), grad_t(t)
    gap = float(np.linalg.norm(t - project(t - g)))
    trace = [fval] if opts.collect_trace else None
    iters = 0
    while iters < opts.max_iters and gap > opts.grad_tol * (1.0 + np.linalg.norm(t)):
        h, beta, a = space.sqnorm_hessian(base + D @ t - c)
        Da = D.T @ a
        hess = D.T @ (h[:, None] * D) + beta * np.outer(Da, Da)
        # Bertsekas's active set: coefficients near their bound whose gradient
        # pushes outward; on the simplex the gradient is level across the
        # support at the optimum, so "outward" is measured from that level
        near = (t <= min(gap, _ACTIVE_WIDTH)) & (pm.feasible != UNRESTRICTED)
        support = t > gap
        level = float(np.mean(g[support])) if simplex and support.any() else 0.0
        active = near & (g > level)
        while True:
            free = ~active
            H = hess[np.ix_(free, free)]
            rhs = -g[free]
            if simplex:
                k = rhs.size
                H = np.block([[H, np.ones((k, 1))], [np.ones((1, k)), np.zeros((1, 1))]])
                rhs = np.append(rhs, np.sum(t[active]))
            newton = -t  # active coefficients go to their bound
            newton[free] = _model_step(H, rhs, rhs.size <= rank_cap)[: free.sum()]
            # a free coefficient at its bound that the step pushes outward is held there
            blocked = free & near & (newton < 0.0)
            if not blocked.any():
                break
            active |= blocked
        curv = float(g @ hess @ g)
        cauchy = float(np.dot(g, g)) / curv if curv > 0.0 else 1.0
        flat = _ROUNDOFF * (abs(fval) + data_sq)
        for d, step in ((newton, 1.0), (-g, cauchy)):
            if float(np.dot(g, d)) < 0.0:
                moved = _arc_search(f_t, grad_t, project, t, fval, g, gap, d, step, flat)
                if moved is not None:
                    t, fval, g, gap = moved
                    break
        else:
            break  # neither direction descends at working precision
        iters += 1
        if trace is not None:
            trace.append(fval)
    return base + D @ t, fval, iters, trace, "projected-gradient"


def _ball_projection(C: ConvexSet, y: PrimalVec, by) -> PrimalVec | None:
    """Closed form onto a ball: y, pulled in radially when ``by`` is longer than the radius.

    None when C is not a ball.
    """
    if not isinstance(C, Ball):
        return None
    level = norm(by)
    return y if level <= C.radius else (C.radius / level) * y


def metric_project(C: ConvexSet, x: PrimalVec, opts: SolverOptions | None = None) -> ProjectionResult:
    """Nearest point of C to x in the space's norm, with a VI certificate."""
    opts = opts or SolverOptions()
    space = C.space
    _require_smooth(space)
    C._check_point(x)

    u = _ball_projection(C, x, x)
    if u is not None:
        res = vi_residual_metric(C, x, u)
        return ProjectionResult(
            point=u,
            objective=space.norm_of(x.coords - u.coords) ** 2,
            vi_residual=res,
            iterations=0,
            converged=res <= opts.vi_tol,
            method="closed-form",
        )

    # a member is its own projection: <J(x - x), x - z> = 0 holds exactly
    if C.contains(x, 1e-12 * (1.0 + float(np.max(np.abs(x.coords))))):
        res = vi_residual_metric(C, x, x)
        return ProjectionResult(
            point=x,
            objective=0.0,
            vi_residual=res,
            iterations=0,
            converged=res <= opts.vi_tol,
            method="closed-form",
        )

    u_arr, fval, iters, trace, method = _solve_parameterized(C, x.coords, np.zeros(space.n), opts)
    u = space.point(u_arr)
    res = vi_residual_metric(C, x, u)
    return ProjectionResult(
        point=u,
        objective=fval,
        vi_residual=res,
        iterations=iters,
        converged=bool(res <= opts.vi_tol),
        method=method,
        trace=None if trace is None else tuple(trace),
    )


def generalized_project(C: ConvexSet, psi: DualVec, opts: SolverOptions | None = None) -> ProjectionResult:
    """Minimizer of V(psi, .) over C, with a VI certificate."""
    opts = opts or SolverOptions()
    space = C.space
    _require_smooth(space)
    if not psi.space.is_dual_of(space):
        raise ValueError("functional does not pair with this set's space")

    inv = duality_map_inv(psi)
    y = _ball_projection(C, inv, psi)
    if y is not None:
        res = vi_residual_generalized(C, psi, y)
        return ProjectionResult(
            point=y,
            objective=lyapunov(psi, y),
            vi_residual=res,
            iterations=0,
            converged=res <= opts.vi_tol,
            method="closed-form",
        )

    # when the inverse duality image lies in C the bracket bottoms out there
    if C.contains(inv, 1e-12 * (1.0 + float(np.max(np.abs(inv.coords))))):
        res = vi_residual_generalized(C, psi, inv)
        if res <= opts.vi_tol:
            return ProjectionResult(
                point=inv,
                objective=lyapunov(psi, inv),
                vi_residual=res,
                iterations=0,
                converged=True,
                method="closed-form",
            )

    u_arr, fval, iters, trace, method = _solve_parameterized(C, np.zeros(space.n), psi.coords, opts)
    y = space.point(u_arr)
    res = vi_residual_generalized(C, psi, y)
    return ProjectionResult(
        point=y,
        objective=fval,
        vi_residual=res,
        iterations=iters,
        converged=bool(res <= opts.vi_tol),
        method=method,
        trace=None if trace is None else tuple(trace),
    )


def _vi_reduction(C: ConvexSet, phi: DualVec, u: PrimalVec) -> float:
    """Worst violation of <phi, u - z> >= 0 over z in C.

    The bounded part reduces to the vertices.  For recession directions
    the violation is reported per unit coefficient, so unbounded sets
    yield finite certificates: max(<phi, r>) over rays and |<phi, l>|
    over lineality directions replace the unbounded supremum.
    """
    if isinstance(C, Ball):
        return C.radius * norm(phi) - pair(phi, u)
    pairing = C.space.pairing
    return max(
        [pairing(phi.coords, v - u.coords) for v in C.V]
        + [pairing(phi.coords, r) for r in C.R]
        + [abs(pairing(phi.coords, l)) for l in C.L]
    )


def vi_residual_metric(C: ConvexSet, x: PrimalVec, u: PrimalVec, membership_tol: float = 1e-6) -> float:
    """Certificate for u = metric projection of x: nonpositive iff certified.

    Raises when u is not a member of C within ``membership_tol``.
    """
    _require_smooth(C.space)
    if not C.contains(u, membership_tol):
        raise ValueError("candidate projection is not a member of the set")
    return _vi_reduction(C, duality_map(x - u), u)


def vi_residual_generalized(C: ConvexSet, psi: DualVec, y: PrimalVec, membership_tol: float = 1e-6) -> float:
    """Certificate for y = generalized projection of psi onto C."""
    _require_smooth(C.space)
    if not C.contains(y, membership_tol):
        raise ValueError("candidate projection is not a member of the set")
    return _vi_reduction(C, psi - duality_map(y), y)


def inverse_image_member_metric(
    C: ConvexSet, y: PrimalVec, x: PrimalVec, opts: SolverOptions | None = None
) -> bool:
    """True when x projects metrically onto the member y of C.

    Decided by the exact VI reduction, not by running the solver.
    """
    opts = opts or SolverOptions()
    return vi_residual_metric(C, x, y) <= opts.vi_tol
