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

Solver strategy: closed form for balls; derivative-sign bisection with
doubling bracket expansion on one-parameter sets; projected gradient
with Armijo backtracking on coefficient parameterizations, with an
optional quasi-Newton polish on orthant and unrestricted domains.
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

# Armijo backtracking of projected gradient: step shrink factor, sufficient
# decrease slope, and the first trial step
_ARMIJO_SHRINK = 0.5
_ARMIJO_SLOPE = 1e-4
_INITIAL_STEP = 1.0


@dataclass(frozen=True)
class SolverOptions:
    """Iteration and tolerance knobs shared by both projections."""

    max_iters: int = 10000
    grad_tol: float = 1e-10
    vi_tol: float = 1e-6
    polish: bool = True
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
    ``trace`` holds accepted objective values when trace collection is on.
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


def _projected_gradient(f, grad, project, t0: np.ndarray, opts: SolverOptions):
    """Projected gradient with Armijo backtracking; objective never increases."""
    t = project(np.asarray(t0, dtype=float))
    fval = f(t)
    trace = [fval] if opts.collect_trace else None
    step = _INITIAL_STEP
    iters = 0
    grad_ok = False
    flat_streak = 0
    while iters < opts.max_iters:
        g = grad(t)
        # unit-step gradient mapping as the stationarity measure
        if np.linalg.norm(t - project(t - g)) <= opts.grad_tol * (1.0 + np.linalg.norm(t)):
            grad_ok = True
            break
        accepted = False
        while step >= 1e-16:
            cand = project(t - step * g)
            delta = cand - t
            if f(cand) <= fval + _ARMIJO_SLOPE * float(np.dot(g, delta)):
                accepted = True
                break
            step *= _ARMIJO_SHRINK
        if not accepted:
            break  # objective is flat at working precision
        fnew = f(cand)
        if fval - fnew <= 1e-13 * (1.0 + abs(fval)):
            flat_streak += 1
        else:
            flat_streak = 0
        t = cand
        fval = fnew
        if trace is not None:
            trace.append(fval)
        iters += 1
        if flat_streak >= 5:
            break  # progress is below objective roundoff; leave the rest to polish
        step = min(step * 2.0, 1e6)
    return t, fval, iters, grad_ok, trace


def _newton_polish(grad_t, t: np.ndarray, feasible: str, scale: float):
    """Drive the active-set KKT residual of the analytic gradient to roundoff.

    Near the optimum the objective is flat at machine precision while the
    gradient is still meaningful, so descent methods stall several digits
    short of what the gradient can certify.  Damped Newton on the free
    block of grad(t) = 0 recovers those digits; the Jacobian comes from
    central differences of the analytic gradient.
    """
    t = np.array(t, dtype=float)
    nonneg = feasible == NONNEGATIVE
    for _outer in range(4):
        g = grad_t(t)
        free = ~((t <= 1e-9 * (1.0 + scale)) & (g > 0.0)) if nonneg else np.ones(t.size, bool)
        if not free.any():
            break
        for _inner in range(30):
            g = grad_t(t)
            gf = g[free]
            gnorm = np.linalg.norm(gf)
            if gnorm <= 1e-14 * (1.0 + scale):
                break
            idx = np.nonzero(free)[0]
            H = np.empty((idx.size, idx.size))
            for col, j in enumerate(idx):
                h = 1e-6 * (1.0 + abs(t[j]))
                tp, tm = t.copy(), t.copy()
                tp[j] += h
                tm[j] -= h
                H[:, col] = (grad_t(tp)[idx] - grad_t(tm)[idx]) / (2.0 * h)
            try:
                dt = np.linalg.solve(H, -gf)
            except np.linalg.LinAlgError:
                dt, *_ = np.linalg.lstsq(H, -gf, rcond=None)
            step, improved = 1.0, False
            while step > 1e-4:
                cand = t.copy()
                cand[idx] += step * dt
                if nonneg:
                    cand = np.maximum(cand, 0.0)
                if np.linalg.norm(grad_t(cand)[free]) < gnorm:
                    t, improved = cand, True
                    break
                step *= 0.5
            if not improved:
                break
        g = grad_t(t)
        # re-derive the active set; loop again only if it changed
        free_new = ~((t <= 1e-9 * (1.0 + scale)) & (g > 0.0)) if nonneg else free
        if np.array_equal(free_new, free):
            break
    return t


def _newton_polish_simplex(grad_t, t: np.ndarray, scale: float):
    """Simplex counterpart of _newton_polish.

    Stationarity on the unit simplex means the gradient is constant across
    the support and no smaller off it, so the polished system couples the
    free coordinates with the multiplier of the sum constraint.  Damping
    accepts a step only when the KKT residual norm drops; the final clip
    and renormalization restore exact feasibility.
    """
    t = np.maximum(np.array(t, dtype=float), 0.0)
    eps = 1e-9 * (1.0 + scale)
    lam = 0.0
    for _outer in range(4):
        g = grad_t(t)
        support = t > eps
        lam = -float(np.mean(g[support])) if support.any() else -float(np.mean(g))
        free = ~((t <= eps) & (g + lam > 0.0))
        if not free.any():
            break
        idx = np.nonzero(free)[0]
        k = idx.size
        for _inner in range(30):
            g = grad_t(t)
            r = np.concatenate([g[idx] + lam, [np.sum(t) - 1.0]])
            rnorm = float(np.linalg.norm(r))
            if rnorm <= 1e-14 * (1.0 + scale):
                break
            kkt = np.zeros((k + 1, k + 1))
            for col, j in enumerate(idx):
                h = 1e-6 * (1.0 + abs(t[j]))
                tp, tm = t.copy(), t.copy()
                tp[j] += h
                tm[j] -= h
                kkt[:k, col] = (grad_t(tp)[idx] - grad_t(tm)[idx]) / (2.0 * h)
            kkt[:k, k] = 1.0
            kkt[k, :k] = 1.0
            try:
                sol = np.linalg.solve(kkt, -r)
            except np.linalg.LinAlgError:
                sol, *_ = np.linalg.lstsq(kkt, -r, rcond=None)
            step, improved = 1.0, False
            while step > 1e-4:
                cand = t.copy()
                cand[idx] = np.maximum(cand[idx] + step * sol[:k], 0.0)
                lam_cand = lam + step * float(sol[k])
                rc = np.concatenate([grad_t(cand)[idx] + lam_cand, [np.sum(cand) - 1.0]])
                if float(np.linalg.norm(rc)) < rnorm:
                    t, lam, improved = cand, lam_cand, True
                    break
                step *= 0.5
            if not improved:
                break
        g = grad_t(t)
        free_new = ~((t <= eps) & (g + lam > 0.0))
        if np.array_equal(free_new, free):
            break
    t = np.maximum(t, 0.0)
    total = float(np.sum(t))
    return t / total if total > 0.0 else t


def _solve_parameterized(C: ConvexSet, f_arr, dpair_arr, warm_target: np.ndarray, opts: SolverOptions):
    """Shared driver: minimize f(u(t)) over the feasible coefficient domain.

    ``f_arr`` maps point coordinates to the objective; ``dpair_arr`` maps
    point coordinates to the dual-vector coordinates whose weighted pairing
    with each direction is the objective's derivative (so the coefficient
    gradient is D^T (weights * dpair)).  ``warm_target`` seeds the iteration
    with the weighted least-squares coefficient fit of that point.
    """
    pm = C.parameterize()
    base = pm.base.coords
    D = pm.direction_matrix()
    w = C.space.weights

    def f_t(t):
        return f_arr(base + D @ t)

    def grad_t(t):
        return D.T @ (w * dpair_arr(base + D @ t))

    if D.shape[1] == 1 and pm.feasible in (UNIT_INTERVAL, NONNEGATIVE, UNRESTRICTED):
        dphi = lambda t: float(grad_t(np.array([t]))[0])
        t, iters, bracketed = _minimize_1d(dphi, pm.feasible)
        tvec = np.array([t])
        return base + D @ tvec, f_t(tvec), iters, bracketed, None, "one-dimensional"

    project = _coefficient_projector(pm.feasible)
    sw = np.sqrt(w)
    t0, *_ = np.linalg.lstsq(sw[:, None] * D, sw * (warm_target - base), rcond=None)
    t, fval, iters, grad_ok, trace = _projected_gradient(f_t, grad_t, project, t0, opts)
    if opts.polish and pm.feasible in (NONNEGATIVE, UNRESTRICTED, SIMPLEX):
        mapping = lambda tv: np.linalg.norm(tv - project(tv - grad_t(tv)))
        scale = float(np.linalg.norm(t))
        if pm.feasible == SIMPLEX:
            cand = _newton_polish_simplex(grad_t, t, scale)
        else:
            cand = _newton_polish(grad_t, t, pm.feasible, scale)
        if mapping(cand) <= mapping(t):
            t = cand
            fval = f_t(t)
    return base + D @ t, fval, iters, grad_ok, trace, "projected-gradient"


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

    def f_arr(u):
        return space.norm_of(x.coords - u) ** 2

    def dpair_arr(u):
        # derivative of ||x - u||^2 along a direction d is <-2 J(x-u), d>
        return -2.0 * space.jmap(x.coords - u)

    u_arr, fval, iters, _, trace, method = _solve_parameterized(C, f_arr, dpair_arr, x.coords, opts)
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

    npsi2 = norm(psi) ** 2
    w = space.weights
    psi_arr = psi.coords

    def f_arr(u):
        return npsi2 - 2.0 * float(np.dot(w * psi_arr, u)) + space.norm_of(u) ** 2

    def dpair_arr(u):
        # derivative of V(psi, u) along d is <2 J(u) - 2 psi, d>
        return 2.0 * (space.jmap(u) - psi_arr)

    u_arr, fval, iters, _, trace, method = _solve_parameterized(C, f_arr, dpair_arr, inv.coords, opts)
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
