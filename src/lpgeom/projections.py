"""Metric and generalized projections onto closed convex sets.

The metric projection minimizes ||x - u||^2 over the set; the
generalized projection minimizes the Lyapunov functional
V(psi, u) = ||psi||^2 - 2 <psi, u> + ||u||^2 over it.  Both are single
valued for p in (1, oo).  Solutions are certified through the
variational characterizations

    metric:       <J(x - u), u - z> >= 0   for all z in C,
    generalized:  <psi - J(u), u - z> >= 0 for all z in C,

whose worst violation over the set each set reports itself
(``ConvexSet._vi_violation``): finitely many pairings with the vertices,
and with rays and lineality directions per unit coefficient, or the
ball's support function.  A nonpositive residual certifies optimality;
the one setting, ``vi_tol`` (1e-6 by default), is how far above 0 a
``converged`` result's residual may be.
The certificate also proves u in C.  For a solver answer the proof is the
solver's own chart coefficients t: they lie in the chart's domain and
rebuild u = base + D t within the membership tolerance.  The chart is the
one each polyhedral set reads from its vertices, rays and lineality
(``sets._Polyhedral``).  A caller's u that comes without such a witness
is tested by a nonnegative least-squares fit instead, so
``vi_residual_*`` stay an independent check.

Solver strategy: both projections minimize ||u - c||^2 - 2 <ell, u> plus
a constant, with c = x, ell = 0 (metric) or c = 0, ell = psi
(generalized), through one driver.  A set with a closed form (the
ball's radial pull-in) answers at once.  On every other set the weighted
least-squares fit of the unconstrained minimizer c + J*(ell) comes
first.  When it rebuilds that minimizer and its residual passes, the
minimizer is its own projection, returned as a closed form.  Otherwise
the fit is the warm start of one projected Newton loop on the chart
coefficients: coefficients held at their bound, a Newton step on the
free block with the exact Hessian of the squared norm formed on the free
columns of D alone, a projected gradient fallback, and Armijo
backtracking that refuses full steps jumping across the minimum.  On
large cones and polytopes most coefficients are held, so the free block
is far smaller than the k x k matrix of every direction.  Each trial
point of the loop is one evaluation: the residual r = u - c, its norm
and |r|^(p-1) sign(r) are formed once there and shared by F, its
gradient (the duality map J(r)) and the Hessian, and the result counts
the objective and gradient evaluations.  The zero datum of each
projection (ell or c) enters no evaluation.  The set keeps what its chart needs across calls: sqrt(w),
A = sqrt(w) D, the Gram matrix A^T A of the fit and the clamp onto the
coefficient domain (``sets._Polyhedral._chart``).  Segments, rays and
lines have one coefficient, so their Newton systems are 1 x 1, and
``_model_step`` solves those with the one division LAPACK would make, bit
for bit.
That loop keeps the method label "projected-gradient", which reports and
the result schema read; ``stop_reason`` says why it stopped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sets import ConvexSet
from .spaces import DualVec, PrimalVec, _finite_image, _SqNormAt

__all__ = [
    "ProjectionResult",
    "metric_project",
    "generalized_project",
    "vi_residual_metric",
    "vi_residual_generalized",
    "inverse_image_member_metric",
]

# Armijo backtracking along the projection arc: step shrink factor, sufficient
# decrease slope, and the most shrinks tried per direction
_ARMIJO_SHRINK = 0.5
_ARMIJO_SLOPE = 1e-4
# a direction's full step is refused when the slope at its end is positive and at
# least this share of the starting slope's size: it jumped across the minimum
_OVERSHOOT = 0.9
_MAX_SHRINKS = 60
# relative roundoff of the objective, below which a step counts as flat
_ROUNDOFF = 1e-14
# machine epsilon: an arc step below it, relative to the coefficients, is roundoff
_EPS = float(np.finfo(float).eps)
# coefficients within this distance of their lower bound may be held there
_ACTIVE_WIDTH = 1e-3
# the coefficient loop stops once the unit-step gradient mapping is at most
# _GRAD_TOL * (1 + ||t||), or after _MAX_ITERS accepted steps
_GRAD_TOL = 1e-10
_MAX_ITERS = 10000
# how far a candidate may sit from the set, through ConvexSet._slack, for its certificate
_MEMBERSHIP_TOL = 1e-6
# the default certificate threshold on the VI residual, also inverse_image_member_metric's
_VI_TOL = 1e-6


@dataclass(frozen=True)
class ProjectionResult:
    """A projection candidate with its optimality certificate.

    ``vi_residual`` is the worst violation of the variational inequality
    over the set (nonpositive up to roundoff at the true projection);
    ``converged`` is True only when the residual passes the vi tolerance.
    ``iterations`` counts the accepted steps of the projected Newton loop,
    and ``objective_evaluations`` and ``gradient_evaluations`` the trial
    points at which it evaluated the objective and its gradient; all three
    are 0 for closed forms.  ``stop_reason`` is "closed-form",
    "grad-tol" (the gradient mapping fell below its tolerance), "flat"
    (neither the Newton nor the gradient direction descends at working
    precision), "max-iters", or "overflow" (the objective at the warm
    start is not a finite float, so no step can be judged).
    """

    point: PrimalVec
    objective: float
    vi_residual: float
    iterations: int
    converged: bool
    method: str
    stop_reason: str
    objective_evaluations: int
    gradient_evaluations: int


def _require_smooth(space):
    if not (1.0 < space.p < math.inf):
        raise ValueError("projections require a space exponent in (1, oo)")


def _model_step(H: np.ndarray, rhs: np.ndarray, full_rank: bool) -> np.ndarray:
    """The solution of H s = rhs; in the least-squares sense unless ``full_rank`` and nonsingular.

    A 1 x 1 system with a nonzero pivot is the one division that LAPACK's
    dgesv makes for n = 1, so it equals ``np.linalg.solve`` bit for bit
    without numpy.linalg's per-call dispatch.  A system with an entry that
    is not finite gets a NaN step and never reaches LAPACK, whose scaling
    routine would print an error for it: the NaN step fails every descent
    test, and the loop takes the gradient direction instead.
    """
    if rhs.size == 1:
        h, r = float(H[0, 0]), float(rhs[0])
        if not (math.isfinite(h) and math.isfinite(r)):
            return np.full(1, math.nan)
        if full_rank and h != 0.0:
            return np.array([r / h])
    elif not (np.isfinite(H).all() and np.isfinite(rhs).all()):
        return np.full(rhs.size, math.nan)
    if full_rank:
        try:
            return np.linalg.solve(H, rhs)
        except np.linalg.LinAlgError:
            pass
    return np.linalg.lstsq(H, rhs, rcond=None)[0]


def _newton_matrix(D: np.ndarray, h: np.ndarray, beta: float, a: np.ndarray) -> np.ndarray:
    """D^T (diag(h) + beta a a^T) D: the Hessian of ||base + D t - c||^2 in the coefficients of D's columns."""
    Da = D.T @ a
    return D.T @ (h[:, None] * D) + beta * (Da[:, None] * Da)


class _ChartPoint:
    """One trial point: coefficients t, u = base + D t, F there, and the derivatives of ||u - c||^2."""

    __slots__ = ("t", "u", "f", "sq")

    def __init__(self, t, u, f, sq):
        self.t, self.u, self.f, self.sq = t, u, f, sq


class _ChartObjective:
    """F(u) = ||u - c||^2 - 2 <ell, u> + ||ell||_*^2 at u = base + D t, one evaluation per point.

    Calling it at t forms u and the residual r = u - c once and takes ||r||
    from one ``norm_of`` call.  ``gradient`` turns that point into
    2 D^T (w J(r) - w ell) from the same r and norm, and the point's
    ``sq.hessian()`` gives the Hessian parts, sharing |r|^(p-1) sign(r)
    with J.  It counts the objective and the gradient evaluations.
    ``c`` or ``ell`` is None where it is zero, and its terms are then left
    out: each would add or subtract an exact 0.
    """

    __slots__ = ("space", "base", "D", "c", "w", "wl", "ell_sq", "evaluations", "gradients")

    def __init__(self, C: ConvexSet, c: np.ndarray | None, ell: np.ndarray | None):
        self.space, self.base, self.D, self.c = C.space, C._base, C._D, c
        self.w = C.space.weights
        self.wl = None if ell is None else self.w * ell
        self.ell_sq = 0.0 if ell is None else C.space.dual().norm_of(ell) ** 2
        self.evaluations = self.gradients = 0

    def __call__(self, t: np.ndarray) -> _ChartPoint:
        self.evaluations += 1
        u = self.base + self.D @ t
        r = u if self.c is None else u - self.c
        nrm = self.space.norm_of(r)
        f = nrm**2
        if self.wl is not None:
            f = f - 2.0 * float(self.wl.dot(u)) + self.ell_sq
        return _ChartPoint(t, u, f, _SqNormAt(self.space, r, nrm))

    def gradient(self, x: _ChartPoint) -> np.ndarray:
        self.gradients += 1
        wj = self.w * x.sq.jmap()
        return self.D.T @ (2.0 * (wj if self.wl is None else wj - self.wl))


def _arc_search(F, project, t, fval, g, gap, d, step, flat):
    """Armijo backtracking along the projection arc s -> P(t + s d).

    ``F`` evaluates one trial point (``_ChartObjective``).  Returns
    (point, gradient, gap) at the accepted point, or None when no step is
    accepted.  Within ``flat`` of f the objective is at roundoff: there a
    decrease proves nothing, and a step is accepted only when it halves
    the gradient mapping, which still measures progress.

    The full step also has to pass the strong Wolfe curvature test on one
    side: where the Hessian blows up (a residual coordinate crossing zero
    below p = 2), full Newton steps can jump back and forth across the
    minimum while f still falls a little.  Shrunk steps skip the test, as
    near p = 1 the slope flips within a tiny distance of such a crossing
    and the test would force steps of that size.
    """
    ulp = None  # one ulp of the fixed coefficients t, taken once, when first needed
    for shrink in range(_MAX_SHRINKS):
        cand = project(t + step * d)
        delta = cand - t
        if not delta.any():
            return None
        x = F(cand)
        fc = x.f
        slope = float(g.dot(delta))
        armijo = fc < fval - flat and fc <= fval + _ARMIJO_SLOPE * slope
        if armijo or fc <= fval + flat:
            gc = F.gradient(x)
            step_c = cand - project(cand - gc)
            gap_c = math.sqrt(float(step_c.dot(step_c)))
            if armijo:
                accept = shrink > 0 or float(gc.dot(delta)) <= -_OVERSHOOT * slope
            else:
                accept = gap_c <= 0.5 * gap
            if accept:
                return x, gc, gap_c
        # no smaller step can pass: |delta| only shrinks along the arc, so by
        # convexity f(cand) >= f - |g| |delta| >= f - flat rules out Armijo, and
        # a move below one ulp of the coefficients cannot halve the gap
        if ulp is None:
            ulp = _EPS * (1.0 + np.abs(t).max())
        tiny = np.abs(delta).max() <= ulp
        if tiny and math.sqrt(float(g.dot(g))) * math.sqrt(float(delta.dot(delta))) <= flat:
            return None
        step *= _ARMIJO_SHRINK
    return None


def _warm_start(C: ConvexSet, y: np.ndarray) -> np.ndarray:
    """Chart coefficients of the weighted least-squares fit of y, projected onto the domain.

    The fit's normal equations A^T A t = A^T sqrt(w) (y - base), with
    A = sqrt(w) D, are k x k, far cheaper than an n x k lstsq.  The set
    forms A and A^T A once and keeps them, so a call costs one product
    with A^T and one solve: a division on a one-direction chart, a direct
    solve when the directions are independent, and a least-squares solve
    otherwise.
    """
    chart = C._chart
    rhs = chart.A.T @ (chart.sqrt_weights * (y - C._base))
    return chart.clamp(_model_step(chart.gram, rhs, chart.independent))


def _member_witness(C: ConvexSet, y: np.ndarray, t: np.ndarray) -> tuple[bool, np.ndarray | None]:
    """Whether the unconstrained minimizer y lies in C, and coefficients witnessing it.

    The warm start t is y's fit.  When it rebuilds y within the shortcut's
    threshold it is the witness.  A miss proves y is outside only when the
    chart's directions are independent; otherwise a nonnegative
    least-squares fit decides, and there is no witness.
    """
    tol = 1e-12  # ``_slack`` scales it by the sizes of y and the set
    if C._fits(y, t, tol):
        return True, t
    if C._chart.independent:
        return False, None
    return C._contains(y, tol), None


def _solve_on_chart(C: ConvexSet, c: np.ndarray, ell: np.ndarray, t: np.ndarray):
    """Minimize F(u) = ||u - c||^2 - 2 <ell, u> + ||ell||_*^2 over C on its chart.

    Projected Newton (Bertsekas 1982) on the coefficients, from the warm
    start t, the fit of the unconstrained minimizer c + J*(ell):
    coefficients at their bound whose gradient pushes outward go to the
    bound, and the free block takes a Newton step with the exact Hessian on
    it, D_F^T (diag(h) + beta a a^T) D_F for the free columns D_F of D,
    bordered by the sum constraint on the simplex.  The first pass of the
    active set forms that matrix from D_F alone; a pass after one that
    blocked more coefficients cuts it from the last pass's matrix.  The
    k x k matrix of all of D is formed only when nothing is held, and for
    the curvature of the gradient direction, the fallback when the Newton
    direction does not descend.  Each trial point is one evaluation
    (``_ChartObjective``): the residual, its norm and |r|^(p-1) sign(r) are
    formed once there and shared by F, its gradient and, at an accepted
    point, the Hessian.  ``c`` or ``ell`` is None where it is zero.
    Returns the point, its coefficients, F there, the accepted steps, the
    stop reason and the objective and gradient evaluation counts.
    """
    space = C.space
    D, lo, simplex = C._D, C._lo, C._simplex
    F = _ChartObjective(C, c, ell)
    project = C._chart.clamp
    # the reduced Hessian has rank at most n, and its bordered form at most
    # n + 2; larger systems are singular
    rank_cap = space.n + 2 if simplex else space.n
    x = F(t)
    if not math.isfinite(x.f):
        return x.u, x.t, x.f, 0, "overflow", (F.evaluations, F.gradients)
    g = F.gradient(x)
    data_sq = None  # the data's scale for the roundoff test, taken at the first step
    step_g = t - project(t - g)
    gap = math.sqrt(float(step_g.dot(step_g)))
    iters = 0
    while True:
        t = x.t
        if gap <= _GRAD_TOL * (1.0 + math.sqrt(float(t.dot(t)))):
            stop = "grad-tol"
            break
        if iters >= _MAX_ITERS:
            stop = "max-iters"
            break
        h, beta, a = x.sq.hessian()
        # Bertsekas's active set: coefficients near their lower bound whose
        # gradient pushes outward; on the simplex the gradient is level across
        # the support at the optimum, so "outward" is measured from that level
        near = t - lo <= min(gap, _ACTIVE_WIDTH)
        can_hold = near.any()  # else the active set is empty, whatever the step
        if can_hold:
            level = 0.0
            if simplex:
                support = t > gap
                if support.any():
                    level = float(np.mean(g[support]))
            active = near & (g > level)
        hess = None  # the last pass's Newton matrix, on the coefficients ``cover`` (None: all)
        while True:
            held = can_hold and active.any()
            if not held:
                hess, cover, g_free = _newton_matrix(D, h, beta, a), None, g
            else:
                free = ~active
                if hess is None:
                    hess = _newton_matrix(D[:, free], h, beta, a)
                else:
                    # the coefficients just blocked leave the free block: drop their rows and columns
                    keep = free if cover is None else free[cover]
                    hess = hess[keep][:, keep]
                cover, g_free = free, g[free]
            m = g_free.size
            if simplex:
                # the free block bordered by the sum constraint
                H = np.zeros((m + 1, m + 1))
                H[:m, :m] = hess
                H[:m, m] = H[m, :m] = 1.0
                rhs = np.empty(m + 1)
                rhs[:m] = -g_free
                rhs[m] = np.sum(t[active]) if held else 0.0
            else:
                H, rhs = hess, -g_free
            step = _model_step(H, rhs, rhs.size <= rank_cap)[:m]
            if held:
                newton = -t  # active coefficients go to their bound
                newton[free] = step
            else:
                newton = step
            if not can_hold:
                break
            # a free coefficient at its bound that the step pushes outward is held there
            blocked = near & (newton < 0.0)
            if held:
                blocked &= free
            if not blocked.any():
                break
            active |= blocked
        if data_sq is None:
            data_sq = F.ell_sq if c is None else space.norm_of(c) ** 2 + F.ell_sq
        flat = _ROUNDOFF * (abs(x.f) + data_sq)
        moved = None
        if float(g.dot(newton)) < 0.0:
            moved = _arc_search(F, project, t, x.f, g, gap, newton, 1.0, flat)
        if moved is None:
            # the Cauchy step along -g, the gradient direction, with the curvature of the full matrix
            curv = float(g @ _newton_matrix(D, h, beta, a) @ g)
            cauchy = float(g.dot(g)) / curv if curv > 0.0 else 1.0
            d = -g
            if float(g.dot(d)) < 0.0:
                moved = _arc_search(F, project, t, x.f, g, gap, d, cauchy, flat)
        if moved is None:
            stop = "flat"  # neither direction descends at working precision
            break
        x, g, gap = moved
        iters += 1
    return x.u, x.t, x.f, iters, stop, (F.evaluations, F.gradients)


def _certified(C, u, objective, res, vi_tol, iters=0, stop="closed-form", evaluations=(0, 0)) -> ProjectionResult:
    """The candidate u with its VI residual; closed forms take no solver steps and no evaluations."""
    return ProjectionResult(
        point=C.space.point(u),
        objective=objective,
        vi_residual=res,
        iterations=iters,
        converged=bool(res <= vi_tol),
        method="closed-form" if stop == "closed-form" else "projected-gradient",
        stop_reason=stop,
        objective_evaluations=evaluations[0],
        gradient_evaluations=evaluations[1],
    )


def _project(C: ConvexSet, y: np.ndarray, c, ell, vi_tol: float) -> ProjectionResult:
    """Minimize ||u - c||^2 - 2 <ell, u> over C, from the unconstrained minimizer y = c + J*(ell).

    c = x and ell None for the metric projection, c None and ell = psi for
    the generalized one.  The set's closed form comes first; then the fit
    of y warm-starts the chart.  A member y is its own projection once its
    residual passes, which holds exactly for the metric projection, where
    phi = J(0) = 0.  The result's point is the one vector built here.
    """
    if not 0.0 < vi_tol < math.inf:  # false for NaN too
        raise ValueError("vi_tol must be positive and finite")
    u = C._closed_form(y, c, ell)
    if u is not None:
        return _certified(C, u, _objective(C, u, c, ell), _residual(C, u, None, c, ell), vi_tol)
    t = _warm_start(C, y)
    member, witness = _member_witness(C, y, t)
    if member:
        res = _residual(C, y, witness, c, ell)
        if res <= vi_tol:
            return _certified(C, y, _objective(C, y, c, ell), res, vi_tol)
    u, t, fval, iters, stop, evaluations = _solve_on_chart(C, c, ell, t)
    return _certified(C, u, fval, _residual(C, u, t, c, ell), vi_tol, iters, stop, evaluations)


def _objective(C: ConvexSet, u: np.ndarray, c, ell) -> float:
    """||x - u||^2 for the metric projection, V(psi, u) = ||psi||_*^2 - 2 <psi, u> + ||u||^2 for the generalized."""
    space = C.space
    if ell is None:
        return space.norm_of(c - u) ** 2
    return space.dual().norm_of(ell) ** 2 - 2.0 * space.pairing(ell, u) + space.norm_of(u) ** 2


def _residual(C: ConvexSet, u: np.ndarray, witness: np.ndarray | None, c, ell) -> float:
    """The worst violation over C of the VI for phi = J(c - u) + ell, once u is a member (``vi_residual_metric``)."""
    if not (C._contains(u, _MEMBERSHIP_TOL) if witness is None else C._fits(u, witness, _MEMBERSHIP_TOL)):
        raise ValueError("candidate projection is not a member of the set")
    jmap = C.space.jmap
    phi = jmap(c - u) if ell is None else ell - jmap(u)
    return C._vi_violation(_finite_image(phi), u)


def metric_project(C: ConvexSet, x: PrimalVec, vi_tol: float = _VI_TOL) -> ProjectionResult:
    """Nearest point of C to x in the space's norm, certified when its VI residual is at most ``vi_tol``."""
    _require_smooth(C.space)
    C._check_point(x)
    return _project(C, x.coords, x.coords, None, vi_tol)


def generalized_project(C: ConvexSet, psi: DualVec, vi_tol: float = _VI_TOL) -> ProjectionResult:
    """Minimizer of V(psi, .) over C, certified when its VI residual is at most ``vi_tol``."""
    _require_smooth(C.space)
    C._check_functional(psi)
    y = _finite_image(C.space.dual().jmap(psi.coords))  # J*(psi)
    return _project(C, y, None, psi.coords, vi_tol)


def vi_residual_metric(C: ConvexSet, x: PrimalVec, u: PrimalVec, witness: np.ndarray | None = None) -> float:
    """Certificate for u = metric projection of x: nonpositive iff certified.

    Raises when u is not a member of C within ``_MEMBERSHIP_TOL``.  Without
    a ``witness`` membership is a nonnegative least-squares fit.  A witness
    is coefficients t on the chart a polyhedral C reads from its vertices,
    rays and lineality (``sets._Polyhedral``), from which the solver built
    u: then u is a member when t lies in the chart's domain and base + D t
    reproduces u within that tolerance, and nothing is fitted.  A witness
    that passes always passes ``C.contains`` too.  OverflowError when
    J(x - u) is not finite.
    """
    _require_smooth(C.space)
    C._check_point(x)
    C._check_point(u)
    return _residual(C, u.coords, witness, x.coords, None)


def vi_residual_generalized(C: ConvexSet, psi: DualVec, y: PrimalVec, witness: np.ndarray | None = None) -> float:
    """Certificate for y = generalized projection of psi onto C.

    Membership is decided as in ``vi_residual_metric``, by the ``witness``
    coefficients when given; OverflowError when psi - J(y) is not finite.
    """
    _require_smooth(C.space)
    C._check_functional(psi)
    C._check_point(y)
    return _residual(C, y.coords, witness, None, psi.coords)


def inverse_image_member_metric(C: ConvexSet, y: PrimalVec, x: PrimalVec) -> bool:
    """True when x projects metrically onto the member y of C.

    Decided by the exact VI reduction, not by running the solver.
    """
    return vi_residual_metric(C, x, y) <= _VI_TOL
