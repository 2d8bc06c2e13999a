"""Independent oracles the tests check library results against.

Everything here is deliberately naive: dense grids, direct formulas,
plain Euclidean linear algebra, loops one pairing at a time.  None of it
calls the solver paths it is used to check.  For JSON documents the
reference is jsonschema, an extra the tests use when it is installed;
``assert_schema_valid`` asks both it and the CLI's own validator.
"""

import itertools
import json
import math
from importlib import resources

import numpy as np

from lpgeom.cli import _validate
from lpgeom.spaces import duality_map, norm, pair


def weighted_pnorm(coords, p, weights):
    coords = np.asarray(coords, dtype=float)
    if math.isinf(p):
        return float(np.max(np.abs(coords)))
    return float(np.dot(weights, np.abs(coords) ** p) ** (1.0 / p))


def grid_min_on_line(x, base, direction, p, weights, lo, hi, npts=10**6):
    """Min of ||x - (base + t d)||^2 over a dense t-grid; returns (t, value)."""
    t = np.linspace(lo, hi, npts)
    resid = np.asarray(x)[None, :] - (np.asarray(base)[None, :] + t[:, None] * np.asarray(direction)[None, :])
    vals = np.dot(np.abs(resid) ** p, weights) ** (2.0 / p)
    k = int(np.argmin(vals))
    return float(t[k]), float(vals[k])


def grid_min_lyapunov_on_line(psi, psi_norm_q, base, direction, p, weights, lo, hi, npts=10**6):
    """Min of V(psi, base + t d) over a dense t-grid; returns (t, value)."""
    t = np.linspace(lo, hi, npts)
    pts = np.asarray(base)[None, :] + t[:, None] * np.asarray(direction)[None, :]
    norms2 = np.dot(np.abs(pts) ** p, weights) ** (2.0 / p)
    pairs = pts @ (weights * np.asarray(psi))
    vals = psi_norm_q**2 - 2.0 * pairs + norms2
    k = int(np.argmin(vals))
    return float(t[k]), float(vals[k])


# -- Euclidean (p = 2, unit-weight) closed forms ------------------------------


def euclid_project_ball(x, r):
    x = np.asarray(x, dtype=float)
    nrm = float(np.linalg.norm(x))
    return x if nrm <= r else (r / nrm) * x


def euclid_project_segment(x, a, b):
    x, a, b = (np.asarray(v, dtype=float) for v in (x, a, b))
    d = b - a
    t = float(np.clip(np.dot(x - a, d) / np.dot(d, d), 0.0, 1.0))
    return a + t * d

def euclid_project_orthant_cone(x, generators):
    """Projection onto cone(generators) at vertex 0 for mutually orthogonal generators."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for g in generators:
        g = np.asarray(g, dtype=float)
        t = max(0.0, float(np.dot(x, g) / np.dot(g, g)))
        out = out + t * g
    return out


def euclid_project_subspace(x, basis):
    B = np.stack([np.asarray(b, dtype=float) for b in basis], axis=1)
    coef, *_ = np.linalg.lstsq(B, np.asarray(x, dtype=float), rcond=None)
    return B @ coef


# -- the projected Newton loop's quantities, one separate call each ------------
#
# The loop once evaluated F, its gradient and the Hessian of ||.||^2 at each
# point through these formulas, each rebuilding the residual and its norm.
# They are kept as written then: the loop's shared evaluation must give the
# same bits.


def chart_objective(space, base, D, c, ell, t):
    """F(base + D t) = ||u - c||^2 - 2 <ell, u> + ||ell||_*^2."""
    wl = space.weights * ell
    ell_sq = space.dual().norm_of(ell) ** 2
    u = base + D @ t
    return space.norm_of(u - c) ** 2 - 2.0 * float(np.dot(wl, u)) + ell_sq


def chart_gradient(space, base, D, c, ell, t):
    """The gradient of ``chart_objective`` in t: 2 D^T (w J(u - c) - w ell)."""
    w = space.weights
    wl = w * ell
    return D.T @ (2.0 * (w * jmap(space, base + D @ t - c) - wl))


def jmap(space, coords):
    """(Jx)_i = |x_i|^(p-1) sign(x_i) ||x||^(2-p), row by row for a stack."""
    if math.isinf(space.p) or space.p <= 1.0:
        raise ValueError("duality mapping requires exponent in (1, oo)")
    if space.p == 2.0:
        return np.array(coords, dtype=float)
    nrm = space.norm_of(coords)
    if not isinstance(nrm, float):  # one norm per row; a zero row maps to zero whatever its scale
        scale = np.where(nrm > 0.0, nrm, 1.0)[..., None] ** (2.0 - space.p)
    elif nrm == 0.0:
        return np.zeros(space.n)
    else:
        scale = nrm ** (2.0 - space.p)
    return np.abs(coords) ** (space.p - 1.0) * np.sign(coords) * scale


def sqnorm_hessian(space, coords):
    """Parts (h, beta, a) of the Hessian diag(h) + beta a a^T of ||x||^2."""
    if math.isinf(space.p) or space.p <= 1.0:
        raise ValueError("the Hessian of ||x||^2 requires exponent in (1, oo)")
    w, p = space.weights, space.p
    nrm = space.norm_of(coords)
    if p == 2.0 or nrm == 0.0:
        return 2.0 * w, 0.0, w * coords
    mag = np.abs(coords)
    a = w * mag ** (p - 1.0) * np.sign(coords)
    if p < 2.0:
        mag = np.maximum(mag, 1e-8 * float(np.max(mag)))
    h = 2.0 * (p - 1.0) * nrm ** (2.0 - p) * w * mag ** (p - 2.0)
    return h, 2.0 * (2.0 - p) * nrm ** (2.0 - 2.0 * p), a


# -- polyhedral cones, by brute force -----------------------------------------


def polar_cone_by_enumeration(rows, tol=1e-9):
    """(extreme rays, lineality dimension) of {z : rows @ z <= 0}, by brute force.

    Every extreme ray of the pointed part is the null direction of some
    r - 1 rows inside the r-dimensional row space, so try each (r - 1)-subset,
    keep the feasible sign of its null vector, and dedupe.
    """
    rows = np.asarray(rows, dtype=float)
    rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    _, s, vt = np.linalg.svd(rows)
    r = int(np.sum(s > 1e-12 * s[0]))
    basis = vt[:r]  # r x n, orthonormal rows spanning the row space
    local = rows @ basis.T
    rays = []
    for subset in itertools.combinations(range(len(rows)), r - 1):
        if subset:
            _, ss, svt = np.linalg.svd(local[list(subset)])
            if np.sum(ss > 1e-9) != r - 1:
                continue
            z = svt[-1]
        else:
            z = np.ones(1)
        for c in (z, -z):
            if np.all(local @ c <= tol) and not any(np.linalg.norm(c - d) <= tol for d in rays):
                rays.append(c)
    return [c @ basis for c in rays], rows.shape[1] - r


# -- point classification, by linear programs ---------------------------------


def difference_directions(V, R, L, y):
    """Unit directions w with <c, w> <= 0 required of a functional c supporting
    conv(V) + cone(R) + span(L) at y: each vertex minus y, each ray, and both
    signs of each lineality direction, dropping those that vanish."""
    y = np.asarray(y, dtype=float)
    rows = [np.asarray(v, dtype=float) - y for v in V] + [np.asarray(r, dtype=float) for r in R]
    rows += [s * np.asarray(l, dtype=float) for l in L for s in (1.0, -1.0)]
    keep = [r / np.linalg.norm(r) for r in rows if np.linalg.norm(r) > 1e-12 * (1.0 + np.linalg.norm(y))]
    return np.array(keep).reshape(-1, y.size)


def supporting_direction_by_linear_programs(W):
    """A nonzero c with W c <= 0, or None when only c = 0 has it.

    A null direction of W answers at once.  Otherwise one linear program
    per row asks whether that row's pairing can go strictly negative inside
    {W c <= 0, |c_i| <= 1}.  Needs scipy.
    """
    from scipy.optimize import linprog

    if W.shape[0] == 0:
        return np.eye(1, W.shape[1])[0]
    _, s, vt = np.linalg.svd(W)
    rank = int(np.sum(s > 1e-12 * s[0]))
    if rank < W.shape[1]:
        return vt[rank]
    for j in range(W.shape[0]):
        res = linprog(W[j], A_ub=W, b_ub=np.zeros(W.shape[0]), bounds=(-1.0, 1.0), method="highs")
        if res.status == 0 and res.fun < -1e-9:
            c = np.asarray(res.x, dtype=float)
            if float(np.max(W @ c)) <= 1e-9:
                return c
    return None


# -- metric dual cone witness searches, one pairing at a time ------------------


def _metric_dual_margin(v, R, x):
    """max_i <J(x - v), g_i>, pairing J(x - v) with one generator row at a time."""
    phi = duality_map(x - v)
    return max(phi.space.pairing(phi.coords, g) for g in R)


def _trial_point(rng, space):
    scale = float(rng.uniform(0.5, 5.0))
    return space.point(rng.normal(size=space.n) * scale)


def convex_combination_escape_by_loops(K, seed=0, trials=400, tol=1e-9):
    """The seeded metric dual convexity search, pair by pair: (x, y, lam, h, gaps) or None.

    Draws, pinned pair, pairing order and lam grid are those of
    ``cones.probe_nonconvexity_metric_dual`` before it built its
    candidates from the polar; it is the reference that search must cover.
    """
    space, v, R = K.space, K.space.point(K.V[0]), K.R
    rng = np.random.default_rng(seed)
    candidates = []
    if space.n == 3:
        xc, yc = space.point([3.0, -2.0, -1.0]), space.point([1.0, -3.0, 2.0])
        if _metric_dual_margin(v, R, xc) <= tol and _metric_dual_margin(v, R, yc) <= tol:
            candidates.append((xc, yc))
    members = []
    for _ in range(trials):
        pt = _trial_point(rng, space)
        if _metric_dual_margin(v, R, pt) <= tol:
            members.append(pt)
    rng.shuffle(members)
    for i in range(0, max(len(members) - 1, 0), 2):
        candidates.append((members[i], members[i + 1]))
    for x, y in candidates:
        for lam in (2.0 / 3.0, 0.5, 0.25, 0.75, 0.1, 0.9):
            h = lam * x + (1.0 - lam) * y
            if _metric_dual_margin(v, R, h) > tol:
                phi = duality_map(h - v)
                return x, y, lam, h, [phi.space.pairing(phi.coords, g) for g in R]
    return None


def double_dual_gap_by_loops(K, seed=0, trials=200, tol=1e-9):
    """The seeded metric double dual search, pair by pair: (z, x, <J z, x>) or None.

    Candidates and their order are those of
    ``cones.metric_double_dual_violation`` before it built its candidates:
    z runs over the generators, then the samples of K; x over the pinned
    member in R^3, then the draws.  K has its vertex at the origin.
    """
    space, v, R = K.space, K.space.point(K.V[0]), K.R
    rng = np.random.default_rng(seed)
    zs, xs = [], []
    if space.n == 3:
        xc = space.point([3.0, -2.0, -1.0])
        if _metric_dual_margin(v, R, xc) <= tol:
            xs.append(xc)
    zs.extend(space.point(g) for g in R)
    zs.extend(K.sample(min(trials // 4, 25), seed=seed + 1))
    for _ in range(trials):
        pt = _trial_point(rng, space)
        if _metric_dual_margin(v, R, pt) <= tol:
            xs.append(pt)
    for z in zs:
        jz = duality_map(z)
        for x in xs:
            val = pair(jz, x)
            if val > max(tol, 1e-9 * norm(z) * norm(x)):
                return z, x, val
    return None


def packaged_schema(name):
    return json.loads(resources.files("lpgeom.schemas").joinpath(name).read_text(encoding="utf-8"))


def assert_schema_valid(doc, schema_name):
    """The CLI's own validator accepts ``doc``, and so does jsonschema when it is installed."""
    _validate(doc, schema_name)
    try:
        import jsonschema
    except ImportError:  # the reference is missing; the CLI's own verdict was still checked
        return
    jsonschema.Draft202012Validator(packaged_schema(schema_name)).validate(doc)
