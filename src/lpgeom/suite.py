"""Reproducible verification suite and randomized property fuzzing.

Twelve numbered checks re-derive the package's pinned numerical facts:
duality-map values, the identity sweep, the two negative phenomena of
metric dualization, cone projection identities, solver agreement with an
independent line-search oracle, generalized double duality, the
intersection/union dual identity, face computations, ball
classification, the fixed-point equivalences, and the nonconvexity of
primal visions.  Nineteen fuzz targets run the randomized claims.

Each randomized claim is one property, after QuickCheck (Claessen &
Hughes 2000): a sampler ``sample(rng, p)`` (p None lets it choose the
exponent), a predicate that returns None or a hit dict, and optional
pinned instances ``pinned(p)``.  A check runs a fixed batch of its
property plus the pinned instances, beside any closed forms it pins; the
matching fuzz target runs the same property, pinned instances first, for
``--trials`` draws.  A witness-seeking property claims that a Hilbert
space fact FAILS away from exponent 2: its hits are witnesses, so a run
at p != 2 passes when it finds one, and at p = 2 every hit is a failure.
An exception from a sampler or a predicate is a hit naming it, and a
failure for every property; the run goes on.
The routines under test take no seed: the two metric witness searches
build their candidates from the polar cone, and the seed picks the rays.

Every check that states such a contrast tests both halves in one run:
the failure at exponent 3, where the pinned closed forms hold, and the
Hilbert-space fact at exponent 2, where the search or the built
candidates must find nothing (checks 03, 04, 05 and 12).

Seeds are split by a fixed rule: check number k draws its whole batch
from ``SeedSequence([seed, k])``, and fuzz trial t of target i from
``SeedSequence([seed, i, t])``.  Identical seeds therefore reproduce
reports bit for bit, timing aside, and a fuzz hit replays from (seed,
target, trial) alone.  Reports sort their records by check id.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .cones import (
    _LAMBDAS,
    _PINNED_PAIR,
    _polar_members,
    find_double_dual_certificate,
    generalized_double_dual_member,
    hilbert_identity_violation,
    intersection_dual_check_family,
    member_metric_dual,
    metric_double_dual_violation,
    probe_nonconvexity_metric_dual,
)
from .encoding import TOOLKIT_VERSION, _jsonable, _witness_json
from .faces import (
    classify_point,
    dual_vision_identity_check,
    face,
    face_membership,
    fixed_point_check,
    vision_dual_member,
    vision_primal_member,
)
from .projections import (
    generalized_project,
    metric_project,
    vi_residual_generalized,
    vi_residual_metric,
)
from .sets import Ball, FinitelyGeneratedCone, Line, Polytope, Ray, Segment, Subspace
from .spaces import (
    LpSpace,
    duality_map,
    duality_map_inv,
    lyapunov,
    norm,
    pair,
    window_functional,
)

__all__ = [
    "CheckRecord",
    "SuiteReport",
    "run_verification_suite",
    "run_fuzz",
    "fuzz_target_ids",
    "check_duality_map_regression",
    "check_duality_identity_sweep",
    "check_metric_dual_cone_nonconvexity",
    "check_metric_double_dual_gap",
    "check_cone_projection_identities",
    "check_projection_solver_oracle",
    "check_generalized_double_duality",
    "check_intersection_dual_union",
    "check_face_examples",
    "check_ball_classification",
    "check_fixed_point_and_dual_vision",
    "check_primal_vision_nonconvexity",
]

_NO_WITNESS_NOTE = "no witness (expected at p=2)"


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


@dataclass(frozen=True)
class CheckRecord:
    """One verified fact: id, plain-language claim, verdict, numbers."""

    check_id: str
    claim: str
    status: str  # "pass" | "fail" | "inconclusive"
    values: dict
    notes: tuple[str, ...] = ()
    witnesses: tuple[dict, ...] = ()

    def to_json(self) -> dict:
        return {
            "check_id": self.check_id,
            "claim": self.claim,
            "status": self.status,
            "values": _jsonable(self.values),
            "notes": list(self.notes),
            "witnesses": [_jsonable(w) for w in self.witnesses],
        }


@dataclass(frozen=True)
class SuiteReport:
    """Aggregate of check records; deterministic given the seed."""

    kind: str  # "verification" | "fuzz"
    seed: int
    records: tuple[CheckRecord, ...]
    elapsed_seconds: float

    @property
    def ok(self) -> bool:
        return all(r.status == "pass" for r in self.records)

    def counts(self) -> dict:
        out = {"total": len(self.records), "passed": 0, "failed": 0, "inconclusive": 0}
        for r in self.records:
            key = {"pass": "passed", "fail": "failed"}.get(r.status, "inconclusive")
            out[key] += 1
        return out

    def summary_lines(self) -> list[str]:
        lines = [f"{r.status.upper():<6} {r.check_id}  {r.claim}" for r in self.records]
        c = self.counts()
        lines.append(
            f"{c['passed']}/{c['total']} passed, {c['failed']} failed, "
            f"{c['inconclusive']} inconclusive (seed {self.seed})"
        )
        return lines

    def to_json(self) -> dict:
        return {
            "tool": "lpgeom",
            "version": TOOLKIT_VERSION,
            "kind": self.kind,
            "seed": self.seed,
            "records": [r.to_json() for r in self.records],
            "summary": self.counts(),
            "elapsed_seconds": self.elapsed_seconds,
        }


def _record(check_id, claim, ok=True, values=None, notes=(), runs=()) -> CheckRecord:
    """A check's verdict; each property run adds its trials, failures and first hits."""
    values = dict(values or {})
    if runs:
        failures = sum(run.failures for run in runs)
        values.update(trials=sum(run.trials for run in runs), failures=failures)
        ok = ok and failures == 0
    hits = tuple(hit for run in runs for hit in run.hits)
    return CheckRecord(check_id, claim, "pass" if ok else "fail", values, tuple(notes), hits[:8])


# ---------------------------------------------------------------------------
# pinned instances shared by several checks; the two members of the pinned
# ray's metric dual cone are ``cones._PINNED_PAIR``

_RAY_DIR = (-25.0, -37.0, -77.0)
_SEGMENT_END = (25.0, 37.0, 77.0)
_ESCAPE_MARGIN = 14.0 * 4.0 ** (1.0 / 3.0)


def _pinned_ray(p: float):
    S = LpSpace(3, p)
    return S, Ray(S.zero(), S.point(_RAY_DIR))


# ---------------------------------------------------------------------------
# properties: one sampler, one predicate, optional pinned instances


# one claim: holds(*sample(rng, p)) is None or a hit dict (see the module docstring)
Property = namedtuple("Property", "sample holds pinned seeks_witness", defaults=(None, False))
# the outcome of testing one property on a batch of draws; crashes are among the hits
_Run = namedtuple("_Run", "hits trials failures crashes")


def _attempt(prop: Property, case, tag: dict) -> dict | None:
    """The tagged hit of ``prop`` on the case ``case()`` builds; a crash is a hit naming its exception."""
    try:
        hit = prop.holds(*case())
    except Exception as exc:
        return {**tag, "exception": type(exc).__name__, "message": str(exc)}
    return None if hit is None else {**hit, **tag}


def _test(prop: Property, draws, p: float | None) -> _Run:
    """Test ``prop`` on its pinned instances at ``p``, then once per ``(rng, exponent)`` draw."""
    pinned = [_attempt(prop, lambda: case, {"pinned": True}) for case in (prop.pinned(p) if prop.pinned else ())]
    drawn = [_attempt(prop, lambda: prop.sample(rng, q), {"trial": t}) for t, (rng, q) in enumerate(draws)]
    hits = [hit for hit in pinned + drawn if hit is not None]
    crashes = sum("exception" in hit for hit in hits)  # no predicate's hit has that key
    if prop.seeks_witness and p != 2.0:
        return _Run(hits, len(drawn), crashes + (0 if len(hits) > crashes else 1), crashes)
    return _Run(hits, len(drawn), len(hits), crashes)


def _batch(name: str, rng, exponents, p: float | None = None) -> _Run:
    """A check's run of property ``name``: one draw from ``rng`` per exponent."""
    return _test(_PROPERTIES[name], ((rng, q) for q in exponents), p)


_SET_KINDS = ("segment", "ray", "cone", "polytope", "ball", "line", "subspace")


def _random_space(rng, p: float | None, dims=(2, 5)) -> LpSpace:
    pp = p if p is not None else float(rng.choice([1.5, 2.0, 3.0, 4.0]))
    n = int(rng.integers(*dims))
    return LpSpace(n, pp, weights=rng.uniform(0.3, 3.0, n))


def _random_set(rng, S, kinds=_SET_KINDS):
    kind = kinds[int(rng.integers(len(kinds)))]
    g = lambda: S.point(rng.normal(size=S.n))  # noqa: E731
    if kind == "segment":
        return Segment(g(), g())
    if kind == "ray":
        return Ray(g(), g())
    if kind == "cone":
        return FinitelyGeneratedCone(g(), [g() for _ in range(int(rng.integers(1, 4)))])
    if kind == "polytope":
        return Polytope([g() for _ in range(int(rng.integers(2, 6)))])
    if kind == "ball":
        return Ball(S, float(rng.uniform(0.5, 3.0)))
    if kind == "line":
        return Line(g(), g())
    return Subspace(S, [g() for _ in range(int(rng.integers(1, S.n + 1)))])


def _pointed_cone(rng, S) -> FinitelyGeneratedCone:
    m = int(rng.integers(2, 5))
    raw = rng.normal(size=(m, S.n))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    raw[:, 0] = np.abs(raw[:, 0]) + 0.3
    return FinitelyGeneratedCone(S.zero(), [S.point(g) for g in raw])


# spaces: one sampler serves the duality-map, Lyapunov and window properties


def _sample_space_case(rng, p):
    S = _random_space(rng, p, dims=(2, 7))
    x = S.point(rng.normal(size=S.n) * 10.0 ** rng.uniform(-1.0, 1.0))
    lo = int(rng.integers(1, S.n + 1))
    window = list(range(lo, int(rng.integers(lo, S.n + 1)) + 1))
    return x, S.functional(rng.normal(size=S.n) * 2.0), window


def _duality_identities(x, _psi, _window):
    nx = norm(x)
    if nx == 0.0:
        return None
    jx = duality_map(x)
    bad = (
        abs(pair(jx, x) - nx**2) > 1e-10 * (1.0 + nx**2)
        or abs(norm(jx) - nx) > 1e-10 * (1.0 + nx)
        or norm(duality_map_inv(jx) - x) > 1e-8 * (1.0 + nx)
        or abs(lyapunov(jx, x)) > 1e-10
    )
    return {"x": x} if bad else None


def _lyapunov_bounds(x, psi, _window):
    v = lyapunov(psi, x)
    lower = (norm(psi) - norm(x)) ** 2
    bad = v < lower - 1e-9 * (1.0 + lower) or abs(lyapunov(duality_map(x), x)) > 1e-9 * (
        1.0 + norm(x) ** 2
    )
    return {"psi": psi, "x": x, "value": v} if bad else None


def _window_functionals(x, _psi, idx):
    S = x.space
    direct = float(np.sum(S.weights[np.array(idx) - 1] * x.coords[np.array(idx) - 1]))
    bad = abs(pair(window_functional(S, idx), x) - direct) > 1e-9 * (1.0 + abs(direct))
    return {"indices": idx, "x": x} if bad else None


# random sets: one sampler serves the eight properties that need a set, a
# point, a functional or a sampling seed


def _sample_set_case(rng, p):
    S = _random_space(rng, p)
    C = _random_set(rng, S)
    x = S.point(rng.normal(size=S.n) * 3.0)
    return C, x, S.functional(rng.normal(size=S.n) * 2.0), int(rng.integers(10**9))


def _set_sampling(C, _x, _psi, seed):
    bad = any(not C.contains(pt, 1e-7) for pt in C.sample(5, seed=seed))
    return {"set": type(C).__name__} if bad else None


def _support_bounds(C, _x, psi, seed):
    s = C.support(psi)
    if not math.isfinite(s):
        return None
    for pt in C.sample(5, seed=seed):
        if pair(psi, pt) > s + 1e-8 * (1.0 + abs(s)):
            return {"psi": psi, "point": pt, "support": s}
    return None


def _metric_projection_vi(C, x, _psi, _seed):
    res = metric_project(C, x)
    if not res.converged:
        return {"set": type(C).__name__, "vi_residual": res.vi_residual}
    check = vi_residual_metric(C, x, res.point)
    return None if check <= 1e-5 else {"set": type(C).__name__, "vi_residual": check}


def _metric_projection_idempotent(C, x, _psi, _seed):
    res = metric_project(C, x)
    again = metric_project(C, res.point)
    if not (res.converged and again.converged):
        return {"set": type(C).__name__, "uncertified": True}
    drift = norm(again.point - res.point)
    return None if drift <= 1e-6 * (1.0 + norm(res.point)) else {"drift": drift}


def _generalized_projection_vi(C, _x, psi, _seed):
    res = generalized_project(C, psi)
    if not res.converged:
        return {"set": type(C).__name__, "vi_residual": res.vi_residual}
    check = vi_residual_generalized(C, psi, res.point)
    return None if check <= 1e-5 else {"set": type(C).__name__, "vi_residual": check}


def _generalized_fixed_member(C, _x, _psi, seed):
    y = C.sample(1, seed=seed)[0]
    res = generalized_project(C, duality_map(y))
    if not res.converged:
        return {"set": type(C).__name__, "uncertified": True}
    drift = norm(res.point - y)
    return None if drift <= 1e-6 * (1.0 + norm(y)) else {"drift": drift}


def _face_attainment(C, _x, psi, _seed):
    desc = face(C, psi)
    for rep in desc.representatives:
        if not C.contains(rep, 1e-7):
            return {"kind": desc.kind, "rep": rep}
        if math.isfinite(desc.level):
            if abs(pair(psi, rep) - desc.level) > 1e-7 * (1.0 + abs(desc.level)):
                return {"kind": desc.kind, "rep": rep, "level": desc.level}
            if not face_membership(C, psi, rep):
                return {"kind": desc.kind, "rep": rep}
    return None


# random cones: one sampler serves the homogeneity and dual-vision properties


def _sample_cone_case(rng, p):
    S = _random_space(rng, p)
    gens = [S.point(rng.normal(size=S.n)) for _ in range(int(rng.integers(1, 4)))]
    vertex = S.point(rng.normal(size=S.n)) if rng.integers(2) else S.zero()
    x = S.point(rng.normal(size=S.n) * 3.0)
    t = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
    return gens, vertex, x, t


def _homogeneity(gens, _vertex, x, t):
    K = FinitelyGeneratedCone(x.space.zero(), gens)
    a = metric_project(K, t * x)
    b = metric_project(K, x)
    if not (a.converged and b.converged):
        return {"t": t, "uncertified": True}
    d, tb = a.point - t * b.point, t * b.point
    # relative error both in the norm and per coordinate
    err = max(
        norm(d) / (1.0 + norm(tb)),
        float(np.max(np.abs(d.coords)) / (1.0 + np.max(np.abs(tb.coords)))),
    )
    return None if err <= 1e-6 else {"t": t, "error": err}


def _witness_search(name: str) -> Property:
    """The search this module imports as ``name``, on random rays at exponent p (3 when
    None), the pinned ray first.  The name is looked up at each call, so a rebinding of
    it (a tracer's, say) reaches the search."""

    def sample(rng, p):
        S = LpSpace(3, 3.0 if p is None else p)
        return (Ray(S.zero(), S.point(rng.normal(size=3) * 20.0)),)

    def holds(K):
        w = globals()[name](K)
        return None if w is None or not w.revalidate() else {"witness": _witness_json(w)}

    def pinned(p):
        return [(_pinned_ray(p)[1],)]

    return Property(sample, holds, pinned, seeks_witness=True)


def _sample_cone_and_points(rng, p):
    S = _random_space(rng, p, dims=(2, 7))
    K = _pointed_cone(rng, S)
    G = np.stack([g.coords for g in K.generators], axis=0)
    inside = [S.point(rng.uniform(0.0, 2.0, len(G)) @ G) for _ in range(5)]
    outside = []
    for _ in range(5):
        zc = rng.normal(size=S.n) * 2.0
        # keep outsiders decisively outside the half-space holding the cone; one fit
        # decides, since every member is within contains' slack (far below 0.05 here)
        if K.distance(S.point(zc)) < 0.05:
            zc[0] = -abs(zc[0]) - 0.2
        outside.append(S.point(zc))
    return K, inside, outside


def _generalized_double_duality(K, inside, outside):
    try:
        for z in inside:
            if not generalized_double_dual_member(K, z):
                return {"inside": z}
        for z in outside:
            member = generalized_double_dual_member(K, z)
            cert = None if member else find_double_dual_certificate(K, z)
            if cert is None or not cert.revalidate():
                return {"outside": z}
    except RuntimeError as exc:
        return {"error": str(exc)}
    return None


def _sample_cone_pair(rng, p):
    S = _random_space(rng, p, dims=(2, 7))
    return ([_pointed_cone(rng, S), _pointed_cone(rng, S)],)


_PLANE_PAIR = (np.eye(2), [(1.0, 1.0), (-1.0, 1.0)])
_SPACE_PAIR = (np.eye(3), [(1.0, 1.0, 0.0), (0.0, 1.0, 1.0), (1.0, 0.0, 1.0)])
_THIRD_CONE = [(1.0, 2.0, 1.0), (2.0, 1.0, 1.0), (1.0, 1.0, 2.0)]
_R4_PAIR = (
    np.eye(4),
    [(1.0, 1.0, -1.0, 0.0), (0.0, 1.0, 1.0, -1.0), (-1.0, 0.0, 1.0, 1.0), (1.0, -1.0, 0.0, 1.0)],
)


def _pinned_families(p):
    """Plane, space and R^4 pairs and a three-cone family, unweighted: weights cancel here."""
    out = []
    for family in (_PLANE_PAIR, _SPACE_PAIR, (*_SPACE_PAIR, _THIRD_CONE), _R4_PAIR):
        S = LpSpace(len(family[1][0]), p)
        out.append(([FinitelyGeneratedCone(S.zero(), [S.point(g) for g in gens]) for gens in family],))
    return out


def _intersection_dual_union(cones):
    rep = intersection_dual_check_family(cones, tol=1e-8)
    if rep.ok and rep.forward_margin <= 1e-8 and rep.backward_residual <= 1e-8:
        return None
    return {"forward": rep.forward_margin, "backward": rep.backward_residual}


def _dual_vision_identity(gens, vertex, _x, _t):
    rep = dual_vision_identity_check(FinitelyGeneratedCone(vertex, gens))
    return None if rep.ok else {"disagreements": rep.disagreements}


def _sample_ball_point(rng, p):
    S = _random_space(rng, p)
    B = Ball(S, float(rng.uniform(0.5, 3.0)))
    g = S.point(rng.normal(size=S.n))
    inside = bool(rng.integers(2))
    scale = rng.uniform(0.05, 0.98) if inside else 1.0
    return B, (B.radius * scale / norm(g)) * g, "internal" if inside else "cuticle"


def _ball_classification(B, y, want):
    res = classify_point(B, y)
    if res.verdict == want and (res.verdict == "internal") == (res.witness is None):
        return None
    return {"y": y, "verdict": res.verdict}


def _sample_seen_point(rng, p):
    S = _random_space(rng, p)
    C = _random_set(rng, S, kinds=("segment", "ray", "polytope"))
    u = S.point(rng.normal(size=S.n) * 2.0)
    desc = face(C, duality_map(u))
    y = C.sample(1, seed=int(rng.integers(10**9)))[0]
    gap = desc.level - pair(duality_map(u), y)
    # a sample just off the face is decided by roundoff: take the face's own point
    if desc.representatives and (rng.integers(2) or gap <= 1e-3 * (1.0 + abs(desc.level))):
        y = desc.representatives[0]
    return C, u, y


def _fixed_point_equivalence(C, u, y):
    rep = fixed_point_check(C, u, y, tol=1e-6)
    if rep.agree and not rep.inconclusive:
        return None
    return {"u": u, "y": y, "set": type(C).__name__, "inconclusive": rep.inconclusive}


def _vision_conjugation(C, x, _psi, seed):
    """The paper's second route to a primal vision, on every set type: y sees x through J
    exactly when y = P_C(x + y) and y = pi_C(Jx + Jy).  y is the face point of J(x), or a
    sample of C when that face is empty."""
    desc = face(C, duality_map(x))
    y = desc.representatives[0] if desc.representatives else C.sample(1, seed=seed)[0]
    return _fixed_point_equivalence(C, x, y)


_PROPERTIES = {
    "duality-identities": Property(_sample_space_case, _duality_identities),
    "lyapunov-bounds": Property(_sample_space_case, _lyapunov_bounds),
    "window-functionals": Property(_sample_space_case, _window_functionals),
    "set-sampling": Property(_sample_set_case, _set_sampling),
    "support-bounds": Property(_sample_set_case, _support_bounds),
    "metric-projection-vi": Property(_sample_set_case, _metric_projection_vi),
    "metric-projection-idempotent": Property(_sample_set_case, _metric_projection_idempotent),
    "metric-projection-homogeneity": Property(_sample_cone_case, _homogeneity),
    "generalized-projection-vi": Property(_sample_set_case, _generalized_projection_vi),
    "generalized-projection-fixed-members": Property(_sample_set_case, _generalized_fixed_member),
    "metric-dual-convexity": _witness_search("probe_nonconvexity_metric_dual"),
    "metric-double-dual-gap": _witness_search("metric_double_dual_violation"),
    "generalized-double-duality": Property(_sample_cone_and_points, _generalized_double_duality),
    "intersection-dual-union": Property(
        _sample_cone_pair, _intersection_dual_union, _pinned_families
    ),
    "face-attainment": Property(_sample_set_case, _face_attainment),
    "vision-conjugation": Property(_sample_set_case, _vision_conjugation),
    "ball-classification": Property(_sample_ball_point, _ball_classification),
    "fixed-point-equivalence": Property(_sample_seen_point, _fixed_point_equivalence),
    "dual-vision-identity": Property(_sample_cone_case, _dual_vision_identity),
}


# ---------------------------------------------------------------------------
# check 01: duality-map values on two pinned vectors


def check_duality_map_regression(seed: int = 0) -> CheckRecord:
    S = LpSpace(3, 3.0)
    jx = duality_map(S.point(_PINNED_PAIR[0]))
    want_x = np.array([9.0, -4.0, -1.0]) * 36.0 ** (-1.0 / 3.0)
    err_x = float(np.max(np.abs(jx.coords - want_x)))

    jh = duality_map(S.point([7.0 / 3.0, -7.0 / 3.0, 0.0]))
    want_h = (7.0 * 4.0 ** (1.0 / 3.0) / 6.0) * np.array([1.0, -1.0, 0.0])
    err_h = float(np.max(np.abs(jh.coords - want_h)))

    return _record(
        "01-duality-map-regression",
        "duality map at exponent 3 reproduces both pinned vector images to 1e-12",
        err_x <= 1e-12 and err_h <= 1e-12,
        {"max_abs_error_first": err_x, "max_abs_error_second": err_h},
    )


# ---------------------------------------------------------------------------
# check 02: identity sweep over random weighted spaces


def check_duality_identity_sweep(seed: int = 0) -> CheckRecord:
    exponents = [p for p in (1.5, 2.0, 3.0, 4.0) for _ in range(250)]
    return _record(
        "02-duality-identity-sweep",
        "pairing, norm, inversion, and bracket identities of the duality map "
        "hold across 1000 random weighted spaces at exponents 1.5, 2, 3, 4",
        runs=[_batch("duality-identities", _rng(seed, 2), exponents)],
    )


# ---------------------------------------------------------------------------
# check 03: nonconvexity of the metric dual cone at p != 2

# random rays a witness-seeking check searches besides its pinned ray
_SEARCH_BATCH = 2


def _contrast_runs(name: str, check: int, seed: int) -> list[_Run]:
    """Witness search ``name`` at exponent 3, then at 2, from check ``check``'s one generator."""
    rng = _rng(seed, check)
    return [_batch(name, rng, (q,) * _SEARCH_BATCH, q) for q in (3.0, 2.0)]


def check_metric_dual_cone_nonconvexity(seed: int = 0) -> CheckRecord:
    runs = _contrast_runs("metric-dual-convexity", 3, seed)
    S, K = _pinned_ray(3.0)
    u = S.point(_RAY_DIR)
    x = S.point(_PINNED_PAIR[0])
    y = S.point(_PINNED_PAIR[1])
    h = (2.0 / 3.0) * x + (1.0 / 3.0) * y
    pair_x = pair(duality_map(x), u)
    pair_y = pair(duality_map(y), u)
    members = member_metric_dual(K, x) and member_metric_dual(K, y)
    escaped = not member_metric_dual(K, h)
    # violation of the defining inequality per unit of the ray coefficient
    violation = -pair(duality_map(h), u)
    target = -_ESCAPE_MARGIN

    margin = next((hit["witness"]["value"] for hit in runs[0].hits if hit.get("pinned")), None)
    ok = (
        members
        and escaped
        and max(abs(pair_x), abs(pair_y)) <= 1e-9
        and abs(violation - target) <= 1e-9
        and margin is not None
        and abs(margin - _ESCAPE_MARGIN) <= 1e-9
    )
    return _record(
        "03-metric-dual-cone-nonconvexity",
        "two certified members of the metric dual cone of the pinned ray have a "
        "convex combination that escapes with violation -14*4^(1/3) per unit coefficient "
        "at exponent 3, while the probe at exponent 2 finds no escape",
        ok,
        {
            "member_pairing_first": pair_x,
            "member_pairing_second": pair_y,
            "violation_per_unit": violation,
            "violation_target": target,
            "witness_margin": margin,
        },
        notes=[_NO_WITNESS_NOTE for run in runs if not run.hits],
        runs=runs,
    )


# ---------------------------------------------------------------------------
# check 04: metric double dualization does not recover the ray


def check_metric_double_dual_gap(seed: int = 0) -> CheckRecord:
    runs = _contrast_runs("metric-double-dual-gap", 4, seed)
    S, K = _pinned_ray(3.0)
    u = S.point(_RAY_DIR)
    x = S.point(_PINNED_PAIR[0])
    direct = pair(duality_map(u), x)
    margin = next((hit["witness"]["value"] for hit in runs[0].hits if hit.get("pinned")), None)
    return _record(
        "04-metric-double-dual-gap",
        "a certified dual-cone member separates the pinned ray from its metric "
        "double dual at exponent 3, while the search at exponent 2 finds no gap",
        member_metric_dual(K, x) and (-direct) < -1e-6 and margin is not None,
        {"pair_ju_with_minus_x": -direct, "witness_margin": margin},
        notes=[_NO_WITNESS_NOTE for run in runs if not run.hits],
        runs=runs,
    )


# ---------------------------------------------------------------------------
# check 05: cone projection identities


def check_cone_projection_identities(seed: int = 0) -> CheckRecord:
    rng = _rng(seed, 5)
    S, K = _pinned_ray(3.0)
    w = S.point([-28.0, -35.0, -76.0])
    res = metric_project(K, w)
    d = np.asarray(_RAY_DIR)
    t_star = float(np.dot(res.point.coords, d) / np.dot(d, d))
    delta = hilbert_identity_violation(K, w)
    values = {"t_star": t_star, "vi_residual": res.vi_residual, "identity_defect": delta}
    main_ok = (
        res.converged
        and abs(t_star - 1.0) <= 1e-6
        and res.vi_residual <= 1e-9
        and delta < -1e-3
    )

    homogeneity = _batch("metric-projection-homogeneity", rng, (1.5,) * 50 + (3.0,) * 50)

    worst_p2 = 0.0
    for k in range(100):
        S2 = LpSpace(3, 2.0, weights=rng.uniform(0.4, 2.5, 3))
        if k % 2 == 0:
            K2 = Ray(S2.zero(), S2.point(rng.normal(size=3)))
        else:
            K2 = FinitelyGeneratedCone(
                S2.zero(), [S2.point(e) for e in np.eye(3)]
            )
        w2 = S2.point(rng.normal(size=3) * 2.0)
        worst_p2 = max(worst_p2, abs(hilbert_identity_violation(K2, w2)))
    values["worst_p2_identity_defect"] = worst_p2

    return _record(
        "05-cone-projection-identities",
        "projection onto the pinned ray lands on its generator with a certified "
        "residual, the inner-product identity defect is strictly negative at "
        "exponent 3 and vanishes at exponent 2, and projection is positively homogeneous",
        main_ok and worst_p2 <= 1e-8,
        values,
        runs=[homogeneity],
    )


# ---------------------------------------------------------------------------
# check 06: solver versus an independent line-search oracle


def _oracle_line_minima(x, base, direction, p, weights, bounded) -> np.ndarray:
    """min over t of ||x - (base + t direction)||_p^2 for each row of the arguments.

    t ranges over [0, 1] where ``bounded`` (a segment) and over t >= 0
    elsewhere (a ray), whose bracket [0, 2 hi] doubles hi from 1 while the
    objective still falls.  Golden-section search on a convex function
    then shrinks each bracket below one part in 1e12 of its width, finer
    than any million-point grid.  All rows run in lockstep; a row stops
    moving once its own bracket is small enough, so each row takes the
    steps a search of its own would take.
    """

    def f(t):  # each row's ||x - (base + t direction)||_p^2 at its own exponent and weights
        diff = x - (base + t[:, None] * direction)
        return np.sum(weights * np.abs(diff) ** p[:, None], axis=1) ** (2.0 / p)

    hi = np.ones(len(x))
    grow = ~bounded
    while True:
        grow &= (f(2.0 * hi) < f(hi)) & (hi < 1e8)
        if not grow.any():
            break
        hi = np.where(grow, 2.0 * hi, hi)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = np.zeros(len(x)), np.where(bounded, 1.0, 2.0 * hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(240):
        live = (b - a) > 1e-12 * (1.0 + np.abs(a) + np.abs(b))
        if not live.any():
            break
        # left rows keep [a, d], and their c becomes d; right rows keep [c, b], and their d becomes c
        left = live & (fc < fd)
        right = live & ~left
        a, b = np.where(right, c, a), np.where(left, d, b)
        c, d = np.where(right, d, c), np.where(left, c, d)
        fc, fd = np.where(right, fd, fc), np.where(left, fc, fd)
        c = np.where(left, b - invphi * (b - a), c)
        d = np.where(right, a + invphi * (b - a), d)
        f_new = f(np.where(left, c, d))
        fc, fd = np.where(left, f_new, fc), np.where(right, f_new, fd)
    return np.minimum.reduce([f(a), fc, fd, f(b)])


def check_projection_solver_oracle(seed: int = 0) -> CheckRecord:
    rng = _rng(seed, 6)
    cases, objectives = [], []  # each certified instance and its solver objective
    for p in (1.5, 3.0):
        for i in range(100):
            weights = rng.uniform(0.3, 3.0, 3)
            S = LpSpace(3, p, weights=weights)
            base = rng.normal(size=3)
            direction = rng.normal(size=3)
            bounded = i % 2 == 1
            if bounded:
                C = Segment(S.point(base), S.point(base + direction))
            else:
                C = Ray(S.point(base), S.point(direction))
            x = S.point(rng.normal(size=3) * 2.0)
            res = metric_project(C, x)
            if res.converged:
                cases.append((x.coords, base, direction, p, weights, bounded))
                objectives.append(res.objective)
    oracle_trials = len(cases)
    worst_gap = math.inf  # one uncertified instance makes the gap infinite
    if oracle_trials == 200:
        oracle = _oracle_line_minima(*(np.array(col) for col in zip(*cases)))
        worst_gap = float(np.max(np.abs(np.array(objectives) - oracle)))

    worst_closed = 0.0
    closed_trials = 0
    for _ in range(30):
        weights = rng.uniform(0.3, 3.0, 3)
        S = LpSpace(3, 2.0, weights=weights)
        x = rng.normal(size=3) * 2.0
        r = float(rng.uniform(0.5, 2.5))
        nx = math.sqrt(float(np.sum(weights * x**2)))
        want_ball = x if nx <= r else x * (r / nx)
        got = metric_project(Ball(S, r), S.point(x)).point.coords
        worst_closed = max(worst_closed, float(np.max(np.abs(got - want_ball))))

        a = rng.normal(size=3)
        d = rng.normal(size=3)
        t = float(np.clip(np.sum(weights * (x - a) * d) / np.sum(weights * d * d), 0.0, 1.0))
        want_seg = a + t * d
        got = metric_project(Segment(S.point(a), S.point(a + d)), S.point(x)).point.coords
        worst_closed = max(worst_closed, float(np.max(np.abs(got - want_seg))))

        K = FinitelyGeneratedCone(S.zero(), [S.point(e) for e in np.eye(3)])
        got = metric_project(K, S.point(x)).point.coords
        worst_closed = max(worst_closed, float(np.max(np.abs(got - np.maximum(x, 0.0)))))
        closed_trials += 3

    ok = oracle_trials == 200 and worst_gap <= 1e-8 and worst_closed <= 1e-8
    return _record(
        "06-projection-solver-oracle",
        "solver objectives match an independent golden-section oracle on 200 "
        "ray and segment instances, and Euclidean closed forms at exponent 2",
        ok,
        {
            "oracle_trials": oracle_trials,
            "worst_objective_gap": worst_gap,
            "closed_form_trials": closed_trials,
            "worst_closed_form_gap": worst_closed,
        },
    )


# ---------------------------------------------------------------------------
# check 07: generalized double duality on random cones


def check_generalized_double_duality(seed: int = 0) -> CheckRecord:
    # 20 cones, each with 5 sampled members and 5 outsiders
    exponents = [(1.5, 2.0, 3.0)[c % 3] for c in range(20)]
    return _record(
        "07-generalized-double-duality",
        "on 20 random cones every sampled member passes double-dual membership, "
        "every sampled outsider fails with a validated separating functional, "
        "and the primal and certificate routes never disagree",
        runs=[_batch("generalized-double-duality", _rng(seed, 7), exponents)],
    )


# ---------------------------------------------------------------------------
# check 08: dual of an intersection versus hull of the union of duals


def check_intersection_dual_union(seed: int = 0) -> CheckRecord:
    rng = _rng(seed, 8)
    return _record(
        "08-intersection-dual-union",
        "the generalized dual of an intersection equals the closed conic hull "
        "of the union of duals, on plane and space cone pairs and a three-cone family",
        runs=[_batch("intersection-dual-union", rng, (p,), p) for p in (2.0, 3.0)],
    )


# ---------------------------------------------------------------------------
# check 09: pinned face computations


def check_face_examples(seed: int = 0) -> CheckRecord:
    S = LpSpace(3, 3.0)
    C = Ray(S.zero(), S.point([25.0, 37.0, 77.0]))
    whole = face(C, S.functional([-9.0, 4.0, 1.0]))
    origin = face(C, S.functional([-1.0, -1.0, -1.0]))
    gone = face(C, S.functional([1.0, 1.0, 1.0]))
    trio_ok = (
        whole.kind == "whole-set"
        and whole.level == 0.0
        and origin.kind == "singleton"
        and float(np.max(np.abs(origin.representatives[0].coords))) == 0.0
        and gone.kind == "empty"
        and math.isinf(gone.level)
    )

    M = 1.0
    S1 = LpSpace(5, 1.0)
    w1 = window_functional(S1, [1, 2])
    d1 = face(Ball(S1, M), w1)
    uniform = d1.representatives[0]
    p1_ok = (
        abs(d1.level - M) <= 1e-12
        and np.max(np.abs(uniform.coords - np.array([0.5, 0.5, 0.0, 0.0, 0.0]))) <= 1e-12
        and face_membership(Ball(S1, M), w1, uniform)
    )

    S3 = LpSpace(5, 3.0)
    w3 = window_functional(S3, [1, 2])
    d3 = face(Ball(S3, M), w3)
    rep = d3.representatives[0]
    want_level = M * 2.0 ** (2.0 / 3.0)
    p3_ok = (
        d3.kind == "singleton"
        and abs(d3.level - want_level) <= 1e-9
        and abs(rep.coords[0] - rep.coords[1]) <= 1e-12
        and float(np.max(np.abs(rep.coords[2:]))) <= 1e-15
        and abs(norm(rep) - M) <= 1e-12
    )

    flag = (
        "at exponent 3 the attained level of the length-2 window on the unit "
        "ball is 2^(2/3), not 1: the window-sum-equals-radius description of "
        "this face is exact only at exponent 1 or window length 1, because "
        "the plain sum bound misses the factor (window length)^(1/q) for p > 1"
    )
    return _record(
        "09-face-examples",
        "the pinned ray face trichotomy and the window-functional ball faces "
        "come out exactly, and the level discrepancy at exponents above 1 is flagged",
        trio_ok and p1_ok and p3_ok,
        {
            "trio_kinds": [whole.kind, origin.kind, gone.kind],
            "window_level_p1": d1.level,
            "window_level_p3": d3.level,
            "window_level_p3_target": want_level,
            "level_discrepancy_flagged": True,
        },
        notes=(flag,),
    )


# ---------------------------------------------------------------------------
# check 10: ball classification and sphere visions


def check_ball_classification(seed: int = 0) -> CheckRecord:
    rng = _rng(seed, 10)
    classified = _batch("ball-classification", rng, (1.5,) * 500 + (3.0,) * 500)
    r = 2.0
    accept_hits = reject_hits = 0
    for p in (1.5, 3.0):
        S = LpSpace(4, p, weights=rng.uniform(0.4, 2.5, 4))
        B = Ball(S, r)
        for _ in range(50):
            y = S.point(rng.normal(size=4))
            y = (r / norm(y)) * y
            jy = duality_map(y)
            t = float(rng.uniform(0.1, 5.0))
            if vision_dual_member(B, y, t * jy) and vision_dual_member(B, y, 0.0 * jy):
                accept_hits += 1
            psi = S.functional(rng.normal(size=4))
            while r * norm(psi) - pair(psi, y) <= 1e-6 * (1.0 + r * norm(psi)):
                psi = S.functional(rng.normal(size=4))
            if not vision_dual_member(B, y, psi):
                reject_hits += 1

    return _record(
        "10-ball-classification",
        "1000 ball points classify exactly by the norm rule with a valid witness "
        "partition, and sphere visions are exactly the nonnegative multiples of "
        "the duality image",
        accept_hits == 100 and reject_hits == 100,
        {"aligned_accepted": accept_hits, "non_aligned_rejected": reject_hits},
        runs=[classified],
    )


# ---------------------------------------------------------------------------
# check 11: fixed-point equivalences and the dual-cone/vision identity


def check_fixed_point_and_dual_vision(seed: int = 0) -> CheckRecord:
    rng = _rng(seed, 11)
    return _record(
        "11-fixed-point-and-dual-vision",
        "face membership, the metric fixed-point equation, and the generalized "
        "fixed-point equation agree on 100 random instances, and membership in a "
        "generalized dual cone matches face membership of the shifted functional",
        runs=[
            _batch("fixed-point-equivalence", rng, (1.5, 3.0) * 50),
            # 20 cones, each on its polar generators and across their facets
            _batch("dual-vision-identity", rng, (1.5, 3.0) * 10),
        ],
    )


# ---------------------------------------------------------------------------
# check 12: primal visions form a nonconvex set at p != 2


def _hilbert_vision_escapes() -> tuple[int, int]:
    """(candidates, escapes) of the primal vision of the pinned segment endpoint at exponent 2.

    The primal vision of y on [0, y] is {u : <J u, y> >= 0}, the metric dual
    cone of the pinned ray, which runs through -y.  So its members are built
    from that ray's polar (``cones._polar_members``), not drawn.  Each member,
    and each ``_LAMBDAS`` combination of two of the unit-generator members,
    must see y; an escape is one that does not.
    """
    S, K = _pinned_ray(2.0)
    y = S.point(_SEGMENT_END)
    C = Segment(S.zero(), y)
    members = _polar_members(K)
    a, b = np.triu_indices(len(K._polar), k=1)
    lam = _LAMBDAS[:, None, None]
    mixes = (lam * members[a] + (1.0 - lam) * members[b]).reshape(-1, S.n)
    candidates = np.vstack([members, mixes])
    escapes = sum(not vision_primal_member(C, y, S.point(u)) for u in candidates)
    return len(candidates), escapes


def check_primal_vision_nonconvexity(seed: int = 0) -> CheckRecord:
    S = LpSpace(3, 3.0)
    y = S.point(_SEGMENT_END)
    C = Segment(S.zero(), y)
    x = S.point(_PINNED_PAIR[0])
    z = S.point(_PINNED_PAIR[1])
    h = (2.0 / 3.0) * x + (1.0 / 3.0) * z
    px = pair(duality_map(x), y)
    pz = pair(duality_map(z), y)
    ph = pair(duality_map(h), y)
    scale = 1e-9 * (1.0 + float(np.linalg.norm(y.coords)))
    ok = (
        vision_primal_member(C, y, x)
        and vision_primal_member(C, y, z)
        and not vision_primal_member(C, y, h)
        and abs(px) <= scale
        and abs(pz) <= scale
        and ph <= -1e-6
    )
    candidates, escapes = _hilbert_vision_escapes()
    return _record(
        "12-primal-vision-nonconvexity",
        "two points that see the pinned segment endpoint combine to one that "
        "does not, with the expected pairing signs, at exponent 3, while at exponent 2 "
        "every built member of its vision and their convex combinations see it",
        ok and escapes == 0,
        {
            "pairing_first": px,
            "pairing_second": pz,
            "pairing_combination": ph,
            "p2_candidates": candidates,
            "p2_escapes": escapes,
        },
        notes=() if escapes else (_NO_WITNESS_NOTE,),
    )


# ---------------------------------------------------------------------------
# suite runner

_CHECKS = tuple(globals()[name] for name in __all__ if name.startswith("check_"))


def run_verification_suite(seed: int = 0) -> SuiteReport:
    """Run all twelve checks and aggregate a deterministic report."""
    t0 = time.perf_counter()
    records = sorted((fn(seed=seed) for fn in _CHECKS), key=lambda r: r.check_id)
    return SuiteReport("verification", int(seed), tuple(records), time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# fuzz targets: the properties above, one fresh generator per trial


def fuzz_target_ids() -> tuple[str, ...]:
    return tuple(sorted(_PROPERTIES))


def run_fuzz(target: str, trials: int = 200, seed: int = 0, p: float | None = None) -> SuiteReport:
    """Fuzz one named property: its pinned instances at ``p`` (3 when None),
    then ``trials`` draws; deterministic given the seed.  A run of no draws tests
    nothing on most targets, so ``trials`` below 1 is refused."""
    if target not in _PROPERTIES:
        raise ValueError(
            f"unknown fuzz target {target!r}; known: {', '.join(fuzz_target_ids())}"
        )
    if int(trials) < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    prop = _PROPERTIES[target]
    index = fuzz_target_ids().index(target)
    pp = p if p is not None else 3.0
    t0 = time.perf_counter()
    run = _test(prop, ((_rng(seed, index, t), p) for t in range(int(trials))), pp)

    notes = []
    if prop.seeks_witness and pp != 2.0:
        notes.append(f"{len(run.hits) - run.crashes} witnesses found (successes for this target)")
    elif prop.seeks_witness and len(run.hits) == run.crashes:
        notes.append(_NO_WITNESS_NOTE)

    record = CheckRecord(
        f"fuzz-{target}",
        f"randomized property run for '{target}'",
        "pass" if run.failures == 0 else "fail",
        {
            "target": target,
            "trials": run.trials,
            "failures": run.failures,
            "witness_count": len(run.hits) - run.crashes,
            "p": pp if prop.seeks_witness else p,
        },
        tuple(notes),
        tuple(run.hits[:8]),
    )
    return SuiteReport("fuzz", int(seed), (record,), time.perf_counter() - t0)
