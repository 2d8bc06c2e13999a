"""Checks of lpgeom's outputs that share no code with lpgeom's solvers or certificates.

The projection checker carries its own weighted l_p norm, duality map
and pairing.  It accepts a candidate u for the projection of x (or of a
functional psi) onto C only when

* u is a member of C, by the checker's own coefficient fit
  (bounded-variable least squares from scipy, not lpgeom's NNLS path);
* the variational inequality <phi, u - z> >= 0 holds against every
  vertex, generator or direction of C, where phi = J(x - u) for the
  metric projection and phi = psi - J(u) for the generalized one, each
  term scaled by the squared length scale of the data;
* no member the checker draws itself, or point on the segment from u
  toward it, has a smaller objective.

Every check returns ``None`` on success and a one-line reason on failure.
"""

from __future__ import annotations

import json
import os

import numpy as np
from scipy.optimize import lsq_linear

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MEMBER_TOL = 1e-8  # membership residual, relative to 1 + the data's Euclidean scale
VI_TOL = 1e-7  # worst VI term, relative to the square of the data's l_p length scale
OBJ_TOL = 1e-10  # objective decrease allowed to roundoff, relative to its magnitude


# ---------------------------------------------------------------------------
# weighted l_p arithmetic, written out from the definitions


def lp_norm(v: np.ndarray, p: float, w: np.ndarray) -> float:
    return float(np.sum(w * np.abs(v) ** p) ** (1.0 / p))


def conj(p: float) -> float:
    return p / (p - 1.0)


def jmap(v: np.ndarray, p: float, w: np.ndarray) -> np.ndarray:
    """Normalized duality map: the gradient of |v|^2 / 2 under the weighted pairing."""
    nv = lp_norm(v, p, w)
    if nv == 0.0:
        return np.zeros_like(v)
    return nv ** (2.0 - p) * np.sign(v) * np.abs(v) ** (p - 1.0)


def pairing(phi: np.ndarray, v: np.ndarray, w: np.ndarray) -> float:
    return float(np.sum(w * phi * v))


# ---------------------------------------------------------------------------
# sets as arrays


def _arrays(set_doc: dict, n: int):
    """(points, directions, lines, ball radius) describing the set's geometry."""
    t = set_doc["type"]
    A = lambda rows: np.asarray(rows, dtype=float).reshape(-1, n)  # noqa: E731
    if t == "segment":
        return A([set_doc["a"], set_doc["b"]]), A([]), A([]), None
    if t == "polytope":
        return A(set_doc["vertices"]), A([]), A([]), None
    if t == "ray":
        return A([set_doc["vertex"]]), A([set_doc["direction"]]), A([]), None
    if t == "cone":
        return A([set_doc["vertex"]]), A(set_doc["generators"]), A([]), None
    if t == "line":
        return A([set_doc["point"]]), A([]), A([set_doc["direction"]]), None
    if t == "subspace":
        return A([np.zeros(n)]), A([]), A(set_doc["basis"]), None
    if t == "ball":
        return A([]), A([]), A([]), float(set_doc["r"])
    raise ValueError(f"unknown set type {t!r}")


def membership_residual(set_doc: dict, u: np.ndarray, p: float, w: np.ndarray) -> float:
    """Distance-like residual of the best coefficient fit of u; 0 on members."""
    n = u.size
    t = set_doc["type"]
    if t == "ball":
        return max(0.0, lp_norm(u, p, w) - float(set_doc["r"]))
    P, D, L, _ = _arrays(set_doc, n)
    if t in ("segment", "polytope"):
        # convex weights: lambda >= 0 with the sum pinned by a heavy extra row
        rho = 1e3 * (1.0 + float(np.max(np.linalg.norm(P, axis=1))) + float(np.linalg.norm(u)))
        M = np.vstack([P.T, np.full(P.shape[0], rho)])
        b = np.concatenate([u, [rho]])
        res = lsq_linear(M, b, bounds=(0.0, np.inf), method="bvls")
        return float(np.linalg.norm(M @ res.x - b))
    base = P[0]
    cols = [D.T] if D.size else []
    lo = [np.zeros(D.shape[0])] if D.size else []
    if L.size:
        cols.append(L.T)
        lo.append(np.full(L.shape[0], -np.inf))
    if not cols:
        return float(np.linalg.norm(u - base))
    M = np.hstack(cols)
    res = lsq_linear(M, u - base, bounds=(np.concatenate(lo), np.inf), method="bvls")
    return float(np.linalg.norm(M @ res.x - (u - base)))


def sample_members(set_doc: dict, n: int, p: float, w: np.ndarray, rng, count: int) -> list[np.ndarray]:
    P, D, L, r = _arrays(set_doc, n)
    t = set_doc["type"]
    out = []
    for _ in range(count):
        if r is not None:
            g = rng.normal(size=n)
            out.append(g / lp_norm(g, p, w) * r * rng.uniform() ** (1.0 / n))
        elif t in ("segment", "polytope"):
            out.append(rng.dirichlet(np.full(P.shape[0], 0.5)) @ P)
        else:
            z = P[0].copy()
            if D.size:
                c = rng.exponential(size=D.shape[0]) * (rng.uniform(size=D.shape[0]) < 0.5)
                z = z + c @ D
            if L.size:
                z = z + rng.normal(size=L.shape[0]) * 2.0 @ L
            out.append(z)
    return out


# ---------------------------------------------------------------------------
# projections


def check_projection(problem: dict, u, rng=None) -> str | None:
    """Independent check that u is the metric or generalized projection in ``problem``.

    ``problem`` holds ``kind`` ("metric" or "generalized"), ``space``
    (n, p, weights), ``set`` (the CLI's set document), and ``point`` or
    ``functional``.
    """
    space = problem["space"]
    n, p = int(space["n"]), float(space["p"])
    w = np.asarray(space["weights"], dtype=float)
    u = np.asarray(u, dtype=float)
    set_doc = problem["set"]
    metric = problem["kind"] == "metric"
    arg = np.asarray(problem["point"] if metric else problem["functional"], dtype=float)
    if u.shape != (n,) or not np.all(np.isfinite(u)):
        return "answer is not a finite point of the space"

    P, D, L, r = _arrays(set_doc, n)
    data = [*P, *D, *L, arg, u]
    scale_e = max(float(np.linalg.norm(v)) for v in data)
    sizes = [lp_norm(v, p, w) for v in (*P, *D, *L, u)]
    sizes.append(lp_norm(arg, p if metric else conj(p), w))
    length = 1.0 + max(sizes + ([r] if r is not None else []))

    resid = membership_residual(set_doc, u, p, w)
    if resid > MEMBER_TOL * (1.0 + scale_e + (r or 0.0)):
        return f"answer is not a member of the set (fit residual {resid:.3e})"

    # |phi|_* is at most twice the length scale for both kinds, so each term is
    # scaled by length^2 (points) or length * |d| (directions); scaling by
    # |phi|_* instead would blow roundoff up when phi vanishes at the answer
    phi = jmap(arg - u, p, w) if metric else arg - jmap(u, p, w)
    terms = [pairing(phi, z - u, w) / length**2 for z in P]
    terms += [pairing(phi, d, w) / (length * lp_norm(d, p, w)) for d in D]
    terms += [abs(pairing(phi, d, w)) / (length * lp_norm(d, p, w)) for d in L]
    if r is not None:
        terms.append((r * lp_norm(phi, conj(p), w) - pairing(phi, u, w)) / length**2)
    worst = max(terms)
    if worst > VI_TOL:
        return f"variational inequality violated (scaled residual {worst:.3e})"

    if metric:
        f = lambda z: lp_norm(arg - z, p, w) ** 2  # noqa: E731
    else:
        npsi2 = lp_norm(arg, conj(p), w) ** 2
        f = lambda z: npsi2 - 2.0 * pairing(arg, z, w) + lp_norm(z, p, w) ** 2  # noqa: E731
    rng = rng if rng is not None else np.random.default_rng(0)
    fu = f(u)
    slack = OBJ_TOL * (1.0 + abs(fu) + (0.0 if metric else npsi2 + lp_norm(u, p, w) ** 2))
    for m in sample_members(set_doc, n, p, w, rng, 6):
        for eps in (1.0, 1e-1, 1e-3):
            z = u + eps * (m - u)
            if f(z) < fu - slack:
                return f"a member has a smaller objective ({f(z):.12g} < {fu:.12g})"
    return None


# ---------------------------------------------------------------------------
# verification-suite records

THIRTY_SIX = 36.0 ** (-1.0 / 3.0) * np.array([9.0, -4.0, -1.0])  # J(3, -2, -1) at p = 3
ESCAPE = -14.0 * 4.0 ** (1.0 / 3.0)  # check 03's violation per unit coefficient


def check_record(op: dict, record_json: dict, program_jmap=None) -> str | None:
    """A check or fuzz record must pass and, where pinned, match closed forms.

    ``program_jmap`` is lpgeom's duality map at p = 3 on (3, -2, -1),
    compared for check 01 against the closed form computed here.
    """
    if record_json.get("status") != "pass":
        return f"record {record_json.get('check_id')} has status {record_json.get('status')!r}"
    vals = record_json.get("values", {})
    if "target" in op:
        if vals.get("trials") != op["trials"] or vals.get("failures") != 0:
            return f"fuzz record reports {vals.get('failures')} failures in {vals.get('trials')} trials"
        return None
    if not str(record_json.get("check_id", "")).startswith(op["check"] + "-"):
        return f"record id {record_json.get('check_id')!r} is not check {op['check']}"
    if op["check"] == "01":
        if program_jmap is None:
            return "check 01 needs the program's duality map value"
        err = float(np.max(np.abs(np.asarray(program_jmap) - THIRTY_SIX)))
        if err > 1e-12:
            return f"J(3, -2, -1) differs from 36^(-1/3)(9, -4, -1) by {err:.3e}"
    if op["check"] == "03":
        got = vals.get("violation_per_unit")
        margin = vals.get("witness_margin")
        if got is None or abs(got - ESCAPE) > 1e-9 * abs(ESCAPE):
            return f"violation per unit {got!r} differs from -14*4^(1/3) = {ESCAPE!r}"
        if margin is None or abs(margin + ESCAPE) > 1e-9 * abs(ESCAPE):
            return f"witness margin {margin!r} differs from 14*4^(1/3)"
    return None


def check_repeat(first: dict, second: dict) -> str | None:
    """The same call at the same seed must give the same record, timing aside."""
    a = json.dumps(first, sort_keys=True)
    b = json.dumps(second, sort_keys=True)
    return None if a == b else "the same call at the same seed gave a different record"


# ---------------------------------------------------------------------------
# CLI results

_SCHEMA = None


def _result_validator():
    global _SCHEMA
    if _SCHEMA is None:
        import jsonschema

        path = os.path.join(ROOT, "src", "lpgeom", "schemas", "result.schema.json")
        with open(path, encoding="utf-8") as fh:
            _SCHEMA = jsonschema.Draft202012Validator(json.load(fh))
    return _SCHEMA


def check_cli(op: dict, returncode: int, stdout: str) -> str | None:
    """Exit code 0, a schema-valid result document, and a correct answer."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    errors = sorted(_result_validator().iter_errors(doc), key=str)
    if errors:
        return f"output fails result.schema.json: {errors[0].message}"
    if doc["status"] != "pass":
        return f"status {doc['status']!r}"
    prob = op["doc"]
    res = doc["result"]
    sub = op["subcommand"]
    if sub in ("project", "gproject"):
        if not res.get("converged"):
            return "projection reported converged: false"
        kind = "metric" if sub == "project" else "generalized"
        return check_projection({**prob, "kind": kind}, res["point"])
    w = np.asarray(prob["space"]["weights"], dtype=float)
    if sub == "face":
        V = np.asarray(prob["set"]["vertices"], dtype=float)
        psi = np.asarray(prob["functional"], dtype=float)
        vals = np.array([pairing(psi, v, w) for v in V])
        level = float(np.max(vals))
        tol = 1e-9 * (1.0 + float(np.max(np.abs(vals))))
        if res["unbounded"] or res["level"] is None or abs(res["level"] - level) > tol:
            return f"face level {res['level']!r} differs from the top vertex value {level!r}"
        reps = np.asarray(res["representatives"], dtype=float).reshape(-1, V.shape[1])
        if reps.shape[0] == 0:
            return "face has no representatives"
        for rep in reps:
            if abs(pairing(psi, rep, w) - level) > tol:
                return "a face representative does not attain the level"
            if not np.any(np.all(np.abs(V - rep) <= 1e-12 * (1.0 + np.abs(V)), axis=1)):
                return "a face representative is not a vertex of the polytope"
        return None
    if sub == "classify":
        if res["verdict"] != op["expect_verdict"]:
            return f"verdict {res['verdict']!r}, expected {op['expect_verdict']!r}"
        return None
    if sub == "dualcone":
        if res["member"] != op["expect_member"]:
            return f"membership {res['member']!r}, expected {op['expect_member']!r}"
        return None
    return f"no checker for subcommand {sub!r}"
