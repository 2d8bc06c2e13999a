"""Command-line front end: JSON problems in, schema-checked JSON out.

Problem documents validate against ``schemas/problem.schema.json`` before
anything runs; unknown fields are rejected.  Each operation returns the
library's record (a ``ProjectionResult``, ``ClassifyResult``,
``IntersectionDualReport`` or ``Witness``) or a dict of library values,
and ``encoding._jsonable`` writes it field by field, once; the text lines
print the encoded fields.  So a new record field must join
``schemas/result.schema.json``, which refuses unknown fields.  Every
emitted document is validated against the matching published schema
before printing, and numbers ride through ``json`` with shortest
round-trip formatting, so a document read back reproduces the exact
floats.  The package's own validator, ``_schemacheck``, does both checks;
it implements just the keywords the three schemas use, so no command
imports jsonschema.  Exit codes: 0 all pass, 1 a check failed, 2 usage or
schema error, 3 any other exception, which ``--json`` reports in a result
document of status "error", as for a duality map that overflows.  Problem
documents are standard JSON: NaN and Infinity are refused, with exit 2.

A single operation's tolerance is the document's ``tol`` field, which the
schema keeps positive; no command takes a ``--tol`` option.  It is the
projections' ``vi_tol``.  ``verify`` has one configuration: its checks
test both exponents of every contrast.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from importlib import resources

from ._schemacheck import ValidationError, Validator
from .cones import (
    _identity_defect,
    _vertex_and_generators,
    find_double_dual_certificate,
    generalized_double_dual_member,
    intersection_dual_check_family,
    member_generalized_dual,
    member_metric_dual,
    metric_double_dual_violation,
    probe_nonconvexity_metric_dual,
)
from .encoding import TOOLKIT_VERSION, _jsonable
from .faces import classify_point, face, vision_dual_member, vision_primal_member
from .projections import generalized_project, metric_project
from .sets import Ball, FinitelyGeneratedCone, Line, Polytope, Ray, Segment, Subspace
from .spaces import LpSpace

__all__ = ["main"]


class _UsageError(ValueError):
    """A bad command line or problem document: exit code 2, like any ValueError."""


@functools.cache
def _validator(name: str) -> Validator:
    # The package's own schemas are checked against the metaschema by the
    # tests, not here, so each file is read once per process.
    text = resources.files("lpgeom.schemas").joinpath(name).read_text(encoding="utf-8")
    return Validator(json.loads(text))


def _validate(instance: dict, schema_name: str) -> None:
    _validator(schema_name).validate(instance)


def _refuse_constant(name: str):
    raise _UsageError(f"problem document is not valid JSON: {name} is not a JSON number")


def _load_problem(path: str | None) -> dict:
    try:
        if path in (None, "-"):
            raw = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
        doc = json.loads(raw, parse_constant=_refuse_constant)  # NaN, Infinity and -Infinity
    except OSError as exc:
        raise _UsageError(f"cannot read problem document: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"problem document is not valid JSON: {exc}") from exc
    try:
        _validate(doc, "problem.schema.json")
    except ValidationError as exc:
        raise _UsageError(f"problem document rejected by schema: {exc.message}") from exc
    return doc


def _space_from(doc: dict) -> LpSpace:
    p = doc["p"]
    p = math.inf if p == "inf" else float(p)
    return LpSpace(int(doc["n"]), p, weights=doc.get("weights"))


def _set_from(space: LpSpace, d: dict):
    t = d["type"]
    if t == "segment":
        return Segment(space.point(d["a"]), space.point(d["b"]))
    if t == "ray":
        return Ray(space.point(d["vertex"]), space.point(d["direction"]))
    if t == "line":
        return Line(space.point(d["point"]), space.point(d["direction"]))
    if t == "cone":
        return FinitelyGeneratedCone(
            space.point(d["vertex"]), [space.point(g) for g in d["generators"]]
        )
    if t == "polytope":
        return Polytope([space.point(v) for v in d["vertices"]])
    if t == "ball":
        return Ball(space, float(d["r"]))
    return Subspace(space, [space.point(b) for b in d["basis"]])


def _need(doc: dict, field: str):
    if field not in doc:
        raise _UsageError(f"operation requires the '{field}' field")
    return doc[field]


def _the_set(space, doc):
    return _set_from(space, _need(doc, "set"))


def _op_project(space, doc, tol):
    C = _the_set(space, doc)
    x = space.point(_need(doc, "point"))
    res = metric_project(C, x, tol)
    return res, "pass" if res.converged else "fail"


def _op_gproject(space, doc, tol):
    C = _the_set(space, doc)
    psi = space.functional(_need(doc, "functional"))
    res = generalized_project(C, psi, tol)
    return res, "pass" if res.converged else "fail"


def _op_face(space, doc, tol):
    C = _the_set(space, doc)
    psi = space.functional(_need(doc, "functional"))
    desc = face(C, psi, tol=tol)
    unbounded = math.isinf(desc.level)
    out = {
        "level": None if unbounded else desc.level,
        "unbounded": unbounded,
        "kind": desc.kind,
        "representatives": desc.representatives,
    }
    if all(math.isfinite(g) for g in desc.gaps):
        out["gaps"] = desc.gaps
    return out, "pass"


def _op_vision(space, doc, tol):
    C = _the_set(space, doc)
    y = space.point(_need(doc, "point"))
    has_dual = "functional" in doc
    has_primal = "probe_point" in doc
    if has_dual == has_primal:
        raise _UsageError("vision takes exactly one of 'functional' or 'probe_point'")
    if has_dual:
        member = vision_dual_member(C, y, space.functional(doc["functional"]), tol=tol)
        return {"member": member, "route": "dual"}, "pass"
    member = vision_primal_member(C, y, space.point(doc["probe_point"]), tol=tol)
    return {"member": member, "route": "primal"}, "pass"


def _op_classify(space, doc, tol):
    C = _the_set(space, doc)
    y = space.point(_need(doc, "point"))
    return classify_point(C, y, tol=tol), "pass"


def _op_dualcone(space, doc, tol, kind, check):
    if kind == "generalized" and check == "identity":
        sets_doc = _need(doc, "sets")
        cones = [_set_from(space, d) for d in sets_doc]
        rep = intersection_dual_check_family(cones, tol=tol)
        return rep, "pass" if rep.ok else "fail"

    K = _the_set(space, doc)
    if check == "member":
        if kind == "metric":
            member = member_metric_dual(K, space.point(_need(doc, "point")), tol=tol)
        else:
            member = member_generalized_dual(K, space.functional(_need(doc, "functional")), tol=tol)
        return {"member": member, "certificate": None}, "pass"

    if kind == "metric" and check in ("convexity", "double-dual"):
        w = (probe_nonconvexity_metric_dual if check == "convexity" else metric_double_dual_violation)(K)
        return {"witness_found": w is not None, "witness": w}, "pass"

    if check == "convexity":
        # {psi : <psi - J(v), g_i> <= 0 for every i} is one half-space per generator, so it is convex
        return {"convex": True, "halfspaces": len(_vertex_and_generators(K)[1])}, "pass"

    if check == "double-dual":
        z = space.point(_need(doc, "point"))
        member = generalized_double_dual_member(K, z, tol=tol)
        cert = None if member else find_double_dual_certificate(K, z, tol=tol)
        return {"member": member, "certificate": cert}, "pass"

    # identity, metric kind: the inner-product defect of the projection
    w = space.point(_need(doc, "point"))
    defect, u = _identity_defect(K, w, min(tol, 1e-6))
    return {"defect": defect, "point": u}, "pass"


_SINGLE_OPS = {
    "project": _op_project,
    "gproject": _op_gproject,
    "face": _op_face,
    "vision": _op_vision,
    "classify": _op_classify,
}


def _run_single(args, operation: str) -> int:
    doc = _load_problem(args.input)
    if doc["operation"] != operation:
        raise _UsageError(
            f"document declares operation {doc['operation']!r} but the "
            f"{operation!r} subcommand was invoked"
        )
    space = _space_from(doc["space"])
    # the document's tol, which the schema keeps positive; the solvers certify to 1e-6 by default
    tol = float(doc.get("tol", 1e-6 if operation in ("project", "gproject") else 1e-9))

    t0 = time.perf_counter()
    if operation == "dualcone":
        result, status = _op_dualcone(space, doc, tol, args.kind, args.check)
    else:
        result, status = _SINGLE_OPS[operation](space, doc, tol)
    elapsed = time.perf_counter() - t0

    out = {
        "tool": "lpgeom",
        "version": TOOLKIT_VERSION,
        "operation": operation,
        "status": status,
        "space": {"n": space.n, "p": "inf" if math.isinf(space.p) else space.p, "weights": space.weights},
        "result": result,
        "elapsed_seconds": elapsed,
    }
    if operation == "dualcone":
        out["kind"] = args.kind
        out["check"] = args.check
    # one encoding of the library's record; the text lines read the same values the document holds
    out = _jsonable(out)
    lines = [f"{key}: {val}" for key, val in out["result"].items()] + [f"status: {status}"]
    return _emit(args, out, "result.schema.json", lines, status == "pass")


# the commands that run a whole report instead of one problem document, and how each builds
# it from the suite, which is imported only when one of them runs
_REPORTS = {
    "verify": lambda suite, args: suite.run_verification_suite(seed=args.seed or 0),
    "fuzz": lambda suite, args: suite.run_fuzz(
        args.target, trials=args.trials if args.trials is not None else 200, seed=args.seed or 0, p=args.p
    ),
}


def _run_report(args, build) -> int:
    from . import suite

    rep = build(suite, args)
    return _emit(args, rep.to_json(), "report.schema.json", rep.summary_lines(), rep.ok)


def _emit(args, doc: dict, schema_name: str, lines: list[str], ok: bool) -> int:
    """Validate the document, print it whole under --json or else as lines, and give the exit code."""
    _validate(doc, schema_name)
    print(json.dumps(doc, indent=2, allow_nan=False) if args.json else "\n".join(lines))
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpgeom",
        description="projections, dual cones, faces, and visions in weighted "
        "finite-dimensional l_p spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, problem=True):
        # the operations that read a problem document take its tol field and no option for it;
        # only verify and fuzz draw, so take a seed
        if problem:
            sp.add_argument("--input", default=None, help="problem JSON file ('-' or omit for stdin)")
        else:
            sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--json", action="store_true", help="emit the full JSON document")

    for name, blurb in (
        ("project", "metric projection onto a set"),
        ("gproject", "generalized projection of a functional onto a set"),
        ("face", "face of a functional on a set"),
        ("vision", "membership of a vision set"),
        ("classify", "internal-or-cuticle classification of a member"),
    ):
        add_common(sub.add_parser(name, help=blurb))

    dc = sub.add_parser("dualcone", help="dual-cone membership, convexity, and identity checks")
    add_common(dc)
    dc.add_argument("--kind", choices=("metric", "generalized"), required=True)
    dc.add_argument("--check", choices=("member", "convexity", "double-dual", "identity"), required=True)

    ver = sub.add_parser("verify", help="run the full reproducible verification suite")
    add_common(ver, problem=False)

    fz = sub.add_parser("fuzz", help="randomized property run for one target")
    add_common(fz, problem=False)
    fz.add_argument("--trials", type=int, default=None)
    # the target ids live in the suite, so an unknown id is refused when the run starts, with the list
    fz.add_argument("--target", required=True, help="a fuzz target id; an unknown one lists the ids")
    fz.add_argument("--p", type=float, default=None)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        build = _REPORTS.get(args.command)
        return _run_report(args, build) if build else _run_single(args, args.command)
    except ValidationError as exc:  # an emitted document's: a rejected problem is a _UsageError by now
        print(f"internal document failed schema validation: {exc.message}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:  # a _UsageError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a defect, not a verdict on the input
        error = {"exception": type(exc).__name__, "message": str(exc)}
        print(f"unexpected {error['exception']} in {args.command}: {exc}", file=sys.stderr)
        if args.json:
            doc = {"tool": "lpgeom", "version": TOOLKIT_VERSION, "operation": args.command, "status": "error"}
            _emit(args, {**doc, "result": error}, "result.schema.json", [], False)
        return 3


if __name__ == "__main__":
    sys.exit(main())
