"""Spans around calls into lpgeom's public functions, for the traced run only.

``Tracer.install`` replaces each traced function or method, in every
lpgeom module that binds it, by a wrapper that records one span: name,
start, end, the enclosing span and the operation it belongs to.  Spans
live in flat arrays in memory and are written once, at the end, by
``Tracer.save``.  ``Tracer.uninstall`` restores the original objects,
so untraced rounds of a traced run call lpgeom exactly as untraced runs
do.  Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

import numpy as np

import lpgeom.cones
import lpgeom.faces
import lpgeom.polyhedra
import lpgeom.projections
import lpgeom.sets
import lpgeom.spaces
import lpgeom.suite
from workloads import CHECKS

# (module, attribute, span name) for every traced function
FUNCTIONS = [
    (lpgeom.projections, "vi_residual_metric", "projections.vi_residual_metric"),
    (lpgeom.projections, "vi_residual_generalized", "projections.vi_residual_generalized"),
    (lpgeom.polyhedra, "polar_cone_generators", "polyhedra.polar_cone_generators"),
    (lpgeom.polyhedra, "intersect_cone_generators", "polyhedra.intersect_cone_generators"),
    (lpgeom.cones, "probe_nonconvexity_metric_dual", "cones.probe_nonconvexity_metric_dual"),
    (lpgeom.cones, "metric_double_dual_violation", "cones.metric_double_dual_violation"),
    (lpgeom.cones, "generalized_double_dual_member", "cones.generalized_double_dual_member"),
    (lpgeom.cones, "intersection_dual_check_family", "cones.intersection_dual_check_family"),
    (lpgeom.faces, "face", "faces.face"),
    (lpgeom.faces, "classify_point", "faces.classify_point"),
    (lpgeom.faces, "fixed_point_check", "faces.fixed_point_check"),
    (lpgeom.faces, "dual_vision_identity_check", "faces.dual_vision_identity_check"),
] + [(lpgeom.suite, name, f"suite.check_{num}") for num, name in CHECKS]

# (class, method, span name) for every traced method
METHODS = [
    (lpgeom.spaces.LpSpace, "norm_of", "spaces.norm_of"),
    (lpgeom.spaces.LpSpace, "jmap", "spaces.jmap"),
    (lpgeom.spaces.LpSpace, "pairing", "spaces.pairing"),
    (lpgeom.sets.ConvexSet, "contains", "sets.contains"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_op = -1
        self.enabled = False
        # per projection call: (span index, method, iterations); per fuzz call: (span index, trials)
        self.projections: list[tuple[int, str, int]] = []
        self.fuzz: list[tuple[int, int]] = []
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.op.append(self.current_op)
        self.parent.append(self.stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def operation(self, op_index: int, label: str):
        """The root span of one timed operation; lpgeom calls inside it are recorded."""
        self.current_op = op_index
        idx = self._open(self._id(f"op.{label}"))
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False
            self._close(idx)

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    def _wrap_projection(self, fn, kind: str):
        tracer = self
        ids: dict[type, int] = {}

        @functools.wraps(fn)
        def traced(C, *args, **kwargs):
            if not tracer.enabled:
                return fn(C, *args, **kwargs)
            nid = ids.get(type(C))
            if nid is None:
                nid = ids[type(C)] = tracer._id(f"projections.{kind}.{type(C).__name__}")
            idx = tracer._open(nid)
            try:
                res = fn(C, *args, **kwargs)
            finally:
                tracer._close(idx)
            tracer.projections.append((idx, res.method, int(res.iterations)))
            return res

        return traced

    def _wrap_fuzz(self, fn):
        tracer = self
        ids: dict[str, int] = {}

        @functools.wraps(fn)
        def traced(target, trials=200, *args, **kwargs):
            if not tracer.enabled:
                return fn(target, trials, *args, **kwargs)
            nid = ids.get(target)
            if nid is None:
                nid = ids[target] = tracer._id(f"suite.fuzz.{target}")
            idx = tracer._open(nid)
            try:
                return fn(target, trials, *args, **kwargs)
            finally:
                tracer._close(idx)
                tracer.fuzz.append((idx, int(trials)))

        return traced

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        plan = [(mod, attr, self._wrap(getattr(mod, attr), name)) for mod, attr, name in FUNCTIONS]
        plan.append((lpgeom.projections, "metric_project",
                     self._wrap_projection(lpgeom.projections.metric_project, "metric")))
        plan.append((lpgeom.projections, "generalized_project",
                     self._wrap_projection(lpgeom.projections.generalized_project, "generalized")))
        plan.append((lpgeom.suite, "run_fuzz", self._wrap_fuzz(lpgeom.suite.run_fuzz)))
        modules = [m for k, m in sys.modules.items() if k == "lpgeom" or k.startswith("lpgeom.")]
        for home, attr, wrapper in plan:
            original = getattr(home, attr)
            # rebind the name wherever a module imported it, so calls between modules are seen
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        for cls, meth, name in METHODS:
            original = cls.__dict__[meth]
            self._saved.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results ------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        dur = end - start
        mask = parent >= 0
        child = np.bincount(parent[mask], weights=dur[mask], minlength=dur.size)
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "parent": parent,
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - child,
        }

    def save(self, path: str) -> None:
        a = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=a["name"],
            op=a["op"],
            parent=a["parent"],
            start=a["start"],
            end=a["end"],
        )


# ---------------------------------------------------------------------------
# per-layer metrics

_CLASS = {"segment": "Segment", "ray": "Ray", "line": "Line", "cone": "FinitelyGeneratedCone",
          "polytope": "Polytope", "ball": "Ball", "subspace": "Subspace"}
_PROJ = [f"projections.{k}.{c}" for k in ("metric", "generalized") for c in _CLASS.values()]
CLI_FIELDS = ("import_ms", "import.numpy_ms", "import.scipy_ms", "import.jsonschema_ms",
              "import.lpgeom_ms", "schema_ms", "solve_ms")


def home(metric: str) -> str:
    """The workload whose operations a per-layer metric is measured on."""
    if metric.startswith(("spaces.", "sets.")):
        return "project-small"
    if metric.startswith("cli."):
        return "cli-cold"
    if metric.startswith("projections."):
        if metric in ("projections.iterations", "projections.certificate_ms") or "cone_" in metric \
                or "polytope_" in metric:
            return "project-large"
        if "subspace_" in metric or metric.startswith("projections.method."):
            return "verify"  # no project workload has subspaces; only verify uses every method
        return "project-small"
    return "verify"


def metric_specs() -> list[tuple[str, str, str, list[str]]]:
    """(metric, unit, how it is derived, span names it reads) for every span metric.

    calls: spans per operation; self: self time per operation; total: span
    time per operation; median: median span time; iterations: solver
    iterations per operation; method:M: share of projection calls that
    used M; per_trial: median fuzz-call time divided by its trial count.
    """
    specs = [
        ("spaces.jmap_calls", "count", "calls", ["spaces.jmap"]),
        ("spaces.norm_of_calls", "count", "calls", ["spaces.norm_of"]),
        ("spaces.kernel_ms", "ms", "self", ["spaces.norm_of", "spaces.jmap", "spaces.pairing"]),
        ("sets.contains_calls", "count", "calls", ["sets.contains"]),
        ("sets.contains_ms", "ms", "total", ["sets.contains"]),
    ]
    for kind in ("metric", "generalized"):
        for t, cls in _CLASS.items():
            specs.append((f"projections.{kind}.{t}_ms", "ms", "median", [f"projections.{kind}.{cls}"]))
    specs.append(("projections.iterations", "count", "iterations", _PROJ))
    # the one-dimensional share is 100 less these two
    specs += [(f"projections.method.{m}_pct", "%", f"method:{m}", _PROJ)
              for m in ("closed-form", "projected-gradient")]
    specs.append(("projections.certificate_ms", "ms", "total",
                  ["projections.vi_residual_metric", "projections.vi_residual_generalized"]))
    specs += [(f"{name}_ms", "ms", "total", [name]) for _, _, name in FUNCTIONS
              if name.startswith(("polyhedra.", "cones.", "faces."))]
    specs += [(f"suite.check_{num}_ms", "ms", "median", [f"suite.check_{num}"]) for num, _ in CHECKS]
    specs += [(f"suite.fuzz.{t}_ms_per_trial", "ms", "per_trial", [f"suite.fuzz.{t}"])
              for t in lpgeom.suite.fuzz_target_ids()]
    return specs


def per_layer(tracer: Tracer, ops_by: dict[str, list[int]], cli_samples: list[dict]):
    """Per-layer metrics, each from the traced operations of its home workload.

    ``ops_by`` maps each workload to its traced operation ids.  The second
    return value lists the metrics whose spans never occurred there; they
    are reported as 0.
    """
    a = tracer.arrays()
    proj_idx = np.array([p[0] for p in tracer.projections], dtype=np.int64)
    proj_method = np.array([p[1] for p in tracer.projections], dtype=object)
    proj_iters = np.array([p[2] for p in tracer.projections], dtype=np.float64)
    fuzz_idx = np.array([f[0] for f in tracer.fuzz], dtype=np.int64)
    fuzz_trials = np.array([f[1] for f in tracer.fuzz], dtype=np.float64)
    scope = {w: np.isin(a["op"], np.asarray(ops, dtype=np.int64)) for w, ops in ops_by.items()}

    def value(how: str, names: list[str], in_scope: np.ndarray, nops: int):
        ids = [tracer._ids[n] for n in names if n in tracer._ids]
        sel = in_scope & np.isin(a["name"], ids)
        if not sel.any():
            return None
        if how == "calls":
            return sel.sum() / nops
        if how == "self":
            return a["self"][sel].sum() / nops * 1e3
        if how == "total":
            return a["dur"][sel].sum() / nops * 1e3
        if how == "median":
            return float(np.median(a["dur"][sel])) * 1e3
        if how == "per_trial":
            picked = np.isin(fuzz_idx, np.nonzero(sel)[0])
            return float(np.median(a["dur"][fuzz_idx[picked]] / fuzz_trials[picked])) * 1e3
        picked = np.isin(proj_idx, np.nonzero(sel)[0])
        if how == "iterations":
            return proj_iters[picked].sum() / nops
        return 100.0 * float(np.mean(proj_method[picked] == how.split(":", 1)[1]))

    metrics: dict[str, tuple[float, str]] = {}
    missing: list[str] = []
    for name, unit, how, names in metric_specs():
        w = home(name)
        v = value(how, names, scope[w], max(len(ops_by[w]), 1))
        if v is None:
            missing.append(name)
        metrics[name] = (float(v) if v is not None else 0.0, unit)
    for field in CLI_FIELDS:
        vals = [s[field] for s in cli_samples]
        if not vals:
            missing.append(f"cli.{field}")
        metrics[f"cli.{field}"] = (float(np.median(vals)) if vals else 0.0, "ms")
    return metrics, missing
