"""The benchmark's hard-wired names and round shape still match the package.

``perfbench/spans.py`` wraps every entry of its ``FUNCTIONS`` and ``METHODS``
lists with ``getattr``, so a renamed or deleted function crashes every
traced benchmark run, and ``perfbench/run.py`` refuses a ``verify`` round
that is not one call per check and per fuzz target.  ``run.py`` also reads
fields of the results it judges, so a renamed field crashes a run too.
``BENCHMARK.json`` names a per-trial metric for each fuzz target, so a
target id is part of the benchmark too.  A traced method is wrapped in its
base class only, so no subclass may override one.  These files are only
read here.
"""

import importlib.util
import json
import os
import re
import sys

from lpgeom import LpSpace, Ray, fuzz_target_ids, metric_project, run_fuzz
from lpgeom.suite import _CHECKS, check_duality_map_regression

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _load(name):
    if PERFBENCH not in sys.path:
        sys.path.insert(0, PERFBENCH)  # spans imports its sibling workloads
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_and_method_resolves():
    spans = _load("spans")
    for module, attr, span in spans.FUNCTIONS:
        assert callable(getattr(module, attr, None)), span
    for cls, meth, span in spans.METHODS:
        assert callable(cls.__dict__.get(meth)), span


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_no_subclass_overrides_a_traced_method():
    # the tracer wraps the method in the base class's own __dict__, so an override would run untraced
    spans = _load("spans")
    for cls, meth, span in spans.METHODS:
        overrides = [sub.__name__ for sub in _subclasses(cls) if meth in sub.__dict__]
        assert overrides == [], (span, overrides)


def test_a_verify_round_is_one_call_per_check_and_fuzz_target():
    run = _load("run")
    assert len(_CHECKS) == 12
    assert len(_CHECKS) + len(fuzz_target_ids()) == run.ROUND_SIZE["verify"]


def test_every_benchmarked_fuzz_target_exists():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [metric["name"] for metric in json.load(fh)["per_layer"]]
    targets = [m.group(1) for m in map(re.compile(r"suite\.fuzz\.(.+)_ms_per_trial").fullmatch, names) if m]
    assert targets
    assert sorted(set(targets) - set(fuzz_target_ids())) == []


def test_every_result_field_the_benchmark_reads_exists():
    # a projection is judged by converged, vi_residual, iterations and point.coords; a verify call by
    # the to_json() of its check record, told apart by check_id, or of a fuzz report's records[0]
    with open(os.path.join(PERFBENCH, "run.py"), encoding="utf-8") as fh:
        source = fh.read()
    reads = ("out.converged", "out.vi_residual", "out.iterations", "out.point.coords",
             'hasattr(out, "check_id")', "out.to_json()", "out.records[0].to_json()")
    assert [read for read in reads if read not in source] == []

    S = LpSpace(2, 3.0)
    res = metric_project(Ray(S.zero(), S.point([1.0, 2.0])), S.point([3.0, 1.0]))
    assert res.converged is True
    assert res.vi_residual <= 1e-6
    assert res.iterations >= 0
    assert res.point.coords.shape == (2,)

    record = check_duality_map_regression()
    assert record.to_json()["check_id"] == record.check_id
    report = run_fuzz("set-sampling", trials=2)
    assert not hasattr(report, "check_id")
    fuzz = report.records[0].to_json()
    assert (fuzz["status"], fuzz["values"]["trials"]) == ("pass", 2)
