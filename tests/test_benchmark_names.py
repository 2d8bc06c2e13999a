"""The benchmark's hard-wired names and round shape still match the package.

``perfbench/spans.py`` wraps every entry of its ``FUNCTIONS`` and ``METHODS``
lists with ``getattr``, so a renamed or deleted function crashes every
traced benchmark run, and ``perfbench/run.py`` refuses a ``verify`` round
that is not one call per check and per fuzz target.  ``BENCHMARK.json``
names a per-trial metric for each fuzz target, so a target id is part of
the benchmark too.  A traced method is wrapped in its base class only, so
no subclass may override one.  These files are only read here.
"""

import importlib.util
import json
import os
import re
import sys

from lpgeom import fuzz_target_ids
from lpgeom.suite import _CHECKS

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
