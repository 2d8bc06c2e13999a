"""Each independent checker accepts lpgeom's answer and rejects a perturbed one.

    python3 perfbench/test_checkers.py       # no pytest needed
    python3 -m pytest -q perfbench           # the same tests under pytest
"""

from __future__ import annotations

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

import checkers  # noqa: E402
import lpgeom  # noqa: E402
import workloads  # noqa: E402


def _projection_ops():
    """Every kind the workloads project, plus cone, polytope and subspace in n = 4 at p = 3."""
    ops = {}
    for op in workloads.project_small_round(7, 0) + workloads.project_large_round(7, 0):
        ops.setdefault(op["label"], op)
    rng = np.random.default_rng(5)
    space = {"n": 4, "p": 3.0, "weights": [0.5, 1.0, 2.0, 1.5]}
    for t in ("cone", "polytope", "subspace"):
        set_doc = workloads.random_set(rng, 4, t)
        for kind in ("metric", "generalized"):
            vec = (rng.normal(size=4) * 2.0).tolist()
            ops[f"{kind}.{t}.n4"] = workloads.projection_op(space, set_doc, kind, vec)
    return list(ops.values())


def test_projection_checker_rejects_perturbed_answers():
    rng = np.random.default_rng(0)
    for op in _projection_ops():
        u = op["_call"]().point.coords
        assert checkers.check_projection(op, u) is None, op["label"]
        scale = 1.0 + float(np.linalg.norm(u))
        d = rng.normal(size=u.size)
        off = u + 1e-4 * scale * d / np.linalg.norm(d)
        assert checkers.check_projection(op, off) is not None, op["label"]
        # a member of the set that is not the nearest one
        n, p = op["space"]["n"], op["space"]["p"]
        w = np.asarray(op["space"]["weights"])
        far = max(checkers.sample_members(op["set"], n, p, w, rng, 8), key=lambda m: np.linalg.norm(m - u))
        wrong = u + 0.05 * (far - u)
        if np.linalg.norm(wrong - u) > 1e-3 * scale:
            assert checkers.check_projection(op, wrong) is not None, op["label"]


def _verify_op(label: str) -> dict:
    return next(op for op in workloads.verify_round(0, 0) if op["label"] == label)


def test_record_checker_rejects_perturbed_records():
    jx = lpgeom.duality_map(lpgeom.LpSpace(3, 3.0).point([3.0, -2.0, -1.0])).coords
    op01, op03 = _verify_op("check_01"), _verify_op("check_03")
    rec01, rec03 = op01["_call"]().to_json(), op03["_call"]().to_json()
    assert checkers.check_record(op01, rec01, jx) is None
    assert checkers.check_record(op03, rec03) is None
    assert checkers.check_record(op01, rec01, jx + np.array([1e-9, 0.0, 0.0])) is not None
    bad = copy.deepcopy(rec03)
    bad["values"]["violation_per_unit"] *= 1.0 + 1e-6
    assert checkers.check_record(op03, bad) is not None
    bad = copy.deepcopy(rec03)
    bad["status"] = "fail"
    assert checkers.check_record(op03, bad) is not None

    fop = _verify_op("fuzz.face-attainment")
    frec = fop["_call"]().records[0].to_json()
    assert checkers.check_record(fop, frec) is None
    bad = copy.deepcopy(frec)
    bad["values"]["failures"] = 1
    assert checkers.check_record(fop, bad) is not None

    again = op03["_call"]().to_json()
    assert checkers.check_repeat(rec03, again) is None
    again["values"]["witness_margin"] += 1e-12
    assert checkers.check_repeat(rec03, again) is not None


def test_cli_checker_rejects_perturbed_results():
    env = workloads.cli_env()
    for op in workloads.cli_round(3, 0):
        out = workloads.run_cli(op, env)
        assert checkers.check_cli(op, out.returncode, out.stdout) is None, op["label"]
        assert checkers.check_cli(op, 1, out.stdout) is not None
        doc = json.loads(out.stdout)
        broken = dict(doc)
        del broken["tool"]
        assert checkers.check_cli(op, 0, json.dumps(broken)) is not None
        res = copy.deepcopy(doc)
        r = res["result"]
        if "point" in r:
            r["point"] = [c + 1e-3 for c in r["point"]]
        elif "level" in r:
            r["level"] += 1e-6
        elif "verdict" in r:
            r["verdict"] = "cuticle"
        else:
            r["member"] = not r["member"]
        assert checkers.check_cli(op, 0, json.dumps(res)) is not None, op["label"]


def test_benchmark_json_lists_every_per_layer_metric():
    import spans

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    produced = {name: unit for name, unit, _, _ in spans.metric_specs()}
    produced.update({f"cli.{f}": "ms" for f in spans.CLI_FIELDS})
    produced.update({"host.ref_loop_ms": "ms", "trace.overhead_pct": "%"})
    assert listed == produced


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
