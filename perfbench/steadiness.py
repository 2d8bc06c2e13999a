#!/usr/bin/env python3
"""Run every workload once per seed, seeds 0-9, and report the spread of every end-to-end metric.

    python3 perfbench/steadiness.py

For each workload and metric it prints the median, the quartiles (from
``statistics.quantiles(values, n=4)``), the spread (q3 - q1) / median and
the metric's bound from BENCHMARK.json, and flags a spread above a third
of the bound.  It also reports the share of failed operations.  It exits
with code 1 if a spread is above its bound or the failed share differs
between runs.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(10)


def host_info() -> str:
    """nproc, interpreter and library versions, and OpenBLAS's thread count (left at its default)."""
    import ctypes
    import platform

    import numpy
    import scipy

    threads = "unknown"
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_"):
            if hasattr(dll, sym):
                threads = str(getattr(dll, sym)())
    return (f"nproc {os.cpu_count()}, Python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, OpenBLAS threads {threads}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)

    print(host_info(), flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw: dict[str, list[dict]] = {}
    for w in (w["name"] for w in bench["workloads"]):
        raw[w] = []
        for seed in SEEDS:
            cmd = [*bench["command"], "--workload", w, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            out = subprocess.run([sys.executable if cmd[0] == "python3" else cmd[0], *cmd[1:]],
                                 capture_output=True, text=True, cwd=ROOT, timeout=600)
            if out.returncode != 0:
                print(out.stderr, file=sys.stderr)
                return 1
            lines = out.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            res["seed"] = seed
            res["wall_s"] = time.perf_counter() - t0
            res["host_ref_loop_ms"] = next(
                float(line.split()[1]) for line in lines if line.strip().startswith("host.ref_loop_ms"))
            raw[w].append(res)
            print(f"{w} seed {seed}: wall {res['wall_s']:.1f} s  host {res['host_ref_loop_ms']:.2f} ms  " + "  ".join(
                f"{k} {v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)

    print(f"\n{'workload':<14} {'metric':<16} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6}")
    ok = True
    for w, runs in raw.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bound / 3.0 else "  <-- above a third of the bound"
            ok &= spread <= bound
            print(f"{w:<14} {name:<16} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} {spread:>7.3f} {bound:>6}{flag}")
        ok &= len(shares) == 1
        print(f"{w:<14} failed share {sorted(shares)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
