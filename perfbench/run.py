#!/usr/bin/env python3
"""Benchmark of lpgeom: certified projections, the verification suite, cold CLI starts.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --workload NAME --seed N --replay OP

Run from the repository root; lpgeom is imported from ``src/``.  Each
workload runs a fixed number of whole rounds of seeded operations, set by
``--seconds`` (``round_count``), checks every output with the independent
checkers in ``checkers.py``, and prints one JSON object as its last line.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from spans around calls into lpgeom (see ``spans.py``).
The README describes every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    RUN_SECONDS = json.load(_fh)["run_seconds"]

WORKLOADS = ("project-small", "project-large", "verify", "cli-cold")
ROUND_SIZE = {"project-small": 32, "project-large": 48, "verify": 31, "cli-cold": 5}
# rounds in a run of RUN_SECONDS, sized to take about that long on the README's host;
# verify runs whole cycles of its twelve check seeds
ROUNDS = {"project-small": 300, "project-large": 24, "verify": 12, "cli-cold": 8}
CYCLE = {"verify": 12}
MIN_OPS = 40
# About 1% of project-large's operations are slow outliers (CHANGES.md, FOUND), right
# where its p99 falls, so p99 swings with the seed (spread 0.42 over five seeds); p90 does not.
TAIL_CAP = {"project-large": 90.0}
HARD_STOP_S = 140.0  # safety cap: no new round starts after this
# set-up samples per run, spread evenly over its rounds: the host's speed moves in phases
# of a few seconds, and a burst of samples would see only one
SETUP_PROBES = {"project-small": 6, "project-large": 6, "verify": 6, "cli-cold": 5}
HOME_ROUND = 999_999  # round index of the traced run's one round of another workload
CPUS = sorted(os.sched_getaffinity(0))


def take_turn(turn: int) -> None:
    """Run the calling thread, and the processes it starts, on CPU number turn mod len(CPUS).

    The CPUs of the README's host differ in speed by up to 40%, and an
    unpinned process tends to stay on one, so whole runs came out fast or
    slow.  Taking turns gives every run the same share of each CPU.
    """
    os.sched_setaffinity(0, {CPUS[turn % len(CPUS)]})


def round_count(workload: str, seconds: float) -> int:
    """Rounds in a run: a fixed function of --seconds, never of the host's speed."""
    cycle = CYCLE.get(workload, 1)
    count = max(1, round(ROUNDS[workload] * seconds / RUN_SECONDS / cycle)) * cycle
    return max(count, -(-MIN_OPS // ROUND_SIZE[workload]))


def tail_percentile(workload: str, count: int) -> float:
    """Highest of p99.9, p99, p90, p75 leaving ten samples beyond it at this operation count."""
    for q in (99.9, 99.0, 90.0, 75.0):
        if count * (100.0 - q) / 100.0 >= 10.0 and q <= TAIL_CAP.get(workload, 100.0):
            return q
    raise ValueError(f"{count} operations are too few for a tail percentile")


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def ref_loop_ms() -> float:
    """A fixed pure-Python loop that calls nothing in lpgeom: the host's own speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - t0) * 1e3


def set_up(workload: str) -> float:
    """Import lpgeom from src/ and run the workload's warm-up; seconds taken."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import lpgeom

    if os.path.dirname(os.path.abspath(lpgeom.__file__)) != os.path.join(SRC, "lpgeom"):
        raise SystemExit(f"error: lpgeom was imported from {lpgeom.__file__}, not from {SRC}")
    import workloads

    workloads.warm_up(workload)
    return time.perf_counter() - t0


def probe_setup(workload: str) -> float:
    """The set-up time of a fresh process."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--setup-probe"],
        capture_output=True, text=True, cwd=ROOT, timeout=120, check=True,
    )
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# running and checking one operation


class Runner:
    """Calls one workload's operations and checks what they return."""

    def __init__(self, workload: str, seed: int):
        # imported here, not at the top: set_up must time the first import of numpy and lpgeom
        import numpy as np

        import checkers
        import workloads

        self.workload = workload
        self.seed = seed
        self.np = np
        self.checkers = checkers
        self.workloads = workloads
        self.rounds = workloads.ROUNDS[workload]
        self.env = workloads.cli_env()
        self.importtime = False  # traced cli rounds run children with -X importtime
        self.cli_samples: list[dict] = []  # per traced cli op: import, schema and solve times
        self._seen: dict[str, dict] = {}

    def round(self, rnd: int) -> list[dict]:
        ops = self.rounds(self.seed, rnd)
        if len(ops) != ROUND_SIZE[self.workload]:
            raise RuntimeError(f"{self.workload} round has {len(ops)} operations, expected {ROUND_SIZE[self.workload]}")
        return ops

    def call(self, op: dict):
        if self.workload == "cli-cold":
            return self.workloads.run_cli(op, self.env, importtime=self.importtime)
        return op["_call"]()

    def judge(self, op: dict, out, op_index: int) -> tuple[str | None, str | None]:
        """(program failure, checker rejection); each None when there is none."""
        w = self.workload
        if w in ("project-small", "project-large"):
            if not out.converged:
                return f"uncertified: converged false, vi_residual {out.vi_residual:.3e}, {out.iterations} iterations", None
            rng = self.np.random.default_rng([self.seed, op_index])
            return None, self.checkers.check_projection(op, out.point.coords, rng=rng)
        if w == "verify":
            rec = out.to_json() if hasattr(out, "check_id") else out.records[0].to_json()
            if rec["status"] != "pass":
                return f"record {rec['check_id']} has status {rec['status']}", None
            jx = None
            if op.get("check") == "01":
                import lpgeom

                jx = lpgeom.duality_map(lpgeom.LpSpace(3, 3.0).point([3.0, -2.0, -1.0])).coords
            bad = self.checkers.check_record(op, rec, jx)
            if bad is None and op["call_id"] in self._seen:
                bad = self.checkers.check_repeat(self._seen[op["call_id"]], rec)
            self._seen.setdefault(op["call_id"], rec)
            return None, bad
        # cli-cold
        if out.returncode != 0:
            return f"exit code {out.returncode}: {out.stderr.strip()[-200:]}", None
        if self.importtime:
            self._sample_cli(op, out)
        return None, self.checkers.check_cli(op, out.returncode, out.stdout)

    def repeat_check(self, op: dict) -> str | None:
        """Verify only: run a call again, untimed, and compare its record."""
        out = op["_call"]()
        rec = out.to_json() if hasattr(out, "check_id") else out.records[0].to_json()
        first = self._seen.get(op["call_id"])
        return None if first is None else self.checkers.check_repeat(first, rec)

    def _sample_cli(self, op: dict, out) -> None:
        import lpgeom.cli as cli

        by_pkg: dict[str, float] = {}
        total = 0.0
        for line in out.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            top = name.strip().split(".")[0]
            by_pkg[top] = by_pkg.get(top, 0.0) + float(self_us)
            total += float(self_us)
        doc = json.loads(out.stdout)
        t0 = time.perf_counter()
        cli._validate(op["doc"], "problem.schema.json")
        cli._validate(doc, "result.schema.json")
        schema_ms = (time.perf_counter() - t0) * 1e3
        self.cli_samples.append({
            "import_ms": total / 1e3,
            **{f"import.{k}_ms": by_pkg.get(k, 0.0) / 1e3 for k in ("numpy", "scipy", "jsonschema", "lpgeom")},
            "schema_ms": schema_ms,
            "solve_ms": doc["elapsed_seconds"] * 1e3,
        })


class Tally:
    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.attempted = self.failed = self.incorrect = 0
        self.round_rate: list[float] = []  # certified operations per timed second, per round
        self.by_round: list[list[tuple[str, float]]] = []  # (label, seconds) per operation

    def report(self, op_index: int, kind: str, reason: str) -> None:
        wl = self.workload
        print(
            f"{kind} workload={wl} seed={self.seed} op={op_index}: {reason}\n"
            f"  replay: python3 perfbench/run.py --workload {wl} --seed {self.seed} --replay {op_index}",
            file=sys.stderr,
        )


def run_round(runner: Runner, tally: Tally, rnd: int, tracer=None) -> None:
    ops = runner.round(rnd)
    size = len(ops)
    timed = certified = 0
    times = []
    for i, op in enumerate(ops):
        idx = rnd * size + i
        err = bad = None
        with tracer.operation(idx, op["label"]) if tracer is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                out = runner.call(op)
            except Exception as exc:  # a raising operation is a failed operation, not a crash
                out, err = None, f"raised {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
        if err is None:
            try:
                err, bad = runner.judge(op, out, idx)
            except Exception as exc:
                bad = f"checker raised {type(exc).__name__}: {exc}"
        tally.attempted += 1
        times.append((op["label"], dt))
        timed += dt
        if err is not None:
            tally.failed += 1
            tally.report(idx, "FAILED", err)
        elif bad is not None:
            tally.incorrect += 1
            tally.report(idx, "INCORRECT", bad)
        else:
            certified += 1
    if runner.workload == "verify":
        # the same (call, seed) twice must give the same record; untimed
        i = (rnd * 7 + runner.seed) % size
        bad = runner.repeat_check(ops[i])
        if bad is not None:
            tally.incorrect += 1
            tally.report(rnd * size + i, "INCORRECT", bad)
    tally.by_round.append(times)
    tally.round_rate.append(certified / timed if timed > 0 else 0.0)


def measure(workload: str, seed: int, count: int, tracer=None, probe=None):
    """Rounds 0 .. count-1; with a tracer, every other round is traced.

    Rounds 2t and 2t+1 run on CPU t mod len(CPUS), so a traced round and
    the untraced one it is compared with share a CPU.  ``probe``, if given,
    is called SETUP_PROBES times, untimed, before evenly spaced rounds, the
    k-th on CPU k mod len(CPUS); its set-up samples are returned last.
    """
    runner = Runner(workload, seed)
    tally = Tally(workload, seed)
    start = time.perf_counter()
    rounds = {"plain": [], "traced": []}
    probes = SETUP_PROBES[workload] if probe is not None else 0
    due = [count * k // probes for k in range(probes)]
    setups = []
    for rnd in range(count):
        for _ in range(due.count(rnd)):
            take_turn(len(setups))
            setups.append(probe())
        take_turn(rnd // 2)
        if time.perf_counter() - start > HARD_STOP_S:
            print(f"warning: stopped after {rnd} of {count} rounds at the {HARD_STOP_S:g}-s safety cap; "
                  "this run did less work than a full one", file=sys.stderr)
            break
        traced = tracer is not None and rnd % 2 == 1
        if tracer is not None:
            (tracer.install if traced else tracer.uninstall)()
        runner.importtime = traced and workload == "cli-cold"
        run_round(runner, tally, rnd, tracer if traced else None)
        rounds["traced" if traced else "plain"].append(rnd)
    os.sched_setaffinity(0, CPUS)
    if tracer is not None:
        tracer.uninstall()
    return runner, tally, rounds, setups


def tracing_overhead(tally: Tally, rounds: dict[str, list[int]]) -> float:
    """Median over operation labels of traced over untraced median time, as a percentage."""

    def medians(rnds: list[int]) -> dict[str, float]:
        by_label: dict[str, list[float]] = {}
        for r in rnds:
            for label, dt in tally.by_round[r]:
                by_label.setdefault(label, []).append(dt)
        return {k: statistics.median(v) for k, v in by_label.items()}

    plain, traced = medians(rounds["plain"]), medians(rounds["traced"])
    ratios = [traced[k] / plain[k] for k in traced if k in plain]
    return (statistics.median(ratios) - 1.0) * 100.0


def cli_setup_probe(seed: int):
    """A callable that runs one untimed first CLI process and returns its wall time."""
    import checkers
    import workloads

    env = workloads.cli_env()
    ops = itertools.cycle(workloads.cli_round(seed, HOME_ROUND + 1))

    def probe() -> float:
        op = next(ops)
        t0 = time.perf_counter()
        out = workloads.run_cli(op, env)
        wall = time.perf_counter() - t0
        bad = checkers.check_cli(op, out.returncode, out.stdout)
        if bad is not None:
            raise SystemExit(f"error: the set-up CLI process failed: {bad}")
        return wall

    return probe


# ---------------------------------------------------------------------------
# the traced run's rounds of the other workloads


def home_rounds(workload: str, seed: int, tracer, tally: Tally) -> tuple[dict[str, list[int]], list[dict]]:
    """One traced round of every other workload, for the per-layer metrics measured there.

    Each per-layer metric is measured on the operations of one workload,
    its home (``spans.home``), whichever workload the traced run is
    for.  These operations are checked and counted like any other; their
    ids, HOME_ROUND * round size + index, replay with the other workload's
    name.  Returns the op ids per workload and the CLI samples.
    """
    op_ids: dict[str, list[int]] = {}
    cli_samples: list[dict] = []
    tracer.install()
    for other in WORKLOADS:
        if other == workload:
            continue
        runner = Runner(other, seed)
        runner.importtime = other == "cli-cold"
        sub = Tally(other, seed)
        run_round(runner, sub, HOME_ROUND, tracer)
        size = ROUND_SIZE[other]
        op_ids[other] = list(range(HOME_ROUND * size, HOME_ROUND * size + size))
        cli_samples += runner.cli_samples
        tally.attempted += sub.attempted
        tally.failed += sub.failed
        tally.incorrect += sub.incorrect
    tracer.uninstall()
    return op_ids, cli_samples


# ---------------------------------------------------------------------------
# entry points


def run_workload(args) -> int:
    workload, seed, traced = args.workload, args.seed, bool(args.trace)
    if workload == "cli-cold":
        sys.path.insert(0, SRC)
        setup_s = None
    else:
        setup_s = set_up(workload)
    if traced:
        import spans

        tracer = spans.Tracer()
    else:
        tracer = None
    host = [ref_loop_ms() for _ in range(5)]
    if traced:
        probe = None
    elif workload == "cli-cold":
        probe = cli_setup_probe(seed)
    else:
        probe = functools.partial(probe_setup, workload)

    count = round_count(workload, args.seconds)
    runner, tally, rounds, setups = measure(workload, seed, count, tracer, probe)
    host += [ref_loop_ms() for _ in range(5)]
    host_ms = statistics.median(host)

    size = ROUND_SIZE[workload]
    q = tail_percentile(workload, count * size)
    lines = [f"workload {workload}  seed {seed}  trace {int(traced)}  rounds {len(tally.by_round)} x {size} operations"]
    if traced:
        ops_by, cli_samples = home_rounds(workload, seed, tracer, tally)
        ops_by[workload] = [r * size + i for r in rounds["traced"] for i in range(size)]
        if workload == "cli-cold":
            cli_samples = runner.cli_samples
        overhead = tracing_overhead(tally, rounds)
        metrics, missing = spans.per_layer(tracer, ops_by, cli_samples)
        metrics["host.ref_loop_ms"] = (host_ms, "ms")
        metrics["trace.overhead_pct"] = (overhead, "%")
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        path = os.path.join(HERE, "out", f"spans-{workload}-seed{seed}.npz")
        tracer.save(path)
        lines.append(f"  spans: {len(tracer.start)} written to {os.path.relpath(path, ROOT)}")
        lines.append(f"  tracing overhead (median over operation kinds): {overhead:+.1f}%")
        lines.append(f"  per-layer metrics are measured on their home workload's operations: {workload}'s "
                     "traced rounds, or one traced round of another workload")
        if missing:
            lines.append(f"  never called on their home workload, reported as 0: {', '.join(missing)}")
    else:
        latency = [dt for times in tally.by_round for _, dt in times]
        if workload == "cli-cold":
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            setup_s = statistics.median(setups)
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            setup_s = statistics.median([setup_s] + setups)
        metrics = {
            "setup_s": (setup_s, "s"),
            "certified_per_s": (statistics.median(tally.round_rate), "1/s"),
            "latency_p50_ms": (statistics.median(latency) * 1e3, "ms"),
            "latency_tail_ms": (percentile(latency, q) * 1e3, "ms"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
        lines.append(f"  latency_tail_ms is p{q:g} of {len(latency)} operations")
        lines.append(f"  host.ref_loop_ms {host_ms:.3f} ms (host speed; not a metric of lpgeom)")
    lines.insert(1, f"  attempted {tally.attempted}  failed {tally.failed}  incorrect {tally.incorrect}")
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<{width}}  {value:.6g} {unit}")
    print("\n".join(lines))
    result = {
        "correct": tally.incorrect == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_replay(args) -> int:
    sys.path.insert(0, SRC)
    size = ROUND_SIZE[args.workload]
    rnd, i = divmod(args.replay, size)
    runner = Runner(args.workload, args.seed)
    op = runner.round(rnd)[i]
    shown = {k: v for k, v in op.items() if not k.startswith("_")}
    print(f"workload {args.workload} seed {args.seed} op {args.replay} (round {rnd}, index {i})")
    print(json.dumps(shown))
    t0 = time.perf_counter()
    out = runner.call(op)
    print(f"{(time.perf_counter() - t0) * 1e3:.1f} ms: {out!r}")
    err, bad = runner.judge(op, out, args.replay)
    if args.workload == "verify" and err is None and bad is None:
        bad = runner.repeat_check(op)
    print(f"program failure: {err}\nchecker rejection: {bad}")
    return 0 if err is None and bad is None else 1


def run_all(args) -> int:
    """Every workload in its own process; one table, then a combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            print(f"error: workload {w} exited with code {out.returncode}", file=sys.stderr)
            return 1
        body = out.stdout.strip().splitlines()
        print("\n".join(body[:-1]))
        res = json.loads(body[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{w}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS, help="sets the number of rounds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--replay", type=int, default=None, help="rerun and check one operation by its index")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "lpgeom", "__init__.py")):
        print(f"error: no lpgeom sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": set_up(args.workload)}))
        return 0
    if args.workload == "all":
        return run_all(args)
    if args.replay is not None:
        return run_replay(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
