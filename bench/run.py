"""Benchmark command for edgeorch.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME "all" runs every workload in turn, each in a process of its own.

Run from the root of a checkout.  It imports edgeorch from src/ of that
checkout, builds the workload's inputs from the seed, times the
program's set-up, then measures whole rounds of operations for S seconds
of time spent in the program, checking every output after each round.

With --trace 0 it reports the end-to-end metrics; with --trace 1 it
measures S/2 seconds untraced, re-plays the same rounds with spans
recorded at the program's module boundaries, and reports the per-layer
metrics with the tracing overhead.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The same
object, with nproc, the Python version and the git SHA, goes to
bench/out/BENCH_<workload>_seed<N>_trace<T>.json.
"""

from __future__ import annotations

import argparse
import gc
import random
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Program time spent in rounds that are played but not measured.
WARMUP_SECONDS = 0.5

WORKLOADS = ("online_exact", "online_greedy", "whatif_audit", "edge_admission", "edge_channel")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p95": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "trace.overhead_pct": "%",
    "scenario_io.parse_ms": "ms",
    "scenario_io.report_ms": "ms",
    "topology.build_ms": "ms",
    "topology.route_calls_per_decision": "count",
    "placer.solve_exact_ms_p50": "ms",
    "placer.solve_exact_ms_p95": "ms",
    "placer.solve_greedy_ms_p50": "ms",
    "placer.solve_greedy_ms_p95": "ms",
    "placer.solve_share": "ratio",
    "placer.check_feasible_ms": "ms",
    "placer.policy_cost_ms": "ms",
    "placer.plan_actions_ms": "ms",
    "placer.reject_pct": "%",
    "simulator.step_self_ms": "ms",
    "simulator.snapshot_ms": "ms",
    "runtime.admit_us": "us",
    "runtime.release_us": "us",
    "runtime.send_ns": "ns",
    "runtime.recv_ns": "ns",
    "runtime.admit_reject_pct": "%",
    "runtime.channel_full_pct": "%",
    "runtime.channel_dropped_pct": "%",
}


def load_program():
    """Put the checkout's src/ first on the path and import edgeorch from it."""
    if not (SRC / "edgeorch" / "__init__.py").is_file():
        raise SystemExit(f"error: no edgeorch sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import edgeorch
    if Path(edgeorch.__file__).resolve().parent != SRC / "edgeorch":
        raise SystemExit(f"error: imported edgeorch from {edgeorch.__file__}, not {SRC}")


def make_workload(name: str, seed: int):
    import workloads
    if name == "online_exact":
        return workloads.Online(seed, "exact")
    if name == "online_greedy":
        return workloads.Online(seed, "greedy")
    if name == "whatif_audit":
        return workloads.WhatIf(seed)
    if name == "edge_admission":
        return workloads.Admission(seed)
    return workloads.Channels(seed)


class Totals:
    """Counts and program time of a stretch of rounds, with a fixed-size
    uniform sample of operation latencies (Algorithm R), so that the
    benchmark's memory does not grow with the program's speed."""

    SAMPLE = 16384

    def __init__(self, first: int):
        self.first = first
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.timed = 0.0
        self.seen = 0
        self.lat = array("d")
        self._rng = random.Random(first)

    def add_latencies(self, values) -> None:
        room = self.SAMPLE - len(self.lat)
        if room > 0:
            self.lat.extend(values[:room])
            self.seen += min(room, len(values))
            values = values[room:]
        for v in values:
            self.seen += 1
            j = self._rng.randrange(self.seen)
            if j < self.SAMPLE:
                self.lat[j] = v


def measure(wl, api, raw_api, ctx, tracer, problems, first=0, seconds=None, rounds=None):
    """Play rounds from number `first` until `seconds` of program time or
    `rounds` rounds have run; returns (context after, Totals)."""
    tot = Totals(first)
    while first + tot.rounds < wl.max_rounds:
        if rounds is not None and tot.rounds >= rounds:
            break
        if rounds is None and tot.timed >= seconds:
            break
        ctx, rr = wl.play(api, ctx, first + tot.rounds)
        with tracer.paused():
            wl.check(raw_api, rr, problems)
        tot.rounds += 1
        tot.attempted += rr.attempted
        tot.failed += rr.failed
        tot.timed += rr.timed
        tot.add_latencies(rr.lat)
    return ctx, tot


def timed_setups(wl, api, repeats: int):
    times = []
    ctx = None
    for _ in range(repeats):
        ctx = None
        gc.collect()
        t0 = time.perf_counter()
        ctx = wl.setup(api)
        times.append(time.perf_counter() - t0)
    return times, ctx


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracing import Tracer, program_api
    from workloads import Problems

    api = program_api()
    tracer = Tracer()
    wl = make_workload(workload, seed)
    wl.tracer = tracer
    problems = Problems()

    setup_times, ctx = timed_setups(wl, api, wl.setup_repeats)
    start = wl.warm(api, ctx)
    # Warm-up rounds, neither timed nor counted, so that measuring starts
    # with the interpreter's specialised code and the caches settled.
    ctx, warmup = measure(wl, api, api, start, tracer, problems, seconds=WARMUP_SECONDS)
    gc.collect()
    if not trace:
        _, tot = measure(wl, api, api, ctx, tracer, problems, first=warmup.rounds,
                         seconds=seconds)
        wl.final_check(api, start, problems)
        ops = tot.attempted - tot.failed
        metrics = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": ops / tot.timed,
            "op_ms_p50": statistics.median(tot.lat) * 1e3,
            "op_ms_p95": statistics.quantiles(tot.lat, n=20)[18] * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        attempted, failed, rounds = tot.attempted, tot.failed, tot.rounds
    else:
        _, plain = measure(wl, api, api, ctx, tracer, problems, first=warmup.rounds,
                           seconds=seconds / 2)
        traced_api = tracer.install(api)
        try:
            timed_setups(wl, traced_api, wl.setup_repeats if wl.trace_setup else 0)
            with tracer.paused():
                ctx, _ = measure(wl, api, api, wl.warm(api, wl.setup(api)), tracer, problems,
                                 rounds=warmup.rounds)
            gc.collect()
            _, traced = measure(wl, traced_api, api, ctx, tracer, problems,
                                first=warmup.rounds, rounds=plain.rounds)
        finally:
            tracer.uninstall()
        ops = traced.attempted - traced.failed
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update(wl.layer_metrics(tracer.summary(), tracer, ops, traced.timed))
        metrics["trace.overhead_pct"] = 100.0 * (traced.timed / plain.timed - 1.0)
        units = PER_LAYER
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        rounds = plain.rounds + traced.rounds
    return {
        "correct": not problems.items,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "_rounds": rounds,
        "_problems": problems.items,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        return max(subprocess.run([sys.executable, __file__, "--workload", w, *rest]).returncode
                   for w in WORKLOADS)
    load_program()

    wall0 = time.perf_counter()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    rounds = result.pop("_rounds")
    problems = result.pop("_problems")
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} rounds {rounds} attempted {result['attempted']} "
          f"failed {result['failed']} correct {result['correct']} "
          f"wall {time.perf_counter() - wall0:.1f} s")

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "problems": problems,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(), "git_sha": git_sha(), "result": result,
    }
    out = out_dir / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
