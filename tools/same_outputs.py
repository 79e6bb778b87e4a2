"""Digests of what the solvers and the simulator decide, for one src/ tree.

    python3 tools/same_outputs.py --src DIR             # one digest per case
    python3 tools/same_outputs.py --src OLD --src NEW   # compare two trees

DIR is a src/ directory holding the edgeorch package, for example that of
a `git archive HEAD` copy.  With one --src the tool prints one line
"<case> <digest>" per case of a fixed corpus.  With two it runs each tree
in a process of its own, prints the first case whose digest differs and
exits 1, or says that every case is the same and exits 0.  The workload
generator (bench/gen.py) and the random instances (tests/instance_gen.py)
come from the checkout this file is in, so both trees see the same inputs.

The corpus:
- the first 600 simulator.step events of the online_exact and
  online_greedy timelines, seeds 1-3: per step the placement, the actions,
  the metrics snapshot and migrations_total, or the UnknownApp raised;
- solve_greedy and solve_exact on random_instance seeds 0-299, at the
  default size and at max_sites=8, max_free=16 (exact within 200k nodes),
  each with no prev, with greedy's placement as prev, with that prev on
  the same tree with every site's CPU halved, and back on the full tree
  with greedy's placement on the halved tree as prev (its blocks sit on
  other sites than greedy's own ties pick, so the migration term of the
  objective decides more choices): the placement, or "infeasible" or
  "over budget".
"""

from __future__ import annotations

import argparse
import hashlib
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STEPS = 600
ONLINE_SEEDS = (1, 2, 3)
INSTANCE_SEEDS = range(300)
SIZES = (("default", {}, 10_000_000), ("wide", {"max_sites": 8, "max_free": 16}, 200_000))


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:20]


def online_cases():
    import gen
    from edgeorch import scenario_io, simulator

    for name, make, rounds in (("online_exact", gen.online_exact, 800),
                               ("online_greedy", gen.online_greedy, 200)):
        for seed in ONLINE_SEEDS:
            doc, _warmup = make(random.Random(seed), rounds=rounds)
            scenario = scenario_io.parse_scenario(gen.render(doc))
            state = simulator.SimState(topology=scenario.topology, catalog=dict(scenario.apps))
            for k, ev in enumerate(scenario.events[:STEPS]):
                try:
                    state, actions, metrics = simulator.step(state, ev, opts=scenario.policy)
                    out = (state.placement.to_json_obj(), [a.to_json_obj() for a in actions],
                           metrics, state.migrations_total)
                except simulator.UnknownApp as exc:  # the outcome is part of what is compared
                    out = ("UnknownApp", str(exc))
                yield f"{name}/seed{seed}/step{k:03d}", out


def instance_cases():
    from edgeorch.placer import (BudgetExceededError, InfeasibleError, SolverOpts,
                                 solve_exact, solve_greedy)
    from edgeorch.topology import build_topology
    from instance_gen import random_instance

    def outcome(solver, topology, app, prev, opts):
        try:
            return solver(topology, [app], prev=prev, opts=opts)
        except InfeasibleError:
            return "infeasible"
        except BudgetExceededError:
            return "over budget"

    def greedy_placement(topology, app, opts):
        result = outcome(solve_greedy, topology, app, None, opts)
        return None if isinstance(result, str) else result

    for size, kwargs, max_nodes in SIZES:
        opts = SolverOpts(max_nodes=max_nodes)
        for seed in INSTANCE_SEEDS:
            topology, app = random_instance(seed, **kwargs)
            halved = build_topology(
                [replace(s, cpu_cores=s.cpu_cores / 2) for s in topology.sites.values()],
                list(topology.links))
            prev, halved_prev = (greedy_placement(tree, app, opts) for tree in (topology, halved))
            for prev_kind, tree, p in (("noprev", topology, None), ("prev", topology, prev),
                                       ("halved", halved, prev), ("regrow", topology, halved_prev)):
                for solver in (solve_greedy, solve_exact):
                    result = outcome(solver, tree, app, p, opts)
                    if not isinstance(result, str):
                        result = result.to_json_obj()
                    yield f"{size}/seed{seed:03d}/{prev_kind}/{solver.__name__}", result


def print_digests(src: Path) -> None:
    sys.path[:0] = [str(src), str(ROOT / "bench"), str(ROOT / "tests")]
    import edgeorch
    if not Path(edgeorch.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"edgeorch imported from {edgeorch.__file__}, not from {src}")
    for cases in (online_cases(), instance_cases()):
        for case, out in cases:
            print(case, digest(out), flush=True)


def compare(old: Path, new: Path) -> int:
    procs = [subprocess.Popen([sys.executable, __file__, "--src", str(src)],
                              stdout=subprocess.PIPE, text=True) for src in (old, new)]
    outputs = [p.communicate()[0].splitlines() for p in procs]
    if any(p.returncode for p in procs):
        print("a run failed", file=sys.stderr)
        return 2
    old_lines, new_lines = outputs
    for a, b in zip(old_lines, new_lines):
        if a != b:
            print(f"first difference: {a.split()[0]}\n  {old}: {a}\n  {new}: {b}")
            return 1
    if len(old_lines) != len(new_lines):
        print(f"different case counts: {len(old_lines)} and {len(new_lines)}")
        return 1
    print(f"{len(old_lines)} cases, all the same")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, action="append", required=True,
                    help="a src/ directory; give two to compare them")
    args = ap.parse_args()
    if len(args.src) == 1:
        print_digests(args.src[0])
        return 0
    if len(args.src) == 2:
        return compare(*args.src)
    ap.error("give --src once or twice")


if __name__ == "__main__":
    sys.exit(main())
