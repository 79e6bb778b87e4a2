"""Spans and counters recorded at the program's module boundaries.

A Tracer wraps the public functions that one module of edgeorch calls in
another (and those the benchmark calls itself), from the benchmark's
files only: nothing in src/ changes.  Spans live in memory as
[name, start_ns, end_ns, parent index, items] and are summarised when the
run ends.  The untraced run uses the unwrapped functions, so it pays
nothing; the traced run reports its own overhead against an untraced pass
over the same rounds.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from types import SimpleNamespace

from edgeorch import placer, runtime, scenario_io, simulator, topology


def program_api() -> SimpleNamespace:
    """The program entry points the workloads call, unwrapped."""
    return SimpleNamespace(
        parse_scenario=scenario_io.parse_scenario,
        write_report=scenario_io.write_report,
        step=simulator.step,
        apply_capacity_delta=simulator.apply_capacity_delta,
        SimState=simulator.SimState,
        SimStep=simulator.SimStep,
        SimTrace=simulator.SimTrace,
        UnknownApp=simulator.UnknownApp,
        solve_greedy=placer.solve_greedy,
        check_feasible=placer.check_feasible,
        policy_cost=placer.policy_cost,
        plan_actions=placer.plan_actions,
        Placement=placer.Placement,
        InfeasibleError=placer.InfeasibleError,
        admit=runtime.admit,
        release=runtime.release,
        RuntimeState=runtime.RuntimeState,
        RtTask=runtime.RtTask,
        AdmissionRejected=runtime.AdmissionRejected,
        UnknownTask=runtime.UnknownTask,
        Channel=runtime.Channel,
        SENT=runtime.SENT,
        FULL=runtime.FULL,
        Dropped=runtime.Dropped,
    )


# Calls the benchmark makes into the program: api attribute -> span name.
_API_SPANS = {
    "parse_scenario": "scenario_io.parse",
    "write_report": "scenario_io.report",
    "step": "simulator.step",
    "solve_greedy": "placer.solve_greedy",
    "check_feasible": "placer.check_feasible",
    "policy_cost": "placer.policy_cost",
    "plan_actions": "placer.plan_actions",
    "admit": "runtime.admit",
    "release": "runtime.release",
}

# Calls inside the program that cross a module boundary (or dispatch to a
# public solver): (module, attribute) -> span name.  simulator.step finds
# these names in its module globals at call time, so patching them there
# records every call step makes.
_MODULE_SPANS = {
    (simulator, "policy_cost"): "placer.policy_cost",
    (simulator, "plan_actions"): "placer.plan_actions",
    (simulator, "snapshot"): "simulator.snapshot",
    (simulator, "build_topology"): "topology.build",
    (placer, "solve_exact"): "placer.solve_exact",
    (placer, "solve_greedy"): "placer.solve_greedy",
}


class Tracer:
    """In-memory spans; a no-op until install() and while paused()."""

    def __init__(self):
        self.spans: list[list] = []
        self.route_calls = 0
        self.on = False
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            rec = [name, 0, 0, stack[-1], 1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self, api: SimpleNamespace) -> SimpleNamespace:
        """Patch the program's module boundaries; returns a wrapped copy of api."""
        for (module, attr), name in _MODULE_SPANS.items():
            orig = getattr(module, attr)
            self._restore.append((module, attr, orig))
            setattr(module, attr, self._wrap(name, orig))
        route = topology.Topology.route

        def counted_route(topo, a, b):
            if self.on:
                self.route_calls += 1
            return route(topo, a, b)

        self._restore.append((topology.Topology, "route", route))
        topology.Topology.route = counted_route
        traced = SimpleNamespace(**vars(api))
        for attr, name in _API_SPANS.items():
            setattr(traced, attr, self._wrap(name, getattr(api, attr)))
        self.on = True
        return traced

    def uninstall(self) -> None:
        self.on = False
        for obj, attr, orig in reversed(self._restore):
            setattr(obj, attr, orig)
        self._restore.clear()

    def record(self, name: str, start_s: float, end_s: float, items: int) -> None:
        """A span the caller timed itself (a burst of `items` channel calls)."""
        if self.on:
            self.spans.append([name, int(start_s * 1e9), int(end_s * 1e9), self._stack[-1], items])

    @contextmanager
    def paused(self):
        """Record nothing inside: for the benchmark's own checks."""
        was, self.on = self.on, False
        try:
            yield
        finally:
            self.on = was

    def summary(self) -> dict[str, dict]:
        """name -> {"durs": [ns], "self_ns": total self time, "items": total items}."""
        child = [0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict] = {}
        for i, (name, t0, t1, _, items) in enumerate(self.spans):
            s = out.setdefault(name, {"durs": [], "self_ns": 0, "items": 0})
            s["durs"].append(t1 - t0)
            s["self_ns"] += t1 - t0 - child[i]
            s["items"] += items
        return out


def median_ms(summary: dict, name: str) -> float:
    s = summary.get(name)
    return statistics.median(s["durs"]) / 1e6 if s else 0.0


def quantile_ms(summary: dict, name: str, q: int) -> float:
    """q-th percentile of a span's durations in ms (0 when it never ran)."""
    s = summary.get(name)
    if not s:
        return 0.0
    if len(s["durs"]) < 2:
        return s["durs"][0] / 1e6
    return statistics.quantiles(s["durs"], n=100)[q - 1] / 1e6
