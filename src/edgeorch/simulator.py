"""Discrete-event loop replaying scenario timelines through the placer.

Each event (app arrival/departure, capacity delta) triggers a re-solve
with the current placement as the migration baseline.  The orchestrator
never commits an infeasible placement: an unsatisfiable arrival (or a
capacity shrink that would strand the admitted apps) is rejected and the
prior state kept.  An event the exact solver cannot finish within its node
budget is placed by the greedy solver instead.  Data traffic is accounted
analytically from rates and routes; virtual time only orders events.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .appgraph import AppGraph
from .placer import (Action, BudgetExceededError, InfeasibleError, Placement, SolverOpts,
                     account, check_feasible, count_migrations, plan_actions, solve)
# Not called here: the benchmark's tracer (bench/tracing.py) wraps
# simulator.policy_cost by name.
from .placer import policy_cost  # noqa: F401
from .topology import Topology, build_topology


class UnknownApp(KeyError):
    pass


@dataclass(frozen=True)
class Event:
    at: float
    kind: str  # arrival | departure | capacity_delta
    app: str | None = None
    site: str | None = None
    resource: str | None = None
    amount: float | None = None
    seq: int = 0

    @property
    def label(self) -> str:
        if self.kind in ("arrival", "departure"):
            return f"{self.kind}:{self.app}"
        return f"{self.kind}:{self.site}"


@dataclass(frozen=True)
class MetricsSnapshot:
    cpu_used: dict[str, float]
    cpu_capacity: dict[str, float]
    gpu_mem_used: dict[str, float]       # "site/gpu" -> GB
    gpu_mem_capacity: dict[str, float]
    gpu_compute_used: dict[str, float]   # "site/gpu" -> percent
    gpu_compute_capacity: dict[str, float]
    link_traffic_mbps: dict[str, float]  # "child-parent" -> Mbps
    link_bandwidth_mbps: dict[str, float]
    migrations_total: int
    quality_loss: float
    traffic_cost: float


@dataclass(frozen=True)
class SimState:
    topology: Topology
    catalog: dict[str, AppGraph]
    admitted: dict[str, AppGraph] = field(default_factory=dict)
    placement: Placement = field(default_factory=Placement)
    migrations_total: int = 0
    time: float = 0.0


@dataclass(frozen=True)
class SimStep:
    time: float
    event: str
    actions: tuple[Action, ...]
    violations: tuple
    metrics: MetricsSnapshot
    placement: Placement


@dataclass(frozen=True)
class SimTrace:
    steps: tuple[SimStep, ...]


def snapshot(state: SimState) -> MetricsSnapshot:
    """Metrics of the current placement, from the placer's accounting."""
    t = state.topology
    loads = account(t, state.admitted.values(), state.placement)
    sites = [t.sites[sid] for sid in sorted(t.sites)]
    gpus = [(f"{s.id}/{g.id}", (s.id, g.id), g)
            for s in sites for g in sorted(s.gpus, key=lambda g: g.id)]
    return MetricsSnapshot(
        cpu_used={s.id: loads.cpu.get(s.id, 0.0) for s in sites},
        cpu_capacity={s.id: s.ai_cpu_capacity for s in sites},
        gpu_mem_used={name: loads.gpu_mem.get(key, 0.0) for name, key, _ in gpus},
        gpu_mem_capacity={name: g.mem_gb for name, _, g in gpus},
        gpu_compute_used={name: loads.gpu_comp.get(key, 0.0) for name, key, _ in gpus},
        gpu_compute_capacity={name: g.compute_pct for name, _, g in gpus},
        link_traffic_mbps={l.key: loads.link.get(l.child, 0.0) for l in t.links},
        link_bandwidth_mbps={l.key: l.bandwidth_mbps for l in t.links},
        migrations_total=state.migrations_total,
        quality_loss=loads.quality_loss, traffic_cost=loads.traffic_cost,
    )


def apply_capacity_delta(topology: Topology, site_id: str, resource: str,
                         amount: float) -> Topology:
    site = topology.site(site_id)
    if resource != "cpu_cores":
        raise ValueError(f"unsupported capacity resource {resource!r}")
    new_site = replace(site, cpu_cores=site.cpu_cores + amount)
    sites = [new_site if s.id == site_id else s for s in topology.sites.values()]
    return build_topology(sites, list(topology.links))


def step(state: SimState, event: Event,
         opts: SolverOpts | None = None) -> tuple[SimState, list[Action], MetricsSnapshot]:
    """Apply one event: re-solve, derive actions, recompute metrics."""
    if event.at < state.time:
        raise ValueError(f"event at {event.at} precedes current time {state.time}")
    opts = opts or SolverOpts()

    topology = state.topology
    admitted = dict(state.admitted)
    if event.kind == "arrival":
        if event.app not in state.catalog:
            raise UnknownApp(event.app)
        if event.app in admitted:
            raise ValueError(f"app {event.app!r} is already admitted")
        admitted[event.app] = state.catalog[event.app]
    elif event.kind == "departure":
        if event.app not in admitted:
            raise UnknownApp(event.app)
        del admitted[event.app]
    elif event.kind == "capacity_delta":
        topology = apply_capacity_delta(topology, event.site, event.resource, event.amount)
    else:
        raise ValueError(f"unknown event kind {event.kind!r}")

    try:
        try:
            placement = solve(topology, admitted.values(), prev=state.placement, opts=opts)
        except BudgetExceededError:
            # Too hard to prove within the node budget: take a greedy placement.
            placement = solve(topology, admitted.values(), prev=state.placement,
                              opts=replace(opts, solver="greedy"))
    except InfeasibleError:
        # Reject the change; prior placement stays committed.
        new_state = replace(state, time=event.at)
        actions = [Action("Reject", app=event.app, site=event.site)]
        return new_state, actions, snapshot(new_state)

    actions = plan_actions(state.placement, placement)
    new_state = SimState(
        topology=topology,
        catalog=state.catalog,
        admitted=admitted,
        placement=placement,
        migrations_total=state.migrations_total
        + count_migrations(state.placement, placement, placement.assignment),
        time=event.at,
    )
    return new_state, actions, snapshot(new_state)


def run(topology: Topology, catalog: dict[str, AppGraph], events: list[Event],
        opts: SolverOpts | None = None) -> SimTrace:
    """Fold step over the events in (time, sequence) order."""
    state = SimState(topology=topology, catalog=dict(catalog))
    steps = [SimStep(time=0.0, event="initial", actions=(), violations=(),
                     metrics=snapshot(state), placement=state.placement)]
    for ev in sorted(events, key=lambda e: (e.at, e.seq)):
        state, actions, metrics = step(state, ev, opts=opts)
        violations = tuple(check_feasible(state.topology, state.admitted.values(),
                                          state.placement))
        steps.append(SimStep(time=ev.at, event=ev.label, actions=tuple(actions),
                             violations=violations, metrics=metrics,
                             placement=state.placement))
    return SimTrace(steps=tuple(steps))
