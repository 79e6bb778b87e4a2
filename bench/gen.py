"""Seeded input generators for the benchmark workloads.

Everything here is deterministic: the same seed gives the same input
bytes.  The site trees and the online workloads' app catalogs use fixed
seeds of their own; the workload seed draws the timelines, the what-if
apps, the tasks and the channel bursts.  Placement workloads get scenario
documents (plain dicts in the documented schema, rendered to JSON text for
scenario_io.parse_scenario); the runtime workloads get task and payload
streams.  Nothing here imports edgeorch.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

# The app whose arrival can never be placed: its one block needs more CPU
# than any site has, at every knob level.  Its departure hits the
# simulator's UnknownApp fault, so online_greedy counts that event as
# failed.  It does not depend on the seed.
OVERSIZED_APP = "oversized"


def _r(rng: random.Random, lo: float, hi: float, digits: int = 3) -> float:
    return round(rng.uniform(lo, hi), digits)


def tree_topology(rng: random.Random, n_near: int, far_per_near: int, *,
                  far_cpu: tuple[float, float], near_cpu: tuple[float, float],
                  cloud_cpu: float, far_gpus: dict[str, float], near_gpus: int,
                  cloud_gpus: int) -> dict:
    """Cloud root, n_near near-edge sites, far_per_near far-edge sites each;
    far_gpus maps the far-edge sites that have a GPU to its memory in GB."""
    sites = [{
        "id": "cloud", "tier": "Cloud", "cpu_cores": cloud_cpu, "ai_cpu_reserve": 1.0,
        "gpus": [{"id": f"g{k}", "mem_gb": 80.0} for k in range(cloud_gpus)],
    }]
    links = []
    for i in range(n_near):
        nid = f"n{i}"
        sites.append({
            "id": nid, "tier": "NearEdge", "cpu_cores": _r(rng, *near_cpu),
            "ai_cpu_reserve": 1.0,
            "gpus": [{"id": f"g{k}", "mem_gb": _r(rng, 24, 48)} for k in range(near_gpus)],
        })
        links.append({"child": nid, "parent": "cloud", "bandwidth_mbps": _r(rng, 4000, 10000),
                      "latency_ms": _r(rng, 15, 25), "cost_weight": 2.0})
        for j in range(far_per_near):
            fid = f"f{i}_{j}"
            gpus = [{"id": "g0", "mem_gb": far_gpus[fid]}] if fid in far_gpus else []
            sites.append({"id": fid, "tier": "FarEdge", "cpu_cores": _r(rng, *far_cpu),
                          "ai_cpu_reserve": _r(rng, 0.6, 0.9), "gpus": gpus})
            links.append({"child": fid, "parent": nid, "bandwidth_mbps": _r(rng, 300, 1000),
                          "latency_ms": _r(rng, 1, 3), "cost_weight": 1.0})
    return {"sites": sites, "links": links}


def _knob(rng: random.Random, name: str, n_levels: int) -> dict:
    levels = [{"quality": 1.0}]
    q = 1.0
    mult = 1.0
    for _ in range(n_levels - 1):
        q = round(q - rng.uniform(0.1, 0.3), 3)
        mult = round(mult * rng.uniform(0.4, 0.8), 3)
        levels.append({"quality": q, "cpu_mult": mult, "gpu_mem_mult": mult,
                       "gpu_compute_mult": mult, "rate_mult": mult})
    return {"name": name, "levels": levels}


def oversized_app() -> dict:
    return {"id": OVERSIZED_APP,
            "blocks": [{"id": f"{OVERSIZED_APP}_b0", "cpu_req": 1.0e6}],
            "edges": []}


def far_sites(topology: dict) -> list[str]:
    return [s["id"] for s in topology["sites"] if s["tier"] == "FarEdge"]


def _cap_sites(topology: dict) -> list[str]:
    return [s["id"] for s in topology["sites"] if s["tier"] != "Cloud"]


def _scenario(topology: dict, apps: list[dict], events: list[dict], solver: str) -> dict:
    return {"schema_version": 1, "topology": topology, "apps": apps, "events": events,
            "policy": {"solver": solver}}


def render(doc: dict) -> str:
    """Scenario JSON text: the only form in which the program sees the inputs."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


class _Timeline:
    """Event list builder keeping the live app set and event times."""

    def __init__(self, rng: random.Random, catalog: list[str], live: int):
        self.rng = rng
        self.events: list[dict] = []
        self.live = list(catalog[:live])
        self.spare = list(catalog[live:])
        for app in self.live:
            self.add({"kind": "arrival", "app": app})

    def add(self, ev: dict) -> None:
        ev["at"] = float(len(self.events))
        self.events.append(ev)

    def depart(self) -> None:
        app = self.live.pop(self.rng.randrange(len(self.live)))
        self.add({"kind": "departure", "app": app})
        self.spare.append(app)

    def arrive(self) -> None:
        app = self.spare.pop(self.rng.randrange(len(self.spare)))
        self.add({"kind": "arrival", "app": app})
        self.live.append(app)

    def capacity_dip(self, sites: list[str], cores: dict[str, float]) -> tuple[dict, dict]:
        sid = self.rng.choice(sites)
        amount = round(cores[sid] * self.rng.uniform(0.2, 0.5), 3)
        return ({"kind": "capacity_delta", "site": sid, "resource": "cpu_cores", "amount": -amount},
                {"kind": "capacity_delta", "site": sid, "resource": "cpu_cores", "amount": amount})


# Events per round of each online workload; the run always ends on a round.
EXACT_ROUND = 6
EXACT_CATALOG = 9
GREEDY_ROUND = 10


def shaped_app(rng: random.Random, app_id: str, far_sites: list[str], *,
               knob_levels: int, sink: bool) -> dict:
    """A source pinned at a far-edge site feeding free blocks of fixed shape:
    a latency-bound CPU stage, a GPU stage, a CPU stage with a knob and, if
    `sink`, a CPU sink.  Only the numbers vary between apps, so a solver
    does a similar amount of work for every seed; with random shapes the
    exact search's cost spread over a factor of three between seeds.  The
    latency bound admits the source's near-edge subtree, never the cloud."""
    ids = [f"{app_id}_b{k}" for k in range(4 if sink else 3)]
    src = f"{app_id}_src"
    blocks = [
        {"id": src, "cpu_req": 0.0, "pinned_site": rng.choice(far_sites)},
        {"id": ids[0], "cpu_req": _r(rng, 0.3, 1.0, 2), "max_source_latency_ms": 8.0},
        {"id": ids[1], "cpu_req": _r(rng, 0.2, 0.6, 2), "gpu_mem_gb": _r(rng, 1, 6, 1),
         "gpu_compute_pct": _r(rng, 5, 25, 1)},
        {"id": ids[2], "cpu_req": _r(rng, 0.3, 1.2, 2), "params": [_knob(rng, "k0", knob_levels)]},
    ]
    edges = [
        {"from": src, "to": ids[0], "rate_mbps": _r(rng, 10, 40, 1)},
        {"from": ids[0], "to": ids[1], "rate_mbps": _r(rng, 2, 20, 1)},
        {"from": ids[1], "to": ids[2], "rate_mbps": _r(rng, 1, 10, 1)},
    ]
    if sink:
        blocks.append({"id": ids[3], "cpu_req": _r(rng, 0.2, 0.8, 2)})
        edges.append({"from": ids[2], "to": ids[3], "rate_mbps": _r(rng, 0.5, 5, 1)})
    return {"id": app_id, "blocks": blocks, "edges": edges}


def exact_topology() -> dict:
    """The seven-site tree of online_exact.  It does not depend on the seed:
    one deployment, many workloads.  With a random tree per seed the exact
    search's cost varied by a factor of three between seeds."""
    return tree_topology(random.Random(7), n_near=2, far_per_near=2, far_cpu=(3.0, 4.0),
                         near_cpu=(6.0, 8.0), cloud_cpu=256.0,
                         far_gpus={"f0_0": 16.0, "f1_0": 16.0}, near_gpus=1, cloud_gpus=2)


def euler_circuit(rng: random.Random, n: int) -> list[int]:
    """A random Eulerian circuit of the complete graph on n (odd) vertices,
    as its vertex sequence without the closing repeat."""
    adj = {v: [u for u in range(n) if u != v] for v in range(n)}
    for v in range(n):
        rng.shuffle(adj[v])
    used: set[frozenset] = set()
    stack, circuit = [0], []
    while stack:
        v = stack[-1]
        while adj[v] and frozenset((v, adj[v][-1])) in used:
            adj[v].pop()
        if adj[v]:
            u = adj[v].pop()
            used.add(frozenset((v, u)))
            stack.append(u)
        else:
            circuit.append(stack.pop())
    return circuit[:-1]


def online_exact(rng: random.Random, rounds: int) -> tuple[dict, int]:
    """Seven-site tree, two live apps (six free blocks), exact solver.

    Returns (scenario doc, number of warm-up events before the first round).
    The tree and the catalog of EXACT_CATALOG apps are fixed; the seed
    orders the apps and sizes the capacity dips.  The live pairs follow
    seeded Eulerian circuits of the complete graph on the catalog, so every
    pair of apps is live once per cycle: the exact search's cost varies
    fifteenfold between pairs, and with random pairs (or one fixed circuit)
    the median decision time moved by a quarter (a tenth) between seeds.
    A round twice departs the older live app (leaving one, a search space
    small enough to brute-force) and brings the next, then dips the CPU of
    the next non-cloud site and restores it.
    """
    topo = exact_topology()
    fars = far_sites(topo)
    apps = [shaped_app(random.Random(f"online_exact/{k}"), f"a{k:02d}", fars, knob_levels=2,
                       sink=False) for k in range(EXACT_CATALOG)]
    # Circuits joined end to end; a fresh one each cycle, so that the pair
    # live during each dip and the previous placements vary within a run
    # rather than between seeds.
    order: list[str] = []
    while len(order) < 2 * rounds + 2:
        circuit = [apps[v]["id"] for v in euler_circuit(rng, EXACT_CATALOG)]
        # The app arriving first must not be the one that just departed.
        if not order or circuit[1] != order[-1]:
            order.extend(circuit)
    sites = _cap_sites(topo)
    cores = {s["id"]: s["cpu_cores"] for s in topo["sites"]}
    events: list[dict] = []

    def add(ev):
        ev["at"] = float(len(events))
        events.append(ev)

    add({"kind": "arrival", "app": order[0]})
    add({"kind": "arrival", "app": order[1]})
    warmup = len(events)
    i = 0
    for r in range(rounds):
        for _ in range(2):
            add({"kind": "departure", "app": order[i]})
            add({"kind": "arrival", "app": order[i + 2]})
            i += 1
        sid = sites[r % len(sites)]
        amount = round(cores[sid] * rng.uniform(0.2, 0.5), 3)
        add({"kind": "capacity_delta", "site": sid, "resource": "cpu_cores", "amount": -amount})
        add({"kind": "capacity_delta", "site": sid, "resource": "cpu_cores", "amount": amount})
    return _scenario(topo, apps, events, "exact"), warmup


def large_topology() -> dict:
    """The 29-site tree of online_greedy and whatif_audit, fixed like
    exact_topology: cloud, four near-edge sites, six far-edge sites under
    each, every other far-edge site with a GPU."""
    far_gpus = {f"f{i}_{j}": 24.0 for i in range(4) for j in (0, 2, 4)}
    return tree_topology(random.Random(29), n_near=4, far_per_near=6, far_cpu=(6.0, 12.0),
                         near_cpu=(24.0, 40.0), cloud_cpu=1024.0, far_gpus=far_gpus,
                         near_gpus=2, cloud_gpus=16)


def online_greedy(rng: random.Random, rounds: int) -> tuple[dict, int]:
    """29 sites and 40 live apps (200 blocks), greedy solver.

    The tree and the catalog of 60 apps are fixed; the seed picks which
    apps come and go and which site's CPU dips.
    A round departs three apps, brings three others, dips one site's CPU
    and restores it, then sends the oversized app's arrival (always
    rejected) and its departure (fails with UnknownApp).
    """
    topo = large_topology()
    fars = far_sites(topo)
    apps = [shaped_app(random.Random(f"online_greedy/{k}"), f"a{k:02d}", fars, knob_levels=3,
                       sink=True) for k in range(60)]
    apps.append(oversized_app())
    cores = {s["id"]: s["cpu_cores"] for s in topo["sites"]}
    tl = _Timeline(rng, [a["id"] for a in apps[:-1]], live=40)
    warmup = len(tl.events)
    for _ in range(rounds):
        for _ in range(3):
            tl.depart()
        for _ in range(3):
            tl.arrive()
        dip, restore = tl.capacity_dip(_cap_sites(topo), cores)
        tl.add(dip)
        tl.add(restore)
        tl.add({"kind": "arrival", "app": OVERSIZED_APP})
        tl.add({"kind": "departure", "app": OVERSIZED_APP})
    return _scenario(topo, apps, tl.events, "greedy"), warmup


def whatif_base(rng: random.Random) -> dict:
    """29 sites and 40 admitted apps (200 blocks), no events."""
    topo = large_topology()
    fars = far_sites(topo)
    apps = [shaped_app(rng, f"a{k:02d}", fars, knob_levels=3, sink=True) for k in range(40)]
    return _scenario(topo, apps, [], "greedy")


# -- far-edge runtime -----------------------------------------------------------

RUNTIME_CPU_CORES = 4.0
RUNTIME_GPU_AREA = 100.0
HELD_TASKS = 400
ADMISSION_ROUND = 64


def rt_task(rng: random.Random, task_id: str) -> tuple[str, int, int, str]:
    """(id, budget_us, period_us, kind); CPU tasks outnumber GPU tasks 3:1."""
    kind = "Gpu" if rng.random() < 0.25 else "Cpu"
    period = rng.choice((1000, 2000, 2500, 5000, 10000, 20000))
    mean_util = 0.0125 if kind == "Cpu" else 0.009
    budget = max(1, min(period, round(period * rng.uniform(0.2, 1.8) * mean_util)))
    return (task_id, budget, period, kind)


class AdmissionModel:
    """The benchmark's own admission bookkeeping, in exact fractions."""

    def __init__(self, cpu_cores: float, gpu_area: float):
        self.cpu_cap = Fraction(cpu_cores)
        self.gpu_cap = Fraction(gpu_area)
        self.cpu = Fraction(0)
        self.gpu = Fraction(0)
        self.tasks: dict[str, tuple[str, int, int, str]] = {}

    def decide(self, task: tuple[str, int, int, str]) -> str | None:
        """None if task would be admitted, else the rejection reason."""
        tid, budget, period, kind = task
        if tid in self.tasks:
            return "DuplicateId"
        u = Fraction(budget, period)
        if kind == "Cpu":
            return "CpuOver" if self.cpu + u > self.cpu_cap else None
        return "GpuOver" if self.gpu + u * 100 > self.gpu_cap else None

    def admit(self, task: tuple[str, int, int, str]) -> None:
        tid, budget, period, kind = task
        self.tasks[tid] = task
        if kind == "Cpu":
            self.cpu += Fraction(budget, period)
        else:
            self.gpu += Fraction(budget, period) * 100

    def release(self, tid: str) -> None:
        _, budget, period, kind = self.tasks.pop(tid)
        if kind == "Cpu":
            self.cpu -= Fraction(budget, period)
        else:
            self.gpu -= Fraction(budget, period) * 100


def admission_initial(rng: random.Random) -> list[tuple[str, int, int, str]]:
    """HELD_TASKS tasks that fit together, admitted during set-up."""
    model = AdmissionModel(RUNTIME_CPU_CORES, RUNTIME_GPU_AREA)
    out = []
    k = 0
    while len(out) < HELD_TASKS:
        task = rt_task(rng, f"t{k}")
        k += 1
        if model.decide(task) is None:
            model.admit(task)
            out.append(task)
    return out


def admission_round(rng: random.Random, model: AdmissionModel, next_id: int):
    """ADMISSION_ROUND churn operations holding about HELD_TASKS admitted.

    An operation is (task id to release or None, task to admit): at the
    hold level a random admitted task leaves and a new one asks to be
    admitted; below it a new task only asks.  One ask in fifty repeats an
    admitted id.  The model is advanced with the expected outcomes.
    Returns (operations, next free task number).
    """
    ops = []
    for _ in range(ADMISSION_ROUND):
        leaving = None
        if len(model.tasks) >= HELD_TASKS:
            leaving = rng.choice(sorted(model.tasks))
            model.release(leaving)
        if model.tasks and rng.random() < 0.02:
            task = model.tasks[rng.choice(sorted(model.tasks))]
        else:
            task = rt_task(rng, f"t{next_id}")
            next_id += 1
        ops.append((leaving, task))
        if model.decide(task) is None:
            model.admit(task)
    return ops, next_id


CHANNEL_CAPACITY = 1024
CHANNEL_PAYLOAD = 64
CHANNEL_ROUND = 16


def channel_bursts(rng: random.Random) -> list[tuple[int, int]]:
    """CHANNEL_ROUND (sends, recvs) burst sizes; sends run ahead now and then."""
    out = []
    for _ in range(CHANNEL_ROUND):
        n = rng.randint(64, 512)
        if rng.random() < 0.25:
            out.append((n + rng.randint(256, 1024), n))
        else:
            out.append((n, n + rng.randint(0, 256)))
    return out
