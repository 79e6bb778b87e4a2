"""Placement solvers for application blocks over the site tree.

Feasibility covers per-site CPU, per-GPU memory/compute, per-link
bandwidth (both directions pooled), per-block source-latency bounds,
tier allow-lists and pins.  Among feasible placements the objective is
lexicographic: quality_loss, then traffic_cost, then migrations versus
the previous placement, then a deterministic block->site tiebreak key.

solve_exact is a branch-and-bound over site assignments, GPU slots and
knob levels.  It starts from the greedy placement as its incumbent and
cuts a node on residual capacity and on an admissible lookahead bound:
the partial cost plus each unplaced block's least quality loss and least
traffic to the blocks already placed.  solve_greedy is a scalable
non-optimal fallback with parameter-level deepening and bounded
evict-and-replace retries; it probes each block's options in key order
and keeps the first that fits.  Per event, _Problem compiles candidate
sites once per block signature; level combos are compiled once per Block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .appgraph import (AppGraph, Block, DemandVector, LevelCombo, effective_demand, quality_loss,
                       source_latency_requirements)
from .topology import Topology

EPS = 1e-9


class InfeasibleError(Exception):
    def __init__(self, message: str, violations: list[str] | None = None):
        super().__init__(message)
        self.violations = violations or []


class BudgetExceededError(Exception):
    pass


@dataclass(frozen=True)
class Violation:
    kind: str  # CpuOver | GpuMemOver | GpuComputeOver | BandwidthOver | LatencyOver | TierForbidden | PinBroken
    subject: str
    amount: float


@dataclass(frozen=True)
class Placement:
    # block id -> (site id, gpu id or None)
    assignment: dict[str, tuple[str, str | None]] = field(default_factory=dict)
    # (block id, knob name) -> level index
    levels: dict[tuple[str, str], int] = field(default_factory=dict)

    def site_of(self, block_id: str) -> str:
        return self.assignment[block_id][0]

    def levels_of(self, block: Block) -> tuple[int, ...]:
        return tuple(self.levels.get((block.id, k.name), 0) for k in block.params)

    def to_json_obj(self) -> dict:
        out: dict = {"assignment": {}, "levels": {}}
        for bid in sorted(self.assignment):
            site, gpu = self.assignment[bid]
            out["assignment"][bid] = {"site": site, "gpu": gpu}
        for (bid, knob) in sorted(self.levels):
            out["levels"].setdefault(bid, {})[knob] = self.levels[(bid, knob)]
        return out


@dataclass(frozen=True)
class PolicyCost:
    quality_loss: float
    traffic_cost: float
    migrations: int
    tiebreak: tuple = ()

    def key(self) -> tuple:
        return (self.quality_loss, self.traffic_cost, self.migrations, self.tiebreak)

    def to_json_obj(self) -> dict:
        return {
            "quality_loss": self.quality_loss,
            "traffic_cost": self.traffic_cost,
            "migrations": self.migrations,
        }


@dataclass(frozen=True)
class SolverOpts:
    solver: str = "exact"
    max_nodes: int = 10_000_000
    max_evictions: int = 8


@dataclass(frozen=True)
class Action:
    kind: str  # Deploy | Migrate | Remove | SetLevel | Reject
    block: str | None = None
    app: str | None = None
    site: str | None = None
    gpu: str | None = None
    from_site: str | None = None
    levels: tuple[tuple[str, int], ...] | None = None

    def to_json_obj(self) -> dict:
        out = {"kind": self.kind}
        for k in ("block", "app", "site", "gpu", "from_site"):
            v = getattr(self, k)
            if v is not None:
                out[k] = v
        if self.levels is not None:
            out["levels"] = {name: idx for name, idx in self.levels}
        return out


def _lex_cmp(a: tuple, b: tuple) -> int:
    """-1, 0 or 1 as (qloss, traffic, migrations) a is below, level with or
    above b, the float terms compared with EPS bands.

    The running sums accumulate floats in search order, so two placements
    with identical recomputed costs can differ by rounding noise here; a
    strict tuple compare would then pick the tiebreak arbitrarily.
    """
    for i in (0, 1):
        if a[i] < b[i] - EPS:
            return -1
        if a[i] > b[i] + EPS:
            return 1
    return (a[2] > b[2]) - (a[2] < b[2])


def _sorted_apps(apps) -> list[AppGraph]:
    return sorted(apps, key=lambda a: a.id)


def _all_blocks(apps) -> dict[str, tuple[AppGraph, Block]]:
    out: dict[str, tuple[AppGraph, Block]] = {}
    for app in _sorted_apps(apps):
        for b in app.blocks:
            if b.id in out:
                raise ValueError(f"block id {b.id!r} appears in multiple admitted apps")
            out[b.id] = (app, b)
    return out


@dataclass(frozen=True)
class Loads:
    """What a total placement puts on sites, GPUs and links: the one
    accounting behind check_feasible, policy_cost and the metrics snapshot."""
    blocks: dict[str, tuple[AppGraph, Block]]
    cpu: dict[str, float]                    # site id -> cores
    gpu_mem: dict[tuple[str, str], float]    # (site, gpu) -> GB
    gpu_comp: dict[tuple[str, str], float]   # (site, gpu) -> percent
    link: dict[str, float]                   # child site id -> Mbps, both directions pooled
    quality_loss: float
    traffic_cost: float


def account(topology: Topology, apps, placement: Placement) -> Loads:
    """Demands, loads, quality loss and traffic cost of a total placement.

    Raises ValueError when a block is unplaced, or when its GPU slot does
    not match whether it needs a GPU.
    """
    blocks = _all_blocks(apps)
    demand: dict[str, DemandVector] = {}
    cpu: dict[str, float] = {}
    gpu_mem: dict[tuple[str, str], float] = {}
    gpu_comp: dict[tuple[str, str], float] = {}
    qloss = 0.0
    for bid, (app, b) in blocks.items():
        if bid not in placement.assignment:
            raise ValueError(f"placement is not total: missing block {bid!r}")
        site_id, gpu_id = placement.assignment[bid]
        levels = placement.levels_of(b)
        d = demand[bid] = effective_demand(b, levels)
        qloss += quality_loss(b, levels)
        cpu[site_id] = cpu.get(site_id, 0.0) + d.cpu
        if b.needs_gpu:
            if gpu_id is None:
                raise ValueError(f"block {bid!r} requires a GPU slot but has none")
            key = (site_id, gpu_id)
            gpu_mem[key] = gpu_mem.get(key, 0.0) + d.gpu_mem_gb
            gpu_comp[key] = gpu_comp.get(key, 0.0) + d.gpu_compute_pct
        elif gpu_id is not None:
            raise ValueError(f"block {bid!r} does not require a GPU but has slot {gpu_id!r}")

    link: dict[str, float] = {}
    traffic = 0.0
    for app in _sorted_apps(apps):
        for e in app.edges:
            rate = e.rate_mbps * demand[e.src].rate_scale
            if rate <= 0:
                continue
            links, cost, _lat = topology.path(placement.site_of(e.src), placement.site_of(e.dst))
            traffic += rate * cost
            for l in links:
                link[l.child] = link.get(l.child, 0.0) + rate
    return Loads(blocks, cpu, gpu_mem, gpu_comp, link, qloss, traffic)


def check_feasible(topology: Topology, apps, placement: Placement) -> list[Violation]:
    """All constraint violations of a total placement (empty == feasible)."""
    loads = account(topology, apps, placement)
    out: list[Violation] = []
    for bid, (app, b) in sorted(loads.blocks.items()):
        site_id = placement.site_of(bid)
        if topology.site(site_id).tier not in b.allowed_tiers:
            out.append(Violation("TierForbidden", f"{bid}@{site_id}", 0.0))
        if b.pinned_site is not None and site_id != b.pinned_site:
            out.append(Violation("PinBroken", bid, 0.0))

    for site_id in sorted(loads.cpu):
        cap = topology.site(site_id).ai_cpu_capacity
        if loads.cpu[site_id] > cap + EPS:
            out.append(Violation("CpuOver", site_id, loads.cpu[site_id] - cap))
    for (site_id, gpu_id) in sorted(loads.gpu_mem):
        gpu = topology.site(site_id).gpu(gpu_id)
        mem, comp = loads.gpu_mem[(site_id, gpu_id)], loads.gpu_comp[(site_id, gpu_id)]
        if mem > gpu.mem_gb + EPS:
            out.append(Violation("GpuMemOver", f"{site_id}/{gpu_id}", mem - gpu.mem_gb))
        if comp > gpu.compute_pct + EPS:
            out.append(Violation("GpuComputeOver", f"{site_id}/{gpu_id}", comp - gpu.compute_pct))

    for link in topology.links:
        load = loads.link.get(link.child, 0.0)
        if load > link.bandwidth_mbps + EPS:
            out.append(Violation("BandwidthOver", link.key, load - link.bandwidth_mbps))

    for app in _sorted_apps(apps):
        reqs = source_latency_requirements(app)
        for bid, sources in reqs.items():
            bound = app.block(bid).max_source_latency_ms
            here = placement.site_of(bid)
            for src in sources:
                lat = topology.path_latency_ms(placement.site_of(src), here)
                if lat > bound + EPS:
                    out.append(Violation("LatencyOver", f"{src}->{bid}", lat - bound))
    return out


def policy_cost(topology: Topology, apps, placement: Placement,
                prev: Placement | None = None) -> PolicyCost:
    """Lexicographic objective of a (feasible) placement."""
    loads = account(topology, apps, placement)
    blocks = loads.blocks
    tiebreak = tuple(
        (bid, placement.assignment[bid][0], placement.assignment[bid][1] or "",
         placement.levels_of(blocks[bid][1]))
        for bid in sorted(blocks)
    )
    return PolicyCost(loads.quality_loss, loads.traffic_cost,
                      count_migrations(prev, placement, blocks), tiebreak)


def count_migrations(prev: Placement | None, placement: Placement, block_ids) -> int:
    """How many of block_ids are placed in both prev and placement, on
    different sites: the one definition of a migration."""
    if prev is None:
        return 0
    return sum(1 for bid in block_ids
               if bid in prev.assignment and prev.site_of(bid) != placement.site_of(bid))


class _Problem:
    """Shared precomputation for both solvers."""

    def __init__(self, topology: Topology, apps, prev: Placement | None):
        self.topology = topology
        self.apps = _sorted_apps(apps)
        self.blocks_by_id = _all_blocks(apps)

        pinned: list[tuple[AppGraph, Block]] = []
        free: list[tuple[AppGraph, Block]] = []
        for bid, pair in self.blocks_by_id.items():
            (pinned if pair[1].pinned_site is not None else free).append(pair)
        pinned.sort(key=lambda p: p[1].id)
        free.sort(key=lambda p: (-p[1].gpu_mem_gb, -p[1].gpu_compute_pct, -p[1].cpu_req, p[1].id))
        self.order: list[tuple[AppGraph, Block]] = pinned + free
        self.index = {pair[1].id: i for i, pair in enumerate(self.order)}
        self.n = len(self.order)

        self.bw_cap = {l.child: l.bandwidth_mbps for l in topology.links}

        # Latency requirements: block id -> list of (pinned source site, bound)
        self.lat_reqs: dict[str, list[tuple[str, float]]] = {}
        for app in self.apps:
            for bid, sources in source_latency_requirements(app).items():
                bound = app.block(bid).max_source_latency_ms
                self.lat_reqs[bid] = [(app.block(s).pinned_site, bound) for s in sources]

        # Each block's (site, gpu) candidates and the distinct sites among
        # them depend only on its pin, tiers, GPU need and latency
        # requirements: compiled once per such signature, shared as tuples.
        site_ids = sorted(topology.sites)
        compiled: dict[tuple, tuple[tuple, tuple]] = {}  # signature -> (candidates, sites)
        self.candidates: list[tuple[tuple[str, str | None], ...]] = []
        self.cand_sites: list[tuple[str, ...]] = []
        for app, b in self.order:
            reqs = tuple(self.lat_reqs.get(b.id, ()))
            signature = (b.pinned_site, b.allowed_tiers, b.needs_gpu, reqs)
            if signature not in compiled:
                cands: list[tuple[str, str | None]] = []
                cand_sites: list[str] = []
                for sid in [b.pinned_site] if b.pinned_site is not None else site_ids:
                    site = topology.site(sid)
                    if site.tier not in b.allowed_tiers:
                        continue
                    if not all(topology.path_latency_ms(src_site, sid) <= bound + EPS
                               for src_site, bound in reqs):
                        continue
                    if b.needs_gpu:
                        if not site.gpus:
                            continue
                        cands.extend((sid, g.id) for g in sorted(site.gpus, key=lambda g: g.id))
                    else:
                        cands.append((sid, None))
                    cand_sites.append(sid)
                compiled[signature] = (tuple(cands), tuple(cand_sites))
            cands, cand_sites = compiled[signature]
            self.candidates.append(cands)
            self.cand_sites.append(cand_sites)

        self.combos = [b.level_combos()[0] for _app, b in self.order]
        self.qloss_groups = [b.level_combos()[1] for _app, b in self.order]

        # Lookahead bound terms: the least qloss blocks i.. can add (combos
        # are sorted by qloss) and each block's least rate scale.
        self.qloss_suffix = [0.0] * (self.n + 1)
        for i in reversed(range(self.n)):
            self.qloss_suffix[i] = self.combos[i][0].qloss + self.qloss_suffix[i + 1]
        self.min_scale = [min(c.rate_scale for c in combos) for combos in self.combos]

        # All edges incident to each block as (peer index, block_is_src, rate).
        # An edge's load is added by whichever endpoint is placed second.
        self.incident: list[list[tuple[int, bool, float]]] = [[] for _ in range(self.n)]
        for app in self.apps:
            for e in app.edges:
                i, j = self.index[e.src], self.index[e.dst]
                self.incident[i].append((j, True, e.rate_mbps))
                self.incident[j].append((i, False, e.rate_mbps))

        self.cost_rows: dict[tuple[str, bool], dict[str, float]] = {}
        self.prev_site = {bid: prev.site_of(bid) for bid in prev.assignment} if prev else {}

    def cost_row(self, peer_site: str, from_sites: bool) -> dict[str, float]:
        """Site id -> cost of the path from it to peer_site (from_sites) or
        from peer_site to it; built once per event."""
        row = self.cost_rows.get((peer_site, from_sites))
        if row is None:
            path = self.topology.path
            row = self.cost_rows[(peer_site, from_sites)] = {
                sid: (path(sid, peer_site) if from_sites else path(peer_site, sid))[1]
                for sid in self.topology.sites}
        return row

    def min_fit_exists(self, i: int, cpu_used, gpu_mem, gpu_comp) -> bool:
        """True if block i fits somewhere on residual capacity alone."""
        app, b = self.order[i]
        combos = self.combos[i]
        for sid, gid in self.candidates[i]:
            site = self.topology.site(sid)
            cap = site.ai_cpu_capacity - cpu_used.get(sid, 0.0)
            for c in combos:
                if c.cpu > cap + EPS:
                    continue
                if gid is not None:
                    gpu = site.gpu(gid)
                    if c.gpu_mem > gpu.mem_gb - gpu_mem.get((sid, gid), 0.0) + EPS:
                        continue
                    if c.gpu_comp > gpu.compute_pct - gpu_comp.get((sid, gid), 0.0) + EPS:
                        continue
                return True
        return False


class _State:
    """Mutable partial assignment shared by the solvers.

    A token (i, site, gpu, combo, link loads by child site id, traffic,
    migration) records what placing block i adds; placing, undoing,
    removing and restoring all go through apply().
    """

    def __init__(self, prob: _Problem):
        self.prob = prob
        self.site: list[str | None] = [None] * prob.n
        self.gpu: list[str | None] = [None] * prob.n
        self.combo: list[LevelCombo | None] = [None] * prob.n
        self.cpu_used: dict[str, float] = {}
        self.gpu_mem: dict[tuple[str, str], float] = {}
        self.gpu_comp: dict[tuple[str, str], float] = {}
        self.bw_used: dict[str, float] = {}
        self.qloss = 0.0
        self.traffic = 0.0
        self.migrations = 0

    def token(self, i: int, sid: str, gid: str | None, combo: LevelCombo) -> tuple:
        """Token for block i at (sid, gid, combo): the link loads and traffic its
        edges to placed peers add, and whether it migrates."""
        prob = self.prob
        bw_delta: dict[str, float] = {}
        traffic_delta = 0.0
        for peer, i_is_src, base_rate in prob.incident[i]:
            peer_site = self.site[peer]
            if peer_site is None:
                continue  # edge accounted when the peer is placed
            rate = base_rate * (combo.rate_scale if i_is_src else self.combo[peer].rate_scale)
            if rate <= 0:
                continue
            a, b = (sid, peer_site) if i_is_src else (peer_site, sid)
            links, cost, _lat = prob.topology.path(a, b)
            traffic_delta += rate * cost
            for link in links:
                bw_delta[link.child] = bw_delta.get(link.child, 0.0) + rate
        migr = 1 if prob.prev_site.get(prob.order[i][1].id, sid) != sid else 0
        return (i, sid, gid, combo, bw_delta, traffic_delta, migr)

    def apply(self, token: tuple, sign: int) -> None:
        """Add (sign 1) or take away (sign -1) what a token records."""
        i, sid, gid, combo, bw_delta, traffic_delta, migr = token
        self.site[i], self.gpu[i], self.combo[i] = (sid, gid, combo) if sign > 0 else (None, None, None)
        self.cpu_used[sid] = self.cpu_used.get(sid, 0.0) + sign * combo.cpu
        if gid is not None:
            gkey = (sid, gid)
            self.gpu_mem[gkey] = self.gpu_mem.get(gkey, 0.0) + sign * combo.gpu_mem
            self.gpu_comp[gkey] = self.gpu_comp.get(gkey, 0.0) + sign * combo.gpu_comp
        for key, add in bw_delta.items():
            self.bw_used[key] = self.bw_used.get(key, 0.0) + sign * add
        self.qloss += sign * combo.qloss
        self.traffic += sign * traffic_delta
        self.migrations += sign * migr

    def fits(self, i: int, sid: str, gid: str | None, combo: LevelCombo):
        """Token for block i at (sid, gid, combo), or None when it does not fit
        the residual capacity; changes nothing."""
        prob = self.prob
        site = prob.topology.site(sid)
        if self.cpu_used.get(sid, 0.0) + combo.cpu > site.ai_cpu_capacity + EPS:
            return None
        if gid is not None:
            gpu = site.gpu(gid)
            gkey = (sid, gid)
            if self.gpu_mem.get(gkey, 0.0) + combo.gpu_mem > gpu.mem_gb + EPS:
                return None
            if self.gpu_comp.get(gkey, 0.0) + combo.gpu_comp > gpu.compute_pct + EPS:
                return None
        token = self.token(i, sid, gid, combo)
        for key, add in token[4].items():
            if self.bw_used.get(key, 0.0) + add > prob.bw_cap[key] + EPS:
                return None
        return token

    def best_option(self, i: int):
        """Token of block i's fitting option with the least key (qloss,
        traffic, migration, site, gpu, levels), or None; changes nothing.
        Options are probed in key order, one qloss group at a time; traffic
        is summed as token() sums it, so keys compare as the tokens' would."""
        prob = self.prob
        peers = [(prob.cost_row(self.site[peer], i_is_src), i_is_src, base_rate, self.combo[peer])
                 for peer, i_is_src, base_rate in prob.incident[i] if self.site[peer] is not None]
        prev_site = prob.prev_site.get(prob.order[i][1].id)
        for group in prob.qloss_groups[i]:
            options = []
            for combo in group:
                traffic = {}
                for sid in prob.cand_sites[i]:
                    t = 0.0
                    for costs, i_is_src, base_rate, peer_combo in peers:
                        rate = base_rate * (combo.rate_scale if i_is_src else peer_combo.rate_scale)
                        if rate > 0:
                            t += rate * costs[sid]
                    traffic[sid] = t
                options.extend((traffic[sid], 1 if prev_site not in (None, sid) else 0,
                                sid, gid or "", combo.levels, gid, combo)
                               for sid, gid in prob.candidates[i])
            options.sort()  # (site, gpu, levels) is unique: gid and combo are never compared
            for _t, _migr, sid, _g, _levels, gid, combo in options:
                token = self.fits(i, sid, gid, combo)
                if token is not None:
                    return token
        return None

    def try_place(self, i: int, sid: str, gid: str | None, combo: LevelCombo):
        """fits() and apply; returns an undo token or None on misfit."""
        token = self.fits(i, sid, gid, combo)
        if token is not None:
            self.apply(token, 1)
        return token

    def undo(self, token) -> None:
        self.apply(token, -1)

    def remove(self, i: int):
        """Take placed block i out; returns what restore() needs to put it back."""
        totals = (dict(self.cpu_used), dict(self.gpu_mem), dict(self.gpu_comp),
                  dict(self.bw_used), self.qloss, self.traffic)
        token = self.token(i, self.site[i], self.gpu[i], self.combo[i])
        self.apply(token, -1)
        return token, totals

    def restore(self, removed) -> None:
        """Undo remove() exactly, once everything placed since has been undone.

        Float sums do not round-trip through a subtract and an add, so the
        totals come back from before the removal.
        """
        token, totals = removed
        self.apply(token, 1)
        (self.cpu_used, self.gpu_mem, self.gpu_comp,
         self.bw_used, self.qloss, self.traffic) = totals

    def to_placement(self) -> Placement:
        assignment: dict[str, tuple[str, str | None]] = {}
        levels: dict[tuple[str, str], int] = {}
        for i, (app, b) in enumerate(self.prob.order):
            assignment[b.id] = (self.site[i], self.gpu[i])
            for knob, idx in zip(b.params, self.combo[i].levels):
                levels[(b.id, knob.name)] = idx
        return Placement(assignment=assignment, levels=levels)

    def tiebreak(self) -> tuple:
        prob = self.prob
        return tuple(
            (bid, self.site[prob.index[bid]], self.gpu[prob.index[bid]] or "",
             self.combo[prob.index[bid]].levels)
            for bid in sorted(prob.index)
        )

    def cut(self, depth: int, best: tuple | None) -> bool:
        """True when no placement of blocks depth.. next to blocks ..depth-1,
        as placed, can beat the incumbent's (qloss, traffic, migrations)
        best: one of them fits nowhere on the residual capacity, or a lower
        bound on the cost of every such completion exceeds best.

        Each unplaced block adds at least its least qloss and, over its
        candidate sites, the least traffic of its edges to placed peers at
        its least rate scale; edges between unplaced blocks add nothing.
        The traffic term can decide only when the qloss bound ties best's.
        """
        prob = self.prob
        lookahead = False
        if best is not None:
            qloss = self.qloss + prob.qloss_suffix[depth]
            if qloss > best[0] + EPS:
                return True
            lookahead = qloss >= best[0] - EPS
        traffic = self.traffic
        for j in range(depth, prob.n):
            if not prob.min_fit_exists(j, self.cpu_used, self.gpu_mem, self.gpu_comp):
                return True
            if lookahead:
                traffic += self.least_traffic_to_placed(j)
                if traffic > best[1] + EPS:
                    return True
        return lookahead and _lex_cmp((qloss, traffic, self.migrations), best) > 0

    def least_traffic_to_placed(self, j: int) -> float:
        """Least traffic unplaced block j's edges to placed peers can add."""
        prob = self.prob
        edges = []
        for peer, j_is_src, base_rate in prob.incident[j]:
            peer_site = self.site[peer]
            if peer_site is not None:
                rate = base_rate * (prob.min_scale[j] if j_is_src else self.combo[peer].rate_scale)
                if rate > 0:
                    edges.append((prob.cost_row(peer_site, j_is_src), rate))
        if not edges:
            return 0.0
        least = None
        for sid in prob.cand_sites[j]:
            traffic = 0.0
            for costs, rate in edges:
                traffic += rate * costs[sid]
            if least is None or traffic < least:
                least = traffic
        return least


def solve_exact(topology: Topology, apps, prev: Placement | None = None,
                opts: SolverOpts | None = None) -> Placement:
    """Lexicographically optimal placement via branch-and-bound.

    The greedy solver's placement, when it finds one, is the first
    incumbent, and a node is cut once a lookahead bound on its cost
    exceeds the incumbent's (_State.cut).  Raises InfeasibleError when no
    assignment satisfies the constraints at any knob level,
    BudgetExceededError past opts.max_nodes explored nodes (the greedy
    warm start is not counted).  Deterministic: identical inputs yield
    identical placements.
    """
    opts = opts or SolverOpts()
    prob = _Problem(topology, apps, prev)
    if prob.n == 0:
        return Placement()

    state = _State(prob)
    best = (_greedy_incumbent(prob, opts.max_evictions)
            or {"cost": None, "tiebreak": None, "placement": None})
    nodes = 0

    def dfs(depth: int):
        nonlocal nodes
        if depth == prob.n:
            cost = (state.qloss, state.traffic, state.migrations)
            order = -1 if best["cost"] is None else _lex_cmp(cost, best["cost"])
            if order > 0:
                return
            tiebreak = state.tiebreak()
            if order == 0 and tiebreak >= best["tiebreak"]:
                return
            best.update(cost=cost, tiebreak=tiebreak, placement=state.to_placement())
            return
        if state.cut(depth, best["cost"]):
            return
        for sid, gid in prob.candidates[depth]:
            for combo in prob.combos[depth]:
                nodes += 1
                if nodes > opts.max_nodes:
                    raise BudgetExceededError(f"explored more than {opts.max_nodes} nodes")
                token = state.try_place(depth, sid, gid, combo)
                if token is None:
                    continue
                dfs(depth + 1)
                state.undo(token)

    dfs(0)
    if best["placement"] is None:
        raise InfeasibleError("no feasible placement exists",
                              violations=infeasibility_report(topology, apps))
    return best["placement"]


def _greedy_incumbent(prob: _Problem, max_evictions: int) -> dict | None:
    """The greedy placement as a first incumbent for the exact search, or None.

    It is replayed block by block in search order, so its cost is summed
    the way the search sums a leaf's, and the EPS-banded comparisons treat
    it as one of the search's own leaves.
    """
    greedy, failed = _greedy(prob, max_evictions)
    if failed is not None:
        return None
    state = _State(prob)
    for i in range(prob.n):
        if state.try_place(i, greedy.site[i], greedy.gpu[i], greedy.combo[i]) is None:
            return None
    return {"cost": (state.qloss, state.traffic, state.migrations),
            "tiebreak": state.tiebreak(), "placement": state.to_placement()}


def infeasibility_report(topology: Topology, apps) -> list[str]:
    """Human-readable reasons why no placement can exist (best effort)."""
    out: list[str] = []
    try:
        prob = _Problem(topology, apps, None)
    except ValueError as exc:
        return [str(exc)]
    for i, (app, b) in enumerate(prob.order):
        if not prob.candidates[i]:
            out.append(f"block {b.id}: no site satisfies tier/latency/pin constraints")
            continue
        if not prob.min_fit_exists(i, {}, {}, {}):
            out.append(f"block {b.id}: demand exceeds every candidate site's capacity "
                       f"even at the deepest parameter levels")
    if not out:
        out.append("no joint assignment satisfies all constraints")
    return out


def solve_greedy(topology: Topology, apps, prev: Placement | None = None,
                 opts: SolverOpts | None = None) -> Placement:
    """Feasible (not necessarily optimal) placement by greedy assignment.

    Blocks are taken in descending demand-dominance order and put on the
    feasible site with the lowest incremental cost, deepening knob levels
    when the full-quality demand does not fit.  When a block cannot be
    placed at all, up to opts.max_evictions already-placed blocks are
    relocated to make room.
    """
    opts = opts or SolverOpts()
    prob = _Problem(topology, apps, prev)
    if prob.n == 0:
        return Placement()

    state, failed = _greedy(prob, opts.max_evictions)
    if failed is not None:
        raise InfeasibleError(
            f"greedy could not place block {prob.order[failed][1].id!r}",
            violations=infeasibility_report(topology, apps))

    placement = state.to_placement()
    leftover = check_feasible(topology, apps, placement)
    if leftover:
        raise InfeasibleError("greedy produced an infeasible placement",
                              violations=[f"{v.kind}:{v.subject}" for v in leftover])
    return placement


def _greedy(prob: _Problem, max_evictions: int) -> tuple[_State, int | None]:
    """Greedy's placement loop: the state it leaves and the index of the
    first block it could not place (None when it placed them all)."""
    state = _State(prob)
    evictions = 0

    def place_or_evict(i: int) -> bool:
        nonlocal evictions
        token = state.best_option(i)
        if token is not None:
            state.apply(token, 1)
            return True
        # Evict-and-replace: move one already-placed block off a candidate
        # site, retry, and re-place the victim elsewhere.
        for cand_site in sorted({sid for sid, _ in prob.candidates[i]}):
            victims = [j for j in range(prob.n)
                       if state.site[j] == cand_site and prob.order[j][1].pinned_site is None]
            for j in sorted(victims, key=lambda j: prob.order[j][1].id):
                if evictions >= max_evictions:
                    return False
                saved = state.remove(j)
                placed_i = state.best_option(i)
                if placed_i is not None:
                    state.apply(placed_i, 1)
                    placed_j = state.best_option(j)
                    if placed_j is not None:
                        state.apply(placed_j, 1)
                        evictions += 1
                        return True
                    # could not re-place the victim; roll back
                    state.undo(placed_i)
                state.restore(saved)
        return False

    for i in range(prob.n):
        if not place_or_evict(i):
            return state, i
    return state, None


def solve(topology: Topology, apps, prev: Placement | None = None,
          opts: SolverOpts | None = None) -> Placement:
    """Dispatch to the solver named by opts.solver."""
    opts = opts or SolverOpts()
    if opts.solver == "greedy":
        return solve_greedy(topology, apps, prev, opts)
    if opts.solver == "exact":
        return solve_exact(topology, apps, prev, opts)
    raise ValueError(f"unknown solver {opts.solver!r}")


def plan_actions(prev: Placement | None, nxt: Placement) -> list[Action]:
    """Deterministic action list transforming prev into nxt.

    Removes come first so freed resources are available before Deploys.
    """
    prev = prev or Placement()
    prev_levels, nxt_levels = _levels_by_block(prev), _levels_by_block(nxt)

    removes, migrates, deploys, setlevels = [], [], [], []
    for bid in sorted(prev.assignment):
        if bid not in nxt.assignment:
            removes.append(Action("Remove", block=bid, from_site=prev.site_of(bid)))
    for bid in sorted(nxt.assignment):
        site, gpu = nxt.assignment[bid]
        lv = nxt_levels.get(bid, ())
        if bid not in prev.assignment:
            deploys.append(Action("Deploy", block=bid, site=site, gpu=gpu, levels=lv))
        elif prev.assignment[bid] != (site, gpu):
            migrates.append(Action("Migrate", block=bid, site=site, gpu=gpu,
                                   from_site=prev.site_of(bid), levels=lv))
        elif prev_levels.get(bid, ()) != lv:
            setlevels.append(Action("SetLevel", block=bid, site=site, levels=lv))
    return removes + migrates + deploys + setlevels


def _levels_by_block(p: Placement) -> dict[str, tuple[tuple[str, int], ...]]:
    """block id -> its sorted (knob, level) pairs."""
    out: dict[str, list[tuple[str, int]]] = {}
    for (bid, knob), idx in p.levels.items():
        out.setdefault(bid, []).append((knob, idx))
    return {bid: tuple(sorted(pairs)) for bid, pairs in out.items()}
