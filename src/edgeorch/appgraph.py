"""Application graphs: blocks with resource demands, flow edges, knobs.

An app is a DAG of blocks.  Pinned blocks model data sources fixed at a
site; the remaining blocks are free to place.  Each block may expose
parameter knobs whose levels trade output quality for lower demand.
Graphs are immutable once validated, so a block's level combos are
computed once, on first use, and kept on the block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .topology import TIERS


class LevelOutOfRange(IndexError):
    pass


@dataclass(frozen=True)
class ParamLevel:
    quality: float
    cpu_mult: float = 1.0
    gpu_mem_mult: float = 1.0
    gpu_compute_mult: float = 1.0
    rate_mult: float = 1.0


@dataclass(frozen=True)
class ParamKnob:
    name: str
    levels: tuple[ParamLevel, ...]  # index 0 = full quality


@dataclass(frozen=True)
class Block:
    id: str
    cpu_req: float = 0.0
    gpu_mem_gb: float = 0.0
    gpu_compute_pct: float = 0.0
    max_source_latency_ms: float | None = None  # None = unbounded
    allowed_tiers: tuple[str, ...] = TIERS
    pinned_site: str | None = None
    params: tuple[ParamKnob, ...] = ()
    _level_combos: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def needs_gpu(self) -> bool:
        return self.gpu_mem_gb > 0 or self.gpu_compute_pct > 0

    def level_combos(self) -> tuple[tuple[LevelCombo, ...], tuple[tuple[LevelCombo, ...], ...]]:
        """Every choice of one level per knob sorted by (qloss, levels), and the
        same split into runs of equal qloss; computed once, into a declared
        field: an instance __dict__ (cached_property's) slows every read."""
        if self._level_combos is None:
            combos = []
            for idxs in itertools.product(*(range(len(k.levels)) for k in self.params)):
                d = effective_demand(self, idxs)
                combos.append(LevelCombo(idxs, quality_loss(self, idxs),
                                         d.cpu, d.gpu_mem_gb, d.gpu_compute_pct, d.rate_scale))
            combos = tuple(sorted(combos, key=lambda c: (c.qloss, c.levels)))
            groups = tuple(tuple(g) for _, g in itertools.groupby(combos, key=lambda c: c.qloss))
            object.__setattr__(self, "_level_combos", (combos, groups))
        return self._level_combos


@dataclass(frozen=True)
class LevelCombo:
    """One level per knob of a block, with its quality loss and demands."""
    levels: tuple[int, ...]
    qloss: float
    cpu: float
    gpu_mem: float
    gpu_comp: float
    rate_scale: float


@dataclass(frozen=True)
class FlowEdge:
    src: str
    dst: str
    rate_mbps: float


@dataclass(frozen=True)
class DemandVector:
    cpu: float
    gpu_mem_gb: float
    gpu_compute_pct: float
    rate_scale: float  # multiplier on the block's outgoing edge rates


@dataclass(frozen=True)
class GraphViolation:
    kind: str  # CycleDetected | UnknownEndpoint | EmptyGraph | DuplicateBlockId | UnreachableBlock | BadKnob
    detail: str


@dataclass(frozen=True)
class AppGraph:
    id: str
    blocks: tuple[Block, ...]
    edges: tuple[FlowEdge, ...]

    def block(self, block_id: str) -> Block:
        for b in self.blocks:
            if b.id == block_id:
                return b
        raise KeyError(block_id)

    def ancestors(self, block_id: str) -> set[str]:
        incoming: dict[str, list[str]] = {b.id: [] for b in self.blocks}
        for e in self.edges:
            if e.dst in incoming:
                incoming[e.dst].append(e.src)
        seen: set[str] = set()
        stack = list(incoming.get(block_id, []))
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(incoming.get(x, []))
        return seen


def validate_graph(g: AppGraph) -> list[GraphViolation]:
    """Return all invariant violations (empty list means the graph is ok)."""
    out: list[GraphViolation] = []
    if not g.blocks:
        out.append(GraphViolation("EmptyGraph", g.id))
        return out

    ids = [b.id for b in g.blocks]
    seen: set[str] = set()
    for bid in ids:
        if bid in seen:
            out.append(GraphViolation("DuplicateBlockId", bid))
        seen.add(bid)

    for b in g.blocks:
        for knob in b.params:
            if not knob.levels:
                out.append(GraphViolation("BadKnob", f"{b.id}.{knob.name}: no levels"))
                continue
            if knob.levels[0].quality != 1.0:
                out.append(GraphViolation("BadKnob", f"{b.id}.{knob.name}: level 0 quality must be 1.0"))
            prev = knob.levels[0]
            for i, lv in enumerate(knob.levels):
                for attr in ("quality", "cpu_mult", "gpu_mem_mult", "gpu_compute_mult", "rate_mult"):
                    v = getattr(lv, attr)
                    if not 0.0 < v <= 1.0:
                        out.append(GraphViolation("BadKnob", f"{b.id}.{knob.name}[{i}].{attr} outside (0, 1]"))
                if i > 0:
                    if lv.quality >= prev.quality:
                        out.append(GraphViolation("BadKnob", f"{b.id}.{knob.name}[{i}]: quality not decreasing"))
                    for attr in ("cpu_mult", "gpu_mem_mult", "gpu_compute_mult", "rate_mult"):
                        if getattr(lv, attr) > getattr(prev, attr):
                            out.append(GraphViolation("BadKnob", f"{b.id}.{knob.name}[{i}].{attr} increases"))
                    prev = lv

    for e in g.edges:
        for endpoint in (e.src, e.dst):
            if endpoint not in seen:
                out.append(GraphViolation("UnknownEndpoint", f"{e.src}->{e.dst}: {endpoint}"))

    # Cycle check over edges with known endpoints.
    adj: dict[str, list[str]] = {bid: [] for bid in seen}
    for e in g.edges:
        if e.src in seen and e.dst in seen:
            adj[e.src].append(e.dst)
    color: dict[str, int] = {}

    def visit(x: str) -> bool:
        color[x] = 1
        for y in adj[x]:
            c = color.get(y, 0)
            if c == 1:
                return True
            if c == 0 and visit(y):
                return True
        color[x] = 2
        return False

    cyclic = any(visit(bid) for bid in sorted(adj) if color.get(bid, 0) == 0)
    if cyclic:
        out.append(GraphViolation("CycleDetected", g.id))
        return out

    pinned = {b.id for b in g.blocks if b.pinned_site is not None}
    if pinned:
        reach = set(pinned)
        frontier = list(pinned)
        while frontier:
            x = frontier.pop()
            for y in adj.get(x, []):
                if y not in reach:
                    reach.add(y)
                    frontier.append(y)
        for bid in sorted(seen - reach):
            out.append(GraphViolation("UnreachableBlock", bid))
    return out


def effective_demand(b: Block, levels: tuple[int, ...]) -> DemandVector:
    """Demands of block b with the given level index chosen per knob.

    Base demands are scaled by the elementwise product of the selected
    level multipliers; rate_scale applies to b's outgoing edge rates.
    """
    if len(levels) != len(b.params):
        raise LevelOutOfRange(f"{b.id}: expected {len(b.params)} level indices, got {len(levels)}")
    cpu_m = mem_m = comp_m = rate_m = 1.0
    for knob, idx in zip(b.params, levels):
        if not 0 <= idx < len(knob.levels):
            raise LevelOutOfRange(f"{b.id}.{knob.name}: level {idx}")
        lv = knob.levels[idx]
        cpu_m *= lv.cpu_mult
        mem_m *= lv.gpu_mem_mult
        comp_m *= lv.gpu_compute_mult
        rate_m *= lv.rate_mult
    return DemandVector(
        cpu=b.cpu_req * cpu_m,
        gpu_mem_gb=b.gpu_mem_gb * mem_m,
        gpu_compute_pct=b.gpu_compute_pct * comp_m,
        rate_scale=rate_m,
    )


def quality_loss(b: Block, levels: tuple[int, ...]) -> float:
    """Total quality forfeited by the chosen levels (0 at full quality)."""
    if len(levels) != len(b.params):
        raise LevelOutOfRange(f"{b.id}: expected {len(b.params)} level indices, got {len(levels)}")
    loss = 0.0
    for knob, idx in zip(b.params, levels):
        if not 0 <= idx < len(knob.levels):
            raise LevelOutOfRange(f"{b.id}.{knob.name}: level {idx}")
        loss += 1.0 - knob.levels[idx].quality
    return loss


def source_latency_requirements(g: AppGraph) -> dict[str, list[str]]:
    """Pinned ancestors whose path latency must satisfy each bounded block."""
    out: dict[str, list[str]] = {}
    pinned = {b.id for b in g.blocks if b.pinned_site is not None}
    for b in g.blocks:
        if b.max_source_latency_ms is None:
            continue
        out[b.id] = sorted(g.ancestors(b.id) & pinned)
    return out
