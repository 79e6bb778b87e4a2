"""Application graphs: blocks with resource demands, flow edges, knobs.

An app is a DAG of blocks.  Pinned blocks model data sources fixed at a
site; the remaining blocks are free to place.  Each block may expose
parameter knobs whose levels trade output quality for lower demand.
Graphs are immutable, so each block's level combos and each app's latency
requirements are compiled once, on first use, into a declared field: an
instance __dict__ (functools.cached_property's) would slow every read.
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

    def level_combos(self) -> tuple[tuple[LevelCombo, ...], tuple, dict[tuple, LevelCombo]]:
        """Every choice of one level per knob sorted by (qloss, levels), the same
        in runs of equal qloss, and by levels; computed once.  Demands are the
        base times the levels' multipliers, multiplied in knob order, and qloss
        sums 1 - quality; rate_scale multiplies the outgoing edge rates."""
        if self._level_combos is None:
            combos = []
            for idxs in itertools.product(*(range(len(k.levels)) for k in self.params)):
                cpu_m = mem_m = comp_m = rate_m = 1.0
                loss = 0.0
                for knob, idx in zip(self.params, idxs):
                    lv = knob.levels[idx]
                    cpu_m *= lv.cpu_mult
                    mem_m *= lv.gpu_mem_mult
                    comp_m *= lv.gpu_compute_mult
                    rate_m *= lv.rate_mult
                    loss += 1.0 - lv.quality
                combos.append(LevelCombo(idxs, loss, self.cpu_req * cpu_m, self.gpu_mem_gb * mem_m,
                                         self.gpu_compute_pct * comp_m, rate_m))
            combos = tuple(sorted(combos, key=lambda c: (c.qloss, c.levels)))
            groups = tuple(tuple(g) for _, g in itertools.groupby(combos, key=lambda c: c.qloss))
            object.__setattr__(self, "_level_combos", (combos, groups, {c.levels: c for c in combos}))
        return self._level_combos

    def combo(self, levels: tuple[int, ...]) -> LevelCombo:
        """The compiled combo at one level index per knob."""
        try:
            return self.level_combos()[2][levels]
        except KeyError:
            raise LevelOutOfRange(f"{self.id}: no level combo {levels!r}") from None


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
class GraphViolation:
    kind: str  # CycleDetected | UnknownEndpoint | EmptyGraph | DuplicateBlockId | UnreachableBlock | BadKnob
    detail: str


@dataclass(frozen=True)
class AppGraph:
    id: str
    blocks: tuple[Block, ...]
    edges: tuple[FlowEdge, ...]
    _latency_requirements: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def latency_requirements(self) -> tuple[tuple[str, float, tuple[tuple[str, str], ...]], ...]:
        """(block id, bound, ((pinned source id, its site), ...)) per bounded
        block, in block order, its pinned ancestors sorted by id; computed
        once.  Edges to unknown blocks (validate_graph refuses them) are skipped."""
        if self._latency_requirements is None:
            incoming: dict[str, list[str]] = {b.id: [] for b in self.blocks}
            for e in self.edges:
                if e.dst in incoming:
                    incoming[e.dst].append(e.src)
            pinned = {b.id: b.pinned_site for b in self.blocks if b.pinned_site is not None}
            out = []
            for b in (b for b in self.blocks if b.max_source_latency_ms is not None):
                seen, stack = set(), list(incoming[b.id])
                while stack:
                    x = stack.pop()
                    if x not in seen:
                        seen.add(x)
                        stack.extend(incoming.get(x, ()))
                out.append((b.id, b.max_source_latency_ms,
                            tuple((src, pinned[src]) for src in sorted(seen & pinned.keys()))))
            object.__setattr__(self, "_latency_requirements", tuple(out))
        return self._latency_requirements


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
