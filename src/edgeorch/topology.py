"""Hierarchical infrastructure model: sites, GPUs, and the link tree.

Sites form a tree rooted at a cloud site, with tiers non-increasing from
the root down (Cloud >= NearEdge >= FarEdge).  Routing, latency and cost
queries all follow the unique tree path between two sites.  A Topology is
immutable after build_topology() and safe to share read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class TopologyError(ValueError):
    """Base class for topology construction errors."""


class DuplicateSiteId(TopologyError):
    pass


class DanglingLink(TopologyError):
    pass


class NotATree(TopologyError):
    pass


class TierOrderViolation(TopologyError):
    pass


class NonPositiveCapacity(TopologyError):
    pass


class UnknownSite(KeyError):
    pass


TIERS = ("FarEdge", "NearEdge", "Cloud")
_TIER_RANK = {"FarEdge": 0, "NearEdge": 1, "Cloud": 2}


def tier_rank(tier: str) -> int:
    return _TIER_RANK[tier]


@dataclass(frozen=True)
class GpuDevice:
    id: str
    mem_gb: float
    compute_pct: float = 100.0  # fixed full capacity per device


@dataclass(frozen=True)
class Site:
    id: str
    tier: str
    cpu_cores: float
    gpus: tuple[GpuDevice, ...] = ()
    ai_cpu_reserve: float = 1.0

    @property
    def ai_cpu_capacity(self) -> float:
        """Cores available to AI apps on this site."""
        return self.cpu_cores * self.ai_cpu_reserve

    def gpu(self, gpu_id: str) -> GpuDevice:
        for g in self.gpus:
            if g.id == gpu_id:
                return g
        raise KeyError(gpu_id)


@dataclass(frozen=True)
class Link:
    child: str
    parent: str
    bandwidth_mbps: float
    latency_ms: float
    cost_weight: float = 1.0

    @property
    def key(self) -> str:
        return f"{self.child}-{self.parent}"


@dataclass(frozen=True)
class Topology:
    """Validated site tree.

    Each site pair's path is computed once, on first use, as
    (links, cost, latency_ms); the memo holds nothing but those pure
    results, so a Topology stays safe to share, and a tree that differs
    only in capacities may share it too.  Load maps key a link by
    its child site id, which a tree makes unique.
    """

    sites: dict[str, Site]
    links: tuple[Link, ...]
    root: str
    _parent_link: dict[str, Link] = field(repr=False, default_factory=dict)
    _depth: dict[str, int] = field(repr=False, default_factory=dict)
    _paths: dict[tuple[str, str], tuple[tuple[Link, ...], float, float]] = field(
        repr=False, compare=False, default_factory=dict)

    def site(self, site_id: str) -> Site:
        try:
            return self.sites[site_id]
        except KeyError:
            raise UnknownSite(site_id) from None

    def path(self, a: str, b: str) -> tuple[tuple[Link, ...], float, float]:
        """(links, cost, latency_ms) of the unique tree path a -> b, memoized."""
        info = self._paths.get((a, b))
        if info is None:
            self.site(a)
            self.site(b)
            up_a: list[Link] = []
            up_b: list[Link] = []
            x, y = a, b
            while x != y:
                if self._depth[x] >= self._depth[y]:
                    link = self._parent_link[x]
                    up_a.append(link)
                    x = link.parent
                else:
                    link = self._parent_link[y]
                    up_b.append(link)
                    y = link.parent
            links = tuple(up_a + up_b[::-1])
            info = (links, sum(l.cost_weight for l in links), sum(l.latency_ms for l in links))
            self._paths[(a, b)] = info
        return info

    def route(self, a: str, b: str) -> list[Link]:
        """Links on the unique tree path a -> b (empty iff a == b)."""
        return list(self.path(a, b)[0])

    def path_latency_ms(self, a: str, b: str) -> float:
        return self.path(a, b)[2]


def build_topology(sites: list[Site], links: list[Link]) -> Topology:
    """Validate sites/links and return an immutable Topology.

    Raises DuplicateSiteId, DanglingLink, NotATree, TierOrderViolation or
    NonPositiveCapacity on any invariant violation; a NaN capacity, latency
    or cost fails its check.
    """
    site_map: dict[str, Site] = {}
    for s in sites:
        if s.id in site_map:
            raise DuplicateSiteId(s.id)
        if s.tier not in _TIER_RANK:
            raise TierOrderViolation(f"unknown tier {s.tier!r} on site {s.id}")
        if not s.cpu_cores >= 0:
            raise NonPositiveCapacity(f"site {s.id}: cpu_cores < 0")
        if not 0.0 <= s.ai_cpu_reserve <= 1.0:
            raise NonPositiveCapacity(f"site {s.id}: ai_cpu_reserve outside [0, 1]")
        seen_gpus = set()
        for g in s.gpus:
            if g.id in seen_gpus:
                raise DuplicateSiteId(f"site {s.id}: duplicate gpu id {g.id}")
            seen_gpus.add(g.id)
            if not g.mem_gb > 0:
                raise NonPositiveCapacity(f"gpu {s.id}/{g.id}: mem_gb <= 0")
            if not g.compute_pct > 0:
                raise NonPositiveCapacity(f"gpu {s.id}/{g.id}: compute_pct <= 0")
        site_map[s.id] = s

    if not site_map:
        raise NotATree("no sites")

    parent_link: dict[str, Link] = {}
    for link in links:
        if link.child not in site_map or link.parent not in site_map:
            raise DanglingLink(link.key)
        if not link.bandwidth_mbps > 0:
            raise NonPositiveCapacity(f"link {link.key}: bandwidth_mbps <= 0")
        if not link.latency_ms >= 0:
            raise NonPositiveCapacity(f"link {link.key}: latency_ms < 0")
        if not link.cost_weight >= 0:
            raise NonPositiveCapacity(f"link {link.key}: cost_weight < 0")
        if link.child in parent_link:
            raise NotATree(f"site {link.child} has multiple parent links")
        if link.child == link.parent:
            raise NotATree(f"self link on {link.child}")
        parent_link[link.child] = link

    roots = [sid for sid in site_map if sid not in parent_link]
    if len(roots) != 1:
        raise NotATree(f"expected exactly one root, found {sorted(roots)}")
    root = roots[0]
    if site_map[root].tier != "Cloud":
        raise TierOrderViolation(f"root site {root} must be Cloud tier")

    # Walk to the root from every site: detects cycles and computes depths.
    depth: dict[str, int] = {root: 0}
    for sid in site_map:
        chain = []
        x = sid
        while x not in depth:
            if x in chain:
                raise NotATree(f"cycle through {x}")
            chain.append(x)
            x = parent_link[x].parent
        d = depth[x]
        for y in reversed(chain):
            d += 1
            depth[y] = d

    for link in parent_link.values():
        if tier_rank(site_map[link.parent].tier) < tier_rank(site_map[link.child].tier):
            raise TierOrderViolation(
                f"{link.child} ({site_map[link.child].tier}) under "
                f"{link.parent} ({site_map[link.parent].tier})"
            )

    return Topology(
        sites=site_map,
        links=tuple(parent_link[sid] for sid in sorted(parent_link)),
        root=root,
        _parent_link=parent_link,
        _depth=depth,
    )
