import random

import pytest

from edgeorch.topology import (DanglingLink, DuplicateSiteId, GpuDevice, Link,
                               NonPositiveCapacity, NotATree, Site, TierOrderViolation,
                               TopologyError, UnknownSite, build_topology)


def two_site():
    return build_topology(
        [Site("edge", "FarEdge", 16.0, gpus=(GpuDevice("l4", 24.0),)),
         Site("cloud", "Cloud", 64.0, gpus=(GpuDevice("a100", 40.0),))],
        [Link("edge", "cloud", 1000.0, 25.0)],
    )


def three_tier():
    return build_topology(
        [Site("far", "FarEdge", 2.0),
         Site("near", "NearEdge", 8.0),
         Site("cloud", "Cloud", 64.0)],
        [Link("far", "near", 1000.0, 2.0), Link("near", "cloud", 10000.0, 25.0)],
    )


def test_build_two_site_valid():
    t = two_site()
    assert t.root == "cloud"
    assert set(t.sites) == {"edge", "cloud"}


def test_single_cloud_site_is_valid():
    t = build_topology([Site("c", "Cloud", 4.0)], [])
    assert t.root == "c"


def test_disconnected_sites_rejected():
    with pytest.raises(NotATree):
        build_topology([Site("a", "Cloud", 1.0), Site("b", "Cloud", 1.0)], [])


def test_duplicate_site_id():
    with pytest.raises(DuplicateSiteId):
        build_topology([Site("a", "Cloud", 1.0), Site("a", "Cloud", 1.0)], [])


def test_dangling_link():
    with pytest.raises(DanglingLink):
        build_topology([Site("a", "Cloud", 1.0)], [Link("a", "ghost", 10.0, 1.0)])


def test_tier_order_violation():
    with pytest.raises(TierOrderViolation):
        build_topology(
            [Site("a", "FarEdge", 1.0), Site("b", "Cloud", 1.0)],
            [Link("b", "a", 10.0, 1.0)],  # Cloud under FarEdge
        )


def test_root_must_be_cloud():
    with pytest.raises(TierOrderViolation):
        build_topology([Site("a", "NearEdge", 1.0)], [])


def test_non_positive_capacities():
    with pytest.raises(NonPositiveCapacity):
        build_topology([Site("a", "Cloud", -1.0)], [])
    with pytest.raises(NonPositiveCapacity):
        build_topology([Site("a", "Cloud", 1.0, gpus=(GpuDevice("g", 0.0),))], [])
    with pytest.raises(NonPositiveCapacity):
        build_topology(
            [Site("a", "Cloud", 1.0), Site("b", "FarEdge", 1.0)],
            [Link("b", "a", 0.0, 1.0)],
        )


def test_route_single_hop_and_identity():
    t = two_site()
    assert [l.key for l in t.route("edge", "cloud")] == ["edge-cloud"]
    assert t.route("edge", "edge") == []


def test_route_unknown_site():
    with pytest.raises(UnknownSite):
        two_site().route("edge", "nope")


def test_route_through_shared_parent():
    t = build_topology(
        [Site("c", "Cloud", 4.0), Site("n", "NearEdge", 4.0),
         Site("f1", "FarEdge", 1.0), Site("f2", "FarEdge", 1.0)],
        [Link("n", "c", 100.0, 10.0), Link("f1", "n", 50.0, 2.0), Link("f2", "n", 50.0, 3.0)],
    )
    path = t.route("f1", "f2")
    assert [l.key for l in path] == ["f1-n", "f2-n"]
    assert path == _bfs_route(t, "f1", "f2")


def test_path_latency():
    assert two_site().path_latency_ms("edge", "edge") == 0.0
    assert two_site().path_latency_ms("edge", "cloud") == 25.0
    assert three_tier().path_latency_ms("far", "cloud") == 27.0


def test_path_cost():
    t = build_topology(
        [Site("c", "Cloud", 4.0), Site("n", "NearEdge", 4.0), Site("f", "FarEdge", 1.0)],
        [Link("n", "c", 100.0, 1.0, cost_weight=2.0), Link("f", "n", 50.0, 1.0, cost_weight=1.0)],
    )
    assert t.path_cost("f", "f") == 0.0
    assert t.path_cost("f", "n") == 1.0
    assert t.path_cost("f", "c") == 3.0


def _bfs_route(t, a, b):
    adj = {}
    for link in t.links:
        adj.setdefault(link.child, []).append((link.parent, link))
        adj.setdefault(link.parent, []).append((link.child, link))
    frontier = [(a, [])]
    seen = {a}
    while frontier:
        nxt = []
        for node, path in frontier:
            if node == b:
                return path
            for peer, link in adj.get(node, []):
                if peer not in seen:
                    seen.add(peer)
                    nxt.append((peer, path + [link]))
        frontier = nxt
    raise AssertionError("unreachable")


def _random_tree(rng, n):
    sites = [Site("s0", "Cloud", round(rng.uniform(1, 8), 2))]
    links = []
    ranks = {"FarEdge": 0, "NearEdge": 1, "Cloud": 2}
    names = ["FarEdge", "NearEdge", "Cloud"]
    tiers = {"s0": 2}
    for i in range(1, n):
        parent = rng.choice(sites).id
        rank = rng.randint(0, tiers[parent])
        tiers[f"s{i}"] = rank
        sites.append(Site(f"s{i}", names[rank], round(rng.uniform(1, 8), 2)))
        links.append(Link(f"s{i}", parent, round(rng.uniform(10, 100), 1),
                          round(rng.uniform(1, 20), 1)))
    return sites, links


def test_route_matches_bfs_oracle_on_random_trees():
    rng = random.Random(7)
    for _ in range(50):
        sites, links = _random_tree(rng, rng.randint(2, 12))
        t = build_topology(sites, links)
        ids = sorted(t.sites)
        a, b = rng.choice(ids), rng.choice(ids)
        assert t.route(a, b) == _bfs_route(t, a, b)


def test_route_symmetry_and_triangle_equality():
    rng = random.Random(11)
    for _ in range(30):
        sites, links = _random_tree(rng, rng.randint(3, 10))
        t = build_topology(sites, links)
        ids = sorted(t.sites)
        a, c = rng.choice(ids), rng.choice(ids)
        assert t.route(a, c) == list(reversed(t.route(c, a)))
        assert t.path_cost(a, c) == t.path_cost(c, a)
        path = t.route(a, c)
        if path:
            # pick a site on the path and check cost additivity through it
            link = rng.choice(path)
            for b in (link.child, link.parent):
                assert t.path_cost(a, b) + t.path_cost(b, c) == pytest.approx(t.path_cost(a, c))


def test_random_mutations_rejected():
    rng = random.Random(13)
    for _ in range(40):
        sites, links = _random_tree(rng, rng.randint(3, 8))
        build_topology(sites, links)  # sanity: valid before mutation
        mutation = rng.randrange(4)
        if mutation == 0:  # duplicate a site id
            sites = sites + [sites[rng.randrange(len(sites))]]
        elif mutation == 1 and links:  # drop a link: disconnects or creates 2 roots
            links = [l for l in links if l is not rng.choice(links)]
            if len(links) == len(sites) - 1:
                continue
        elif mutation == 2:  # negative capacity
            i = rng.randrange(len(sites))
            sites = list(sites)
            sites[i] = Site(sites[i].id, sites[i].tier, -1.0)
        else:  # point a link at a missing site
            if not links:
                continue
            links = list(links)
            links[0] = Link(links[0].child, "missing", 10.0, 1.0)
        with pytest.raises((TopologyError, KeyError)):
            build_topology(sites, links)


@pytest.mark.parametrize("sites, links", [
    ([Site("a", "Cloud", float("nan"))], []),
    ([Site("a", "Cloud", 1.0, gpus=(GpuDevice("g", float("nan")),))], []),
    ([Site("a", "Cloud", 1.0, gpus=(GpuDevice("g", 8.0, float("nan")),))], []),
    ([Site("a", "Cloud", 1.0), Site("b", "FarEdge", 1.0)], [Link("b", "a", float("nan"), 1.0)]),
    ([Site("a", "Cloud", 1.0), Site("b", "FarEdge", 1.0)], [Link("b", "a", 10.0, float("nan"))]),
    ([Site("a", "Cloud", 1.0), Site("b", "FarEdge", 1.0)],
     [Link("b", "a", 10.0, 1.0, float("nan"))]),
])
def test_nan_capacities_latencies_and_costs_are_refused(sites, links):
    with pytest.raises(NonPositiveCapacity):
        build_topology(sites, links)
