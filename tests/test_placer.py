import random
from dataclasses import replace

import pytest

from edgeorch.appgraph import AppGraph, Block, FlowEdge, ParamKnob, ParamLevel
from edgeorch.placer import (InfeasibleError, Placement, check_feasible, plan_actions,
                             policy_cost, solve_exact, solve_greedy)
from edgeorch.simulator import SimState, step
from edgeorch.topology import GpuDevice, Link, Site, build_topology

from instance_gen import enumerate_best, random_instance


def fig7_topology():
    return build_topology(
        [Site("edge", "FarEdge", 16.0, gpus=(GpuDevice("l4", 24.0),)),
         Site("cloud", "Cloud", 64.0, gpus=(GpuDevice("a100", 40.0),))],
        [Link("edge", "cloud", 1000.0, 25.0)],
    )


def spotlight_app(n=10):
    blocks = tuple(Block(f"cell_src_{i}", pinned_site="edge") for i in range(n)) + tuple(
        Block(f"spot_{i}", cpu_req=0.2, gpu_mem_gb=0.5, gpu_compute_pct=4.0) for i in range(n))
    edges = tuple(FlowEdge(f"cell_src_{i}", f"spot_{i}", 0.5) for i in range(n))
    return AppGraph("spotlight", blocks, edges)


def vslam_app(n=3):
    blocks = tuple(Block(f"cam_src_{i}", pinned_site="edge") for i in range(n)) + tuple(
        Block(f"vslam_{i}", cpu_req=1.0, gpu_mem_gb=8.0) for i in range(n))
    edges = tuple(FlowEdge(f"cam_src_{i}", f"vslam_{i}", 40.0) for i in range(n))
    return AppGraph("vslam", blocks, edges)


def place_all(app, site, gpu=None):
    return {b.id: (site, gpu if b.needs_gpu else None) for b in app.blocks}


def pin_aware_placement(apps, site_of, gpu_of):
    assignment = {}
    for app in apps:
        for b in app.blocks:
            sid = b.pinned_site or site_of(b)
            assignment[b.id] = (sid, gpu_of(b, sid) if b.needs_gpu else None)
    return Placement(assignment=assignment)


# -- check_feasible -------------------------------------------------------------

def test_ten_spotlight_fit_on_edge_gpu_at_40pct():
    t = fig7_topology()
    app = spotlight_app()
    p = pin_aware_placement([app], lambda b: "edge", lambda b, s: "l4")
    assert check_feasible(t, [app], p) == []
    used = sum(0.5 for _ in range(10))  # sanity: 40% compute, 5 GB
    assert used == 5.0


def test_vslam_overflows_occupied_gpu():
    t = fig7_topology()
    spot = spotlight_app()
    vslam = vslam_app()
    p = pin_aware_placement([spot, vslam], lambda b: "edge", lambda b, s: "l4")
    violations = check_feasible(t, [spot, vslam], p)
    assert any(v.kind == "GpuMemOver" and v.subject == "edge/l4" for v in violations)


def test_empty_app_set_feasible():
    assert check_feasible(fig7_topology(), [], Placement()) == []


def test_latency_violation_reported():
    t = fig7_topology()
    app = AppGraph("a", (Block("src", pinned_site="edge"),
                         Block("sink", cpu_req=0.1, max_source_latency_ms=10.0)),
                   (FlowEdge("src", "sink", 1.0),))
    p = Placement(assignment={"src": ("edge", None), "sink": ("cloud", None)})
    violations = check_feasible(t, [app], p)
    assert any(v.kind == "LatencyOver" for v in violations)


# -- policy_cost ----------------------------------------------------------------

def test_traffic_zero_when_colocated():
    t = fig7_topology()
    app = spotlight_app()
    p = pin_aware_placement([app], lambda b: "edge", lambda b, s: "l4")
    assert policy_cost(t, [app], p).traffic_cost == 0.0


def test_spotlight_in_cloud_costs_5_mbps():
    t = fig7_topology()
    app = spotlight_app()
    p = pin_aware_placement([app], lambda b: "cloud", lambda b, s: "a100")
    assert policy_cost(t, [app], p).traffic_cost == pytest.approx(5.0)


def test_vslam_in_cloud_costs_120_mbps():
    t = fig7_topology()
    app = vslam_app()
    p = pin_aware_placement([app], lambda b: "cloud", lambda b, s: "a100")
    assert policy_cost(t, [app], p).traffic_cost == pytest.approx(120.0)


def test_migrations_zero_without_prev():
    t = fig7_topology()
    app = spotlight_app()
    p = pin_aware_placement([app], lambda b: "edge", lambda b, s: "l4")
    assert policy_cost(t, [app], p).migrations == 0


# -- solve_exact ----------------------------------------------------------------

def test_single_block_single_site():
    t = build_topology([Site("c", "Cloud", 4.0)], [])
    app = AppGraph("a", (Block("b", cpu_req=1.0),), ())
    p = solve_exact(t, [app])
    assert p.assignment == {"b": ("c", None)}


def test_fig7_case1_all_spotlight_at_edge():
    t = fig7_topology()
    p = solve_exact(t, [spotlight_app()])
    assert all(p.site_of(f"spot_{i}") == "edge" for i in range(10))
    assert policy_cost(t, [spotlight_app()], p).traffic_cost == 0.0


def test_fig7_case2_swap_to_cloud():
    t = fig7_topology()
    spot, vslam = spotlight_app(), vslam_app()
    prev = solve_exact(t, [spot])
    p = solve_exact(t, [spot, vslam], prev=prev)
    assert all(p.site_of(f"vslam_{i}") == "edge" for i in range(3))
    assert all(p.site_of(f"spot_{i}") == "cloud" for i in range(10))
    cost = policy_cost(t, [spot, vslam], p, prev=prev)
    assert cost.traffic_cost == pytest.approx(5.0)
    assert cost.migrations == 10


def test_fig7_decisions_prove_within_100_nodes(fig7_scenario):
    # The greedy incumbent and the lookahead bound settle each of fig7's
    # exact decisions in at most 100 branch-and-bound nodes.
    sc = fig7_scenario
    state = SimState(topology=sc.topology, catalog=dict(sc.apps))
    for ev in sorted(sc.events, key=lambda e: (e.at, e.seq)):
        nxt, _actions, _metrics = step(state, ev, opts=sc.policy)
        p = solve_exact(nxt.topology, nxt.admitted.values(), prev=state.placement,
                        opts=replace(sc.policy, max_nodes=100))
        assert p == nxt.placement, ev.label
        state = nxt


def test_infeasible_raises():
    t = build_topology([Site("c", "Cloud", 1.0)], [])
    app = AppGraph("a", (Block("b", cpu_req=2.0),), ())
    with pytest.raises(InfeasibleError):
        solve_exact(t, [app])


def test_feasibility_soundness_on_goldens():
    t = fig7_topology()
    spot, vslam = spotlight_app(), vslam_app()
    p = solve_exact(t, [spot, vslam])
    assert check_feasible(t, [spot, vslam], p) == []


# -- solve_greedy ---------------------------------------------------------------

def test_greedy_matches_exact_on_fig7_case1():
    t = fig7_topology()
    app = spotlight_app()
    assert solve_greedy(t, [app]) == solve_exact(t, [app])


def test_greedy_empty_apps():
    assert solve_greedy(fig7_topology(), []) == Placement()


def test_greedy_uses_eviction_when_needed():
    # Two 1-GPU sites; a big block arrives last and only fits if a small
    # one is pushed off its preferred site.
    t = fig7_topology()
    small = AppGraph("small", (Block("s_src", pinned_site="edge"),
                               Block("small", gpu_mem_gb=4.0)),
                     (FlowEdge("s_src", "small", 1.0),))
    big = AppGraph("big", (Block("b_src", pinned_site="edge"),
                           Block("aaa_big", gpu_mem_gb=22.0,
                                 allowed_tiers=("FarEdge",))),
                   (FlowEdge("b_src", "aaa_big", 5.0),))
    p = solve_greedy(t, [big, small])
    assert check_feasible(t, [big, small], p) == []
    assert p.site_of("aaa_big") == "edge"


# -- plan_actions ---------------------------------------------------------------

def test_plan_actions_noop():
    p = Placement(assignment={"b": ("s", None)})
    assert plan_actions(p, p) == []


def test_plan_actions_fig7_transition():
    t = fig7_topology()
    spot, vslam = spotlight_app(), vslam_app()
    prev = solve_exact(t, [spot])
    nxt = solve_exact(t, [spot, vslam], prev=prev)
    actions = plan_actions(prev, nxt)
    kinds = [a.kind for a in actions]
    assert kinds.count("Migrate") == 10
    assert kinds.count("Deploy") == 6  # 3 vslam blocks + 3 pinned camera sources
    migrates = [a for a in actions if a.kind == "Migrate"]
    assert all(a.from_site == "edge" and a.site == "cloud" for a in migrates)


def test_plan_actions_removal_only():
    prev = Placement(assignment={"a": ("s", None), "b": ("s", None)})
    nxt = Placement(assignment={"a": ("s", None)})
    actions = plan_actions(prev, nxt)
    assert [a.kind for a in actions] == ["Remove"]
    assert actions[0].block == "b"


def test_removes_precede_deploys():
    prev = Placement(assignment={"old": ("s", None)})
    nxt = Placement(assignment={"new": ("s", None)})
    kinds = [a.kind for a in plan_actions(prev, nxt)]
    assert kinds == ["Remove", "Deploy"]


# -- knob levels in solve_exact (named after the removed adapt_params alias) ----

def halving_knob():
    return ParamKnob("rate", (ParamLevel(quality=1.0),
                              ParamLevel(quality=0.8, cpu_mult=0.5, gpu_mem_mult=0.5,
                                         gpu_compute_mult=0.5, rate_mult=0.5)))


def test_adapt_params_deepens_when_needed():
    t = build_topology([Site("c", "Cloud", 1.0)], [])
    app = AppGraph("a", (Block("b", cpu_req=2.0, params=(halving_knob(),)),), ())
    p = solve_exact(t, [app])
    assert p.levels[("b", "rate")] == 1


def test_adapt_params_prefers_full_quality():
    t = build_topology([Site("c", "Cloud", 4.0)], [])
    app = AppGraph("a", (Block("b", cpu_req=2.0, params=(halving_knob(),)),), ())
    p = solve_exact(t, [app])
    assert p.levels[("b", "rate")] == 0
    assert policy_cost(t, [app], p).quality_loss == 0.0


def test_adapt_params_infeasible_without_knobs():
    t = build_topology([Site("c", "Cloud", 1.0)], [])
    app = AppGraph("a", (Block("b", cpu_req=2.0),), ())
    with pytest.raises(InfeasibleError):
        solve_exact(t, [app])


# -- properties -----------------------------------------------------------------

def test_exact_matches_enumeration_oracle_sample():
    # the full 500-instance sweep lives in the acceptance suite
    for seed in range(60):
        topology, app = random_instance(seed)
        oracle = enumerate_best(topology, [app])
        try:
            p = solve_exact(topology, [app])
        except InfeasibleError:
            assert oracle is None, f"seed {seed}: solver infeasible but oracle found one"
            continue
        assert oracle is not None, f"seed {seed}: solver found a placement, oracle did not"
        cost = policy_cost(topology, [app], p)
        assert cost.quality_loss == pytest.approx(oracle[0].quality_loss, abs=1e-9)
        assert cost.traffic_cost == pytest.approx(oracle[0].traffic_cost, abs=1e-9)
        assert cost.migrations == oracle[0].migrations
        assert check_feasible(topology, [app], p) == []


def test_exact_matches_enumeration_oracle_with_prev():
    # prev is exact's placement after every site's CPU is halved, so on the
    # full capacity the optimum weighs moving blocks back against the
    # migration term; the whole key, tiebreak included, must match.
    checked = moved = 0
    for seed in range(60):
        topology, app = random_instance(seed)
        cut = build_topology([replace(s, cpu_cores=s.cpu_cores / 2)
                              for s in topology.sites.values()], list(topology.links))
        try:
            prev = solve_exact(cut, [app])
        except InfeasibleError:
            continue
        oracle = enumerate_best(topology, [app], prev=prev)
        p = solve_exact(topology, [app], prev=prev)
        assert policy_cost(topology, [app], p, prev=prev).key() == oracle[0].key(), seed
        checked += 1
        moved += oracle[0].migrations > 0
    assert checked >= 40
    assert moved > 0


def test_capacity_monotonicity():
    from edgeorch.topology import build_topology as rebuild
    for seed in range(30):
        topology, app = random_instance(seed + 1000)
        try:
            solve_exact(topology, [app])
        except InfeasibleError:
            continue
        bigger_sites = [replace(s, cpu_cores=s.cpu_cores + 2.0,
                                gpus=tuple(replace(g, mem_gb=g.mem_gb + 8.0) for g in s.gpus))
                        for s in topology.sites.values()]
        bigger = rebuild(bigger_sites, list(topology.links))
        solve_exact(bigger, [app])  # must not raise


def test_determinism():
    for seed in (5, 17, 42):
        topology, app = random_instance(seed)
        try:
            p1 = solve_exact(topology, [app])
            p2 = solve_exact(topology, [app])
        except InfeasibleError:
            continue
        assert p1 == p2


def test_migration_stability():
    # Re-solving with the previous result as baseline must not move blocks
    # when staying put attains the same quality and traffic.
    for seed in range(20):
        topology, app = random_instance(seed + 2000)
        try:
            p1 = solve_exact(topology, [app])
        except InfeasibleError:
            continue
        p2 = solve_exact(topology, [app], prev=p1)
        assert policy_cost(topology, [app], p2, prev=p1).migrations == 0


def test_greedy_feasible_when_exact_is_sample():
    feasible = solved = 0
    for seed in range(100):
        topology, app = random_instance(seed + 3000)
        try:
            solve_exact(topology, [app])
        except InfeasibleError:
            continue
        feasible += 1
        try:
            p = solve_greedy(topology, [app])
        except InfeasibleError:
            continue
        assert check_feasible(topology, [app], p) == []
        solved += 1
    assert feasible > 0
    assert solved / feasible >= 0.95
