import pytest

from edgeorch.appgraph import AppGraph, Block
from edgeorch.simulator import (Event, SimState, UnknownApp, apply_capacity_delta, run,
                                 snapshot, step)
from edgeorch.topology import GpuDevice, Link, NonPositiveCapacity, Site, build_topology


def tiny_topology():
    return build_topology(
        [Site("edge", "FarEdge", 2.0, gpus=(GpuDevice("g", 8.0),)),
         Site("cloud", "Cloud", 8.0)],
        [Link("edge", "cloud", 100.0, 20.0)],
    )


def tiny_app(app_id="a", cpu=1.0):
    return AppGraph(app_id, (Block(f"{app_id}_b", cpu_req=cpu),), ())


def test_fig4_event3_migrates_intra_sched(fig4_scenario):
    trace = run(fig4_scenario.topology, fig4_scenario.apps,
                list(fig4_scenario.events), opts=fig4_scenario.policy)
    last = trace.steps[-1]
    assert last.event == "departure:anomaly"
    migrates = [a for a in last.actions if a.kind == "Migrate"]
    assert [(a.block, a.from_site, a.site) for a in migrates] == [("intra_sched", "near", "far")]


def test_departure_of_only_app_zeroes_metrics():
    t = tiny_topology()
    catalog = {"a": tiny_app()}
    trace = run(t, catalog, [Event(0.0, "arrival", app="a"),
                             Event(1.0, "departure", app="a", seq=1)])
    initial, _, final = trace.steps
    assert final.placement.assignment == {}
    assert final.metrics.cpu_used == initial.metrics.cpu_used
    assert final.metrics.traffic_cost == 0.0


def test_arrival_departure_restores_initial_snapshot_exactly():
    t = tiny_topology()
    catalog = {"a": tiny_app()}
    trace = run(t, catalog, [Event(0.0, "arrival", app="a"),
                             Event(1.0, "departure", app="a", seq=1)])
    initial, _, final = trace.steps
    m0 = initial.metrics
    m2 = final.metrics
    assert (m0.cpu_used, m0.gpu_mem_used, m0.gpu_compute_used,
            m0.link_traffic_mbps, m0.quality_loss, m0.traffic_cost) == \
           (m2.cpu_used, m2.gpu_mem_used, m2.gpu_compute_used,
            m2.link_traffic_mbps, m2.quality_loss, m2.traffic_cost)


def test_oversize_arrival_rejected_state_unchanged():
    t = tiny_topology()
    # demands more CPU than the whole fabric at every site
    oversize = AppGraph("huge", (Block("huge_b", cpu_req=100.0),), ())
    catalog = {"a": tiny_app(), "huge": oversize}
    state = SimState(topology=t, catalog=catalog)
    state, _, _ = step(state, Event(0.0, "arrival", app="a"))
    placed_before = state.placement
    state2, actions, _ = step(state, Event(1.0, "arrival", app="huge"))
    assert [a.kind for a in actions] == ["Reject"]
    assert actions[0].app == "huge"
    assert state2.placement == placed_before
    assert "huge" not in state2.admitted


def test_departure_of_absent_app():
    state = SimState(topology=tiny_topology(), catalog={"a": tiny_app()})
    with pytest.raises(UnknownApp):
        step(state, Event(0.0, "departure", app="a"))


def test_arrival_of_uncataloged_app():
    state = SimState(topology=tiny_topology(), catalog={})
    with pytest.raises(UnknownApp):
        step(state, Event(0.0, "arrival", app="ghost"))


def test_event_time_must_not_regress():
    state = SimState(topology=tiny_topology(), catalog={"a": tiny_app()}, time=5.0)
    with pytest.raises(ValueError):
        step(state, Event(1.0, "arrival", app="a"))


def test_empty_event_list_trace():
    trace = run(tiny_topology(), {}, [])
    assert len(trace.steps) == 1
    assert trace.steps[0].event == "initial"


def test_run_is_deterministic(fig7_scenario):
    t1 = run(fig7_scenario.topology, fig7_scenario.apps, list(fig7_scenario.events),
             opts=fig7_scenario.policy)
    t2 = run(fig7_scenario.topology, fig7_scenario.apps, list(fig7_scenario.events),
             opts=fig7_scenario.policy)
    assert t1 == t2


def test_no_step_ever_commits_violations(fig7_scenario, fig4_scenario):
    for sc in (fig7_scenario, fig4_scenario):
        trace = run(sc.topology, sc.apps, list(sc.events), opts=sc.policy)
        assert all(s.violations == () for s in trace.steps)


def test_capacity_delta_triggers_resolve():
    t = tiny_topology()
    app = AppGraph("a", (Block("a_src", pinned_site="edge"),
                         Block("a_w", cpu_req=1.5)),
                   edges=())
    # reachability: give the worker an edge from the pinned source
    from edgeorch.appgraph import FlowEdge
    app = AppGraph("a", app.blocks, (FlowEdge("a_src", "a_w", 3.0),))
    catalog = {"a": app}
    state = SimState(topology=t, catalog=catalog)
    state, _, _ = step(state, Event(0.0, "arrival", app="a"))
    assert state.placement.site_of("a_w") == "edge"
    # shrink edge CPU below the worker's demand: it must move to the cloud
    state2, actions, metrics = step(
        state, Event(1.0, "capacity_delta", site="edge", resource="cpu_cores", amount=-1.0))
    assert state2.placement.site_of("a_w") == "cloud"
    assert any(a.kind == "Migrate" and a.block == "a_w" for a in actions)
    assert metrics.cpu_capacity["edge"] == 1.0


def test_capacity_delta_rejected_when_it_strands_apps():
    t = tiny_topology()
    app = AppGraph("a", (Block("a_b", cpu_req=1.5, allowed_tiers=("FarEdge",)),), ())
    state = SimState(topology=t, catalog={"a": app})
    state, _, _ = step(state, Event(0.0, "arrival", app="a"))
    state2, actions, _ = step(
        state, Event(1.0, "capacity_delta", site="edge", resource="cpu_cores", amount=-1.0))
    assert [a.kind for a in actions] == ["Reject"]
    assert state2.topology.site("edge").cpu_cores == 2.0  # delta reverted


def test_snapshot_conservation_after_departure():
    t = tiny_topology()
    catalog = {"a": tiny_app("a"), "b": tiny_app("b", cpu=0.5)}
    state = SimState(topology=t, catalog=catalog)
    state, _, _ = step(state, Event(0.0, "arrival", app="a"))
    state, _, _ = step(state, Event(1.0, "arrival", app="b"))
    state, _, m = step(state, Event(2.0, "departure", app="a"))
    fresh = snapshot(state)
    assert m == fresh  # residuals equal recomputation from scratch


def test_capacity_delta_keeps_the_tree_and_its_path_table(fig4_scenario):
    topology = fig4_scenario.topology
    topology.path("far", "cloud")
    cores = {sid: s.cpu_cores for sid, s in topology.sites.items()}
    dipped = apply_capacity_delta(topology, "near", "cpu_cores", -2.5)
    assert {sid: s.cpu_cores for sid, s in topology.sites.items()} == cores
    assert dipped.sites["near"].cpu_cores == cores["near"] - 2.5
    assert [s for sid, s in dipped.sites.items() if sid != "near"] == \
        [s for sid, s in topology.sites.items() if sid != "near"]
    assert list(dipped.sites) == list(topology.sites)
    assert dipped.links is topology.links
    assert dipped._paths is topology._paths
    assert dipped.path("far", "cloud") is topology.path("far", "cloud")
    # What a rebuild from scratch gives, bar the path table.
    assert dipped == build_topology(list(dipped.sites.values()), list(dipped.links))


def test_capacity_delta_below_zero_or_nan_raises(fig4_scenario):
    topology = fig4_scenario.topology
    cores = topology.sites["near"].cpu_cores
    assert apply_capacity_delta(topology, "near", "cpu_cores", -cores).sites["near"].cpu_cores == 0
    for amount in (-cores - 0.001, float("nan")):
        with pytest.raises(NonPositiveCapacity):
            apply_capacity_delta(topology, "near", "cpu_cores", amount)
    assert topology.sites["near"].cpu_cores == cores
