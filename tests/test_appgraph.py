import random

import pytest

from edgeorch.appgraph import (AppGraph, Block, FlowEdge, LevelOutOfRange, ParamKnob,
                               ParamLevel, validate_graph)


def knob(name, *mults, qualities=None):
    levels = [ParamLevel(quality=1.0)]
    for i, m in enumerate(mults):
        q = qualities[i] if qualities else round(0.9 - 0.2 * i, 2)
        levels.append(ParamLevel(quality=q, cpu_mult=m, gpu_mem_mult=m,
                                 gpu_compute_mult=m, rate_mult=m))
    return ParamKnob(name=name, levels=tuple(levels))


def test_single_pinned_block_ok():
    g = AppGraph("a", (Block("src", pinned_site="edge"),), ())
    assert validate_graph(g) == []


def test_cycle_detected():
    g = AppGraph("a", (Block("a", pinned_site="x"), Block("b")),
                 (FlowEdge("a", "b", 1.0), FlowEdge("b", "a", 1.0)))
    assert any(v.kind == "CycleDetected" for v in validate_graph(g))


def test_unknown_endpoint():
    g = AppGraph("a", (Block("a", pinned_site="x"),), (FlowEdge("a", "ghost", 1.0),))
    assert any(v.kind == "UnknownEndpoint" for v in validate_graph(g))


def test_empty_graph():
    g = AppGraph("a", (), ())
    assert [v.kind for v in validate_graph(g)] == ["EmptyGraph"]


def test_anomaly_chain_ok():
    g = AppGraph(
        "anomaly",
        (Block("collect", pinned_site="far"), Block("impute"), Block("detect"), Block("rca")),
        (FlowEdge("collect", "impute", 20.0), FlowEdge("impute", "detect", 5.0),
         FlowEdge("detect", "rca", 1.0)),
    )
    assert validate_graph(g) == []


def test_unreachable_from_pinned_source():
    g = AppGraph("a", (Block("src", pinned_site="x"), Block("island")), ())
    assert any(v.kind == "UnreachableBlock" for v in validate_graph(g))


def test_validation_stable_under_reordering():
    blocks = (Block("src", pinned_site="x"), Block("m"), Block("t"))
    edges = (FlowEdge("src", "m", 2.0), FlowEdge("m", "t", 1.0))
    g1 = AppGraph("a", blocks, edges)
    g2 = AppGraph("a", tuple(reversed(blocks)), tuple(reversed(edges)))
    assert validate_graph(g1) == [] and validate_graph(g2) == []


def test_effective_demand_identity_at_level_zero():
    b = Block("b", cpu_req=2.0, gpu_mem_gb=8.0, gpu_compute_pct=40.0,
              params=(knob("k", 0.5),))
    d = b.combo((0,))
    assert (d.cpu, d.gpu_mem, d.gpu_comp, d.rate_scale) == (2.0, 8.0, 40.0, 1.0)


def test_effective_demand_single_knob():
    b = Block("b", cpu_req=2.0, params=(knob("k", 0.5),))
    assert b.combo((1,)).cpu == 1.0


def test_effective_demand_two_knobs_product():
    b = Block("b", gpu_mem_gb=8.0, params=(knob("k1", 0.5), knob("k2", 0.5)))
    # oracle: product of the selected multipliers
    expected = 8.0 * 0.5 * 0.5
    assert b.combo((1, 1)).gpu_mem == expected


def test_level_out_of_range():
    b = Block("b", cpu_req=1.0, params=(knob("k", 0.5),))
    with pytest.raises(LevelOutOfRange):
        b.combo((2,))
    with pytest.raises(LevelOutOfRange):
        b.combo(())


def test_effective_demand_monotone_in_levels():
    rng = random.Random(3)
    for _ in range(100):
        knobs = tuple(
            knob(f"k{i}", *sorted((round(rng.uniform(0.2, 0.99), 2)
                                   for _ in range(rng.randint(1, 3))), reverse=True))
            for i in range(rng.randint(1, 3))
        )
        b = Block("b", cpu_req=rng.uniform(0, 4), gpu_mem_gb=rng.uniform(0, 16),
                  gpu_compute_pct=rng.uniform(0, 100), params=knobs)
        levels = [rng.randrange(len(k.levels)) for k in knobs]
        d0 = b.combo(tuple(levels))
        i = rng.randrange(len(knobs))
        if levels[i] + 1 >= len(knobs[i].levels):
            continue
        levels[i] += 1
        d1 = b.combo(tuple(levels))
        assert d1.cpu <= d0.cpu
        assert d1.gpu_mem <= d0.gpu_mem
        assert d1.gpu_comp <= d0.gpu_comp
        assert d1.rate_scale <= d0.rate_scale


def test_quality_loss_zero_only_at_full_quality():
    knobs = (knob("a", 0.5, 0.25), knob("b", 0.8))
    b = Block("b", cpu_req=1.0, params=knobs)
    assert b.combo((0, 0)).qloss == 0.0
    for levels in [(1, 0), (0, 1), (2, 1)]:
        assert b.combo(levels).qloss > 0.0


def test_source_latency_requirements_no_pinned_ancestor():
    g = AppGraph("a", (Block("x", max_source_latency_ms=10.0),), ())
    assert g.latency_requirements() == (("x", 10.0, ()),)


def test_source_latency_requirements_chain():
    g = AppGraph(
        "a",
        (Block("src", pinned_site="far"), Block("a"), Block("b", max_source_latency_ms=5.0)),
        (FlowEdge("src", "a", 1.0), FlowEdge("a", "b", 1.0)),
    )
    assert g.latency_requirements() == (("b", 5.0, (("src", "far"),)),)


def test_source_latency_requirements_diamond():
    g = AppGraph(
        "a",
        (Block("s1", pinned_site="x"), Block("s2", pinned_site="y"),
         Block("m1"), Block("m2"), Block("sink", max_source_latency_ms=8.0)),
        (FlowEdge("s1", "m1", 1.0), FlowEdge("s2", "m2", 1.0),
         FlowEdge("m1", "sink", 1.0), FlowEdge("m2", "sink", 1.0)),
    )
    assert g.latency_requirements() == (("sink", 8.0, (("s1", "x"), ("s2", "y"))),)


def test_bad_knob_rejected():
    bad = ParamKnob("k", (ParamLevel(quality=0.9),))  # level 0 must be quality 1.0
    g = AppGraph("a", (Block("b", params=(bad,)),), ())
    assert any(v.kind == "BadKnob" for v in validate_graph(g))
