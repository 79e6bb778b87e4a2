"""The solvers' incremental accounting agrees with the audit kernel.

Both solvers keep running CPU, GPU and link loads and costs in a _State;
check_feasible, policy_cost and the metrics snapshot read account().  For
each solver's placement on seeded random instances, replaying it through
_State.try_place must give the kernel's numbers, and remove() followed by
restore() must leave the state exactly as it was.  Greedy scores its probes
with _State.fits, which must change nothing and return the token that
try_place would apply.  The kernel itself must equal, exactly, loads and
costs summed here from the knob levels' multipliers, for any placement.
"""

import copy
import random

import pytest

from edgeorch.appgraph import LevelOutOfRange
from edgeorch.placer import (EPS, InfeasibleError, Placement, _Problem, _State, account,
                             check_feasible, policy_cost, solve_exact, solve_greedy)

from instance_gen import random_instance

SEEDS = range(40)


def replay(topology, app, placement, prev, upto=None):
    """A _State built by placing the blocks of `placement` in solver order,
    all of them or the first `upto`."""
    prob = _Problem(topology, [app], prev)
    state = _State(prob)
    for i, (_app, b) in enumerate(prob.order[:upto]):
        sid, gid = placement.assignment[b.id]
        combo = next(c for c in prob.combos[i] if c.levels == placement.levels_of(b))
        assert state.try_place(i, sid, gid, combo) is not None, b.id
    return state


def fields(state):
    return copy.deepcopy({k: v for k, v in vars(state).items() if k != "prob"})


def assert_close_maps(incremental, kernel):
    for key in set(incremental) | set(kernel):
        assert incremental.get(key, 0.0) == pytest.approx(kernel.get(key, 0.0), abs=EPS), key


def solved(seed):
    """(topology, app, [(placement, prev)]) for both solvers on one instance."""
    topology, app = random_instance(seed)
    try:
        greedy = solve_greedy(topology, [app])
        exact = solve_exact(topology, [app], prev=greedy)
    except InfeasibleError:
        return topology, app, []
    return topology, app, [(greedy, None), (exact, greedy), (greedy, exact)]


def test_incremental_loads_and_costs_match_the_kernel():
    checked = 0
    for seed in SEEDS:
        topology, app, runs = solved(seed)
        for placement, prev in runs:
            state = replay(topology, app, placement, prev)
            loads = account(topology, [app], placement)
            cost = policy_cost(topology, [app], placement, prev=prev)
            assert_close_maps(state.cpu_used, loads.cpu)
            assert_close_maps(state.gpu_mem, loads.gpu_mem)
            assert_close_maps(state.gpu_comp, loads.gpu_comp)
            assert_close_maps(state.bw_used, loads.link)
            assert state.qloss == pytest.approx(cost.quality_loss, abs=EPS)
            assert state.traffic == pytest.approx(cost.traffic_cost, abs=EPS)
            assert state.migrations == cost.migrations
            checked += 1
    assert checked >= 30


def test_remove_then_restore_is_exact():
    checked = 0
    for seed in SEEDS:
        topology, app, runs = solved(seed)
        for placement, prev in runs:
            state = replay(topology, app, placement, prev)
            for i in range(state.prob.n):
                before = fields(state)
                token = state.remove(i)
                assert state.site[i] is None
                state.restore(token)
                assert fields(state) == before
                checked += 1
    assert checked > 0


def test_fits_changes_nothing_and_returns_the_applied_token():
    probes = fitted = 0
    for seed in SEEDS:
        topology, app, runs = solved(seed)
        for placement, prev in runs:
            half = len(app.blocks) // 2
            state = replay(topology, app, placement, prev, upto=half)
            prob = state.prob
            for i in range(half, prob.n):
                for sid, gid in prob.candidates[i]:
                    for combo in prob.combos[i]:
                        before = fields(state)
                        token = state.fits(i, sid, gid, combo)
                        assert fields(state) == before
                        placed = state.try_place(i, sid, gid, combo)
                        assert placed == token
                        if placed is not None:
                            state.apply(placed, -1)
                            fitted += 1
                        probes += 1
    assert fitted > 0 and probes > fitted


def random_placement(rng, topology, app):
    """Any slot of the right kind and any level per knob, feasible or not."""
    assignment, levels = {}, {}
    for b in app.blocks:
        sites = [b.pinned_site] if b.pinned_site else sorted(topology.sites)
        if b.needs_gpu:
            slots = [(sid, g.id) for sid in sites for g in topology.sites[sid].gpus]
        else:
            slots = [(sid, None) for sid in sites]
        assignment[b.id] = rng.choice(slots)
        for knob in b.params:
            levels[(b.id, knob.name)] = rng.randrange(len(knob.levels))
    return Placement(assignment=assignment, levels=levels)


def from_scratch(topology, app, placement):
    """Loads and costs summed straight from the knob levels' multipliers:
    each product taken in knob order, each sum in block and edge order."""
    cpu, gpu_mem, gpu_comp, link, rate_scale = {}, {}, {}, {}, {}
    qloss = traffic = 0.0
    for b in app.blocks:
        cpu_m = mem_m = comp_m = rate_m = 1.0
        loss = 0.0
        for knob in b.params:
            lv = knob.levels[placement.levels.get((b.id, knob.name), 0)]
            cpu_m *= lv.cpu_mult
            mem_m *= lv.gpu_mem_mult
            comp_m *= lv.gpu_compute_mult
            rate_m *= lv.rate_mult
            loss += 1.0 - lv.quality
        qloss += loss
        rate_scale[b.id] = rate_m
        sid, gid = placement.assignment[b.id]
        cpu[sid] = cpu.get(sid, 0.0) + b.cpu_req * cpu_m
        if gid is not None:
            gpu_mem[(sid, gid)] = gpu_mem.get((sid, gid), 0.0) + b.gpu_mem_gb * mem_m
            gpu_comp[(sid, gid)] = gpu_comp.get((sid, gid), 0.0) + b.gpu_compute_pct * comp_m
    for e in app.edges:
        rate = e.rate_mbps * rate_scale[e.src]
        if rate <= 0:
            continue
        links, cost, _lat = topology.path(placement.site_of(e.src), placement.site_of(e.dst))
        traffic += rate * cost
        for l in links:
            link[l.child] = link.get(l.child, 0.0) + rate
    return cpu, gpu_mem, gpu_comp, link, qloss, traffic


def test_account_and_policy_cost_equal_a_from_scratch_sum():
    checked = 0
    for seed in SEEDS:
        topology, app = random_instance(seed)
        rng = random.Random(seed)
        prev = random_placement(rng, topology, app)
        for _ in range(5):
            placement = random_placement(rng, topology, app)
            cpu, gpu_mem, gpu_comp, link, qloss, traffic = from_scratch(topology, app, placement)
            loads = account(topology, [app], placement)
            assert (loads.cpu, loads.gpu_mem, loads.gpu_comp, loads.link) == (cpu, gpu_mem, gpu_comp, link)
            assert (loads.quality_loss, loads.traffic_cost) == (qloss, traffic)
            cost = policy_cost(topology, [app], placement, prev=prev)
            migrations = sum(prev.site_of(b) != placement.site_of(b) for b in placement.assignment)
            assert (cost.quality_loss, cost.traffic_cost, cost.migrations) == (qloss, traffic, migrations)
            checked += 1
    assert checked == 5 * len(SEEDS)


def test_check_feasible_refuses_an_out_of_range_level():
    topology, app = random_instance(0)
    b = next(b for b in app.blocks if b.params)
    placement = random_placement(random.Random(0), topology, app)
    knob = b.params[0]
    for level in (len(knob.levels), -1):
        bad = Placement(assignment=placement.assignment,
                        levels={**placement.levels, (b.id, knob.name): level})
        with pytest.raises(LevelOutOfRange):
            check_feasible(topology, [app], bad)
