"""The solvers' incremental accounting agrees with the audit kernel.

Both solvers keep running CPU, GPU and link loads and costs in a _State;
check_feasible, policy_cost and the metrics snapshot read account().  For
each solver's placement on seeded random instances, replaying it through
_State.try_place must give the kernel's numbers, and remove() followed by
restore() must leave the state exactly as it was.  Greedy scores its probes
with _State.fits, which must change nothing and return the token that
try_place would apply.
"""

import copy

import pytest

from edgeorch.placer import (EPS, InfeasibleError, _Problem, _State, account, policy_cost,
                             solve_exact, solve_greedy)

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
                            state.undo(placed)
                            fitted += 1
                        probes += 1
    assert fitted > 0 and probes > fitted
