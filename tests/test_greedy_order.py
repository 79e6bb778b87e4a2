"""Greedy's probe order picks what an exhaustive scan of its key picks.

_State.best_option probes a block's options in key order and returns the
first one that fits.  The oracle here scores every (candidate, combo) that
_State.fits accepts with the key greedy minimises, (qloss, traffic,
migration, site, gpu, levels), and takes the minimum; it shares none of
the ordering code.  Level combos are compiled once per Block and reused by
every _Problem built on the same catalog.
"""

from dataclasses import replace

from edgeorch.placer import InfeasibleError, _Problem, _State, solve_greedy
from edgeorch.topology import build_topology

from instance_gen import random_instance

SIZES = ({}, {"max_sites": 8, "max_free": 16})


def oracle_token(state, i):
    """Token of the option with the least key among all that fit, or None."""
    best_key = best_token = None
    for sid, gid in state.prob.candidates[i]:
        for combo in state.prob.combos[i]:
            token = state.fits(i, sid, gid, combo)
            if token is None:
                continue
            key = (combo.qloss, token[5], token[6], sid, gid or "", combo.levels)
            if best_key is None or key < best_key:
                best_key, best_token = key, token
    return best_token


def halved_cpu(topology):
    return build_topology([replace(s, cpu_cores=s.cpu_cores / 2) for s in topology.sites.values()],
                          list(topology.links))


def cases(seeds):
    """(topology, app, prev): each instance as is with no prev, with its CPU
    halved under greedy's full-CPU placement as prev, and at full CPU under
    greedy's halved-CPU placement as prev.  The last puts blocks on sites
    that greedy's own ties would not pick, so the migration term decides."""
    for kwargs in SIZES:
        for seed in seeds:
            topology, app = random_instance(seed, **kwargs)
            halved = halved_cpu(topology)
            yield topology, app, None
            for tree, prev_tree in ((halved, topology), (topology, halved)):
                try:
                    yield tree, app, solve_greedy(prev_tree, [app])
                except InfeasibleError:
                    pass


def test_best_option_is_the_least_key_that_fits():
    chosen = unplaceable = migrating = 0
    for topology, app, prev in cases(range(150)):
        state = _State(_Problem(topology, [app], prev))
        for i in range(state.prob.n):
            token = state.best_option(i)
            assert token == oracle_token(state, i)
            if token is None:
                unplaceable += 1  # leave block i out and go on with the rest
                continue
            state.apply(token, 1)
            chosen += 1
            migrating += token[6]
    assert chosen > 1000 and unplaceable > 10 and migrating > 10


def test_best_option_changes_nothing():
    for topology, app, prev in cases(range(20)):
        state = _State(_Problem(topology, [app], prev))
        for i in range(state.prob.n):
            before = (dict(state.cpu_used), dict(state.gpu_mem), dict(state.bw_used),
                      list(state.site), state.traffic)
            token = state.best_option(i)
            assert before == (dict(state.cpu_used), dict(state.gpu_mem), dict(state.bw_used),
                              list(state.site), state.traffic)
            if token is not None:
                state.apply(token, 1)


def test_problems_on_one_catalog_share_the_compiled_combos():
    topology, app = random_instance(7, max_sites=8, max_free=16)
    first = _Problem(topology, [app], None)
    second = _Problem(halved_cpu(topology), [app], None)
    assert first.n == second.n > 1
    for i in range(first.n):
        assert first.combos[i] is second.combos[i]
        assert first.qloss_groups[i] is second.qloss_groups[i]
        combos = first.combos[i]
        assert list(combos) == sorted(combos, key=lambda c: (c.qloss, c.levels))
        groups = first.qloss_groups[i]
        assert tuple(c for g in groups for c in g) == combos
        assert all(len({c.qloss for c in g}) == 1 for g in groups)
        assert [g[0].qloss for g in groups] == sorted({c.qloss for c in combos})
