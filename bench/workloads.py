"""The five benchmark workloads.

Each workload makes its inputs from the seed, times the program's set-up,
then plays rounds: fixed groups of operations, so that every run attempts
whole rounds and the share of failed operations is the same in every run.
Only calls into the program are timed.  After each round the workload
checks what the program returned against the benchmark's own computation
(checker.py, or its own admission and queue bookkeeping); checks are not
timed and record nothing in the trace.
"""

from __future__ import annotations

import collections
import hashlib
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import checker
import gen
from tracing import Tracer, median_ms, quantile_ms

TOL = 1e-6
# A search space this small is brute-forced in full to check the exact solver.
BRUTE_FORCE_LIMIT = 2000
# Rounds re-played from the start to check that the rendered trace repeats.
REPLAY_ROUNDS = 3


@dataclass
class RoundResult:
    lat: list[float]      # seconds: one per successful operation, or per round
                          # (the round's time over its operations)
    timed: float          # seconds spent in the program this round
    attempted: int
    failed: int
    record: object = None  # what check() needs


@dataclass
class Problems:
    items: list[str] = field(default_factory=list)

    def add(self, msg: str) -> None:
        if len(self.items) < 20:
            self.items.append(msg)


def _rel(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


class Workload:
    setup_repeats = 5
    # Whether the traced run repeats the set-ups too: only where a per-layer
    # metric reads their spans.
    trace_setup = False
    max_rounds = 10 ** 9

    def setup(self, api):
        """The program's set-up for this workload; timed, repeated."""
        raise NotImplementedError

    def warm(self, api, ctx):
        """Untimed steps from set-up to the state rounds start from."""
        return ctx

    def play(self, api, ctx, k: int) -> tuple[object, RoundResult]:
        """Round k from ctx; returns the context after it and its result."""
        raise NotImplementedError

    def check(self, api, rr: RoundResult, problems: Problems) -> None:
        """Check a round's outputs; untimed, with tracing paused."""
        raise NotImplementedError

    def final_check(self, api, start, problems: Problems) -> None:
        """Checks that need the whole run, from the state rounds start from."""

    def layer_metrics(self, summary: dict, tracer: Tracer, ops: int, op_time: float) -> dict:
        """Per-layer metrics of a traced pass of `ops` operations."""
        raise NotImplementedError


# -- placement workloads ----------------------------------------------------------

def _placement_layers(summary: dict, tracer: Tracer, ops: int, op_time: float) -> dict:
    solve_self = sum(summary.get(n, {"self_ns": 0})["self_ns"]
                     for n in ("placer.solve_exact", "placer.solve_greedy"))
    step = summary.get("simulator.step")
    return {
        "scenario_io.parse_ms": median_ms(summary, "scenario_io.parse"),
        "scenario_io.report_ms": median_ms(summary, "scenario_io.report"),
        "topology.build_ms": median_ms(summary, "topology.build"),
        "topology.route_calls_per_decision": tracer.route_calls / max(ops, 1),
        "placer.solve_exact_ms_p50": quantile_ms(summary, "placer.solve_exact", 50),
        "placer.solve_exact_ms_p95": quantile_ms(summary, "placer.solve_exact", 95),
        "placer.solve_greedy_ms_p50": quantile_ms(summary, "placer.solve_greedy", 50),
        "placer.solve_greedy_ms_p95": quantile_ms(summary, "placer.solve_greedy", 95),
        "placer.solve_share": (solve_self / 1e9 / op_time) if step and op_time > 0 else 0.0,
        "placer.check_feasible_ms": median_ms(summary, "placer.check_feasible"),
        "placer.policy_cost_ms": median_ms(summary, "placer.policy_cost"),
        "placer.plan_actions_ms": median_ms(summary, "placer.plan_actions"),
        "simulator.step_self_ms": (step["self_ns"] / len(step["durs"]) / 1e6) if step else 0.0,
        "simulator.snapshot_ms": median_ms(summary, "simulator.snapshot"),
    }


class Online(Workload):
    """Closed loop, one client: each event goes to simulator.step once the
    previous decision has committed.  Shared by online_exact and
    online_greedy."""

    setup_repeats = 11
    trace_setup = True

    def __init__(self, seed: int, solver: str):
        rng = random.Random(seed)
        self.solver = solver
        if solver == "exact":
            self.doc, self.warmup = gen.online_exact(rng, rounds=800)
            self.round_len = gen.EXACT_ROUND
        else:
            self.doc, self.warmup = gen.online_greedy(rng, rounds=200)
            self.round_len = gen.GREEDY_ROUND
        self.text = gen.render(self.doc)
        self.max_rounds = (len(self.doc["events"]) - self.warmup) // self.round_len
        self.csv_digests: list[str] = []
        self.rejects = 0
        self.decisions = 0
        self.brute_forced = 0

    def setup(self, api):
        scenario = api.parse_scenario(self.text)
        return scenario, api.SimState(topology=scenario.topology, catalog=dict(scenario.apps))

    def warm(self, api, ctx):
        scenario, state = ctx
        self.events = list(scenario.events)
        self.catalog = scenario.apps
        self.model = checker.Model(self.doc)
        for ev in self.events[:self.warmup]:
            state, _, _ = api.step(state, ev, opts=scenario.policy)
        return scenario, state

    def play(self, api, ctx, k):
        scenario, state = ctx
        first = self.warmup + k * self.round_len
        lat = []
        timed = 0.0
        failed = 0
        steps = []
        log = []
        clock = time.perf_counter
        for ev in self.events[first:first + self.round_len]:
            t0 = clock()
            try:
                new, actions, metrics = api.step(state, ev, opts=scenario.policy)
            except api.UnknownApp:
                timed += clock() - t0
                failed += 1
                log.append((ev, state, None, None, None))
                continue
            dt = clock() - t0
            timed += dt
            lat.append(dt)
            log.append((ev, state, new, actions, metrics))
            steps.append(api.SimStep(time=ev.at, event=ev.label, actions=tuple(actions),
                                     violations=(), metrics=metrics, placement=new.placement))
            state = new
        t0 = clock()
        csv = api.write_report(api.SimTrace(steps=tuple(steps)))
        timed += clock() - t0
        digest = hashlib.sha256(csv.encode()).hexdigest()
        return (scenario, state), RoundResult(lat, timed, len(log), failed, (k, log, digest))

    def check(self, api, rr, problems):
        k, log, digest = rr.record
        if k == len(self.csv_digests):
            self.csv_digests.append(digest)
        elif k < len(self.csv_digests) and self.csv_digests[k] != digest:
            problems.add(f"round {k}: rendered trace differs between passes")
        for ev, prev, new, actions, metrics in log:
            if new is None:
                if not (ev.kind == "departure" and ev.app == gen.OVERSIZED_APP
                        and ev.app not in prev.admitted):
                    problems.add(f"{ev.label}: unexpected UnknownApp")
                continue
            self.decisions += 1
            self._check_step(api, ev, prev, new, actions, metrics, problems)

    def _check_step(self, api, ev, prev, new, actions, metrics, problems):
        label = f"event {ev.seq} {ev.label}"
        # What the solver was asked: the admitted set and tree after the event.
        ids = set(prev.admitted)
        topology, model = prev.topology, self.model
        if ev.kind == "arrival":
            ids.add(ev.app)
        elif ev.kind == "departure":
            ids.discard(ev.app)
        else:
            topology = api.apply_capacity_delta(prev.topology, ev.site, ev.resource, ev.amount)
            model = model.with_cpu_delta(ev.site, ev.amount)
        ids = sorted(ids)
        rejected = [a.kind for a in actions] == ["Reject"]
        if rejected:
            self.rejects += 1
            if new.placement != prev.placement or new.admitted != prev.admitted \
                    or new.topology is not prev.topology:
                problems.add(f"{label}: Reject changed the committed state")
            if ev.kind == "arrival" and ev.app != gen.OVERSIZED_APP and self.solver == "greedy":
                problems.add(f"{label}: seeded arrival rejected")
        else:
            self.model = model
            if sorted(new.admitted) != ids:
                problems.add(f"{label}: admitted {sorted(new.admitted)}, expected {ids}")
        if ev.kind == "arrival" and ev.app == gen.OVERSIZED_APP and not rejected:
            problems.add(f"{label}: oversized app admitted")
        audit = self.model.audit(sorted(new.admitted), new.placement.assignment,
                                 new.placement.levels, prev.placement.assignment)
        if audit.violations:
            problems.add(f"{label}: committed placement violates {audit.violations[:3]}")
        # The snapshot against the checker's own loads and costs.
        for sid, used in audit.cpu_used.items():
            cap = self.model.cpu_capacity(sid)
            if not _rel(metrics.cpu_used[sid], used) or not _rel(metrics.cpu_capacity[sid], cap):
                problems.add(f"{label}: cpu on {sid}: snapshot {metrics.cpu_used[sid]}"
                             f"/{metrics.cpu_capacity[sid]}, checker {used}/{cap}")
        for key, used in audit.gpu_mem.items():
            if not _rel(metrics.gpu_mem_used[key], used) or \
                    not _rel(metrics.gpu_compute_used[key], audit.gpu_compute[key]):
                problems.add(f"{label}: gpu load on {key} disagrees with the checker")
        for key, used in audit.link_mbps.items():
            if not _rel(metrics.link_traffic_mbps[key], used):
                problems.add(f"{label}: link {key}: snapshot {metrics.link_traffic_mbps[key]}, "
                             f"checker {used}")
        if not _rel(metrics.traffic_cost, audit.traffic_cost) or \
                not _rel(metrics.quality_loss, audit.quality_loss):
            problems.add(f"{label}: snapshot cost disagrees with the checker")
        moved = 0 if rejected else audit.migrations
        if new.migrations_total != prev.migrations_total + moved:
            problems.add(f"{label}: migrations_total {new.migrations_total}, "
                         f"checker {prev.migrations_total} + {moved}")
        if self.solver == "exact":
            self._check_exact(api, label, ids, topology, model, prev.placement,
                              None if rejected else audit.cost(), problems)

    def _check_exact(self, api, label, ids, topology, model, prev, exact_cost, problems):
        """Exact is never worse than greedy, and equals brute force where small.

        exact_cost is None when the exact solver rejected the event."""
        apps = [self.catalog[a] for a in ids]
        try:
            greedy = api.solve_greedy(topology, apps, prev=prev)
        except api.InfeasibleError:
            greedy = None
        if greedy is not None:
            g = model.audit(ids, greedy.assignment, greedy.levels, prev.assignment)
            if exact_cost is None:
                problems.add(f"{label}: exact rejected but greedy found {g.cost()}")
            elif not checker.cost_leq(exact_cost, g.cost()):
                problems.add(f"{label}: exact {exact_cost} worse than greedy {g.cost()}")
        best = checker.brute_force(model, ids, prev.assignment, BRUTE_FORCE_LIMIT)
        if best is not False:
            self.brute_forced += 1
            if best is None and exact_cost is not None:
                problems.add(f"{label}: brute force finds nothing feasible, exact {exact_cost}")
            elif best is not None and (exact_cost is None or not checker.cost_eq(best, exact_cost)):
                problems.add(f"{label}: exact {exact_cost}, brute force {best}")

    def final_check(self, api, start, problems):
        """Re-play the first rounds from the start state: same trace bytes."""
        ctx = start
        for k in range(min(REPLAY_ROUNDS, len(self.csv_digests))):
            ctx, rr = self.play(api, ctx, k)
            if rr.record[2] != self.csv_digests[k]:
                problems.add(f"round {k}: rendered trace differs on re-play")
        if self.solver == "exact" and self.brute_forced == 0:
            problems.add("no decision was small enough to brute-force")

    def layer_metrics(self, summary, tracer, ops, op_time):
        out = _placement_layers(summary, tracer, ops, op_time)
        out["placer.reject_pct"] = 100.0 * self.rejects / max(self.decisions, 1)
        return out


class WhatIf(Workload):
    """Audit of what-if candidates against one committed placement.

    Each operation scores one candidate, a single-block move or a single
    knob-level change, with check_feasible, policy_cost(prev=committed) and
    plan_actions(committed, candidate).  A round is one what-if query of 32
    candidates, as a planner would ask it; its latency is the query's time
    over its candidates.
    """

    setup_repeats = 5
    trace_setup = True
    per_round = 32

    def __init__(self, seed: int):
        self.seed = seed
        self.doc = gen.whatif_base(random.Random(seed))
        self.text = gen.render(self.doc)
        self.model = checker.Model(self.doc)
        self.checked_committed = False

    def setup(self, api):
        scenario = api.parse_scenario(self.text)
        apps = [scenario.apps[a] for a in sorted(scenario.apps)]
        return scenario, apps, api.solve_greedy(scenario.topology, apps)

    def warm(self, api, ctx):
        scenario, apps, committed = ctx
        self.ids = [a.id for a in apps]
        self.free = sorted(b.id for a in apps for b in a.blocks if b.pinned_site is None)
        self.blocks = {b.id: b for a in apps for b in a.blocks}
        self.slots = {True: [], False: []}  # needs GPU -> every (site, gpu) it could take
        for sid in sorted(scenario.topology.sites):
            self.slots[False].append((sid, None))
            for g in scenario.topology.sites[sid].gpus:
                self.slots[True].append((sid, g.id))
        return ctx

    def candidate(self, api, rng: random.Random, committed):
        """(kind, block, new (site, gpu) or (knob, level)) and the candidate Placement."""
        assignment = dict(committed.assignment)
        levels = dict(committed.levels)
        bid = rng.choice(self.free)
        b = self.blocks[bid]
        if b.params and rng.random() < 0.3:
            knob = rng.choice(b.params)
            now = levels.get((bid, knob.name), 0)
            level = rng.choice([i for i in range(len(knob.levels)) if i != now])
            levels[(bid, knob.name)] = level
            change = ("SetLevel", bid, (knob.name, level))
        else:
            here = assignment[bid]
            slot = rng.choice([s for s in self.slots[b.needs_gpu] if s != here])
            assignment[bid] = slot
            change = ("Migrate", bid, slot)
        return change, api.Placement(assignment=assignment, levels=levels)

    def play(self, api, ctx, k):
        scenario, apps, committed = ctx
        rng = random.Random(self.seed * 1_000_003 + k)
        topology = scenario.topology
        timed = 0.0
        log = []
        clock = time.perf_counter
        for _ in range(self.per_round):
            change, cand = self.candidate(api, rng, committed)
            t0 = clock()
            violations = api.check_feasible(topology, apps, cand)
            cost = api.policy_cost(topology, apps, cand, prev=committed)
            actions = api.plan_actions(committed, cand)
            timed += clock() - t0
            log.append((change, cand, violations, cost, actions))
        # One latency per query: its time over its candidates.
        return ctx, RoundResult([timed / len(log)], timed, len(log), 0, (committed, log))

    def check(self, api, rr, problems):
        committed, log = rr.record
        if not self.checked_committed:
            self.checked_committed = True
            base = self.model.audit(self.ids, committed.assignment, committed.levels)
            if base.violations:
                problems.add(f"committed placement violates {base.violations[:3]}")
        for (kind, bid, what), cand, violations, cost, actions in log:
            audit = self.model.audit(self.ids, cand.assignment, cand.levels, committed.assignment)
            got = sorted((v.kind, v.subject) for v in violations)
            want = [(v[0], v[1]) for v in audit.violations]
            if got != want:
                problems.add(f"{kind} {bid} {what}: violations {got}, checker {want}")
            else:
                amounts = sorted((v.kind, v.subject, v.amount) for v in violations)
                if not all(_rel(a[2], w[2]) for a, w in zip(amounts, audit.violations)):
                    problems.add(f"{kind} {bid} {what}: violation amounts disagree")
            if not (_rel(cost.quality_loss, audit.quality_loss)
                    and _rel(cost.traffic_cost, audit.traffic_cost)
                    and cost.migrations == audit.migrations):
                problems.add(f"{kind} {bid} {what}: cost {cost.to_json_obj()}, checker "
                             f"{audit.cost()}")
            ok = len(actions) == 1 and actions[0].kind == kind and actions[0].block == bid
            if ok and kind == "Migrate":
                ok = (actions[0].site, actions[0].gpu) == what
            elif ok:
                ok = dict(actions[0].levels).get(what[0]) == what[1]
            if not ok:
                problems.add(f"{kind} {bid} {what}: actions {[a.to_json_obj() for a in actions]}")

    def layer_metrics(self, summary, tracer, ops, op_time):
        out = _placement_layers(summary, tracer, ops, op_time)
        out["placer.reject_pct"] = 0.0
        return out


# -- far-edge runtime workloads ---------------------------------------------------------

def _runtime_layers(summary: dict) -> dict:
    def per_item_ns(name):
        s = summary.get(name)
        return sum(s["durs"]) / s["items"] if s and s["items"] else 0.0

    return {
        "runtime.admit_us": median_ms(summary, "runtime.admit") * 1e3,
        "runtime.release_us": median_ms(summary, "runtime.release") * 1e3,
        "runtime.send_ns": per_item_ns("runtime.send"),
        "runtime.recv_ns": per_item_ns("runtime.recv"),
    }


class Admission(Workload):
    """Task churn on the far-edge runtime, holding about 400 admitted tasks.

    Set-up admits the first 400 CPU and GPU tasks into an empty state.  An
    operation is one churn step: at the hold level an admitted task is
    released and a new one asks to be admitted; below it a new task only
    asks.  Some asks are refused for capacity, and one in fifty repeats an
    admitted id.  A round is 64 operations.
    """

    setup_repeats = 5

    def __init__(self, seed: int):
        self.seed = seed
        self.initial = gen.admission_initial(random.Random(seed))
        self.rejected = 0
        self.asks = 0

    def fresh_model(self):
        model = gen.AdmissionModel(gen.RUNTIME_CPU_CORES, gen.RUNTIME_GPU_AREA)
        for task in self.initial:
            model.admit(task)
        return model

    def setup(self, api):
        state = api.RuntimeState(cpu_capacity=gen.RUNTIME_CPU_CORES,
                                 gpu_area_capacity=gen.RUNTIME_GPU_AREA)
        for task in self.initial:
            state = api.admit(state, api.RtTask(*task))
        return state

    def warm(self, api, state):
        # Rounds are made as they are played, so that a re-play from here
        # sees the same ones and memory does not grow with the run.
        self.stream = random.Random(f"{self.seed}/churn")
        self.gen_model = self.fresh_model()
        self.next_id = 1 + max(int(task[0][1:]) for task in self.initial)
        self.check_model = self.fresh_model()
        return state

    def play(self, api, state, k):
        ops, self.next_id = gen.admission_round(self.stream, self.gen_model, self.next_id)
        ops = [(leaving, api.RtTask(*task)) for leaving, task in ops]
        lat = []
        timed = 0.0
        log = []
        clock = time.perf_counter
        admit, release = api.admit, api.release
        rejected, unknown = api.AdmissionRejected, api.UnknownTask
        failed = 0
        for leaving, task in ops:
            t0 = clock()
            try:
                if leaving is not None:
                    state = release(state, leaving)
                state = admit(state, task)
                outcome = None
            except rejected as exc:
                outcome = exc.reason
            except unknown:
                # Only if the program lost a task the benchmark saw admitted.
                outcome = "UnknownTask"
            dt = clock() - t0
            timed += dt
            if outcome == "UnknownTask":
                failed += 1
            else:
                lat.append(dt)
            log.append((leaving, task, outcome))
        return state, RoundResult(lat, timed, len(log), failed, (log, state))

    def check(self, api, rr, problems):
        log, state = rr.record
        model = self.check_model
        for leaving, task, outcome in log:
            if leaving is not None:
                model.release(leaving)
            spec = (task.id, task.budget_us, task.period_us, task.kind)
            want = model.decide(spec)
            self.asks += 1
            if want is None:
                model.admit(spec)
            else:
                self.rejected += 1
            if outcome != want:
                problems.add(f"admit {task.id}: program {outcome}, benchmark {want}")
        if set(state.admitted) != set(model.tasks):
            problems.add("admitted set differs from the benchmark's bookkeeping")
        cpu = sum((Fraction(t.budget_us, t.period_us) for t in state.admitted.values()
                   if t.kind == "Cpu"), Fraction(0))
        gpu = sum((Fraction(t.budget_us, t.period_us) * 100 for t in state.admitted.values()
                   if t.kind == "Gpu"), Fraction(0))
        if cpu != model.cpu or gpu != model.gpu or cpu > model.cpu_cap or gpu > model.gpu_cap:
            problems.add(f"load cpu {cpu} gpu {gpu} disagrees with the benchmark "
                         "or exceeds capacity")

    def layer_metrics(self, summary, tracer, ops, op_time):
        out = _runtime_layers(summary)
        out["runtime.admit_reject_pct"] = 100.0 * self.rejected / max(self.asks, 1)
        return out


class Channels(Workload):
    """One thread drives a Reject and a DropOldest channel in bursts.

    Set-up makes both channels and fills each to half its capacity.  A
    round is 16 bursts of sends and then receives per channel; a quarter of
    the send bursts run ahead of the receiver far enough to fill it.  An
    operation is one send or recv call; its latency is reported per round,
    as the round's time over its calls: single calls take about 0.15 us,
    and per-burst figures let stalls of the machine set p95.
    """

    setup_repeats = 21
    policies = ("Reject", "DropOldest")
    # Payload i carries sequence number i; message s is pool[s % POOL], so
    # every message in the channel or in one burst is a distinct object.
    POOL = 8192

    def __init__(self, seed: int):
        self.seed = seed
        filler = b"\x00" * (gen.CHANNEL_PAYLOAD - 8)
        self.pool = [i.to_bytes(8, "little") + filler for i in range(self.POOL)]
        self.full = 0
        self.dropped = 0
        self.sent = 0

    def payloads(self, first: int, n: int) -> list[bytes]:
        first %= self.POOL
        out = self.pool[first:first + n]
        if len(out) < n:
            out += self.pool[:n - len(out)]
        return out

    def setup(self, api):
        half = self.payloads(0, gen.CHANNEL_CAPACITY // 2)
        chans = {}
        for policy in self.policies:
            chan = api.Channel(gen.CHANNEL_CAPACITY, policy=policy,
                               max_payload_bytes=gen.CHANNEL_PAYLOAD)
            chan.attach_producer()
            chan.attach_consumer()
            for p in half:
                chan.send(p)
            chans[policy] = chan
        return chans

    def warm(self, api, chans):
        # The benchmark's own FIFO model of each channel.
        half = self.payloads(0, gen.CHANNEL_CAPACITY // 2)
        self.queues = {p: collections.deque(half) for p in self.policies}
        self.next_seq = {p: len(half) for p in self.policies}
        self.counts = {p: collections.Counter(sent=len(half)) for p in self.policies}
        return chans

    def play(self, api, chans, k):
        bursts = gen.channel_bursts(random.Random(self.seed * 1_000_003 + k))
        timed = 0.0
        log = []
        clock = time.perf_counter
        record = self.tracer.record
        for n_send, n_recv in bursts:
            for policy in self.policies:
                chan = chans[policy]
                send, recv = chan.send, chan.recv
                out = self.payloads(self.next_seq[policy], n_send)
                self.next_seq[policy] += n_send
                t0 = clock()
                sent = [send(p) for p in out]
                t1 = clock()
                got = [recv() for _ in range(n_recv)]
                t2 = clock()
                record("runtime.send", t0, t1, n_send)
                record("runtime.recv", t1, t2, n_recv)
                timed += t2 - t0
                log.append((policy, out, sent, got))
        calls = sum(s + r for s, r in bursts) * len(self.policies)
        # One latency per round: its time over its calls.
        return chans, RoundResult([timed / calls], timed, calls, 0, log)

    def check(self, api, rr, problems):
        cap = gen.CHANNEL_CAPACITY
        for policy, out, sent, got in rr.record:
            queue = self.queues[policy]
            counts = self.counts[policy]
            n = len(out)
            room = cap - len(queue)
            counts["sent"] += n
            if n <= room:
                ok = sent.count(api.SENT) == n
                queue.extend(out)
            elif policy == "Reject":
                # The first `room` fit; every later send is refused.
                ok = sent[:room].count(api.SENT) == room and sent[room:].count(api.FULL) == n - room
                queue.extend(out[:room])
                counts["full"] += n - room
            else:
                # Each send past `room` evicts the oldest message still queued.
                pending = list(queue) + out
                evicted = pending[:len(pending) - cap]
                ok = sent[:room].count(api.SENT) == room and all(
                    type(r) is api.Dropped for r in sent[room:]) and \
                    [r.payload for r in sent[room:]] == evicted
                queue.clear()
                queue.extend(pending[len(pending) - cap:])
                counts["dropped"] += len(evicted)
            if not ok:
                problems.add(f"{policy}: a send burst of {n} into {cap - room} queued "
                             f"returned {collections.Counter(type(r).__name__ for r in sent)}")
            # Receives come out oldest first: the model's head, then None when empty.
            k = min(len(got), len(queue))
            want = [queue.popleft() for _ in range(k)] + [None] * (len(got) - k)
            if got != want:
                problems.add(f"{policy}: receive burst out of order or lost messages")
            counts["received"] += k
            # Every message sent is received, refused, dropped or still queued.
            total = counts["received"] + counts["full"] + counts["dropped"] + len(queue)
            if total != counts["sent"]:
                problems.add(f"{policy}: {counts['sent']} sent but {total} accounted for")

    def layer_metrics(self, summary, tracer, ops, op_time):
        out = _runtime_layers(summary)
        reject, drop = self.counts["Reject"], self.counts["DropOldest"]
        out["runtime.channel_full_pct"] = 100.0 * reject["full"] / max(reject["sent"], 1)
        out["runtime.channel_dropped_pct"] = 100.0 * drop["dropped"] / max(drop["sent"], 1)
        return out
