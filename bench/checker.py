"""Independent placement checker for the benchmark.

It reads the scenario document (the JSON schema, as plain dicts) and a
placement (block -> (site, gpu) and (block, knob) -> level), and does its
own tree routing and its own CPU, GPU, link, latency, tier, pin, traffic,
quality-loss and migration accounting.  It imports nothing from edgeorch,
so an error shared by the solvers, the audit and the simulator cannot hide
from it.  Subjects are named as the program's documented outputs name
them: a site id, "site/gpu", "child-parent" for a link, "src->block" for a
latency requirement and "block@site" for a forbidden tier.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

EPS = 1e-9
ALL_TIERS = ("FarEdge", "NearEdge", "Cloud")


@dataclass
class Audit:
    violations: list[tuple[str, str, float]]  # (kind, subject, amount over the limit)
    cpu_used: dict[str, float]
    gpu_mem: dict[str, float]      # "site/gpu" -> GB
    gpu_compute: dict[str, float]  # "site/gpu" -> percent
    link_mbps: dict[str, float]    # "child-parent" -> Mbps
    quality_loss: float
    traffic_cost: float
    migrations: int | None         # blocks whose site changed; None without a baseline

    def cost(self) -> tuple[float, float, int]:
        return (self.quality_loss, self.traffic_cost, self.migrations or 0)


class Model:
    """One scenario's sites, tree and apps, as the checker understands them."""

    def __init__(self, doc: dict):
        topo = doc["topology"]
        self.cpu_cores: dict[str, float] = {}
        self.reserve: dict[str, float] = {}
        self.tier: dict[str, str] = {}
        self.gpu_mem_cap: dict[str, float] = {}
        for s in topo["sites"]:
            self.cpu_cores[s["id"]] = float(s["cpu_cores"])
            self.reserve[s["id"]] = float(s.get("ai_cpu_reserve", 1.0))
            self.tier[s["id"]] = s["tier"]
            for g in s.get("gpus", []):
                self.gpu_mem_cap[f"{s['id']}/{g['id']}"] = float(g["mem_gb"])
        # child -> (parent, link key, bandwidth, latency, cost weight)
        self.up: dict[str, tuple[str, str, float, float, float]] = {}
        for l in topo.get("links", []):
            self.up[l["child"]] = (l["parent"], f"{l['child']}-{l['parent']}",
                                   float(l["bandwidth_mbps"]), float(l["latency_ms"]),
                                   float(l.get("cost_weight", 1.0)))
        self.apps: dict[str, dict] = {a["id"]: a for a in doc.get("apps", [])}
        self._blocks = {a["id"]: {b["id"]: b for b in a["blocks"]} for a in doc.get("apps", [])}
        self._paths: dict[tuple[str, str], tuple[list[str], float, float]] = {}
        self._sources = {aid: self._pinned_ancestors(a) for aid, a in self.apps.items()}

    def cpu_capacity(self, site: str) -> float:
        return self.cpu_cores[site] * self.reserve[site]

    def with_cpu_delta(self, site: str, amount: float) -> Model:
        """The model after a capacity_delta event on cpu_cores."""
        out = copy.copy(self)
        out.cpu_cores = dict(self.cpu_cores)
        out.cpu_cores[site] += amount
        return out

    def path(self, a: str, b: str) -> tuple[list[str], float, float]:
        """(link keys, summed cost weight, summed latency) on the tree path a..b."""
        key = (a, b)
        hit = self._paths.get(key)
        if hit is not None:
            return hit
        chain_a = self._chain(a)
        chain_b = self._chain(b)
        on_b = {site: i for i, site in enumerate(chain_b)}
        i = next(i for i, site in enumerate(chain_a) if site in on_b)
        j = on_b[chain_a[i]]
        links = [self.up[site] for site in chain_a[:i]] + [self.up[site] for site in chain_b[:j]]
        out = ([l[1] for l in links], sum(l[4] for l in links), sum(l[3] for l in links))
        self._paths[key] = out
        return out

    def _chain(self, site: str) -> list[str]:
        chain = [site]
        while chain[-1] in self.up:
            chain.append(self.up[chain[-1]][0])
        return chain

    def _pinned_ancestors(self, app: dict) -> dict[str, list[str]]:
        pinned = {b["id"] for b in app["blocks"] if b.get("pinned_site") is not None}
        preds: dict[str, set[str]] = {}
        for e in app.get("edges", []):
            preds.setdefault(e["to"], set()).add(e["from"])
        out = {}
        for b in app["blocks"]:
            if b.get("max_source_latency_ms") is None:
                continue
            seen: set[str] = set()
            todo = list(preds.get(b["id"], ()))
            while todo:
                x = todo.pop()
                if x not in seen:
                    seen.add(x)
                    todo.extend(preds.get(x, ()))
            out[b["id"]] = sorted(seen & pinned)
        return out

    def demand(self, block: dict, levels: dict) -> tuple[float, float, float, float, float]:
        """(cpu, gpu mem, gpu compute, rate scale, quality loss) at the chosen levels."""
        cpu = float(block.get("cpu_req", 0.0))
        mem = float(block.get("gpu_mem_gb", 0.0))
        comp = float(block.get("gpu_compute_pct", 0.0))
        rate = 1.0
        loss = 0.0
        for knob in block.get("params", []):
            lv = knob["levels"][levels.get((block["id"], knob["name"]), 0)]
            cpu *= lv.get("cpu_mult", 1.0)
            mem *= lv.get("gpu_mem_mult", 1.0)
            comp *= lv.get("gpu_compute_mult", 1.0)
            rate *= lv.get("rate_mult", 1.0)
            loss += 1.0 - lv["quality"]
        return cpu, mem, comp, rate, loss

    def audit(self, app_ids, assignment: dict, levels: dict,
              prev_assignment: dict | None = None) -> Audit:
        """Loads, costs and violations of a total placement of the given apps."""
        viol: list[tuple[str, str, float]] = []
        cpu = {sid: 0.0 for sid in self.cpu_cores}
        mem = {k: 0.0 for k in self.gpu_mem_cap}
        comp = {k: 0.0 for k in self.gpu_mem_cap}
        link = {l[1]: 0.0 for l in self.up.values()}
        rate_scale: dict[str, float] = {}
        qloss = 0.0
        traffic = 0.0
        migrations = 0 if prev_assignment is not None else None
        for aid in app_ids:
            for bid, b in self._blocks[aid].items():
                site, gpu = assignment[bid]
                c, m, g, r, loss = self.demand(b, levels)
                rate_scale[bid] = r
                qloss += loss
                if self.tier[site] not in b.get("allowed_tiers", ALL_TIERS):
                    viol.append(("TierForbidden", f"{bid}@{site}", 0.0))
                if b.get("pinned_site") is not None and site != b["pinned_site"]:
                    viol.append(("PinBroken", bid, 0.0))
                cpu[site] += c
                if gpu is not None:
                    mem[f"{site}/{gpu}"] += m
                    comp[f"{site}/{gpu}"] += g
                if prev_assignment is not None and bid in prev_assignment \
                        and prev_assignment[bid][0] != site:
                    migrations += 1
        for aid in app_ids:
            for e in self.apps[aid].get("edges", []):
                rate = float(e["rate_mbps"]) * rate_scale[e["from"]]
                keys, cost, _ = self.path(assignment[e["from"]][0], assignment[e["to"]][0])
                traffic += rate * cost
                if rate > 0:
                    for key in keys:
                        link[key] += rate
            for bid, sources in self._sources[aid].items():
                bound = float(self._blocks[aid][bid]["max_source_latency_ms"])
                for src in sources:
                    lat = self.path(assignment[src][0], assignment[bid][0])[2]
                    if lat > bound + EPS:
                        viol.append(("LatencyOver", f"{src}->{bid}", lat - bound))
        for sid, used in cpu.items():
            if used > self.cpu_capacity(sid) + EPS:
                viol.append(("CpuOver", sid, used - self.cpu_capacity(sid)))
        for key, used in mem.items():
            if used > self.gpu_mem_cap[key] + EPS:
                viol.append(("GpuMemOver", key, used - self.gpu_mem_cap[key]))
            # The schema has no GPU compute field: every device offers 100%.
            if comp[key] > 100.0 + EPS:
                viol.append(("GpuComputeOver", key, comp[key] - 100.0))
        bandwidth = {l[1]: l[2] for l in self.up.values()}
        for key, used in link.items():
            if used > bandwidth[key] + EPS:
                viol.append(("BandwidthOver", key, used - bandwidth[key]))
        return Audit(sorted(viol), cpu, mem, comp, link, qloss, traffic, migrations)

    def options(self, block: dict) -> list[tuple[str, str | None, dict]]:
        """Every (site, gpu, levels) a block could take, pins applied; for brute force."""
        sites = [block["pinned_site"]] if block.get("pinned_site") else sorted(self.cpu_cores)
        needs_gpu = (float(block.get("gpu_mem_gb", 0.0)) > 0
                     or float(block.get("gpu_compute_pct", 0.0)) > 0)
        level_sets = [{}]
        for knob in block.get("params", []):
            level_sets = [{**ls, (block["id"], knob["name"]): i}
                          for ls in level_sets for i in range(len(knob["levels"]))]
        out = []
        for sid in sites:
            gpus = sorted(k.split("/", 1)[1] for k in self.gpu_mem_cap if k.split("/", 1)[0] == sid)
            for gid in (gpus if needs_gpu else [None]):
                for ls in level_sets:
                    out.append((sid, gid, ls))
        return out


def cost_leq(a: tuple, b: tuple, tol: float = 1e-6) -> bool:
    """Lexicographic (quality loss, traffic, migrations) a <= b, floats within tol."""
    for x, y in zip(a[:2], b[:2]):
        if x < y - tol:
            return True
        if x > y + tol:
            return False
    return a[2] <= b[2]


def cost_eq(a: tuple, b: tuple, tol: float = 1e-6) -> bool:
    return abs(a[0] - b[0]) <= tol and abs(a[1] - b[1]) <= tol and a[2] == b[2]


def brute_force(model: Model, app_ids, prev_assignment: dict | None,
                limit: int) -> tuple[float, float, int] | None | bool:
    """Best cost over every placement, scored by Model.audit.

    Returns the cost triple, None if nothing is feasible, or False if the
    search space has more than `limit` placements.
    """
    blocks = [b for aid in sorted(app_ids) for b in model.apps[aid]["blocks"]]
    options = [model.options(b) for b in blocks]
    size = 1
    for opts in options:
        size *= len(opts)
    if size > limit:
        return False
    best = None

    def rec(i: int, assignment: dict, levels: dict):
        nonlocal best
        if i == len(blocks):
            audit = model.audit(app_ids, assignment, levels, prev_assignment)
            if not audit.violations and (best is None or not cost_leq(best, audit.cost())):
                best = audit.cost()
            return
        bid = blocks[i]["id"]
        for sid, gid, ls in options[i]:
            assignment[bid] = (sid, gid)
            rec(i + 1, assignment, {**levels, **ls})
        del assignment[bid]

    rec(0, {}, {})
    return best
