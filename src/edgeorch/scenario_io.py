"""Scenario file parsing/serialization and the CSV trace report.

Scenario files are UTF-8 JSON with a fixed schema (schema_version 1).
Strict mode rejects unknown keys; --lax downgrades them to warnings.
The report CSV has one row per simulation step with fixed columns:
time,event,action_count,migrations_total,traffic_cost,quality_loss,
then cpu_util:<site>, gpu_mem:<site>/<gpu>, gpu_compute:<site>/<gpu>
and link_mbps:<child>-<parent>, all floats with 3 decimals.
"""

from __future__ import annotations

import io
import json
import logging
from dataclasses import dataclass, field

from .appgraph import AppGraph, Block, FlowEdge, ParamKnob, ParamLevel, validate_graph
from .placer import SolverOpts
from .simulator import Event, SimTrace
from .topology import TIERS, GpuDevice, Link, Site, Topology, TopologyError, build_topology

log = logging.getLogger(__name__)


class ScenarioError(ValueError):
    pass


class ScenarioSyntaxError(ScenarioError):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class UnknownKey(ScenarioError):
    pass


class UnresolvedReference(ScenarioError):
    pass


class InvariantViolation(ScenarioError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class Scenario:
    topology: Topology
    apps: dict[str, AppGraph]
    events: tuple[Event, ...]
    policy: SolverOpts = field(default_factory=SolverOpts)


_SITE_KEYS = {"id", "tier", "cpu_cores", "ai_cpu_reserve", "gpus"}
_GPU_KEYS = {"id", "mem_gb"}
_LINK_KEYS = {"child", "parent", "bandwidth_mbps", "latency_ms", "cost_weight"}
_APP_KEYS = {"id", "blocks", "edges"}
_BLOCK_KEYS = {"id", "cpu_req", "gpu_mem_gb", "gpu_compute_pct", "max_source_latency_ms",
               "allowed_tiers", "preferred_tier", "pinned_site", "params"}
_KNOB_KEYS = {"name", "levels"}
_LEVEL_KEYS = {"quality", "cpu_mult", "gpu_mem_mult", "gpu_compute_mult", "rate_mult"}
_EDGE_KEYS = {"from", "to", "rate_mbps"}
_EVENT_KEYS = {"at", "kind", "app", "site", "resource", "amount"}
_POLICY_KEYS = {"solver", "max_nodes", "max_evictions"}
_TOP_KEYS = {"schema_version", "topology", "apps", "events", "policy"}
_TOPO_KEYS = {"sites", "links"}


def _check_keys(obj: dict, allowed: set[str], path: str, lax: bool) -> None:
    for key in obj:
        if key not in allowed:
            if lax:
                log.warning("ignoring unknown key %s.%s", path, key)
            else:
                raise UnknownKey(f"{path}.{key}")


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise InvariantViolation(path, f"missing required key {key!r}")
    return obj[key]


def _reject_constant(token: str):
    raise ScenarioError(f"{token} is not a finite number; scenarios may not hold it")


def parse_scenario(text: str, lax: bool = False) -> Scenario:
    """Parse and validate a scenario document."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ScenarioSyntaxError(exc.lineno, exc.colno, exc.msg) from None
    if not isinstance(doc, dict):
        raise InvariantViolation("$", "top-level value must be an object")
    _check_keys(doc, _TOP_KEYS, "$", lax)
    version = _require(doc, "schema_version", "$")
    if version != 1:
        raise InvariantViolation("$.schema_version", f"unsupported version {version!r}")

    topo_obj = _require(doc, "topology", "$")
    _check_keys(topo_obj, _TOPO_KEYS, "$.topology", lax)
    sites = []
    for i, s in enumerate(_require(topo_obj, "sites", "$.topology")):
        path = f"$.topology.sites[{i}]"
        _check_keys(s, _SITE_KEYS, path, lax)
        gpus = []
        for j, g in enumerate(s.get("gpus", [])):
            _check_keys(g, _GPU_KEYS, f"{path}.gpus[{j}]", lax)
            gpus.append(GpuDevice(id=_require(g, "id", path), mem_gb=float(_require(g, "mem_gb", path))))
        tier = _require(s, "tier", path)
        if tier not in TIERS:
            raise InvariantViolation(path, f"unknown tier {tier!r}")
        sites.append(Site(
            id=_require(s, "id", path),
            tier=tier,
            cpu_cores=float(_require(s, "cpu_cores", path)),
            gpus=tuple(gpus),
            ai_cpu_reserve=float(s.get("ai_cpu_reserve", 1.0)),
        ))
    links = []
    for i, l in enumerate(topo_obj.get("links", [])):
        path = f"$.topology.links[{i}]"
        _check_keys(l, _LINK_KEYS, path, lax)
        links.append(Link(
            child=_require(l, "child", path),
            parent=_require(l, "parent", path),
            bandwidth_mbps=float(_require(l, "bandwidth_mbps", path)),
            latency_ms=float(_require(l, "latency_ms", path)),
            cost_weight=float(l.get("cost_weight", 1.0)),
        ))
    try:
        topology = build_topology(sites, links)
    except TopologyError as exc:
        raise InvariantViolation("$.topology", str(exc)) from None

    apps: dict[str, AppGraph] = {}
    for i, a in enumerate(doc.get("apps", [])):
        path = f"$.apps[{i}]"
        _check_keys(a, _APP_KEYS, path, lax)
        app_id = _require(a, "id", path)
        if app_id in apps:
            raise InvariantViolation(path, f"duplicate app id {app_id!r}")
        blocks = []
        for j, b in enumerate(_require(a, "blocks", path)):
            bpath = f"{path}.blocks[{j}]"
            _check_keys(b, _BLOCK_KEYS, bpath, lax)
            knobs = []
            for k, knob in enumerate(b.get("params", [])):
                kpath = f"{bpath}.params[{k}]"
                _check_keys(knob, _KNOB_KEYS, kpath, lax)
                levels = []
                for m, lv in enumerate(_require(knob, "levels", kpath)):
                    _check_keys(lv, _LEVEL_KEYS, f"{kpath}.levels[{m}]", lax)
                    levels.append(ParamLevel(
                        quality=float(_require(lv, "quality", kpath)),
                        cpu_mult=float(lv.get("cpu_mult", 1.0)),
                        gpu_mem_mult=float(lv.get("gpu_mem_mult", 1.0)),
                        gpu_compute_mult=float(lv.get("gpu_compute_mult", 1.0)),
                        rate_mult=float(lv.get("rate_mult", 1.0)),
                    ))
                knobs.append(ParamKnob(name=_require(knob, "name", kpath), levels=tuple(levels)))
            allowed = b.get("allowed_tiers")
            if allowed is not None:
                for t in allowed:
                    if t not in TIERS:
                        raise InvariantViolation(bpath, f"unknown tier {t!r} in allowed_tiers")
            # Scenario files may set it (fig4.json does); no solver reads the value.
            preferred = b.get("preferred_tier")
            if preferred is not None and preferred not in TIERS:
                raise InvariantViolation(bpath, f"unknown preferred_tier {preferred!r}")
            pinned = b.get("pinned_site")
            if pinned is not None and pinned not in topology.sites:
                raise UnresolvedReference(f"{bpath}.pinned_site: {pinned!r}")
            lat = b.get("max_source_latency_ms")
            blocks.append(Block(
                id=_require(b, "id", bpath),
                cpu_req=float(b.get("cpu_req", 0.0)),
                gpu_mem_gb=float(b.get("gpu_mem_gb", 0.0)),
                gpu_compute_pct=float(b.get("gpu_compute_pct", 0.0)),
                max_source_latency_ms=None if lat is None else float(lat),
                allowed_tiers=TIERS if allowed is None else tuple(allowed),
                pinned_site=pinned,
                params=tuple(knobs),
            ))
        edges = []
        for j, e in enumerate(a.get("edges", [])):
            epath = f"{path}.edges[{j}]"
            _check_keys(e, _EDGE_KEYS, epath, lax)
            edges.append(FlowEdge(
                src=_require(e, "from", epath),
                dst=_require(e, "to", epath),
                rate_mbps=float(_require(e, "rate_mbps", epath)),
            ))
        app = AppGraph(id=app_id, blocks=tuple(blocks), edges=tuple(edges))
        violations = validate_graph(app)
        if violations:
            v = violations[0]
            raise InvariantViolation(path, f"{v.kind}: {v.detail}")
        for b in app.blocks:
            if b.pinned_site is not None:
                tier = topology.site(b.pinned_site).tier
                if tier not in b.allowed_tiers:
                    raise InvariantViolation(path, f"block {b.id}: pinned site tier {tier} not allowed")
        apps[app_id] = app

    events = []
    for i, ev in enumerate(doc.get("events", [])):
        path = f"$.events[{i}]"
        _check_keys(ev, _EVENT_KEYS, path, lax)
        kind = _require(ev, "kind", path)
        at = float(_require(ev, "at", path))
        if at < 0:
            raise InvariantViolation(path, "event time must be >= 0")
        if kind in ("arrival", "departure"):
            app_id = _require(ev, "app", path)
            if app_id not in apps:
                raise UnresolvedReference(f"{path}.app: {app_id!r}")
            events.append(Event(at=at, kind=kind, app=app_id, seq=i))
        elif kind == "capacity_delta":
            site_id = _require(ev, "site", path)
            if site_id not in topology.sites:
                raise UnresolvedReference(f"{path}.site: {site_id!r}")
            events.append(Event(at=at, kind=kind, site=site_id,
                                resource=_require(ev, "resource", path),
                                amount=float(_require(ev, "amount", path)), seq=i))
        else:
            raise InvariantViolation(path, f"unknown event kind {kind!r}")

    policy_obj = doc.get("policy", {})
    _check_keys(policy_obj, _POLICY_KEYS, "$.policy", lax)
    defaults = SolverOpts()
    policy = SolverOpts(
        solver=policy_obj.get("solver", defaults.solver),
        max_nodes=int(policy_obj.get("max_nodes", defaults.max_nodes)),
        max_evictions=int(policy_obj.get("max_evictions", defaults.max_evictions)),
    )
    if policy.solver not in ("exact", "greedy"):
        raise InvariantViolation("$.policy.solver", f"unknown solver {policy.solver!r}")

    return Scenario(topology=topology, apps=apps, events=tuple(events), policy=policy)


def serialize_scenario(s: Scenario) -> str:
    """Canonical JSON form; parse_scenario(serialize_scenario(s)) == s."""
    doc = {
        "schema_version": 1,
        "topology": {
            "sites": [
                {
                    "id": site.id,
                    "tier": site.tier,
                    "cpu_cores": site.cpu_cores,
                    "ai_cpu_reserve": site.ai_cpu_reserve,
                    "gpus": [{"id": g.id, "mem_gb": g.mem_gb} for g in site.gpus],
                }
                for site in (s.topology.sites[sid] for sid in sorted(s.topology.sites))
            ],
            "links": [
                {
                    "child": l.child,
                    "parent": l.parent,
                    "bandwidth_mbps": l.bandwidth_mbps,
                    "latency_ms": l.latency_ms,
                    "cost_weight": l.cost_weight,
                }
                for l in s.topology.links
            ],
        },
        "apps": [
            {
                "id": app.id,
                "blocks": [
                    {
                        "id": b.id,
                        "cpu_req": b.cpu_req,
                        "gpu_mem_gb": b.gpu_mem_gb,
                        "gpu_compute_pct": b.gpu_compute_pct,
                        "max_source_latency_ms": b.max_source_latency_ms,
                        "allowed_tiers": list(b.allowed_tiers),
                        "pinned_site": b.pinned_site,
                        "params": [
                            {
                                "name": k.name,
                                "levels": [
                                    {
                                        "quality": lv.quality,
                                        "cpu_mult": lv.cpu_mult,
                                        "gpu_mem_mult": lv.gpu_mem_mult,
                                        "gpu_compute_mult": lv.gpu_compute_mult,
                                        "rate_mult": lv.rate_mult,
                                    }
                                    for lv in k.levels
                                ],
                            }
                            for k in b.params
                        ],
                    }
                    for b in app.blocks
                ],
                "edges": [
                    {"from": e.src, "to": e.dst, "rate_mbps": e.rate_mbps}
                    for e in app.edges
                ],
            }
            for app in (s.apps[aid] for aid in sorted(s.apps))
        ],
        "events": [
            (
                {"at": ev.at, "kind": ev.kind, "app": ev.app}
                if ev.kind in ("arrival", "departure")
                else {"at": ev.at, "kind": ev.kind, "site": ev.site,
                      "resource": ev.resource, "amount": ev.amount}
            )
            for ev in s.events
        ],
        "policy": {
            "solver": s.policy.solver,
            "max_nodes": s.policy.max_nodes,
            "max_evictions": s.policy.max_evictions,
        },
    }
    return json.dumps(doc, indent=2) + "\n"


# -- CSV report ----------------------------------------------------------------

def report_columns(trace: SimTrace) -> list[str]:
    cols = ["time", "event", "action_count", "migrations_total", "traffic_cost", "quality_loss"]
    if not trace.steps:
        return cols
    m = trace.steps[0].metrics
    cols += [f"cpu_util:{sid}" for sid in sorted(m.cpu_capacity)]
    for key in sorted(m.gpu_mem_capacity):
        cols.append(f"gpu_mem:{key}")
    for key in sorted(m.gpu_compute_capacity):
        cols.append(f"gpu_compute:{key}")
    cols += [f"link_mbps:{key}" for key in sorted(m.link_bandwidth_mbps)]
    return cols


def trace_rows(trace: SimTrace) -> list[dict[str, str]]:
    rows = []
    for s in trace.steps:
        m = s.metrics
        row = {
            "time": f"{s.time:.3f}",
            "event": s.event,
            "action_count": str(len(s.actions)),
            "migrations_total": str(m.migrations_total),
            "traffic_cost": f"{m.traffic_cost:.3f}",
            "quality_loss": f"{m.quality_loss:.3f}",
        }
        for sid in sorted(m.cpu_capacity):
            cap = m.cpu_capacity[sid]
            util = m.cpu_used[sid] / cap if cap > 0 else 0.0
            row[f"cpu_util:{sid}"] = f"{util:.3f}"
        for key in sorted(m.gpu_mem_capacity):
            row[f"gpu_mem:{key}"] = f"{m.gpu_mem_used[key]:.3f}"
        for key in sorted(m.gpu_compute_capacity):
            row[f"gpu_compute:{key}"] = f"{m.gpu_compute_used[key]:.3f}"
        for key in sorted(m.link_bandwidth_mbps):
            row[f"link_mbps:{key}"] = f"{m.link_traffic_mbps[key]:.3f}"
        rows.append(row)
    return rows


def rows_to_csv(columns: list[str], rows: list[dict[str, str]]) -> str:
    out = io.StringIO()
    out.write(",".join(columns) + "\n")
    for row in rows:
        out.write(",".join(row[c] for c in columns) + "\n")
    return out.getvalue()


def write_report(trace: SimTrace) -> str:
    """Render the trace as the documented CSV report."""
    return rows_to_csv(report_columns(trace), trace_rows(trace))


def read_report(text: str) -> tuple[list[str], list[dict[str, str]]]:
    """Parse a report CSV back into (columns, rows of raw strings)."""
    lines = [l for l in text.split("\n") if l]
    if not lines:
        return [], []
    columns = lines[0].split(",")
    rows = [dict(zip(columns, line.split(","))) for line in lines[1:]]
    return columns, rows


def trace_to_json_obj(trace: SimTrace) -> dict:
    return {
        "steps": [
            {
                "time": s.time,
                "event": s.event,
                "actions": [a.to_json_obj() for a in s.actions],
                "violations": [
                    {"kind": v.kind, "subject": v.subject, "amount": v.amount}
                    for v in s.violations
                ],
                "metrics": {
                    "cpu_used": s.metrics.cpu_used,
                    "cpu_capacity": s.metrics.cpu_capacity,
                    "gpu_mem_used": s.metrics.gpu_mem_used,
                    "gpu_mem_capacity": s.metrics.gpu_mem_capacity,
                    "gpu_compute_used": s.metrics.gpu_compute_used,
                    "gpu_compute_capacity": s.metrics.gpu_compute_capacity,
                    "link_traffic_mbps": s.metrics.link_traffic_mbps,
                    "link_bandwidth_mbps": s.metrics.link_bandwidth_mbps,
                    "migrations_total": s.metrics.migrations_total,
                    "quality_loss": s.metrics.quality_loss,
                    "traffic_cost": s.metrics.traffic_cost,
                },
            }
            for s in trace.steps
        ]
    }


def placements_to_json_obj(trace: SimTrace) -> list[dict]:
    return [
        {"time": s.time, "event": s.event, "placement": s.placement.to_json_obj()}
        for s in trace.steps
    ]
