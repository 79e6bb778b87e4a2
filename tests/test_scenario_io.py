import json

import pytest

from edgeorch.scenario_io import (InvariantViolation, ScenarioError, ScenarioSyntaxError,
                                  UnknownKey, UnresolvedReference, parse_scenario, read_report,
                                  rows_to_csv, serialize_scenario,
                                  trace_rows, write_report)
from edgeorch.simulator import SimTrace, run


def test_parse_fig7_golden(fig7_path):
    s = parse_scenario(fig7_path.read_text())
    assert sorted(s.topology.sites) == ["cloud", "edge"]
    assert sorted(s.apps) == ["spotlight", "vslam"]
    kinds = [e.kind for e in s.events]
    assert kinds.count("arrival") == 2 and kinds.count("departure") == 1


def test_parse_fig4_golden(fig4_path):
    s = parse_scenario(fig4_path.read_text())
    assert sorted(s.topology.sites) == ["cloud", "far", "near"]
    assert sorted(s.apps) == ["anomaly", "slicing"]


def test_empty_document_is_syntax_error():
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario("")


def test_malformed_json_reports_position():
    with pytest.raises(ScenarioSyntaxError) as exc:
        parse_scenario('{"schema_version": 1,,}')
    assert exc.value.line == 1
    assert exc.value.col > 1


def test_unresolved_app_reference(fig7_path):
    doc = json.loads(fig7_path.read_text())
    doc["events"][0]["app"] = "undefined_app"
    with pytest.raises(UnresolvedReference):
        parse_scenario(json.dumps(doc))


def test_unresolved_pinned_site(fig7_path):
    doc = json.loads(fig7_path.read_text())
    doc["apps"][0]["blocks"][0]["pinned_site"] = "nowhere"
    with pytest.raises(UnresolvedReference):
        parse_scenario(json.dumps(doc))


def test_preferred_tier_is_accepted_and_ignored(fig7_path):
    doc = json.loads(fig7_path.read_text())
    plain = parse_scenario(json.dumps(doc))
    doc["apps"][0]["blocks"][-1]["preferred_tier"] = "Cloud"
    assert parse_scenario(json.dumps(doc)) == plain


def test_unknown_preferred_tier_rejected(fig7_path):
    doc = json.loads(fig7_path.read_text())
    doc["apps"][0]["blocks"][-1]["preferred_tier"] = "Orbit"
    with pytest.raises(InvariantViolation):
        parse_scenario(json.dumps(doc))


def test_unknown_key_rejected_in_strict_mode(fig7_path):
    doc = json.loads(fig7_path.read_text())
    doc["topology"]["sites"][0]["color"] = "blue"
    with pytest.raises(UnknownKey):
        parse_scenario(json.dumps(doc))


def test_unknown_key_warned_in_lax_mode(fig7_path, caplog):
    doc = json.loads(fig7_path.read_text())
    doc["topology"]["sites"][0]["color"] = "blue"
    s = parse_scenario(json.dumps(doc), lax=True)
    assert "color" in caplog.text
    assert sorted(s.topology.sites) == ["cloud", "edge"]


def test_unknown_keys_rejected_at_every_level(fig7_path):
    base = json.loads(fig7_path.read_text())
    spots = [
        lambda d: d.update({"extra": 1}),
        lambda d: d["topology"].update({"extra": 1}),
        lambda d: d["topology"]["links"][0].update({"extra": 1}),
        lambda d: d["apps"][0].update({"extra": 1}),
        lambda d: d["apps"][0]["blocks"][0].update({"extra": 1}),
        lambda d: d["apps"][0]["edges"][0].update({"extra": 1}),
        lambda d: d["events"][0].update({"extra": 1}),
        lambda d: d["policy"].update({"extra": 1}),
    ]
    for poke in spots:
        doc = json.loads(json.dumps(base))
        poke(doc)
        with pytest.raises(UnknownKey):
            parse_scenario(json.dumps(doc))


def test_invalid_topology_is_invariant_violation(fig7_path):
    doc = json.loads(fig7_path.read_text())
    doc["topology"]["links"] = []
    with pytest.raises(InvariantViolation):
        parse_scenario(json.dumps(doc))


def test_bad_schema_version(fig7_path):
    doc = json.loads(fig7_path.read_text())
    doc["schema_version"] = 2
    with pytest.raises(InvariantViolation):
        parse_scenario(json.dumps(doc))


def test_round_trip_golden_scenarios(fig7_path, fig4_path):
    for path in (fig7_path, fig4_path):
        s = parse_scenario(path.read_text())
        assert parse_scenario(serialize_scenario(s)) == s


def test_serialize_is_stable(fig7_scenario):
    once = serialize_scenario(fig7_scenario)
    twice = serialize_scenario(parse_scenario(once))
    assert once == twice


# -- report ---------------------------------------------------------------------

def test_empty_trace_header_only():
    text = write_report(SimTrace(steps=()))
    assert text == "time,event,action_count,migrations_total,traffic_cost,quality_loss\n"


def test_fig7_report_values(fig7_scenario):
    trace = run(fig7_scenario.topology, fig7_scenario.apps, list(fig7_scenario.events),
                opts=fig7_scenario.policy)
    text = write_report(trace)
    columns, rows = read_report(text)
    assert columns[:6] == ["time", "event", "action_count", "migrations_total",
                           "traffic_cost", "quality_loss"]
    case2 = next(r for r in rows if r["event"] == "arrival:vslam")
    assert case2["link_mbps:edge-cloud"] == "5.000"
    assert case2["gpu_mem:edge/l4"] == "24.000"
    case1 = next(r for r in rows if r["event"] == "arrival:spotlight")
    assert case1["gpu_compute:edge/l4"] == "40.000"
    assert case1["link_mbps:edge-cloud"] == "0.000"


def test_report_round_trip_idempotent(fig7_scenario):
    trace = run(fig7_scenario.topology, fig7_scenario.apps, list(fig7_scenario.events),
                opts=fig7_scenario.policy)
    text = write_report(trace)
    columns, rows = read_report(text)
    assert rows_to_csv(columns, rows) == text


def test_three_decimal_formatting(fig7_scenario):
    trace = run(fig7_scenario.topology, fig7_scenario.apps, list(fig7_scenario.events),
                opts=fig7_scenario.policy)
    for row in trace_rows(trace):
        for col, value in row.items():
            if col in ("event", "action_count", "migrations_total"):
                continue
            whole, frac = value.split(".")
            assert len(frac) == 3


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_numbers_are_refused(fig4_path, token):
    text = fig4_path.read_text()
    root_cores = '"cpu_cores": 64.0'
    assert text.count(root_cores) == 1
    with pytest.raises(ScenarioError, match=token):
        parse_scenario(text.replace(root_cores, f'"cpu_cores": {token}'))


def fig4_with_every_number(fig4_path):
    """fig4 with every optional numeric field of the schema filled in."""
    doc = json.loads(fig4_path.read_text())
    collect = doc["apps"][0]["blocks"][1]
    assert collect["id"] == "collect"
    collect.update(gpu_mem_gb=0.0, gpu_compute_pct=0.0, max_source_latency_ms=50.0, params=[
        {"name": "k", "levels": [{"quality": 1.0, "cpu_mult": 1.0, "gpu_mem_mult": 1.0,
                                  "gpu_compute_mult": 1.0, "rate_mult": 1.0}]}])
    doc["events"].append({"at": 30.0, "kind": "capacity_delta", "site": "cloud",
                          "resource": "cpu_cores", "amount": -1.0})
    doc["policy"].update(max_nodes=1000, max_evictions=4)
    parse_scenario(json.dumps(doc))
    return doc


def numeric_fields(obj, path="$"):
    """(JSON path, holder, key) of every number in a parsed document."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        here = f"{path}.{key}" if isinstance(obj, dict) else f"{path}[{key}]"
        if type(value) in (int, float):
            yield here, obj, key
        elif isinstance(value, (dict, list)):
            yield from numeric_fields(value, here)


@pytest.mark.parametrize("bad", ["nan", "3", True, None, [], 10**400], ids=repr)
def test_every_number_is_read_as_a_finite_number(fig4_path, bad):
    doc = fig4_with_every_number(fig4_path)
    fields = list(numeric_fields(doc))
    assert len(fields) > 30
    for path, holder, key in fields:
        good = holder[key]
        holder[key] = bad
        if bad is None and key == "max_source_latency_ms":  # null means unbounded
            apps = parse_scenario(json.dumps(doc)).apps.values()
            block = next(b for app in apps for b in app.blocks if b.id == holder["id"])
            assert block.max_source_latency_ms is None
        else:
            with pytest.raises(InvariantViolation) as exc:
                parse_scenario(json.dumps(doc))
            assert exc.value.path == path
        holder[key] = good
