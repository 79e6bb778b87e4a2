import json

from edgeorch.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok_silent_stdout(capsys, fig7_path, fig4_path):
    for path in (fig7_path, fig4_path):
        code, out, _err = run_cli(capsys, "validate", str(path))
        assert code == 0
        assert out == ""


def test_validate_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_validate_missing_file(capsys):
    code, _out, err = run_cli(capsys, "validate", "/nonexistent.json")
    assert code == 1
    assert "error:" in err


def test_run_fig7_writes_trace_with_link_transition(capsys, tmp_path, fig7_path):
    out_dir = tmp_path / "out"
    code, _out, _err = run_cli(capsys, "run", str(fig7_path), "--out", str(out_dir))
    assert code == 0
    csv_text = (out_dir / "trace.csv").read_text()
    lines = csv_text.splitlines()
    header = lines[0].split(",")
    col = header.index("link_mbps:edge-cloud")
    values = [line.split(",")[col] for line in lines[1:]]
    # the cloud link carries nothing until the migration, then 5 Mbps
    assert "0.000" in values and "5.000" in values
    assert values.index("0.000") < values.index("5.000")
    assert (out_dir / "trace.json").exists()
    assert (out_dir / "placements.json").exists()


def test_solve_ok_json(capsys, fig7_path):
    code, out, _err = run_cli(capsys, "solve", str(fig7_path), "--at-event", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    assert doc["placement"]["assignment"]["spot_0"]["site"] == "edge"
    assert doc["policy_cost"]["traffic_cost"] == 0.0


def test_solve_infeasible_json(capsys, tmp_path, fig7_path):
    doc = json.loads(fig7_path.read_text())
    for site in doc["topology"]["sites"]:
        for gpu in site["gpus"]:
            gpu["mem_gb"] = 4.0  # nothing can host an 8 GB block
    path = tmp_path / "over.json"
    path.write_text(json.dumps(doc))
    code, out, _err = run_cli(capsys, "solve", str(path), "--at-event", "1")
    assert code == 1
    result = json.loads(out)
    assert result["status"] == "infeasible"
    assert isinstance(result["violations"], list) and result["violations"]


def test_solve_at_event_out_of_range(capsys, fig7_path):
    code, _out, err = run_cli(capsys, "solve", str(fig7_path), "--at-event", "99")
    assert code == 1
    assert "out of range" in err


def test_solve_greedy_flag(capsys, fig7_path):
    code, out, _err = run_cli(capsys, "solve", str(fig7_path),
                              "--at-event", "0", "--solver", "greedy")
    assert code == 0
    assert json.loads(out)["status"] == "ok"


def test_outputs_byte_deterministic(capsys, tmp_path, fig7_path, fig4_path):
    for path in (fig7_path, fig4_path):
        outs = []
        files = []
        for i in range(2):
            out_dir = tmp_path / f"{path.stem}_{i}"
            code, _o, _e = run_cli(capsys, "run", str(path), "--out", str(out_dir))
            assert code == 0
            files.append(tuple((out_dir / n).read_bytes()
                               for n in ("trace.csv", "trace.json", "placements.json")))
            code, out, _e = run_cli(capsys, "solve", str(path))
            assert code == 0
            outs.append(out)
        assert files[0] == files[1]
        assert outs[0] == outs[1]


def test_run_falls_back_to_greedy_past_node_budget(capsys, tmp_path, fig7_path):
    # 10 nodes cannot prove any of fig7's three decisions; each is placed greedily.
    code, _out, _err = run_cli(capsys, "run", str(fig7_path), "--max-nodes", "10",
                               "--out", str(tmp_path))
    assert code == 0
    steps = json.loads((tmp_path / "trace.json").read_text())["steps"]
    assert len(steps) == 4
    assert all(step["violations"] == [] for step in steps)


def test_bench_channel_csv(capsys):
    code, out, _err = run_cli(capsys, "bench-channel", "--capacity", "64",
                              "--payload", "32", "--messages", "5000")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == ("msgs_sent,msgs_recv,drops,p50_latency_us,"
                      "p99_latency_us,throughput_msgs_s")
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["msgs_recv"] == "5000"
    assert fields["drops"] == "0"
