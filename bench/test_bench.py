"""Self-tests of the benchmark: the checker against hand numbers, input
determinism, every workload at a small size with its checks on, and the
refusal to run without the program's sources.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

run.load_program()


@pytest.fixture(scope="module")
def fig7():
    return json.loads((ROOT / "scenarios" / "fig7.json").read_text())


def fig7_placement(vslam_at, spot_at):
    """Sources at the edge; vSLAM and SpotLight blocks on the given (site, gpu)."""
    assignment = {}
    for i in range(3):
        assignment[f"cam_src_{i}"] = ("edge", None)
        assignment[f"vslam_{i}"] = vslam_at
    for i in range(10):
        assignment[f"cell_src_{i}"] = ("edge", None)
        assignment[f"spot_{i}"] = spot_at
    return assignment


def test_checker_fig7_after_vslam(fig7):
    model = checker.Model(fig7)
    audit = model.audit(["spotlight", "vslam"],
                        fig7_placement(("edge", "l4"), ("cloud", "a100")), {})
    assert audit.violations == []
    assert audit.link_mbps["edge-cloud"] == pytest.approx(5.0)
    assert audit.gpu_mem["edge/l4"] == pytest.approx(24.0)
    assert audit.traffic_cost == pytest.approx(5.0)


def test_checker_fig7_vslam_in_cloud_costs_120(fig7):
    model = checker.Model(fig7)
    before = fig7_placement(("edge", "l4"), ("edge", "l4"))
    audit = model.audit(["spotlight", "vslam"],
                        fig7_placement(("cloud", "a100"), ("edge", "l4")), {}, before)
    assert audit.violations == []
    assert audit.traffic_cost == pytest.approx(120.0)
    assert audit.migrations == 3


def test_checker_flags_overloaded_placement(fig7):
    model = checker.Model(fig7)
    audit = model.audit(["spotlight", "vslam"],
                        fig7_placement(("edge", "l4"), ("edge", "l4")), {})
    # 3 x 8 GB of vSLAM plus 10 x 0.5 GB of SpotLight on a 24 GB device.
    assert [(k, s) for k, s, _ in audit.violations] == [("GpuMemOver", "edge/l4")]
    assert audit.violations[0][2] == pytest.approx(5.0)


def test_checker_routes_through_the_common_ancestor():
    doc = gen.online_exact(random.Random(3), rounds=1)[0]
    model = checker.Model(doc)
    keys, cost, latency = model.path("f0_0", "f1_1")
    assert keys == ["f0_0-n0", "n0-cloud", "f1_1-n1", "n1-cloud"]
    assert cost == pytest.approx(1 + 2 + 1 + 2)
    assert model.path("f0_0", "f0_0")[0] == []


@pytest.mark.parametrize("make", [
    lambda rng: gen.online_exact(rng, rounds=5)[0],
    lambda rng: gen.online_greedy(rng, rounds=5)[0],
    gen.whatif_base,
])
def test_same_seed_same_text_other_seed_other_text(make):
    a = gen.render(make(random.Random(11)))
    b = gen.render(make(random.Random(11)))
    c = gen.render(make(random.Random(12)))
    assert a == b
    assert a != c


def test_runtime_streams_follow_the_seed():
    assert gen.admission_initial(random.Random(5)) == gen.admission_initial(random.Random(5))
    assert gen.admission_initial(random.Random(5)) != gen.admission_initial(random.Random(6))
    assert gen.channel_bursts(random.Random(5)) == gen.channel_bursts(random.Random(5))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_runs_with_checks(workload):
    result = run.run(workload, seed=4, seconds=0.3, trace=False)
    assert result["_problems"] == []
    assert result["correct"]
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    if workload == "online_greedy":
        # One failed departure of the rejected oversized app per round.
        assert result["failed"] * gen.GREEDY_ROUND == result["attempted"]
    else:
        assert result["failed"] == 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    result = run.run(workload, seed=4, seconds=0.6, trace=True)
    assert result["correct"], result["_problems"]
    assert set(result["metrics"]) == set(run.PER_LAYER)


def test_benchmark_json_matches_the_command():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "online_exact",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
