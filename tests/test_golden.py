"""`edgeorch run` output on the golden scenarios, byte for byte.

tests/golden/<scenario>/ holds the expected trace.csv and placements.json,
so a change to any placement, load or cost fails here, not only a
difference between two runs of the same code.
"""

from pathlib import Path

import pytest

from edgeorch.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"

SCENARIOS = {
    "fig4": SCENARIO_DIR / "fig4.json",
    "fig7": SCENARIO_DIR / "fig7.json",
    # 62 events and many exact decisions against a previous placement:
    # bench/gen.py's online_exact(random.Random(1), rounds=10), rendered
    # with gen.render and kept here so the test needs no benchmark code.
    "exact60": GOLDEN_DIR / "exact60" / "scenario.json",
}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_run_matches_golden_files(name, tmp_path, capsys):
    assert main(["run", str(SCENARIOS[name]), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for file in ("trace.csv", "placements.json"):
        assert (tmp_path / file).read_bytes() == (GOLDEN_DIR / name / file).read_bytes(), file
