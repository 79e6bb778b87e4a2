"""`edgeorch run` output on the golden scenarios, byte for byte.

tests/golden/<scenario>/ holds the expected trace.csv and placements.json,
so a change to any placement, load or cost fails here, not only a
difference between two runs of the same code.
"""

from pathlib import Path

import pytest

from edgeorch.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["fig4", "fig7"])
def test_run_matches_golden_files(name, tmp_path, capsys):
    scenario = Path(__file__).parent.parent / "scenarios" / f"{name}.json"
    assert main(["run", str(scenario), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for file in ("trace.csv", "placements.json"):
        assert (tmp_path / file).read_bytes() == (GOLDEN_DIR / name / file).read_bytes(), file
