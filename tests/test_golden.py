"""`edgeorch run` output on the golden scenarios, byte for byte.

tests/golden/<scenario>/ holds the expected trace.csv and placements.json,
so a change to any placement, load or cost fails here, not only a
difference between two runs of the same code.  Where placements.json is
too large to keep, the SHA-256 of its bytes stands in for it.
"""

import hashlib
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
    # 67 greedy events on 29 sites with 40 live apps (200 blocks):
    # bench/gen.py's online_greedy(random.Random(1), rounds=3), rendered
    # with gen.render, less the departures of the always-rejected
    # "oversized" app.
    "greedy67": GOLDEN_DIR / "greedy67" / "scenario.json",
}

# placements.json digests for the cases that do not keep the file (849 KB).
PLACEMENTS_SHA256 = {
    "greedy67": "9998575dfc85e479cda92a3aad43daf4cab466fedd84553e9a5b5ed73605abaa",
}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_run_matches_golden_files(name, tmp_path, capsys):
    assert main(["run", str(SCENARIOS[name]), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "trace.csv").read_bytes() == (GOLDEN_DIR / name / "trace.csv").read_bytes()
    placements = (tmp_path / "placements.json").read_bytes()
    if name in PLACEMENTS_SHA256:
        assert hashlib.sha256(placements).hexdigest() == PLACEMENTS_SHA256[name]
    else:
        assert placements == (GOLDEN_DIR / name / "placements.json").read_bytes()
