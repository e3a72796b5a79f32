"""Byte-level pin of the two reference CSV outputs.

`perfbench/golden.json` records the sha256 of the `cycle.csv` that each
reference command writes; any change to the numerics that moves a single
printed digit fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from molcool.cli import main

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text()
)["cycle.csv"]

COMMANDS = {
    "reproduce-fig4": ["reproduce-fig4"],
    "cycle-dwell3": ["cycle", "--init-mode", "finite-dwell", "--dwell", "3"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_reference_csv_matches_golden_hash(name, tmp_path):
    out_dir = tmp_path / name
    assert main(COMMANDS[name] + ["--out", str(out_dir)]) == 0
    digest = hashlib.sha256((out_dir / "cycle.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN[name]
