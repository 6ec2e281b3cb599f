"""Demos run end to end and print the output committed under ``tests/demo_outputs``, so a name they import cannot
silently disappear and a number they print cannot silently change."""

import json
import re
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
OUTPUTS = Path(__file__).resolve().parent / "demo_outputs"


def masked(script, text):
    """``text`` with demo 04's time column, the one output that differs from run to run, replaced by a marker."""
    return re.sub(r"\d+\.\ds$", "<time>", text, flags=re.M) if script.startswith("04_") else text


@pytest.mark.parametrize(
    "script",
    [
        "01_environment_walkthrough.py",
        "02_random_baseline_and_calibration.py",
        "03_circuit_simulator.py",
        "04_circuit_characterization.py",
        "05_training_runs.py",
    ],
)
def test_demo_runs(script, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # demos 01 and 05 write their outputs to the working directory
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    expected = (OUTPUTS / script).with_suffix(".out").read_text()
    assert masked(script, capsys.readouterr().out) == masked(script, expected)


def test_demo_01_writes_the_trajectory_schema(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / "01_environment_walkthrough.py"), run_name="__main__")
    lines = (tmp_path / "trajectory_4a1s.jsonl").read_text().splitlines()
    assert len(lines) == 50  # one record per step of the 4a1s horizon
    for k, line in enumerate(lines):
        rec = json.loads(line)
        assert set(rec) == {"t", "positions", "links", "ptg", "reward"}
        assert rec["t"] == k + 1
        assert len(rec["positions"]) == 5
        assert len(rec["ptg"]) == 5
        assert 0.0 <= rec["reward"] <= 1.0
        for a, b in rec["links"]:
            assert 0 <= a < b < 5
