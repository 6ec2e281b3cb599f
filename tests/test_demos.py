"""Demos run end to end, so a name they import cannot silently disappear."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


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
    assert capsys.readouterr().out
