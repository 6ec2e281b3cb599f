"""Demos run end to end, so a name they import cannot silently disappear."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script", ["01_environment_walkthrough.py", "03_circuit_simulator.py", "04_circuit_characterization.py"]
)
def test_demo_runs(script, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # demo 01 writes its trajectory to the working directory
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert capsys.readouterr().out
