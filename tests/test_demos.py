"""The circuit demos run end to end, so a name they import cannot silently disappear."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script", ["03_circuit_simulator.py", "04_circuit_characterization.py"])
def test_demo_runs(script, capsys):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert capsys.readouterr().out
