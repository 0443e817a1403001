"""The narrative demos run end to end against the current public API.

Demo 05 is left out: it regenerates every figure dataset.
"""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_jc_berry_phases.py",
                                  "02_vacuum_induced_phase.py",
                                  "03_beyond_rwa_eigensystem.py",
                                  "04_anticrossing_phase_jump.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
