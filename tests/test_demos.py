"""The narrative demos and the README's library quickstart run end to end
against the current public API.

Demo 05 is left out: it regenerates every figure dataset.
"""

import pathlib
import re
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("name", ["01_jc_berry_phases.py",
                                  "02_vacuum_induced_phase.py",
                                  "03_beyond_rwa_eigensystem.py",
                                  "04_anticrossing_phase_jump.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quickstart_runs():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md quickstart", "exec"), {})
