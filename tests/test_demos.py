"""Each demo script runs to completion against the current API.

The demos are copied first, because 01 and 07 write under ``demos/output``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import metamap

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _run_demo(name, tmp_path):
    shutil.copytree(DEMOS, tmp_path / "demos")
    src = os.path.dirname(os.path.dirname(metamap.__file__))
    return subprocess.run([sys.executable, str(tmp_path / "demos" / name)],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("0*.py")))
def test_demo_runs(name, tmp_path):
    proc = _run_demo(name, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_scenario_demo_reports_the_grid_it_ran(tmp_path):
    # the demo shrinks the file's n=3840 run to n=768 and eps (0.02, 0.01)
    proc = _run_demo("07_scenario_files.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    sweep = tmp_path / "demos" / "output" / "scenario_run" / "sweep.json"
    assert json.loads(sweep.read_text())["grid_warnings"] == [
        "grid n=768 is below 12/min(eps) = 1200; the narrowest hole spans fewer than ~4 cells"]
