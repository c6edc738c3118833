"""Each demo script runs to completion against the current API.

The demos are copied first, because 01 and 07 write under ``demos/output``.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import metamap

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("0*.py")))
def test_demo_runs(name, tmp_path):
    shutil.copytree(DEMOS, tmp_path / "demos")
    src = os.path.dirname(os.path.dirname(metamap.__file__))
    proc = subprocess.run([sys.executable, str(tmp_path / "demos" / name)],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
