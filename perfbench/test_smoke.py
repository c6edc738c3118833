"""Smoke test of the benchmark itself (about 40 s):

    python3 -m pytest -q perfbench
"""

import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def test_every_workload_emits_every_metric():
    proc = subprocess.run([sys.executable, RUN, "--smoke"], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
