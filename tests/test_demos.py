"""Smoke test: the quick demos run to completion in a fresh interpreter."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# 04 (training, minutes) and 05 (transition curves, ~20 s) are left out.
QUICK_DEMOS = ("01_negativity_oracle.py", "02_state_generators.py", "03_bound_entanglement.py")


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
