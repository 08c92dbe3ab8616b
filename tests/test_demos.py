"""Each demo runs to completion in a fresh interpreter, with nothing on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(p.name for p in (_ROOT / "demos").glob("*.py")))
def test_demo_runs_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(_ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
