"""Each demo and the README quick start run to completion in a fresh interpreter,
with nothing on stderr."""

import os
import re
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


def test_readme_quick_start_runs_cleanly():
    # the first python block of README.md: a call in it that the library no
    # longer serves fails here
    block = re.search(r"```python\n(.*?)```", (_ROOT / "README.md").read_text(), re.S).group(1)
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", block], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert "1 1 has_extensions" in lines
    assert "-1.0" in lines
