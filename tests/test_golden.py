"""Byte-exact CLI output: stdout of each argv against the bytes in tests/golden/.

The other golden tests compare two runs of one tree; these compare a run with
the bytes a known-good tree wrote, so a change to how any value is written
shows here.  The manifest's ``wall_time_s`` is set to 0 before comparing.
``tests/golden/<name>.<fmt>`` holds the expected stdout of ``_ARGV[name]``
with ``--<fmt>``; ``PYTHONPATH=src python tests/test_golden.py`` rewrites
every file from the tree it imports.
"""

import re
from pathlib import Path

import pytest

from test_cli import GOLDEN, run_cli

_DIR = Path(__file__).resolve().parent / "golden"

#: The golden argv, sweeps of three more targets (one with failed points),
#: and the variants the golden argv leave out.
_ARGV = {
    **GOLDEN,
    "sweep-scatter-grid": ["sweep", "scatter", "--sweep", "k=0:2:3", "--sweep", "alpha=-1:1:3"],
    "sweep-anomaly": ["sweep", "anomaly", "--sweep", "alpha=-3:1:50"],
    "sweep-spectrum-robin": ["sweep", "spectrum", "--op", "robin", "--sweep", "alpha=-2:1:4"],
    "paradox-1": ["paradox", "--id", "1"],
    "paradox-3": ["paradox", "--id", "3"],
    "paradox-3-stacks": ["paradox", "--id", "3", "--n", "13"],
    "paradox-3-short-rows": ["paradox", "--id", "3", "--n", "5", "--grid-n", "7"],
    "paradox-4": ["paradox", "--id", "4"],
    "spectrum-well": ["spectrum", "--op", "well"],
    "spectrum-momentum": ["spectrum", "--op", "momentum"],
    "geometry-flat": ["geometry", "--metric", "flat"],
    # gamma = pi: value inf and dirichlet_limit true
    "extend-dirichlet": ["extend", "--operator", "hamiltonian", "--gamma", "3.141592653589793"],
    "classical-harmonic": ["classical", "--s", "2"],
    "classical-inverted": ["classical", "--s", "2", "--g", "-1", "--q0", "1", "--p0", "-1",
                           "--t-end", "15"],
    "classical-engine": ["classical", "--s", "3", "--t-end", "1"],
}

#: Exit codes other than 0: a sweep with a failed point exits 1.
_CODES = {"sweep-scatter-grid": 1, "sweep-anomaly": 1}

_CASES = [(name, fmt) for name in sorted(_ARGV) for fmt in ("json", "csv")]


def _stdout(name, fmt):
    code, text = run_cli([*_ARGV[name], "--" + fmt])
    assert code == _CODES.get(name, 0), text
    return re.sub(r'("wall_time_s": )[^,\n]*', r"\g<1>0", text)


@pytest.mark.parametrize("name, fmt", _CASES)
def test_stdout_is_the_golden_bytes(name, fmt):
    expected = (_DIR / f"{name}.{fmt}").read_text()
    assert _stdout(name, fmt) == expected


if __name__ == "__main__":
    _DIR.mkdir(exist_ok=True)
    for name, fmt in _CASES:
        (_DIR / f"{name}.{fmt}").write_text(_stdout(name, fmt))
