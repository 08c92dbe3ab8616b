"""Import contract: scipy is loaded only by the entry points that call it.

Each check runs in a fresh interpreter, so modules imported by other tests
cannot leak into ``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import GOLDEN

_SRC = str(Path(__file__).resolve().parents[1] / "src")

_PROBE = """
import contextlib, functools, io, json, sys
import saext, saext.cli
code = None
argv, call = json.loads(sys.argv[1]), json.loads(sys.argv[2])
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = saext.cli.main(argv)
if call is not None:
    functools.reduce(getattr, call[0].split("."), saext)(*call[1])
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"code": code, "scipy": scipy}))
"""

#: Runs that need scipy: the flow integrated by DOP853, for s outside
#: {-2, 0, 1, 2} (at s = 3 the default t_end = 5 is past the run to
#: q = -inf, so the horizon is shortened).
_SCIPY_ARGV = {
    "classical": ["classical", "--s", "3", "--t-end", "1"],
}

#: Runs that must load numpy alone: every golden run, the closed flows
#: s = 0, 1, 2 (the s = -2 golden run is closed too), whose drift
#: predictions are closed forms, and the twisted-ring paradox, whose
#: stencil is applied with numpy.
_SCIPY_FREE_ARGV = {
    **GOLDEN,
    "classical-0": ["classical", "--s", "0"],
    "classical-1": ["classical", "--s", "1"],
    "classical-2": ["classical", "--s", "2"],
    "paradox-1": ["paradox", "--id", "1"],
    "paradox-4": ["paradox", "--id", "4"],
    "spectrum-well": ["spectrum", "--op", "well"],
}

#: Library calls that need numpy alone: the closed forms of the twisted
#: ring, the three-point Dirichlet Laplacian, the well levels and the
#: cosine-basis matrix, and the random commutator traces.  A dotted name is
#: looked up from ``saext``.
_SCIPY_FREE_CALLS = {
    "eigs-1025": ("discretized_momentum_eigs", [0.7, 1025, 16]),
    "eigvec-2048": ("eigenvector_commutator_demo", [0.7, 2048, 1]),
    "dirichlet-fd": ("spectral.dirichlet_fd_eigenvalues", [1.0, 400, 3]),
    "well-spectrum": ("well_spectrum", [1.0, [1, 2, 3]]),
    "cosine-matrix": ("cosine_basis_momentum_matrix", [1.0, 256]),
    "trace-commutator": ("trace_commutator_check", [64, 100]),
}


def _probe(argv, call=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argv), json.dumps(call)],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    return json.loads(proc.stdout)


def test_import_loads_no_scipy():
    assert _probe(None)["scipy"] == []


@pytest.mark.parametrize("name", sorted(_SCIPY_FREE_ARGV))
def test_scipy_free_golden_run_loads_no_scipy(name):
    out = _probe(_SCIPY_FREE_ARGV[name])
    assert out["code"] == 0
    assert out["scipy"] == []


@pytest.mark.parametrize("name", sorted(_SCIPY_FREE_CALLS))
def test_ring_library_calls_load_no_scipy(name):
    assert _probe(None, _SCIPY_FREE_CALLS[name])["scipy"] == []


@pytest.mark.parametrize("name", sorted(_SCIPY_ARGV))
def test_scipy_entry_points_still_run(name):
    out = _probe(_SCIPY_ARGV[name])
    assert out["code"] == 0
    assert "scipy" in out["scipy"]
