"""Import contract: a module is loaded only by the entry points that call it.

No entry point needs scipy, and each CLI process loads only the saext
modules (and numpy, where they need it) its subcommand runs.  Each check of
what is loaded runs in a fresh interpreter, so modules imported by other
tests cannot leak into ``sys.modules``.
"""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import saext
from test_cli import GOLDEN, run_cli

_SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Runs argv through the CLI and/or a library call in a fresh interpreter:
#: its exit code, its stdout or the call's repr, and the scipy modules it
#: loaded.  A call is a name looked up from ``saext`` and its arguments, or
#: an expression in ``saext``.  With the third argument true, importing
#: scipy raises ImportError.
_PROBE = """
import contextlib, functools, io, json, sys
class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy is unimportable here")
if json.loads(sys.argv[3]):
    sys.meta_path.insert(0, NoScipy())
import saext, saext.cli
code = out = None
argv, call = json.loads(sys.argv[1]), json.loads(sys.argv[2])
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()) as text:
        code = saext.cli.main(argv)
    out = text.getvalue()
if isinstance(call, str):
    out = repr(eval(call, {"saext": saext}))
elif call is not None:
    functools.reduce(getattr, call[0].split("."), saext)(*call[1])
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"code": code, "out": out, "scipy": scipy}))
"""

#: Runs that needed scipy, before their flows came from the energy
#: integral: s outside {-2, 0, 1, 2} (at s = 3 the default t_end = 5 is past
#: the run to q = -inf, so the horizon is shortened; s = 2.5 reaches the
#: origin), and every golden run.
_SCIPY_ARGV = {
    "classical": ["classical", "--s", "3", "--t-end", "1"],
    "classical-minus-1": ["classical", "--s", "-1"],
    "classical-2.5": ["classical", "--s", "2.5"],
    "classical-4-long": ["classical", "--s", "4", "--t-end", "1e5"],
    **{"golden-" + name: argv for name, argv in GOLDEN.items()},
}

#: Library calls that needed scipy: brentq's Robin root, now closed, and a
#: drift report at s = 3, once DOP853 and Simpson's rule.
_SCIPY_CALLS = {
    "shooting": "saext.bound_state_shooting(-1.0, (-1.5, -0.5))",
    "drift-report-3": "saext.dilatation_drift_report(saext.PowerLawPotential(1.0, 3.0), "
                      "(1.0, 0.25), 1.0)",
}

#: Runs that must load numpy alone: every golden run, the closed flows
#: s = 0, 1, 2 (the s = -2 golden run is closed too), whose drift
#: predictions are closed forms, a flow from the energy integral, and the
#: twisted-ring paradox, whose stencil is applied with numpy.
_SCIPY_FREE_ARGV = {
    **GOLDEN,
    "classical-0": ["classical", "--s", "0"],
    "classical-1": ["classical", "--s", "1"],
    "classical-2": ["classical", "--s", "2"],
    "classical-3": ["classical", "--s", "3", "--t-end", "1"],
    "paradox-1": ["paradox", "--id", "1"],
    "paradox-4": ["paradox", "--id", "4"],
    "spectrum-well": ["spectrum", "--op", "well"],
}

#: Library calls that need numpy alone: the closed forms of the twisted
#: ring, the well levels and the cosine-basis matrix, and the random
#: commutator traces.  A dotted name is looked up from ``saext``.
_SCIPY_FREE_CALLS = {
    "eigs-1025": ("discretized_momentum_eigs", [0.7, 1025, 16]),
    "eigvec-2048": ("eigenvector_commutator_demo", [0.7, 2048, 1]),
    "well-spectrum": ("well_spectrum", [1.0, [1, 2, 3]]),
    "cosine-matrix": ("cosine_basis_momentum_matrix", [1.0, 256]),
    "trace-commutator": ("trace_commutator_check", [64, 100]),
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p)
    return env


def _probe(argv, call=None, block_scipy=False):
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argv), json.dumps(call),
         json.dumps(block_scipy)],
        capture_output=True, text=True, env=_env(), timeout=120, check=True)
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


def _without_wall_time(text):
    return re.sub(r'"wall_time_s": [^,\n]*', "", text)


@pytest.mark.parametrize("name", sorted(_SCIPY_ARGV))
def test_scipy_entry_points_still_run(name):
    # with scipy unimportable, as they run in this process
    out = _probe(_SCIPY_ARGV[name], block_scipy=True)
    code, text = run_cli(_SCIPY_ARGV[name])
    assert (out["code"], _without_wall_time(out["out"])) == (code, _without_wall_time(text))


@pytest.mark.parametrize("name", sorted(_SCIPY_CALLS))
def test_scipy_library_calls_still_run(name):
    expression = _SCIPY_CALLS[name]
    out = _probe(None, expression, block_scipy=True)
    assert out["out"] == repr(eval(expression, {"saext": saext}))


# -- what each subcommand loads ----------------------------------------------

#: ``python -m saext.cli`` with the arguments that follow: its exit code, the
#: saext modules it loaded, and which of numpy, numpy.polynomial, json and
#: csv are among what it loaded (json is imported after the run).
_RUN_MAIN = """
import contextlib, io, runpy, sys
sys.argv = ["saext", *sys.argv[1:]]
code = 0
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        runpy.run_module("saext.cli", run_name="__main__")
    except SystemExit as exc:
        code = exc.code
loaded = set(sys.modules)
import json
saext = sorted(m.split(".", 1)[1] for m in loaded if m.startswith("saext."))
print(json.dumps({"code": code, "saext": saext,
                  **{m: m in loaded for m in ("numpy", "numpy.polynomial", "json", "csv")}}))
"""

_SPECTRAL = ["core", "errors", "robin", "spectral"]
_DEFICIENCY = ["core", "deficiency", "errors"]
#: The Robin closed forms, which load no numpy.
_ROBIN = ["errors", "robin"]
_SWEEP_ANOMALY = ["sweep", "anomaly", "--sweep", "alpha=-4:-0.25:16"]
#: The extension maps' closed forms, which load no numpy.
_EXTENSION = ["errors", "extension"]
_SWEEP_EXTEND = ["sweep", "extend", "--operator", "hamiltonian", "--sweep", "gamma=0:3:16"]

#: (argv, exit code, the saext modules it loads, whether it loads numpy);
#: nothing else is loaded.  A run that writes a list, such as a spectrum's
#: levels or a sweep's points, loads the chunk writer _chunks.
_LOADS = {
    "version": (["--version"], 0, ["errors"], False),
    "help": (["--help"], 0, ["errors"], False),
    "usage-error": (["boundstate"], 2, ["errors"], False),
    # an --interval or --units text refused before core is loaded
    "bad-interval-order": (["deficiency", "--op", "momentum", "--interval", "1,0"], 2,
                           ["errors"], False),
    "bad-interval-text": (["deficiency", "--op", "momentum", "--interval", "x"], 2,
                          ["errors"], False),
    "bad-units-key": (["paradox", "--id", "1", "--units", "foo=1"], 2, ["errors"], False),
    "bad-units-hbar": (["paradox", "--id", "1", "--units", "hbar=-1"], 2, ["errors"], False),
    # a flag that the chosen variant does not read
    "foreign-flag-spectrum": (["spectrum", "--op", "robin", "--theta", "1"], 2, ["errors"],
                              False),
    "foreign-flag-paradox": (["paradox", "--id", "4", "--seed", "1"], 2, ["errors"], False),
    "foreign-sweep-axis": (["sweep", "spectrum", "--op", "robin", "--sweep", "theta=0:1:3"], 2,
                           ["errors"], False),
    # a flag given and also swept
    "given-and-swept": (["sweep", "scatter", "--k", "1", "--alpha", "-1", "--sweep", "k=1:2:2"],
                        2, ["errors"], False),
    # an --out that cannot be opened, here under a file
    "bad-out": (["anomaly", "--alpha", "-2", "--out", os.path.join(os.devnull, "x.json")], 2,
                ["errors"], False),
    "scatter": (GOLDEN["scatter"], 0, _ROBIN, False),
    # a CSV is written by the chunk writer
    "scatter-csv": ([*GOLDEN["scatter"], "--csv"], 0, ["_chunks", *_ROBIN], False),
    "anomaly": (GOLDEN["anomaly"], 0, _ROBIN, False),
    "anomaly-csv": ([*GOLDEN["anomaly"], "--csv"], 0, ["_chunks", *_ROBIN], False),
    "sweep-scatter": (GOLDEN["sweep"], 0, ["_chunks", *_ROBIN], False),
    "sweep-scatter-csv": ([*GOLDEN["sweep"], "--csv"], 0, ["_chunks", *_ROBIN], False),
    "sweep-anomaly": (_SWEEP_ANOMALY, 0, ["_chunks", *_ROBIN], False),
    "sweep-anomaly-csv": ([*_SWEEP_ANOMALY, "--csv"], 0, ["_chunks", *_ROBIN], False),
    "spectrum-robin": (GOLDEN["spectrum"], 0, ["_chunks", *_SPECTRAL], True),
    "boundstate": (GOLDEN["boundstate"], 0, _SPECTRAL, True),
    "deficiency": (GOLDEN["deficiency"], 0, ["_chunks", *_DEFICIENCY], True),
    "extend": (GOLDEN["extend"], 0, _EXTENSION, False),
    "extend-momentum": (["extend", "--operator", "momentum", "--gamma", "1"], 0, _EXTENSION,
                        False),
    "sweep-extend": (_SWEEP_EXTEND, 0, ["_chunks", *_EXTENSION], False),
    "sweep-extend-csv": ([*_SWEEP_EXTEND, "--csv"], 0, ["_chunks", *_EXTENSION], False),
    "paradox": (GOLDEN["paradox"], 0, ["core", "discrete", "errors"], True),
    "paradox-1": (["paradox", "--id", "1"], 0, ["core", "discrete", "errors", "robin",
                                                "spectral"], True),
    "paradox-3": (["paradox", "--id", "3"], 0, ["core", "discrete", "errors", "robin",
                                                "spectral"], True),
    "paradox-4": (["paradox", "--id", "4"], 0, ["core", "discrete", "errors"], True),
    "classical": (GOLDEN["classical"], 0, ["classical", "core", "errors"], True),
    "geometry": (GOLDEN["geometry"], 0, ["core", "errors", "geometry"], True),
}


def _run_main(argv) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_MAIN, *argv],
        capture_output=True, text=True, env=_env(), timeout=120, check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("name", sorted(_LOADS))
def test_a_cli_process_loads_only_what_its_subcommand_runs(name):
    argv, code, modules, numpy = _LOADS[name]
    out = _run_main(argv)
    assert out["code"] == code
    assert out["saext"] == modules
    assert out["numpy"] is numpy
    # --version, --help and a usage error never reach a runner or a writer;
    # the cells of these CSVs are floats alone, written by float repr, but
    # for extend's, whose variant string and flag the JSON encoder writes
    csv = "--csv" in argv
    assert out["json"] is (modules != ["errors"] and (not csv or "extension" in modules))
    assert out["csv"] is csv


def test_the_robin_closed_forms_load_neither_numpy_nor_core():
    probe = ("import json, sys, saext.robin; print(json.dumps(sorted(m for m in sys.modules "
             "if m.startswith('saext') or m == 'numpy')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_env(), timeout=120, check=True)
    assert json.loads(proc.stdout) == ["saext", "saext.errors", "saext.robin"]


def test_the_extension_maps_load_neither_numpy_nor_core():
    probe = ("import json, sys, saext.extension; print(json.dumps(sorted(m for m in "
             "sys.modules if m.startswith('saext') or m == 'numpy')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_env(), timeout=120, check=True)
    assert json.loads(proc.stdout) == ["saext", "saext.errors", "saext.extension"]


def _readme_load_table() -> list:
    """(subcommands, modules, modules of some variants only, numpy) of each README table row."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    header = "| subcommand | library modules | numpy |\n| --- | --- | --- |\n"
    assert header in text
    rows = []
    for line in text.split(header, 1)[1].splitlines():
        if not line.startswith("|"):
            break
        names, modules, numpy = (cell.strip() for cell in line.strip("|").split("|"))
        shared, _, variants = modules.partition("(")
        rows.append((re.findall(r"`([^`]+)`", names), re.findall(r"`(\w+)`", shared),
                     re.findall(r"`(\w+)`", variants), {"yes": True, "no": False}[numpy]))
    return rows


def test_the_readme_load_table_is_what_each_subcommand_loads():
    # each row against the runs of _LOADS that exit 0, and each of those in a row
    runs = [(" ".join(argv) + " ", modules, numpy) for argv, code, modules, numpy
            in _LOADS.values() if code == 0 and not argv[0].startswith("-")]
    listed = set()
    for names, shared, variants, numpy in _readme_load_table():
        for name in names:
            mine = [i for i, run in enumerate(runs) if run[0].startswith(name + " ")]
            assert mine, name
            for i in mine:
                argv, modules, loads_numpy = runs[i]
                library = sorted(set(modules) - {"errors", "_chunks"})
                assert library in (sorted(shared), sorted([*shared, *variants])), argv
                assert loads_numpy is numpy, argv
            listed.update(mine)
    assert listed == set(range(len(runs)))


def test_the_packages_robin_closed_forms_load_neither_numpy_nor_core():
    # they were homed in anomaly and spectral, which load numpy and core
    probe = ("import json, sys, saext; saext.anomaly_quadrature(-2.0); "
             "saext.reflection_coefficient(1.0, -1.0); saext.AnomalyReport; "
             "print(json.dumps(sorted(m for m in sys.modules "
             "if m.startswith('saext') or m == 'numpy')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_env(), timeout=120, check=True)
    assert json.loads(proc.stdout) == ["saext", "saext.errors", "saext.robin"]


@pytest.mark.parametrize("argv", [GOLDEN["scatter"], GOLDEN["sweep"]])
def test_a_csv_run_loads_csv(argv):
    out = _run_main([*argv, "--csv"])
    assert (out["code"], out["csv"]) == (0, True)


@pytest.mark.parametrize("argv, engine", [
    (GOLDEN["classical"], False),
    (["classical", "--s", "2", "--g", "-1", "--q0", "1", "--p0", "-1", "--t-end", "15"], False),
    # s = 3 runs the energy-integral engine, whose legs use the Gauss-Legendre rule
    (["classical", "--s", "3", "--t-end", "1"], True),
])
def test_only_the_flow_engine_loads_numpy_polynomial(argv, engine):
    out = _run_main(argv)
    assert (out["code"], out["numpy.polynomial"]) == (0, engine)


# -- the lazy package ---------------------------------------------------------

def test_each_public_name_is_its_home_modules():
    for module_name, names in saext._EXPORTS.items():
        module = importlib.import_module(f"saext.{module_name}")
        assert getattr(saext, module_name) is module
        for name in names:
            assert getattr(saext, name) is getattr(module, name)
            assert name in module.__all__
    assert saext.__all__ == sorted([*saext._EXPORTS, *saext._HOME])


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from saext import *", namespace)
    assert set(saext.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(saext, name) for name in saext.__all__)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        saext.no_such_name
    assert not hasattr(saext, "no_such_name")


def test_dir_lists_every_public_name():
    assert set(saext.__all__) <= set(dir(saext))


def test_a_bare_import_loads_no_submodule_and_no_numpy():
    probe = ("import json, sys, saext; print(json.dumps(sorted(m for m in sys.modules "
             "if m.startswith('saext') or m == 'numpy')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_env(), timeout=120, check=True)
    assert json.loads(proc.stdout) == ["saext"]
