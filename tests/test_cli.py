"""End-to-end checks of the command-line interface."""

import argparse
import ast
import contextlib
import copy
import csv
import gc
import importlib
import io
import itertools
import json
import marshal
import math
import operator
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from saext import cli
from saext.core import GridFunction
from saext.errors import IndeterminateError, SaextError
from saext.geometry import commutator_preservation_check, radial_symmetry_defect
from saext.spectral import reflection_coefficient, reflection_phase
from test_acceptance import _GOLDEN as GOLDEN
from test_classical import _mp_singular_time


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def run_json(argv):
    code, text = run_cli(argv)
    assert code == 0, text
    return json.loads(text)


def without_wall_time(text):
    payload = json.loads(text)
    payload["manifest"].pop("wall_time_s")
    return json.dumps(payload, sort_keys=True)


# -- determinism and schemas ------------------------------------------------

@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_repeated_runs_are_byte_identical_modulo_wall_time(name):
    first = run_cli(GOLDEN[name])
    second = run_cli(GOLDEN[name])
    assert first[0] == second[0] == 0
    assert without_wall_time(first[1]) == without_wall_time(second[1])


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_validate_against_shipped_schemas(name):
    code, text = run_cli(GOLDEN[name])
    assert code == 0
    jsonschema.validate(json.loads(text), cli.load_schema(name))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_every_schema_holds_the_manifest_to_its_fields(name):
    # the manifest block is kept once, in manifest.json, and load_schema puts
    # it in each schema
    payload = run_json(GOLDEN[name])
    schema = cli.load_schema(name)
    manifest = payload["manifest"]
    for broken in ({key: manifest[key] for key in manifest if key != "version"},
                   {**manifest, "extra": 1}, {**manifest, "wall_time_s": "0"}):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**payload, "manifest": broken}, schema)
    assert "manifest" not in cli.load_schema("error")["properties"]


def test_error_payload_validates_and_exits_one():
    code, text = run_cli(["anomaly", "--alpha", "1"])
    assert code == 1
    payload = json.loads(text)
    jsonschema.validate(payload, cli.load_schema("error"))
    assert payload["error"]["code"] == "no-bound-state"


# -- individual subcommands -------------------------------------------------

def test_deficiency_catalog_via_cli():
    cases = [
        (["--op", "momentum", "--interval", "0,1"], 1, 1),
        (["--op", "momentum", "--interval", "0,inf"], 1, 0),
        (["--op", "momentum", "--interval=-inf,inf"], 0, 0),
        (["--op", "hamiltonian"], 1, 1),
        (["--op", "time"], 1, 0),
    ]
    for extra, n_plus, n_minus in cases:
        result = run_json(["deficiency"] + extra)["result"]
        assert (result["n_plus"], result["n_minus"]) == (n_plus, n_minus)
        assert result["adjoint_residual"] <= 1e-4


@pytest.mark.parametrize("interval", ["0,5", "-inf,inf"])
def test_deficiency_time_refuses_an_interval_that_is_not_a_half_line(interval):
    # it read the left end alone and reported the half line 0,inf
    code, text = run_cli(["deficiency", "--op", "time", f"--interval={interval}"])
    assert code == 1
    payload = json.loads(text)
    jsonschema.validate(payload, cli.load_schema("error"))
    assert payload["error"]["code"] == "precondition"
    assert "half line E0,inf" in payload["error"]["message"]
    result = run_json(["deficiency", "--op", "time", "--interval", "2,inf"])["result"]
    assert result["interval"] == {"kind": "half_line", "a": 2.0, "b": "inf"}


def test_extend_dirichlet_limit_serializes_inf():
    result = run_json(["extend", "--operator", "hamiltonian",
                       "--gamma", repr(math.pi)])["result"]
    assert result["bc_variant"] == "robin"
    assert result["value"] == "inf"
    assert result["dirichlet_limit"] is True


def test_extend_momentum_gives_phase():
    result = run_json(["extend", "--operator", "momentum",
                       "--gamma", "0.7"])["result"]
    assert result["bc_variant"] == "phase"
    assert 0.0 <= result["value"] < 2 * math.pi


def test_spectrum_momentum_levels():
    payload = run_json(["spectrum", "--op", "momentum", "--theta", "0.5",
                        "--n-min", "-2", "--n-max", "2"])
    levels = payload["result"]["discrete"]
    assert [lv["n"] for lv in levels] == [-2, -1, 0, 1, 2]
    for lv in levels:
        assert lv["value"] == pytest.approx(2 * math.pi * lv["n"] + 0.5)
    assert payload["result"]["continuous"] is None


def test_spectrum_robin_has_phase_samples():
    result = run_json(["spectrum", "--op", "robin", "--alpha", "-1"])["result"]
    assert result["discrete"][0]["value"] == pytest.approx(-1.0)
    samples = result["continuous"]["phase_samples"]
    assert len(samples) == 25
    assert result["continuous"]["threshold"] == 0.0


def test_boundstate_present_and_absent():
    present = run_json(["boundstate", "--alpha", "-1"])["result"]
    assert present["E"] == pytest.approx(-1.0)
    assert present["bound_state"]["norm"] == pytest.approx(1.0, abs=1e-8)
    absent = run_json(["boundstate", "--alpha", "1"])["result"]
    assert absent["bound_state"] is None
    assert absent["E"] is None
    assert absent["reason"] == "alpha >= 0"


def test_scatter_neumann_and_indeterminate():
    result = run_json(["scatter", "--k", "3", "--alpha", "0"])["result"]
    assert result["R"] == {"re": 1.0, "im": 0.0}
    assert result["modulus"] == 1.0
    code, text = run_cli(["scatter", "--k", "0", "--alpha", "0"])
    assert code == 1
    assert json.loads(text)["error"]["code"] == "indeterminate"


def test_anomaly_reproduces_energy():
    result = run_json(["anomaly", "--alpha", "-2", "--t", "1.5"])["result"]
    assert result["anomaly"] == pytest.approx(-4.0, abs=1e-6)
    assert result["residual"] <= 1e-6


def test_paradox_trace_stays_zero():
    result = run_json(["paradox", "--id", "2", "--n", "8"])["result"]
    assert result["quantities"]["max_scaled_trace"]["value"] <= 1e-10


def test_paradox_hermiticity_meets_its_tolerance_at_large_n():
    result = run_json(["paradox", "--id", "4", "--n", "130"])["result"]
    for name in ("defect_even_sublattice_max", "defect_odd_sublattice_max_deviation"):
        quantity = result["quantities"][name]
        assert quantity["value"] <= quantity["tolerance"]


def test_classical_symmetry_flag_tracks_exponent():
    inverse_sq = run_json(["classical", "--s", "-2"])["result"]
    assert inverse_sq["symmetry_exact"] is True
    assert inverse_sq["drift"] <= 1e-7
    linear = run_json(["classical", "--s", "1", "--t-end", "2"])["result"]
    assert linear["symmetry_exact"] is False
    assert linear["drift"] > 1e-3


@pytest.mark.parametrize("argv", [["--s", "2.5", "--t-end", "0.5"],
                                  ["--s", "0.5", "--t-end", "1"]])
def test_a_non_integer_exponent_runs_to_its_report(argv):
    # the symbolic residual takes integer exponents only, so symmetry_exact
    # comes from its coefficient g (1 + s/2), which every exponent has;
    # at --t-end 1 the s = 2.5 flow reaches the origin first (t = 0.829)
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "saext.cli",
                           "classical", *argv],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["result"]["symmetry_exact"] is False


def test_geometry_defect_by_metric():
    polar = run_json(["geometry", "--metric", "polar"])["result"]
    assert abs(complex(polar["defect"]["re"], polar["defect"]["im"])) <= 1e-8
    flat = run_json(["geometry", "--metric", "flat"])["result"]
    assert flat["defect"]["im"] == pytest.approx(flat["overlap_flat"], abs=1e-6)
    spherical = run_json(["geometry", "--metric", "spherical"])["result"]
    assert spherical["defect"]["im"] == pytest.approx(
        -spherical["overlap_flat"], abs=1e-6)


def _inline_connection(metric):
    """The connection term as the CLI once wrote it out: inf at r = 0."""
    scale = {"polar": 0.5, "spherical": 1.0, "flat": 0.0}[metric]

    def omega(r):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.zeros_like(r) if scale == 0.0 else scale / r
    return omega


@pytest.mark.parametrize("metric", ["polar", "spherical", "flat"])
@pytest.mark.parametrize("probe, grid_n", [
    ("bump:1,2", None), ("bump:0.1,0.3", None), ("bump:0.5,4", 2001), ("bump:3,7", 801),
])
def test_geometry_connection_matches_the_inline_reference(metric, probe, grid_n):
    # the CLI reads the term from geometry.connection_condition, which refuses
    # r = 0; the grid starts there, where every probe vanishes
    argv = ["geometry", "--metric", metric, "--probe", probe]
    result = run_json(argv + ([] if grid_n is None else ["--grid-n", str(grid_n)]))["result"]
    bump = cli._parse_probe(probe)
    a, b = bump["a"], bump["b"]
    xs = np.linspace(0.0, b + max(0.5 * (b - a), 0.25), 4001 if grid_n is None else grid_n)
    f = GridFunction(xs, cli._bump_values(xs, 0.5 * (a + b), 0.5 * (b - a)), weight="r")
    defect = radial_symmetry_defect(_inline_connection(metric), f, f)
    assert result["defect"] == {"re": defect.real, "im": defect.imag}
    assert result["commutator_sup"] == commutator_preservation_check(
        _inline_connection(metric), f)


# -- sweep ------------------------------------------------------------------

def test_sweep_scatter_rows_are_unitary():
    payload = run_json(["sweep", "scatter", "--alpha", "-1",
                        "--sweep", "k=0.1:10:20"])
    points = payload["result"]["points"]
    assert len(points) == 20
    assert points[0]["params"]["k"] == pytest.approx(0.1)
    assert points[-1]["params"]["k"] == pytest.approx(10.0)
    for point in points:
        assert abs(point["result"]["modulus"] - 1.0) <= 1e-14


def test_sweep_cartesian_product_order():
    payload = run_json(["sweep", "scatter", "--sweep", "k=1:2:2",
                        "--sweep", "alpha=-1:-2:2"])
    combos = [(p["params"]["k"], p["params"]["alpha"])
              for p in payload["result"]["points"]]
    assert combos == [(1.0, -1.0), (1.0, -2.0), (2.0, -1.0), (2.0, -2.0)]


def test_sweep_echo_is_each_axis_as_given():
    # "%g" rounded each bound to 6 digits: k=0.123456789:2.000000123:3 was
    # echoed as "k=0.123457:2:3"
    axes = ["k=0.123456789:2.000000123:3", "alpha=-1.2345678901e-3:-7.00000001:2"]
    payload = run_json(["sweep", "scatter", *[x for axis in axes for x in ("--sweep", axis)]])
    echo = payload["manifest"]["params"]["sweep"]
    assert echo == axes
    grids = [np.linspace(start, stop, count).tolist()
             for _, start, stop, count, _ in map(cli._parse_sweep, echo)]
    assert [[p["params"]["k"], p["params"]["alpha"]] for p in payload["result"]["points"]] \
        == list(map(list, itertools.product(*grids)))


def test_sweep_empty_grid_exits_zero():
    payload = run_json(["sweep", "scatter", "--alpha", "-1",
                        "--sweep", "k=0.1:10:0"])
    assert payload["result"]["count"] == 0
    assert payload["result"]["points"] == []
    code, text = run_cli(["sweep", "scatter", "--alpha", "-1",
                          "--sweep", "k=0.1:10:0", "--csv"])
    assert code == 0
    assert text == ""


def test_sweep_size_limit():
    code, text = run_cli(["sweep", "scatter", "--sweep", "k=0:1:2000",
                          "--sweep", "alpha=0:1:2000"])
    assert code == 1
    assert json.loads(text)["error"]["code"] == "sweep-too-large"


def test_sweep_rejects_unknown_parameter():
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", "scatter", "--alpha", "-1",
                 "--sweep", "beta=0:1:3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, axis, values", [
    (["paradox", "--id", "2", "--sweep", "n=4:8:2"], "n", [4, 8]),
    (["spectrum", "--op", "well", "--sweep", "n_max=2:3:2"], "n_max", [2, 3]),
])
def test_sweep_integer_axis(argv, axis, values):
    payload = run_json(["sweep", *argv])
    jsonschema.validate(payload, cli.load_schema("sweep"))
    got = [p["params"][axis] for p in payload["result"]["points"]]
    assert got == values
    assert all(type(v) is int for v in got)


@pytest.mark.parametrize("argv", [
    # 4:5:3 puts a point at 4.5, which an integer flag must not truncate
    ["paradox", "--id", "2", "--sweep", "n=4:5:3"],
    # a choices flag has no numeric range
    ["spectrum", "--op", "well", "--sweep", "op=0:1:2"],
    ["paradox", "--sweep", "id=1:2:2"],
    # a second axis on the same flag would silently replace the first
    ["scatter", "--alpha", "-1", "--sweep", "k=1:2:2", "--sweep", "k=3:4:2"],
    ["spectrum", "--op", "well", "--sweep", "n-max=2:3:2", "--sweep", "n_max=4:5:2"],
    # a non-finite endpoint would put nan or inf at every point
    ["scatter", "--alpha", "-1", "--sweep", "k=nan:1:3"],
    ["scatter", "--alpha", "-1", "--sweep", "k=0.1:inf:3"],
    ["scatter", "--k", "1", "--sweep", "alpha=-inf:-1:3"],
])
def test_sweep_axis_type_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", *argv])
    assert exc.value.code == 2


def test_sweep_csv_header_is_the_union_of_every_row():
    # alpha=1 and alpha=0 have no bound state; the alpha=-1 row keeps its
    # bound_state.* columns even though the first row lacks them
    code, text = run_cli(["sweep", "boundstate", "--sweep", "alpha=1:-1:3", "--csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["param.alpha", "alpha", "E", "bound_state", "reason",
                       "bound_state.energy", "bound_state.x_max",
                       "bound_state.grid_n", "bound_state.norm"]
    assert [len(row) for row in rows] == [9] * 4
    first, last = dict(zip(rows[0], rows[1])), dict(zip(rows[0], rows[3]))
    assert first["reason"] == "alpha >= 0" and first["bound_state.energy"] == ""
    assert float(last["bound_state.energy"]) == pytest.approx(-1.0)
    assert int(last["bound_state.grid_n"]) > 0


@pytest.mark.parametrize("argv, failed, code", [
    (["scatter", "--alpha", "0", "--sweep", "k=0:1:2"], [0], "indeterminate"),
    # every point of a chunk fails alike: its errors are not results
    (["scatter", "--alpha", "0", "--sweep", "k=0:0:2"], [0, 1], "indeterminate"),
    # a size over the memory budget fails its own point only
    (["paradox", "--id", "4", "--sweep", "n=8:100000:2"], [1], "precondition"),
    (["paradox", "--id", "2", "--trials", "1", "--sweep", "n=8:200000:2"], [1],
     "precondition"),
])
def test_a_failed_point_is_recorded_and_the_sweep_exits_one(argv, failed, code):
    status, text = run_cli(["sweep", *argv])
    assert status == 1
    payload = json.loads(text)
    jsonschema.validate(payload, cli.load_schema("sweep"))
    assert reference_json(payload) == text
    points = payload["result"]["points"]
    assert payload["result"]["count"] == len(points) == 2
    assert [i for i, p in enumerate(points) if "error" in p] == failed
    for i in failed:
        assert points[i]["error"]["code"] == code
    status, text = run_cli(["sweep", *argv, "--csv"])
    assert status == 1
    rows = list(csv.DictReader(io.StringIO(text)))
    assert [row["error.code"] for row in rows] == \
        [code if i in failed else "" for i in range(2)]


def test_anomaly_tolerance_is_relative_and_honours_tol():
    default = run_json(["anomaly", "--alpha", "-100"])["result"]
    assert default["tolerance"] == pytest.approx(1e-6 * 1e4)
    assert default["residual"] <= default["tolerance"]
    tight = run_json(["anomaly", "--alpha", "-100", "--tol", "1e-12"])
    assert tight["manifest"]["tolerances"]["tol"] == 1e-12
    assert tight["result"]["tolerance"] == pytest.approx(1e-12 * 1e4)


# -- the writer against the earlier encoder ----------------------------------
#
# The reference is the encoder the writer replaced: a sanitized deep copy
# printed by the pure-Python json.dumps(indent=2), and a dot-path flattening
# of each row for CSV, whose header is the union of the rows' columns.

def _reference_sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _reference_sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_sanitize(v) for v in obj]
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, complex):
        return {"re": _reference_sanitize(obj.real), "im": _reference_sanitize(obj.imag)}
    return obj


def reference_json(payload):
    return json.dumps(_reference_sanitize(payload), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def _reference_flatten(obj, prefix="", out=None):
    if out is None:
        out = {}
    if isinstance(obj, complex):
        obj = {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        for key in obj:
            _reference_flatten(obj[key], prefix + str(key) + ".", out)
        return out
    if isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            _reference_flatten(item, f"{prefix}{i}.", out)
        return out
    out[prefix[:-1]] = obj
    return out


def _reference_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    # a numpy scalar's cell is the Python number it holds, as in JSON
    if isinstance(value, np.integer):
        value = int(value)
    if isinstance(value, np.floating):
        value = float(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def reference_csv(rows, header=None):
    flat = [_reference_flatten(row) for row in rows]
    if header is None:
        header = list(dict.fromkeys(col for row in flat for col in row))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if header:
        writer.writerow(header)
    for row in flat:
        writer.writerow([_reference_cell(row.get(col)) for col in header])
    return buf.getvalue()


def written_json(payload):
    buf = io.StringIO()
    cli._write_json(payload, buf)
    return buf.getvalue()


def written_csv(rows, header=None):
    buf = io.StringIO()
    cli._Records(rows).write_csv(buf, header)
    return buf.getvalue()


_KEYS = st.text(alphabet='01a.%"\u00e9\n\x00', max_size=3) | st.integers(0, 3)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(alphabet='ab%"\\\u00e9\u2028\n\x00', max_size=4),
    # strings that spell a token the writer rewrites, or its rewrite
    st.sampled_from(["null", "NaN", "Infinity", "-Infinity", "nan", "inf", ""]),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
)
_COMPLEX = st.complex_numbers()


def _trees(scalars):
    return st.recursive(
        scalars,
        lambda children: (st.lists(children, max_size=3)
                          | st.lists(children, max_size=3).map(tuple)
                          | st.dictionaries(_KEYS, children, max_size=4)),
        max_leaves=12)


#: Trees for both formats: a complex number, Python or numpy, is written as
#: {"re", "im"} in JSON and as .re/.im columns in CSV.
_TREES = _trees(_SCALARS | _COMPLEX | _COMPLEX.map(np.complex128))


@pytest.mark.parametrize("argv", [GOLDEN[name] for name in sorted(GOLDEN) if name != "sweep"] + [
    ["spectrum", "--op", "well", "--n-max", "5000"],
    ["spectrum", "--op", "momentum"],
    ["spectrum", "--op", "robin", "--alpha", "1"],
    ["deficiency", "--op", "hamiltonian", "--interval", "2,inf"],
])
def test_one_shot_lists_are_written_as_the_reference_encodes_them(argv):
    # a one-shot's lists, such as the levels of a spectrum, are written
    # through the records writer
    code, text = run_cli(argv)
    assert code == 0
    parser = cli._command_parser(argv[0])
    ns = parser.parse_args(argv[1:])
    cli._finalize(ns, argv[0], parser)
    payload = json.loads(text)
    payload["result"] = cli._COMMANDS[argv[0]]["run"](ns)
    assert reference_json(payload) == text


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_KEYS, _TREES, max_size=5))
def test_writer_json_matches_the_reference_encoder(payload):
    assert written_json(payload) == reference_json(payload)


@settings(max_examples=200, deadline=None)
@given(st.lists(_TREES, max_size=6), st.lists(_TREES, max_size=2),
       _TREES, st.lists(_KEYS, min_size=1, max_size=3))
def test_writer_streams_records_like_a_list(items, others, sibling, path):
    def nest(wrap):
        payload = wrap(items)
        for key in reversed(path):
            payload = {key: payload}
        payload["~sibling"] = sibling
        # added last but written first: lists go out in key order
        payload["!others"] = wrap(others)
        return payload

    assert written_json(nest(cli._Records)) == reference_json(nest(list))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.dictionaries(_KEYS, _TREES, max_size=4), max_size=6))
def test_writer_csv_matches_the_reference_flattening(rows):
    assert written_csv(rows) == reference_csv(rows)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats() | st.floats().map(np.float64), min_size=1, max_size=6),
       st.lists(_SCALARS, min_size=1, max_size=6))
def test_a_float_column_with_a_numpy_float_is_written_as_the_reference(floats, others):
    # a column of Python floats alone is written by float repr; one numpy
    # float sends the column through the encoder's tokens and their rewrites
    rows = [{"x": x, "y": y} for x, y in zip(floats, itertools.cycle(others))]
    assert written_csv(rows) == reference_csv(rows)
    assert written_json({"rows": cli._Records(rows)}) == reference_json({"rows": rows})


@pytest.mark.parametrize("value", [np.float64(0.1), np.float32(0.1), np.int64(-3),
                                   np.float64("nan"), np.float32("-inf")])
def test_a_numpy_scalars_csv_cell_is_the_text_of_its_json_value(value):
    # both formats write the Python number a numpy scalar holds
    token = json.loads(written_json({"b": value}))["b"]
    assert written_csv([{"b": value}]) == f"b\n{token}\n"


def test_a_complex_number_is_written_as_its_re_and_im():
    z = {"z": np.complex128(1.5 - 2j), "w": [0.5j]}
    assert json.loads(written_json(z)) == {"z": {"re": 1.5, "im": -2.0},
                                           "w": [{"re": 0.0, "im": 0.5}]}
    assert written_csv([z]) == "z.re,z.im,w.0.re,w.0.im\n1.5,-2.0,0.0,0.5\n"


def test_writer_csv_keeps_an_explicit_header():
    rows = [{"n": 1, "value": 2.5, "extra": "x"}, {"value": float("nan")}]
    assert written_csv(rows, ["n", "value"]) == reference_csv(rows, ["n", "value"])
    assert written_csv([], ["n", "value"]) == "n,value\n"


@pytest.mark.parametrize("argv", [
    # alpha crosses 0, so the points have two shapes
    ["boundstate", "--sweep", "alpha=1:-1:3"],
    ["paradox", "--id", "2", "--sweep", "n=4:8:2"],
    ["scatter", "--alpha", "-1", "--sweep", "k=0.1:10:0"],
    ["scatter", "--alpha", "inf", "--sweep", "k=0.5:2:4"],
    ["scatter", "--sweep", "k=1:2:2", "--sweep", "alpha=-1:-2:2"],
    # the middle point is gamma=pi, the Dirichlet limit: a float column with inf
    ["extend", "--operator", "hamiltonian", "--sweep", "gamma=0:6.283185307179586:3"],
    ["scatter", "--alpha=inf", "--sweep", "k=0.5:2:4"],
    ["scatter", "--alpha=-inf", "--sweep", "k=0.5:2:4"],
    ["scatter", "--k", "2", "--sweep", "alpha=-3:3:7"],
    ["scatter", "--sweep", "k=-1:1:5", "--sweep", "alpha=-2:2:3"],
    # k = alpha = 0 is indeterminate: an error record, and exit 1
    ["scatter", "--alpha", "0", "--sweep", "k=0:1:2"],
    # runner targets with failed points: alpha >= 0 has no bound state,
    # g < 0 falls to q = 0, lam = 0 is no probe scale
    ["anomaly", "--sweep", "alpha=-3:1:9"],
    ["classical", "--s", "-2", "--sweep", "g=-1:1:5"],
    ["deficiency", "--op", "momentum", "--sweep", "lam=0:2:5"],
    # a hyphenated flag: its points are keyed by the dest t_end, as the manifest is
    ["classical", "--s", "3", "--sweep", "t-end=0.5:1:2"],
])
def test_sweep_output_is_the_reference_encoding(argv):
    code, text = run_cli(["sweep", *argv])
    payload = json.loads(text)
    # the JSON text is exactly what the reference encoder makes of it
    assert reference_json(payload) == text
    points = payload["result"]["points"]
    assert payload["result"]["count"] == len(points)
    assert code == (1 if any("error" in point for point in points) else 0)
    swept = [i + 1 for i, x in enumerate(argv) if x == "--sweep"]
    fixed = [x for i, x in enumerate(argv) if x != "--sweep" and i not in swept]
    axes = [argv[i].partition("=")[0].replace("-", "_") for i in swept]
    rows = []
    for point in points:
        values = [point["params"][name] for name in axes]
        one = fixed + [x for name, value in zip(axes, values)
                       for x in (f"--{name.replace('_', '-')}", repr(value))]
        params = {f"param.{name}": _reference_cell(value)
                  for name, value in zip(axes, values)}
        # each point is the one-shot run at its parameters, in JSON and CSV
        one_code, one_text = run_cli(one)
        if "error" in point:
            assert one_code == 1
            error = json.loads(one_text)["error"]
            del error["context"]
            assert point["error"] == error
            rows.append({**params, **{f"error.{key}": value for key, value in error.items()}})
            continue
        assert one_code == 0
        assert json.loads(one_text)["result"] == point["result"]
        _, one_csv = run_cli(one + ["--csv"])
        header, cells = csv.reader(io.StringIO(one_csv))
        rows.append({**params, **dict(zip(header, cells))})
    assert run_cli(["sweep", *argv, "--csv"]) == (code, reference_csv(rows))


def _scalar_scatter(k, alpha):
    """A scatter sweep point's result, or its error, from the scalar library functions."""
    try:
        r = reflection_coefficient(k, alpha)
    except IndeterminateError as exc:
        return "error", {"code": exc.code, "message": str(exc)}
    return "result", {"k": k, "alpha": alpha, "R": {"re": r.real, "im": r.imag},
                      "modulus": abs(r), "phase": reflection_phase(k, alpha)}


@pytest.mark.parametrize("flags, axes", [
    (["--alpha", "-1.3"], ["k=0.1:5:4099"]),
    # alpha = 0 at k = 0 is point 4096, the first of the second chunk
    (["--k", "0"], ["alpha=-4096:2:4099"]),
    (["--alpha", "-inf"], ["k=0:5:4097"]),
    # 65 x 65 points through k = alpha = 0 (point 2112), tiny alpha, k < 0
    ([], ["k=-1:1:65", "alpha=-1e-300:1e-300:65"]),
])
def test_scatter_sweep_across_chunks_is_the_scalar_reference(flags, axes):
    # the sweep evaluates a chunk as columns; each point must be what
    # reflection_coefficient, abs and reflection_phase give, to the bit
    argv = ["sweep", "scatter", *flags, *[x for axis in axes for x in ("--sweep", axis)]]
    specs = list(map(cli._parse_sweep, axes))
    grids = [np.linspace(start, stop, count).tolist() for _, start, stop, count, _ in specs]
    fixed = {flag.lstrip("-"): float(value) for flag, value in zip(flags[::2], flags[1::2])}
    points, rows = [], []
    for combo in itertools.product(*grids):
        params = dict(zip([name for name, *_ in specs], combo))
        kind, value = _scalar_scatter(**fixed, **params)
        points.append({"params": params, kind: value})
        rows.append({**{f"param.{name}": v for name, v in params.items()},
                     **(value if kind == "result" else {"error": value})})
    failed = any("error" in point for point in points)
    code, text = run_cli(argv)
    assert code == (1 if failed else 0)
    payload = json.loads(text)
    payload["result"]["points"] = points
    assert reference_json(payload) == text
    assert run_cli(argv + ["--csv"]) == (code, reference_csv(rows))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.dictionaries(_KEYS, _TREES, max_size=3), min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(0, 2), st.booleans()), max_size=12),
       st.integers(1, 4))
# two columns that start with the same object and then part
@example([{"a": None, "b": None}, {"a": True, "b": False}], [(0, False), (1, False)], 2)
def test_writer_chunks_give_the_reference_bytes(distinct, picks, chunk):
    # records repeated, whole or as deep copies, share their shapes and leaf
    # objects; small chunks put runs of them across chunk boundaries
    records = [copy.deepcopy(distinct[i % len(distinct)]) if deep
               else distinct[i % len(distinct)] for i, deep in picks]
    with mock.patch.object(cli, "_CHUNK", chunk):
        assert written_json({"points": cli._Records(records)}) \
            == reference_json({"points": records})
        assert written_csv(records) == reference_csv(records)


@pytest.mark.parametrize("axis, change", [
    # the first bound state is point 4501, inside the second chunk of 4096
    ("alpha=1:-1:9001", 4501),
    # alpha = -4096 + i: the points without a bound state start the second chunk
    ("alpha=-4096:4096:8193", 4096),
])
def test_sweep_across_chunks_of_two_shapes_is_the_reference_encoding(axis, change):
    argv = ["sweep", "boundstate", "--grid-n", "8", "--sweep", axis]
    _, start, stop, count, _ = cli._parse_sweep(axis)
    alphas = np.linspace(start, stop, count).tolist()
    results = [cli._run_boundstate(argparse.Namespace(alpha=a, x_max=None, grid_n=8))
               for a in alphas]
    bound = [r["bound_state"] is not None for r in results]
    assert [i for i in range(1, count) if bound[i] != bound[i - 1]] == [change]
    code, text = run_cli(argv)
    assert code == 0
    payload = json.loads(text)
    payload["result"]["points"] = [{"params": {"alpha": a}, "result": r}
                                   for a, r in zip(alphas, results)]
    assert reference_json(payload) == text
    code, text = run_cli(argv + ["--csv"])
    assert code == 0
    assert text == reference_csv([{"param.alpha": a, **r} for a, r in zip(alphas, results)])


def _one_shot_point(argv):
    """("result", result) of a one-shot argv, or ("error", {code, message})."""
    parser = cli._command_parser(argv[0])
    ns = parser.parse_args(argv[1:])
    cli._finalize(ns, argv[0], parser)
    try:
        return "result", cli._COMMANDS[argv[0]]["run"](ns)
    except SaextError as exc:
        return "error", {"code": exc.code, "message": str(exc)}


@pytest.mark.parametrize("chunk", [2, 3])
@pytest.mark.parametrize("target, axis", [
    # the bound state appears at point 4: between chunks of 2, inside one of 3
    ("boundstate", "alpha=1:-1:7"),
    # points 2 to 4 (alpha >= 0) fail: a failed point opens a chunk of 2
    # and closes one of 3
    ("anomaly", "alpha=-1:1:5"),
])
def test_runner_sweep_across_small_chunks_is_the_reference_encoding(target, axis, chunk):
    # a runner's chunk is walked point by point; its runs of one shape, and
    # its failed points, are framed with the matching swept values
    _, start, stop, count, _ = cli._parse_sweep(axis)
    points, rows = [], []
    for alpha in np.linspace(start, stop, count).tolist():
        kind, value = _one_shot_point([target, f"--alpha={alpha!r}"])
        points.append({"params": {"alpha": alpha}, kind: value})
        rows.append({"param.alpha": alpha, **(value if kind == "result" else {"error": value})})
    failed = any("error" in point for point in points)
    argv = ["sweep", target, "--sweep", axis]
    with mock.patch.object(cli, "_CHUNK", chunk):
        code, text = run_cli(argv)
        assert code == (1 if failed else 0)
        payload = json.loads(text)
        payload["result"]["points"] = points
        assert reference_json(payload) == text
        assert run_cli(argv + ["--csv"]) == (code, reference_csv(rows))


_WALL_TIME = re.compile(r'"wall_time_s": [^\n]*')


@pytest.mark.parametrize("fmt", [[], ["--csv"]])
def test_out_path_gets_the_bytes_of_stdout(tmp_path, fmt):
    argv = ["sweep", "boundstate", "--sweep", "alpha=1:-1:3", *fmt]
    target = tmp_path / "sweep.out"
    assert run_cli(argv + ["--out", str(target)]) == (0, "")
    code, expected = run_cli(argv + ["--out", ""])  # an empty PATH means stdout
    assert code == 0
    written = target.read_text().replace(json.dumps(str(target)), '""')
    assert _WALL_TIME.sub("", written) == _WALL_TIME.sub("", expected)


#: Runs argv and prints its exit code and peak RSS in KiB (Linux ru_maxrss).
_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.parametrize("fmt", [[], ["--csv"]])
def test_sweep_memory_stays_below_200mb_at_1e5_points(fmt):
    # the points are held as their leaves only; a tree, its sanitized copy
    # and the whole text took ~450 MB (JSON) and ~210 MB (CSV).  A child's
    # ru_maxrss starts at its spawner's resident size (the exec keeps the
    # high-water mark of the memory it replaces), so the sweep is started by
    # a small launcher rather than by this test process.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    argv = [sys.executable, "-m", "saext.cli", "sweep", "scatter", "--alpha", "-1.3",
            "--sweep", "k=0.1:5:100000", *fmt]
    launched = subprocess.run([sys.executable, "-c", _LAUNCHER, *argv], env=env,
                              capture_output=True, text=True, check=True)
    code, maxrss_kib = map(int, launched.stdout.split())
    assert code == 0
    assert maxrss_kib / 1024 < 200


def test_spectrum_memory_stays_below_200mb_at_1e5_levels():
    # the levels keep their eigenfunctions as one closed form; a 2001-point
    # sample per level took 4.7 GB at 1e5 levels
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    argv = [sys.executable, "-m", "saext.cli", "spectrum", "--op", "well",
            "--n-max", "100000"]
    launched = subprocess.run([sys.executable, "-c", _LAUNCHER, *argv], env=env,
                              capture_output=True, text=True, check=True)
    code, maxrss_kib = map(int, launched.stdout.split())
    assert code == 0
    assert maxrss_kib / 1024 < 200


def test_inverse_square_flow_stays_below_50mb():
    # the s = -2 flow is closed and imports no scipy; DOP853 and Simpson's
    # rule through scipy.integrate peaked at 82 MB
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    argv = [sys.executable, "-m", "saext.cli", "classical", "--s", "-2"]
    launched = subprocess.run([sys.executable, "-c", _LAUNCHER, *argv], env=env,
                              capture_output=True, text=True, check=True)
    code, maxrss_kib = map(int, launched.stdout.split())
    assert code == 0
    assert maxrss_kib / 1024 < 50


#: Runs argv[2:] through the CLI with its address space capped at argv[1] bytes.
_CAPPED = """
import os, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]), int(sys.argv[1])))
os.execv(sys.executable, [sys.executable, "-m", "saext.cli", *sys.argv[2:]])
"""


@pytest.mark.parametrize("argv", [
    ["geometry", "--metric", "polar", "--grid-n", "100000000"],
    ["deficiency", "--op", "hamiltonian", "--grid-n", "100000000"],
    ["boundstate", "--alpha", "-1", "--grid-n", "100000000"],
    ["paradox", "--id", "3", "--grid-n", "100000000"],
    ["classical", "--s", "2", "--samples", "100000000"],
    ["spectrum", "--op", "well", "--n-max", "1000000000"],
    ["spectrum", "--op", "momentum", "--n-min", "-1000000000"],
    ["paradox", "--id", "1", "--n", "100000000"],
    ["paradox", "--id", "3", "--n", "100000000"],
])
def test_an_array_past_the_memory_budget_is_refused_before_it_is_made(argv):
    # geometry --grid-n 4000000 took 613 MB and spectrum --op well --n-max
    # 1000000 704 MB; 1e8 ran for over a minute.  Under a 512 MiB cap a
    # size that is not checked first ends in a MemoryError, not in a
    # machine out of memory
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _CAPPED, str(512 << 20), *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == ""
    error = json.loads(proc.stdout)["error"]
    assert error["code"] == "precondition"
    assert "memory budget" in error["message"]


def test_json_sweep_memory_is_flat_in_the_number_of_points():
    # JSON points are written and dropped a chunk at a time; what still grows
    # is the axis grid, 8 bytes a point (1.6 MB from 1e5 to 3e5 points)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    peaks = []
    for count in (100_000, 300_000):
        argv = [sys.executable, "-m", "saext.cli", "sweep", "scatter", "--alpha", "-1.3",
                "--sweep", f"k=0.1:5:{count}"]
        launched = subprocess.run([sys.executable, "-c", _LAUNCHER, *argv], env=env,
                                  capture_output=True, text=True, check=True)
        code, maxrss_kib = map(int, launched.stdout.split())
        assert code == 0
        peaks.append(maxrss_kib / 1024)
    assert peaks[1] - peaks[0] < 5


def test_a_clean_scatter_sweep_computes_no_point_alone(monkeypatch):
    # the columns of a chunk come from one array evaluation; a chunk falls
    # back to the per-point runner only where a point fails.  The calls are
    # counted in this process, so it computes every chunk
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    calls = []
    run = cli._COMMANDS["scatter"]["run"]
    monkeypatch.setitem(cli._COMMANDS["scatter"], "run",
                        lambda args: calls.append(args.k) or run(args))
    for fmt in ([], ["--csv"]):
        code, _ = run_cli(["sweep", "scatter", "--alpha", "-1.3",
                           "--sweep", "k=0.1:5:10000", *fmt])
        assert code == 0
        assert calls == []
    # k = alpha = 0 is point 4999 of 10100: its chunk runs point by point
    code, text = run_cli(["sweep", "scatter", "--sweep", "k=-49:50:100",
                          "--sweep", "alpha=-1:1:101"])
    assert code == 1
    points = json.loads(text)["result"]["points"]
    assert [i for i, point in enumerate(points) if "error" in point] == [4999]
    assert points[4999]["params"] == {"k": 0.0, "alpha": 0.0}
    assert points[4999]["error"]["code"] == "indeterminate"
    assert len(calls) == cli._CHUNK


# -- chunks on every CPU ----------------------------------------------------

#: A sweep of 6 chunks of 64 points; alpha >= 0 fails from point 325 on, in
#: chunk 5 only, which a child computes with 2 processes and with 3.
_FAILING_SWEEP = ["sweep", "anomaly", "--sweep", "alpha=-3:0.05:331"]


def _on_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("fmt", [[], ["--csv"]])
@pytest.mark.parametrize("to_file", [False, True])
def test_every_process_count_writes_the_bytes_of_one(fmt, to_file, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_CHUNK", 64)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    target = tmp_path / "sweep.out"
    argv = _FAILING_SWEEP + fmt + (["--out", str(target)] if to_file else [])
    written = []
    for cpus in (1, 2, 3):
        _on_cpus(monkeypatch, cpus)
        code, text = run_cli(argv)
        written.append((code, _WALL_TIME.sub("", target.read_text() if to_file else text)))
    assert len(forks) == 0 + 1 + 2
    assert written[0][0] == 1
    assert written[0][1].count("no-bound-state") == 331 - 325
    assert written[1:] == written[:1] * 2
    _no_child_is_left()


@pytest.mark.parametrize("fmt", [[], ["--csv"]])
def test_a_closed_reader_ends_the_sweep_and_its_children(fmt, monkeypatch):
    # as `saext sweep ... | head -c 10`, in this process, so that its
    # children are its own
    _on_cpus(monkeypatch, 2)
    read, write = os.pipe()
    os.close(read)
    err = io.StringIO()

    def hung(signum, frame):
        raise TimeoutError("the sweep did not end")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with open(write, "w") as pipe, contextlib.redirect_stdout(pipe), \
                contextlib.redirect_stderr(err):
            code = cli.main(["sweep", "scatter", "--alpha", "-1.3",
                             "--sweep", "k=0.1:10:100000", *fmt])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 1
    assert err.getvalue() == ""
    _no_child_is_left()


def _ended_in_a_child(monkeypatch, owner, name):
    """Make owner.name end the process that calls it, if that is a child of this one."""
    parent, real = os.getpid(), getattr(owner, name)

    def ending(*args):
        if os.getpid() != parent:
            os._exit(0)
        return real(*args)

    monkeypatch.setattr(owner, name, ending)


def _cut_in_a_child(monkeypatch, kind):
    """Make a child write half of its first message of type kind, then end."""
    parent, real = os.getpid(), os.write

    def cut(fd, data):
        if os.getpid() != parent and isinstance(marshal.loads(data), kind):
            real(fd, bytes(data[:len(data) // 2]))
            os._exit(0)
        return real(fd, data)

    monkeypatch.setattr(os, "write", cut)


@pytest.mark.parametrize("fmt", [[], ["--csv"]])
@pytest.mark.parametrize("ending", [
    "computing",  # ends in its first chunk: CSV before it sends a note
    "encoding",   # ends in its first encoding: CSV once the header is settled
    "mid-message",  # ends halfway through its first message: a note in CSV
    "mid-text",     # ends halfway through its first text: CSV's second round
    "no fork",
    "fork fails",
])
def test_a_child_that_ends_early_leaves_its_chunks_to_the_parent(fmt, ending, monkeypatch):
    monkeypatch.setattr(cli, "_CHUNK", 64)
    argv = _FAILING_SWEEP + fmt
    _on_cpus(monkeypatch, 1)
    expected = run_cli(argv)
    _on_cpus(monkeypatch, 3)
    if ending == "computing":
        _ended_in_a_child(monkeypatch, cli._SweepPoints, "blocks")
    elif ending == "encoding":
        _ended_in_a_child(monkeypatch, cli, "_encoded")
    elif ending.startswith("mid-"):
        # a note is a list of shapes and a text is sent as (failed, text)
        _cut_in_a_child(monkeypatch, object if ending == "mid-message" else tuple)
    elif ending == "no fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", mock.Mock(side_effect=OSError("no process left")))
    code, text = run_cli(argv)
    assert (code, _WALL_TIME.sub("", text)) == (expected[0], _WALL_TIME.sub("", expected[1]))
    _no_child_is_left()


def test_the_fork_warning_of_newer_pythons_is_not_raised(monkeypatch):
    # Python 3.12 and later warn when a process with more than one thread
    # forks; under -W error the warning would raise after the fork
    monkeypatch.setattr(cli, "_CHUNK", 64)
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            warnings.warn("This process is multi-threaded, use of fork() may lead "
                          "to deadlocks in the child.", DeprecationWarning)
        return pid

    _on_cpus(monkeypatch, 1)
    expected = run_cli(_FAILING_SWEEP)
    _on_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", warning_fork)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run_cli(_FAILING_SWEEP)
    assert (code, _WALL_TIME.sub("", text)) == (expected[0], _WALL_TIME.sub("", expected[1]))
    _no_child_is_left()


@pytest.mark.parametrize("name", sorted(GOLDEN))
@pytest.mark.parametrize("fmt", [[], ["--csv"]])
def test_a_golden_run_forks_no_process(name, fmt, monkeypatch):
    # a one-shot's lists and the golden 4-point sweep are one chunk each
    _on_cpus(monkeypatch, 8)
    monkeypatch.setattr(os, "fork", mock.Mock(side_effect=AssertionError("forked")))
    assert run_cli(GOLDEN[name] + fmt)[0] == 0


@pytest.mark.parametrize("fmt", [[], ["--csv"]])
def test_a_forked_sweep_runs_clean_in_dev_mode_with_warnings_as_errors(fmt):
    # -X dev shows a pipe left open (ResourceWarning) and -W error makes any
    # warning fatal, such as the fork warning of Python 3.12 and later, which
    # numpy's BLAS thread pool would raise without OPENBLAS_NUM_THREADS=1
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("OPENBLAS_NUM_THREADS", None)
    runs = [
        (["sweep", "scatter", "--alpha", "-1.3", "--sweep", "k=0.1:10:100000"], 0),
        # a one-shot list of 3 chunks; in CSV its header is given
        (["spectrum", "--op", "well", "--n-max", "10000"], 0),
        # points 4096-8191 fail, all in chunk 1, which a child computes
        (["sweep", "anomaly", "--sweep", "alpha=-1:1:8192"], 1),
    ]
    for argv, code in runs:
        proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "saext.cli",
                               *argv, *fmt], env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        assert (argv, proc.returncode, proc.stderr) == (argv, code, "")


@pytest.mark.parametrize("fmt", [[], ["--csv"]])
def test_paradox_three_runs_its_stacks_clean_in_dev_mode_with_warnings_as_errors(fmt):
    # --n 13 is three stacks of levels; at a = 1e300 the levels' norms underflow
    # to 0, which must stay a precondition error, not an inf or a warning
    src = str(Path(__file__).resolve().parents[1] / "src")
    for argv, code in ((["paradox", "--id", "3", "--n", "13"], 0),
                       (["paradox", "--id", "3", "--a", "1e300"], 1)):
        proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "saext.cli",
                               *argv, *fmt], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert (argv, proc.returncode, proc.stderr) == (argv, code, "")
        assert ("precondition" in proc.stdout) == (code == 1)


@pytest.mark.parametrize("fmt", [[], ["--csv"]])
def test_classical_flows_run_clean_in_dev_mode_with_warnings_as_errors(fmt):
    # one errstate scope holds each flow and its drift prediction: past
    # t = 355 the stable manifold's q is subnormal and sinh wt overflows,
    # and the s = 2.5 flow reaches the origin at t = 0.829
    src = str(Path(__file__).resolve().parents[1] / "src")
    manifold = ["--s", "2", "--g", "-1", "--q0", "1", "--p0", "-1", "--t-end"]
    for argv, code in ((["--s", "2"], 0), (manifold + ["15"], 0), (manifold + ["400"], 0),
                       (["--s", "3", "--t-end", "1"], 0), (["--s", "2.5", "--t-end", "1"], 1)):
        proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "saext.cli",
                               "classical", *argv, *fmt], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert (argv, proc.returncode, proc.stderr) == (argv, code, "")


# -- the process entry -------------------------------------------------------

_SRC = str(Path(__file__).resolve().parents[1] / "src")
#: -X dev reports a file or pipe left open and -W error makes any warning fatal.
_DEV = ("-X", "dev", "-W", "error")

#: (argv, exit code) of each outcome a process can end in.
_ENDINGS = {
    **{name: (argv, 0) for name, argv in GOLDEN.items()},
    **{name + "-csv": (argv + ["--csv"], 0) for name, argv in GOLDEN.items()},
    "compute-error": (["classical", "--s", "1e300", "--g", "1e-300"], 1),
    "failed-point": (["sweep", "scatter", "--alpha", "0", "--sweep", "k=0:1:2"], 1),
    "failed-point-csv": (["sweep", "scatter", "--alpha", "0", "--sweep", "k=0:1:2", "--csv"], 1),
    "usage-error": (["boundstate"], 2),
    "version": (["--version"], 0),
}


def _in_process(argv):
    """cli.main(argv) in this process: (exit code, stdout, stderr), wall time dropped."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, _WALL_TIME.sub("", out.getvalue()), err.getvalue()


def _process(argv, flags=()):
    """``python -m saext.cli argv`` in a fresh interpreter: as _in_process."""
    proc = subprocess.run([sys.executable, *flags, "-m", "saext.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=_SRC), capture_output=True,
                          text=True, timeout=120)
    return proc.returncode, _WALL_TIME.sub("", proc.stdout), proc.stderr


@pytest.mark.parametrize("flags", [(), _DEV])
@pytest.mark.parametrize("name", sorted(_ENDINGS))
def test_a_process_ends_as_main_does_in_process(name, flags):
    argv, code = _ENDINGS[name]
    ended = _process(argv, flags)
    assert ended == _in_process(argv)
    assert ended[0] == code
    # stderr holds a usage error alone, with its subcommand's usage
    assert ended[2].startswith("usage: saext boundstate") if code == 2 else ended[2] == ""
    # exit 1 writes its error envelope, or the failed point's error
    assert ("error" in ended[1]) is (code == 1)


@pytest.mark.parametrize("flags", [(), _DEV])
@pytest.mark.parametrize("fmt", [[], ["--csv"]])
def test_a_process_writes_its_out_file_whole(tmp_path, fmt, flags):
    argv = ["sweep", "boundstate", "--sweep", "alpha=1:-1:3", *fmt]
    target = tmp_path / "sweep.out"
    assert _process(argv + ["--out", str(target)], flags) == (0, "", "")
    expected = _in_process(argv + ["--out", ""])  # an empty PATH means stdout
    written = target.read_text().replace(json.dumps(str(target)), '""')
    assert (0, _WALL_TIME.sub("", written), "") == expected


@pytest.mark.parametrize("where, reason", [
    ("missing/x.json", "[Errno 2] No such file or directory"),
    (".", "[Errno 21] Is a directory"),
])
@pytest.mark.parametrize("argv", [
    ["anomaly", "--alpha", "-2"],
    ["sweep", "scatter", "--alpha", "-1", "--sweep", "k=1:2:3", "--csv"],
    # its error envelope would go to --out too
    ["classical", "--s", "1e300", "--g", "1e-300"],
])
def test_an_out_that_cannot_be_opened_is_a_usage_error(argv, where, reason, tmp_path):
    # it ended in a traceback from _emit, after a one-shot had computed
    path = os.path.join(tmp_path, where)
    code, out, err = _in_process(argv + ["--out", path])
    prog = " ".join(argv[:2] if argv[0] == "sweep" else argv[:1])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (f"saext {prog}: error: argument --out: "
                                    f"can't open '{path}': {reason}: '{path}'")


@pytest.mark.parametrize("argv", [
    ["anomaly", "--alpha", "-2", "--tol", "0"],
    # found after the --out check, once the grid is laid out
    ["sweep", "paradox", "--id", "4", "--sweep", "n=1:2:3"],
])
def test_a_usage_error_leaves_the_out_file_as_it_was(argv, tmp_path):
    kept, fresh = tmp_path / "kept.out", tmp_path / "fresh.out"
    kept.write_text("kept\n")
    assert _in_process(argv + ["--out", str(kept)])[0] == 2
    assert _in_process(argv + ["--out", str(fresh)])[0] == 2
    assert kept.read_text() == "kept\n"
    assert not fresh.exists()


def test_main_leaves_the_heap_to_the_collector():
    # only the process entry turns the collector off and freezes the heap
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            frozen = gc.get_freeze_count()
            assert _in_process(GOLDEN["sweep"])[0] == 0
            assert _in_process(["boundstate"])[0] == 2
            assert gc.get_freeze_count() == frozen
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_the_process_entry_freezes_the_heap_after_main():
    # main runs with the collector off
    probe = ("import gc, sys, saext.cli\n"
             "main, seen = saext.cli.main, []\n"
             "saext.cli.main = lambda: seen.append(gc.isenabled()) or main()\n"
             "sys.argv = ['saext', 'boundstate', '--alpha', '-1']\n"
             "try:\n    saext.cli.run()\n"
             "except SystemExit as exc:\n    print(exc.code, gc.get_freeze_count() > 0, seen)\n")
    proc = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=_SRC),
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.splitlines()[-1] == "0 True [False]"


def _main_block_callable(source: str) -> str:
    """The name that the ``if __name__ == "__main__"`` block of source calls."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            (statement,) = node.body
            return statement.value.func.id
    raise AssertionError("no __main__ block")


def test_the_installed_command_and_python_m_share_one_entry():
    # read from pyproject.toml, so no installed saext command is needed
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    scripts = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, name = scripts["saext"].partition(":")
    entry = getattr(importlib.import_module(module), name)
    assert entry is getattr(cli, _main_block_callable(Path(cli.__file__).read_text()))


# -- plumbing ---------------------------------------------------------------

def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli(["transmogrify"])
    assert exc.value.code == 2


def test_tol_resolution_order():
    from_flag = run_json(["anomaly", "--alpha", "-1", "--tol", "1e-5"])
    assert from_flag["manifest"]["tolerances"]["tol"] == 1e-5
    default = run_json(["anomaly", "--alpha", "-1"])
    assert default["manifest"]["tolerances"]["tol"] == 1e-6


@pytest.mark.parametrize("fmt", [[], ["--csv"]])
def test_saext_tol_in_the_environment_changes_no_byte(fmt):
    # SAEXT_TOL=1e-3 printed tol 1e-3 under the same manifest argv as the
    # default 1e-6; the program reads no environment variable
    src = str(Path(__file__).resolve().parents[1] / "src")
    base = {k: v for k, v in os.environ.items() if k != "SAEXT_TOL"}
    argv = [sys.executable, "-m", "saext.cli", "anomaly", "--alpha", "-1", *fmt]
    texts = [subprocess.run(argv, env=dict(base, PYTHONPATH=src, **extra), capture_output=True,
                            text=True, check=True, timeout=60).stdout
             for extra in ({}, {"SAEXT_TOL": "1e-3"})]
    if not fmt:
        texts = list(map(without_wall_time, texts))
    assert texts[0] == texts[1]


@pytest.mark.parametrize("argv", [["boundstate", "--alpha", "-1"],
                                  ["sweep", "scatter", "--k", "1", "--sweep", "alpha=-2:-1:2"]])
def test_a_subcommand_that_reads_no_tolerance_echoes_none(argv, monkeypatch):
    # and the natural units it computes in; SAEXT_TOL, a number or not, changes nothing
    for env in ("1e-8", "tight"):
        monkeypatch.setenv("SAEXT_TOL", env)
        manifest = run_json(argv)["manifest"]
        assert "tolerances" not in manifest
        assert manifest["units"] == {"hbar": 1.0, "two_m": 1.0}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("argv", [["anomaly", "--alpha", "-2"],
                                  ["classical", "--s", "3", "--t-end", "1"]],
                         ids=operator.itemgetter(0))
def test_a_tolerance_is_a_finite_number_above_zero(argv, source, value, monkeypatch, capsys):
    # --tol -1 gave a negative tolerance and --tol 0 ran after scipy clipped
    # it.  classical reads no tolerance since its flow is no longer
    # integrated by DOP853: its --tol is refused.  The environment is not
    # read: SAEXT_TOL, once a second source, changes no output
    reads = "tol" in cli._COMMANDS[argv[0]]["variants"][None]
    if source == "env":
        monkeypatch.setenv("SAEXT_TOL", value)
        with_env = without_wall_time(run_cli(argv)[1])
        monkeypatch.delenv("SAEXT_TOL")
        assert with_env == without_wall_time(run_cli(argv)[1])
        return
    with pytest.raises(SystemExit) as exc:
        run_cli([*argv, f"--tol={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert ("argument --tol" if reads else "unrecognized arguments: --tol") in err
    assert "Traceback" not in err


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "run.json"
    code, text = run_cli(["boundstate", "--alpha", "-1", "--out", str(target)])
    assert code == 0
    assert text == ""
    payload = json.loads(target.read_text())
    jsonschema.validate(payload, cli.load_schema("boundstate"))


def test_csv_projection_single_run():
    code, text = run_cli(["scatter", "--k", "2", "--alpha", "-1", "--csv"])
    assert code == 0
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0].split(",")[:2] == ["k", "alpha"]


def test_csv_projection_spectrum_levels():
    code, text = run_cli(["spectrum", "--op", "well", "--a", "1",
                          "--n-max", "3", "--csv"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "n,value"
    assert len(lines) == 4
    assert float(lines[1].split(",")[1]) == pytest.approx(math.pi ** 2)


def test_units_flag_is_recorded():
    payload = run_json(["paradox", "--id", "2", "--n", "8",
                        "--units", "hbar=2"])
    assert payload["manifest"]["units"] == {"hbar": 2.0, "two_m": 1.0}
    target = payload["result"]["quantities"]["naive_canonical_trace"]["value"]
    assert target["im"] == pytest.approx(16.0)


@pytest.mark.parametrize("argv", [
    ["deficiency", "--op", "momentum", "--grid-n", "0"],
    ["boundstate", "--alpha", "-1", "--grid-n", "0"],
    ["paradox", "--id", "1", "--n", "0"],
    ["paradox", "--id", "2", "--n", "0"],
    ["paradox", "--id", "3", "--n", "0"],
    ["paradox", "--id", "3", "--grid-n", "0"],
    ["paradox", "--id", "4", "--n", "0"],
    ["geometry", "--metric", "polar", "--grid-n", "0"],
])
def test_explicit_zero_is_not_replaced_by_the_default(argv):
    # a 0 reaches the library, which rejects it, instead of running n=256
    code, text = run_cli(argv)
    assert code == 1
    jsonschema.validate(json.loads(text), cli.load_schema("error"))


@pytest.mark.parametrize("mode", ["100000000", "1" + "0" * 20])
def test_paradox_one_meets_its_tolerances_at_any_mode(mode):
    # mode 1e8 printed a residual 7 times its tolerance under the verdict
    quantities = run_json(["paradox", "--id", "1", "--mode", mode])["result"]["quantities"]
    for name in ("eigenpair_residual", "eigenvector_expectation"):
        value = quantities[name]["value"]
        assert abs(complex(value["re"], value["im"]) if isinstance(value, dict) else value) \
            <= quantities[name]["tolerance"]


@pytest.mark.parametrize("argv, bound", [
    # phi*j kept no digit of the twist: the residual printed 30.0
    (["paradox", "--id", "1", "--theta", "1e300"], "|theta| <= 1e+06"),
    # the memory budget admitted ~520,000 levels, 11-20 minutes of work
    (["paradox", "--id", "3", "--n", "5000"], "past the bound of 60000000"),
])
def test_paradox_refuses_an_input_past_its_bound_naming_it(argv, bound):
    code, text = run_cli(argv)
    assert code == 1
    error = json.loads(text)["error"]
    assert error["code"] == "precondition"
    assert bound in error["message"]


@pytest.mark.parametrize("op, grid_n", [("momentum", 3), ("time", 3), ("hamiltonian", 5)])
def test_deficiency_refuses_a_basis_grid_with_no_interior_to_check(op, grid_n):
    # the smallest grid of each op that printed an adjoint residual of 0.0,
    # since the check judged an empty interior; 7 samples are checked
    code, text = run_cli(["deficiency", "--op", op, "--grid-n", str(grid_n)])
    assert code == 1
    error = json.loads(text)["error"]
    assert error["code"] == "degenerate-grid"
    assert "at least 7 grid points" in error["message"]
    checked = run_json(["deficiency", "--op", op, "--grid-n", "7"])["result"]
    assert checked["adjoint_residual"] > 0


def test_deficiency_refuses_a_momentum_basis_its_grid_cannot_resolve():
    # the samples of e^{-+lam x} round to one value, and the residual printed
    # was lam max|psi| itself, 1.0000000000004994e-12
    code, text = run_cli(["deficiency", "--op", "momentum", "--lam", "1e-12"])
    assert code == 1
    error = json.loads(text)["error"]
    assert error["code"] == "too-coarse"
    assert "cannot resolve exp(-1e-12*x)" in error["message"]


#: argv and a sweep axis of each subcommand (of each op of spectrum)
_CASES = {
    "deficiency": (["deficiency", "--op", "momentum"], "lam=1:2:2"),
    "spectrum-momentum": (["spectrum", "--op", "momentum"], "theta=0:1:2"),
    "spectrum-well": (["spectrum", "--op", "well"], "a=1:2:2"),
    "spectrum-robin": (["spectrum", "--op", "robin"], "alpha=-2:-1:2"),
    "boundstate": (["boundstate", "--alpha", "-1"], "x_max=30:35:2"),
    "extend": (["extend", "--operator", "hamiltonian", "--gamma", "1"], "gamma=1:2:2"),
    "scatter": (["scatter", "--k", "2", "--alpha", "-1"], "k=1:2:2"),
    "classical": (["classical", "--s", "-2"], "g=1:2:2"),
    "anomaly": (["anomaly", "--alpha", "-2"], "t=0:1:2"),
    "paradox": (["paradox", "--id", "2", "--n", "8"], "trials=10:20:2"),
    "geometry": (["geometry", "--metric", "polar"], None),  # no flag of geometry is numeric
}

#: A value of each shared flag other than its default.
_SHARED_VALUES = {"units": "hbar=2", "tol": "1e-3", "grid_n": "2001", "seed": "7"}

#: A value of each flag that a variant needs given.
_GIVEN = {"operator": "hamiltonian", "gamma": "1", "alpha": "-1", "k": "2", "s": "-2",
          "metric": "polar"}


def _variant_argv(name, key):
    """argv of the variant key of name, with a value for each flag it needs given."""
    spec = cli._COMMANDS[name]
    argv = [name] if key is None else [name, f"--{spec['select']}", str(key)]
    for dest, default in spec["variants"][key].items():
        if default is ...:
            argv += ["--" + dest.replace("_", "-"), _GIVEN[dest]]
    return argv


def _sweep_of(argv, axis):
    """The sweep of a one-shot argv over axis; the flag that the axis sets is dropped."""
    flag = "--" + axis.partition("=")[0].replace("_", "-")
    if flag in argv:
        i = argv.index(flag)
        argv = argv[:i] + argv[i + 2:]
    return ["sweep", *argv, "--sweep", axis]


def _variant_of(argv):
    """(subcommand, variant key) that a one-shot argv selects."""
    spec = cli._COMMANDS[argv[0]]
    ns = cli._command_parser(argv[0]).parse_args(argv[1:])
    return argv[0], getattr(ns, spec["select"]) if "select" in spec else None


def _undeclared(flags):
    """(case, flag) of each shared flag in flags that the case's variant does not declare."""
    return [(case, flag) for case, (argv, _) in sorted(_CASES.items()) for flag in flags
            if flag not in cli._COMMANDS[argv[0]]["variants"][_variant_of(argv)[1]]]


def _assert_refused(case, flag, capsys):
    argv, axis = _CASES[case]
    option = ["--" + flag.replace("_", "-"), _SHARED_VALUES[flag]]
    runs = [argv + option]
    if axis is not None:
        sweep = _sweep_of(argv, axis)
        run_json(sweep)
        runs.append(sweep + option)
    for bad in runs:
        with pytest.raises(SystemExit) as exc:
            run_cli(bad)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: " + option[0] in err and "Traceback" not in err


@pytest.mark.parametrize("name", [case for case, _ in _undeclared(["grid_n"])])
def test_grid_n_is_a_usage_error_where_no_runner_reads_it(name, capsys):
    # these results come from closed forms (for classical, sampled at
    # --samples times, and from the energy integral for s outside
    # {-2, 0, 1, 2}), so a --grid-n would be echoed and change nothing
    _assert_refused(name, "grid_n", capsys)


@pytest.mark.parametrize("case, flag", _undeclared(["units", "tol", "seed"]))
def test_shared_flag_is_a_usage_error_where_no_runner_reads_it(case, flag, capsys):
    # the manifest would echo units, a tolerance or a seed that nothing applied
    _assert_refused(case, flag, capsys)


#: Each flag that a variant declares, by subcommand and dest: the argv of
#: the subcommand, the extra argv of each variant that declares the flag,
#: and a value of the flag other than its default there.
_DECLARED = {
    ("deficiency", "grid_n"): (["deficiency"], [["--op", op] for op in
                                                ("momentum", "hamiltonian", "time")], "2001"),
    ("boundstate", "grid_n"): (["boundstate", "--alpha", "-1"], [[]], "2001"),
    ("paradox", "grid_n"): (["paradox"], [["--id", "3"]], "2001"),
    ("geometry", "grid_n"): (["geometry", "--metric", "polar"], [[]], "2001"),
    ("paradox", "units"): (["paradox", "--n", "64"], [["--id", "1"], ["--id", "2"]],
                           "hbar=2"),
    ("paradox", "seed"): (["paradox"], [["--id", "2"]], "7"),
    ("anomaly", "tol"): (["anomaly", "--alpha", "-2"], [[]], "1e-3"),
    ("deficiency", "interval"): (["deficiency"], [["--op", op] for op in
                                                  ("momentum", "hamiltonian", "time")], "2,inf"),
    ("deficiency", "lam"): (["deficiency"], [["--op", op] for op in
                                             ("momentum", "hamiltonian", "time")], "2"),
    ("extend", "operator"): (["extend", "--operator", "hamiltonian", "--gamma", "1"], [[]],
                             "momentum"),
    ("extend", "gamma"): (["extend", "--operator", "hamiltonian", "--gamma", "1"], [[]], "2"),
    ("spectrum", "theta"): (["spectrum"], [["--op", "momentum"]], "0.5"),
    ("spectrum", "interval"): (["spectrum"], [["--op", "momentum"]], "0,2"),
    ("spectrum", "n_min"): (["spectrum"], [["--op", "momentum"], ["--op", "well"]], "2"),
    ("spectrum", "n_max"): (["spectrum"], [["--op", "momentum"], ["--op", "well"]], "3"),
    ("spectrum", "a"): (["spectrum"], [["--op", "well"]], "2"),
    ("spectrum", "alpha"): (["spectrum"], [["--op", "robin"]], "-2"),
    ("boundstate", "alpha"): (["boundstate", "--alpha", "-1"], [[]], "-2"),
    ("boundstate", "x_max"): (["boundstate", "--alpha", "-1"], [[]], "30"),
    ("scatter", "k"): (["scatter", "--k", "2", "--alpha", "-1"], [[]], "3"),
    ("scatter", "alpha"): (["scatter", "--k", "2", "--alpha", "-1"], [[]], "-2"),
    ("anomaly", "alpha"): (["anomaly", "--alpha", "-2"], [[]], "-3"),
    ("anomaly", "t"): (["anomaly", "--alpha", "-2"], [[]], "1"),
    ("paradox", "n"): (["paradox"], [["--id", str(i)] for i in (1, 2, 3, 4)], "64"),
    ("paradox", "theta"): (["paradox"], [["--id", "1"]], "0.5"),
    ("paradox", "mode"): (["paradox"], [["--id", "1"]], "2"),
    ("paradox", "trials"): (["paradox"], [["--id", "2"]], "10"),
    ("paradox", "a"): (["paradox"], [["--id", "3"]], "2"),
    ("paradox", "l"): (["paradox"], [["--id", "4"]], "2"),
    ("classical", "s"): (["classical", "--s", "-2"], [[]], "2"),
    ("classical", "g"): (["classical", "--s", "-2"], [[]], "2"),
    ("classical", "q0"): (["classical", "--s", "-2"], [[]], "2"),
    ("classical", "p0"): (["classical", "--s", "-2"], [[]], "0.5"),
    ("classical", "t_end"): (["classical", "--s", "-2"], [[]], "2"),
    ("classical", "samples"): (["classical", "--s", "-2"], [[]], "101"),
    ("geometry", "metric"): (["geometry", "--metric", "polar"], [[]], "flat"),
    ("geometry", "probe"): (["geometry", "--metric", "polar"], [[]], "bump:0.5,1.5"),
}


def _declared_pairs(shared):
    """The (subcommand, variant, dest) triples of the shared flags, or of the own ones,
    in the table and in _DECLARED."""
    table = {(name, key, dest) for name, spec in cli._COMMANDS.items()
             for key, variant in spec["variants"].items() for dest in variant
             if (dest in cli._SHARED) is shared}
    cases = {(*_variant_of(argv + extra), dest)
             for (_, dest), (argv, variants, _) in _DECLARED.items()
             if (dest in cli._SHARED) is shared for extra in variants}
    return table, cases


def test_every_declared_shared_flag_has_a_case():
    table, cases = _declared_pairs(shared=True)
    assert table == cases


def test_every_declared_flag_of_its_own_has_a_case():
    table, cases = _declared_pairs(shared=False)
    assert table == cases
    # and each value of a selector is a variant
    for name, spec in cli._COMMANDS.items():
        if "select" in spec:
            assert cli._flags_of(name)[spec["select"]][1]["choices"] == list(spec["variants"])


def _outcome(argv):
    """The exit code of argv and its result or its error."""
    code, text = run_cli(argv)
    payload = json.loads(text)
    return code, payload.get("result", payload.get("error"))


@pytest.mark.parametrize("name, flag", sorted(key for key in _DECLARED if key[1] in cli._SHARED))
def test_a_declared_shared_flag_changes_the_result(name, flag):
    argv, variants, value = _DECLARED[name, flag]
    option = ["--" + flag.replace("_", "-"), value]
    for extra in variants:
        assert run_json(argv + extra + option)["result"] != run_json(argv + extra)["result"]


@pytest.mark.parametrize("name, flag",
                         sorted(key for key in _DECLARED if key[1] not in cli._SHARED))
def test_a_declared_flag_of_its_own_changes_the_result_or_the_error(name, flag):
    # a flag that a variant declares is applied: none is echoed and ignored
    argv, variants, value = _DECLARED[name, flag]
    option = ["--" + flag.replace("_", "-"), value]
    for extra in variants:
        assert _outcome(argv + extra + option) != _outcome(argv + extra)


@pytest.mark.parametrize("argv, axis, applied", [
    (["deficiency", "--op", "momentum"], "lam=1:2:2", 10_001),
    (["boundstate", "--alpha", "-1"], "x_max=30:35:2", None),
    (["paradox", "--id", "3"], "a=1:2:2", 10_001),
    (["geometry", "--metric", "polar"], None, 4001),  # no flag of geometry is numeric
])
def test_grid_n_is_echoed_as_applied(argv, axis, applied):
    # null where the library picks the grid
    assert run_json(argv)["manifest"]["params"]["grid_n"] == applied
    assert run_json(argv + ["--grid-n", "2001"])["manifest"]["params"]["grid_n"] == 2001
    if axis is not None:
        sweep = ["sweep", *argv, "--grid-n", "2001", "--sweep", axis]
        assert run_json(sweep)["manifest"]["params"]["grid_n"] == 2001


_VARIANTS = [(name, key) for name, spec in sorted(cli._COMMANDS.items())
             for key in spec["variants"]]

def _readme_variant_flags() -> dict:
    """README's per-variant flag bullets: (subcommand, variant) -> the flags listed."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("takes only the flags it\nreads", 1)[1].split("\n\nAny other flag", 1)[0]
    listed = {}
    for bullet in block.split("\n- ")[1:]:
        head, _, flags = bullet.partition("`: ")
        name, *select = head.lstrip("`").split()
        keys = [None] if not select else select[1].split("|")
        for key in keys:
            assert (name, key) not in listed, bullet
            listed[name, key] = sorted(set(re.findall(r"`(--[a-z0-9-]+)`", flags)))
    return listed


def test_readme_lists_each_variants_flags():
    # the README bullets are written by hand; the table is what the parser reads
    table = {}
    for name, key in _VARIANTS:
        spec = cli._COMMANDS[name]
        flags = cli._flags_of(name)
        key_text = None if key is None else str(key)
        table[name, key_text] = sorted(flags[dest][0][0] for dest in spec["variants"][key])
    assert _readme_variant_flags() == table


#: Each (subcommand, variant, dest) that a sweep axis may set: a numeric
#: flag of the subcommand's own that the variant reads.
_SWEEPABLE = [(name, key, dest) for name, key in _VARIANTS
              for dest in cli._COMMANDS[name]["variants"][key]
              if dest not in cli._SHARED
              and cli._flags_of(name)[dest][1].get("type") in (int, float)
              and "choices" not in cli._flags_of(name)[dest][1]]


@pytest.mark.parametrize("name, key, dest", _SWEEPABLE)
def test_a_flag_given_and_also_swept_is_a_usage_error(name, key, dest, capsys):
    # the axis would replace the given value, which the manifest could not echo
    flag = "--" + dest.replace("_", "-")
    argv = _variant_argv(name, key)
    if flag not in argv:
        argv += [flag, "2"]
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", *argv, "--sweep", f"{dest}=1:2:2"])
    assert exc.value.code == 2
    assert f"{flag} is given and also swept" in capsys.readouterr().err


@pytest.mark.parametrize("name, key", _VARIANTS)
def test_manifest_params_echo_the_variants_flags_as_applied(name, key):
    # units and tol have their own manifest fields; a string default is
    # echoed as its flag's text reads
    spec = cli._COMMANDS[name]
    variant = spec["variants"][key]
    payload = run_json(_variant_argv(name, key))
    params = payload["manifest"]["params"]
    selector = set() if key is None else {spec["select"]}
    assert set(params) == set(variant) - {"units", "tol"} | selector
    for dest, default in variant.items():
        if dest in params and default is not ...:
            if isinstance(default, str):
                default = cli._flags_of(name)[dest][1]["type"](default)
            applied = cli._interval_dict(default) if dest == "interval" else default
            assert params[dest] == _reference_sanitize(applied)
    assert ("tolerances" in payload["manifest"]) is ("tol" in variant)


@st.composite
def _foreign_flag(draw):
    """A variant, and a flag of its subcommand, or a shared one, that it does not read."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    spec = cli._COMMANDS[name]
    key = draw(st.sampled_from(list(spec["variants"])))
    variant = spec["variants"][key]
    known = {**cli._flags_of(name), **cli._SHARED}
    dest = draw(st.sampled_from([dest for dest in known
                                 if dest not in variant and dest != spec.get("select")]))
    # a value of the flag that another variant, or a shared flag, would take
    values = [str(other[dest]) for other in spec["variants"].values()
              if other.get(dest) not in (None, ...)]
    return name, key, dest, _SHARED_VALUES.get(dest) or draw(st.sampled_from(values))


@settings(max_examples=60, deadline=None)
@given(_foreign_flag())
def test_a_flag_outside_the_chosen_variant_is_a_usage_error(case):
    name, key, dest, value = case
    argv = _variant_argv(name, key)
    variant, flags = cli._COMMANDS[name]["variants"][key], cli._flags_of(name)
    option = ["--" + dest.replace("_", "-"), value]
    numeric = [own for own in variant if own not in cli._SHARED
               and flags[own][1].get("type") in (int, float)]
    runs = [(argv + option, "unrecognized arguments: " + option[0]),
            (["sweep", *argv, "--sweep", f"{dest}=1:2:2"],
             f"{dest!r} is not a sweep parameter")]
    if numeric:  # beside an axis of the variant's own
        axis = f"{numeric[0]}=1:2:2"
        runs.append((["sweep", *argv, *option, "--sweep", axis],
                     "unrecognized arguments: " + option[0]))
        runs.append((["sweep", *argv, "--sweep", axis, "--sweep", f"{dest}=1:2:2"],
                     f"{dest!r} is not a sweep parameter"))
    for bad, message in runs:
        err = io.StringIO()
        with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
            run_cli(bad)
        assert exc.value.code == 2, bad
        assert message in err.getvalue(), (bad, err.getvalue())


@pytest.mark.parametrize("units", ["hbar=inf", "hbar=-inf", "hbar=2,hbar=-inf",
                                   "hbar=nan"])
def test_non_finite_units_are_a_usage_error(units, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["paradox", "--id", "2", "--n", "8", "--units", units])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "hbar must be finite and positive" in err


@pytest.mark.parametrize("units", ["hbar=2,two_m=3", "two_m=inf", "hbar=1,two_m=-inf",
                                   "planck=1"])
def test_a_unit_other_than_hbar_is_a_usage_error(units, capsys):
    # every subcommand computes with 2m = 1, so a two_m was echoed and changed nothing
    with pytest.raises(SystemExit) as exc:
        run_cli(["paradox", "--id", "1", "--units", units])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: saext paradox ")
    assert "units must look like hbar=<v>" in err


@pytest.mark.parametrize("argv", [
    ["scatter", "--k", "1", "--alpha"],
    ["boundstate", "--alpha"],
    ["anomaly", "--alpha"],
    ["spectrum", "--op", "robin", "--alpha"],
    ["sweep", "scatter", "--sweep", "k=0.5:2:4", "--alpha"],
])
def test_negative_scientific_notation_is_a_value_not_a_flag(argv):
    spaced = run_json(argv + ["-1e-3"])
    joined = run_json(argv[:-1] + ["--alpha=-1e-3"])
    for payload in (spaced, joined):
        del payload["manifest"]["wall_time_s"], payload["manifest"]["argv"]
    assert spaced == joined
    assert spaced["manifest"]["params"]["alpha"] == -1e-3


@pytest.mark.parametrize("argv, code", [
    (["scatter", "--k", "1", "--alpha"], 0),
    (["sweep", "scatter", "--sweep", "k=0.5:2:4", "--alpha"], 0),
    # the Robin energy consumers refuse alpha = -inf, however it is spelled
    (["boundstate", "--alpha"], 1),
    (["anomaly", "--alpha"], 1),
    (["spectrum", "--op", "robin", "--alpha"], 1),
])
@pytest.mark.parametrize("value", ["-inf", "-Infinity", "-INF"])
def test_negative_infinity_is_a_value_not_a_flag(argv, code, value):
    # `--alpha -inf` was a usage error ("expected one argument")
    spaced = run_cli(argv + [value])
    joined = run_cli(argv[:-1] + [f"--alpha={value}"])
    assert spaced[0] == joined[0] == code
    spaced, joined = json.loads(spaced[1]), json.loads(joined[1])
    for payload in (spaced, joined):
        if code == 0:
            del payload["manifest"]["wall_time_s"], payload["manifest"]["argv"]
    assert spaced == joined
    if code == 0:
        assert spaced["manifest"]["params"]["alpha"] == "-inf"
    else:
        assert spaced["error"]["code"] == "precondition"


@pytest.mark.parametrize("argv", [
    ["deficiency", "--op", "momentum", "--interval", "-inf,inf"],
    ["spectrum", "--op", "momentum", "--interval", "-1,1"],
    ["deficiency", "--op", "hamiltonian", "--interval", "-2.5e-3,inf"],
    ["sweep", "spectrum", "--op", "momentum", "--interval", "-1,1", "--sweep", "theta=0:1:2"],
])
@pytest.mark.parametrize("fmt", [[], ["--csv"]])
def test_an_interval_that_starts_negative_is_a_value_not_a_flag(argv, fmt):
    # `--interval -1,1` was a usage error ("expected one argument"); only
    # `--interval=-1,1` was read
    at = argv.index("--interval")
    spaced = run_cli(argv + fmt)
    joined = run_cli(argv[:at] + [f"--interval={argv[at + 1]}"] + argv[at + 2:] + fmt)
    assert spaced[0] == joined[0] == 0
    if fmt:
        assert spaced[1] == joined[1]
    else:
        spaced, joined = json.loads(spaced[1]), json.loads(joined[1])
        for payload in (spaced, joined):
            del payload["manifest"]["wall_time_s"], payload["manifest"]["argv"]
        assert spaced == joined


@pytest.mark.parametrize("fmt", [[], ["--csv"]])
def test_closed_reader_pipe_exits_one_without_traceback(fmt):
    # `saext sweep ... | head -c 10`: ~4 MB of output against a closed pipe
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    argv = [sys.executable, "-m", "saext.cli", "sweep", "scatter", "--alpha", "-1",
            "--sweep", "k=0.1:5:20000", *fmt]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in stderr
    assert stderr == ""


# -- non-finite flag values -------------------------------------------------

#: Required flags of each subcommand, so that one flag's value can be varied.
_REQUIRED = {
    "deficiency": ["--op", "momentum"],
    "extend": ["--operator", "momentum", "--gamma", "1"],
    "spectrum": ["--op", "robin"],
    "boundstate": ["--alpha", "-1"],
    "scatter": ["--k", "1", "--alpha", "-1"],
    "anomaly": ["--alpha", "-1"],
    "paradox": ["--id", "4"],
    "classical": ["--s", "-2"],
    "geometry": ["--metric", "polar"],
}

#: Every float flag of the command table as (subcommand, flag).
_FLOAT_FLAGS = [(name, flags[0]) for name, spec in cli._COMMANDS.items()
                for flags, kwargs in spec["args"] if kwargs.get("type") is float]


def _non_finite_cases():
    for name, flag in _FLOAT_FLAGS:
        # --alpha inf is the Dirichlet limit; only nan means nothing there
        for value in ["nan"] if flag == "--alpha" else ["nan", "inf", "-inf"]:
            yield [name, *_REQUIRED[name], f"{flag}={value}"]
        if flag != "--alpha":
            # after a space, -inf is a value too, not an unknown flag
            yield [name, *_REQUIRED[name], flag, "-inf"]
    for value in ("nan", "inf", "-inf"):
        yield ["anomaly", "--alpha", "-1", f"--tol={value}"]
    yield ["sweep", "scatter", "--k=nan", "--sweep", "alpha=-2:-1:2"]
    yield ["sweep", "scatter", "--alpha=nan", "--sweep", "k=1:2:2"]
    yield ["sweep", "extend", "--operator", "hamiltonian", "--gamma=inf",
           "--sweep", "gamma=0:1:2"]


@pytest.mark.parametrize("argv", list(_non_finite_cases()), ids="_".join)
def test_non_finite_flag_value_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "number" in err


@pytest.mark.parametrize("argv", [
    ["scatter", "--k", "2", "--alpha", "inf"],
    ["scatter", "--k", "2", "--alpha=-inf"],
    ["spectrum", "--op", "robin", "--alpha", "inf"],
    ["boundstate", "--alpha", "inf"],
])
def test_alpha_keeps_its_infinite_values(argv):
    run_json(argv)


@pytest.mark.parametrize("name, flag", _FLOAT_FLAGS)
def test_every_float_flag_stays_sweepable(name, flag):
    # in the first variant that reads it
    dest = flag.lstrip("-").replace("-", "_")
    value = {"alpha": -1.0, "s": -2.0, "x_max": 35.0}.get(dest, 1.0)
    key = next(key for key, variant in cli._COMMANDS[name]["variants"].items()
               if dest in variant)
    payload = run_json(_sweep_of(_variant_argv(name, key), f"{dest}={value}:{value}:1"))
    point = payload["result"]["points"][0]
    assert point["params"] == {dest: value}
    assert "result" in point


@pytest.mark.parametrize("name, flags, alpha", [
    ("anomaly", [], "-1e-200"),
    ("anomaly", ["--t", "3"], "-1e-320"),
    ("spectrum", ["--op", "robin"], "-1e-320"),
    ("spectrum", ["--op", "robin"], "-1.49e-154"),
])
def test_robin_energy_consumers_refuse_an_underflowing_energy(name, flags, alpha):
    # as boundstate does: an energy -alpha^2 that is not a normal float would
    # be reported as -0.0, with residual and tolerance 0
    code, text = run_cli([name, *flags, f"--alpha={alpha}"])
    assert code == 1
    payload = json.loads(text)
    jsonschema.validate(payload, cli.load_schema("error"))
    assert payload["error"]["code"] == "precondition"
    # also as a sweep point, next to one that is served
    code, text = run_cli(["sweep", name, *flags, "--sweep", f"alpha={alpha}:-1:2"])
    assert code == 1
    points = json.loads(text)["result"]["points"]
    assert points[0]["error"]["code"] == "precondition"
    assert "result" in points[1]
    # a spectrum of another op does not read --alpha, so it is refused
    with pytest.raises(SystemExit) as exc:
        run_cli(["spectrum", "--op", "well", f"--alpha={alpha}"])
    assert exc.value.code == 2


@pytest.mark.parametrize("name, flags", [
    ("anomaly", []), ("boundstate", []), ("spectrum", ["--op", "robin"])])
def test_robin_energy_consumers_refuse_an_overflowing_energy(name, flags):
    # -alpha^2 overflows from |alpha| = 2^512 on; it was reported as "-inf"
    # (and the anomaly and its residual as "nan")
    for alpha in ("-1e200", repr(-2.0**512), "-inf"):
        code, text = run_cli([name, *flags, f"--alpha={alpha}"])
        assert code == 1
        payload = json.loads(text)
        jsonschema.validate(payload, cli.load_schema("error"))
        assert payload["error"]["code"] == "precondition"
    code, text = run_cli(["sweep", name, *flags, "--sweep", "alpha=-1e200:-1:2"])
    assert code == 1
    points = json.loads(text)["result"]["points"]
    assert points[0]["error"]["code"] == "precondition"
    assert "result" in points[1]


@pytest.mark.parametrize("alpha", [repr(-2.0**512 * (1.0 - 2.0**-53)), "-1e154"])
def test_largest_robin_energies_are_served(alpha):
    energy = -float(alpha) ** 2
    assert run_json(["boundstate", f"--alpha={alpha}"])["result"]["E"] == energy
    level = run_json(["spectrum", "--op", "robin", f"--alpha={alpha}"])["result"]
    assert level["discrete"][0]["value"] == energy


@pytest.mark.parametrize("flags", [["--alpha=-1e100"], ["--alpha=-1e75", "--t=1e10"]])
def test_anomaly_refuses_overflowing_terms(flags):
    # (H psi, H psi) = alpha^4 overflows from |alpha| = 2^256 on, t*alpha^4
    # sooner; their difference was reported as "nan"
    code, text = run_cli(["anomaly", *flags])
    assert code == 1
    assert json.loads(text)["error"]["code"] == "precondition"
    assert run_json(["anomaly", "--alpha=-1e75"])["result"]["residual"] == 0.0


@pytest.mark.parametrize("s", ["-2", "1", "2", "3"])
@pytest.mark.parametrize("samples", ["-1", "0", "1"])
def test_classical_refuses_fewer_than_two_samples(s, samples, capsys):
    # 0 ended in an IndexError traceback, 1 reported a drift of 0.0 from
    # a single sample
    code, text = run_cli(["classical", "--s", s, "--samples", samples])
    assert code == 1
    payload = json.loads(text)
    jsonschema.validate(payload, cli.load_schema("error"))
    assert payload["error"]["code"] == "precondition"
    assert "Traceback" not in capsys.readouterr().err


def test_classical_zero_energy_drift_stays_at_rounding():
    # H0 = 0.25^2 - 0.0625 = 0 exactly; this printed an energy drift of 6.9e282
    result = run_json(["classical", "--s", "-2", "--g", "-0.0625", "--p0", "0.25"])["result"]
    assert result["energy_drift"] <= 1e-12


def test_classical_names_the_run_to_infinity():
    # V = q^3 is unbounded below: by the default t_end = 5 the particle has
    # run to q = -inf, and DOP853 gave up with "integrator gave up: Required
    # step size is less than spacing between numbers"; then its time was
    # given to 6 digits, "near t=2.16324"
    code, text = run_cli(["classical", "--s", "3"])
    assert code == 1
    payload = json.loads(text)
    jsonschema.validate(payload, cli.load_schema("error"))
    assert payload["error"]["code"] == "singularity-reached"
    message = payload["error"]["message"]
    assert message.startswith("trajectory runs to q = -inf at t=2.16323907")
    t_escape = float(message.rsplit("=", 1)[1])
    assert t_escape == pytest.approx(_mp_singular_time(1.0, 3, 0.25), rel=1e-12)
    # a horizon short of the escape is served
    result = run_json(["classical", "--s", "3", "--t-end", "1"])["result"]
    assert result["deviation"] <= 1e-10 * result["predicted_drift"]


def test_classical_at_a_non_integer_exponent_names_the_origin():
    # q reaches 0 in finite time and q^s is undefined below it; this exited
    # with "stiffness" and a numpy RuntimeWarning on stderr
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "saext.cli", "classical", "--s", "2.5"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == ""
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, cli.load_schema("error"))
    assert payload["error"]["code"] == "singularity-reached"
    message = payload["error"]["message"]
    assert message.startswith("trajectory reaches the origin at t=0.82896699")
    t_fall = float(message.rsplit("=", 1)[1])
    assert t_fall == pytest.approx(_mp_singular_time(1.0, 2.5, 0.25), rel=1e-12)


@pytest.mark.parametrize("argv, code", [
    (["classical", "--s", "2", "--g", "1e300", "--p0", "1e300"], "precondition"),
    (["classical", "--s", "3", "--q0", "1e100", "--g", "-1"], "singularity-reached"),
    (["classical", "--s", "4", "--p0", "1e300"], "precondition"),
])
def test_classical_out_of_range_input_keeps_stderr_empty(argv, code):
    # numpy overflow warnings from the series of x - sin x and from the
    # step-size norms of DOP853 reached stderr before the structured error;
    # DOP853 ended the last two in "stiffness".  H = p0^2 overflows in the first
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "saext.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == ""
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, cli.load_schema("error"))
    assert payload["error"]["code"] == code


def test_a_harmonic_well_whose_cube_of_w_overflows_runs_clean():
    # w = 2 sqrt(g) = 2e150, and w**3 on a float raised OverflowError: exit 1
    # with the message "(34, 'Numerical result out of range')"
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "saext.cli",
                           "classical", "--s", "2", "--g", "1e300"],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    result = json.loads(proc.stdout)["result"]
    assert result["energy_drift"] <= 1e-15
    assert result["deviation"] <= 1e-15 * result["drift"]


def _run_process(argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "saext.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("argv", [
    ["classical", "--s", "4", "--t-end", "1e5"],  # a quartic well, 1e5 / 1.4 periods
    ["classical", "--s", "1e300", "--g", "1e-300"],  # q^s jumps from 0 to inf at q = 1
    ["classical", "--s", "-1e300", "--g", "0", "--p0", "-1"],
])
def test_classical_work_is_bounded(argv):
    # DOP853 ran for more than a minute on the first and never ended on the
    # other two; the energy integral's work does not grow with t_end.  The
    # second on top of a closed flow's run leaves the interpreter's and
    # numpy's start-up, which a loaded machine can slow, out of the bound
    started = time.perf_counter()
    _run_process(["classical", "--s", "-2"])
    closed = time.perf_counter() - started
    started = time.perf_counter()
    proc = _run_process(argv)
    assert time.perf_counter() - started < 1.0 + closed
    assert proc.returncode in (0, 1)
    assert proc.stderr == ""


@pytest.mark.parametrize("argv", [
    ["deficiency", "--op", "hamiltonian", "--lam", "1e300"],
    ["geometry", "--metric", "polar", "--probe", "bump:1e300,1e301"],
    ["paradox", "--id", "3", "--a", "1e-300"],
    ["deficiency", "--op", "momentum", "--interval", "0,1e300", "--lam", "1e300"],
    ["deficiency", "--op", "momentum", "--interval", "-1e300,0"],
    ["boundstate", "--alpha", "-1", "--x-max", "-1e300"],
    ["boundstate", "--alpha", "-1e100", "--x-max", "1e300"],
    ["spectrum", "--op", "well", "--a", "1e-300"],
    ["spectrum", "--op", "momentum", "--interval", "0,1e-310", "--n-min", "-1", "--n-max", "1"],
    ["spectrum", "--op", "momentum", "--interval=-1.7e308,1.7e308"],
    ["classical", "--s", "1e300", "--g", "1e-300"],
    ["classical", "--s", "-1e300", "--q0", "1e300", "--g", "2.5", "--t-end", "1e5"],
    ["deficiency", "--op", "time", "--interval", "1e300,inf"],
    ["deficiency", "--op", "hamiltonian", "--interval", "1e300,inf"],
    ["deficiency", "--op", "momentum", "--interval", "1e16,1.0000000000000002e16"],
    ["boundstate", "--alpha", "-1", "--x-max", "1e-320"],
    ["geometry", "--metric", "polar", "--probe", "bump:1e-300,2e-300"],
    ["geometry", "--metric", "flat", "--probe", "bump:1e-320,2e-320"],
    ["paradox", "--id", "2", "--seed", "-5"],
    ["paradox", "--id", "4", "--l", "1e-310"],
    ["paradox", "--id", "4", "--l", "1.7e308"],
    ["paradox", "--id", "3", "--a", "1e150"],
    ["deficiency", "--op", "momentum", "--interval=-1e308,1e308"],
])
def test_overflow_is_a_structured_error_not_a_nan(argv):
    # the first two printed RuntimeWarnings and exited 0, with an
    # adjoint_residual of 0.0 behind nan residuals, and a defect of
    # {"re": "nan", "im": "nan"}; the others printed RuntimeWarnings from
    # the derivative, the deficiency basis and the Robin state before
    # their error; the well exited 0 with "inf" levels, the momentum box
    # of length 1e-310 with levels "-inf" and "inf", and the box whose
    # length overflows with every level 0.0.  The classical flows exited 0
    # with an energy drift of 6.2e298 (V is a wall whose turning point
    # rounds onto q0 = 1) and a deviation of 1.4e288 (1 + s/2 multiplies
    # rounding by 5e299).  The box [-1e300, 0] ended in an invalid-value
    # error, "math range error", from the norm's expm1.  The grids of the
    # deficiency bases on [1e300, inf) and on a box two ulps wide, and of a
    # bound state cut off at 1e-320, repeated samples in floats, and ended
    # in an invalid-value error, "xs must be strictly increasing"; the
    # geometry probes with no sample inside their support exited 0 with
    # every check 0.0 (the flat one after an overflow warning); and a
    # negative seed ended in numpy's "expected non-negative integer".  The
    # cosine-basis matrix at l = 1e-310 exited 0 with RuntimeWarnings and an
    # odd-sublattice value of "-inf", and at l = 1.7e308 with a deviation of
    # 2.35e-308 against a tolerance of 0.0; the box of width 1e150 ended in
    # "float division by zero", as its levels' norms underflow to 0; and
    # the interval whose length overflows printed numpy's RuntimeWarnings
    proc = _run_process(argv)
    assert proc.returncode == 1
    assert proc.stderr == ""
    payload = json.loads(proc.stdout)
    jsonschema.validate(payload, cli.load_schema("error"))
    assert payload["error"]["code"] == "precondition"
    intervals = [text for flag, text in zip(argv, argv[1:]) if flag == "--interval"]
    intervals += [arg.removeprefix("--interval=") for arg in argv
                  if arg.startswith("--interval=")]
    for text in intervals if argv[0] == "deficiency" else []:
        a, b = map(float, text.split(","))
        assert f"[{a!r}, {b!r}]" in payload["error"]["message"]


@pytest.mark.parametrize("argv", [
    ["anomaly", "--alpha", "-2", "--tol", "0"],
    ["anomaly", "--alpha", "-2", "--t=nan"],
    ["classical", "--s", "3", "--tol", "1e-3"],
])
def test_a_usage_error_shows_the_subcommands_usage(argv, capsys):
    # it showed the top-level usage, "usage: saext [-h] [--version] subcommand ..."
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: saext {argv[0]} ")


#: (subcommand, flag) of each flag that every variant of its subcommand must be given.
_MUST_GIVE = [(name, flags[0]) for name, spec in sorted(cli._COMMANDS.items())
              for dest, (flags, _) in cli._flags_of(name).items()
              if all(variant.get(dest) is ... for variant in spec["variants"].values())]


@pytest.mark.parametrize("name, flag", _MUST_GIVE)
def test_a_flag_that_must_be_given_shows_without_brackets_in_the_usage(name, flag, capsys):
    usage = cli._command_parser(name).format_usage()
    assert re.search(rf"\s{flag}\s", usage) and f"[{flag} " not in usage
    argv = _variant_argv(name, None)
    i = argv.index(flag)
    with pytest.raises(SystemExit) as exc:
        run_cli(argv[:i] + argv[i + 2:])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    # in a sweep an axis may stand in for a numeric one
    if "required" not in cli._flags_of(name)[flag.lstrip("-").replace("-", "_")][1]:
        assert f"[{flag} " in cli._command_parser(name, sweep=True).format_usage()


def test_an_unknown_flag_before_the_subcommand_shows_the_top_level_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--foo", "classical", "--s", "3"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: saext [-h] [--version] subcommand")


@pytest.mark.parametrize("argv", [
    ["--foo", "classical", "--s", "3", "--zzz"],
    ["--foo", "sweep", "scatter", "--alpha", "-1", "--sweep", "k=1:2:2", "--zzz"],
])
def test_junk_on_both_sides_of_the_subcommand_names_the_tokens_before_it(argv, capsys):
    # the top level takes no value, so what precedes the subcommand is its error alone
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: saext [-h] [--version] subcommand")
    assert err.endswith("saext: error: unrecognized arguments: --foo\n")


def test_the_top_level_parser_only_picks_the_subcommand():
    (sub,) = [action for action in cli.build_parser()._actions
              if isinstance(action, argparse._SubParsersAction)]
    assert sorted(sub.choices) == sorted([*cli._COMMANDS, "sweep"])
    # a one-shot's flags are its _command_parser's alone
    assert all(sub.choices[name]._actions == [] for name in cli._COMMANDS)


@pytest.mark.parametrize("argv, built", [
    (GOLDEN["classical"], [("classical", False)]),
    (GOLDEN["sweep"], [("scatter", True)]),
    (["boundstate"], [("boundstate", False)]),
    (["sweep", "scatter", "--k", "1"], [("scatter", True)]),
    (["--version"], []),
    (["--foo", "classical", "--s", "3"], []),
])
def test_main_builds_one_command_parser_per_call(argv, built, monkeypatch):
    calls = []
    real = cli._command_parser

    def counted(name, sweep=False):
        calls.append((name, sweep))
        return real(name, sweep)

    monkeypatch.setattr(cli, "_command_parser", counted)
    _in_process(argv)
    assert calls == built


@pytest.mark.parametrize("argv", [
    ["deficiency", "--op", "momentum", "--lam", "1e300"],
    ["deficiency", "--op", "momentum", "--interval", "0,1e300"],
    ["paradox", "--id", "3", "--a", "1e300"],
    ["classical", "--s", "2", "--g", "1e300", "--p0", "1e300"],
    ["sweep", "deficiency", "--op", "momentum", "--sweep", "lam=1:1e300:2"],
])
def test_out_of_range_numbers_are_a_structured_error(argv, capsys):
    # an OverflowError or ZeroDivisionError from the arithmetic ended in a
    # traceback; a sweep records the point and goes on.  A momentum
    # solution whose norm overflows expm1 is a precondition refusal that
    # names the interval, as a solution past the float range is, and so are
    # a classical flow whose energy p0^2 overflows and a box whose levels'
    # norms underflow
    code, text = run_cli(argv)
    assert code == 1
    payload = json.loads(text)
    if argv[0] == "sweep":
        jsonschema.validate(payload, cli.load_schema("sweep"))
        first, last = payload["result"]["points"]
        assert "result" in first and last["error"]["code"] == "precondition"
    else:
        jsonschema.validate(payload, cli.load_schema("error"))
        assert payload["error"]["code"] == "precondition"
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["-1e-320", "-5.55e-170", "-1.49e-154"])
def test_boundstate_refuses_an_underflowing_energy(alpha):
    code, text = run_cli(["boundstate", f"--alpha={alpha}"])
    assert code == 1
    payload = json.loads(text)
    jsonschema.validate(payload, cli.load_schema("error"))
    assert payload["error"]["code"] == "precondition"
    # the smallest |alpha| whose energy is a normal float is still served
    state = run_json(["boundstate", f"--alpha={-2.0**-511!r}"])["result"]
    assert state["bound_state"]["norm"] == pytest.approx(1.0, abs=1e-8)


# -- argv fuzzer ------------------------------------------------------------

_FUZZ_FLOATS = ["0", "-0.0", "1", "-1", "2.5", "1e-300", "-1e-300", "1e300", "-1e300",
                "1e-310", "1e150", "1.7e308", "inf", "-inf", "nan"]
_FUZZ_INTS = ["-1", "0", "1", "2", "64"]
#: Values of the flags that take neither a float nor an int.
_FUZZ_TEXTS = {
    "--interval": ["0,1", "0,inf", "-inf,inf", "1,0", "0,1e300", "1e-300,1", "-1e300,0",
                   "0,1e-310", "-1e308,1e308", "a"],
    "--probe": ["bump:1,2", "bump:0.5,1.5", "bump:2,1", "bump:1e-300,1e300", "box:1,2"],
    "--units": ["hbar=2,two_m=3", "hbar=0", "hbar=1e300", "hbar=1e-300", "planck=1"],
}


def _fuzz_values(flags, kwargs):
    if "choices" in kwargs:
        return [str(choice) for choice in kwargs["choices"]]
    if kwargs.get("type") is float:
        return _FUZZ_FLOATS
    if kwargs.get("type") is int:
        return _FUZZ_INTS
    return _FUZZ_TEXTS[flags[0]]


#: Where a fuzzed argv writes, {tmp} standing for a new folder: stdout, stdout
#: by an empty PATH, a new file, and two paths that cannot be opened (under a
#: missing folder, and the folder itself), which are usage errors.
_FUZZ_OUTS = [None, "", "{tmp}/new.out", "{tmp}/missing/new.out", "{tmp}"]
_UNOPENABLE = _FUZZ_OUTS[3:]


@contextlib.contextmanager
def _fuzz_folder(argv):
    """(argv with {tmp} as a new folder, its --out PATH or ''); the folder goes after."""
    with tempfile.TemporaryDirectory() as folder:
        argv = [arg.replace("{tmp}", folder) for arg in argv]
        yield argv, argv[argv.index("--out") + 1] if "--out" in argv else ""


@st.composite
def _fuzz_argv(draw):
    """A variant of a subcommand or a sweep of one, its required flags, and some more flags.

    The more flags are mostly the variant's own; now and then one is a
    flag of another variant.  The argv ends with an optional --csv and an
    optional --out (see _FUZZ_OUTS).
    """
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    spec, flags_of = cli._COMMANDS[name], cli._flags_of(name)
    key = draw(st.sampled_from(list(spec["variants"])))
    variant = spec["variants"][key]
    read = [dest for dest in flags_of if dest in variant]
    chosen = [dest for dest in read if variant[dest] is ...]
    chosen += draw(st.lists(st.sampled_from(read), max_size=3))  # repeats included
    chosen += draw(st.lists(st.sampled_from(list(flags_of)), max_size=1))
    argv = [name] if key is None else [name, f"--{spec['select']}={key}"]
    argv += [f"{flags[0]}={draw(st.sampled_from(_fuzz_values(flags, kwargs)))}"
             for flags, kwargs in map(flags_of.get, chosen)]
    if draw(st.booleans()):
        numeric = [flags_of[dest] for dest in variant if dest not in cli._SHARED
                   and flags_of[dest][1].get("type") in (int, float)
                   and "choices" not in flags_of[dest][1]]
        for flags, kwargs in draw(st.lists(st.sampled_from(numeric), max_size=2)) if numeric else []:
            start, stop = (draw(st.sampled_from(_fuzz_values(flags, kwargs))) for _ in "ab")
            axis = f"{cli._dest_of(flags)}={start}:{stop}:{draw(st.integers(0, 4))}"
            argv += ["--sweep", axis]
        argv = ["sweep", *argv]
    out = draw(st.sampled_from(_FUZZ_OUTS))
    return argv + draw(st.sampled_from([[], ["--csv"]])) + ([] if out is None else ["--out", out])


@settings(max_examples=400, deadline=None)
@given(_fuzz_argv())
def test_fuzzed_argv_ends_in_exit_0_1_or_2(argv):
    # "always" records every warning, also one that an earlier example raised
    # at the same site; the only stderr is argparse's usage error
    # an --out that cannot be opened is a usage error, and a usage error
    # writes no file
    err = io.StringIO()
    with _fuzz_folder(argv) as (run_argv, out), warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code, text = run_cli(run_argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            assert err.getvalue().startswith("usage: saext"), argv
            assert not os.path.isfile(out), argv
        else:
            assert code in (0, 1), argv
            assert not set(argv) & set(_UNOPENABLE), argv
            assert err.getvalue() == "", argv
            if out:
                assert text == "", argv
                text = Path(out).read_text()
            if "--csv" not in argv:
                # an error envelope, a sweep's points or the subcommand's result
                payload = json.loads(text)
                name = "error" if "error" in payload else argv[0]
                jsonschema.validate(payload, cli.load_schema(name))
    assert not caught, (argv, [f"{w.filename}:{w.lineno}: {w.message}" for w in caught])


@settings(max_examples=25, deadline=None)
@given(_fuzz_argv())
def test_fuzzed_argv_against_a_closed_reader_ends_in_exit_0_1_or_2(argv):
    # as `saext ... | head -c 10`: a reader that closes stdout early gives
    # exit 1 with an empty stderr, or exit 0 where all was written before
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    with _fuzz_folder(argv) as (run_argv, _):
        proc = subprocess.Popen([sys.executable, "-m", "saext.cli", *run_argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.read(10)
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert code in (0, 1, 2), argv
    assert code == 2 or not set(argv) & set(_UNOPENABLE), argv
    assert "Traceback" not in stderr, argv
    if code != 2:
        assert stderr == "", argv
