"""The benchmark's closed forms against values worked out by hand."""

import ast
import json
import math

import numpy as np
import pytest

import inputs
import oracles as o
import run
from conftest import BENCH


def test_robin_energy_and_reflection():
    assert o.robin_energy(-3.0) == -9.0
    # (1 + i)/(-1 + i) = -i, so the phase shift -arg R is pi/2
    assert abs(o.reflection(1.0, 1.0) - (-1j)) < 1e-15
    assert abs(o.reflection_phase(1.0, 1.0) - math.pi / 2) < 1e-15
    # Neumann (alpha = 0) reflects with R = 1 and no phase
    assert o.reflection(2.5, 0.0) == 1.0
    assert o.reflection_phase(2.5, 0.0) == 0.0
    assert abs(o.angle_gap(0.1, 2 * math.pi - 0.1) - 0.2) < 1e-15


def test_extension_maps():
    assert abs(o.halfline_alpha(math.pi / 2)) < 1e-15  # tan(pi/4) = 1
    assert o.halfline_alpha(0.0) == -1 / math.sqrt(2.0)
    assert o.momentum_theta(0.0) == 0.0  # (1 + e)/(e + 1) = 1
    assert abs(o.momentum_theta(math.pi) - math.pi) < 1e-12  # (1 - e)/(e - 1) = -1


def test_ring_spectrum():
    lam = o.ring_eigenvalues(0.0, 8)
    assert lam[0] == 0.0
    assert abs(lam[4] - 16j) < 1e-12  # phi = pi: -8i(-1 - 1)
    assert o.ring_mismatch(lam[[0, 1, 7]], 0.0, 8) < 1e-15
    assert o.ring_mismatch([0.0, 1.0], 0.0, 8) > 0.1


def test_cosine_basis_matrix():
    p = o.cosine_basis_matrix(1.0, 2)
    assert p[0, 0] == p[1, 1] == 0.0
    assert abs(p[0, 1] - 16j / 3) < 1e-15  # m=1, n=2: 4i*4/(4-1)
    assert abs(p[1, 0] + 4j / 3) < 1e-15   # m=2, n=1: 4i*1/(1-4)
    defect = p.conj().T - p
    assert abs(defect[0, 1] + 4j) < 1e-14  # -4i/l on the odd sublattice


def test_harmonic_drift_and_overlaps():
    # q = cos 2t: int_0^{pi/2} 2 cos^2 2t dt = pi/2
    assert abs(o.harmonic_dilatation_drift(1.0, 1.0, 0.0, math.pi / 2) - math.pi / 2) < 1e-15
    assert o.plane_wave_overlap(1.5, 1.5, 2.0) == 2.0
    assert abs(o.plane_wave_overlap(0.0, 2 * math.pi, 1.0)) < 1e-15
    xs = np.array([-1.0, 0.0, 0.5, 2.0])
    assert np.allclose(o.smooth_bump(xs, 0.0, 1.0), [0.0, math.exp(-1.0), math.exp(-4 / 3), 0.0])


def test_sweep_check_accepts_closed_form_and_rejects_a_miss():
    k = np.linspace(0.5, 2.0, 4)
    r = o.reflection(k, -1.0)
    cols = np.array([k, k, np.full(4, -1.0), r.real, r.imag, np.abs(r),
                     o.reflection_phase(k, -1.0)])
    assert run.sweep_columns_ok(cols, -1.0, 0.5, 2.0, 4)
    bad = cols.copy()
    bad[4, 2] += 1e-9
    assert not run.sweep_columns_ok(bad, -1.0, 0.5, 2.0, 4)
    assert not run.sweep_columns_ok(cols[:, :3], -1.0, 0.5, 2.0, 4)


def _acceptance_golden() -> dict:
    tree = ast.parse((BENCH.parent / "tests" / "test_acceptance.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "_GOLDEN":
            return ast.literal_eval(node.value)
    raise AssertionError("_GOLDEN not found")


def _token(t: str):
    try:
        return float(t)
    except ValueError:
        return t


def test_golden_shapes_match_the_acceptance_suite():
    ours = inputs.golden_argv(inputs.GOLDEN_VALUES)
    theirs = _acceptance_golden()
    assert list(ours) == list(theirs)
    for name in ours:
        assert [_token(t) for t in ours[name]] == [_token(t) for t in theirs[name]]


def test_seeded_inputs_repeat():
    assert inputs.library_inputs(5) == inputs.library_inputs(5)
    assert inputs.golden_values(5) == inputs.golden_values(5)
    assert inputs.sweep_inputs(5) != inputs.sweep_inputs(6)


def test_metric_tables_match_benchmark_json():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


@pytest.fixture(scope="module")
def calls():
    worker = pytest.importorskip("worker")
    return worker, worker.library_calls(inputs.library_inputs(7))


def test_library_oracles_hold_except_the_known_fault(calls):
    worker, all_calls = calls
    # one call per layer (the dense n=1024 solve is left out for time), plus
    # every hermiticity call, which is where the known fault sits
    chosen = {c.layer: c for c in all_calls if c.layer != "spectral.dmeigs_dense"}
    chosen = list(chosen.values()) + [c for c in all_calls
                                      if c.layer == "discrete.hermiticity"]
    _, failed = worker.run_pass(chosen, worker.Tracer(False))
    assert set(failed) == worker.KNOWN_FAULTS
