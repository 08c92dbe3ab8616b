"""Worker process of the benchmark: warm, in-process calls into saext.

    python3 perfbench/worker.py library --seed N --seconds S [--trace 0|1]
    python3 perfbench/worker.py probe --seed N

``library`` imports saext, runs one untimed warm-up pass over the call list
and prints ``ready``; with ``--seconds`` above 0 it then runs whole timed
passes until that many seconds have gone by and prints one JSON line.
``probe`` (traced runs only) times the CLI layer in-process and one library
pass call by call, and prints its spans as one JSON line.

Only names in ``saext.__all__`` (and the public ``__all__`` of the modules
listed there), ``saext.cli.main`` and ``saext.cli.load_schema`` are used.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

import saext
from saext import spectral

import inputs
import oracles as o
from spans import Tracer

HERMITICITY_SIZES = (16, 24, 32, 40, 48, 56, 64, 72, 80, 88, 96, 128)

#: Calls that miss their oracle at every seed because of a known fault:
#: discrete._GL_NODES = 200 quadrature nodes stop resolving cos/sin products
#: from M ~ 110 on (entries off by 72 at M = 128).
KNOWN_FAULTS = frozenset({
    "cosine_basis_momentum_matrix(l=1, M=128)",
    "hermiticity_defect_demo(l=1, M=128)",
})


class Call(NamedTuple):
    layer: str
    label: str
    fn: Callable
    args: tuple
    check: Callable


def _half_over_r(r):
    with np.errstate(divide="ignore"):
        return 0.5 / r


def _bound_state_ok(state, alpha: float) -> bool:
    exact = math.sqrt(2.0 * abs(alpha)) * np.exp(alpha * state.psi.xs)
    return (o.rel_err(state.energy, o.robin_energy(alpha)) < 1e-7
            and np.max(np.abs(state.psi.values - exact)) <= 1e-12 * exact[0])


def _hermiticity_ok(report, l: float) -> bool:
    q = report.quantities
    return (q["defect_odd_sublattice_max_deviation"].value <= 1e-10
            and q["defect_even_sublattice_max"].value <= 1e-10
            and abs(q["defect_odd_sublattice_value"].value + 4j / l) <= 1e-12)


def _eigvec_ok(report, n: int) -> bool:
    q = report.quantities
    return (abs(q["eigenvector_expectation"].value) <= 1e-8
            and q["canonical_target"].value == 1j
            and q["eigenpair_residual"].value <= 1e-9 * n)


def library_calls(p: dict) -> list:
    """One pass of the library workload, in a fixed order."""
    calls = []

    def add(layer, label, fn, args, check):
        calls.append(Call(layer, label, fn, args, check))

    for a in p["anomaly_alphas"]:
        add("anomaly.quadrature", f"anomaly_quadrature({a!r})",
            saext.anomaly_quadrature, (a,),
            lambda r, a=a: o.rel_err(r.anomaly, o.robin_energy(a)) < 1e-7
            and o.rel_err(r.bound_energy, o.robin_energy(a)) < 1e-12)
        add("spectral.bound_state", f"bound_state({a!r})", saext.bound_state, (a,),
            lambda r, a=a: _bound_state_ok(r, a))

    catalog = [
        (saext.OperatorSpec.momentum(saext.Interval.finite(0.0, 1.0)), (1, 1)),
        (saext.OperatorSpec.momentum(saext.Interval.half_line()), (1, 0)),
        (saext.OperatorSpec.momentum(saext.Interval.full_line()), (0, 0)),
        (saext.OperatorSpec.free_hamiltonian(), (1, 1)),
        (saext.OperatorSpec.time_operator(), (1, 0)),
    ]
    reports = [saext.solve_deficiency(spec) for spec, _ in catalog]
    for _ in range(8):
        for (spec, indices), report in zip(catalog, reports):
            name = f"{spec.kind} on {spec.interval.kind}"
            add("deficiency.solve", f"solve_deficiency({name})",
                saext.solve_deficiency, (spec,),
                lambda r, i=indices: (r.n_plus, r.n_minus) == i)
            add("deficiency.verify", f"verify_deficiency_numerically({name})",
                saext.verify_deficiency_numerically, (spec, report),
                lambda r: r <= 1e-4)

    xs = np.linspace(0.0, 1.0, 2001)
    underlying = saext.GridFunction(xs, np.sin(np.pi * xs) ** 2 + 0j)
    for g in p["gammas"]:
        theta = o.momentum_theta(g)
        add("extension.bc_map", f"momentum_bc_from_unitary({g!r})",
            saext.momentum_bc_from_unitary, (g,),
            lambda r, t=theta: o.angle_gap(r.value, t) <= 1e-12)
        add("extension.bc_map", f"halfline_bc_from_unitary({g!r})",
            saext.halfline_bc_from_unitary, (g,),
            lambda r, g=g: o.rel_err(r.value, o.halfline_alpha(g)) <= 1e-10)
        add("extension.assemble", f"assemble_domain_element({g!r})",
            saext.assemble_domain_element, (underlying, g, reports[0]),
            lambda r, t=theta: abs(r.values[-1] - np.exp(1j * t) * r.values[0])
            <= 1e-10 * abs(r.values[0]))

    for a in p["shooting_alphas"]:
        add("spectral.shooting", f"bound_state_shooting({a!r})",
            saext.bound_state_shooting, (a, (-1.5 * a * a, -0.5 * a * a)),
            lambda r, a=a: o.rel_err(r, o.robin_energy(a)) < 1e-7)

    scale_free = saext.PowerLawPotential(1.0, -2.0)
    harmonic = saext.PowerLawPotential(1.0, 2.0)
    drift = o.harmonic_dilatation_drift(1.0, 1.0, 0.25, 5.0)
    for _ in range(20):
        add("classical.drift_report", "dilatation_drift_report(s=-2)",
            saext.dilatation_drift_report, (scale_free, (1.0, 0.25), 5.0),
            lambda r: r.max_drift <= 1e-7)
        add("classical.drift_report", "dilatation_drift_report(s=2)",
            saext.dilatation_drift_report, (harmonic, (1.0, 0.25), 5.0),
            lambda r: o.rel_err(r.max_drift, drift) <= 1e-6)

    rs = np.linspace(0.05, 6.0, 4001)
    for c1, c2, w1, w2 in p["bumps"]:
        f = saext.GridFunction(rs, o.smooth_bump(rs, c1, w1), weight="r")
        g = saext.GridFunction(rs, o.smooth_bump(rs, c2, w2), weight="r")
        add("geometry.defect", f"radial_symmetry_defect({c1:.3f},{c2:.3f})",
            saext.radial_symmetry_defect, (_half_over_r, f, g),
            lambda r: abs(r) <= 1e-8)
        add("geometry.commutator", f"commutator_preservation_check({c1:.3f})",
            saext.commutator_preservation_check, (_half_over_r, f),
            lambda r: r <= 1e-6)

    for m in HERMITICITY_SIZES:
        exact = o.cosine_basis_matrix(1.0, m)
        add("discrete.hermiticity", f"cosine_basis_momentum_matrix(l=1, M={m})",
            saext.cosine_basis_momentum_matrix, (1.0, m),
            lambda r, e=exact: np.max(np.abs(r.p - e)) <= 1e-10)
        add("discrete.hermiticity", f"hermiticity_defect_demo(l=1, M={m})",
            saext.hermiticity_defect_demo, (1.0, m),
            lambda r: _hermiticity_ok(r, 1.0))

    t = p["dense_theta"]
    add("spectral.dmeigs_dense", f"discretized_momentum_eigs({t!r}, 1024)",
        saext.discretized_momentum_eigs, (t, 1024, 16),
        lambda r, t=t: len(r) == 16 and o.ring_mismatch(r, t, 1024) <= 1e-9)
    for t in p["arnoldi_thetas"]:
        add("spectral.dmeigs_arnoldi", f"discretized_momentum_eigs({t!r}, 1025)",
            saext.discretized_momentum_eigs, (t, 1025, 16),
            lambda r, t=t: len(r) == 16 and o.ring_mismatch(r, t, 1025) <= 1e-9)

    for t, mode in p["eigvec"]:
        add("discrete.eigvec_commutator", f"eigenvector_commutator_demo({t!r}, mode={mode})",
            saext.eigenvector_commutator_demo, (t, 2048, mode),
            lambda r: _eigvec_ok(r, 2048))
    for s in p["trace_seeds"]:
        add("discrete.trace_commutator", f"trace_commutator_check(64, seed={s})",
            saext.trace_commutator_check, (64, 100, s),
            lambda r: r.quantities["max_scaled_trace"].value <= 1e-10
            and r.quantities["naive_canonical_trace"].value == 64j)

    ts = np.linspace(0.0, math.pi, 2001)
    for k in p["derivative_ks"]:
        add("core.derivative", f"derivative(sin({k!r} x))", saext.derivative,
            (saext.GridFunction(ts, np.sin(k * ts) + 0j),),
            lambda r, k=k: np.max(np.abs(r.values - k * np.cos(k * ts))) <= 1e-7 * k)
    for a, b in p["plane_waves"]:
        add("core.inner_product", f"inner_product(e^{a!r}ix, e^{b!r}ix)",
            saext.inner_product,
            (saext.GridFunction(xs, np.exp(1j * a * xs)),
             saext.GridFunction(xs, np.exp(1j * b * xs))),
            lambda r, a=a, b=b: abs(r - o.plane_wave_overlap(a, b, 1.0)) <= 1e-10)
    return calls


def run_pass(calls: list, tracer: Tracer) -> tuple:
    """Time each call alone, then check it. Returns (seconds, failed labels)."""
    seconds = 0.0
    failed = []
    for call in calls:
        error = None
        t0 = time.perf_counter()
        try:
            result = call.fn(*call.args)
        except Exception as exc:  # a raising call is a failed operation
            error = exc
        t1 = time.perf_counter()
        seconds += t1 - t0
        tracer.add(call.layer, t0, t1, tracer.current)
        if error is None:
            try:
                ok = bool(call.check(result))
            except Exception as exc:  # a malformed result misses its oracle
                ok, error = False, exc
        if error is not None or not ok:
            failed.append(call.label)
    return seconds, failed


def run_library(seed: int, seconds: float, trace: bool) -> dict:
    tracer = Tracer(trace)
    calls = library_calls(inputs.library_inputs(seed))
    run_pass(calls, Tracer(False))
    print("ready", flush=True)
    if seconds <= 0:
        return {}
    passes, failed = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        with tracer.span("library.pass"):
            pass_s, pass_failed = run_pass(calls, tracer)
        passes.append(pass_s)
        failed += pass_failed
    return {"passes": passes, "calls": len(calls) * len(passes), "failed": failed,
            "unexpected": sorted(set(failed) - KNOWN_FAULTS), "spans": tracer.spans}


def _in_process(cli, argv: list) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"saext {' '.join(argv)} exited {code}")
    return buf.getvalue()


def _geometry_compute(a: float = 1.0, b: float = 2.0) -> None:
    rs = np.linspace(0.0, b + max(0.5 * (b - a), 0.25), 4001)
    values = o.smooth_bump(rs, 0.5 * (a + b), 0.5 * (b - a))
    f = saext.GridFunction(rs, values, weight="r")
    saext.radial_symmetry_defect(_half_over_r, f, f)
    saext.commutator_preservation_check(_half_over_r, f)
    flat = saext.GridFunction(rs, values)
    saext.inner_product(flat, flat)


def _sweep_compute(ks, alpha: float) -> None:
    for k in ks:
        spectral.reflection_coefficient(float(k), alpha)
        spectral.reflection_phase(float(k), alpha)


def _drift_compute() -> None:
    v = saext.PowerLawPotential(1.0, -2.0)
    saext.dilatation_drift_report(v, (1.0, 0.25), 5.0, tol=1e-10, samples=4001)
    saext.scale_condition_residual(v)


def _deficiency_compute() -> None:
    spec = saext.OperatorSpec.momentum(saext.Interval.finite(0.0, 1.0))
    saext.verify_deficiency_numerically(spec, saext.solve_deficiency(spec, n=10_001))


#: The library calls behind each golden subcommand, without parsing or output.
GOLDEN_COMPUTE = {
    "deficiency": lambda v: _deficiency_compute(),
    "extend": lambda v: saext.halfline_bc_from_unitary(v["gamma"]),
    "spectrum": lambda v: (saext.halfline_robin_spectrum(v["robin_alpha"]),
                           _sweep_compute(np.linspace(0.1, 5.0, 25), v["robin_alpha"])),
    "boundstate": lambda v: saext.norm(saext.bound_state(v["bound_alpha"]).psi),
    "scatter": lambda v: _sweep_compute([v["scatter_k"]], math.inf),
    "anomaly": lambda v: saext.anomaly_quadrature(v["anomaly_alpha"]),
    "paradox": lambda v: saext.trace_commutator_check(8, 100, seed=7),
    "classical": lambda v: _drift_compute(),
    "geometry": lambda v: _geometry_compute(),
    "sweep": lambda v: _sweep_compute(np.linspace(0.5, 2.0, 4), v["sweep_alpha"]),
}


def run_probe(seed: int) -> dict:
    from saext import cli

    tracer = Tracer(True)
    values = inputs.golden_values(seed)
    golden = inputs.golden_argv(values)
    for argv in golden.values():
        _in_process(cli, argv)
    for name, argv in golden.items():
        t0 = time.perf_counter()
        _in_process(cli, argv)
        t1 = time.perf_counter()
        GOLDEN_COMPUTE[name](values)
        tracer.add("cli.golden_inproc", t0, t1)
        tracer.add("cli.golden_compute", t1, time.perf_counter())

    sweep = inputs.sweep_inputs(seed)
    out_bytes = 0
    for csv in (False, True):
        t0 = time.perf_counter()
        out_bytes += len(_in_process(cli, inputs.sweep_argv(sweep, csv)).encode())
        tracer.add("cli.sweep_inproc", t0, time.perf_counter())
    t0 = time.perf_counter()
    _sweep_compute(np.linspace(sweep["k0"], sweep["k1"], sweep["count"]), sweep["alpha"])
    tracer.add("cli.sweep_compute", t0, time.perf_counter())

    calls = library_calls(inputs.library_inputs(seed))
    # warm each layer once; the dense solve is plain LAPACK and needs no warming
    warm = {c.layer: c for c in calls if c.layer != "spectral.dmeigs_dense"}
    run_pass(list(warm.values()), Tracer(False))
    with tracer.span("library.pass"):
        _, failed = run_pass(calls, tracer)
    return {"spans": tracer.spans, "sweep_out_bytes": out_bytes,
            "unexpected": sorted(set(failed) - KNOWN_FAULTS)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["library", "probe"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.mode == "library":
        out = run_library(args.seed, args.seconds, bool(args.trace))
    else:
        out = run_probe(args.seed)
    if out:
        print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
