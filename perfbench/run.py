"""Benchmark of saext, end to end and layer by layer.

    python3 perfbench/run.py --workload cli_oneshot --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout of the repository; the program is taken
from the checkout's ``src`` tree and reached only through ``python -m
saext.cli``, ``saext.cli.main``/``load_schema`` and ``saext.__all__``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Samples and spans
are also written under ``perfbench/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

import inputs
import oracles as o
from spans import Tracer, totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: Set-up is repeated this often per run and its median reported.
SETUP_REPEATS = 3
#: BLAS threads in every process the benchmark starts: one per process keeps
#: the dense eigensolve from competing with run.py itself on a small machine.
BLAS_THREADS = "1"

LIBRARY_LAYERS = [
    "core.derivative", "core.inner_product", "deficiency.solve", "deficiency.verify",
    "extension.bc_map", "extension.assemble", "spectral.dmeigs_dense",
    "spectral.dmeigs_arnoldi", "spectral.shooting", "spectral.bound_state",
    "discrete.hermiticity", "discrete.trace_commutator", "discrete.eigvec_commutator",
    "anomaly.quadrature", "classical.drift_report", "geometry.defect",
    "geometry.commutator",
]
CLI_LAYERS = ["cli.golden_inproc", "cli.golden_compute", "cli.sweep_inproc",
              "cli.sweep_compute"]

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "points_per_s": "1/s",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "import.interp_s": "s", "import.saext_cli_s": "s", "import.scipy_s": "s",
    "import.modules": "count", "import.scipy_modules": "count",
    **{f"{name}_s": "s" for name in CLI_LAYERS},
    "cli.sweep_out_bytes": "bytes",
    **{key: unit for name in LIBRARY_LAYERS
       for key, unit in ((f"{name}_s", "s"), (f"{name}.calls", "count"))},
}


class BenchError(RuntimeError):
    """The program could not be measured at all."""


class Proc(NamedTuple):
    seconds: float
    rss_mb: float
    code: int
    out: bytes


class Measured(NamedTuple):
    setup: list        # seconds per set-up
    ops: list          # seconds per operation (per JSON/CSV pair on sweep_closed_form)
    points: int        # parameter points evaluated in the timed part
    timed_s: float     # seconds spent in timed operations
    rss_mb: list       # peak RSS of each process of the program
    attempted: int
    failed: list       # labels of failed operations
    unexpected: list   # failed operations that are not a known fault


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def saext_argv(args: list) -> list:
    return [sys.executable, "-m", "saext.cli", *args]


def worker_argv(*args) -> list:
    return [sys.executable, str(HERE / "worker.py"), *map(str, args)]


def spawn(argv: list) -> subprocess.Popen:
    return subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            env=child_env(), cwd=ROOT)


def finish(p: subprocess.Popen, read) -> tuple:
    """Run ``read()`` on the child's output, then reap it with wait4.

    Returns (what read returned, the child's peak RSS in MB).  The child is
    killed if reading fails, and always waited for.
    """
    try:
        out = read()
    except BaseException:
        p.kill()
        raise
    finally:
        p.stdout.close()
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    return out, usage.ru_maxrss / 1024.0


def run_process(argv: list, tracer: Tracer, name: str) -> Proc:
    with tracer.span(name):
        t0 = time.perf_counter()
        p = spawn(argv)
        out, rss = finish(p, p.stdout.read)
        return Proc(time.perf_counter() - t0, rss, p.returncode, out)


def version_setup(tracer: Tracer) -> list:
    """Set-up of the CLI workloads: fresh ``saext --version`` processes."""
    procs = [run_process(saext_argv(["--version"]), tracer, "setup.version")
             for _ in range(SETUP_REPEATS)]
    for proc in procs:
        if proc.code != 0 or not proc.out.startswith(b"saext "):
            raise BenchError(f"saext --version exited {proc.code}: {proc.out[:200]!r}")
    return procs


def load_schemas() -> dict:
    import jsonschema  # noqa: F401  (fail here, before timing, if it is missing)

    sys.path.insert(0, str(SRC))
    from saext.cli import load_schema

    return {name: load_schema(name) for name in inputs.golden_argv(inputs.GOLDEN_VALUES)}


def schema_ok(payload: dict, schema: dict) -> bool:
    import jsonschema

    try:
        jsonschema.validate(payload, schema)
    except jsonschema.ValidationError:
        return False
    return True


# ---------------------------------------------------------------------------
# Output checks against the closed forms in oracles.py
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = ["param.k", "k", "alpha", "R.re", "R.im", "modulus", "phase"]


def sweep_columns_ok(cols: np.ndarray, alpha: float, k0: float, k1: float,
                     count: int) -> bool:
    """Rows (param.k, k, alpha, R.re, R.im, modulus, phase) of a k sweep."""
    if cols.shape != (7, count):
        return False
    param_k, k, alphas, re, im, modulus, phase = cols
    return bool(np.array_equal(param_k, k) and np.all(alphas == alpha)
                and np.allclose(k, np.linspace(k0, k1, count), rtol=1e-12, atol=0.0)
                and np.max(np.abs(re + 1j * im - o.reflection(k, alpha))) <= 1e-12
                and np.max(np.abs(modulus - 1.0)) <= 1e-12
                and np.max(o.angle_gap(phase, o.reflection_phase(k, alpha))) <= 1e-12)


def sweep_json_columns(result: dict) -> np.ndarray:
    return np.array([(p["params"]["k"], p["result"]["k"], p["result"]["alpha"],
                      p["result"]["R"]["re"], p["result"]["R"]["im"],
                      p["result"]["modulus"], p["result"]["phase"])
                     for p in result["points"]], dtype=float).reshape(-1, 7).T


def _spectrum_ok(r: dict, v: dict) -> bool:
    a = v["robin_alpha"]
    samples = r["continuous"]["phase_samples"]
    ks = np.array([s["k"] for s in samples])
    phases = np.array([s["phase"] for s in samples])
    return (len(r["discrete"]) == 1
            and o.rel_err(r["discrete"][0]["value"], o.robin_energy(a)) < 1e-7
            and np.max(o.angle_gap(phases, o.reflection_phase(ks, a))) <= 1e-12)


def _paradox_ok(r: dict, v: dict) -> bool:
    q = r["quantities"]
    return (q["max_scaled_trace"]["value"] <= 1e-10
            and q["naive_canonical_trace"]["value"] == {"re": 0.0, "im": 8.0})


GOLDEN_CHECKS = {
    "deficiency": lambda r, v: (r["n_plus"], r["n_minus"]) == (1, 1)
    and r["adjoint_residual"] <= 1e-4,
    "extend": lambda r, v: r["bc_variant"] == "robin"
    and o.rel_err(r["value"], o.halfline_alpha(v["gamma"])) <= 1e-10,
    "spectrum": _spectrum_ok,
    "boundstate": lambda r, v: o.rel_err(r["E"], o.robin_energy(v["bound_alpha"])) < 1e-7
    and abs(r["bound_state"]["norm"] - 1.0) <= 1e-6,
    # alpha = inf is the Dirichlet limit of (alpha + ik)/(-alpha + ik): R = -1
    "scatter": lambda r, v: (r["R"]["re"], r["R"]["im"], r["modulus"]) == (-1.0, 0.0, 1.0)
    and o.angle_gap(r["phase"], np.pi) <= 1e-12,
    "anomaly": lambda r, v: o.rel_err(r["anomaly"], o.robin_energy(v["anomaly_alpha"])) < 1e-7,
    "paradox": _paradox_ok,
    "classical": lambda r, v: r["drift"] <= 1e-7 and r["symmetry_exact"] is True,
    "geometry": lambda r, v: abs(complex(r["defect"]["re"], r["defect"]["im"])) <= 1e-8
    and r["commutator_sup"] <= 1e-6,
    "sweep": lambda r, v: sweep_columns_ok(sweep_json_columns(r), v["sweep_alpha"],
                                           0.5, 2.0, 4),
}


def golden_ok(name: str, proc: Proc, values: dict, schema: dict) -> bool:
    if proc.code != 0:
        return False
    try:
        payload = json.loads(proc.out)
        return schema_ok(payload, schema) and bool(GOLDEN_CHECKS[name](payload["result"], values))
    except (ValueError, KeyError, TypeError, IndexError):
        return False


def sweep_ok(proc: Proc, s: dict, csv: bool, schema: dict) -> bool:
    if proc.code != 0:
        return False
    args = (s["alpha"], s["k0"], s["k1"], s["count"])
    try:
        if csv:
            header, _, body = proc.out.decode().partition("\n")
            cols = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2).T
            return header.split(",") == SWEEP_COLUMNS and sweep_columns_ok(cols, *args)
        payload = json.loads(proc.out)
        result = payload["result"]
        # the schema is checked on the envelope and the first points; the
        # closed form is checked on every point
        head = dict(payload, result=dict(result, points=result["points"][:64]))
        return (schema_ok(head, schema) and result["count"] == s["count"]
                and sweep_columns_ok(sweep_json_columns(result), *args))
    except (ValueError, KeyError, TypeError, IndexError):
        return False


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _timed_rounds(seconds: float, round_fn) -> None:
    """Whole rounds until ``seconds`` have passed; at least one."""
    start = time.perf_counter()
    while True:
        round_fn()
        if time.perf_counter() - start >= seconds:
            return


#: Round-robin cycles over the golden set per round of cli_oneshot.  Start-up
#: time swings with the machine's speed over seconds, so a round spans many
#: processes (40, about 35 s) to keep one run's median steady.
CLI_CYCLES = 4


def cli_oneshot(seed: int, seconds: float, tracer: Tracer) -> Measured:
    """The ten golden argv sets, one fresh process each, round-robin."""
    setup = version_setup(tracer)
    schemas = load_schemas()
    values = inputs.golden_values(seed)
    golden = inputs.golden_argv(values)
    ops, rss, failed = [], [p.rss_mb for p in setup], []

    def one_round():
        with tracer.span("round"):
            for name, argv in [*golden.items()] * CLI_CYCLES:
                proc = run_process(saext_argv(argv), tracer, f"cli.{name}")
                ops.append(proc.seconds)
                rss.append(proc.rss_mb)
                with tracer.span("check"):
                    if not golden_ok(name, proc, values, schemas[name]):
                        failed.append(name)

    _timed_rounds(seconds, one_round)
    return Measured([p.seconds for p in setup], ops, len(ops), sum(ops), rss,
                    len(ops), failed, failed)


def sweep_closed_form(seed: int, seconds: float, tracer: Tracer) -> Measured:
    """A 1e5-point ``sweep scatter``, JSON then CSV, one process each."""
    setup = version_setup(tracer)
    schema = load_schemas()["sweep"]
    s = inputs.sweep_inputs(seed)
    pairs, times, rss, failed = [], [], [p.rss_mb for p in setup], []

    def one_round():
        with tracer.span("round"):
            pair = []
            for csv in (False, True):
                kind = "csv" if csv else "json"
                proc = run_process(saext_argv(inputs.sweep_argv(s, csv)), tracer,
                                   f"cli.sweep_{kind}")
                pair.append(proc.seconds)
                rss.append(proc.rss_mb)
                with tracer.span("check"):
                    if not sweep_ok(proc, s, csv, schema):
                        failed.append(f"sweep_{kind}")
            times.extend(pair)
            # one sample per pair, so the JSON/CSV mix cannot tip the median
            pairs.append(statistics.fmean(pair))

    _timed_rounds(seconds, one_round)
    return Measured([p.seconds for p in setup], pairs, s["count"] * len(times),
                    sum(times), rss, len(times), failed, failed)


def library_solvers(seed: int, seconds: float, tracer: Tracer) -> Measured:
    """Warm public calls in one worker; set-up is import plus a warm-up pass."""
    setup, rss = [], []
    for i in range(SETUP_REPEATS):
        timed = i == SETUP_REPEATS - 1
        with tracer.span("worker"):
            t0 = time.perf_counter()
            p = spawn(worker_argv("library", "--seed", seed, "--seconds",
                                  seconds if timed else 0, "--trace", int(tracer.enabled)))

            def read():
                line = p.stdout.readline()
                setup.append(time.perf_counter() - t0)
                tracer.add("setup.worker", t0, t0 + setup[-1], tracer.current)
                if line != b"ready\n":
                    raise BenchError(f"worker did not get ready: {line[:200]!r}")
                return p.stdout.read()

            out, peak = finish(p, read)
            rss.append(peak)
            if p.returncode != 0:
                raise BenchError(f"library worker exited {p.returncode}")
            if timed:
                data = json.loads(out)
                tracer.adopt(data["spans"])
    return Measured(setup, data["passes"], data["calls"], sum(data["passes"]), rss,
                    data["calls"], data["failed"], data["unexpected"])


WORKLOADS = {
    "cli_oneshot": cli_oneshot,
    "sweep_closed_form": sweep_closed_form,
    "library_solvers": library_solvers,
}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(m: Measured) -> dict:
    values = {
        "setup_s": statistics.median(m.setup),
        "op_p50_s": statistics.median(m.ops),
        "points_per_s": m.points / m.timed_s,
        "peak_rss_mb": max(m.rss_mb),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import saext.cli\n"
    "t = time.perf_counter() - t\n"
    "mods = list(sys.modules)\n"
    "import json\n"
    "print(json.dumps({'seconds': t, 'modules': len(mods),"
    " 'scipy_modules': sum(m == 'scipy' or m.startswith('scipy.') for m in mods)}))\n"
)


def import_probe() -> dict:
    """One fresh ``import saext.cli`` under ``-X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_PROBE],
                          capture_output=True, env=child_env(), cwd=ROOT, check=True)
    data = json.loads(proc.stdout.decode().splitlines()[-1])
    scipy_us = 0
    for line in proc.stderr.decode().splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2].strip()
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += int(fields[0])
    data["scipy_s"] = scipy_us * 1e-6
    return data


def layer_metrics(seed: int, tracer: Tracer) -> tuple:
    """Per-layer metrics from import probes and one probe worker.

    Returns (metrics, unexpected failures in the probe's library pass).
    """
    with tracer.span("probe.import"):
        interp = [run_process([sys.executable, "-c", "pass"], tracer, "import.interp").seconds
                  for _ in range(SETUP_REPEATS)]
        imports = []
        for _ in range(SETUP_REPEATS):
            with tracer.span("import.saext_cli"):
                imports.append(import_probe())
    with tracer.span("probe.worker"):
        proc = run_process(worker_argv("probe", "--seed", seed), tracer, "probe")
        if proc.code != 0:
            raise BenchError(f"probe worker exited {proc.code}")
        probe = json.loads(proc.out)
        tracer.adopt(probe["spans"])
    layer = totals(probe["spans"])
    values = {
        "import.interp_s": statistics.median(interp),
        "import.saext_cli_s": statistics.median(d["seconds"] for d in imports),
        "import.scipy_s": statistics.median(d["scipy_s"] for d in imports),
        "import.modules": imports[0]["modules"],
        "import.scipy_modules": imports[0]["scipy_modules"],
        "cli.sweep_out_bytes": probe["sweep_out_bytes"],
    }
    for name in CLI_LAYERS:
        values[f"{name}_s"] = layer[name][0]
    for name in LIBRARY_LAYERS:
        values[f"{name}_s"], values[f"{name}.calls"] = layer.get(name, (0.0, 0))
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER_UNITS.items()}
    return metrics, probe["unexpected"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1,
                        help="draws alpha, gamma, theta, k and sweep ranges (default 1)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the timed part; whole rounds only (default 10)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: record spans and print the per-layer metrics")
    args = parser.parse_args(argv)
    if not (SRC / "saext" / "cli.py").is_file():
        print(f"perfbench: no saext sources at {SRC}; run inside a checkout",
              file=sys.stderr)
        return 2

    tracer = Tracer(bool(args.trace))
    with tracer.span(f"run.{args.workload}"):
        m = WORKLOADS[args.workload](args.seed, args.seconds, tracer)
        summary = {"correct": not m.unexpected, "attempted": m.attempted,
                   "failed": len(m.failed), "metrics": end_to_end(m)}
        record = {"args": vars(args), "blas_threads": BLAS_THREADS, **summary,
                  "samples": m._asdict()}
        if args.trace:
            layers, probe_unexpected = layer_metrics(args.seed, tracer)
            # the traced run's end-to-end figures stay in the record only, for
            # the tracing overhead; the printed line holds the layers
            summary = dict(summary, metrics=layers)
            summary["correct"] = summary["correct"] and not probe_unexpected
            record["layers"] = layers

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (RESULTS / f"{stem}.spans.json").write_text(json.dumps(tracer.spans) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
