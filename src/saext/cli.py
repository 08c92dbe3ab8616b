"""Command-line entry point.

Every computation in the library is reachable as a subcommand emitting
JSON (default) or CSV.  Each JSON payload carries a reproducibility
manifest; identical argv produces byte-identical output except for the
wall-time field.  Exit codes: 0 success, 1 computation error (with a
structured {code, message, context} object), a sweep with a failed point
(recorded in its output) or a reader that closed stdout early, 2 usage
error.
"""

from __future__ import annotations

import argparse
import gc
import io
import itertools
import math
import operator
import os
import re
import sys
import time
from typing import TYPE_CHECKING, Dict, List, Optional

from . import __version__
from .errors import PreconditionError, SaextError, SweepSizeError

if TYPE_CHECKING:  # for annotations; each function imports what it calls
    import numpy as np

    from .core import Interval, UnitSystem

__all__ = ["main", "load_schema", "run"]

_SWEEP_LIMIT = 1_000_000


# ---------------------------------------------------------------------------
# Flag value parsers (argparse ``type=`` callables; errors become exit 2)
# ---------------------------------------------------------------------------

def _parse_units(text: str) -> UnitSystem:
    from .core import UnitSystem

    fields = {"hbar": 1.0}
    for part in text.split(","):
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep or key not in fields:
            raise argparse.ArgumentTypeError(
                "units must look like hbar=<v>; got %r" % (text,)
            )
        try:
            fields[key] = float(value)
        except ValueError:
            raise argparse.ArgumentTypeError("bad unit value %r" % (value,))
    try:
        return UnitSystem(**fields)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_interval(text: str) -> Interval:
    from .core import Interval

    try:
        a_text, b_text = text.split(",")
        a, b = float(a_text), float(b_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "interval must be a,b (inf endpoints allowed); got %r" % (text,)
        )
    if math.isfinite(a) and math.isfinite(b):
        if not a < b:
            raise argparse.ArgumentTypeError("interval needs a < b")
        return Interval.finite(a, b)
    if math.isfinite(a) and b == math.inf:
        return Interval.half_line(a)
    if a == -math.inf and b == math.inf:
        return Interval.full_line()
    raise argparse.ArgumentTypeError(
        "supported intervals: a,b / a,inf / -inf,inf; got %r" % (text,)
    )


def _parse_probe(text: str) -> dict:
    kind, sep, rest = text.partition(":")
    if kind != "bump" or not sep:
        raise argparse.ArgumentTypeError("probe must be bump:<a>,<b>; got %r" % (text,))
    try:
        a_text, b_text = rest.split(",")
        a, b = float(a_text), float(b_text)
    except ValueError:
        raise argparse.ArgumentTypeError("probe must be bump:<a>,<b>; got %r" % (text,))
    if not (0.0 < a < b):
        raise argparse.ArgumentTypeError("bump support needs 0 < a < b")
    return {"kind": "bump", "a": a, "b": b}


def _parse_sweep(text: str) -> tuple:
    """(name, start, stop, count, text): the axis, and the value as given, which is echoed."""
    name, sep, grid = text.partition("=")
    parts = grid.split(":")
    if not sep or len(parts) != 3:
        raise argparse.ArgumentTypeError(
            "sweep must be param=start:stop:count; got %r" % (text,)
        )
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError("bad sweep grid in %r" % (text,))
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise argparse.ArgumentTypeError(
            "sweep start and stop must be finite; got %r" % (text,))
    if count < 0:
        raise argparse.ArgumentTypeError("sweep count must be >= 0")
    return (name, start, stop, count, text)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------
#
# This is the one place that decides how a value is written; runners hand
# over report fields as they are.  JSON output is the text of
# json.dumps(sort_keys=True, indent=2) + "\n" for the payload with string
# keys, numpy scalars as the Python numbers they hold, complex numbers as
# {"re", "im"} and non-finite floats as "nan"/"inf"/"-inf".  CSV output is
# the dot-path projection of each row onto scalar columns, so a complex
# number is the columns <path>.re and <path>.im, and a number's cell is the
# text of its JSON value.  Both work from a record's shape (keys in
# insertion order, list lengths, empty containers) and its scalar leaves,
# not from its tree.  A list of records is read _CHUNK records at a time;
# each record is walked once, and a run of records of one shape becomes one
# block of leaf columns.  Each distinct shape is compiled once: to a
# %-template at its indent depth for JSON, to its columns for CSV.  Each
# column of a block is encoded once, in one call of the C json encoder
# (_tokens), which the pure-Python encoder behind indent= cannot match; that
# call decides every leaf's text in both formats.  JSON rewrites only the
# non-finite tokens.  CSV makes four rewrites: null is an empty cell, NaN,
# Infinity and -Infinity are nan, inf and -inf, and a string token is its
# string.  A CSV column of Python floats alone takes float repr instead,
# which writes the same text as the encoder plus the rewrites and costs
# about 70% of it.

_LEAF = None
_SCALARS = frozenset({float, int, str, bool, type(None)})
#: A complex number is walked as the dict {"re": real part, "im": imaginary part}.
_COMPLEX_DICT = ("{", "re", _LEAF, "im", _LEAF)
_CHUNK = 4096
#: JSON text of a non-finite float, from the encoder's token.
_NON_FINITE = {"NaN": '"nan"', "Infinity": '"inf"', "-Infinity": '"-inf"'}
#: CSV cell of each encoder token other than a string's that is not its own cell.
_CSV_CELLS = {"null": "", "NaN": "nan", "Infinity": "inf", "-Infinity": "-inf"}
#: Cell types whose text never needs CSV quoting.
_PLAIN_CELLS = frozenset({float, int, bool, type(None)})


def _walk(obj, leaves: list):
    """Shape of obj; its scalar leaves are appended to leaves in walk order.

    A dict's shape is ("{", key, shape, ...) with str keys in insertion
    order, a list's or tuple's ("[", shape, ...).
    """
    if isinstance(obj, dict):
        shape = ["{"]
        for key, value in obj.items():
            shape.append(key if type(key) is str else str(key))
            if type(value) in _SCALARS:  # the common leaf, without a call
                leaves.append(value)
                shape.append(_LEAF)
            else:
                shape.append(_walk(value, leaves))
        return tuple(shape)
    if isinstance(obj, (list, tuple)):
        return ("[", *[_walk(value, leaves) for value in obj])
    if isinstance(obj, complex):
        leaves.append(obj.real)
        leaves.append(obj.imag)
        return _COMPLEX_DICT
    leaves.append(obj)
    return _LEAF


def _blocks(records):
    """(shape, count, leaf columns in walk order) of each run of records of one shape.

    Each record is walked; a run ends where a record's shape differs from
    the one before it.
    """
    shape, run = _LEAF, []  # an empty run is not yielded, whatever its shape
    for record in records:
        leaves: list = []
        own = _walk(record, leaves)
        if own != shape:
            if run:
                yield shape, len(run), list(zip(*run))
            shape, run = own, []
        run.append(leaves)
    if run:
        yield shape, len(run), list(zip(*run))


def _encoded(columns: list, encode) -> list:
    """encode(column) of each column, called once per column object.

    encode maps a list of values to the list of their texts.  A column
    that holds one object throughout, such as a flag a sweep leaves alone,
    is encoded as that one value.  A column given twice, such as a swept
    value that the target's columns echo, is encoded once.
    """
    texts, done = [], {}
    for column in columns:
        if id(column) not in done:
            head = column[0]
            if column[-1] is head and all(map(operator.is_, column, itertools.repeat(head))):
                done[id(column)] = encode(column[:1]) * len(column)
            else:
                done[id(column)] = encode(column)
        texts.append(done[id(column)])
    return texts


def _children(shape):
    """(key, child shape) pairs of a dict shape, (index, child shape) of a list's."""
    if shape[0] == "[":
        return enumerate(shape[1:])
    return zip(shape[1::2], shape[2::2])


def _json_template(shape, depth: int, base: int, order: list) -> tuple:
    """(%-template, leaf count) of shape at indent depth; its leaves start at base.

    Appends to order the walk index of the leaf behind each %s.  Keys come
    out sorted and, as for a dict keyed by str(key), a repeated key keeps
    its last value; the leaves of a replaced value are not used.
    """
    import json
    if shape is _LEAF:
        order.append(base)
        return "%s", 1
    is_dict = shape[0] == "{"
    entries, count = {}, 0
    for key, child in _children(shape):
        sub: list = []
        text, n = _json_template(child, depth + 1, base + count, sub)
        if is_dict:
            text = json.dumps(key).replace("%", "%%") + ": " + text
        entries[key] = (text, sub)
        count += n
    close = "}" if is_dict else "]"
    if not entries:
        return shape[0] + close, count
    keys = sorted(entries) if is_dict else list(entries)
    for key in keys:
        order += entries[key][1]
    inner = "\n" + "  " * (depth + 1)
    body = ("," + inner).join(entries[key][0] for key in keys)
    return shape[0] + inner + body + "\n" + "  " * depth + close, count


def _json_default(obj):
    """Numpy scalars encode as the Python int or float they hold."""
    # a numpy scalar can only be met once numpy is loaded
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.floating):
            return float(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _tokens(leaves) -> tuple:
    """(JSON token of each leaf, the encoder's text), from one call of the C encoder."""
    import json
    # a leaf's text holds no raw newline: strings escape it as \n
    text = json.dumps(leaves, separators=("\n", ":"), default=_json_default)
    return text[1:-1].split("\n") if leaves else [], text


def _json_tokens(leaves) -> list:
    """JSON text of each leaf: its token, a non-finite float's as a string."""
    tokens, text = _tokens(leaves)
    if "NaN" in text or "Infinity" in text:
        tokens = [_NON_FINITE.get(token, token) for token in tokens]
    return tokens


def _csv_columns(shape, prefix: str, base: int, columns: dict) -> int:
    """Map each leaf's dot path in shape to its walk index; return the leaf count.

    A repeated path keeps its first position and its last leaf.
    """
    if shape is _LEAF:
        columns[prefix[:-1]] = base
        return 1
    count = 0
    for key, child in _children(shape):
        count += _csv_columns(child, f"{prefix}{key}.", base + count, columns)
    return count


def _cells(values) -> list:
    """The CSV cells of a column of leaves: its JSON tokens, with four rewrites."""
    if set(map(type, values)) == {float}:  # repr writes what the encoder does, faster
        return list(map(float.__repr__, values))
    tokens, text = _tokens(values)
    if "null" in text or "NaN" in text or "Infinity" in text:
        tokens = [_CSV_CELLS.get(token, token) for token in tokens]
    if '"' in text:  # a string token is its string; only newlines part the items
        import json
        tokens = [leaf if type(leaf) is str else token
                  for leaf, token in zip(json.loads(text.replace("\n", ",")), tokens)]
    return tokens


class _Records:
    """Records written as a JSON list or as CSV rows, _CHUNK records at a time.

    The chunks are computed and encoded by up to one process per CPU and
    written in order (see _chunks).  Each process compiles each shape once
    and encodes each column of a block once (see _encoded).
    """

    #: Records that failed; a sweep counts its failed points here.
    failed = 0

    def __init__(self, records=()):
        self.records = records

    def chunks(self) -> int:
        return -(-len(self.records) // _CHUNK)

    def blocks(self, i: int):
        """(shape, count, leaf columns) of each run of one shape in chunk i."""
        return _blocks(self.records[i * _CHUNK:(i + 1) * _CHUNK])

    def write_json(self, out, depth: int) -> None:
        """Write the records as a JSON list whose items sit at indent depth."""
        from ._chunks import write_in_order

        compiled: dict = {}
        sep = ",\n" + "  " * depth

        def compute(i):
            texts = []
            for shape, count, columns in self.blocks(i):
                if shape not in compiled:
                    order: list = []
                    compiled[shape] = _json_template(shape, depth, 0, order)[0], order
                template, order = compiled[shape]
                tokens = _encoded(columns, _json_tokens)
                rows = zip(*map(tokens.__getitem__, order)) if order \
                    else itertools.repeat((), count)
                texts.append(sep.join(map(template.__mod__, rows)))
            return sep.join(texts), None

        heads = itertools.chain(["[\n" + "  " * depth], itertools.repeat(sep))
        write_in_order(self, compute, lambda text, _: text,
                       lambda text: out.write(next(heads) + text))
        out.write("\n" + "  " * (depth - 1) + "]" if self.chunks() else "[]")

    def write_csv(self, out, header: Optional[List[str]] = None) -> None:
        """Write one CSV row per record.

        The columns are header or, by default, every record's dot paths in
        first-seen order; a record lacking a column leaves its cell empty.
        Without a header every chunk is held until the last one is computed.
        """
        import csv

        from ._chunks import write_in_order

        layouts: dict = {}

        def layout(shape) -> dict:
            if shape not in layouts:
                layouts[shape] = {}
                _csv_columns(shape, "", 0, layouts[shape])
            return layouts[shape]

        def compute(i):
            blocks = list(self.blocks(i))
            return blocks, [shape for shape, _, _ in blocks]

        def settle(notes):
            names = header
            if names is None:
                for shape in itertools.chain.from_iterable(notes):
                    layout(shape)
                names = list(dict.fromkeys(name for cols in layouts.values() for name in cols))
            if names:
                csv.writer(out, lineterminator="\n").writerow(names)
            return names

        def render(blocks, names):
            text = io.StringIO()
            for shape, count, columns in blocks:
                cells = _encoded(columns, _cells)
                own, blank = layout(shape), [""] * count
                row_cells = [cells[own[name]] if name in own else blank for name in names]
                # a row of two or more cells of these types needs no quoting;
                # csv quotes the lone empty cell of a one-column row
                if len(names) > 1 and all(set(map(type, column)) <= _PLAIN_CELLS
                                          for column in columns):
                    text.write("\n".join(map(",".join, zip(*row_cells))) + "\n")
                else:
                    csv.writer(text, lineterminator="\n").writerows(
                        zip(*row_cells) if names else itertools.repeat((), count))
            return text.getvalue()

        write_in_order(self, compute, render, out.write, settle)


def _write_json(payload: dict, out) -> None:
    """Write payload as JSON; a _Records leaf is written as the list of its records."""
    leaves: list = []
    order: list = []
    template = _json_template(_walk(payload, leaves), 0, 0, order)[0] + "\n"
    streamed = [isinstance(leaf, _Records) for leaf in leaves]
    tokens = _json_tokens([None if flag else leaf for flag, leaf in zip(streamed, leaves)])
    # JSON text holds no raw NUL (strings escape it), so it marks the lists
    parts = (template % tuple("\0" if streamed[i] else tokens[i] for i in order)).split("\0")
    records = [leaves[i] for i in order if streamed[i]]
    for part, recs in zip(parts, records):
        out.write(part)
        # the list's items sit one level deeper than the line it opens on
        line = part[part.rfind("\n") + 1:]
        recs.write_json(out, (len(line) - len(line.lstrip(" "))) // 2 + 1)
    out.write(parts[-1])


def _emit(out_path: Optional[str], write, code: int) -> int:
    """Run write(out) on the file at out_path or on sys.stdout; return ``code``.

    A reader that closes stdout early (``saext ... | head``) gives exit 1
    and no traceback.  As in the SIGPIPE note of Python's signal docs,
    stdout is then pointed at devnull so that its flush at interpreter exit
    cannot raise again.
    """
    try:
        if out_path:
            with open(out_path, "w") as fh:
                write(fh)
        else:
            write(sys.stdout)
            sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


def _interval_dict(iv: Interval) -> dict:
    return {"kind": iv.kind, "a": iv.a, "b": iv.b}


def load_schema(name: str) -> dict:
    """Load a shipped JSON schema by subcommand name; the manifest block is in manifest.json."""
    import json
    from importlib import resources

    folder = resources.files("saext") / "schemas"
    schema = json.loads((folder / f"{name}.json").read_text())
    if "manifest" in schema["required"]:
        manifest = json.loads((folder / "manifest.json").read_text())
        own = schema["properties"].get("manifest", {}).get("properties", {})
        for field, extra in own.items():  # sweep.json describes its wall_time_s
            manifest["properties"][field].update(extra)
        schema["properties"]["manifest"] = manifest
    return schema


# ---------------------------------------------------------------------------
# Subcommand runners
# ---------------------------------------------------------------------------
#
# A runner reads only the flags of its variant (see _COMMANDS), each set by
# _finalize to its given value or its default.

def _run_deficiency(args) -> dict:
    from .core import HALF_LINE, OperatorSpec
    from .deficiency import solve_deficiency, verify_deficiency_numerically

    iv = args.interval
    if args.op == "momentum":
        spec = OperatorSpec.momentum(iv)
    elif args.op == "hamiltonian":
        spec = OperatorSpec.free_hamiltonian(iv)
    elif iv.kind == HALF_LINE:
        spec = OperatorSpec.time_operator(iv.a)
    else:
        raise PreconditionError("the time operator acts on a half line E0,inf; "
                                "got the interval %r,%r" % (iv.a, iv.b))
    report = solve_deficiency(spec, lam=args.lam, n=args.grid_n)
    return {
        "op": args.op,
        "interval": _interval_dict(spec.interval),
        "n_plus": report.n_plus,
        "n_minus": report.n_minus,
        "classification": report.classification,
        "param_dim": report.param_dim,
        "lambda": report.lam,
        "adjoint_residual": verify_deficiency_numerically(spec, report),
        "basis": [sol.tag for sol in report.basis()],
    }


def _run_extend(args) -> dict:
    from .extension import ExtensionParameter, halfline_bc_from_unitary, momentum_bc_from_unitary

    bc = (momentum_bc_from_unitary if args.operator == "momentum"
          else halfline_bc_from_unitary)(args.gamma)
    return {
        "gamma": ExtensionParameter(args.gamma).gamma,
        "bc_variant": bc.variant,
        "value": bc.value,
        "dirichlet_limit": bool(bc.is_dirichlet_limit),
    }


def _run_spectrum(args) -> dict:
    import numpy as np

    from .spectral import halfline_robin_spectrum, momentum_spectrum, well_spectrum

    if args.op == "momentum":
        res = momentum_spectrum(args.theta, args.interval, range(args.n_min, args.n_max + 1))
    elif args.op == "well":
        res = well_spectrum(args.a, range(args.n_min, args.n_max + 1))
    else:
        res = halfline_robin_spectrum(args.alpha)
    levels = res.discrete
    out = {"discrete": [{"n": n, "value": v} for n, v in zip(levels.n, levels.values.tolist())],
           "continuous": None}
    if res.continuous is not None:
        phase = res.continuous.reflection_phase
        out["continuous"] = {
            "threshold": res.continuous.threshold,
            "phase_samples": [{"k": k, "phase": phase(k)}
                              for k in np.linspace(0.1, 5.0, 25).tolist()],
        }
    return out


def _run_boundstate(args) -> dict:
    from .core import norm
    from .spectral import bound_state

    state = bound_state(args.alpha, x_max=args.x_max, grid_n=args.grid_n)
    if state is None:
        return {"alpha": args.alpha, "E": None, "bound_state": None,
                "reason": "alpha >= 0"}
    psi = state.psi
    return {
        "alpha": args.alpha,
        "E": state.energy,
        "reason": None,
        "bound_state": {
            "energy": state.energy,
            "x_max": float(psi.xs[-1]),
            "grid_n": len(psi),
            "norm": norm(psi),
        },
    }


def _scatter_result(k, alpha, re, im, modulus, phase) -> dict:
    """A scatter result; its leaves walk in the order of the arguments."""
    return {"k": k, "alpha": alpha, "R": {"re": re, "im": im},
            "modulus": modulus, "phase": phase}


def _scatter_columns(args, axes: dict, count: int) -> tuple:
    """(shape, leaf columns in walk order) of count scatter results.

    axes maps each swept flag's dest to its values; the other flags are
    read from args.  The k and alpha columns are the values given, so a
    sweep's params and its results share them.
    """
    from .spectral import _reflection_columns

    ks = axes["k"] if "k" in axes else [args.k] * count
    alphas = axes["alpha"] if "alpha" in axes else [args.alpha] * count
    return (_walk(_scatter_result(*range(6)), []),
            [ks, alphas, *_reflection_columns(ks, alphas)])


def _run_scatter(args) -> dict:
    _, columns = _scatter_columns(args, {}, 1)
    return _scatter_result(*(column[0] for column in columns))


def _run_anomaly(args) -> dict:
    from .anomaly import anomaly_quadrature

    return dict(vars(anomaly_quadrature(args.alpha, t=args.t, tol=args.tol)))


def _run_paradox(args) -> dict:
    from .discrete import (
        commuting_observables_demo,
        eigenvector_commutator_demo,
        hermiticity_defect_demo,
        trace_commutator_check,
    )

    if args.id == 1:
        report = eigenvector_commutator_demo(args.theta, args.n, mode=args.mode,
                                             units=args.units)
    elif args.id == 2:
        report = trace_commutator_check(args.n, args.trials, seed=args.seed, units=args.units)
    elif args.id == 3:
        report = commuting_observables_demo(args.a, args.n, grid_n=args.grid_n)
    else:
        report = hermiticity_defect_demo(args.l, args.n)
    return {"id": report.id, "verdict": report.verdict,
            "quantities": {name: {"value": q.value, "tolerance": q.tolerance}
                           for name, q in sorted(report.quantities.items())}}


def _run_classical(args) -> dict:
    from .classical import PowerLawPotential, dilatation_drift_report, scale_symmetry_exact

    v = PowerLawPotential(args.g, args.s)
    report = dilatation_drift_report(v, (args.q0, args.p0), args.t_end, samples=args.samples)
    return {
        "s": args.s,
        "g": args.g,
        "q0": args.q0,
        "p0": args.p0,
        "t_end": args.t_end,
        "drift": report.max_drift,
        "predicted_drift": report.predicted_drift,
        "deviation": report.max_deviation,
        "energy_drift": report.energy_drift,
        "symmetry_exact": scale_symmetry_exact(v),
    }


def _bump_values(xs: np.ndarray, center: float, width: float) -> np.ndarray:
    import numpy as np

    u = (xs - center) / width
    out = np.zeros_like(xs, dtype=complex)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


def _run_geometry(args) -> dict:
    import numpy as np

    from .core import _SAMPLE_BYTES, GridFunction, _check_budget, inner_product
    from .geometry import (
        commutator_preservation_check,
        connection_condition,
        radial_symmetry_defect,
    )

    measure, label = {"polar": ("polar", "1/(2r)"), "spherical": ("spherical_radial", "1/r"),
                      "flat": ("cartesian", "0")}[args.metric]
    closed_form = connection_condition(measure)

    def omega(r):
        # the library refuses r = 0, where the grid starts; every probe vanishes
        # there (0 < a), and geometry._omega_times makes omega(0) * 0 zero
        return closed_form(np.where(r > 0.0, r, np.inf))

    a, b = args.probe["a"], args.probe["b"]
    far_end = b + max(0.5 * (b - a), 0.25)
    _check_budget(_SAMPLE_BYTES * args.grid_n, "a grid of %d samples" % args.grid_n)
    xs = np.linspace(0.0, far_end, args.grid_n)
    if not np.any((a < xs) & (xs < b)):
        # the bump would be 0 on every sample, and each check would check nothing
        raise PreconditionError("the probe bump:%r,%r has no sample inside its support "
                                "on %d samples from 0 to %r" % (a, b, args.grid_n, far_end))
    f = GridFunction(xs, _bump_values(xs, 0.5 * (a + b), 0.5 * (b - a)), weight="r")
    defect = radial_symmetry_defect(omega, f, f)
    flat = GridFunction(xs, f.values, weight="1")
    return {
        "metric": args.metric,
        "connection": label,
        "probe": dict(args.probe),
        "defect": defect,
        "commutator_sup": commutator_preservation_check(omega, f),
        "overlap_flat": inner_product(flat, flat).real,
    }


# ---------------------------------------------------------------------------
# Command table
# ---------------------------------------------------------------------------

#: Flags that more than one subcommand reads, by dest.  A subcommand takes
#: one only where a variant of it declares it.
_SHARED = {
    "units": (("--units",), dict(type=_parse_units, metavar="hbar=<v>",
                                 help="unit system")),
    "tol": (("--tol",), dict(type=float, help="tolerance")),
    "grid_n": (("--grid-n",), dict(type=int, help="grid size")),
    "seed": (("--seed",), dict(type=int, help="RNG seed")),
}

#: The defaults of the flags that every deficiency operator reads.
_DEFICIENCY = {"lam": 1.0, "grid_n": 10_001}

#: Each subcommand's own flags and its variants.  The value of the "select"
#: flag picks a variant; a subcommand without one has the single variant
#: None.  A variant maps each flag it reads, own or shared, by dest to its
#: default: ... where the flag must be given, None where the library picks
#: it, and a string is read as the flag's text.  A flag that the variant
#: does not declare is a usage error, so the manifest echoes no flag that
#: nothing applied.
_COMMANDS: Dict[str, dict] = {
    "deficiency": {
        "help": "deficiency indices and adjoint residual for a catalog operator",
        "args": [
            (("--op",), dict(choices=["momentum", "hamiltonian", "time"],
                             required=True, help="catalog operator")),
            (("--interval",), dict(type=_parse_interval,
                                   help="a,b with inf endpoints; E0,inf for time")),
            (("--lam",), dict(type=float, help="probe scale lambda > 0")),
        ],
        "select": "op",
        "variants": {
            "momentum": {"interval": "0,1", **_DEFICIENCY},
            "hamiltonian": {"interval": "0,inf", **_DEFICIENCY},
            "time": {"interval": "0,inf", **_DEFICIENCY},
        },
        "run": _run_deficiency,
    },
    "extend": {
        "help": "map a von Neumann phase gamma to its boundary condition",
        "args": [
            (("--operator",), dict(choices=["momentum", "hamiltonian"],
                                   required=True, help="extension family")),
            (("--gamma",), dict(type=float, help="unitary phase in radians")),
        ],
        "variants": {None: {"operator": ..., "gamma": ...}},
        "run": _run_extend,
    },
    "spectrum": {
        "help": "discrete/continuous spectrum of a chosen operator",
        "args": [
            (("--op",), dict(choices=["momentum", "well", "robin"],
                             required=True, help="which spectrum")),
            (("--theta",), dict(type=float, help="boundary phase")),
            (("--interval",), dict(type=_parse_interval, help="finite box a,b")),
            (("--n-min",), dict(type=int, help="lowest level index")),
            (("--n-max",), dict(type=int, help="highest level index")),
            (("--a",), dict(type=float, help="well width")),
            (("--alpha",), dict(type=float, help="Robin slope")),
        ],
        "select": "op",
        "variants": {
            "momentum": {"theta": 0.0, "interval": "0,1", "n_min": -5, "n_max": 5},
            "well": {"a": 1.0, "n_min": 1, "n_max": 5},
            "robin": {"alpha": -1.0},
        },
        "run": _run_spectrum,
        "rows": operator.itemgetter("discrete"),
        "csv_header": ["n", "value"],
    },
    "boundstate": {
        "help": "Robin half-line bound state (absent for alpha >= 0)",
        "args": [
            (("--alpha",), dict(type=float, help="Robin slope psi'(0) = alpha psi(0)")),
            (("--x-max",), dict(type=float, help="grid cutoff, 35/|alpha| by default")),
        ],
        "variants": {None: {"alpha": ..., "x_max": None, "grid_n": None}},
        "run": _run_boundstate,
    },
    "scatter": {
        "help": "reflection coefficient of the Robin half line",
        "args": [
            (("--k",), dict(type=float, help="wave number k > 0")),
            (("--alpha",), dict(type=float, help="Robin slope (inf = Dirichlet)")),
        ],
        "variants": {None: {"k": ..., "alpha": ...}},
        "run": _run_scatter,
        # a sweep evaluates its points a chunk at a time
        "columns": _scatter_columns,
    },
    "anomaly": {
        "help": "dilatation anomaly on the Robin bound state",
        "args": [
            (("--alpha",), dict(type=float, help="Robin slope, alpha < 0")),
            (("--t",), dict(type=float, help="explicit time in the dilatation")),
        ],
        "variants": {None: {"alpha": ..., "t": 0.0, "tol": 1e-6}},
        "run": _run_anomaly,
    },
    "paradox": {
        "help": "numerical demonstration of a textbook operator paradox",
        "args": [
            (("--id",), dict(type=int, choices=[1, 2, 3, 4], required=True,
                             help="1 eigenvector, 2 trace, 3 commuting, "
                                  "4 hermiticity")),
            (("--n",), dict(type=int, help="size parameter")),
            (("--l",), dict(type=float, help="interval length")),
            (("--theta",), dict(type=float, help="boundary phase")),
            (("--mode",), dict(type=int, help="eigenvector label")),
            (("--trials",), dict(type=int, help="random pairs")),
            (("--a",), dict(type=float, help="box width")),
        ],
        "select": "id",
        "variants": {
            1: {"n": 256, "theta": 0.0, "mode": 1, "units": "hbar=1"},
            2: {"n": 8, "trials": 100, "seed": 0, "units": "hbar=1"},
            3: {"n": 3, "a": 1.0, "grid_n": 10_001},
            4: {"n": 8, "l": 1.0},
        },
        "run": _run_paradox,
    },
    "classical": {
        "help": "dilatation drift along a power-law Hamiltonian flow",
        "args": [
            (("--s",), dict(type=float, help="potential exponent")),
            (("--g",), dict(type=float, help="coupling")),
            (("--q0",), dict(type=float, help="initial position")),
            (("--p0",), dict(type=float, help="initial momentum")),
            (("--t-end",), dict(type=float, help="integration horizon")),
            (("--samples",), dict(type=int, help="output samples")),
        ],
        "variants": {None: {"s": ..., "g": 1.0, "q0": 1.0, "p0": 0.25, "t_end": 5.0,
                            "samples": 4001}},
        "run": _run_classical,
    },
    "geometry": {
        "help": "radial symmetry defect and commutator check for a metric",
        "args": [
            (("--metric",), dict(choices=["polar", "spherical", "flat"],
                                 required=True, help="which measure")),
            (("--probe",), dict(type=_parse_probe, help="probe function bump:<a>,<b>")),
        ],
        "variants": {None: {"metric": ..., "probe": "bump:1,2", "grid_n": 4001}},
        "run": _run_geometry,
    },
}


def _dest_of(flags: tuple) -> str:
    return flags[0].lstrip("-").replace("-", "_")


def _flags_of(name: str) -> dict:
    """(flags, kwargs) by dest of each flag of name: its own, then the shared ones it reads."""
    spec = _COMMANDS[name]
    found = {_dest_of(flags): (flags, kwargs) for flags, kwargs in spec["args"]}
    for dest, flag in _SHARED.items():
        if any(dest in variant for variant in spec["variants"].values()):
            found[dest] = flag
    return found


def _help(spec: dict, dest: str, text: str) -> str:
    """text, then the default of dest in each variant that reads it and sets one."""
    said = []
    for key, variant in spec["variants"].items():
        default = variant.get(dest)
        if default is not None:
            said.append(("" if key is None else f"--{spec['select']} {key}: ")
                        + ("required" if default is ... else f"default {default}"))
    return f"{text} ({'; '.join(said)})" if said else text


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads ``-1e-3``, ``-inf`` and ``-1,1`` as values, not flags.

    Python 3.11's argparse matches ``-1`` and ``-0.5`` only and takes
    ``-1e-3``, ``-inf`` or the interval ``-1,1`` for an option string, so
    ``--alpha -1e-3`` or ``--interval -1,1`` would be a usage error.  A
    negative number, alone or followed by a comma and a number, is a value.
    Subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a number as float() reads it, unsigned; inf and infinity in any case
        number = r"((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|(?i:inf(inity)?))"
        self._negative_number_matcher = re.compile(rf"^-{number}(,[-+]?{number})?$")


def _command_parser(name: str, sweep: bool = False) -> argparse.ArgumentParser:
    """The parser of subcommand name's flags, or of a sweep of name.

    Each flag of name's variants is None unless given (see _finalize).  A
    one-shot requires, so its usage line shows unbracketed, a flag that
    every variant must be given; in a sweep an axis may stand in for it.
    """
    spec = _COMMANDS[name]
    parser = _Parser(prog=f"saext sweep {name}" if sweep else f"saext {name}")
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="fmt", action="store_const", const="json",
                     help="emit JSON with a manifest (default)")
    fmt.add_argument("--csv", dest="fmt", action="store_const", const="csv",
                     help="emit a flat CSV projection instead")
    parser.set_defaults(fmt="json")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write output to PATH instead of stdout")
    for dest, (flags, kwargs) in _flags_of(name).items():
        required = not sweep and all(variant.get(dest) is ...
                                     for variant in spec["variants"].values())
        parser.add_argument(*flags, **dict(kwargs, help=_help(spec, dest, kwargs["help"]),
                                           required=kwargs.get("required", required)))
    if sweep:
        parser.add_argument("--sweep", action="append", type=_parse_sweep, required=True,
                            metavar="param=start:stop:count",
                            help="axis of the parameter grid (repeatable)")
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser that picks the subcommand; a one-shot's takes nothing and is here for --help."""
    parser = _Parser(
        prog="saext",
        description="Self-adjoint extensions of 1D quantum operators: "
                    "deficiency indices, boundary conditions, spectra, "
                    "paradox demos, the scale anomaly, and its classical "
                    "and geometric counterparts.",
    )
    parser.add_argument("--version", action="version",
                        version=f"saext {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="subcommand")
    for name, spec in _COMMANDS.items():
        sub.add_parser(name, help=spec["help"], add_help=False)
    p_sweep = sub.add_parser(
        "sweep", help="run a subcommand over a cartesian parameter grid")
    p_sweep.add_argument("target", choices=sorted(_COMMANDS),
                         help="subcommand to sweep")
    p_sweep.add_argument("rest", nargs=argparse.REMAINDER,
                         help="target flags plus --sweep param=start:stop:count")
    return parser


def _finalize(ns: argparse.Namespace, command: str, parser: argparse.ArgumentParser,
              axes: Optional[list] = None) -> dict:
    """Set each flag of ns's variant of command; return the params the manifest echoes.

    axes are a sweep's --sweep specs.  These are usage errors, found before
    numpy or a library module is loaded: a float flag given nan, or +-inf
    anywhere but --alpha (+inf is Dirichlet); a flag given, or an axis,
    that the variant does not declare; a declared flag without a default
    that is neither given nor swept; a flag both given and swept; and an
    --out PATH that cannot be opened for writing, which is left as it was.
    Each other declared flag that is not swept gets its default.  The echo
    holds each declared flag but units and tol, which the manifest holds
    apart, and null for a swept one.
    """
    spec, flags = _COMMANDS[command], _flags_of(command)
    select = spec.get("select")
    key = None if select is None else getattr(ns, select)
    variant = spec["variants"][key]
    chosen = command if select is None else f"{command} --{select} {key}"
    swept = [name.replace("-", "_") for name, *_ in axes or ()]
    if len(set(swept)) < len(swept):
        parser.error("each parameter may be swept by one --sweep only")
    for dest in swept:
        if dest not in variant or dest in _SHARED:
            parser.error(f"{dest!r} is not a sweep parameter of {chosen}")
        option, kwargs = flags[dest]
        # only a plain number can be laid on a linspace grid
        if kwargs.get("type") not in (int, float) or "choices" in kwargs:
            parser.error(f"{option[0]} is not a numeric range and cannot be swept")
    for dest, (option, kwargs) in flags.items():
        value = getattr(ns, dest)
        if kwargs.get("type") is float and value is not None and not (
                math.isfinite(value) or math.isinf(value) and option[0] == "--alpha"):
            parser.error(f"argument {option[0]}: {value!r} is not a finite number")
        if value is not None and dest != select and dest not in variant:
            parser.error(f"unrecognized arguments: {option[0]} (not read by {chosen})")
        if variant.get(dest) is ... and value is None and dest not in swept:
            parser.error(f"{option[0]} must be given{'' if axes is None else ' or swept'} "
                         f"for {chosen}")
    for dest in swept:
        if getattr(ns, dest) is not None:
            parser.error(f"{flags[dest][0][0]} is given and also swept; give one of them")
    if "tol" in variant and ns.tol is not None and not 0.0 < ns.tol < math.inf:
        parser.error(f"argument --tol: {ns.tol!r} is not a finite number > 0")
    if ns.out:  # an empty PATH is stdout
        existed = os.path.lexists(ns.out)
        try:  # as _emit will open it, but in append mode, which truncates nothing
            open(ns.out, "a").close()
        except OSError as exc:
            parser.error(f"argument --out: can't open '{ns.out}': {exc}")
        if not existed:
            os.remove(ns.out)

    from .core import Interval

    params = {} if select is None else {select: key}
    for dest, default in variant.items():
        if getattr(ns, dest) is None and dest not in swept:
            kind = flags[dest][1].get("type")
            setattr(ns, dest, kind(default) if type(default) is str else default)
        value = None if dest in swept else getattr(ns, dest)
        if dest not in ("units", "tol"):
            params[dest] = _interval_dict(value) if isinstance(value, Interval) else value
    return params


def _manifest_settings(ns: argparse.Namespace) -> dict:
    """The manifest's units, natural where none are read, and its tolerance where one is."""
    units = getattr(ns, "units", None)
    # every subcommand computes with 2m = 1
    settings = {"units": {"hbar": units.hbar if units else 1.0, "two_m": 1.0}}
    if getattr(ns, "tol", None) is not None:
        settings["tolerances"] = {"tol": ns.tol}
    return settings


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

#: What a runner raises on inputs it cannot compute for: a library error, or
#: a ValueError, OverflowError or ZeroDivisionError from the arithmetic.
_COMPUTE_ERRORS = (SaextError, ValueError, ArithmeticError)


def _error_fields(exc: Exception) -> dict:
    """The code and message of a library error."""
    return {"code": exc.code if isinstance(exc, SaextError) else "invalid-value",
            "message": str(exc)}


class _SweepPoints(_Records):
    """The points of a sweep, computed _CHUNK at a time as they are written.

    A point is the record {"params": {dest: value, ...}, "result": result}
    or, as a CSV row, {"param.<dest>": value, ..., **result}, keyed by each
    swept flag's dest (t_end for --sweep t-end=...).  A point whose
    runner raises a library error holds {"error": {code, message}} in place
    of its result; failed counts such points.  The part after the swept
    values is the point's tail.

    runner computes one point from tns.  columns, where the target has one
    (see _scatter_columns), computes a whole chunk as leaf columns; a chunk
    it raises on, and every chunk of a target without it, is computed by
    runner one point at a time and its tails walked by _blocks.
    """

    def __init__(self, runner, columns, tns: argparse.Namespace, dests: list,
                 grids: list, as_rows: bool):
        self._runner, self._columns = runner, columns
        self._tns, self._dests, self._grids = tns, dests, grids
        self._as_rows = as_rows
        # the keys of the swept values, by dest, which come before the tail's
        self._keys = ["param." + dest for dest in dests] if as_rows else dests

    def chunks(self) -> int:
        return -(-math.prod(len(grid) for grid, _ in self._grids) // _CHUNK)

    def _axis_values(self, i: int) -> list:
        """Each axis's values at the points of chunk i, in itertools.product order."""
        import numpy as np

        shape = tuple(len(grid) for grid, _ in self._grids)
        start = i * _CHUNK
        index = np.unravel_index(np.arange(start, min(start + _CHUNK, math.prod(shape))), shape)
        return [[cast(v) for v in grid[at].tolist()]
                for (grid, cast), at in zip(self._grids, index)]

    def _frame(self, shape) -> tuple:
        """The shape of a point whose tail has this dict shape."""
        params = tuple(x for key in self._keys for x in (key, _LEAF))
        if self._as_rows:
            return ("{", *params, *shape[1:])
        return ("{", "params", ("{", *params), *shape[1:])

    def blocks(self, i: int):
        """(shape, count, leaf columns) of each run of points of one shape in chunk i.

        The swept values are columns already; they are framed with the
        columns of the target or with those of each run of tails.
        """
        tns, dests = self._tns, self._dests
        values = self._axis_values(i)
        count = len(values[0])
        if self._columns is not None:
            try:
                shape, columns = self._columns(tns, dict(zip(dests, values)), count)
            except _COMPUTE_ERRORS:
                pass  # each point is run alone below, and only the bad ones fail
            else:
                tail = shape if self._as_rows else ("{", "result", shape)
                yield self._frame(tail), count, [*values, *columns]
                return
        tails, where = [], vars(tns)
        for combo in zip(*values):
            where.update(zip(dests, combo))
            try:
                result = self._runner(tns)
            except _COMPUTE_ERRORS as exc:
                self.failed += 1
                tails.append({"error": _error_fields(exc)})
            else:
                tails.append(result if self._as_rows else {"result": result})
        start = 0
        for shape, run, columns in _blocks(tails):
            yield (self._frame(shape), run,
                   [*(axis[start:start + run] for axis in values), *columns])
            start += run


def _run_sweep(target: str, tns: argparse.Namespace,
               tparser: argparse.ArgumentParser) -> dict:
    """The sweep's result; its points are computed as they are written."""
    import numpy as np

    specs, flags = tns.sweep, _flags_of(target)
    dests = [name.replace("-", "_") for name, *_ in specs]
    total = math.prod(count for _, _, _, count, _ in specs)
    if total > _SWEEP_LIMIT:
        raise SweepSizeError(
            f"sweep would evaluate {total} points (limit {_SWEEP_LIMIT})")
    grids = []
    for dest, (_, start, stop, count, text) in zip(dests, specs):
        option, kwargs = flags[dest]
        cast = kwargs["type"]
        grid = np.linspace(start, stop, count)
        if cast is int and not np.all(grid == np.round(grid)):
            tparser.error(f"sweep {text} has non-integer points, but {option[0]} "
                          f"takes an integer")
        grids.append((grid, cast))
    command = _COMMANDS[target]
    points = _SweepPoints(command["run"], command.get("columns"), tns, dests, grids,
                          tns.fmt == "csv")
    return {"target": target, "count": total, "points": points}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # the top level takes no value, so the first token that names a
    # subcommand is the subcommand, and a token before it is a usage error
    at = next((i for i, token in enumerate(argv) if token in _COMMANDS or token == "sweep"),
              len(argv))
    sweep = argv[at:at + 1] == ["sweep"]
    top = build_parser().parse_args(argv if sweep else argv[:at + 1])
    command = top.command
    name = top.target if sweep else command
    t0 = time.perf_counter()
    parser = _command_parser(name, sweep)
    ns = parser.parse_args(top.rest if sweep else argv[at + 1:])
    params = _finalize(ns, name, parser, ns.sweep if sweep else None)
    if sweep:
        params = {"target": name, "sweep": [text for *_, text in ns.sweep], **params}
    try:
        result = _run_sweep(name, ns, parser) if sweep else _COMMANDS[name]["run"](ns)
    except _COMPUTE_ERRORS as exc:
        error = {"error": {**_error_fields(exc), "context": {"command": command}}}
        return _emit(ns.out, lambda out: _write_json(error, out), 1)

    if ns.fmt == "csv":
        if sweep:
            rows, header = result["points"], None
        else:
            spec = _COMMANDS[name]
            rows = _Records(spec["rows"](result) if "rows" in spec else [result])
            header = spec.get("csv_header")
        code = _emit(ns.out, lambda out: rows.write_csv(out, header), 0)
    else:
        if not sweep:
            # a list, such as a spectrum's levels, compiles one template per shape
            result = {key: _Records(value) if type(value) is list else value
                      for key, value in result.items()}
        # a sweep's points are computed while they are written, so its wall
        # time covers parsing and set-up only
        payload = {
            "manifest": {
                "argv": list(argv),
                "command": command,
                "params": params,
                **_manifest_settings(ns),
                "version": __version__,
                "wall_time_s": time.perf_counter() - t0,
            },
            "result": result,
        }
        code = _emit(ns.out, lambda out: _write_json(payload, out), 0)
    # a sweep point that failed is recorded in the output and fails the run
    return 1 if sweep and result["points"].failed else code


def run() -> None:
    """The process entry of ``saext`` and ``python -m saext.cli``: exit with main's code.

    main runs with the cyclic collector off, and once the output is written
    the heap is frozen, so that the collections at interpreter exit skip it.
    """
    gc.disable()
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":  # pragma: no cover
    run()
