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
import csv
import itertools
import json
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

__all__ = ["main", "load_schema"]

_SWEEP_LIMIT = 1_000_000

#: The manifest's tolerances.tol of a subcommand that reads no tolerance.
_UNREAD_TOL = 1e-6


# ---------------------------------------------------------------------------
# Flag value parsers (argparse ``type=`` callables; errors become exit 2)
# ---------------------------------------------------------------------------

def _parse_units(text: str) -> UnitSystem:
    from .core import UnitSystem

    fields = {"hbar": 1.0, "two_m": 1.0}
    for part in text.split(","):
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep or key not in fields:
            raise argparse.ArgumentTypeError(
                "units must look like hbar=<v>,two_m=<v>; got %r" % (text,)
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
    return (name, start, stop, count)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------
#
# JSON output is the text of json.dumps(sort_keys=True, indent=2) + "\n" for
# the payload with string keys, numpy scalars unwrapped, complex numbers as
# {"re", "im"} and non-finite floats as "nan"/"inf"/"-inf".  CSV output is
# the dot-path projection of each row onto scalar columns.  Both work from a
# record's shape (keys in insertion order, list lengths, complex numbers,
# empty containers) and its scalar leaves, not from its tree.  A list of
# records is read _CHUNK records at a time.  A chunk whose records all have
# the shape of its first is taken apart column by column; only a chunk of
# mixed shapes is walked record by record.  Each distinct shape is compiled
# once: to a %-template at its indent depth for JSON, to its columns for
# CSV.  Each distinct column of a chunk is encoded once, in one call of the
# C json encoder (or of float repr), which the pure-Python encoder behind
# indent= cannot match.

_LEAF = None
_SCALARS = frozenset({float, int, str, bool, type(None)})
#: A complex number is walked as two leaves, real then imaginary part.
_COMPLEX = "complex"
_COMPLEX_DICT = ("{", "re", _LEAF, "im", _LEAF)
#: The values _walk descends into or splits; every other value is a leaf.
_NODES = (dict, list, tuple, complex)
_CHUNK = 4096
#: JSON text of a non-finite float, from the encoder's token or from repr.
_NON_FINITE = {"NaN": '"nan"', "Infinity": '"inf"', "-Infinity": '"-inf"',
               "nan": '"nan"', "inf": '"inf"', "-inf": '"-inf"'}
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
        return _COMPLEX
    leaves.append(obj)
    return _LEAF


def _pull(shape, column, out: list) -> bool:
    """Append to out the leaf columns of records of this shape, in walk order.

    column holds one value per record.  Returns False, with out partly
    filled, unless every value has the shape: a dict the shape's keys in
    order, a list or tuple its length, a complex number, or a leaf.  The
    test is strict: a dict keyed by non-str keys fails it even when it
    walks to the shape.
    """
    types = set(map(type, column))
    if shape is _LEAF:
        if any(issubclass(t, _NODES) for t in types):
            return False
        out.append(column)
        return True
    if shape == _COMPLEX:
        if not all(issubclass(t, complex) for t in types):
            return False
        out.append([z.real for z in column])
        out.append([z.imag for z in column])
        return True
    if shape[0] == "{":
        keys = shape[1::2]
        if not all(issubclass(t, dict) for t in types) \
                or list(map(tuple, column)).count(keys) != len(column):
            return False
    elif not all(issubclass(t, (list, tuple)) for t in types) \
            or set(map(len, column)) != {len(shape) - 1}:
        return False
    return all(_pull(child, list(map(operator.itemgetter(key), column)), out)
               for key, child in _children(shape))


def _blocks(records):
    """(shape, count, leaf columns in walk order) of each run of records of one shape.

    Records are read _CHUNK at a time.  A chunk is pulled apart column by
    column against the shape of its first record; only a chunk where that
    fails is walked record by record.
    """
    records = iter(records)
    while True:
        chunk = list(itertools.islice(records, _CHUNK))
        if not chunk:
            return
        shape, columns = _walk(chunk[0], []), []
        if _pull(shape, chunk, columns):
            yield shape, len(chunk), columns
            continue
        run: list = []
        for record in chunk:
            leaves: list = []
            own = _walk(record, leaves)
            if own != shape:
                if run:
                    yield shape, len(run), list(zip(*run))
                shape, run = own, []
            run.append(leaves)
        yield shape, len(run), list(zip(*run))


def _same_as(columns: list) -> list:
    """For each column: None if one object fills it, else the first column of the same objects.

    A swept value is echoed by the target's result, and a flag the sweep
    leaves alone is one object for the whole sweep, so such a column is
    encoded once or as a single value.
    """
    same, first_of = [], {}
    for i, column in enumerate(columns):
        head = column[0]
        if column[-1] is head and all(map(operator.is_, column, itertools.repeat(head))):
            same.append(None)
            continue
        same.append(i)
        for j in first_of.setdefault(id(head), []):
            if all(map(operator.is_, column, columns[j])):
                same[i] = j
                break
        else:
            first_of[id(head)].append(i)
    return same


def _encoded(columns: list, encode) -> list:
    """encode(column) of each column, called once per distinct column.

    encode maps a list of values to the list of their texts.
    """
    texts: list = []
    for i, (column, j) in enumerate(zip(columns, _same_as(columns))):
        if j is None:
            texts.append(encode(column[:1]) * len(column))
        else:
            texts.append(texts[j] if j < i else encode(column))
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
    if shape is _LEAF:
        order.append(base)
        return "%s", 1
    if shape == _COMPLEX:
        shape = _COMPLEX_DICT
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


def _json_tokens(leaves) -> list:
    """JSON text of each leaf, from one call of the C encoder.

    A column of floats needs no encoder: the text of a finite float is its
    repr, which is what the encoder writes.
    """
    if not leaves:
        return []
    if set(map(type, leaves)) == {float}:
        tokens = list(map(float.__repr__, leaves))
        if not all(map(math.isfinite, leaves)):
            tokens = [_NON_FINITE.get(token, token) for token in tokens]
        return tokens
    # a leaf's text holds no raw newline: strings escape it as \n
    text = json.dumps(leaves, separators=("\n", ":"), default=_json_default)
    tokens = text[1:-1].split("\n")
    if "NaN" in text or "Infinity" in text:
        tokens = [_NON_FINITE.get(token, token) for token in tokens]
    return tokens


def _csv_columns(shape, prefix: str, base: int, columns: dict) -> int:
    """Map each leaf's dot path in shape to its walk index; return the leaf count.

    A complex number is one column holding (real, imaginary) indices.  A
    repeated path keeps its first position and its last leaf.
    """
    if shape is _LEAF:
        columns[prefix[:-1]] = base
        return 1
    if shape == _COMPLEX:
        columns[prefix[:-1]] = (base, base + 1)
        return 2
    count = 0
    for key, child in _children(shape):
        count += _csv_columns(child, f"{prefix}{key}.", base + count, columns)
    return count


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _cells(values) -> list:
    """The CSV cells of a column of leaves."""
    if set(map(type, values)) == {float}:
        return list(map(float.__repr__, values))
    return list(map(_cell, values))


def _csv_layout(shape) -> dict:
    """Each leaf's dot path in shape mapped to its walk index (see _csv_columns)."""
    columns: dict = {}
    _csv_columns(shape, "", 0, columns)
    return columns


class _Records:
    """Records written as a JSON list or as CSV rows, one block of one shape at a time.

    records is read once, _CHUNK records at a time (see _blocks), so the
    records of a generator are made as they are written.  Each shape is
    compiled once and each distinct column of a block encoded once.
    """

    def __init__(self, records=()):
        self.records = records

    def blocks(self):
        """(shape, count, leaf columns) of each run of records of one shape."""
        return _blocks(self.records)

    def write_json(self, out, depth: int) -> None:
        """Write the records as a JSON list whose items sit at indent depth."""
        compiled: dict = {}
        sep = ",\n" + "  " * depth
        opened = False
        for shape, count, columns in self.blocks():
            if shape not in compiled:
                order: list = []
                compiled[shape] = _json_template(shape, depth, 0, order)[0], order
            template, order = compiled[shape]
            tokens = _encoded(columns, _json_tokens)
            rows = zip(*map(tokens.__getitem__, order)) if order \
                else itertools.repeat((), count)
            out.write((sep if opened else "[\n" + "  " * depth)
                      + sep.join(map(template.__mod__, rows)))
            opened = True
        out.write("\n" + "  " * (depth - 1) + "]" if opened else "[]")

    def write_csv(self, out, header: Optional[List[str]] = None) -> None:
        """Write one CSV row per record.

        The columns are header or, by default, every record's dot paths in
        first-seen order; a record lacking a column leaves its cell empty.
        Without a header every block is held until the last record is read.
        """
        blocks = self.blocks()
        layouts: dict = {}
        if header is None:
            blocks = list(blocks)
            for shape, _, _ in blocks:
                if shape not in layouts:
                    layouts[shape] = _csv_layout(shape)
            header = list(dict.fromkeys(name for cols in layouts.values() for name in cols))
        writer = csv.writer(out, lineterminator="\n")
        if header:
            writer.writerow(header)
        for shape, count, columns in blocks:
            if shape not in layouts:
                layouts[shape] = _csv_layout(shape)
            layout = layouts[shape]
            cells = _encoded(columns, _cells)
            blank = [""] * count
            row_cells = []
            for name in header:
                pick = layout.get(name)
                if pick is None:
                    row_cells.append(blank)
                elif type(pick) is int:
                    row_cells.append(cells[pick])
                else:
                    row_cells.append([_cell(complex(re, im)) for re, im
                                      in zip(columns[pick[0]], columns[pick[1]])])
            # a row of two or more cells of these types needs no quoting;
            # csv quotes the lone empty cell of a one-column row
            if len(header) > 1 and all(set(map(type, column)) <= _PLAIN_CELLS
                                       for column in columns):
                out.write("\n".join(map(",".join, zip(*row_cells))) + "\n")
            else:
                writer.writerows(zip(*row_cells) if header else itertools.repeat((), count))


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

def _run_deficiency(args) -> dict:
    from .core import Interval, OperatorSpec
    from .deficiency import solve_deficiency, verify_deficiency_numerically

    if args.op == "momentum":
        iv = args.interval or Interval.finite(0.0, 1.0)
        spec = OperatorSpec.momentum(iv)
    elif args.op == "hamiltonian":
        iv = args.interval or Interval.half_line()
        spec = OperatorSpec.free_hamiltonian(iv)
    else:
        iv = args.interval or Interval.half_line()
        spec = OperatorSpec.time_operator(iv.a)
    report = solve_deficiency(spec, lam=args.lam,
                              n=10_001 if args.grid_n is None else args.grid_n)
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

    from .core import Interval
    from .spectral import halfline_robin_spectrum, momentum_spectrum, well_spectrum

    if args.op == "momentum":
        iv = args.interval or Interval.finite(0.0, 1.0)
        n_min = -5 if args.n_min is None else args.n_min
        n_max = 5 if args.n_max is None else args.n_max
        res = momentum_spectrum(args.theta, iv, range(n_min, n_max + 1))
        params = {"op": "momentum", "theta": args.theta,
                  "interval": _interval_dict(iv), "n_min": n_min, "n_max": n_max}
    elif args.op == "well":
        n_min = 1 if args.n_min is None else args.n_min
        n_max = 5 if args.n_max is None else args.n_max
        res = well_spectrum(args.a, range(n_min, n_max + 1))
        params = {"op": "well", "a": args.a, "n_min": n_min, "n_max": n_max}
    else:
        res = halfline_robin_spectrum(_robin_alpha(args.alpha))
        params = {"op": "robin", "alpha": args.alpha}
    out = res.to_json_dict()
    if res.continuous is not None:
        ks = np.linspace(0.1, 5.0, 25)
        out["continuous"]["phase_samples"] = [
            {"k": float(k), "phase": res.continuous.reflection_phase(float(k))}
            for k in ks
        ]
    return {"params": params, **out}


def _robin_alpha(alpha: float) -> float:
    """alpha, refused where the bound-state energy -alpha^2 is not a normal float."""
    from .spectral import _ALPHA_NORMAL_MIN

    # below 2^-511 -alpha^2 is subnormal or 0.0; from 2^512 on it overflows
    if alpha < 0.0 and not _ALPHA_NORMAL_MIN <= -alpha < 2.0**512:
        raise PreconditionError("the energy -alpha^2 is a normal float only for "
                                "2^-511 <= |alpha| < 2^512, got alpha=%r" % (alpha,))
    return alpha


def _run_boundstate(args) -> dict:
    from .core import norm
    from .spectral import bound_state

    state = bound_state(_robin_alpha(args.alpha), x_max=args.x_max, grid_n=args.grid_n)
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

    report = anomaly_quadrature(_robin_alpha(args.alpha), t=args.t, tol=args.tol)
    if not math.isfinite(report.anomaly):
        raise PreconditionError("the anomaly needs (H psi, H psi) = alpha^4 and "
                                "t*alpha^4 finite, got alpha=%r, t=%r" % (args.alpha, args.t))
    return report.to_json_dict()


def _run_paradox(args) -> dict:
    from .discrete import (
        commuting_observables_demo,
        eigenvector_commutator_demo,
        hermiticity_defect_demo,
        trace_commutator_check,
    )

    n = args.n
    if args.id == 1:
        report = eigenvector_commutator_demo(
            args.theta, 256 if n is None else n, mode=args.mode, units=args.units)
    elif args.id == 2:
        report = trace_commutator_check(
            8 if n is None else n, args.trials,
            seed=0 if args.seed is None else args.seed, units=args.units)
    elif args.id == 3:
        report = commuting_observables_demo(
            args.a, 3 if n is None else n,
            grid_n=10_001 if args.grid_n is None else args.grid_n)
    else:
        report = hermiticity_defect_demo(args.l, 8 if n is None else n)
    return report.to_json_dict()


def _run_classical(args) -> dict:
    from .classical import PowerLawPotential, dilatation_drift_report, scale_condition_residual

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
        "symmetry_exact": scale_condition_residual(v).is_zero,
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

    from .core import GridFunction, inner_product
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
    xs = np.linspace(0.0, far_end, 4001 if args.grid_n is None else args.grid_n)
    f = GridFunction(xs, _bump_values(xs, 0.5 * (a + b), 0.5 * (b - a)), weight="r")
    defect = radial_symmetry_defect(omega, f, f)
    flat = GridFunction(xs, f.values, weight="1")
    return {
        "metric": args.metric,
        "connection": label,
        "probe": dict(args.probe),
        "defect": {"re": defect.real, "im": defect.imag},
        "commutator_sup": commutator_preservation_check(omega, f),
        "overlap_flat": inner_product(flat, flat).real,
    }


# ---------------------------------------------------------------------------
# Command table
# ---------------------------------------------------------------------------

#: Flags that more than one subcommand could take, by dest.  A subcommand
#: declares one in its "shared" entry only where its runner reads it, so a
#: flag that would change nothing is a usage error; one that declares
#: "tol" gives its default as "tol".
_SHARED = {
    "units": (("--units",), dict(type=_parse_units, default="hbar=1,two_m=1",
                                 metavar="hbar=<v>,two_m=<v>",
                                 help="unit system (default %(default)s)")),
    "tol": (("--tol",), dict(type=float, default=None,
                             help="tolerance override (default: SAEXT_TOL or the "
                                  "subcommand default)")),
    "grid_n": (("--grid-n",), dict(type=int, default=None,
                                   help="grid size override")),
    "seed": (("--seed",), dict(type=int, default=None,
                               help="RNG seed where randomness is used")),
}

_COMMANDS: Dict[str, dict] = {
    "deficiency": {
        "help": "deficiency indices and adjoint residual for a catalog operator",
        "args": [
            (("--op",), dict(choices=["momentum", "hamiltonian", "time"],
                             required=True, help="catalog operator")),
            (("--interval",), dict(type=_parse_interval, default=None,
                                   help="a,b with inf endpoints (default 0,1 "
                                        "for momentum, 0,inf otherwise)")),
            (("--lam",), dict(type=float, default=1.0,
                              help="probe scale lambda > 0 (default 1)")),
        ],
        "run": _run_deficiency,
        "shared": ("grid_n",),
    },
    "extend": {
        "help": "map a von Neumann phase gamma to its boundary condition",
        "args": [
            (("--operator",), dict(choices=["momentum", "hamiltonian"],
                                   required=True, help="extension family")),
            (("--gamma",), dict(type=float, required=True,
                                help="unitary phase in radians")),
        ],
        "run": _run_extend,
        "shared": (),
    },
    "spectrum": {
        "help": "discrete/continuous spectrum of a chosen operator",
        "args": [
            (("--op",), dict(choices=["momentum", "well", "robin"],
                             required=True, help="which spectrum")),
            (("--theta",), dict(type=float, default=0.0,
                                help="boundary phase for op=momentum")),
            (("--interval",), dict(type=_parse_interval, default=None,
                                   help="finite box for op=momentum (default 0,1)")),
            (("--n-min",), dict(type=int, default=None,
                                help="lowest level index (default -5 / 1)")),
            (("--n-max",), dict(type=int, default=None,
                                help="highest level index (default 5)")),
            (("--a",), dict(type=float, default=1.0,
                            help="well width for op=well (default 1)")),
            (("--alpha",), dict(type=float, default=-1.0,
                                help="Robin slope for op=robin (default -1)")),
        ],
        "run": _run_spectrum,
        "shared": (),
        "rows": operator.itemgetter("discrete"),
        "csv_header": ["n", "value"],
    },
    "boundstate": {
        "help": "Robin half-line bound state (absent for alpha >= 0)",
        "args": [
            (("--alpha",), dict(type=float, required=True,
                                help="Robin slope psi'(0) = alpha psi(0)")),
            (("--x-max",), dict(type=float, default=None,
                                help="grid cutoff (default 35/|alpha|)")),
        ],
        "run": _run_boundstate,
        "shared": ("grid_n",),
    },
    "scatter": {
        "help": "reflection coefficient of the Robin half line",
        "args": [
            (("--k",), dict(type=float, required=True, help="wave number k > 0")),
            (("--alpha",), dict(type=float, required=True,
                                help="Robin slope (inf = Dirichlet)")),
        ],
        "run": _run_scatter,
        "shared": (),
        # a sweep evaluates its points a chunk at a time
        "columns": _scatter_columns,
    },
    "anomaly": {
        "help": "dilatation anomaly on the Robin bound state",
        "args": [
            (("--alpha",), dict(type=float, required=True,
                                help="Robin slope, alpha < 0")),
            (("--t",), dict(type=float, default=0.0,
                            help="explicit time in the dilatation (default 0)")),
        ],
        "run": _run_anomaly,
        "shared": ("tol",),
        "tol": 1e-6,
    },
    "paradox": {
        "help": "numerical demonstration of a textbook operator paradox",
        "args": [
            (("--id",), dict(type=int, choices=[1, 2, 3, 4], required=True,
                             help="1 eigenvector, 2 trace, 3 commuting, "
                                  "4 hermiticity")),
            (("--n",), dict(type=int, default=None,
                            help="size parameter (default 256/8/3/8 by id)")),
            (("--l",), dict(type=float, default=1.0,
                            help="interval length for id=4 (default 1)")),
            (("--theta",), dict(type=float, default=0.0,
                                help="boundary phase for id=1 (default 0)")),
            (("--mode",), dict(type=int, default=1,
                               help="eigenvector label for id=1 (default 1)")),
            (("--trials",), dict(type=int, default=100,
                                 help="random pairs for id=2 (default 100)")),
            (("--a",), dict(type=float, default=1.0,
                            help="box width for id=3 (default 1)")),
        ],
        "run": _run_paradox,
        # --units is read by ids 1 and 2, --seed by id 2, --grid-n by id 3
        "shared": ("units", "seed", "grid_n"),
    },
    "classical": {
        "help": "dilatation drift along a power-law Hamiltonian flow",
        "args": [
            (("--s",), dict(type=float, required=True,
                            help="integer potential exponent")),
            (("--g",), dict(type=float, default=1.0,
                            help="coupling (default 1)")),
            (("--q0",), dict(type=float, default=1.0,
                             help="initial position (default 1)")),
            (("--p0",), dict(type=float, default=0.25,
                             help="initial momentum (default 0.25)")),
            (("--t-end",), dict(type=float, default=5.0,
                                help="integration horizon (default 5)")),
            (("--samples",), dict(type=int, default=4001,
                                  help="output samples (default 4001)")),
        ],
        "run": _run_classical,
        "shared": (),
    },
    "geometry": {
        "help": "radial symmetry defect and commutator check for a metric",
        "args": [
            (("--metric",), dict(choices=["polar", "spherical", "flat"],
                                 required=True, help="which measure")),
            (("--probe",), dict(type=_parse_probe,
                                default={"kind": "bump", "a": 1.0, "b": 2.0},
                                help="probe function bump:<a>,<b> (default "
                                     "bump:1,2)")),
        ],
        "run": _run_geometry,
        "shared": ("grid_n",),
    },
}


def _dest_of(flags: tuple, kwargs: dict) -> str:
    if "dest" in kwargs:
        return kwargs["dest"]
    return flags[0].lstrip("-").replace("-", "_")


def _command_params(name: str, ns: argparse.Namespace) -> dict:
    from .core import Interval

    params = {}
    for flags, kwargs in _COMMANDS[name]["args"]:
        dest = _dest_of(flags, kwargs)
        value = getattr(ns, dest)
        if isinstance(value, Interval):
            value = _interval_dict(value)
        params[dest] = value
    for dest in ("grid_n", "seed"):  # echoed only when given
        if getattr(ns, dest, None) is not None:
            params[dest] = getattr(ns, dest)
    return params


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads ``-1e-3`` and ``-inf`` as numbers, not flags.

    Python 3.11's argparse matches ``-1`` and ``-0.5`` only and takes
    ``-1e-3`` or ``-inf`` for an option string, so ``--alpha -1e-3`` would
    be a usage error.  ``-inf`` and ``-infinity`` match in any case, as
    float() reads them.  Subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|(?i:inf(inity)?))$")


def _common_parser(name: str) -> argparse.ArgumentParser:
    """The flags every subcommand takes, and the shared flags it declares."""
    common = argparse.ArgumentParser(add_help=False)
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="fmt", action="store_const", const="json",
                     help="emit JSON with a manifest (default)")
    fmt.add_argument("--csv", dest="fmt", action="store_const", const="csv",
                     help="emit a flat CSV projection instead")
    common.set_defaults(fmt="json")
    for dest in _COMMANDS[name]["shared"]:
        flags, kwargs = _SHARED[dest]
        common.add_argument(*flags, **kwargs)
    common.add_argument("--out", default=None, metavar="PATH",
                        help="write output to PATH instead of stdout")
    return common


def _target_parser(name: str) -> argparse.ArgumentParser:
    parser = _Parser(prog=f"saext sweep {name}", parents=[_common_parser(name)])
    for flags, kwargs in _COMMANDS[name]["args"]:
        # a required flag may be supplied by the sweep axis instead;
        # _run_sweep re-checks that nothing is left unset
        relaxed = dict(kwargs, required=False) if kwargs.get("required") \
            else kwargs
        parser.add_argument(*flags, **relaxed)
    parser.add_argument("--sweep", action="append", type=_parse_sweep,
                        default=[], metavar="param=start:stop:count",
                        help="axis of the parameter grid (repeatable)")
    return parser


def build_parser() -> argparse.ArgumentParser:
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
        p = sub.add_parser(name, help=spec["help"], parents=[_common_parser(name)])
        for flags, kwargs in spec["args"]:
            p.add_argument(*flags, **kwargs)
    # each subcommand's own parser, whose usage a usage error shows
    parser.commands = sub.choices
    p_sweep = sub.add_parser(
        "sweep", help="run a subcommand over a cartesian parameter grid")
    p_sweep.add_argument("target", choices=sorted(_COMMANDS),
                         help="subcommand to sweep")
    p_sweep.add_argument("rest", nargs=argparse.REMAINDER,
                         help="target flags plus --sweep param=start:stop:count")
    return parser


def _finalize(ns: argparse.Namespace, command: str,
              parser: argparse.ArgumentParser) -> None:
    spec = _COMMANDS[command]
    shared = spec["shared"]
    # a float flag may not be nan, nor +-inf but on --alpha (+inf is Dirichlet)
    for flags, kwargs in [*map(_SHARED.get, shared), *spec["args"]]:
        value = getattr(ns, _dest_of(flags, kwargs))
        if kwargs.get("type") is float and value is not None and not (
                math.isfinite(value) or math.isinf(value) and flags[0] == "--alpha"):
            parser.error(f"argument {flags[0]}: {value!r} is not a finite number")
    if "tol" not in shared:
        return
    source = "argument --tol"
    if ns.tol is None:
        env = os.environ.get("SAEXT_TOL")
        if env is None:
            ns.tol = spec["tol"]
        else:
            source = "SAEXT_TOL"
            try:
                ns.tol = float(env)
            except ValueError:
                parser.error(f"SAEXT_TOL is not a number: {env!r}")
    # a tolerance is a finite number > 0, from the flag or the environment
    if not 0.0 < ns.tol < math.inf:
        parser.error(f"{source}: {ns.tol!r} is not a finite number > 0")


def _manifest_settings(ns: argparse.Namespace, command: str) -> dict:
    """The manifest's units and tolerances; natural units and _UNREAD_TOL where unread."""
    from .core import UnitSystem

    shared = _COMMANDS[command]["shared"]
    units = ns.units if "units" in shared else UnitSystem()
    return {"units": {"hbar": units.hbar, "two_m": units.two_m},
            "tolerances": {"tol": ns.tol if "tol" in shared else _UNREAD_TOL}}


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

    A point is the record {"params": {name: value, ...}, "result": result}
    or, as a CSV row, {"param.<name>": value, ..., **result}.  A point whose
    runner raises a library error holds {"error": {code, message}} in place
    of its result; failed counts such points.

    runner computes one point from tns.  columns, where the target has one
    (see _scatter_columns), computes a whole chunk as leaf columns; a chunk
    it raises on is computed by runner one point at a time.
    """

    def __init__(self, runner, columns, tns: argparse.Namespace, names: list,
                 dests: list, grids: list, as_rows: bool):
        self.failed = 0
        self._runner, self._columns = runner, columns
        self._tns, self._dests, self._grids = tns, dests, grids
        self._as_rows = as_rows
        # the keys of the swept values, which come before the result's
        self._keys = ["param." + name for name in names] if as_rows else names

    def _axis_values(self):
        """For each chunk of the grid, in itertools.product order, each axis's values."""
        import numpy as np

        shape = tuple(len(grid) for grid, _ in self._grids)
        total = math.prod(shape)
        for start in range(0, total, _CHUNK):
            index = np.unravel_index(np.arange(start, min(start + _CHUNK, total)), shape)
            yield [[cast(v) for v in grid[i].tolist()]
                   for (grid, cast), i in zip(self._grids, index)]

    def _records(self, values: list, results: list, failed: set):
        """The records of a chunk's points; failed holds the indices of errors."""
        for i, (combo, result) in enumerate(zip(zip(*values), results)):
            head = dict(zip(self._keys, combo))
            if self._as_rows:
                head.update({"error": result} if i in failed else result)
                yield head
            else:
                yield {"params": head, "error" if i in failed else "result": result}

    def _frame(self, shape) -> tuple:
        """The shape of a point whose result has this shape."""
        params = tuple(x for key in self._keys for x in (key, _LEAF))
        if self._as_rows:
            return ("{", *params, *shape[1:])
        return ("{", "params", ("{", *params), "result", shape)

    def blocks(self):
        """Blocks as _blocks makes them; the swept values are columns already.

        A chunk that the target computes as columns, or whose results share
        the first one's shape, is written without making its records.  The
        rest are made and walked.
        """
        tns, runner, dests = self._tns, self._runner, self._dests
        where = vars(tns)
        for values in self._axis_values():
            if self._columns is not None:
                try:
                    shape, columns = self._columns(tns, dict(zip(dests, values)),
                                                   len(values[0]))
                except _COMPUTE_ERRORS:
                    pass  # each point is run alone below, and only the bad ones fail
                else:
                    yield self._frame(shape), len(values[0]), [*values, *columns]
                    continue
            results, failed = [], set()
            for combo in zip(*values):
                where.update(zip(dests, combo))
                try:
                    results.append(runner(tns))
                except _COMPUTE_ERRORS as exc:
                    failed.add(len(results))
                    results.append(_error_fields(exc))
            self.failed += len(failed)
            shape, columns = _walk(results[0], []), list(values)
            if not failed and _pull(shape, results, columns):
                yield self._frame(shape), len(results), columns
            else:
                yield from _blocks(self._records(values, results, failed))


def _run_sweep(target: str, tns: argparse.Namespace,
               tparser: argparse.ArgumentParser) -> dict:
    """The sweep's result; its points are computed as they are written."""
    import numpy as np

    specs = tns.sweep
    if not specs:
        tparser.error("sweep needs at least one --sweep param=start:stop:count")
    args_of = {_dest_of(flags, kwargs): (flags, kwargs)
               for flags, kwargs in _COMMANDS[target]["args"]}
    dests = [name.replace("-", "_") for name, _, _, _ in specs]
    swept = set(dests)
    if len(swept) < len(dests):
        tparser.error("each parameter may be swept by one --sweep only")
    for name in swept:
        if name not in args_of:
            tparser.error(f"unknown sweep parameter {name!r} for {target}")
        flags, kwargs = args_of[name]
        # only a plain number can be laid on a linspace grid
        if kwargs.get("type") not in (int, float) or "choices" in kwargs:
            tparser.error(f"{flags[0]} is not a numeric range and cannot "
                          f"be swept")
    for flags, kwargs in _COMMANDS[target]["args"]:
        dest = _dest_of(flags, kwargs)
        if kwargs.get("required") and dest not in swept \
                and getattr(tns, dest) is None:
            tparser.error(f"{flags[0]} must be given or swept for {target}")
    total = math.prod(count for _, _, _, count in specs)
    if total > _SWEEP_LIMIT:
        raise SweepSizeError(
            f"sweep would evaluate {total} points (limit {_SWEEP_LIMIT})")
    grids = []
    for dest, (name, start, stop, count) in zip(dests, specs):
        flags, kwargs = args_of[dest]
        cast = kwargs["type"]
        grid = np.linspace(start, stop, count)
        if cast is int and not np.all(grid == np.round(grid)):
            tparser.error(f"sweep {name}={start:g}:{stop:g}:{count} has "
                          f"non-integer points, but {flags[0]} takes an "
                          f"integer")
        grids.append((grid, cast))
    command = _COMMANDS[target]
    points = _SweepPoints(command["run"], command.get("columns"), tns,
                          [name for name, _, _, _ in specs], dests, grids,
                          tns.fmt == "csv")
    return {"target": target, "count": total, "points": points}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    ns = parser.parse_args(argv)
    command = ns.command

    out_path: Optional[str] = None
    t0 = time.perf_counter()
    try:
        if command == "sweep":
            tparser = _target_parser(ns.target)
            tns = tparser.parse_args(ns.rest)
            out_path = tns.out
            _finalize(tns, ns.target, tparser)
            # read before the sweep sets its axis values on tns
            params = {"target": ns.target,
                      "sweep": ["%s=%g:%g:%d" % spec for spec in tns.sweep],
                      **_command_params(ns.target, tns)}
            result = _run_sweep(ns.target, tns, tparser)
            out_ns = tns
        else:
            out_path = ns.out
            _finalize(ns, command, parser.commands[command])
            result = _COMMANDS[command]["run"](ns)
            out_ns = ns
            params = _command_params(command, ns)
    except _COMPUTE_ERRORS as exc:
        error = {"error": {**_error_fields(exc), "context": {"command": command}}}
        return _emit(out_path, lambda out: _write_json(error, out), 1)

    if out_ns.fmt == "csv":
        if command == "sweep":
            rows, header = result["points"], None
        else:
            spec = _COMMANDS[command]
            rows = _Records(spec["rows"](result) if "rows" in spec else [result])
            header = spec.get("csv_header")
        code = _emit(out_ns.out, lambda out: rows.write_csv(out, header), 0)
    else:
        if command != "sweep":
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
                **_manifest_settings(out_ns, ns.target if command == "sweep" else command),
                "version": __version__,
                "wall_time_s": time.perf_counter() - t0,
            },
            "result": result,
        }
        code = _emit(out_ns.out, lambda out: _write_json(payload, out), 0)
    # a sweep point that failed is recorded in the output and fails the run
    return 1 if command == "sweep" and result["points"].failed else code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
