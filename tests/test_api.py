"""API contract: every public input is applied somewhere.

A parameter that no code reads is a formal symbol with nothing behind it:
a caller may pass it, and nothing changes.  Each function and class in the
``__all__`` of a module that ``saext`` re-exports is parsed with ``ast``
from the module that defines it (``robin`` for the Robin closed forms that
``spectral`` and ``anomaly`` re-export); every parameter of such a function,
and of a public method of such a class, must occur as a name in that
function's body.  The few inputs kept though unread are
listed below with the reason each stays; a reason that cites perfbench is
checked against its worker's source.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import saext

_WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"

#: (function, parameter) of each public input that is accepted but not read.
_KEPT_UNREAD = {
    ("classical.dilatation_drift_report", "tol"):
        "perfbench's drift probe passes tol=1e-10 by keyword",
    ("spectral.bound_state_shooting", "x_max"):
        "the cutoff that a numerical Sturm-Liouville engine (ROADMAP item 6) integrates to",
    ("spectral.bound_state_shooting", "ode_rtol"):
        "the tolerance that a numerical Sturm-Liouville engine (ROADMAP item 6) integrates to",
}


#: The submodules that ``saext`` re-exports.
_EXPORTED_MODULES = [name for name in saext.__all__
                     if inspect.ismodule(getattr(saext, name))]


def _functions(tree: ast.Module, public):
    """(qualified name, node) of each function in public and each public method of a class in it."""
    for node in tree.body:
        if getattr(node, "name", None) not in public:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item


def _unread(function: ast.FunctionDef) -> list:
    """The parameters of function that no name in its body reads."""
    spec = function.args
    params = [*spec.posonlyargs, *spec.args, *spec.kwonlyargs,
              *filter(None, (spec.vararg, spec.kwarg))]
    seen = {node.id for statement in function.body for node in ast.walk(statement)
            if isinstance(node, ast.Name)}
    return [arg.arg for arg in params if arg.arg not in seen | {"self", "cls"}]


def _homes() -> dict:
    """The public functions and classes of the re-exported modules, by the module defining each."""
    homes: dict = {}
    for name in _EXPORTED_MODULES:
        module = importlib.import_module(f"saext.{name}")
        for public in module.__all__:
            value = getattr(module, public)
            if inspect.isfunction(value) or inspect.isclass(value):
                homes.setdefault(value.__module__, set()).add(public)
    return homes


def test_every_public_parameter_is_read():
    unread, checked = set(), set()
    for home, public in _homes().items():
        tree = ast.parse(inspect.getsource(importlib.import_module(home)))
        short = home.removeprefix("saext.")
        for qualname, function in _functions(tree, public):
            checked.add(f"{short}.{qualname}")
            unread |= {(f"{short}.{qualname}", param) for param in _unread(function)}
    assert unread == set(_KEPT_UNREAD)
    # the closed forms re-exported from their pure-Python home are checked there
    assert {"robin.reflection_coefficient", "robin.reflection_phase",
            "robin.anomaly_quadrature"} <= checked


def test_inputs_that_nothing_applied_are_gone():
    from saext.core import OperatorSpec, UnitSystem
    from saext.geometry import MeasureSpec, connection_condition

    def fields(cls):
        return [field.name for field in dataclasses.fields(cls)]

    assert fields(UnitSystem) == ["hbar"]
    assert fields(OperatorSpec) == ["kind", "interval"]
    assert "coordinate" not in fields(MeasureSpec)
    assert list(inspect.signature(connection_condition).parameters) == ["metric_det"]
    for function in (saext.integrate_flow, saext.dilatation_drift):
        assert "tol" not in inspect.signature(function).parameters
    for constructor in (OperatorSpec.momentum, OperatorSpec.free_hamiltonian,
                        OperatorSpec.time_operator):
        assert "units" not in inspect.signature(constructor).parameters


def test_each_input_kept_for_perfbench_is_passed_there():
    calls = [node for node in ast.walk(ast.parse(_WORKER.read_text()))
             if isinstance(node, ast.Call)]
    cited = {key for key, reason in _KEPT_UNREAD.items() if "perfbench" in reason}
    assert cited
    for function, param in cited:
        name = function.rsplit(".", 1)[1]
        assert any(getattr(call.func, "attr", getattr(call.func, "id", None)) == name
                   and param in {keyword.arg for keyword in call.keywords}
                   for call in calls), (function, param)
