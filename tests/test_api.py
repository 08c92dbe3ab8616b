"""API contract: every public input is applied somewhere.

A parameter that no code reads is a formal symbol with nothing behind it:
a caller may pass it, and nothing changes.  Each module that ``saext``
re-exports is parsed with ``ast``; every parameter of a function in the
module's ``__all__``, and of a public method of a class in it, must occur
as a name in that function's body.  The few inputs kept though unread are
listed below with the reason each stays.
"""

import ast
import dataclasses
import importlib
import inspect

import saext

#: (function, parameter) of each public input that is accepted but not read.
_KEPT_UNREAD = {
    ("classical.integrate_flow", "tol"):
        "perfbench's drift probe passes tol=1e-10 by keyword",
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


def test_every_public_parameter_is_read():
    unread = set()
    for name in _EXPORTED_MODULES:
        module = importlib.import_module(f"saext.{name}")
        tree = ast.parse(inspect.getsource(module))
        for qualname, function in _functions(tree, module.__all__):
            unread |= {(f"{name}.{qualname}", param) for param in _unread(function)}
    assert unread == set(_KEPT_UNREAD)


def test_inputs_that_nothing_applied_are_gone():
    from saext.core import OperatorSpec, UnitSystem
    from saext.geometry import MeasureSpec, connection_condition

    def fields(cls):
        return [field.name for field in dataclasses.fields(cls)]

    assert fields(UnitSystem) == ["hbar"]
    assert fields(OperatorSpec) == ["kind", "interval"]
    assert "coordinate" not in fields(MeasureSpec)
    assert list(inspect.signature(connection_condition).parameters) == ["metric_det"]
    for constructor in (OperatorSpec.momentum, OperatorSpec.free_hamiltonian,
                        OperatorSpec.time_operator):
        assert "units" not in inspect.signature(constructor).parameters
