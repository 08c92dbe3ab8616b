"""saext: self-adjoint extensions of 1D quantum operators, made executable.

Deficiency indices, von Neumann extension parameters mapped to physical
boundary conditions, the resulting spectra (bound, scattering, discretized),
the domain-induced scale anomaly, and numerical demonstrations of the
textbook operator paradoxes.

The submodules and the names below are imported on first access (PEP 562),
so ``import saext`` loads neither numpy nor any submodule.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

#: Each submodule and the public names the package re-exports from it.
_EXPORTS = {
    "anomaly": (
        "apply_dilatation",
        "classical_symmetry_check",
        "heisenberg_correction",
    ),
    "classical": (
        "DriftReport",
        "MonomialObservable",
        "PowerLawPotential",
        "dilatation",
        "dilatation_drift",
        "dilatation_drift_report",
        "hamiltonian_observable",
        "integrate_flow",
        "poisson_bracket",
        "scale_condition_residual",
        "total_time_derivative",
    ),
    "core": (
        "BoundaryCondition",
        "GridFunction",
        "Interval",
        "OperatorSpec",
        "UnitSystem",
        "boundary_form_hamiltonian",
        "boundary_form_momentum",
        "derivative",
        "inner_product",
        "norm",
    ),
    "deficiency": (
        "DeficiencyReport",
        "solve_deficiency",
        "verify_deficiency_numerically",
    ),
    "discrete": (
        "commuting_observables_demo",
        "cosine_basis_momentum_matrix",
        "eigenvector_commutator_demo",
        "hermiticity_defect_demo",
        "trace_commutator_check",
    ),
    "errors": ("SaextError",),
    "extension": (
        "ExtensionParameter",
        "assemble_domain_element",
        "halfline_bc_from_unitary",
        "momentum_bc_from_unitary",
    ),
    "geometry": (
        "MeasureSpec",
        "commutator_preservation_check",
        "connection_condition",
        "radial_symmetry_defect",
    ),
    "robin": (
        "AnomalyReport",
        "anomaly_quadrature",
        "reflection_coefficient",
    ),
    "spectral": (
        "BoundState",
        "SpectrumResult",
        "bound_state",
        "bound_state_shooting",
        "discretized_momentum_eigs",
        "halfline_robin_spectrum",
        "momentum_spectrum",
        "scattering_state",
        "well_spectrum",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    if name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
