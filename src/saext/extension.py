r"""Map the extension phase gamma to a concrete boundary condition.

Both catalog cases with indices (1,1) have a one-parameter family of
self-adjoint domains labelled by the phase of a 1x1 unitary, U = e^{i gamma}.
A domain element is

    xi = psi + psi_plus + e^{i gamma} psi_minus

with psi in the raw restrictive domain and psi_+- the normalized deficiency
pair of ``solve_deficiency``.  The boundary condition is the one that the
deficiency part meets at the ends.  For the lambda = 1 catalog pairs it is a
closed form in g = gamma mod 2pi (Bonneau, Faraut, Valent, Am. J. Phys. 69,
322 (2001)), which the public maps evaluate in pure Python, on no grid and
without numpy:

    momentum on [0,1]:   xi(1)/xi(0) = (beta + q)/(1 + q beta), beta = e^{ig}, q = 1/e,
                         a Blaschke factor of the circle, so psi(1) = e^{i theta} psi(0)
                         with theta = g - 2 atan2(q sin g, 1 + q cos g)
    Hamiltonian on R+:   xi'(0)/xi(0) = (mu + beta conj(mu))/(1 + beta), mu = (i - 1)/sqrt 2,
                         so psi'(0) = alpha psi(0) with alpha = (tan(g/2) - 1)/sqrt 2,
                         and g = pi the Dirichlet limit alpha -> inf.

Both forms meet |e^{i theta}| = 1 and |alpha|^2 (1 + cos g) = 1 - sin g by
construction.  ``assemble_domain_element`` builds xi on a grid for any
interval and lambda of a report, so it alone loads numpy and ``core``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import PreconditionError, UnsupportedExtensionError

if TYPE_CHECKING:  # for annotations; each function imports what it calls
    from .core import BoundaryCondition, GridFunction
    from .deficiency import DeficiencyReport

__all__ = [
    "ExtensionParameter",
    "momentum_bc_from_unitary",
    "halfline_bc_from_unitary",
    "assemble_domain_element",
]

#: q = e^{-lambda l} of the catalog momentum on [0, 1] at lambda = 1.
_Q = math.exp(-1.0)


@dataclass(frozen=True)
class ExtensionParameter:
    """Phase of the 1x1 von Neumann unitary, stored reduced to [0, 2pi)."""

    gamma: float

    def __post_init__(self) -> None:
        gamma = float(self.gamma)
        if not math.isfinite(gamma):
            raise PreconditionError("the phase gamma must be finite, got %r" % (gamma,))
        object.__setattr__(self, "gamma", gamma % math.tau)


def _gamma_of(gamma: float | ExtensionParameter) -> float:
    """gamma reduced to [0, 2pi) once, as ExtensionParameter reduces it."""
    if not isinstance(gamma, ExtensionParameter):
        gamma = ExtensionParameter(gamma)
    return gamma.gamma


def _theta(g: float) -> float:
    """theta in [0, 2pi) of psi(1) = e^{i theta} psi(0), for a reduced g."""
    return (g - 2.0 * math.atan2(_Q * math.sin(g), 1.0 + _Q * math.cos(g))) % math.tau


def _alpha(g: float) -> float:
    """alpha of psi'(0) = alpha psi(0) for a reduced g; inf within 1e-12 of cos(g/2) = 0."""
    if abs(math.cos(0.5 * g)) < 1e-12:
        return math.inf
    return (math.tan(0.5 * g) - 1.0) / math.sqrt(2.0)


def _check_indices(report: DeficiencyReport) -> None:
    if not (report.n_plus == report.n_minus == 1):
        raise UnsupportedExtensionError(
            f"extensions need indices (1,1), got ({report.n_plus},{report.n_minus})")


def momentum_bc_from_unitary(gamma: float | ExtensionParameter) -> BoundaryCondition:
    """Phase boundary condition psi(1) = e^{i theta} psi(0) for the momentum family."""
    from .core import BoundaryCondition

    return BoundaryCondition.phase(_theta(_gamma_of(gamma)))


def halfline_bc_from_unitary(gamma: float | ExtensionParameter) -> BoundaryCondition:
    """Robin condition psi'(0) = alpha psi(0) for the half-line Hamiltonian family.

    gamma = pi (within 1e-12 of cos(gamma/2) = 0) returns robin(inf), the
    Dirichlet limit psi(0) = 0.
    """
    from .core import BoundaryCondition

    return BoundaryCondition.robin(_alpha(_gamma_of(gamma)))


def assemble_domain_element(underlying: GridFunction,
                            gamma: float | ExtensionParameter,
                            report: DeficiencyReport) -> GridFunction:
    """xi = psi + psi_plus + e^{i gamma} psi_minus on the grid of ``underlying``.

    ``underlying`` must satisfy the raw restrictive condition (vanishing
    endpoint data within 1e-8).  For any interval and lambda of ``report``
    the result satisfies to 1e-8 the boundary condition that the report's
    deficiency pair meets at the ends for gamma; for the lambda = 1 catalog
    reports that is the condition of the matching *_bc_from_unitary map.
    ``underlying`` is one function, not a stack.
    """
    import numpy as np

    from .core import FINITE, _require_single, derivative_values

    _require_single("a domain element", underlying)
    _check_indices(report)
    g = _gamma_of(gamma)
    xs, values = underlying.xs, underlying.values
    # how far the underlying function is from the raw restrictive domain
    if report.basis_plus[0].interval.kind == FINITE:
        other = values[-1]
    else:
        other = derivative_values(xs, values, order=1, acc=4)[0]
    scale = max(float(np.max(np.abs(values))), 1.0)
    if max(abs(values[0]), abs(other)) / scale > 1e-8:
        raise PreconditionError(
            "underlying function violates the raw restrictive boundary condition")
    psi_plus = report.basis_plus[0].closed_form(xs)
    psi_minus = report.basis_minus[0].closed_form(xs)
    xi = values + psi_plus + cmath.exp(1j * g) * psi_minus
    return underlying.with_values(xi)
