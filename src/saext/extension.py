r"""Map the extension phase gamma to a concrete boundary condition.

Both catalog cases with indices (1,1) have a one-parameter family of
self-adjoint domains labelled by the phase of a 1x1 unitary, U = e^{i gamma}.
A domain element is

    xi = psi + psi_plus + e^{i gamma} psi_minus

with psi in the raw restrictive domain and psi_+- the normalized deficiency
pair of ``solve_deficiency``.  The boundary condition is read off the
deficiency contribution at the ends, with psi_+-' = rate_+- psi_+-; the
public maps read the lambda = 1 catalog pairs:

    momentum on [0,1]:   xi(1)/xi(0) = (1 + beta e)/(e + beta), beta = e^{i gamma},
                         a pure phase e^{i theta}  ->  psi(1) = e^{i theta} psi(0)
    Hamiltonian on R+:   alpha = xi'(0)/xi(0), real  ->  psi'(0) = alpha psi(0),
                         with gamma = pi the Dirichlet limit alpha -> inf.

For the half line the ratio is evaluated through the conjugate-pair
factorization xi(a) = 2 Re(e^{-i gamma/2} psi_plus(a)) e^{i gamma/2} (using
psi_minus = conj(psi_plus)), which is the naive complex division but stays
accurate near gamma = pi where 1 + e^{i gamma} cancels; the modulus identity
|alpha|^2 (1 + cos gamma) = lambda (1 - sin gamma) is a cross-check.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    FINITE,
    BoundaryCondition,
    GridFunction,
    Interval,
    OperatorSpec,
    derivative_values,
)
from .deficiency import DeficiencyReport, solve_deficiency
from .errors import PreconditionError, UnsupportedExtensionError

__all__ = [
    "ExtensionParameter",
    "momentum_bc_from_unitary",
    "halfline_bc_from_unitary",
    "assemble_domain_element",
]


@dataclass(frozen=True)
class ExtensionParameter:
    """Phase of the 1x1 von Neumann unitary, stored reduced to [0, 2pi)."""

    gamma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", float(self.gamma) % (2.0 * math.pi))


def _gamma_of(gamma: float | ExtensionParameter) -> float:
    return gamma.gamma if isinstance(gamma, ExtensionParameter) else float(gamma)


def _check_indices(report: DeficiencyReport) -> None:
    if not (report.n_plus == report.n_minus == 1):
        raise UnsupportedExtensionError(
            f"extensions need indices (1,1), got ({report.n_plus},{report.n_minus})")


def _bc_from_report(report: DeficiencyReport, gamma: float) -> BoundaryCondition:
    """The phase (finite interval) or Robin (half line) condition of xi at its ends."""
    _check_indices(report)
    plus, minus = report.basis_plus[0], report.basis_minus[0]
    # each sample grid starts at a and, on a finite interval, ends at b
    p_a = complex(plus.fn.values[0])
    if plus.interval.kind == FINITE:
        beta = cmath.exp(1j * gamma)
        ratio = ((complex(plus.fn.values[-1]) + beta * complex(minus.fn.values[-1]))
                 / (p_a + beta * complex(minus.fn.values[0])))
        if abs(abs(ratio) - 1.0) > 1e-12:
            raise AssertionError(f"ratio modulus {abs(ratio)!r} is not 1")
        return BoundaryCondition.phase(cmath.phase(ratio) % (2.0 * math.pi))
    half = 0.5 * gamma
    # xi(a) = e^{i g/2} 2 Re(e^{-i g/2} psi_+(a)), xi'(a) likewise; e^{i g/2} cancels
    denom = (cmath.exp(-1j * half) * p_a).real
    numer = (cmath.exp(-1j * half) * plus.rate * p_a).real
    if abs(denom) < 1e-12 * abs(p_a):
        return BoundaryCondition.robin(math.inf)
    alpha = numer / denom
    # modulus identity in half-angle form (1 + cos gamma cancels near pi)
    lhs = alpha**2 * 2.0 * math.cos(half) ** 2
    rhs = report.lam * (math.sin(half) - math.cos(half)) ** 2
    if abs(lhs - rhs) > 1e-12 * max(report.lam, abs(rhs)):
        raise AssertionError("modulus identity |alpha|^2(1+cos g) = lambda(1-sin g) failed")
    return BoundaryCondition.robin(alpha)


@functools.cache
def _catalog(kind: str) -> DeficiencyReport:
    """The lambda = 1 catalog report that a public map reads, built once.

    _bc_from_report reads only the ends of the sample grids, so two samples do.
    """
    if kind == "momentum":
        return solve_deficiency(OperatorSpec.momentum(Interval.finite(0.0, 1.0)), n=2)
    return solve_deficiency(OperatorSpec.free_hamiltonian(), n=2)


def momentum_bc_from_unitary(gamma: float | ExtensionParameter) -> BoundaryCondition:
    """Phase boundary condition psi(1) = e^{i theta} psi(0) for the momentum family."""
    return _bc_from_report(_catalog("momentum"), _gamma_of(gamma))


def halfline_bc_from_unitary(gamma: float | ExtensionParameter) -> BoundaryCondition:
    """Robin condition psi'(0) = alpha psi(0) for the half-line Hamiltonian family.

    gamma = pi (within 1e-12 of cos(gamma/2) = 0) returns robin(inf), the
    Dirichlet limit psi(0) = 0.
    """
    return _bc_from_report(_catalog("hamiltonian"), _gamma_of(gamma))


def _raw_violation(underlying: GridFunction, interval_kind: str) -> float:
    """How far the underlying function is from the raw restrictive domain."""
    scale = max(float(np.max(np.abs(underlying.values))), 1.0)
    if interval_kind == FINITE:
        return max(abs(underlying.values[0]), abs(underlying.values[-1])) / scale
    d0 = derivative_values(underlying.xs, underlying.values, order=1, acc=4)[0]
    return max(abs(underlying.values[0]), abs(d0)) / scale


def assemble_domain_element(underlying: GridFunction,
                            gamma: float | ExtensionParameter,
                            report: DeficiencyReport) -> GridFunction:
    """xi = psi + psi_plus + e^{i gamma} psi_minus on the grid of ``underlying``.

    ``underlying`` must satisfy the raw restrictive condition (vanishing
    endpoint data within 1e-8).  For any interval and lambda of ``report``
    the result satisfies to 1e-8 the boundary condition that the report
    gives for gamma; for the lambda = 1 catalog reports that is the
    condition of the matching *_bc_from_unitary map.
    """
    _check_indices(report)
    g = _gamma_of(gamma)
    kind = report.basis_plus[0].interval.kind
    if _raw_violation(underlying, kind) > 1e-8:
        raise PreconditionError(
            "underlying function violates the raw restrictive boundary condition")
    xs = underlying.xs
    psi_plus = report.basis_plus[0].closed_form(xs)
    psi_minus = report.basis_minus[0].closed_form(xs)
    xi = underlying.values + psi_plus + cmath.exp(1j * g) * psi_minus
    return underlying.with_values(xi)
