"""Domain-induced breaking of the scale symmetry on the half line.

The dilatation generator fails to preserve the Robin domain, and the
resulting commutator defect -- in closed form on the bound state, by quadrature
for a sampled psi -- lands exactly on the bound-state energy -alpha^2.  The
closed form, ``anomaly_quadrature`` and its ``AnomalyReport``, needs no array;
it lives in ``robin`` and is re-exported here.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import GridFunction, _require_single, derivative_values, inner_product
from .errors import DomainViolationError, PreconditionError
from .robin import AnomalyReport, anomaly_quadrature

__all__ = [
    "AnomalyReport",
    "ClassicalSymmetryVerdict",
    "anomaly_quadrature",
    "apply_dilatation",
    "classical_symmetry_check",
    "heisenberg_correction",
]


def _dilatation_pieces(psi: GridFunction, with_h: bool = True, d1=None):
    """(H psi or None, G psi) by 4th-order FD; G = (x p + p x)/4 = -(i/4)(2x d/dx + 1).

    d1 is psi' by the same stencil, where the caller has it already.
    """
    if d1 is None:
        d1 = derivative_values(psi.xs, psi.values, 1, acc=4)
    g_psi = -0.25j * (2.0 * psi.xs * d1 + psi.values)
    h_psi = -derivative_values(psi.xs, psi.values, 2, acc=4) if with_h else None
    return h_psi, g_psi


def apply_dilatation(psi: GridFunction, t: float) -> GridFunction:
    """t * H psi - G psi by interior 4th-order finite differences.

    The Hamiltonian term needs a 7-point stencil, the first-derivative
    part only 5; derivative_values rejects grids below that.
    """
    h_psi, g_psi = _dilatation_pieces(psi, with_h=t != 0.0)
    values = -g_psi if h_psi is None else t * h_psi - g_psi
    return GridFunction(psi.xs, values, weight=psi.weight)


#: Robin mismatch above this (scale-normalized) marks psi as outside the domain.
_ROBIN_TOL = 1e-6


def heisenberg_correction(psi: GridFunction, alpha: float, t: float = 0.0) -> complex:
    """Anomalous commutator piece i[(H psi, D psi) - (psi, H D psi)].

    Both inner products are computed head-on by quadrature; their
    mismatch is the surface term that moving H across (., .) leaves
    behind.  It vanishes for functions supported away from the
    boundary and reproduces the anomaly on the bound state.  psi must
    carry the plain dx measure, weight "1", and be one function, not a stack.
    """
    _require_single("the boundary correction", psi)
    if psi.weight != "1":
        raise PreconditionError("the boundary correction is defined for the dx "
                                "measure (weight '1'), got weight %r" % (psi.weight,))
    d1 = derivative_values(psi.xs, psi.values, 1, acc=4)
    # raises DegenerateGridError below the 7 samples that H psi's stencil needs
    h_values, g_values = _dilatation_pieces(psi, d1=d1)
    amp = float(np.max(np.abs(psi.values)))
    violation = abs(d1[0] - alpha * psi.values[0]) / ((1.0 + abs(alpha)) * max(amp, 1e-300))
    if violation > _ROBIN_TOL:
        raise DomainViolationError(
            "psi'(0) = alpha psi(0) violated at scaled level %.3e" % violation
        )
    d_psi = GridFunction(psi.xs, -g_values if t == 0.0 else t * h_values - g_values)
    h_psi = GridFunction(psi.xs, h_values)
    h_d_psi = GridFunction(psi.xs, -derivative_values(psi.xs, d_psi.values, 2, acc=4))
    return 1j * (inner_product(h_psi, d_psi) - inner_product(psi, h_d_psi))


class ClassicalSymmetryVerdict(NamedTuple):
    bracket_is_hamiltonian: bool
    free_dilatation_conserved: bool
    inverse_square_dilatation_conserved: bool
    text: str


def classical_symmetry_check() -> ClassicalSymmetryVerdict:
    """Exact symbolic statement that the classical symmetry is unbroken.

    {H, D} = H and dD/dt = dD/dt|_explicit + {D, H} = 0, both for the
    free particle and with the inverse-square potential added.
    """
    from .classical import (
        MonomialObservable,
        PowerLawPotential,
        dilatation_observable,
        hamiltonian_observable,
        poisson_bracket,
        total_time_derivative,
    )

    h_free = MonomialObservable.single(1, p_pow=2)
    d_free = dilatation_observable(h_free)
    bracket_ok = poisson_bracket(h_free, d_free) == h_free
    free_ok = total_time_derivative(d_free, h_free).is_zero

    h_inv = hamiltonian_observable(PowerLawPotential(1.0, -2))
    d_inv = dilatation_observable(h_inv)
    inv_ok = total_time_derivative(d_inv, h_inv).is_zero

    all_ok = bracket_ok and free_ok and inv_ok
    text = (
        "classical scale symmetry holds exactly: {H,D}=H and dD/dt=0, "
        "also with V = q^-2"
        if all_ok
        else "classical symmetry check FAILED"
    )
    return ClassicalSymmetryVerdict(bracket_ok, free_ok, inv_ok, text)
