"""Closed forms of the Robin half line psi'(0) = alpha psi(0), in pure Python.

The bound state's energy -alpha^2, the reflection amplitude
R = (alpha + ik)/(-alpha + ik) with its phase, and the scale anomaly on the
bound state need no grid and no array, so this module imports neither numpy
nor ``core``: the ``scatter`` and ``anomaly`` subcommands, and sweeps of
them, run without loading numpy.  ``spectral`` and ``anomaly`` re-export
the public names.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import IndeterminateError, NoBoundStateError, PreconditionError

__all__ = [
    "AnomalyReport",
    "anomaly_quadrature",
    "reflection_coefficient",
    "reflection_phase",
]


def _bound_energy(alpha: float) -> float:
    """-alpha^2, the Robin bound-state energy of an alpha < 0, refused where not a normal float."""
    # below 2^-511 -alpha^2 is subnormal or 0.0; from 2^512 on it overflows
    if not 2.0**-511 <= -alpha < 2.0**512:
        raise PreconditionError("the energy -alpha^2 is a normal float only for "
                                "2^-511 <= |alpha| < 2^512, got alpha=%r" % (alpha,))
    return -alpha * alpha


def reflection_coefficient(k: float, alpha: float) -> complex:
    """Unit-modulus reflection amplitude R = (ik + alpha)/(ik - alpha)."""
    if math.isinf(alpha):
        # hard-wall limit of the Robin family
        return complex(-1.0, 0.0)
    if k == 0.0 and alpha == 0.0:
        raise IndeterminateError(
            "R is indeterminate at k=0 with a Neumann boundary"
        )
    r = complex(alpha, k) / complex(-alpha, k)
    if not cmath.isfinite(r):
        # R is scale-free: near the largest floats the quotient's own
        # denominator overflows, and a quarter of each part does not
        r = complex(alpha / 4, k / 4) / complex(-alpha / 4, k / 4)
    return r


def reflection_phase(k: float, alpha: float) -> float:
    """Phase shift of the reflected wave, reduced to [0, 2*pi)."""
    return (-cmath.phase(reflection_coefficient(k, alpha))) % math.tau


@dataclass(frozen=True)
class AnomalyReport:
    alpha: float
    t: float
    term_Hpsi_Dpsi: complex
    term_psi_HDpsi: complex
    anomaly: float
    bound_energy: float
    residual: float
    tolerance: float


def _robin_inner(p: list, q: list) -> complex:
    """(p psi, q psi) for p, q polynomials in u = 2|alpha| x: |psi|^2 dx = e^{-u} du."""
    return sum(a.conjugate() * b * math.factorial(j + k)
               for j, a in enumerate(p) for k, b in enumerate(q))


def anomaly_quadrature(alpha: float, t: float = 0.0, tol: float = 1e-6) -> AnomalyReport:
    """Evaluate i[(H psi, D psi) - (psi, H D psi)] on the bound state.

    In u = 2|alpha| x the state is psi ~ e^{-u/2}, d/dx = 2|alpha| d/du and
    d/du (p e^{-u/2}) = (p' - p/2) e^{-u/2}, so exactly H psi = -alpha^2 psi,
    G psi = -(i/4)(2u d/du + 1) psi = -(i/4)(1 - u) psi and
    H G psi = (i/4) alpha^2 (5 - u) psi; the inner products are exact moments.

    Both terms carry the same t * (H psi, H psi) piece, computed once so
    the cancellation is structural; what survives is the boundary
    mismatch between moving H across the inner product, and it equals
    the bound-state energy.  The residual scales with the energy, so the
    reported tolerance is relative: tol * |E|.  An alpha whose energy is not
    a normal float, or whose alpha^4 or t * alpha^4 is not finite, raises
    PreconditionError.
    """
    if not alpha < 0.0:
        raise NoBoundStateError(
            "no bound state for alpha=%r; the anomaly needs alpha < 0" % (alpha,)
        )
    energy = _bound_energy(alpha)
    psi, h_psi = [1.0], [energy]
    g_psi, hg_psi = [-0.25j, 0.25j], [-1.25j * energy, 0.25j * energy]
    c_h = _robin_inner(h_psi, h_psi)
    term_1 = t * c_h - _robin_inner(h_psi, g_psi)
    term_2 = t * c_h - _robin_inner(psi, hg_psi)
    anomaly_value = 1j * (term_1 - term_2)
    if not math.isfinite(anomaly_value.real):
        raise PreconditionError("the anomaly needs (H psi, H psi) = alpha^4 and "
                                "t*alpha^4 finite, got alpha=%r, t=%r" % (alpha, t))
    return AnomalyReport(
        alpha=alpha,
        t=t,
        term_Hpsi_Dpsi=term_1,
        term_psi_HDpsi=term_2,
        anomaly=anomaly_value.real,
        bound_energy=energy,
        residual=abs(anomaly_value.real - energy),
        tolerance=tol * abs(energy),
    )
