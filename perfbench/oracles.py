"""Closed forms the benchmark checks saext against.

Everything here is derived by hand from the operator definitions and uses
numpy only; nothing is copied from saext or from its output.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


def robin_energy(alpha: float) -> float:
    """Bound-state energy of psi'(0) = alpha psi(0) on [0, inf): -alpha^2."""
    return -alpha * alpha


def rel_err(value: float, exact: float) -> float:
    return abs(value - exact) / abs(exact)


def reflection(k, alpha):
    """R = (alpha + ik)/(-alpha + ik) from matching e^{-ikx} + R e^{ikx}."""
    k = np.asarray(k, dtype=float)
    return (alpha + 1j * k) / (-alpha + 1j * k)


def reflection_phase(k, alpha):
    """Phase shift -arg R, reduced to [0, 2 pi)."""
    return np.mod(-np.angle(reflection(k, alpha)), 2.0 * math.pi)


def angle_gap(a, b):
    """Distance between angles on the circle."""
    d = np.mod(np.asarray(a) - np.asarray(b), 2.0 * math.pi)
    return np.minimum(d, 2.0 * math.pi - d)


def halfline_alpha(gamma: float) -> float:
    """Robin slope of xi = psi_+ + e^{i gamma} psi_- for -d^2/dx^2 on [0, inf).

    psi_+ = e^{mu x}, mu = (i - 1)/sqrt 2, psi_- its conjugate, so
    xi'(0)/xi(0) = Re(e^{-i gamma/2} mu)/cos(gamma/2) = (tan(gamma/2) - 1)/sqrt 2.
    """
    return (math.tan(0.5 * gamma) - 1.0) / math.sqrt(2.0)


def momentum_theta(gamma: float) -> float:
    """Twist theta of xi(1) = e^{i theta} xi(0) for -i d/dx on [0, 1], lambda = 1.

    The unit-norm deficiency vectors are c e^{1-x} and c e^{x} with one
    common c, so xi(1)/xi(0) = (1 + e^{i gamma} e)/(e + e^{i gamma}).
    """
    beta = cmath.exp(1j * gamma)
    return cmath.phase((1.0 + beta * math.e) / (math.e + beta)) % (2.0 * math.pi)


def ring_eigenvalues(theta: float, n: int) -> np.ndarray:
    """Spectrum of the twisted forward difference -i (psi_{j+1} - psi_j)/h, h = 1/n.

    The plane waves e^{i phi j} with phi = (2 pi m + theta)/n diagonalise it
    with eigenvalue -i n (e^{i phi} - 1).
    """
    phi = (2.0 * math.pi * np.arange(n) + theta) / n
    return -1j * n * (np.exp(1j * phi) - 1.0)


def ring_mismatch(values, theta: float, n: int) -> float:
    """Worst distance of ``values`` from the ring spectrum, and of their
    moduli from the smallest closed-form moduli, relative to n."""
    values = np.asarray(values, dtype=complex)
    exact = ring_eigenvalues(theta, n)
    nearest = np.min(np.abs(values[:, None] - exact[None, :]), axis=1)
    moduli = np.sort(np.abs(values)) - np.sort(np.abs(exact))[: len(values)]
    return float(max(np.max(nearest), np.max(np.abs(moduli)))) / n


def cosine_basis_matrix(l: float, size: int) -> np.ndarray:
    """(e_m, -i d/dx e_n) for e_n = sqrt(2/l) cos(n pi x/l), m, n = 1..size.

    int_0^l cos(m pi x/l) sin(n pi x/l) dx = l n (1 - (-1)^{m+n}) / (pi (n^2 - m^2)),
    so the entry is 4i n^2 / (l (n^2 - m^2)) for m + n odd and 0 otherwise.
    """
    m = np.arange(1, size + 1, dtype=float)[:, None]
    n = np.arange(1, size + 1, dtype=float)[None, :]
    odd = (m + n) % 2 == 1
    with np.errstate(divide="ignore", invalid="ignore"):
        entries = 4j * n * n / (l * (n * n - m * m))
    return np.where(odd, entries, 0.0)


def harmonic_dilatation_drift(g: float, q0: float, p0: float, t_end: float) -> float:
    """D(t_end) - D(0) for H = p^2 + g q^2, D = t H - q p / 2.

    dD/dt = (1 + s/2) g q^s = 2 g q^2 along q = A cos wt + B sin wt with
    w = 2 sqrt g, A = q0, B = 2 p0 / w; the integrand is non-negative, so this
    is also the largest excursion of D on [0, t_end].
    """
    w = 2.0 * math.sqrt(g)
    a, b = q0, 2.0 * p0 / w
    integral = ((a * a + b * b) * t_end / 2.0
                + (a * a - b * b) * math.sin(2.0 * w * t_end) / (4.0 * w)
                + a * b * (1.0 - math.cos(2.0 * w * t_end)) / (2.0 * w))
    return 2.0 * g * integral


def plane_wave_overlap(a: float, b: float, length: float) -> complex:
    """int_0^L conj(e^{iax}) e^{ibx} dx."""
    d = b - a
    if d == 0.0:
        return complex(length)
    return (cmath.exp(1j * d * length) - 1.0) / (1j * d)


def smooth_bump(xs: np.ndarray, center: float, half_width: float) -> np.ndarray:
    """C-infinity bump exp(-1/(1-u^2)), u = (x - center)/half_width, zero outside."""
    u = (xs - center) / half_width
    out = np.zeros_like(xs, dtype=complex)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out
