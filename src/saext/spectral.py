"""Spectra, bound states, and scattering data for the operator catalog."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import (
    _ALPHA_NORMAL_MIN,
    FINITE,
    _LEVEL_BYTES,
    _SAMPLE_BYTES,
    GridFunction,
    Interval,
    _check_budget,
)
from .errors import (
    IndeterminateError,
    InvalidIndexError,
    NoRootError,
    PreconditionError,
    TooCoarseError,
    UnsupportedOperatorError,
)

__all__ = [
    "BoundState",
    "ContinuousSpectrum",
    "DiscreteLevel",
    "SpectrumResult",
    "bound_state",
    "bound_state_shooting",
    "discretized_momentum_eigpair",
    "discretized_momentum_eigs",
    "halfline_robin_spectrum",
    "momentum_spectrum",
    "reflection_coefficient",
    "reflection_phase",
    "scattering_state",
    "well_spectrum",
]


class DiscreteLevel(NamedTuple):
    """One eigenvalue with its eigenfunction in closed form, x -> psi_n(x)."""

    n: int
    value: float
    eigenfunction: Callable[[np.ndarray], np.ndarray]


class BoundState(NamedTuple):
    energy: float
    psi: GridFunction


@dataclass(frozen=True)
class ContinuousSpectrum:
    """Descriptor for a scattering branch starting at ``threshold``."""

    threshold: float
    reflection_phase: Callable[[float], float]


@dataclass(frozen=True)
class SpectrumResult:
    discrete: Tuple[DiscreteLevel, ...]
    continuous: Optional[ContinuousSpectrum] = None


def momentum_spectrum(
    theta: float,
    interval: Interval,
    n_range: Sequence[int],
) -> SpectrumResult:
    """Point spectrum p_n = (2*pi*n + theta)/L of -i d/dx on a finite box.

    Eigenfunctions are the unit-norm twisted exponentials
    exp(i p_n x)/sqrt(L), which pick up the phase exp(i*theta) from end
    to end.  A level or a length L past the float range is refused.
    """
    if interval.kind != FINITE:
        raise UnsupportedOperatorError(
            "the momentum operator has no self-adjoint version on an "
            "unbounded interval, so there is no spectrum to report"
        )
    length = interval.length
    _check_budget(_LEVEL_BYTES * len(n_range), "a range of %d levels" % len(n_range))
    levels = []
    for n in sorted(int(n) for n in n_range):
        p = (math.tau * n + theta) / length
        if not (math.isfinite(p) and length < math.inf):
            raise PreconditionError("the level (2*pi*n + theta)/L leaves the float range "
                                    "at n=%d, theta=%r, L=%r" % (n, theta, length))
        levels.append(DiscreteLevel(n, p, _plane_wave(p, length)))
    return SpectrumResult(tuple(levels))


def _plane_wave(p: float, length: float) -> Callable[[np.ndarray], np.ndarray]:
    return lambda x: np.exp(1j * p * np.asarray(x, dtype=float)) / math.sqrt(length)


def well_spectrum(a: float, n_range: Sequence[int]) -> SpectrumResult:
    """Dirichlet levels E_n = (n*pi/a)^2 with psi_n = sqrt(2/a) sin(n*pi*x/a)."""
    if not a > 0.0:
        raise PreconditionError("well width must be positive, got %r" % (a,))
    _check_budget(_LEVEL_BYTES * len(n_range), "a range of %d levels" % len(n_range))
    ns = sorted(int(n) for n in n_range)
    for n in ns:
        if n <= 0:
            raise InvalidIndexError(
                "well levels are labelled n = 1, 2, ...; got n=%d" % n
            )
    top = ns[-1] * math.pi / a if ns else 0.0
    if not top * top < math.inf:
        raise PreconditionError("the level (n*pi/a)^2 overflows at n=%d, a=%r" % (ns[-1], a))
    levels = []
    for n in ns:
        kn = n * math.pi / a
        levels.append(DiscreteLevel(n, kn * kn, _sine_mode(kn, a)))
    return SpectrumResult(tuple(levels))


def _sine_mode(kn: float, a: float) -> Callable[[np.ndarray], np.ndarray]:
    return lambda x: math.sqrt(2.0 / a) * np.sin(kn * np.asarray(x, dtype=float))


def _robin_state(alpha: float) -> Callable[[np.ndarray], np.ndarray]:
    """The Robin bound state sqrt(2|alpha|) exp(alpha*x), alpha < 0."""
    def psi(x):
        # an alpha*x past the float range is -inf, whose exp is the 0 it stands for
        with np.errstate(over="ignore"):
            return math.sqrt(2.0 * abs(alpha)) * np.exp(alpha * np.asarray(x, dtype=float))
    return psi


def bound_state(
    alpha: float,
    x_max: Optional[float] = None,
    grid_n: Optional[int] = None,
) -> Optional[BoundState]:
    """Robin bound state on the half line: alpha < 0 gives E = -alpha^2.

    Returns ``None`` when alpha >= 0 (the boundary condition binds
    nothing).  The wave function is sqrt(2|alpha|) exp(alpha*x), unit
    norm on [0, 35/|alpha|] to well below 1e-8 while -alpha^2 is a normal
    float, |alpha| >= 2^-511; below that the window stops growing.
    """
    if not alpha < 0.0:
        return None
    if x_max is None:
        x_max = 35.0 / max(abs(alpha), _ALPHA_NORMAL_MIN)
    elif not x_max > 0.0:
        raise PreconditionError("the grid cutoff x_max must be positive, got %r" % (x_max,))
    if grid_n is None:
        grid_n = 3501
    _check_budget(_SAMPLE_BYTES * grid_n, "a bound state on %d samples" % grid_n)
    xs = np.linspace(0.0, x_max, grid_n)
    return BoundState(-alpha * alpha, GridFunction(xs, _robin_state(alpha)(xs)))


def bound_state_shooting(
    alpha: float,
    e_bracket: Tuple[float, float],
    x_max: Optional[float] = None,
    ode_rtol: float = 1e-10,
) -> float:
    """Locate the Robin bound-state energy by inward shooting.

    Shooting psi'' = -E psi inward from the decaying far-field data
    psi'/psi = -kappa, kappa = sqrt(-E), gives the normalised boundary
    mismatch (psi' - alpha*psi)/(|psi| + |psi'|) at 0.  With no potential
    the shot is exact (the data are the decaying solution exp(-kappa*x)
    itself), so the mismatch is (-kappa - alpha)/(1 + kappa), and this is
    not a check of E = -alpha^2 independent of ``bound_state``.  It changes
    sign on the bracket exactly when the bracket holds its root
    kappa = -alpha, which is returned in closed form.  Neither ``x_max`` nor
    ``ode_rtol`` is used; an integration becomes necessary once a potential
    V(x) enters the equation.
    """
    if not alpha < 0.0:
        raise PreconditionError(
            "only alpha < 0 supports a bound state; got alpha=%r" % (alpha,)
        )
    lo, hi = (float(e_bracket[0]), float(e_bracket[1]))
    if lo > hi:
        lo, hi = hi, lo
    if hi >= 0.0:
        raise PreconditionError("energy bracket must be negative, got %r" % (e_bracket,))
    energy = -alpha * alpha
    if not lo <= energy <= hi:
        raise NoRootError(
            "boundary mismatch does not change sign on [%g, %g]" % (lo, hi)
        )
    return energy


def reflection_coefficient(k: float, alpha: float) -> complex:
    """Unit-modulus reflection amplitude R = (ik + alpha)/(ik - alpha)."""
    if math.isinf(alpha):
        # hard-wall limit of the Robin family
        return complex(-1.0, 0.0)
    if k == 0.0 and alpha == 0.0:
        raise IndeterminateError(
            "R is indeterminate at k=0 with a Neumann boundary"
        )
    return complex(alpha, k) / complex(-alpha, k)


def reflection_phase(k: float, alpha: float) -> float:
    """Phase shift of the reflected wave, reduced to [0, 2*pi)."""
    return (-cmath.phase(reflection_coefficient(k, alpha))) % math.tau


def _reflection_columns(k, alpha) -> tuple:
    """Lists of R.real, R.imag, abs(R) and the reflection phase at each (k, alpha).

    Each value is the float that reflection_coefficient, abs and
    reflection_phase give for that point.  The quotient is CPython's
    complex division (Smith's method) in the same operation order, the
    modulus is hypot as in abs(complex), and the phase goes through libm's
    atan2 (math.atan2), since numpy's SIMD arctan2 can differ from it by an
    ulp.  A point whose quotient is not finite there (alpha = +-inf, the
    indeterminate k = alpha = 0, a non-finite input) is computed by
    reflection_coefficient, so it raises as that does.
    """
    k = np.asarray(k, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    # R = (alpha + ik)/(-alpha + ik): divide through by the larger of |alpha|, |k|
    by_alpha = np.abs(alpha) >= np.abs(k)
    with np.errstate(all="ignore"):
        ratio = np.where(by_alpha, k / -alpha, -alpha / k)
        denom = np.where(by_alpha, -alpha + k * ratio, -alpha * ratio + k)
        re = np.where(by_alpha, alpha + k * ratio, alpha * ratio + k) / denom
        im = np.where(by_alpha, k - alpha * ratio, k * ratio - alpha) / denom
        modulus = np.hypot(re, im)
    lost = np.flatnonzero(~np.isfinite(modulus)).tolist()
    re, im, modulus = re.tolist(), im.tolist(), modulus.tolist()
    for i in lost:
        r = reflection_coefficient(float(k[i]), float(alpha[i]))
        re[i], im[i], modulus[i] = r.real, r.imag, abs(r)
    phase = [(-p) % math.tau for p in map(math.atan2, im, re)]
    return re, im, modulus, phase


def scattering_state(k: float, alpha: float, xs: np.ndarray) -> GridFunction:
    """Stationary scattering solution exp(-ikx) + R exp(ikx), unnormalized."""
    if not k > 0.0:
        raise PreconditionError("scattering states need k > 0, got k=%r" % (k,))
    r = reflection_coefficient(k, alpha)
    grid = np.asarray(xs, dtype=float)
    values = np.exp(-1j * k * grid) + r * np.exp(1j * k * grid)
    return GridFunction(grid, values)


def halfline_robin_spectrum(alpha: float) -> SpectrumResult:
    """Full spectral data of the Robin half-line Hamiltonian.

    Discrete part: the single bound state when alpha < 0.  Continuous
    part: the scattering branch [0, inf) with its reflection phase.
    """
    discrete = (DiscreteLevel(0, -alpha * alpha, _robin_state(alpha)),) if alpha < 0.0 else ()
    branch = ContinuousSpectrum(0.0, lambda k: reflection_phase(k, alpha))
    return SpectrumResult(discrete, branch)


def _twisted_difference(theta: float, vec: np.ndarray) -> np.ndarray:
    """Apply the one-sided difference -i d/dx on a theta-twisted ring to ``vec``.

    (P v)_j = i*n*(v_j - v_{j+1}), with h = 1/n and v_n = exp(i*theta) v_0.
    """
    ahead = np.roll(vec, -1)
    ahead[-1] *= cmath.exp(1j * theta)
    return 1j * vec.size * (vec - ahead)


def discretized_momentum_eigpair(theta: float, n: int, mode: int):
    """Closed-form eigenpair of the twisted difference matrix.

    The vector exp(i*phi*j)/sqrt(n) with phi = (2*pi*mode + theta)/n is
    an exact eigenvector with eigenvalue -i*n*(exp(i*phi) - 1).  Modes m
    and m + n give the same eigenpair, so mode is taken modulo n, centred
    on 0 as in discretized_momentum_eigs; phi keeps its digits that way.
    """
    if n < 64:
        raise TooCoarseError("twisted ring needs n >= 64, got n=%d" % n)
    mode = (mode + n // 2) % n - n // 2
    phi = (math.tau * mode + theta) / n
    lam = -1j * n * (cmath.exp(1j * phi) - 1.0)
    vec = np.exp(1j * phi * np.arange(n)) / math.sqrt(n)
    return lam, vec


def discretized_momentum_eigs(
    theta: float, n: int, count: Optional[int] = None
) -> List[complex]:
    """Eigenvalues of the twisted difference matrix, sorted by modulus.

    The matrix is i*n*(1 - S) with S the theta-twisted cyclic shift.  S is
    unitary, so the matrix is normal and its eigenvalues are exactly
    -i*n*(exp(i*phi) - 1), phi = (2*pi*m + theta)/n, on the circle
    |lambda - i*n| = n; they approach 2*pi*m + theta at first order in
    1/n.  The modulus grows with |2*pi*m + theta|, so modes +-m tie at
    theta = 0 and m, -m-1 at theta = pi; a tie lists the negative mode
    first.  ``count`` keeps the smallest ``count`` of the n values
    (``None``: all of them).
    """
    if n < 64:
        raise TooCoarseError("twisted ring needs n >= 64, got n=%d" % n)
    if count is None:
        count = n
    elif not 1 <= count <= n:
        raise PreconditionError("count must lie in 1..%d, got %r" % (n, count))
    shift = theta / math.tau
    # one mode per eigenvalue, centred so that |m + shift| <= n/2
    modes = np.arange(n) + math.ceil(-0.5 * n - shift)
    key = modes + shift
    modes = modes[np.lexsort((key >= 0.0, np.abs(key)))[:count]]
    phi = (math.tau * modes + theta) / n
    vals = -1j * n * (np.exp(1j * phi) - 1.0)
    return [complex(v) for v in vals]
