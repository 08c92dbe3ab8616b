"""Spectra, bound states, and scattering data for the operator catalog.

The Robin half line's reflection amplitude and phase are closed forms that
need no array; they live in ``robin`` and are re-exported here.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import (
    FINITE,
    _LEVEL_BYTES,
    _SAMPLE_BYTES,
    GridFunction,
    Interval,
    _check_budget,
    _sample_grid,
)
from .errors import (
    InvalidIndexError,
    NoRootError,
    PreconditionError,
    TooCoarseError,
    UnsupportedOperatorError,
)
from .robin import _bound_energy, reflection_coefficient, reflection_phase

__all__ = [
    "BoundState",
    "ContinuousSpectrum",
    "Levels",
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


@dataclass(frozen=True, eq=False)
class Levels:
    """Labels n (Python ints, increasing) and float64 values of a point spectrum.

    ``eigenfunctions(xs, rows=slice(None))`` samples the closed forms of the
    levels ``rows`` at xs (1-D, or a scalar) as one (levels, samples) stack.
    """

    n: Tuple[int, ...]
    values: np.ndarray
    eigenfunctions: Callable[..., np.ndarray]

    def __len__(self) -> int:
        return len(self.n)


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
    discrete: Levels
    continuous: Optional[ContinuousSpectrum] = None


def _labels(n_range: Sequence[int]) -> Tuple[Tuple[int, ...], np.ndarray]:
    """The labels n_range, sorted, as Python ints and as float64.

    A label past the float range has no float and reads as the largest one;
    each level formula multiplies it by more than 1, so its level leaves the
    float range too and is refused by name.
    """
    _check_budget(_LEVEL_BYTES * len(n_range), "a range of %d levels" % len(n_range))
    ns = tuple(sorted(map(int, n_range)))
    try:
        return ns, np.array(ns, dtype=float)
    except OverflowError:
        top = sys.float_info.max
        return ns, np.array(ns, dtype=object).clip(-top, top).astype(float)


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
    ns, nf = _labels(n_range)
    with np.errstate(over="ignore"):
        p = (math.tau * nf + theta) / length
    lost = np.flatnonzero(~(np.isfinite(p) & (length < math.inf)))
    if lost.size:
        raise PreconditionError("the level (2*pi*n + theta)/L leaves the float range "
                                "at n=%d, theta=%r, L=%r" % (ns[lost[0]], theta, length))
    return SpectrumResult(Levels(ns, p, lambda xs, rows=slice(None): np.exp(
        1j * p[rows, None] * np.asarray(xs, dtype=float)) / math.sqrt(length)))


def well_spectrum(a: float, n_range: Sequence[int]) -> SpectrumResult:
    """Dirichlet levels E_n = (n*pi/a)^2 with psi_n = sqrt(2/a) sin(n*pi*x/a)."""
    if not a > 0.0:
        raise PreconditionError("well width must be positive, got %r" % (a,))
    if a == math.inf:
        raise PreconditionError("well width must be finite, got %r" % (a,))
    ns, nf = _labels(n_range)
    if ns and ns[0] <= 0:
        raise InvalidIndexError("well levels are labelled n = 1, 2, ...; got n=%d" % ns[0])
    with np.errstate(over="ignore"):
        kn = nf * math.pi / a
        values = kn * kn
    if ns and not values[-1] < math.inf:
        raise PreconditionError("the level (n*pi/a)^2 leaves the float range at n=%d, a=%r"
                                % (ns[-1], a))
    return SpectrumResult(Levels(ns, values, lambda xs, rows=slice(None): math.sqrt(2.0 / a)
                                 * np.sin(kn[rows, None] * np.asarray(xs, dtype=float))))


def _robin_levels(alpha: float) -> Levels:
    """The Robin bound state, E = -alpha^2 with sqrt(2|alpha|) exp(alpha*x), if alpha < 0.

    An alpha < 0 whose energy is not a normal float raises PreconditionError.
    """
    rates = np.array([alpha] if alpha < 0.0 else [], dtype=float)
    energies = np.array([_bound_energy(alpha)] if alpha < 0.0 else [], dtype=float)

    def psi(xs, rows=slice(None)):
        # an alpha*x past the float range is -inf, whose exp is the 0 it stands for
        with np.errstate(over="ignore"):
            return math.sqrt(2.0 * abs(alpha)) * np.exp(rates[rows, None] * np.asarray(xs, float))
    return Levels((0,) * len(rates), energies, psi)


def bound_state(
    alpha: float,
    x_max: Optional[float] = None,
    grid_n: Optional[int] = None,
) -> Optional[BoundState]:
    """Robin bound state on the half line: alpha < 0 gives E = -alpha^2.

    Returns ``None`` when alpha >= 0 (the boundary condition binds
    nothing).  The wave function is sqrt(2|alpha|) exp(alpha*x), unit
    norm on [0, 35/|alpha|] to well below 1e-8.  An alpha < 0 whose energy
    is not a normal float (2^-511 <= |alpha| < 2^512 is served) and a grid
    whose samples repeat in floats (x_max near 0) raise PreconditionError.
    """
    if not alpha < 0.0:
        return None
    energy = _bound_energy(alpha)
    if x_max is None:
        x_max = 35.0 / abs(alpha)
    elif not x_max > 0.0:
        raise PreconditionError("the grid cutoff x_max must be positive, got %r" % (x_max,))
    if grid_n is None:
        grid_n = 3501
    xs = _sample_grid(0.0, x_max, grid_n, "the bound state's grid")
    return BoundState(energy, GridFunction(xs, _robin_levels(alpha).eigenfunctions(xs)[0]))


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
    kappa = -alpha, whose energy -alpha^2 is returned in closed form; an
    energy that is not a normal float raises PreconditionError.  Neither ``x_max``
    nor ``ode_rtol`` is used; an integration becomes necessary once a
    potential V(x) enters the equation.
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
    energy = _bound_energy(alpha)
    if not lo <= energy <= hi:
        raise NoRootError(
            "boundary mismatch does not change sign on [%g, %g]" % (lo, hi)
        )
    return energy


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

    Discrete part: the single bound state when alpha < 0, refused
    (PreconditionError) where its energy -alpha^2 is not a normal float.
    Continuous part: the scattering branch [0, inf) with its reflection phase.
    """
    branch = ContinuousSpectrum(0.0, lambda k: reflection_phase(k, alpha))
    return SpectrumResult(_robin_levels(alpha), branch)


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
    The ring is charged _SAMPLE_BYTES a site to the memory budget first.
    """
    if n < 64:
        raise TooCoarseError("twisted ring needs n >= 64, got n=%d" % n)
    _check_budget(_SAMPLE_BYTES * n, "a twisted ring of n=%d" % n)
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
    (``None``: all of them).  The ring is charged _SAMPLE_BYTES a site to
    the memory budget first.
    """
    if n < 64:
        raise TooCoarseError("twisted ring needs n >= 64, got n=%d" % n)
    _check_budget(_SAMPLE_BYTES * n, "a twisted ring of n=%d" % n)
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
