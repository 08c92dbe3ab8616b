r"""Grids, quadrature, finite differences, and the endpoint boundary forms.

Everything downstream works with :class:`GridFunction`: complex samples on a
strictly increasing 1D grid together with a measure weight w(x) >= 0, so that
the inner product is the weighted L2 pairing

    (f, g) = int conj(f(x)) g(x) w(x) dx.

The values may be a stack of functions on one grid, samples on the last axis:
derivatives, inner products and norms then go row by row, each row to the bits
of a call on that row alone.

The two boundary forms are the endpoint expressions whose vanishing
characterises symmetric domains:

    momentum  -i d/dx :   delta_p(xi, eta) = -i [ conj(xi(b)) eta(b) - conj(xi(a)) eta(a) ]
    Hamiltonian -d2/dx2 : delta_H(xi, eta) = conj(xi(0)) eta'(0) - conj(xi'(0)) eta(0)

Quadrature is composite Simpson on uniform grids with an odd point count and
trapezoid otherwise.  Both rules have positive weights and are applied as a
single real-coefficient linear functional of the sampled integrand, which is
what makes conjugate symmetry (f,g) = conj((g,f)) and Im (f,f) = 0 hold to the
last bit, not just to rounding.

Derivatives use Fornberg's algorithm for finite-difference weights on
arbitrary nodes: centred stencils in the interior, one-sided stencils of at
least the same order at the edges.  The default (order 4) is what the
Hamiltonian boundary form needs to resolve endpoint derivatives more
accurately than the quadrature error.

Units are hbar = 1 and 2m = 1 throughout, so the free Hamiltonian is exactly
-d2/dx2; :class:`UnitSystem` carries hbar where a demonstration reports a
physical value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateGridError,
    GridMismatchError,
    PreconditionError,
    UnsupportedBoundaryError,
)

__all__ = [
    "FULL_LINE",
    "HALF_LINE",
    "FINITE",
    "MOMENTUM",
    "FREE_HAMILTONIAN",
    "TIME_OPERATOR",
    "WEIGHTS",
    "Interval",
    "UnitSystem",
    "OperatorSpec",
    "BoundaryCondition",
    "GridFunction",
    "quadrature_weights",
    "inner_product",
    "norm",
    "fd_weights",
    "derivative_values",
    "derivative",
    "boundary_form_momentum",
    "boundary_form_hamiltonian",
]

FULL_LINE = "full_line"
HALF_LINE = "half_line"
FINITE = "finite"

MOMENTUM = "momentum"
FREE_HAMILTONIAN = "free_hamiltonian"
TIME_OPERATOR = "time_operator"

#: Registry of measure-weight descriptors, by the id a GridFunction carries.
WEIGHTS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "1": lambda x: np.ones_like(x, dtype=float),
    "r": lambda x: np.asarray(x, dtype=float).copy(),
    "r^2": lambda x: np.asarray(x, dtype=float) ** 2,
}


#: Largest set of arrays, in bytes, that one call may allocate (1 GiB).  A
#: size that needs more is refused before anything is allocated.
_MEMORY_BUDGET = 1 << 30
#: Bytes charged per grid sample and per spectral level: about twice the
#: peak memory that each took through the CLI, at 1e6 samples and 3e5 levels.
_SAMPLE_BYTES = 256
_LEVEL_BYTES = 2048


def _bound_energy(alpha: float) -> float:
    """-alpha^2, the Robin bound-state energy of an alpha < 0, refused where not a normal float."""
    # below 2^-511 -alpha^2 is subnormal or 0.0; from 2^512 on it overflows
    if not 2.0**-511 <= -alpha < 2.0**512:
        raise PreconditionError("the energy -alpha^2 is a normal float only for "
                                "2^-511 <= |alpha| < 2^512, got alpha=%r" % (alpha,))
    return -alpha * alpha


def _check_budget(nbytes: int, what: str) -> None:
    if nbytes > _MEMORY_BUDGET:
        raise PreconditionError(
            "%s needs about %.3g GiB of arrays, over the %d GiB memory budget"
            % (what, nbytes / 2**30, _MEMORY_BUDGET >> 30))


def _sample_grid(a: float, b: float, n: int, what: str) -> np.ndarray:
    """n evenly spaced samples from a to b, refused where b - a overflows or floats repeat one."""
    if not b - a < math.inf:
        raise PreconditionError("%s: the length from %r to %r leaves the float range"
                                % (what, a, b))
    xs = np.linspace(a, b, n)
    if not np.all(np.diff(xs) > 0):
        raise PreconditionError("%s: %d evenly spaced samples from %r to %r repeat in floats"
                                % (what, n, a, b))
    return xs


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """A 1D domain: the full line, a half line [a, inf), or finite [a, b]."""

    kind: str
    a: float = -math.inf
    b: float = math.inf

    def __post_init__(self) -> None:
        if self.kind not in (FULL_LINE, HALF_LINE, FINITE):
            raise ValueError(f"unknown interval kind {self.kind!r}")
        if self.kind == FINITE:
            if not (math.isfinite(self.a) and math.isfinite(self.b)):
                raise ValueError("finite interval needs finite endpoints")
            if not self.a < self.b:
                raise ValueError("finite interval needs a < b")
        elif self.kind == HALF_LINE:
            if not math.isfinite(self.a):
                raise ValueError("half line needs a finite left endpoint")
            object.__setattr__(self, "b", math.inf)
        else:
            object.__setattr__(self, "a", -math.inf)
            object.__setattr__(self, "b", math.inf)

    @classmethod
    def finite(cls, a: float, b: float) -> "Interval":
        return cls(FINITE, float(a), float(b))

    @classmethod
    def half_line(cls, a: float = 0.0) -> "Interval":
        return cls(HALF_LINE, float(a))

    @classmethod
    def full_line(cls) -> "Interval":
        return cls(FULL_LINE)

    @property
    def length(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class UnitSystem:
    """hbar; 2m = 1 throughout.  The default gives p = -i d/dx exactly."""

    hbar: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.hbar < math.inf:
            raise ValueError("hbar must be finite and positive")


@dataclass(frozen=True)
class OperatorSpec:
    """Which catalog operator on which interval."""

    kind: str
    interval: Interval

    def __post_init__(self) -> None:
        if self.kind not in (MOMENTUM, FREE_HAMILTONIAN, TIME_OPERATOR):
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.kind == TIME_OPERATOR and self.interval.kind != HALF_LINE:
            # the conjugate energy variable is bounded below at E0
            raise ValueError("time operator requires a half-line interval [E0, inf)")

    @classmethod
    def momentum(cls, interval: Interval) -> "OperatorSpec":
        return cls(MOMENTUM, interval)

    @classmethod
    def free_hamiltonian(cls, interval: Interval | None = None) -> "OperatorSpec":
        return cls(FREE_HAMILTONIAN, interval or Interval.half_line())

    @classmethod
    def time_operator(cls, e0: float = 0.0) -> "OperatorSpec":
        return cls(TIME_OPERATOR, Interval.half_line(e0))


PHASE = "phase"
ROBIN = "robin"


@dataclass(frozen=True)
class BoundaryCondition:
    """A concrete boundary condition selecting one self-adjoint domain.

    variant ``phase`` carries theta (psi(b) = e^{i theta} psi(a), momentum on a
    finite interval); ``robin`` carries alpha (psi'(0) = alpha psi(0), free
    Hamiltonian on a half line), with alpha = inf denoting the Dirichlet limit
    psi(0) = 0.
    """

    variant: str
    value: float | None = None

    def __post_init__(self) -> None:
        if self.variant not in (PHASE, ROBIN):
            raise ValueError(f"unknown boundary-condition variant {self.variant!r}")
        if self.variant == PHASE:
            object.__setattr__(self, "value", float(self.value) % (2.0 * math.pi))
        elif self.value is None:
            raise ValueError("robin condition needs a value")
        else:
            object.__setattr__(self, "value", float(self.value))

    @classmethod
    def phase(cls, theta: float) -> "BoundaryCondition":
        return cls(PHASE, theta)

    @classmethod
    def robin(cls, alpha: float) -> "BoundaryCondition":
        return cls(ROBIN, alpha)

    @property
    def is_dirichlet_limit(self) -> bool:
        """True for robin(inf), the alpha -> inf limit psi(0)=0."""
        return self.variant == ROBIN and math.isinf(self.value)


# ---------------------------------------------------------------------------
# Grid functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GridFunction:
    """Complex samples on a strictly increasing grid with a measure weight.

    values is one function or a stack, samples on the last axis.  Arrays are
    locked after construction; all operations build new instances.
    """

    xs: np.ndarray
    values: np.ndarray
    weight: str = "1"

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        _check_samples(xs, values)
        if len(xs) < 2:
            raise DegenerateGridError("grid needs at least 2 points")
        if not np.all(np.diff(xs) > 0):
            raise ValueError("xs must be strictly increasing")
        if self.weight not in WEIGHTS:
            raise ValueError(f"unknown weight descriptor {self.weight!r}")
        if np.any(WEIGHTS[self.weight](xs) < 0):
            raise ValueError("measure weight negative on the grid")
        for name, array in (("xs", xs), ("values", values)):
            array = array.copy()
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    # -- constructors -------------------------------------------------------

    @classmethod
    def uniform(cls, fn: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                n: int, weight: str = "1") -> "GridFunction":
        xs = np.linspace(a, b, n)
        return cls(xs, fn(xs), weight)

    # -- basics -------------------------------------------------------------

    @property
    def w(self) -> np.ndarray:
        """Sampled measure weight."""
        return WEIGHTS[self.weight](self.xs)

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.xs, values, self.weight)

    def __len__(self) -> int:
        return len(self.xs)


def _check_samples(xs: np.ndarray, values: np.ndarray) -> None:
    if xs.ndim != 1 or values.ndim not in (1, 2) or values.shape[-1] != len(xs):
        raise ValueError("values must be 1D or 2D, the samples of the 1D xs on the last axis")


def _require_same_grid(f: GridFunction, g: GridFunction) -> None:
    if f.weight != g.weight or not np.array_equal(f.xs, g.xs):
        raise GridMismatchError("grid functions must share grid and weight")


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

def _is_uniform(h: np.ndarray) -> bool:
    """Whether the grid steps ``h`` agree to 1e-9 relative."""
    return bool(np.all(np.abs(h - h[0]) <= 1e-9 * abs(h[0])))


def quadrature_weights(xs: np.ndarray) -> np.ndarray:
    """Positive quadrature weights for the grid.

    Uniform grid with an odd number of points: composite Simpson
    (exact for cubics, error O(h^4)).  Anything else: trapezoid.
    """
    xs = np.asarray(xs, dtype=float)
    n = len(xs)
    if n < 2:
        raise DegenerateGridError("quadrature needs at least 2 points")
    h = np.diff(xs)
    if _is_uniform(h) and n >= 3 and n % 2 == 1:
        w = np.full(n, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        return w * (h[0] / 3.0)
    w = np.zeros(n)
    w[:-1] += h / 2.0
    w[1:] += h / 2.0
    return w


def inner_product(f: GridFunction, g: GridFunction) -> complex | np.ndarray:
    """Weighted L2 inner product (f,g) = int conj(f) g w dx by quadrature.

    Conjugate-symmetric to the last bit, and Im (f,f) is exactly zero.  The
    real and imaginary parts are accumulated separately in plain (non-fused)
    real arithmetic: swapping f and g replaces each elementary product by its
    commuted twin and negates the imaginary accumulator, both of which are
    exact in IEEE arithmetic.  (numpy's vectorized complex multiply uses FMA,
    which would leave O(eps) residue in conj(z)*z.)  A stack gives an array.
    """
    _require_same_grid(f, g)
    with np.errstate(over="ignore", invalid="ignore"):
        c = quadrature_weights(f.xs) * f.w
        fr, fi = f.values.real, f.values.imag
        gr, gi = g.values.real, g.values.imag
        re = np.sum(c * (fr * gr + fi * gi), axis=-1)
        im = np.sum(c * (fr * gi - fi * gr), axis=-1)
    # re + 1j*im would turn a -0.0 imaginary part into +0.0
    out = np.asarray(re, dtype=complex)
    out.imag = im
    if not np.isfinite(out).all():
        raise PreconditionError("the inner product leaves the float range")
    return complex(out) if out.ndim == 0 else out


def norm(f: GridFunction) -> float | np.ndarray:
    """L2 norm sqrt((f,f)), one a row for a stack."""
    out = np.sqrt(np.maximum(inner_product(f, f).real, 0.0))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

def fd_weights(x0: float, nodes: Sequence[float], m: int) -> np.ndarray:
    """Weights w_j with sum_j w_j f(nodes_j) ~ f^(m)(x0) (Fornberg 1988).

    Works for arbitrary distinct nodes; accuracy is at least len(nodes) - m.
    """
    nodes = np.asarray(nodes, dtype=float)
    n = len(nodes)
    if m >= n:
        raise ValueError("need more nodes than the derivative order")
    c = np.zeros((n, m + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = nodes[0] - x0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - x0
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def _window_size(order: int, acc: int) -> int:
    w = order + acc
    if w % 2 == 0:
        w += 1
    return w


@functools.lru_cache(maxsize=1024)
def _unit_stencil(w: int, i: int, order: int) -> np.ndarray:
    """fd_weights at node i of the nodes 0, 1, ..., w-1: built once, read-only."""
    weights = fd_weights(i, np.arange(w, dtype=float), order)
    weights.setflags(write=False)
    return weights


def _stencil_dot(xs: np.ndarray, rows: Iterable[np.ndarray], i: int, w: int,
                 order: int, step: float | None) -> list:
    """The derivative at xs[i] of each row, from the w-point window that holds it, clamped.

    One np.dot a row: a matrix product or einsum rounds some rows differently.
    """
    start = min(max(i - w // 2, 0), len(xs) - w)
    if step is None:
        weights = fd_weights(xs[i], xs[start:start + w], order)
    else:
        weights = _unit_stencil(w, i - start, order) / step**order
    return [np.dot(weights, row[start:start + w]) for row in rows]


def derivative_values(xs: np.ndarray, values: np.ndarray,
                      order: int = 1, acc: int = 4) -> np.ndarray:
    """m-th derivative samples by finite differences of accuracy >= acc.

    Centred stencils in the interior, one-sided ones of the same window at
    the edges, per-point Fornberg weights on a non-uniform grid; a stack goes
    row by row.  A result that is not finite raises PreconditionError.
    """
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values)
    _check_samples(xs, values)
    n = len(xs)
    w = _window_size(order, acc)
    if n < w:
        raise DegenerateGridError(
            f"order-{order} derivative at accuracy {acc} needs >= {w} points")
    h = np.diff(xs)
    step = h[0] if _is_uniform(h) else None
    rows = np.atleast_2d(values)
    out = np.zeros(rows.shape, dtype=complex if np.iscomplexobj(values) else float)
    c = w // 2
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if step is not None:
            centre = _unit_stencil(w, c, order) / step**order
            mid = out[:, c:c + n - w + 1]
            for j, sj in enumerate(centre):
                mid += sj * rows[:, j:j + n - w + 1]
        for i in range(n) if step is None else (*range(c), *range(n - c, n)):
            out[:, i] = _stencil_dot(xs, rows, i, w, order, step)
    if not np.all(np.isfinite(out)):
        raise PreconditionError("the derivative leaves the float range")
    return out.reshape(values.shape)


def derivative(f: GridFunction, order: int = 1, acc: int = 4) -> GridFunction:
    """Derivative of a grid function or stack (same grid and weight)."""
    return f.with_values(derivative_values(f.xs, f.values, order, acc))


# ---------------------------------------------------------------------------
# Boundary forms
# ---------------------------------------------------------------------------

#: Relative size below which an endpoint sample counts as decayed.
_DECAY_TOL = 1e-8


def _require_single(xi: GridFunction, eta: GridFunction) -> None:
    if xi.values.ndim != 1 or eta.values.ndim != 1:
        raise ValueError("a boundary form takes one function each, not a stack")


def _decayed(value: complex, scale: float) -> bool:
    return abs(value) <= _DECAY_TOL * max(scale, 1e-300)


def boundary_form_momentum(xi: GridFunction, eta: GridFunction,
                           interval: Interval) -> complex:
    """delta_p(xi, eta) = -i[conj(xi(b)) eta(b) - conj(xi(a)) eta(a)].

    Equals (xi, p eta) - (p xi, eta) up to discretization error; its vanishing
    on a domain is what makes the momentum operator symmetric there.  On
    unbounded intervals the corresponding endpoint term must have decayed on
    the grid, otherwise the form is not defined.
    """
    _require_single(xi, eta)
    _require_same_grid(xi, eta)
    scale = float(max(np.max(np.abs(xi.values)), np.max(np.abs(eta.values)), 1e-300))
    term_a = np.conj(xi.values[0]) * eta.values[0]
    term_b = np.conj(xi.values[-1]) * eta.values[-1]
    if interval.kind == FINITE:
        return complex(-1j * (term_b - term_a))
    if interval.kind == HALF_LINE:
        if not (_decayed(xi.values[-1], scale) and _decayed(eta.values[-1], scale)):
            raise UnsupportedBoundaryError(
                "half-line boundary form needs decay at the far end")
        return complex(1j * term_a)
    if not all(_decayed(v, scale) for v in
               (xi.values[0], xi.values[-1], eta.values[0], eta.values[-1])):
        raise UnsupportedBoundaryError(
            "full-line boundary form needs decay at both ends")
    return 0.0 + 0.0j


def boundary_form_hamiltonian(xi: GridFunction, eta: GridFunction,
                              acc: int = 4) -> complex:
    """delta_H(xi, eta) = conj(xi(0)) eta'(0) - conj(xi'(0)) eta(0).

    Endpoint derivatives come from one-sided stencils of accuracy ``acc``
    (default 4); the grid must start at the boundary point.
    """
    _require_single(xi, eta)
    _require_same_grid(xi, eta)
    w = _window_size(1, acc)
    if len(xi) < w:
        raise DegenerateGridError(
            f"boundary derivative at accuracy {acc} needs >= {w} points")
    d_xi0, d_eta0 = _stencil_dot(xi.xs, (xi.values, eta.values), 0, w, 1, None)
    return complex(np.conj(xi.values[0]) * d_eta0 - np.conj(d_xi0) * eta.values[0])
