"""Curvilinear measures and the connection term that keeps p_r symmetric.

With the inner product (f, g) = int f-bar g w dr and w = sqrt(g), the
naive radial derivative loses its symmetry; adding omega with
2 Re(omega) = d/dr log sqrt(g) restores it while leaving the canonical
commutator [r, p_r] = i untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .core import WEIGHTS, GridFunction, derivative_values, inner_product
from .errors import (
    InvalidMetricError,
    PreconditionError,
    SingularSupportError,
)

__all__ = [
    "MeasureSpec",
    "commutator_preservation_check",
    "connection_condition",
    "radial_symmetry_defect",
]

#: Closed-form connection terms for the shipped metrics; everything else
#: goes through finite differences of log sqrt(g).
_BUILTIN_METRICS = {
    "polar": (lambda r: np.asarray(r, dtype=float) ** 2, "r"),
    "spherical_radial": (lambda r: np.asarray(r, dtype=float) ** 4, "r^2"),
    "cartesian": (lambda r: np.ones_like(np.asarray(r, dtype=float)), "1"),
}


@dataclass(frozen=True)
class MeasureSpec:
    """Quadrature weight descriptor and metric determinant."""

    weight: str
    metric_det: Callable[[np.ndarray], np.ndarray]
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.weight not in WEIGHTS:
            raise InvalidMetricError(
                "weight descriptor %r is not registered" % (self.weight,)
            )

    @classmethod
    def polar(cls) -> "MeasureSpec":
        g, w = _BUILTIN_METRICS["polar"]
        return cls(w, g, name="polar")

    @classmethod
    def spherical_radial(cls) -> "MeasureSpec":
        g, w = _BUILTIN_METRICS["spherical_radial"]
        return cls(w, g, name="spherical_radial")

    @classmethod
    def cartesian(cls) -> "MeasureSpec":
        g, w = _BUILTIN_METRICS["cartesian"]
        return cls(w, g, name="cartesian")

    def consistency_defect(self, xs: np.ndarray) -> float:
        """max |sqrt(g) - w| over the sample grid (0 for the built-ins)."""
        xs = np.asarray(xs, dtype=float)
        g_vals = np.asarray(self.metric_det(xs), dtype=float)
        if np.any(g_vals <= 0.0):
            raise InvalidMetricError("metric determinant must stay positive")
        return float(np.max(np.abs(np.sqrt(g_vals) - WEIGHTS[self.weight](xs))))


#: Fraction of the grid ends that must carry (numerically) zero values
#: for a function to count as compactly supported inside the domain.
_SUPPORT_PTS = 4
_SUPPORT_TOL = 1e-13


def _check_interior_support(f: GridFunction) -> None:
    # each function of a stack against its own amplitude, on the sample axis
    floor = _SUPPORT_TOL * np.max(np.abs(f.values), axis=-1)
    first, last = f.xs[:_SUPPORT_PTS], f.xs[-_SUPPORT_PTS:]
    if np.any(np.max(np.abs(f.values[..., :_SUPPORT_PTS]), axis=-1) > floor):
        raise SingularSupportError(
            "support touches the coordinate singularity at r=%g: the function is nonzero "
            "on the first %d samples, which end at r=%g" % (first[0], len(first), first[-1]))
    if np.any(np.max(np.abs(f.values[..., -_SUPPORT_PTS:]), axis=-1) > floor):
        raise PreconditionError("support must stay inside the grid's far end: the function "
                                "is nonzero on the last %d samples, which begin at r=%g"
                                % (len(last), last[0]))


def _radial_momentum(
    omega_re: Callable[[np.ndarray], np.ndarray], f: GridFunction
) -> np.ndarray:
    # -i (f' + omega f), one function or a stack; omega is read only on the
    # samples where f != 0, so it may be singular where f vanishes
    d1 = derivative_values(f.xs, f.values, 1, acc=4)
    live = f.values != 0.0
    omega_f = np.zeros_like(f.values)
    xs = np.broadcast_to(f.xs, f.values.shape)[live]
    omega_f[live] = np.asarray(omega_re(xs), dtype=float) * f.values[live]
    return -1j * (d1 + omega_f)


def radial_symmetry_defect(
    omega_re: Callable[[np.ndarray], np.ndarray],
    f: GridFunction,
    g: GridFunction,
) -> complex:
    """(f, p_r g) - (p_r f, g) under the r dr measure.

    Integration by parts gives i * int (1 - 2 r omega) f-bar g dr, so
    the defect dies exactly when omega = 1/(2r) and reduces to
    i * int f-bar g dr for omega = 0.  omega acts sample by sample and is
    read only where the function it multiplies is nonzero, so a closed
    form singular at r = 0 serves on a grid that starts there.
    """
    if f.weight != "r" or g.weight != "r":
        raise PreconditionError("radial defect is defined for the r dr measure")
    _check_interior_support(f)
    _check_interior_support(g)
    p_g = GridFunction(g.xs, _radial_momentum(omega_re, g), weight="r")
    p_f = GridFunction(f.xs, _radial_momentum(omega_re, f), weight="r")
    return inner_product(f, p_g) - inner_product(p_f, g)


def connection_condition(
    metric_det: Union[str, Callable[[np.ndarray], np.ndarray]],
) -> Callable[[np.ndarray], np.ndarray]:
    """Connection term (1/2) d/dr log sqrt(g) = g'/(4g).

    Built-in metric names get the exact closed form; a callable metric
    is differentiated by central differences.  The returned function
    validates positivity of g wherever it is evaluated.
    """
    if isinstance(metric_det, str):
        if metric_det not in _BUILTIN_METRICS:
            raise InvalidMetricError(
                "unknown metric %r; built-ins: %s"
                % (metric_det, sorted(_BUILTIN_METRICS))
            )
        if metric_det == "cartesian":
            return lambda r: np.zeros_like(np.asarray(r, dtype=float))
        power = 2.0 if metric_det == "polar" else 4.0

        def closed_form(r):
            r = np.asarray(r, dtype=float)
            if np.any(r <= 0.0):
                raise InvalidMetricError("metric determinant vanishes at r <= 0")
            return power / (4.0 * r)

        return closed_form

    metric = metric_det

    def by_differences(r):
        r = np.asarray(r, dtype=float)
        h = 1e-6 * np.maximum(np.abs(r), 1.0)
        lo = np.asarray(metric(r - h), dtype=float)
        hi = np.asarray(metric(r + h), dtype=float)
        mid = np.asarray(metric(r), dtype=float)
        if np.any(lo <= 0.0) or np.any(hi <= 0.0) or np.any(mid <= 0.0):
            raise InvalidMetricError("metric determinant must stay positive")
        return (np.log(hi) - np.log(lo)) / (8.0 * h)

    return by_differences


def commutator_preservation_check(
    omega_re: Callable[[np.ndarray], np.ndarray], f: GridFunction
) -> float:
    """sup-norm of ([r, p_r] - i) f; the omega term cancels identically.

    omega acts sample by sample and is read only where f is nonzero.
    """
    _check_interior_support(f)
    rf = GridFunction(f.xs, f.xs * f.values, weight=f.weight)
    resid = f.xs * _radial_momentum(omega_re, f) - _radial_momentum(omega_re, rf) \
        - 1j * f.values
    return float(np.max(np.abs(resid)))
