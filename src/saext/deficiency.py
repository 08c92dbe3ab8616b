r"""Deficiency indices: count L2 solutions of T* psi = +/- i lambda psi.

For each catalog operator the adjoint equation has elementary solutions, so
they are written down in closed form and sampled; the generic machinery here
is the *verification* layer: a finite-difference residual check that guards
against transcription errors in the closed forms.

Catalog (lambda = 1 shown; general lambda rescales the exponents):

    momentum -i d/dx on [a,b]:      n = (1,1), psi+ ~ e^{-x}, psi- ~ e^{x}
    momentum on [a, inf):           n = (1,0), only the decaying solution
    momentum on the full line:      n = (0,0), essentially self-adjoint
    Hamiltonian -d2/dx2 on [0,inf): n = (1,1), psi+- = 2^{1/4} e^{(+-i-1)x/sqrt2}
    time operator i d/dE on [E0,inf): n = (1,0), like half-line momentum

The classification follows the index rules: (0,0) means a unique self-adjoint
closure, equal n > 0 means an n^2-parameter family of extensions, unequal
indices mean no self-adjoint extension at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    FINITE,
    FREE_HAMILTONIAN,
    HALF_LINE,
    MOMENTUM,
    TIME_OPERATOR,
    GridFunction,
    Interval,
    OperatorSpec,
    _sample_grid,
    derivative_values,
)
from .errors import (DegenerateGridError, PreconditionError, TooCoarseError,
                     UnsupportedOperatorError)

__all__ = [
    "ESSENTIALLY_SELF_ADJOINT",
    "HAS_EXTENSIONS",
    "NO_EXTENSIONS",
    "DeficiencySolution",
    "DeficiencyReport",
    "classify",
    "solve_deficiency",
    "verify_deficiency_numerically",
]

ESSENTIALLY_SELF_ADJOINT = "essentially_self_adjoint"
HAS_EXTENSIONS = "has_extensions"
NO_EXTENSIONS = "no_extensions"

#: Default number of sample points for catalog solutions; fine enough that
#: the residual check meets its acceptance threshold directly on the report.
DEFAULT_GRID_N = 10_001


@dataclass(frozen=True)
class DeficiencySolution:
    """One deficiency basis function: samples and its closed form c e^{rate (x-a)}."""

    tag: str
    fn: GridFunction
    closed_form: Callable[[np.ndarray], np.ndarray]
    interval: Interval
    rate: complex


@dataclass(frozen=True)
class DeficiencyReport:
    n_plus: int
    n_minus: int
    lam: float
    basis_plus: tuple[DeficiencySolution, ...]
    basis_minus: tuple[DeficiencySolution, ...]
    classification: str
    param_dim: int | None

    def basis(self) -> tuple[DeficiencySolution, ...]:
        return self.basis_plus + self.basis_minus


def classify(n_plus: int, n_minus: int) -> tuple[str, int | None]:
    """Map an index pair to (classification, extension-parameter dimension)."""
    if n_plus < 0 or n_minus < 0:
        raise ValueError("deficiency indices are non-negative")
    if n_plus == n_minus == 0:
        return ESSENTIALLY_SELF_ADJOINT, None
    if n_plus == n_minus:
        return HAS_EXTENSIONS, n_plus * n_plus
    return NO_EXTENSIONS, None


def _exp_tag(rate: float, var: str = "x") -> str:
    """Human-readable closed-form tag like 'exp(-x)' or 'exp((+i-1)x/sqrt2)'."""
    if rate == 1.0:
        return f"exp({var})"
    if rate == -1.0:
        return f"exp(-{var})"
    return f"exp({rate}*{var})"  # a float prints in full, as its repr


def _sampled_exponential(tag: str, c: float, rate: complex, iv: Interval, end: float,
                         n: int) -> DeficiencySolution:
    """c e^{rate (x-a)} on [a, inf) or [a, b], sampled on n points of [a, end]."""
    a = iv.a

    def closed_form(x: np.ndarray) -> np.ndarray:
        return (c * np.exp(rate * (np.asarray(x, dtype=float) - a))).astype(complex, copy=False)

    xs = _sample_grid(a, end, n, "the interval [%r, %r]" % (a, iv.b))
    with np.errstate(over="ignore", invalid="ignore"):
        values = closed_form(xs)
    if not np.all(np.isfinite(values)):
        # 2 rate (b - a) past the float range leaves c = 0 times e^inf
        raise PreconditionError("the solution e^(%r (x - a)) leaves the float range on [%r, %r]"
                                % (rate, a, iv.b))
    return DeficiencySolution(tag, GridFunction(xs, values), closed_form, iv, rate)


def _normalized_exponential(rate: float, iv: Interval, n: int,
                            var: str = "x") -> DeficiencySolution:
    """C e^{rate (x-a)} on [a,b] with unit L2 norm (exact constant)."""
    a, b = iv.a, iv.b
    if math.isinf(b):
        # int_a^inf e^{2 rate (x-a)} dx = -1/(2 rate), rate < 0
        c = math.sqrt(-2.0 * rate)
        end = a + 30.0 / abs(rate)
    else:
        # int_a^b e^{2 rate (x-a)} dx = (e^{2 rate (b-a)} - 1)/(2 rate), the
        # difference from expm1, which does not cancel for small rate (b-a)
        try:
            c = math.sqrt(2.0 * rate / math.expm1(2.0 * rate * (b - a)))
        except OverflowError:
            # past 2 rate (b-a) = 709.8 the difference is e^{2 rate (b-a)}, whose
            # root is taken as e^{-rate (b-a)}; where the samples then leave the
            # float range, they are refused below
            c = math.sqrt(2.0 * rate) * math.exp(-rate * (b - a))
        end = b
    return _sampled_exponential(_exp_tag(rate, var), c, rate, iv, end, n)


def _hamiltonian_solution(sign: int, lam: float, iv: Interval, n: int) -> DeficiencySolution:
    """Decaying solution of -psi'' = sign * i lam psi on [a, inf)."""
    root = math.sqrt(lam)
    mu = root * (sign * 1j - 1.0) / math.sqrt(2.0)   # Re mu < 0
    sig = "+i" if sign > 0 else "-i"
    # floats print in full, as their repr ('+' with no type adds the sign)
    scale = "" if lam == 1.0 else f"{root}*"
    x = "x" if iv.a == 0.0 else f"(x{-iv.a:+})"
    tag = f"2^(1/4){'' if lam == 1.0 else f'*{lam}^(1/4)'}*exp({scale}({sig}-1){x}/sqrt2)"
    return _sampled_exponential(tag, 2.0**0.25 * lam**0.25, mu, iv,
                                iv.a + 30.0 * math.sqrt(2.0) / root, n)


def solve_deficiency(op: OperatorSpec, lam: float = 1.0,
                     n: int = DEFAULT_GRID_N) -> DeficiencyReport:
    """Closed-form deficiency solutions of T* psi = +/- i lam psi, sampled.

    lam > 0 sets the scale of the probe (the natural choice is 1); the index
    pair is lam-independent.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    iv = op.interval
    basis_plus: list[DeficiencySolution] = []
    basis_minus: list[DeficiencySolution] = []

    if op.kind == MOMENTUM:
        # -i psi' = +/- i lam psi  =>  psi = e^{-+ lam x}
        if iv.kind == FINITE:
            basis_plus.append(_normalized_exponential(-lam, iv, n))
            basis_minus.append(_normalized_exponential(lam, iv, n))
        elif iv.kind == HALF_LINE:
            basis_plus.append(_normalized_exponential(-lam, iv, n))
        # full line: neither e^{-lam x} nor e^{lam x} is L2 -> (0,0)
    elif op.kind == FREE_HAMILTONIAN:
        if iv.kind != HALF_LINE:
            raise UnsupportedOperatorError(
                "free Hamiltonian catalog entry is the half line")
        basis_plus.append(_hamiltonian_solution(+1, lam, iv, n))
        basis_minus.append(_hamiltonian_solution(-1, lam, iv, n))
    elif op.kind == TIME_OPERATOR:
        # conjugate variable is the energy E on [E0, inf); computed like
        # half-line momentum, so only the decaying solution survives
        basis_plus.append(_normalized_exponential(-lam, iv, n, "E"))
    else:  # pragma: no cover - OperatorSpec already validates
        raise UnsupportedOperatorError(op.kind)

    n_plus, n_minus = len(basis_plus), len(basis_minus)
    classification, param_dim = classify(n_plus, n_minus)
    return DeficiencyReport(n_plus, n_minus, lam, tuple(basis_plus),
                            tuple(basis_minus), classification, param_dim)


#: Samples at each end of a basis grid that the adjoint residual check skips:
#: the one-sided edge stencils are lower order, so only the interior is judged.
_EDGE = 3

#: The largest share of |rate|^k max|psi| that the stencil's rounding may
#: take: the residual's acceptance threshold at lam = 1.
_ROUNDING_SHARE = 1e-4

#: The least lam max|psi| whose rounding, 2^-52 of it, is a normal float.
_SCALE_MIN = 2.0**-970


def _adjoint_apply(order: int, xs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Apply the adjoint catalog operator, -i d/dx or -d2/dx2, by finite differences."""
    if order == 1:
        return -1j * derivative_values(xs, values, order=1, acc=2)
    return -derivative_values(xs, values, order=2, acc=2)


def verify_deficiency_numerically(op: OperatorSpec,
                                  report: DeficiencyReport) -> float:
    """Max interior sup-norm residual of (T* -+ i lam) psi+- over the basis.

    Uses second-order interior finite differences on the report's own sample
    grids; small residuals certify the closed forms solve the adjoint
    equation, large ones flag a corrupted basis.  A grid of fewer than 7
    samples has no interior to judge and is refused (DegenerateGridError).

    The order-k stencil divides sample differences by h^k, and each sample
    carries a rounding of eps = 2^-52 of itself, so its value carries one of
    about eps / (|rate| h)^k of the |rate|^k max|psi| it measures.  A grid on
    which that share exceeds 1e-4 is refused (TooCoarseError): there the
    residual is mostly rounding, not a check.  This happens on a finite
    momentum interval where lam (b - a) is small against the grid size (on
    the default 10001 samples of [0, 1], below lam = 2.2e-8); the other
    bases scale their grid with lam.

    The residual measures lam max|psi| (= |rate|^k max|psi|).  Below 2^-970
    its rounding, 2^-52 of it, is no normal float: lam psi and the stencil's
    differences underflow and the residual reads 0.0, so such a basis is
    refused (PreconditionError).  On a half line that is lam < 2^-647
    (1.7e-195) for momentum and the time operator, max|psi| = sqrt(2 lam),
    and lam < 2^-776.2 (2.2e-234) for the Hamiltonian, max|psi| = (2 lam)^(1/4).
    """
    lam = report.lam
    order = 1 if op.kind in (MOMENTUM, TIME_OPERATOR) else 2
    out_of_range = "the adjoint residual at lam=%r leaves the float range" % (lam,)
    worst = 0.0
    for sign, basis in ((+1, report.basis_plus), (-1, report.basis_minus)):
        for sol in basis:
            xs, vals = sol.fn.xs, sol.fn.values
            if len(xs) < 2 * _EDGE + 1:
                raise DegenerateGridError("the adjoint residual check needs at least %d grid "
                                          "points, got %d" % (2 * _EDGE + 1, len(xs)))
            with np.errstate(divide="ignore", over="ignore"):
                share = np.finfo(float).eps / (abs(sol.rate) * (xs[1] - xs[0])) ** order
            if not share <= _ROUNDING_SHARE:
                raise TooCoarseError(
                    "the adjoint residual check cannot resolve %s on its grid: the stencil's "
                    "rounding 2^-52 / (|rate| h)^%d is %.3g of what it measures, above %g"
                    % (sol.tag, order, share, _ROUNDING_SHARE))
            scale = lam * float(np.max(np.abs(vals)))
            if not scale >= _SCALE_MIN:
                raise PreconditionError(
                    "the adjoint residual check at lam=%r measures lam max|psi| = %.3g, whose "
                    "rounding is below the normal floats (it needs at least 2^-970)"
                    % (lam, scale))
            try:
                applied = _adjoint_apply(order, xs, vals)
            except PreconditionError:  # a derivative that left the float range
                raise PreconditionError(out_of_range) from None
            with np.errstate(over="ignore", invalid="ignore"):
                resid = applied - sign * 1j * lam * vals
            interior = np.abs(resid[_EDGE:-_EDGE])
            worst = float(np.max(interior, initial=worst))
    if not math.isfinite(worst):
        raise PreconditionError(out_of_range)
    return worst
