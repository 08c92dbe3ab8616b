"""Finite-dimensional and basis-dependent commutator demonstrations.

Each demo produces a :class:`ParadoxReport` pairing a naive expectation
(what the canonical commutation relation "should" give) with the value
the computation actually yields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, NamedTuple, Tuple, Union

import numpy as np

from .core import (
    _LEVEL_BYTES,
    _SAMPLE_BYTES,
    GridFunction,
    UnitSystem,
    _check_budget,
    _sample_grid,
    derivative_values,
    inner_product,
    norm,
)
from .errors import PreconditionError

__all__ = [
    "CosineBasisResult",
    "ParadoxReport",
    "Quantity",
    "commuting_observables_demo",
    "cosine_basis_momentum_matrix",
    "eigenvector_commutator_demo",
    "hermiticity_defect_demo",
    "trace_commutator_check",
]

#: The largest |theta| of eigenvector_commutator_demo.  At theta = 1e8 the
#: eigenpair residual of a 64-site ring is 1.6 times its tolerance; at 1e6
#: the worst quantity is 1.4% (n = 64) to 21% (n = 2**20) of its tolerance.
_THETA_MAX = 1e6

#: eigenvector_commutator_demo's expectation rounds to about
#: n*eps*(1 + phi), phi = |2*pi*mode + theta|/n; the largest ratio in a scan
#: of n = 2**6 ... 2**22, edge modes and |theta| <= 1e6 was 9.3, so its
#: tolerance is the larger of 1e-8 and this many times that scale.
_EXPECTATION_ROUNDING = 32

#: The work bound of commuting_observables_demo, in grid samples.  A level
#: costs ~0.2 us per sample plus ~15 us of its own in a stack (~0.4 ms
#: alone), still counted as _LEVEL_WORK samples.  The largest accepted
#: ranges took 4.8 s (6,809 levels on 6,811 samples, the most levels of
#: any range whose grid resolves each level), 6.7 s (4,999 on the default
#: 10,001) and 12-17 s (588 on 100,001 to 29 on 2,000,001) on one core of
#: a 2-CPU Xeon.
_LEVEL_WORK = 2_000
_WORK_MAX = 60_000_000
_STACK = 1 << 16  # samples in a stack of levels: 2**14 would hold one level of 10,001


class Quantity(NamedTuple):
    """A reported number together with the tolerance it was established at."""

    value: Union[float, complex]
    tolerance: float


@dataclass(frozen=True)
class ParadoxReport:
    id: int
    quantities: Dict[str, Quantity]
    verdict: str


def _hermitian_pair(rng: np.random.Generator, n: int, upper: np.ndarray) -> np.ndarray:
    """An (X, P) pair, shape (2, n, n), from the law of (A + A^H)/2.

    A has iid standard complex entries.  That law has an N(0, 1) diagonal
    and N(0, 1/2) real and imaginary parts above it, so n**2 normals fill
    one matrix: the diagonal, the real parts from the upper triangle and
    the imaginary parts from the lower one.  One ``standard_normal`` call
    draws both, X before P, the same normals as two calls of shape (n, n).
    ``upper`` is the strict upper triangle mask.  The lower triangle of
    each matrix is the exact conjugate of the upper.
    """
    z = rng.standard_normal((2, n, n))
    # every (n + 1)-th entry of a flattened matrix is on its diagonal
    diagonal = z.reshape(2, n * n)[:, ::n + 1].copy()
    z *= math.sqrt(0.5)
    zt = z.swapaxes(1, 2)
    x = np.empty(z.shape, dtype=complex)
    np.copyto(x.real, zt)
    np.copyto(x.real, z, where=upper)
    np.negative(z, out=x.imag)
    np.copyto(x.imag, zt, where=upper)
    x.reshape(2, n * n)[:, ::n + 1] = diagonal
    return x


def _commutator_trace(x: np.ndarray, p: np.ndarray) -> complex:
    """Tr(XP) - Tr(PX) of two Hermitian matrices, without forming the products.

    Tr(XP) = sum_ij X_ij P_ji = sum_ij conj(P_ij) X_ij is vdot(p, x) on the
    flattened matrices, term by term, because P_ji = conj(P_ij) exactly;
    likewise Tr(PX) is vdot(x, p), the conjugate of vdot(p, x).  So the
    difference is 2i Im vdot(p, x), from one dot product.
    """
    return 2j * float(np.vdot(p, x).imag)


def trace_commutator_check(
    n: int,
    trials: int,
    seed: int = 0,
    units: UnitSystem = UnitSystem(),
) -> ParadoxReport:
    """Trace of any finite commutator vanishes, yet naively Tr[x,p] = i*hbar*N.

    Draws ``trials`` random Hermitian pairs and reports the largest
    commutator trace relative to the Frobenius norms, next to the
    i*hbar*dim value the canonical relation would demand.  The commutator
    trace and the two squared norms are dot products of the flattened
    matrices, O(n**2) each.

    A trial holds the two complex n x n matrices and the real samples they
    came from, 48*n**2 bytes.  The budget is charged 96*n**2 bytes per
    trial, so an n for which that exceeds _MEMORY_BUDGET (1 GiB, so
    n > 3344) raises PreconditionError before anything is allocated.
    """
    if n < 2:
        raise PreconditionError("need a matrix dimension of at least 2, got %d" % n)
    if trials < 1:
        raise PreconditionError("need at least one trial, got %d" % trials)
    if seed < 0:
        raise PreconditionError("the seed must be a non-negative integer, got %d" % seed)
    _check_budget(96 * n * n, "a trial at n=%d" % n)
    rng = np.random.default_rng(seed)
    upper = np.tri(n, k=-1, dtype=bool).T
    worst = 0.0
    for _ in range(trials):
        x, p = _hermitian_pair(rng, n, upper).reshape(2, n * n)
        scale = math.sqrt(np.vdot(x, x).real * np.vdot(p, p).real)
        worst = max(worst, abs(_commutator_trace(x, p)) / scale)
    naive = complex(0.0, units.hbar * n)
    return ParadoxReport(
        id=2,
        quantities={
            "max_scaled_trace": Quantity(worst, 1e-10),
            "naive_canonical_trace": Quantity(naive, 0.0),
        },
        verdict=(
            "Tr[X,P] vanishes to rounding for every Hermitian pair, so no "
            "finite-dimensional pair can satisfy [X,P] = i*hbar*1."
        ),
    )


class CosineBasisResult(NamedTuple):
    p: np.ndarray
    defect: np.ndarray


def cosine_basis_momentum_matrix(l: float, m_basis: int) -> CosineBasisResult:
    """Momentum matrix in the basis e_n = sqrt(2/l) cos(n*pi*x/l), n >= 1.

    Returns the matrix p_mn = (e_m, -i d/dx e_n), filled from its closed
    form, and the hermiticity defect d_mn = conj(p_nm) - p_mn.  The defect
    vanishes for m+n even and equals -4i/l on the whole m+n-odd sublattice:
    the matrix fails to be Hermitian because the basis functions do not
    vanish at the endpoints.

    p, its conjugate and the defect take 48 bytes per entry; an M over the
    1 GiB _MEMORY_BUDGET (M > 4729) raises PreconditionError before
    anything is allocated.  So does an l at which an entry is not a normal
    float: the defect then is not -4i/l to rounding.
    """
    if m_basis < 2:
        raise PreconditionError("need at least a 2x2 block, got M=%d" % m_basis)
    _check_budget(48 * m_basis * m_basis, "the M=%d momentum matrix" % m_basis)
    if not l > 0.0:
        raise PreconditionError("interval length must be positive, got %r" % (l,))
    ns = np.arange(1, m_basis + 1)
    m, n = ns[:, None], ns[None, :]
    odd = (m + n) % 2 == 1
    # Im p_mn = 4n^2/(l(n^2 - m^2)) for m+n odd, else 0; the even entries'
    # quotients, discarded, may overflow
    with np.errstate(over="ignore"):
        im = np.where(odd, 4.0 * n * n / (l * np.where(odd, n * n - m * m, 1)), 0.0)
    size = np.abs(im)
    # every odd entry is a normal float (the even ones are 0), and so is 4/l,
    # the defect's value, which lies between the smallest and largest entry
    normal = np.count_nonzero(size >= np.finfo(float).tiny)
    if not (normal == np.count_nonzero(odd) and size.max() < math.inf):
        raise PreconditionError("the entries 4n^2/(l(n^2 - m^2)) of the M=%d momentum matrix "
                                "leave the normal floats at l=%r" % (m_basis, l))
    p = 1j * im
    defect = p.conj().T - p
    return CosineBasisResult(p, defect)


def hermiticity_defect_demo(l: float, m_basis: int) -> ParadoxReport:
    """Wrap the cosine-basis defect pattern as a reportable demonstration."""
    p, defect = cosine_basis_momentum_matrix(l, m_basis)
    # rounding grows with the entries, which reach ~2M/l
    tol = 1e-13 * float(np.max(np.abs(p)))
    idx = np.arange(m_basis)
    even = (idx[:, None] + idx[None, :]) % 2 == 0
    even_max = float(np.max(np.abs(defect[even])))
    odd_dev = float(np.max(np.abs(defect[~even] - complex(0.0, -4.0 / l))))
    return ParadoxReport(
        id=4,
        quantities={
            "defect_even_sublattice_max": Quantity(even_max, tol),
            "defect_odd_sublattice_value": Quantity(complex(0.0, -4.0 / l), 1e-10),
            "defect_odd_sublattice_max_deviation": Quantity(odd_dev, tol),
        },
        verdict=(
            "the momentum matrix in the cosine basis is not Hermitian: the "
            "endpoint contributions leave a constant -4i/l defect whenever "
            "m+n is odd."
        ),
    )


def eigenvector_commutator_demo(
    theta: float,
    n: int,
    mode: int = 1,
    units: UnitSystem = UnitSystem(),
) -> ParadoxReport:
    """Expectation of [X, P] in an exact discretized-momentum eigenvector.

    On the twisted ring the product rule collapses: both orderings give
    the eigenvalue times the same position expectation, so the
    commutator expectation vanishes instead of producing i*hbar.  A twist
    |theta| past _THETA_MAX is refused: phi*j loses the digits that the
    printed tolerances need.  The expectation's tolerance grows with n and
    phi = |2*pi*mode + theta|/n, the mode centred as the eigenpair takes it.
    """
    from .spectral import _twisted_difference, discretized_momentum_eigpair

    if not abs(theta) <= _THETA_MAX:
        raise PreconditionError("the twist needs |theta| <= %g to meet the printed "
                                "tolerances, got theta=%r" % (_THETA_MAX, theta))
    lam, vec = discretized_momentum_eigpair(theta, n, mode)
    phi = abs(math.tau * ((mode + n // 2) % n - n // 2) + theta) / n
    expectation_tol = max(1e-8, _EXPECTATION_ROUNDING * n * np.finfo(float).eps * (1.0 + phi))
    xs = np.arange(n) / n
    p_vec = _twisted_difference(theta, vec)
    commutator_expect = complex(
        np.vdot(vec, xs * p_vec) - np.vdot(vec, _twisted_difference(theta, xs * vec))
    )
    residual = float(np.max(np.abs(p_vec - lam * vec)))
    return ParadoxReport(
        id=1,
        quantities={
            "eigenvector_expectation": Quantity(commutator_expect, expectation_tol),
            "canonical_target": Quantity(complex(0.0, units.hbar), 0.0),
            "eigenpair_residual": Quantity(residual, 1e-9 * n),
        },
        verdict=(
            "([X,P]) averaged in a momentum eigenvector vanishes, against "
            "the i*hbar the canonical relation would force; no realization "
            "can keep both the eigenvector and the commutation relation."
        ),
    )


def _unit_rows(values: np.ndarray) -> tuple:
    """(values with each row times 2^-e, 2^-e), e the exponent of the row's largest modulus.

    The scaled rows' largest moduli lie in [0.5, 1), so their squares are
    normal floats however small or large the rows were.  A power of two
    scales exactly: a norm, or a ratio of inner products, from the scaled
    rows keeps its bits where the unscaled squares were normal floats.
    """
    scale = np.ldexp(1.0, -np.frexp(np.max(np.abs(values), axis=-1))[1])
    return values * scale[:, None], scale


def commuting_observables_demo(a: float, n_max: int, grid_n: int = 10_001) -> ParadoxReport:
    """Box eigenfunctions are nowhere near momentum eigenfunctions.

    For each level n the relative residual of p*psi_n against the best
    multiple of psi_n is reported; since the derivative of a sine is a
    cosine, orthogonal to it, every residual sits at 1.  grid_n samples
    resolve the levels n <= grid_n - 2; a larger n_max is refused.
    """
    from .spectral import well_spectrum

    if n_max < 1:
        raise PreconditionError("need n_max >= 1, got %d" % n_max)
    _check_budget(_LEVEL_BYTES * n_max + _SAMPLE_BYTES * grid_n,
                  "a range of %d levels on a grid of %d samples" % (n_max, grid_n))
    if n_max >= grid_n - 1:
        # sin(n pi x/a) vanishes on every node at n = grid_n - 1, and past it
        # the samples alias a lower level
        raise PreconditionError("a grid of %d samples resolves the levels n <= %d, "
                                "got n_max=%d" % (grid_n, grid_n - 2, n_max))
    work = n_max * (grid_n + _LEVEL_WORK)
    if work > _WORK_MAX:
        raise PreconditionError("a range of %d levels on a grid of %d samples is %d samples "
                                "of work, past the bound of %d (a level counts its grid plus "
                                "%d)" % (n_max, grid_n, work, _WORK_MAX, _LEVEL_WORK))
    levels = well_spectrum(a, range(1, n_max + 1)).discrete
    xs = _sample_grid(0.0, a, grid_n, "the box's grid")
    quantities = {}
    per_stack = max(1, _STACK // grid_n)
    for stack in (slice(i, i + per_stack) for i in range(0, n_max, per_stack)):
        # the residual is a ratio, so psi_n and p psi_n are scaled apart: on a
        # wide box the squares of psi_n ~ sqrt(2/a) and p psi_n ~ (n pi/a) sqrt(2/a)
        # would underflow, and on a narrow one those of p psi_n overflow
        psi = GridFunction(xs, _unit_rows(levels.eigenfunctions(xs, stack))[0])
        p_psi = GridFunction(xs, _unit_rows(-1j * derivative_values(xs, psi.values, 1, acc=4))[0])
        squares, p_norms = inner_product(psi, psi), norm(p_psi)
        # Python divides each level: numpy rounds some quotients apart
        coeffs = [complex(num) / complex(den) for num, den in
                  zip(inner_product(psi, p_psi), squares)]
        residual_fn = GridFunction(xs, p_psi.values - np.array(coeffs)[:, None] * psi.values)
        for n, num, den in zip(levels.n[stack], norm(residual_fn), p_norms):
            quantities["r_%d" % n] = Quantity(float(num) / float(den), 1e-10)
    return ParadoxReport(
        id=3,
        quantities=quantities,
        verdict=(
            "every box eigenfunction has residual ~1 against being a "
            "momentum eigenfunction, so commuting with H cannot be "
            "inferred the naive way."
        ),
    )
