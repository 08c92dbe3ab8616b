import argparse
import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saext import cli
from saext.core import GridFunction, Interval, derivative_values, inner_product, norm
from saext.errors import (
    IndeterminateError,
    InvalidIndexError,
    NoRootError,
    PreconditionError,
    TooCoarseError,
    UnsupportedOperatorError,
)
from saext.spectral import (
    _reflection_columns,
    _twisted_difference,
    bound_state,
    bound_state_shooting,
    discretized_momentum_eigpair,
    discretized_momentum_eigs,
    halfline_robin_spectrum,
    momentum_spectrum,
    reflection_coefficient,
    reflection_phase,
    scattering_state,
    well_spectrum,
)

BOX = Interval.finite(0.0, 1.0)


def _dirichlet_fd_eigenvalues(a, n_grid, count):
    """Lowest eigenvalues of the three-point Dirichlet Laplacian on [0, a].

    Second-order cross-check for the closed-form well levels: the
    discrete values (2/h^2)(1 - cos(m*pi/n_grid)), h = a/n_grid and
    m = 1..count, converge to (m*pi/a)^2 like h^2.  They are evaluated as
    (4/h^2) sin^2(m*pi/(2*n_grid)), which does not cancel at small m.
    """
    if not a > 0.0:
        raise PreconditionError("well width must be positive, got %r" % (a,))
    if n_grid < 8:
        raise TooCoarseError("need at least 8 interior cells, got %d" % n_grid)
    if not 1 <= count <= n_grid - 1:
        raise PreconditionError("count must lie in 1..%d, got %r" % (n_grid - 1, count))
    h = a / n_grid
    half_angles = np.arange(1, count + 1) * (0.5 * math.pi / n_grid)
    return [float(v) for v in (4.0 / (h * h)) * np.sin(half_angles) ** 2]


def _twisted_matrix(theta, n):
    """One-sided difference matrix for -i d/dx on a theta-twisted ring.

    Row j holds (-i/h)(psi_{j+1} - psi_j) with h = 1/n; the last row
    wraps around with the twist factor exp(i*theta).
    """
    if n < 64:
        raise TooCoarseError("twisted ring needs n >= 64, got n=%d" % n)
    scale = 1j * n  # i/h
    mat = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(mat, scale)
    idx = np.arange(n - 1)
    mat[idx, idx + 1] = -scale
    mat[n - 1, 0] = -scale * cmath.exp(1j * theta)
    return mat


def _sampled(levels, a, b, grid_n=2001):
    """Each level's closed-form eigenfunction on grid_n points of [a, b]."""
    xs = np.linspace(a, b, grid_n)
    return [GridFunction(xs, row) for row in levels.eigenfunctions(xs)]


# ---------------------------------------------------------------------------
# momentum spectrum
# ---------------------------------------------------------------------------

def test_momentum_levels_unit_box():
    res = momentum_spectrum(0.0, BOX, range(-2, 3))
    values = res.discrete.values.tolist()
    assert values == pytest.approx(
        [-4 * math.pi, -2 * math.pi, 0.0, 2 * math.pi, 4 * math.pi]
    )
    assert values[3] == pytest.approx(2 * math.pi, abs=0.0)


def test_momentum_antiperiodic_lowest_level():
    res = momentum_spectrum(math.pi, BOX, [0])
    assert res.discrete.values[0] == pytest.approx(math.pi, abs=0.0)


def test_momentum_rescaled_box_by_residual():
    # length-2 box, n=1: p should be pi; verify against the ODE itself
    res = momentum_spectrum(0.0, Interval.finite(0.0, 2.0), [1])
    value = res.discrete.values[0]
    assert value == pytest.approx(math.pi)
    (f,) = _sampled(res.discrete, 0.0, 2.0, 4001)
    dpsi = derivative_values(f.xs, f.values, 1, acc=4)
    resid = -1j * dpsi - value * f.values
    assert np.max(np.abs(resid[3:-3])) < 1e-8


def test_momentum_twist_across_box():
    for theta in (0.0, math.pi / 3, math.pi, 5.0):
        res = momentum_spectrum(theta, BOX, range(-3, 4))
        for f in _sampled(res.discrete, 0.0, 1.0):
            assert abs(f.values[-1] - np.exp(1j * theta) * f.values[0]) < 1e-12


def test_momentum_eigenfunctions_orthonormal():
    res = momentum_spectrum(0.7, BOX, range(-2, 3))
    fns = _sampled(res.discrete, 0.0, 1.0)
    for i, f in enumerate(fns):
        for j, g in enumerate(fns):
            target = 1.0 if i == j else 0.0
            assert inner_product(f, g) == pytest.approx(target, abs=1e-10)


def test_momentum_values_increase_with_n():
    res = momentum_spectrum(1.3, Interval.finite(-1.0, 3.0), range(-5, 6))
    values = res.discrete.values.tolist()
    assert all(u < v for u, v in zip(values, values[1:]))


def test_momentum_shift_covariance_one_ulp():
    for theta in (0.0, 0.7, 2.0):
        shifted = momentum_spectrum(theta + math.tau, BOX, range(-3, 3))
        base = momentum_spectrum(theta, BOX, range(-2, 4))
        assert [n + 1 for n in shifted.discrete.n] == list(base.discrete.n)
        for vs, vb in zip(shifted.discrete.values.tolist(), base.discrete.values.tolist()):
            assert abs(vs - vb) <= 1e-15 * max(1.0, abs(vb))


def test_momentum_rejects_unbounded_intervals():
    with pytest.raises(UnsupportedOperatorError):
        momentum_spectrum(0.0, Interval.half_line(0.0), [0])
    with pytest.raises(UnsupportedOperatorError):
        momentum_spectrum(0.0, Interval.full_line(), [0])


# ---------------------------------------------------------------------------
# square well
# ---------------------------------------------------------------------------

def test_well_ground_state_unit_width():
    res = well_spectrum(1.0, [1])
    assert res.discrete.values[0] == pytest.approx(math.pi**2, rel=1e-15)
    mid = _sampled(res.discrete, 0.0, 1.0)[0].values[1000]  # x = 1/2
    assert mid == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_well_second_level_width_pi_against_fd_oracle():
    assert well_spectrum(math.pi, [2]).discrete.values[0] == pytest.approx(4.0, rel=1e-14)
    # Richardson-extrapolated three-point Laplacian agrees
    coarse = _dirichlet_fd_eigenvalues(math.pi, 400, 2)[1]
    fine = _dirichlet_fd_eigenvalues(math.pi, 800, 2)[1]
    extrapolated = (4.0 * fine - coarse) / 3.0
    assert extrapolated == pytest.approx(4.0, abs=1e-8)


def test_well_fd_convergence_is_second_order():
    targets = [(n * math.pi / 2.0) ** 2 for n in (1, 2, 3)]
    err_h = [abs(v - t) for v, t in zip(_dirichlet_fd_eigenvalues(2.0, 200, 3), targets)]
    err_h2 = [abs(v - t) for v, t in zip(_dirichlet_fd_eigenvalues(2.0, 400, 3), targets)]
    for eh, eh2 in zip(err_h, err_h2):
        order = math.log2(eh / eh2)
        assert order == pytest.approx(2.0, abs=0.2)


def _dirichlet_lapack_reference(a, n_grid, count):
    """The lowest eigenvalues of the three-point Dirichlet matrix by LAPACK."""
    from scipy.linalg import eigh_tridiagonal

    h = a / n_grid
    diag = np.full(n_grid - 1, 2.0 / (h * h))
    off = np.full(n_grid - 2, -1.0 / (h * h))
    return eigh_tridiagonal(diag, off, select="i", select_range=(0, count - 1),
                            eigvals_only=True)


@pytest.mark.parametrize("a, n_grid, count", [
    (1.0, 8, 7), (2.0, 200, 3), (math.pi, 800, 2), (0.3, 1000, 40), (5.0, 4096, 16),
])
def test_dirichlet_fd_closed_form_matches_lapack(a, n_grid, count):
    values = _dirichlet_fd_eigenvalues(a, n_grid, count)
    reference = _dirichlet_lapack_reference(a, n_grid, count)
    assert len(values) == count
    # LAPACK resolves eigenvalues to rounding of the matrix norm, 4/h^2
    scale = 4.0 * (n_grid / a) ** 2
    assert np.max(np.abs(np.array(values) - reference)) <= 1e-13 * scale


@pytest.mark.parametrize("count", [0, -1, 400])
def test_dirichlet_fd_count_outside_range_is_rejected(count):
    with pytest.raises(PreconditionError):
        _dirichlet_fd_eigenvalues(1.0, 400, count)


def test_well_eigenfunctions_orthonormal():
    res = well_spectrum(1.0, [1, 2, 3])
    fns = _sampled(res.discrete, 0.0, 1.0)
    for i, f in enumerate(fns):
        for j, g in enumerate(fns):
            target = 1.0 if i == j else 0.0
            assert inner_product(f, g) == pytest.approx(target, abs=1e-10)


def test_well_rejects_bad_labels_and_width():
    with pytest.raises(InvalidIndexError):
        well_spectrum(1.0, [0])
    with pytest.raises(InvalidIndexError):
        well_spectrum(1.0, [-2])
    with pytest.raises(PreconditionError):
        well_spectrum(-1.0, [1])
    # a level past the float range is refused, not reported as inf
    with pytest.raises(PreconditionError):
        well_spectrum(1e-300, [1, 2])
    assert len(well_spectrum(1e-300, []).discrete) == 0


def test_well_eigenfunction_ode_residual():
    res = well_spectrum(1.5, [1, 2, 4])
    for value, f in zip(res.discrete.values, _sampled(res.discrete, 0.0, 1.5, 10_001)):
        d2 = derivative_values(f.xs, f.values, 2, acc=4)
        resid = -d2 - value * f.values
        assert np.max(np.abs(resid[4:-4])) < 1e-4


# ---------------------------------------------------------------------------
# bound state
# ---------------------------------------------------------------------------

def test_bound_state_alpha_minus_one():
    state = bound_state(-1.0)
    assert state is not None
    assert state.energy == -1.0
    assert state.psi.values[0] == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert norm(state.psi) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("alpha", [-1e-13, -5.55e-17, -1e-100, -1.5e-154, -2.0**-511])
def test_bound_state_keeps_unit_norm_for_tiny_alpha(alpha):
    state = bound_state(alpha)
    assert state.energy == -alpha * alpha
    assert norm(state.psi) == pytest.approx(1.0, abs=1e-8)


def test_bound_state_energies():
    assert bound_state(-2.0).energy == -4.0
    assert bound_state(-0.25).energy == pytest.approx(-0.0625)


def test_bound_state_absent_for_repulsive_boundary():
    assert bound_state(0.5) is None
    assert bound_state(0.0) is None


def test_bound_state_robin_residual():
    for alpha in (-0.5, -1.0, -3.0):
        state = bound_state(alpha)
        d = derivative_values(state.psi.xs, state.psi.values, 1, acc=4)
        assert abs(d[0] / state.psi.values[0] - alpha) < 1e-7


@given(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_bound_state_threshold_property(alpha):
    # a state for every alpha < 0 whose energy -alpha^2 is a normal float;
    # closer to 0 the energy underflows, and the state is refused
    if -2.0**-511 < alpha < 0.0:
        with pytest.raises(PreconditionError):
            bound_state(alpha)
        return
    state = bound_state(alpha)
    assert (state is not None) == (alpha < 0.0)


#: The negative alphas nearest the range 2^-511 <= |alpha| < 2^512, outside and inside it.
_ALPHA_OUTSIDE = [math.nextafter(-2.0**-511, 0.0), -2.0**512, -math.inf]
_ALPHA_EDGES = [-2.0**-511, math.nextafter(-2.0**512, 0.0)]


@pytest.mark.parametrize("solve", [bound_state, halfline_robin_spectrum])
@pytest.mark.parametrize("alpha", _ALPHA_OUTSIDE)
def test_robin_bound_state_whose_energy_is_not_a_normal_float_is_refused(solve, alpha):
    # bound_state(-1e-300) gave E = -0.0 and a psi of norm 6.9e-73, and the
    # spectrum a level at -0.0
    with pytest.raises(PreconditionError, match=r"2\^-511 <= \|alpha\| < 2\^512, got alpha="):
        solve(alpha)


@pytest.mark.parametrize("alpha", _ALPHA_EDGES)
def test_robin_bound_state_at_the_edges_of_the_normal_energies(alpha):
    assert halfline_robin_spectrum(alpha).discrete.values.tolist() == [-alpha * alpha]
    state = bound_state(alpha)
    assert state.energy == -alpha * alpha
    assert norm(state.psi) == pytest.approx(1.0, abs=1e-8)


def test_shooting_recovers_closed_form():
    for alpha in (-0.5, -1.0, -2.0):
        e = bound_state_shooting(alpha, (-4.0 * alpha**2, -0.25 * alpha**2))
        assert abs(e + alpha**2) <= 1e-6


def test_shooting_custom_cutoff():
    e = bound_state_shooting(-3.0, (-36.0, -2.25), x_max=20.0)
    assert abs(e + 9.0) <= 1e-5


def test_shooting_rejects_rootless_bracket():
    with pytest.raises(NoRootError):
        bound_state_shooting(-1.0, (-9.0, -4.0))


def test_shooting_preconditions():
    with pytest.raises(PreconditionError):
        bound_state_shooting(1.0, (-4.0, -0.25))
    with pytest.raises(PreconditionError):
        bound_state_shooting(-1.0, (-4.0, 1.0))
    # a bracket reaching -inf held the overflowed energy, which was returned
    with pytest.raises(PreconditionError, match="normal float"):
        bound_state_shooting(-1e200, (-math.inf, -1.0))


def _shooting_reference(alpha, e_bracket, x_max=None, ode_rtol=1e-10):
    """Shooting by integration: DOP853 on psi'' = -E psi from x_max to 0.

    The numerical form of ``bound_state_shooting``, kept as the reference
    for its closed-form boundary mismatch.
    """
    from scipy.integrate import solve_ivp
    from scipy.optimize import brentq

    lo, hi = sorted(float(e) for e in e_bracket)
    if x_max is None:
        x_max = min(35.0 / abs(alpha), 600.0 / math.sqrt(-lo))

    def mismatch(energy):
        kappa = math.sqrt(-energy)
        sol = solve_ivp(
            lambda _x, y: (y[1], -energy * y[0]),
            (x_max, 0.0),
            (1.0, -kappa),
            method="DOP853",
            rtol=ode_rtol,
            atol=1e-300,
        )
        psi0, dpsi0 = sol.y[0, -1], sol.y[1, -1]
        return (dpsi0 - alpha * psi0) / (abs(psi0) + abs(dpsi0))

    return float(brentq(mismatch, lo, hi, xtol=math.ulp(hi), rtol=8.9e-16))


@given(st.floats(min_value=-1.5, max_value=3.0))
@settings(max_examples=25, deadline=None)
def test_shooting_matches_integrated_shot(u):
    alpha = -(10.0**u)
    a2 = alpha * alpha
    for bracket in ((-1.5 * a2, -0.5 * a2), (-4.0 * a2, -0.25 * a2)):
        energy = bound_state_shooting(alpha, bracket)
        # the shot from the decaying tail is exact: a loose integration
        # lands on the same root as a tight one
        for ode_rtol in (1e-10, 1e-3):
            reference = _shooting_reference(alpha, bracket, ode_rtol=ode_rtol)
            assert abs(energy - reference) <= 1e-13 * a2


# ---------------------------------------------------------------------------
# scattering
# ---------------------------------------------------------------------------

def test_reflection_neumann_is_exactly_one():
    for k in (0.1, 1.0, 17.5):
        assert reflection_coefficient(k, 0.0) == 1.0 + 0.0j


def test_reflection_dirichlet_is_exactly_minus_one():
    assert reflection_coefficient(2.0, math.inf) == -1.0 + 0.0j


def test_reflection_frozen_value():
    # (i - 1)/(i + 1) = i, by direct complex division
    assert reflection_coefficient(1.0, -1.0) == pytest.approx(1j, abs=1e-12)
    assert reflection_phase(1.0, -1.0) == pytest.approx(1.5 * math.pi, abs=1e-12)


def test_reflection_indeterminate_corner():
    with pytest.raises(IndeterminateError):
        reflection_coefficient(0.0, 0.0)


@given(
    st.floats(min_value=1e-6, max_value=100.0),
    st.floats(min_value=-100.0, max_value=100.0),
)
@settings(max_examples=300, deadline=None)
def test_reflection_unitarity_property(k, alpha):
    assert abs(abs(reflection_coefficient(k, alpha)) - 1.0) <= 1e-14


@pytest.mark.parametrize("k, alpha", [(1.7e308, 1.7e308), (1.7e308, -1.7e308),
                                      (1e308, 1.7e308), (-1.7e308, 1e308)])
def test_reflection_is_unitary_near_the_largest_floats(k, alpha):
    # the complex division's denominator -alpha + k*(k/-alpha) overflowed,
    # and R was nan; R is scale-free, so it is R at k and alpha scaled down
    r = reflection_coefficient(k, alpha)
    assert r == reflection_coefficient(k * 2.0**-600, alpha * 2.0**-600)
    assert abs(abs(r) - 1.0) <= 1e-15
    assert _reflection_columns([k], [alpha]) == ([r.real], [r.imag], [abs(r)],
                                                 [reflection_phase(k, alpha)])


#: k and alpha from 1e-300 to 1e300 of both signs, subnormals, signed
#: zeros and, for alpha, the Dirichlet limits.
_SCATTER_FLOATS = st.one_of(
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-300.0, 300.0)).map(
        lambda c: c[0] * 10.0 ** c[1]),
    st.floats(-2.3e-308, 2.3e-308),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]),
)
_SCATTER_POINTS = st.one_of(
    st.tuples(_SCATTER_FLOATS, _SCATTER_FLOATS | st.sampled_from([math.inf, -math.inf])),
    # |k| = |alpha| sits on the branch point of the complex division, and
    # alpha of the order of k puts the phase anywhere on the circle
    st.tuples(_SCATTER_FLOATS, st.sampled_from([-1.0, 1.0]) | st.floats(-10.0, 10.0)).map(
        lambda c: (c[0], c[1] * c[0])),
).filter(lambda point: point != (0.0, 0.0))


@given(st.lists(_SCATTER_POINTS, min_size=1, max_size=40))
@settings(max_examples=400, deadline=None)
def test_reflection_columns_are_the_scalar_floats(points):
    ks, alphas = (list(c) for c in zip(*points))
    got = _reflection_columns(ks, alphas)
    want = []
    for k, alpha in points:
        r = reflection_coefficient(k, alpha)
        want.append((r.real, r.imag, abs(r), reflection_phase(k, alpha)))
    # to the bit: a signed zero or a last-place difference is a failure
    assert np.asarray(got).T.tobytes() == np.asarray(want).tobytes()


def test_reflection_columns_raise_at_the_indeterminate_corner():
    with pytest.raises(IndeterminateError, match="indeterminate"):
        _reflection_columns([1.0, -0.0, 2.0], [1.0, 0.0, 3.0])


def test_scattering_state_neumann_is_cosine():
    xs = np.linspace(0.0, 10.0, 2001)
    psi = scattering_state(1.0, 0.0, xs)
    assert np.max(np.abs(psi.values - 2.0 * np.cos(xs))) < 1e-12


def test_scattering_state_dirichlet_is_sine():
    xs = np.linspace(0.0, 10.0, 2001)
    psi = scattering_state(1.0, math.inf, xs)
    assert np.max(np.abs(psi.values + 2j * np.sin(xs))) < 1e-12


def test_scattering_state_satisfies_robin_and_ode():
    xs = np.linspace(0.0, 10.0, 10_001)
    k, alpha = 2.0, -1.0
    psi = scattering_state(k, alpha, xs)
    d = derivative_values(psi.xs, psi.values, 1, acc=4)
    assert abs(d[0] - alpha * psi.values[0]) < 1e-10
    d2 = derivative_values(psi.xs, psi.values, 2, acc=4)
    assert np.max(np.abs(-d2[4:-4] - k * k * psi.values[4:-4])) < 1e-4


def test_halfline_spectrum_bundles_both_parts():
    res = halfline_robin_spectrum(-1.0)
    assert len(res.discrete) == 1
    assert res.discrete.n == (0,)
    assert res.discrete.values.tolist() == [-1.0]
    assert res.continuous.threshold == 0.0
    assert res.continuous.reflection_phase(1.0) == pytest.approx(1.5 * math.pi)
    assert len(halfline_robin_spectrum(2.0).discrete) == 0


@pytest.mark.parametrize("alpha", [-1.0, -0.37, -12.5])
def test_robin_level_is_the_sampled_bound_state(alpha):
    # one closed form serves the spectrum level and bound_state's samples
    levels = halfline_robin_spectrum(alpha).discrete
    state = bound_state(alpha)
    assert levels.values.tolist() == [state.energy]
    assert np.array_equal(levels.eigenfunctions(state.psi.xs), [state.psi.values])
    assert levels.eigenfunctions(0.0).tolist() == [[math.sqrt(2.0 * abs(alpha))]]


# ---------------------------------------------------------------------------
# level arrays
# ---------------------------------------------------------------------------

def _per_level(op, param, labels):
    """The (n, value, x -> psi_n(x)) triples of each level, one closure per level.

    These are the expressions each level carried before a spectrum became
    one array value, in the same operation order: the reference whose bits
    the stacks keep.
    """
    triples = []
    for n in sorted(labels):
        if op == "momentum":
            theta, length = param
            p = (math.tau * n + theta) / length
            triples.append((n, p, lambda x, p=p: np.exp(1j * p * np.asarray(x, dtype=float))
                            / math.sqrt(length)))
        elif op == "well":
            kn = n * math.pi / param
            triples.append((n, kn * kn, lambda x, kn=kn: math.sqrt(2.0 / param)
                            * np.sin(kn * np.asarray(x, dtype=float))))
        else:
            triples.append((n, -param * param, lambda x: math.sqrt(2.0 * abs(param))
                            * np.exp(param * np.asarray(x, dtype=float))))
    return triples


_LEVEL_CASES = {
    "momentum": ("momentum", (0.7, 3.75), range(-3, 4)),
    "momentum-2^63": ("momentum", (0.7, 3.75), range(2**63 - 2, 2**63 + 3)),
    "momentum--2^63": ("momentum", (-2.0, 3.75), range(-2**63 - 3, -2**63 + 2)),
    "momentum-10^20": ("momentum", (0.7, 3.75), range(10**20, 10**20 + 5)),
    "momentum-empty": ("momentum", (0.7, 3.75), range(4, 4)),
    "well": ("well", 0.37, range(1, 8)),
    "well-2^63": ("well", 0.37, range(2**63 - 2, 2**63 + 3)),
    "well-10^20": ("well", 0.37, range(10**20, 10**20 + 5)),
    "well-empty": ("well", 0.37, []),
    "robin": ("robin", -0.37, [0]),
    "robin-steep": ("robin", -12.5, [0]),
    "robin-empty": ("robin", 2.0, []),
}


def _levels(op, param, labels):
    if op == "momentum":
        theta, length = param
        return momentum_spectrum(theta, Interval.finite(-1.5, length - 1.5), labels).discrete
    if op == "well":
        return well_spectrum(param, labels).discrete
    return halfline_robin_spectrum(param).discrete


@pytest.mark.parametrize("case", sorted(_LEVEL_CASES))
def test_levels_keep_the_bits_of_the_per_level_closed_forms(case):
    levels = _levels(*_LEVEL_CASES[case])
    reference = _per_level(*_LEVEL_CASES[case])
    # a NamedTuple's len would count its three fields
    assert len(levels) == len(reference)
    assert levels.n == tuple(n for n, _, _ in reference)
    assert all(type(n) is int for n in levels.n)
    assert levels.values.dtype == np.float64
    assert levels.values.tobytes() == np.array([v for _, v, _ in reference]).tobytes()
    for xs in (np.linspace(-1.5, 2.25, 257), 0.3):
        stack = levels.eigenfunctions(xs)
        assert stack.shape == (len(reference), np.size(xs))
        for row, (_, _, psi) in zip(stack, reference):
            assert row.tobytes() == np.ravel(psi(xs)).tobytes()
        for rows in (slice(None), slice(1, 3), slice(1, None, 2), slice(0, 0)):
            assert levels.eigenfunctions(xs, rows).tobytes() == stack[rows].tobytes()


@pytest.mark.parametrize("spectrum, named", [
    # a momentum range names its first level past the float range
    (lambda labels: momentum_spectrum(0.0, BOX, labels),
     lambda labels: next(n for n in labels if n > 1e307)),
    # a well range names its top level
    (lambda labels: well_spectrum(1.0, labels), lambda labels: labels[-1]),
], ids=["momentum", "well"])
@pytest.mark.parametrize("labels", [[10**400], [10**308, 10**400], [3, 2**1024 - 2**970]])
def test_a_label_past_the_float_range_is_refused_by_name(spectrum, named, labels):
    # Python has no float for such an int: the error was an invalid-value
    # "int too large to convert to float"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError,
                           match=r"leaves the float range at n=%d," % named(labels)):
            spectrum(labels)


def test_a_negative_label_past_the_float_range_is_refused_by_name():
    with pytest.raises(PreconditionError, match=r"float range at n=-1%s," % ("0" * 400)):
        momentum_spectrum(0.0, BOX, [5, -10**400])


def test_a_momentum_level_past_the_float_range_warns_of_nothing():
    # the division by L = 1e-308 overflowed with a RuntimeWarning on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match=r"at n=-5, theta=0.0, L=1e-308"):
            momentum_spectrum(0.0, Interval.finite(0.0, 1e-308), range(-5, 6))


# ---------------------------------------------------------------------------
# discretized cross-check
# ---------------------------------------------------------------------------

def test_twisted_matrix_matches_closed_form_spectrum():
    # the closed form against LAPACK on the dense matrix
    for n in (64, 128, 256):
        for theta in (0.0, 0.9, math.pi):
            computed = np.array(discretized_momentum_eigs(theta, n))
            dense = np.linalg.eigvals(_twisted_matrix(theta, n))
            assert len(computed) == n
            gap = np.abs(computed[:, None] - dense[None, :])
            assert np.max(np.min(gap, axis=1)) <= 1e-9 * n
            assert np.max(np.min(gap, axis=0)) <= 1e-9 * n
            moduli = np.abs(computed) - np.sort(np.abs(dense))
            assert np.max(np.abs(moduli)) <= 1e-9 * n


@pytest.mark.parametrize("theta", [0.0, 0.9, math.pi])
def test_twisted_stencil_matches_the_matrix(theta):
    from saext.spectral import _twisted_difference

    n = 96
    rng = np.random.default_rng(3)
    vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    expected = _twisted_matrix(theta, n) @ vec
    assert np.max(np.abs(_twisted_difference(theta, vec) - expected)) <= 1e-12 * n


def test_twisted_eigpair_is_exact_for_the_matrix():
    n, theta = 128, math.pi / 3
    mat = _twisted_matrix(theta, n)
    lam, vec = discretized_momentum_eigpair(theta, n, 2)
    assert np.max(np.abs(mat @ vec - lam * vec)) < 1e-10 * n


def test_twisted_low_mode_tracks_continuum():
    # the mode nearest 2*pi converges at first order
    target = 2 * math.pi
    errors = []
    for n in (64, 128):
        vals = np.array(discretized_momentum_eigs(0.0, n))
        nearest = vals[np.argmin(np.abs(vals - target))]
        errors.append(abs(nearest - target))
    assert errors[0] / errors[1] == pytest.approx(2.0, abs=0.3)


def test_twisted_large_n_uses_arnoldi_and_matches():
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import eigs

    theta, n = math.pi / 3, 2048
    vals = np.array(discretized_momentum_eigs(theta, n, count=8))
    nearest = vals[np.argmin(np.abs(vals - theta))]
    assert abs(nearest - theta) / theta < 1e-2
    again = np.array(discretized_momentum_eigs(theta, n, count=8))
    assert np.array_equal(vals, again)
    # shift-invert Arnoldi near 0 finds the same eight smallest moduli
    rng = np.random.default_rng(12345)
    arnoldi = eigs(
        csc_matrix(_twisted_matrix(theta, n)),
        k=8,
        sigma=-0.5j,
        which="LM",
        v0=rng.standard_normal(n) + 1j * rng.standard_normal(n),
        return_eigenvectors=False,
    )
    arnoldi = arnoldi[np.argsort(np.abs(arnoldi))]
    assert np.max(np.abs(vals - arnoldi)) <= 1e-9 * n


@given(
    st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
    st.integers(min_value=64, max_value=4096),
    st.integers(min_value=1, max_value=32),
)
@settings(max_examples=40, deadline=None)
def test_twisted_eigs_are_eigenvalues_of_the_matrix(theta, n, count):
    for lam in discretized_momentum_eigs(theta, n, count=count):
        # invert lambda = -i*n*(exp(i*phi) - 1) for the mode label
        phi = np.angle(1.0 + 1j * lam / n)
        mode = round((n * phi - theta) / math.tau)
        lam_pair, vec = discretized_momentum_eigpair(theta, n, mode)
        assert abs(lam_pair - lam) <= 1e-10 * n
        assert np.max(np.abs(_twisted_difference(theta, vec) - lam * vec)) <= 1e-10 * n


@pytest.mark.parametrize("n", [1024, 1025])
def test_twisted_count_none_returns_every_mode(n):
    assert len(discretized_momentum_eigs(0.4, n)) == n
    assert len(discretized_momentum_eigs(0.4, n, count=n)) == n


@pytest.mark.parametrize("count", [0, -1, 65])
def test_twisted_count_outside_range_is_rejected(count):
    with pytest.raises(PreconditionError):
        discretized_momentum_eigs(0.4, 64, count=count)


@pytest.mark.parametrize("theta", [0.0, math.pi])
def test_twisted_tied_pair_lists_negative_mode_first(theta):
    # theta = 0 ties modes -1, +1; theta = pi ties modes -1, 0
    vals = discretized_momentum_eigs(theta, 256, count=4)
    first, second = (1, 2) if theta == 0.0 else (0, 1)
    assert abs(vals[first]) == abs(vals[second])
    assert vals[first].real < 0.0 < vals[second].real
    assert vals == discretized_momentum_eigs(theta, 256)[:4]


def test_twisted_rejects_coarse_rings():
    with pytest.raises(TooCoarseError):
        discretized_momentum_eigs(0.0, 63)
    with pytest.raises(TooCoarseError):
        _twisted_matrix(0.0, 32)


def test_spectrum_result_json_shape():
    out = cli._run_spectrum(argparse.Namespace(op="momentum", theta=0.0, interval=BOX,
                                               n_min=0, n_max=1))
    assert out["continuous"] is None
    assert out["discrete"][1] == {"n": 1, "value": pytest.approx(2 * math.pi)}
    out2 = cli._run_spectrum(argparse.Namespace(op="robin", alpha=-2.0))
    assert out2["continuous"]["threshold"] == 0.0
    assert out2["discrete"] == [{"n": 0, "value": -4.0}]
