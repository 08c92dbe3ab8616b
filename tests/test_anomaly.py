import argparse
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saext import cli
from saext.anomaly import (
    AnomalyReport,
    _dilatation_pieces,
    anomaly_quadrature,
    apply_dilatation,
    classical_symmetry_check,
    heisenberg_correction,
)
from saext.core import (
    GridFunction,
    boundary_form_hamiltonian,
    derivative_values,
    inner_product,
)
from saext.errors import (
    DegenerateGridError,
    DomainViolationError,
    NoBoundStateError,
    PreconditionError,
)
from saext.spectral import bound_state


def smooth_bump(xs, center, width):
    """C-infinity bump supported on |x - center| < width."""
    u = (xs - center) / width
    out = np.zeros_like(xs)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


# ---------------------------------------------------------------------------
# dilatation generator
# ---------------------------------------------------------------------------

def test_generator_on_exponential():
    xs = np.linspace(0.0, 20.0, 4001)
    psi = GridFunction(xs, np.exp(-xs))
    g_psi = -apply_dilatation(psi, 0.0).values  # t=0 leaves -G psi
    expected = -0.25j * (-2.0 * xs + 1.0) * np.exp(-xs)
    assert np.max(np.abs(g_psi[3:-3] - expected[3:-3])) < 1e-6


def test_generator_on_constant():
    xs = np.linspace(0.0, 1.0, 101)
    psi = GridFunction(xs, np.ones_like(xs))
    out = apply_dilatation(psi, 0.0)
    assert np.max(np.abs(out.values - 0.25j)) < 1e-12


def test_generator_hand_differentiated_oracle():
    xs = np.linspace(0.0, 20.0, 4001)
    psi = GridFunction(xs, xs * np.exp(-xs))
    g_psi = -apply_dilatation(psi, 0.0).values
    expected = -0.25j * xs * (3.0 - 2.0 * xs) * np.exp(-xs)
    assert np.max(np.abs(g_psi[3:-3] - expected[3:-3])) < 1e-6


def test_generator_with_hamiltonian_term():
    xs = np.linspace(0.0, 20.0, 4001)
    psi = GridFunction(xs, np.exp(-xs))
    out = apply_dilatation(psi, 2.0)
    expected = 2.0 * (-np.exp(-xs)) + 0.25j * (-2.0 * xs + 1.0) * np.exp(-xs)
    assert np.max(np.abs(out.values[3:-3] - expected[3:-3])) < 1e-6


def test_generator_grid_size_guards():
    xs = np.linspace(0.0, 1.0, 4)
    with pytest.raises(DegenerateGridError):
        apply_dilatation(GridFunction(xs, np.ones(4)), 0.0)
    xs = np.linspace(0.0, 1.0, 6)
    with pytest.raises(DegenerateGridError):
        apply_dilatation(GridFunction(xs, np.ones(6)), 1.0)


# ---------------------------------------------------------------------------
# anomaly on the bound state
# ---------------------------------------------------------------------------

def _grid_reference(alpha, t=0.0, x_max=None, grid_n=None, tol=1e-6):
    """The anomaly by 4th-order finite differences and quadrature on the sampled state.

    This was anomaly_quadrature before it used the closed form; its
    residual floor is ~5.7e-9 * |E| on the default 3501-point grid.
    """
    state = bound_state(alpha, x_max=x_max, grid_n=grid_n)
    if state is None:
        raise NoBoundStateError(
            "no bound state for alpha=%r; the anomaly needs alpha < 0" % (alpha,)
        )
    psi = state.psi
    h_values, g_values = _dilatation_pieces(psi)
    h_psi, g_psi = GridFunction(psi.xs, h_values), GridFunction(psi.xs, g_values)
    hg_psi = GridFunction(psi.xs, -derivative_values(psi.xs, g_values, 2, acc=4))
    c_h = inner_product(h_psi, h_psi)
    term_1 = t * c_h - inner_product(h_psi, g_psi)
    term_2 = t * c_h - inner_product(psi, hg_psi)
    anomaly_value = 1j * (term_1 - term_2)
    energy = state.energy
    return AnomalyReport(alpha, t, term_1, term_2, anomaly_value.real, energy,
                         abs(anomaly_value.real - energy), tol * abs(energy))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=-10.0, max_value=10.0))
def test_anomaly_closed_form_is_exact_to_rounding(u, t):
    alpha = -(10.0 ** u)
    report = anomaly_quadrature(alpha, t=t)
    energy = -alpha * alpha
    assert report.bound_energy == energy
    assert report.residual <= 1e-15 * abs(energy)
    # (H psi, G psi) = 0 and (psi, H G psi) = i alpha^2
    expected_1 = t * alpha**4
    expected_2 = t * alpha**4 - 1j * alpha**2
    assert abs(report.term_Hpsi_Dpsi - expected_1) <= 1e-15 * abs(expected_1)
    assert abs(report.term_psi_HDpsi - expected_2) <= 1e-15 * abs(expected_2)


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=-1.0, max_value=2.5), st.floats(min_value=-10.0, max_value=10.0))
def test_anomaly_closed_form_agrees_with_the_grid_reference(u, t):
    alpha = -(10.0 ** u)
    report = anomaly_quadrature(alpha, t=t)
    reference = _grid_reference(alpha, t=t)
    assert abs(report.anomaly - reference.anomaly) <= 1e-7 * abs(report.bound_energy)
    assert report.bound_energy == reference.bound_energy
    assert report.tolerance == reference.tolerance


@pytest.mark.parametrize("alpha", [0.0, 0.5, math.nan, -math.inf])
def test_anomaly_off_the_bound_states_fails_as_the_grid_reference(alpha):
    # alpha >= 0 or nan binds nothing; at -inf the reference's grid collapses
    # to a point, and the closed form refuses the value with the same type
    with np.errstate(all="ignore"), pytest.raises(Exception) as expected:
        _grid_reference(alpha)
    with pytest.raises(Exception) as got:
        anomaly_quadrature(alpha)
    assert type(got.value) is type(expected.value)


@pytest.mark.parametrize("alpha", [math.nextafter(-2.0**-511, 0.0), -2.0**512, -math.inf])
def test_anomaly_whose_energy_is_not_a_normal_float_is_refused(alpha):
    with pytest.raises(PreconditionError, match=r"2\^-511 <= \|alpha\| < 2\^512, got alpha="):
        anomaly_quadrature(alpha)


@pytest.mark.parametrize("alpha, t", [(-1.2e77, 0.0), (-1e70, 1e30),
                                      (math.nextafter(-2.0**512, 0.0), 0.0)])
def test_anomaly_whose_alpha_to_the_fourth_leaves_the_float_range_is_refused(alpha, t):
    # its energy is a normal float, but (H psi, H psi) = alpha^4 or t * alpha^4
    # is not finite: the anomaly was nan next to a bound_energy of -inf or
    # a finite one
    with pytest.raises(PreconditionError, match=r"alpha\^4 finite, got alpha="):
        anomaly_quadrature(alpha, t=t)


@pytest.mark.parametrize("alpha", [-2.0**-511, -1e76])
def test_anomaly_at_the_edges_of_its_range(alpha):
    report = anomaly_quadrature(alpha)
    assert report.bound_energy == -alpha * alpha
    assert report.residual <= report.tolerance


def test_anomaly_equals_energy_unit_alpha():
    report = anomaly_quadrature(-1.0)
    assert report.bound_energy == -1.0
    assert abs(report.anomaly + 1.0) <= 1e-6
    assert report.residual <= 1e-6


def test_anomaly_equals_energy_alpha_two():
    report = anomaly_quadrature(-2.0)
    assert abs(report.anomaly + 4.0) <= 1e-6


def test_anomaly_energy_identity_family():
    for alpha in (-0.25, -0.5, -1.0, -2.0, -4.0):
        report = anomaly_quadrature(alpha)
        assert report.residual <= 1e-6


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-1.0, max_value=2.5))
def test_anomaly_residual_meets_its_relative_tolerance(u):
    # the tolerance scales with E = -alpha^2; an absolute one would not
    alpha = -(10.0 ** u)
    report = anomaly_quadrature(alpha)
    assert report.tolerance == 1e-6 * abs(report.bound_energy)
    assert report.residual <= report.tolerance
    assert anomaly_quadrature(alpha, tol=1e-3).tolerance == 1e-3 * abs(report.bound_energy)


def test_anomaly_t_independent():
    base = anomaly_quadrature(-1.0, t=0.0)
    shifted = anomaly_quadrature(-1.0, t=7.3)
    assert abs(base.anomaly - shifted.anomaly) <= 1e-10


def test_anomaly_is_real():
    for alpha, t in ((-1.0, 0.0), (-2.0, 3.0), (-0.5, -1.2)):
        report = anomaly_quadrature(alpha, t=t)
        imag = (1j * (report.term_Hpsi_Dpsi - report.term_psi_HDpsi)).imag
        assert abs(imag) <= 1e-10


def test_anomaly_intermediate_terms_decompose():
    # first term ~ alpha^4 t, second ~ alpha^4 t - i alpha^2
    alpha, t = -1.0, 2.0
    report = anomaly_quadrature(alpha, t=t)
    a4t = alpha**4 * t
    assert report.term_Hpsi_Dpsi == pytest.approx(a4t + 0j, abs=1e-6)
    assert report.term_psi_HDpsi == pytest.approx(a4t - 1j * alpha**2, abs=1e-6)


def test_anomaly_requires_bound_state():
    with pytest.raises(NoBoundStateError):
        anomaly_quadrature(0.5)
    with pytest.raises(NoBoundStateError):
        anomaly_quadrature(0.0)


# ---------------------------------------------------------------------------
# Heisenberg correction for general states
# ---------------------------------------------------------------------------

def test_correction_on_bound_state_matches_anomaly():
    state = bound_state(-1.0)
    value = heisenberg_correction(state.psi, -1.0)
    assert value.real == pytest.approx(-1.0, abs=1e-6)
    assert abs(value.imag) <= 1e-10
    assert value.real == pytest.approx(anomaly_quadrature(-1.0).anomaly, abs=1e-6)


def test_correction_vanishes_away_from_boundary():
    xs = np.linspace(0.0, 6.0, 6001)
    rng = np.random.default_rng(5)
    for _ in range(5):
        center = rng.uniform(2.0, 4.0)
        width = rng.uniform(0.8, 1.5)
        psi = GridFunction(xs, smooth_bump(xs, center, width))
        assert abs(heisenberg_correction(psi, -1.0)) <= 1e-8


def test_correction_against_boundary_form_oracle():
    # integration by parts collapses the difference of quadratures to a
    # surface term; the two routes must agree
    state = bound_state(-2.0)
    direct = heisenberg_correction(state.psi, -2.0)
    surface = -1j * boundary_form_hamiltonian(state.psi, apply_dilatation(state.psi, 0.0))
    assert direct == pytest.approx(surface, abs=1e-6)


def test_correction_t_term_drops_on_bound_state():
    state = bound_state(-1.0)
    assert heisenberg_correction(state.psi, -1.0, t=3.0).real == pytest.approx(
        -1.0, abs=1e-5
    )


def test_correction_rejects_domain_violation():
    xs = np.linspace(0.0, 30.0, 3001)
    psi = GridFunction(xs, (1.0 + xs) * np.exp(-xs))
    with pytest.raises(DomainViolationError):
        heisenberg_correction(psi, -1.0)


def test_correction_grid_guard():
    xs = np.linspace(0.0, 1.0, 6)
    with pytest.raises(DegenerateGridError):
        heisenberg_correction(GridFunction(xs, np.zeros(6)), -1.0)


@pytest.mark.parametrize("weight", ["r", "r^2"])
def test_correction_refuses_a_measure_other_than_dx(weight):
    # H and D here are those of the dx measure; the bound state itself, tagged
    # with another weight, is refused up front rather than deep in a quadrature
    state = bound_state(-1.0)
    psi = GridFunction(state.psi.xs, state.psi.values, weight=weight)
    with pytest.raises(PreconditionError, match="dx measure"):
        heisenberg_correction(psi, -1.0)


# ---------------------------------------------------------------------------
# classical side
# ---------------------------------------------------------------------------

def test_classical_symmetry_is_exact():
    verdict = classical_symmetry_check()
    assert verdict.bracket_is_hamiltonian
    assert verdict.free_dilatation_conserved
    assert verdict.inverse_square_dilatation_conserved
    assert "holds" in verdict.text


def test_anomaly_report_json_round_shape():
    out = cli._run_anomaly(argparse.Namespace(alpha=-1.0, t=1.5, tol=1e-6))
    assert out["alpha"] == -1.0
    assert out["t"] == 1.5
    assert set(out) == {
        "alpha",
        "t",
        "term_Hpsi_Dpsi",
        "term_psi_HDpsi",
        "anomaly",
        "bound_energy",
        "residual",
        "tolerance",
    }
    assert out["term_psi_HDpsi"].imag == pytest.approx(-1.0, abs=1e-6)
