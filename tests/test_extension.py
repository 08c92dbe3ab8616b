import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from saext.core import BoundaryCondition, GridFunction, Interval, OperatorSpec, derivative_values
from saext.deficiency import solve_deficiency
from saext.errors import PreconditionError, UnsupportedExtensionError
from saext.extension import (
    ExtensionParameter,
    assemble_domain_element,
    halfline_bc_from_unitary,
    momentum_bc_from_unitary,
)

MOMENTUM_01 = OperatorSpec.momentum(Interval.finite(0.0, 1.0))
HAMILTONIAN = OperatorSpec.free_hamiltonian()

EPS = 2.0**-52


def _report_bc(report, gamma):
    """The condition that xi's deficiency part meets at the ends of the report's interval.

    Read off the closed forms of the pair, psi_+-' = rate_+- psi_+-: the
    oracle of the maps on any interval and lambda.  On the half line the
    ratio goes through xi(a) = 2 Re(e^{-i g/2} psi_+(a)) e^{i g/2}, which
    stays accurate near g = pi, where 1 + e^{i g} cancels.
    """
    plus, minus = report.basis_plus[0], report.basis_minus[0]
    iv = plus.interval
    if iv.kind == "finite":
        beta = cmath.exp(1j * gamma)
        xi_a, xi_b = (complex(plus.closed_form(x) + beta * minus.closed_form(x))
                      for x in (iv.a, iv.b))
        return BoundaryCondition.phase(cmath.phase(xi_b / xi_a))
    turn = cmath.exp(-0.5j * gamma)
    p_a = complex(plus.closed_form(iv.a))
    denom = (turn * p_a).real
    if abs(denom) < 1e-12 * abs(p_a):
        return BoundaryCondition.robin(math.inf)
    return BoundaryCondition.robin((turn * plus.rate * p_a).real / denom)


def test_extension_parameter_reduced():
    assert ExtensionParameter(2.0 * math.pi + 1.0).gamma == pytest.approx(1.0)
    assert ExtensionParameter(-0.5).gamma == pytest.approx(2.0 * math.pi - 0.5)


# ---------------------------------------------------------------------------
# momentum family
# ---------------------------------------------------------------------------

def test_momentum_gamma_zero_is_periodic():
    bc = momentum_bc_from_unitary(0.0)
    assert bc.variant == "phase"
    assert bc.value == pytest.approx(0.0, abs=1e-14)


def test_momentum_gamma_pi_is_antiperiodic():
    bc = momentum_bc_from_unitary(math.pi)
    assert bc.value == pytest.approx(math.pi, abs=1e-12)


def test_momentum_gamma_half_pi_frozen_oracle():
    """theta(pi/2) = arg((1+ie)/(e+i)) = atan(sinh 1), frozen before the build."""
    bc = momentum_bc_from_unitary(math.pi / 2.0)
    assert bc.value == pytest.approx(0.8657694832396585, abs=1e-12)
    assert bc.value == pytest.approx(math.atan(math.sinh(1.0)), abs=1e-12)


def test_momentum_ratio_unit_modulus_dense_grid():
    """|xi(1)/xi(0)| = 1 across the whole family."""
    for g in np.linspace(0.0, 2.0 * math.pi, 10_000, endpoint=False):
        beta = cmath.exp(1j * g)
        ratio = (1.0 + beta * math.e) / (math.e + beta)
        assert abs(abs(ratio) - 1.0) <= 1e-12
        theta = momentum_bc_from_unitary(float(g)).value
        assert abs(cmath.exp(1j * theta) - ratio) <= 1e-11


# ---------------------------------------------------------------------------
# half-line family
# ---------------------------------------------------------------------------

def test_halfline_neumann_at_half_pi():
    bc = halfline_bc_from_unitary(math.pi / 2.0)
    assert bc.variant == "robin"
    assert bc.value == pytest.approx(0.0, abs=1e-15)


def test_halfline_gamma_zero():
    # direct evaluation gives alpha = -1/sqrt2; |alpha|^2 = 1/2 = (1-0)/(1+1)
    bc = halfline_bc_from_unitary(0.0)
    assert bc.value == pytest.approx(-1.0 / math.sqrt(2.0), abs=1e-15)


def test_halfline_dirichlet_limit():
    bc = halfline_bc_from_unitary(math.pi)
    assert bc.variant == "robin"
    assert bc.is_dirichlet_limit


def test_halfline_matches_naive_complex_ratio():
    """Away from gamma = pi the plain complex division agrees to rounding."""
    psi0 = 2.0**0.25
    dpsi0 = 2.0**0.25 * (1j - 1.0) / math.sqrt(2.0)
    for g in (0.0, 0.7, 1.0, 2.0, 3.0, 4.0, 5.5):
        beta = cmath.exp(1j * g)
        naive = (dpsi0 + beta * dpsi0.conjugate()) / (psi0 + beta * psi0)
        assert abs(naive.imag) < 1e-10
        assert halfline_bc_from_unitary(g).value == pytest.approx(naive.real, abs=1e-9)


def test_halfline_closed_form_alpha():
    for g in (0.0, 0.3, 1.9, 2.8, 4.0, 6.0):
        expected = (math.tan(g / 2.0) - 1.0) / math.sqrt(2.0)
        assert halfline_bc_from_unitary(g).value == pytest.approx(expected, rel=1e-12)


def test_halfline_modulus_identity_dense_grid():
    """|alpha|^2 (1 + cos g) - (1 - sin g) vanishes over the family, g != pi."""
    for g in np.linspace(0.0, 2.0 * math.pi, 10_000, endpoint=False):
        bc = halfline_bc_from_unitary(float(g))
        if bc.is_dirichlet_limit:
            continue
        half = 0.5 * float(g)
        lhs = bc.value**2 * 2.0 * math.cos(half) ** 2
        rhs = (math.sin(half) - math.cos(half)) ** 2
        assert abs(lhs - rhs) <= 1e-10


def test_halfline_alpha_monotone_and_zero_at_neumann():
    gs = np.linspace(0.0, math.pi - 0.05, 400)
    alphas = [halfline_bc_from_unitary(float(g)).value for g in gs]
    assert np.all(np.diff(alphas) > 0)
    # sign change brackets the Neumann point gamma = pi/2
    assert halfline_bc_from_unitary(math.pi / 2 - 1e-3).value < 0
    assert halfline_bc_from_unitary(math.pi / 2 + 1e-3).value > 0
    assert abs(halfline_bc_from_unitary(math.pi / 2).value) < 1e-15


# ---------------------------------------------------------------------------
# maps read off the deficiency catalog
# ---------------------------------------------------------------------------

#: 10^4 gammas over [0, 2pi), the quarter turns, the last float below 2pi
#: and a subnormal.
_GAMMAS = [*np.linspace(0.0, 2.0 * math.pi, 10_000, endpoint=False).tolist(),
           0.0, 0.5 * math.pi, 1.5 * math.pi, 2.0 * math.pi - 2.0**-50, 1e-320]


def _mp_theta(gamma):
    """arg of xi(1)/xi(0) for the lambda = 1 pair c_+ e^{-x}, c_- e^{x} on [0, 1], in [0, 2pi)."""
    e = mpmath.e
    c_plus, c_minus = e, mpmath.mpf(1)  # the common factor sqrt 2/sqrt(e^2 - 1) cancels
    beta = mpmath.expj(gamma)
    return mpmath.arg((c_plus / e + beta * c_minus * e) / (c_plus + beta * c_minus)) % (2 * mpmath.pi)


def _mp_alpha(gamma):
    """Re((mu + beta conj mu)/(1 + beta)), mu = (i - 1)/sqrt 2: xi'(0)/xi(0) on [0, inf)."""
    mu = mpmath.mpc(-1, 1) / mpmath.sqrt(2)
    beta = mpmath.expj(gamma)
    return mpmath.re((mu + beta * mpmath.conj(mu)) / (1 + beta))


def test_maps_match_the_constant_formulas():
    """Each map within a few ulps of a 50-digit value of its definition."""
    with mpmath.workdps(50):
        for gamma in _GAMMAS:
            gap = (momentum_bc_from_unitary(gamma).value - _mp_theta(gamma)) % (2 * mpmath.pi)
            assert min(gap, 2 * mpmath.pi - gap) <= 4 * EPS, gamma
            alpha = halfline_bc_from_unitary(gamma).value
            if alpha == math.inf:
                assert abs(mpmath.cos(mpmath.mpf(gamma) / 2)) < 1e-12, gamma
                continue
            assert abs(alpha - _mp_alpha(gamma)) <= 2 * EPS * (1 + abs(alpha)), gamma


@pytest.mark.parametrize("gamma", [-3.0, 7.0, 100.0, 1e20, 1e308, -1e308])
def test_a_map_reads_gamma_as_its_extension_parameter(gamma):
    # momentum_bc_from_unitary(1e20) gave 5.948 against 1.143 for the
    # reduced phase, and at 100 alpha differed in its 13th digit
    parameter = ExtensionParameter(gamma)
    assert momentum_bc_from_unitary(gamma) == momentum_bc_from_unitary(parameter)
    assert halfline_bc_from_unitary(gamma) == halfline_bc_from_unitary(parameter)
    assert momentum_bc_from_unitary(gamma) == momentum_bc_from_unitary(parameter.gamma)


@pytest.mark.parametrize("gamma", [math.inf, -math.inf, math.nan])
def test_a_phase_that_is_not_finite_is_refused(gamma):
    # the maps raised cmath's "math domain error" at +-inf and gave nan at nan
    for call in (ExtensionParameter, momentum_bc_from_unitary, halfline_bc_from_unitary):
        with pytest.raises(PreconditionError, match="the phase gamma must be finite"):
            call(gamma)


def test_momentum_off_the_default_interval():
    """On [0,2], gamma = 2 the element's phase, not the frozen [0,1] one."""
    report = solve_deficiency(OperatorSpec.momentum(Interval.finite(0.0, 2.0)))
    assert _report_bc(report, 2.0).value == pytest.approx(1.7407, abs=1e-4)
    assert momentum_bc_from_unitary(2.0).value == pytest.approx(1.2477, abs=1e-4)


def test_halfline_alpha_scales_with_root_lambda():
    report = solve_deficiency(HAMILTONIAN, lam=4.0)
    for g in (0.0, 1.0, 2.5, 4.0):
        expected = 2.0 * (math.tan(g / 2.0) - 1.0) / math.sqrt(2.0)
        assert _report_bc(report, g).value == pytest.approx(expected, rel=1e-12)
    assert _report_bc(report, math.pi).is_dirichlet_limit


def test_halfline_alpha_ignores_where_the_half_line_starts():
    origin = solve_deficiency(HAMILTONIAN)
    shifted = solve_deficiency(OperatorSpec.free_hamiltonian(Interval.half_line(2.0)))
    for g in (0.0, 1.0, 2.5, math.pi, 4.0):
        assert _report_bc(shifted, g) == _report_bc(origin, g)


@given(st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True))
@settings(max_examples=200, deadline=None)
@example(math.pi)
@example(0.5 * math.pi)
@example(0.0)
def test_maps_are_the_conditions_of_the_catalog_reports(gamma):
    momentum = _report_bc(solve_deficiency(MOMENTUM_01, n=2), gamma).value
    gap = abs(momentum_bc_from_unitary(gamma).value - momentum)
    assert min(gap, 2.0 * math.pi - gap) <= 4 * EPS
    alpha = _report_bc(solve_deficiency(HAMILTONIAN, n=2), gamma).value
    if alpha == math.inf:
        assert halfline_bc_from_unitary(gamma).is_dirichlet_limit
    else:
        assert abs(halfline_bc_from_unitary(gamma).value - alpha) <= 4 * EPS * (1 + abs(alpha))


@given(st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=0.1, max_value=5.0),
       st.floats(min_value=0.1, max_value=5.0),
       st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True))
@settings(max_examples=60, deadline=None)
def test_momentum_round_trip_on_random_intervals(a, length, lam, gamma):
    """map -> assemble -> measure: xi(b) = e^{i theta} xi(a) to 1e-8."""
    b = a + length
    report = solve_deficiency(OperatorSpec.momentum(Interval.finite(a, b)), lam=lam, n=501)
    xs = np.linspace(a, b, 801)
    u = (xs - a) / length
    psi = GridFunction(xs, np.sin(2.0 * np.pi * u) * (u * (1.0 - u)) ** 2)
    xi = assemble_domain_element(psi, gamma, report).values
    theta = _report_bc(report, gamma).value
    assert abs(xi[-1] - cmath.exp(1j * theta) * xi[0]) <= 1e-8 * abs(xi[0])


@given(st.floats(min_value=0.1, max_value=5.0),
       st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True))
@settings(max_examples=30, deadline=None)
@example(1.0, math.pi)
@example(4.0, 1.0)
def test_halfline_round_trip_over_lambda(lam, gamma):
    """map -> assemble -> measure: xi'(0) = alpha xi(0) to 1e-8."""
    report = solve_deficiency(HAMILTONIAN, lam=lam, n=501)
    root = math.sqrt(lam)
    xs = np.linspace(0.0, 40.0 / root, 16001)
    psi = GridFunction(xs, (root * xs) ** 2 * np.exp(-root * xs))
    xi = assemble_domain_element(psi, gamma, report)
    bc = _report_bc(report, gamma)
    scale = abs(report.basis_plus[0].closed_form(0.0))
    if bc.is_dirichlet_limit:
        assert abs(xi.values[0]) <= 1e-8 * scale
        return
    d0 = derivative_values(xi.xs, xi.values, order=1, acc=4)[0]
    assert abs(d0 - bc.value * xi.values[0]) <= 1e-8 * (root + abs(bc.value)) * scale


# ---------------------------------------------------------------------------
# domain elements
# ---------------------------------------------------------------------------

def test_assemble_momentum_periodic():
    report = solve_deficiency(MOMENTUM_01)
    xs = np.linspace(0.0, 1.0, 2001)
    psi = GridFunction(xs, np.sin(np.pi * xs) * xs * (1.0 - xs))
    xi = assemble_domain_element(psi, 0.0, report)
    assert abs(xi.values[-1] / xi.values[0] - 1.0) <= 1e-8


def test_assemble_momentum_antiperiodic_exact():
    report = solve_deficiency(MOMENTUM_01)
    xs = np.linspace(0.0, 1.0, 501)
    psi = GridFunction(xs, np.zeros_like(xs))
    xi = assemble_domain_element(psi, math.pi, report)
    assert abs(xi.values[-1] + xi.values[0]) <= 1e-12


def test_assemble_refuses_a_stack_by_name():
    # it read underlying.values[0] as psi(a), and a stack ended in numpy's
    # "truth value of an array ... is ambiguous"
    report = solve_deficiency(MOMENTUM_01)
    xs = np.linspace(0.0, 1.0, 501)
    psi = GridFunction(xs, np.zeros((2, 501)))
    with pytest.raises(ValueError, match="a domain element takes one function, not a stack"):
        assemble_domain_element(psi, 0.0, report)


def test_assemble_hamiltonian_neumann():
    report = solve_deficiency(HAMILTONIAN)
    xs = np.linspace(0.0, 40.0, 8001)
    psi = GridFunction(xs, np.zeros_like(xs))
    xi = assemble_domain_element(psi, math.pi / 2.0, report)
    d0 = derivative_values(xi.xs, xi.values, order=1, acc=4)[0]
    assert abs(d0 / xi.values[0]) <= 1e-8


@given(st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True))
@settings(max_examples=40, deadline=None)
def test_assemble_momentum_round_trip(gamma):
    """An element assembled with gamma satisfies the bc emitted for gamma."""
    report = solve_deficiency(MOMENTUM_01)
    xs = np.linspace(0.0, 1.0, 801)
    psi = GridFunction(xs, np.sin(2.0 * np.pi * xs) * (xs * (1.0 - xs)) ** 2)
    xi = assemble_domain_element(psi, gamma, report)
    theta = momentum_bc_from_unitary(gamma).value
    assert abs(xi.values[-1] - cmath.exp(1j * theta) * xi.values[0]) <= 1e-8


def test_assemble_hamiltonian_round_trip_robin():
    report = solve_deficiency(HAMILTONIAN)
    xs = np.linspace(0.0, 40.0, 16001)
    psi = GridFunction(xs, (xs**2) * np.exp(-xs))
    for gamma in (0.0, 1.0, 2.5, 4.0):
        xi = assemble_domain_element(psi, gamma, report)
        alpha = halfline_bc_from_unitary(gamma).value
        d0 = derivative_values(xi.xs, xi.values, order=1, acc=4)[0]
        assert abs(d0 - alpha * xi.values[0]) <= 1e-8 * max(1.0, abs(alpha))


def test_assemble_rejects_wrong_indices():
    report = solve_deficiency(OperatorSpec.momentum(Interval.half_line(0.0)))
    xs = np.linspace(0.0, 30.0, 501)
    psi = GridFunction(xs, np.zeros_like(xs))
    with pytest.raises(UnsupportedExtensionError):
        assemble_domain_element(psi, 0.0, report)


def test_assemble_rejects_raw_violation():
    report = solve_deficiency(MOMENTUM_01)
    xs = np.linspace(0.0, 1.0, 501)
    psi = GridFunction(xs, np.cos(np.pi * xs))  # psi(0) = 1 != 0
    with pytest.raises(PreconditionError):
        assemble_domain_element(psi, 0.0, report)
