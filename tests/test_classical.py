import math
import re
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from saext.classical import (
    MonomialObservable,
    _closed,
    P,
    PowerLawPotential,
    Q,
    dilatation,
    dilatation_drift,
    dilatation_drift_report,
    dilatation_observable,
    hamiltonian_observable,
    integrate_flow,
    poisson_bracket,
    potential_observable,
    scale_condition_residual,
    scale_symmetry_exact,
    total_time_derivative,
)
from saext.errors import DegenerateGridError, PreconditionError, SingularityError

ONE = MonomialObservable.single(1)


def obs(*raw):
    return MonomialObservable(tuple(raw))


# ---------------------------------------------------------------------------
# monomial algebra
# ---------------------------------------------------------------------------

def test_canonical_merge_and_prune():
    f = obs((1, 1, 0, 0), (2, 1, 0, 0), (5, 0, 2, 1), (-5, 0, 2, 1))
    assert f == obs((3, 1, 0, 0))
    assert MonomialObservable.zero().is_zero
    assert (f - f).is_zero


def test_a_scalar_multiplies_from_either_side():
    f = obs((3, 1, 0, 0), (-2, 0, 2, 1))
    half = obs((Fraction(3, 2), 1, 0, 0), (-1, 0, 2, 1))
    assert f * 0.5 == 0.5 * f == Fraction(1, 2) * f == half
    assert 2 * f == f + f
    assert (0 * f).is_zero


def test_bracket_of_conjugate_pair_is_one():
    assert poisson_bracket(Q, P) == ONE


def test_bracket_hamiltonian_dilatation():
    # {p^2, t p^2 - q p / 2} = p^2
    h = MonomialObservable.single(1, p_pow=2)
    d = dilatation_observable(h)
    assert poisson_bracket(h, d) == h


def test_bracket_squares():
    q2 = MonomialObservable.single(1, q_pow=2)
    p2 = MonomialObservable.single(1, p_pow=2)
    assert poisson_bracket(q2, p2) == MonomialObservable.single(4, q_pow=1, p_pow=1)


def test_evaluate_with_negative_powers():
    f = obs((Fraction(3, 2), -2, 1, 1))
    assert f.evaluate(2.0, 4.0, 3.0) == pytest.approx(1.5 * 2.0**-2 * 4.0 * 3.0)
    assert ONE.evaluate(0.0, 0.0, 0.0) == 1.0


coeffs = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=4
)
term = st.tuples(
    coeffs,
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2),
)
observables = st.lists(term, min_size=1, max_size=3).map(
    lambda raw: MonomialObservable(tuple(raw))
)


@given(observables, observables)
@settings(max_examples=150, deadline=None)
def test_bracket_matches_derivative_composition(f, g):
    direct = poisson_bracket(f, g)
    composed = f.d_dq() * g.d_dp() - f.d_dp() * g.d_dq()
    assert direct == composed


@given(observables, observables)
@settings(max_examples=150, deadline=None)
def test_bracket_antisymmetry(f, g):
    assert poisson_bracket(f, g) == -poisson_bracket(g, f)


@given(observables, observables, observables)
@settings(max_examples=150, deadline=None)
def test_jacobi_identity(f, g, h):
    total = (
        poisson_bracket(f, poisson_bracket(g, h))
        + poisson_bracket(g, poisson_bracket(h, f))
        + poisson_bracket(h, poisson_bracket(f, g))
    )
    assert total.is_zero


@given(observables, observables, observables)
@settings(max_examples=150, deadline=None)
def test_leibniz_rule(f, g, h):
    lhs = poisson_bracket(f, g * h)
    rhs = poisson_bracket(f, g) * h + g * poisson_bracket(f, h)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# scale condition
# ---------------------------------------------------------------------------

def test_residual_vanishes_only_for_inverse_square():
    assert scale_condition_residual(PowerLawPotential(1.0, -2)).is_zero
    assert scale_condition_residual(PowerLawPotential(3.5, -2)).is_zero
    assert not scale_condition_residual(PowerLawPotential(1.0, -1)).is_zero


def test_residual_closed_forms():
    assert scale_condition_residual(PowerLawPotential(2.0, 0)) == obs((2, 0, 0, 0))
    assert scale_condition_residual(PowerLawPotential(1.0, 4)) == obs((3, 4, 0, 0))


def test_residual_needs_integer_exponent():
    with pytest.raises(PreconditionError):
        scale_condition_residual(PowerLawPotential(1.0, 0.5))


@pytest.mark.parametrize("g", [0.0, 1e-300, -1e-300, 1.0, -1.0])
@pytest.mark.parametrize("s", range(-6, 7))
def test_exact_symmetry_is_the_residual_vanishing(s, g):
    v = PowerLawPotential(g, s)
    assert scale_symmetry_exact(v) is scale_condition_residual(v).is_zero


def test_exact_symmetry_needs_no_integer_exponent():
    assert not scale_symmetry_exact(PowerLawPotential(1.0, 2.5))
    assert scale_symmetry_exact(PowerLawPotential(0.0, 0.5))


def test_noether_consistency_all_power_laws():
    # symbolic dD/dt equals the residual (q/2)V' + V for every s
    for s in (-3, -2, -1, 0, 1, 2, 4):
        v = PowerLawPotential(1.0, s)
        h = hamiltonian_observable(v)
        d = dilatation_observable(h)
        assert total_time_derivative(d, h) == scale_condition_residual(v)


def test_potential_and_hamiltonian_observables():
    v = PowerLawPotential(2.0, -2)
    assert potential_observable(v) == obs((2, -2, 0, 0))
    assert hamiltonian_observable(v) == obs((1, 0, 2, 0), (2, -2, 0, 0))


# ---------------------------------------------------------------------------
# numeric dilatation and flow
# ---------------------------------------------------------------------------

def test_dilatation_point_values():
    assert dilatation((1.0, 0.0, 0.0), 5.0) == 0.0
    assert dilatation((2.0, 3.0, 0.0), 17.0) == -3.0


def test_free_flight_is_exact():
    traj = integrate_flow(PowerLawPotential(0.0, 0.0), (1.0, 1.0), 2.0)
    assert np.max(np.abs(traj.qs - (1.0 + 2.0 * traj.ts))) < 1e-9
    assert traj.energy_drift < 1e-12


def test_harmonic_energy_conservation():
    traj = integrate_flow(PowerLawPotential(1.0, 2), (1.0, 0.0), 10.0)
    assert traj.energy_drift < 1e-9
    # q(t) = cos(2t) for these initial data in 2m=1 units
    assert traj.qs[-1] == pytest.approx(math.cos(20.0), abs=1e-7)


def test_inverse_square_energy_conservation():
    traj = integrate_flow(PowerLawPotential(1.0, -2), (1.0, 0.3), 5.0)
    assert traj.energy_drift <= 1e-9


def test_flow_guards():
    with pytest.raises(PreconditionError):
        integrate_flow(PowerLawPotential(1.0, -2), (-1.0, 0.3), 5.0)
    with pytest.raises(PreconditionError):
        integrate_flow(PowerLawPotential(1.0, -2), (1.0, 0.3), 0.0)


def test_attractive_singularity_detected():
    with pytest.raises(SingularityError):
        integrate_flow(PowerLawPotential(-1.0, -2), (1.0, -1.0), 5.0)


def test_drift_vanishes_for_inverse_square():
    assert dilatation_drift(PowerLawPotential(1.0, -2), (1.0, 0.3), 5.0) <= 1e-7


def test_inverse_square_drift_is_rounding_alone():
    # closed flow, zero rate: D = tH - qp/2 moves by rounding only
    report = dilatation_drift_report(PowerLawPotential(1.0, -2), (1.0, 0.25), 5.0)
    assert report.predicted_drift == 0.0
    assert report.max_deviation == report.max_drift <= 1e-14
    assert report.energy_drift <= 1e-14


# ---------------------------------------------------------------------------
# flows in closed form (s = -2, 0, 1, 2); DOP853 is the reference
# ---------------------------------------------------------------------------

def _dop853(g, s, q0, p0, t_end, samples):
    """(q, p) of qdot = 2p, pdot = -g s q^(s-1) at the samples, by DOP853 at rtol 1e-12."""
    from scipy.integrate import DOP853, solve_ivp

    class _DOP853(DOP853):
        # scipy's error norm is |h| e5^2 / sqrt(e5^2 + e3^2 / 100); when e5^2
        # underflows to 0 and e3^2 / 100 does too (p0 ~ 1e-158, s = 0), it
        # is 0/0 = nan, every step is rejected and the solver gives up. The
        # numerator is 0, so the norm is 0.
        def _estimate_error_norm(self, K, h, scale):
            with np.errstate(invalid="ignore"):
                norm = super()._estimate_error_norm(K, h, scale)
            return 0.0 if np.isnan(norm) and np.all(np.isfinite(K)) else norm

    sol = solve_ivp(lambda _t, y: (2.0 * y[1], -g * s * y[0] ** (s - 1)), (0.0, t_end),
                    (q0, p0), method=_DOP853, rtol=1e-12, atol=1e-14,
                    t_eval=np.linspace(0.0, t_end, samples))
    assert sol.success, sol.message
    return sol.y


def _fall_time(g, q0, p0):
    """First t > 0 with q0^2 + 4t(q0 p0 + Ht) = 0 in 50-digit arithmetic, or None."""
    with mpmath.workdps(50):
        g, q0, p0 = (mpmath.mpf(x) for x in (g, q0, p0))
        h = p0 * p0 + g / (q0 * q0)
        if g > 0:
            roots = []
        elif h == 0:
            roots = [-q0 / (4 * p0)] if p0 else []
        else:
            roots = [(-q0 * p0 + sign * mpmath.sqrt(-g)) / (2 * h) for sign in (1, -1)]
        times = [t for t in roots if t > 0]
        return float(min(times)) if times else None


def _reported_time(exc):
    return float(re.search(r"at t=(\S+)$", str(exc.value)).group(1))


@pytest.mark.parametrize("g, p0, fall", [
    (-1.0, 0.5, 1.0),       # g < 0: H < 0, captured although moving out
    (-0.0625, -0.25, 1.0),  # H = 0: q^2 = 1 - t
    (0.0, -1.0, 0.5),       # g = 0: q = 1 - 2t, a double root of q^2
])
def test_inverse_square_falls_at_the_exact_time(g, p0, fall):
    v = PowerLawPotential(g, -2)
    for t_end in (fall, 5.0):
        with pytest.raises(SingularityError) as exc:
            integrate_flow(v, (1.0, p0), t_end)
        assert _reported_time(exc) == fall
    # a horizon just short of the fall is served
    assert integrate_flow(v, (1.0, p0), 0.99 * fall).qs[-1] > 0.0


_COUPLINGS = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-3.0, 3.0)).map(
    lambda c: c[0] * 10.0 ** c[1])


@given(g=_COUPLINGS,
       q0=st.floats(-1.0, 1.0).map(lambda e: 10.0 ** e),
       p0=st.floats(-3.0, 3.0),
       t_end=st.floats(-2.0, 1.0).map(lambda e: 10.0 ** e))
@settings(max_examples=80, deadline=None)
def test_inverse_square_closed_form_matches_dop853(g, q0, p0, t_end):
    v = PowerLawPotential(g, -2)
    fall = _fall_time(g, q0, p0)
    if fall is not None and fall <= t_end:
        with pytest.raises(SingularityError) as exc:
            integrate_flow(v, (q0, p0), t_end, samples=201)
        # the fall time is q0^2 / (2(sqrt(-g) - q0 p0)); moving p0 or g by
        # one ulp moves it by up to (|q0 p0| + sqrt(-g)) / (sqrt(-g) - q0 p0)
        # ulps, the inputs' own conditioning near the escape threshold H = 0
        b, s = q0 * p0, math.sqrt(-g)
        rel = 1e-12 + 4e-16 * (abs(b) + s) / (s - b)
        assert _reported_time(exc) == pytest.approx(fall, rel=rel)
        return
    traj = integrate_flow(v, (q0, p0), t_end, samples=201)
    for got, ref in zip((traj.qs, traj.ps), _dop853(g, -2, q0, p0, t_end, 201)):
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-9 * np.max(np.abs(ref)))


@given(s=st.sampled_from([0, 1, 2]),
       g=_COUPLINGS,
       q0=st.floats(-1.0, 1.0).map(lambda e: 10.0 ** e),
       p0=st.floats(-3.0, 3.0),
       t_end=st.floats(-2.0, 0.5).map(lambda e: 10.0 ** e))
@settings(max_examples=120, deadline=None)
@example(s=0, g=-1.0, q0=1.0, p0=8.898382898024412e-159, t_end=1.0)
def test_polynomial_flows_match_dop853(s, g, q0, p0, t_end):
    # s = 2 with g = -10^3 grows like e^(2 sqrt(-g) t), e^200 at most here
    traj = integrate_flow(PowerLawPotential(g, s), (q0, p0), t_end, samples=201)
    for got, ref in zip((traj.qs, traj.ps), _dop853(g, s, q0, p0, t_end, 201)):
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-9 * np.max(np.abs(ref)))


def test_harmonic_flow_closed_form_values():
    # w = 2 sqrt(g) = 4: q = cos 4t + (2 p0/4) sin 4t, p = p0 cos 4t - 2 sin 4t
    traj = integrate_flow(PowerLawPotential(4.0, 2), (1.0, 0.5), 3.0, samples=7)
    c, sn = np.cos(4.0 * traj.ts), np.sin(4.0 * traj.ts)
    np.testing.assert_allclose(traj.qs, c + 0.25 * sn, rtol=0, atol=1e-15)
    np.testing.assert_allclose(traj.ps, 0.5 * c - 2.0 * sn, rtol=0, atol=1e-15)
    assert traj.energy_drift <= 1e-15


@pytest.mark.parametrize("g, s, q0", [
    (-1e4, 2, 1.0),     # cosh(200 t) overflows by t = 3.6
    (1e300, -2, 1e-5),  # H = g/q0^2 overflows at once
])
def test_flows_that_leave_the_float_range_are_refused(g, s, q0):
    with pytest.raises(PreconditionError, match="leaves the float range"):
        integrate_flow(PowerLawPotential(g, s), (q0, 0.0), 10.0)


@pytest.mark.parametrize("s", [-3, -2, -1, 0, 1, 2, 3])
@pytest.mark.parametrize("samples", [-1, 0, 1])
def test_fewer_than_two_samples_are_refused(s, samples):
    with pytest.raises(DegenerateGridError, match="at least 2 samples"):
        integrate_flow(PowerLawPotential(1.0, s), (1.0, 0.25), 5.0, samples=samples)


def test_zero_energy_drift_is_relative_to_the_energy_terms():
    # H0 = 0.25^2 - 0.0625 = 0 exactly; the drift is measured against
    # p0^2 + |V(q0)| = 0.125, not against H0
    traj = integrate_flow(PowerLawPotential(-0.0625, -2), (1.0, 0.25), 5.0)
    assert traj.energies[0] == 0.0
    assert traj.energy_drift <= 1e-12


@pytest.mark.parametrize("g, s", [(1.0, -2), (0.5, 2), (2.0, 1), (1.0, 0), (1.0, -1)])
def test_repulsive_drift_is_relative_to_the_energy(g, s):
    # V(q0) >= 0, so p0^2 + |V(q0)| is H0 itself, to the bit
    traj = integrate_flow(PowerLawPotential(g, s), (1.0, 0.25), 2.0)
    h0 = traj.energies[0]
    assert traj.energy_drift == float(np.max(np.abs(traj.energies - h0)) / abs(h0))


def test_drift_matches_prediction_inverse_linear():
    report = dilatation_drift_report(PowerLawPotential(1.0, -1), (1.0, 0.3), 5.0)
    assert report.predicted_drift > 0.1
    assert report.max_deviation / report.predicted_drift <= 1e-10


def test_drift_matches_prediction_harmonic():
    report = dilatation_drift_report(PowerLawPotential(1.0, 2), (1.0, 0.3), 5.0)
    assert report.max_deviation / report.predicted_drift <= 1e-5


@pytest.mark.parametrize("g, t_end", [(1e-300, 1e200), (1e-210, 1e300)])
def test_a_slow_harmonic_drift_forms_no_cube_of_w(g, t_end):
    # w = 2e-150: the kinetic term p0^2 (x - sin x)/w^3, about 8e598, left
    # the float range before 2g multiplied it, and the report was refused;
    # at w = 2e-105 the small-w series' (2t)^3 did too
    q0, p0 = 1.0, 0.25
    report = dilatation_drift_report(PowerLawPotential(g, 2), (q0, p0), t_end)
    with mpmath.workdps(50):
        g, q0, p0, t = (mpmath.mpf(v) for v in (g, q0, p0, t_end))
        w = 2 * mpmath.sqrt(g)
        x = 2 * w * t
        ref = 2 * g * (q0**2 * (x + mpmath.sin(x)) / (4 * w) + p0**2 * (x - mpmath.sin(x)) / w**3
                       + 2 * q0 * p0 * mpmath.sin(w * t)**2 / w**2)
    assert report.predicted_drift == pytest.approx(float(ref), rel=1e-12)


def test_drift_linear_potential_crosses_origin():
    # constant force pushes through q = 0; only inverse powers guard it
    report = dilatation_drift_report(PowerLawPotential(1.0, 1), (1.0, 0.3), 5.0)
    assert report.max_deviation / report.predicted_drift <= 1e-5


@given(s=st.sampled_from([0, 1, 2]),
       g=st.just(0.0) | st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-12.0, 1.0)).map(
           lambda c: c[0] * 10.0 ** c[1]),
       q0=st.floats(-1.0, 1.0).map(lambda e: 10.0 ** e),
       p0=st.floats(-3.0, 3.0))
@settings(max_examples=150, deadline=None)
@example(s=2, g=-1.0, q0=1.0, p0=-1.0)  # the stable manifold, where cosh - sinh cancelled
def test_closed_prediction_matches_simpson(s, g, q0, p0):
    # Simpson's rule on the default 4001 samples to t = 5 is the reference.
    # Its own error grows like (w h)^4 for q^2 ~ e^(2wt), w = 2 sqrt|g|,
    # and stays below 1e-8 for |g| <= 10; tiny g checks the series for
    # x - sin x and sinh x - x, where the plain difference cancels
    from scipy.integrate import cumulative_simpson

    v = PowerLawPotential(g, s)
    traj = integrate_flow(v, (q0, p0), 5.0, samples=4001)
    reference = cumulative_simpson((1.0 + 0.5 * s) * v.value(traj.qs), x=traj.ts,
                                   initial=0.0)
    got = _closed(g, s, q0, p0, traj.ts)[2]
    assert np.max(np.abs(got - reference)) <= 1e-8 * np.max(np.abs(reference))


def _mp_inverted_oscillator(g, q0, p0, t):
    """q, p and int_0^t 2g q^2 dt of the s = 2, g < 0 flow, by mpmath.

    The cosh and sinh terms reach e^x, x = 4 sqrt(-g) t, and cancel on the
    stable manifold, so they are summed at 50 digits more than x/ln 10.
    """
    with mpmath.workdps(50 + int(4.0 * math.sqrt(-g) * t / math.log(10.0))):
        g, q0, p0, t = (mpmath.mpf(x) for x in (g, q0, p0, t))
        w = 2 * mpmath.sqrt(-g)
        c, sn, x = mpmath.cosh(w * t), mpmath.sinh(w * t), 4 * mpmath.sqrt(-g) * t
        integral = (q0**2 * (x + mpmath.sinh(x)) / (4 * w) + p0**2 * (mpmath.sinh(x) - x) / w**3
                    + 2 * q0 * p0 * sn**2 / w**2)
        return float(q0 * c + 2 * p0 / w * sn), float(p0 * c + w * q0 / 2 * sn), float(2 * g * integral)


@pytest.mark.parametrize("g, q0, p0, t_end", [
    (-1.0, 1.0, -1.0, 15.0),    # the stable manifold p0 = -sqrt(-g) q0: q decays as e^(-2t)
    (-1.0, 1.0, -1.0, 200.0),   # past t = 177.5, where sinh(2wt) overflows
    (-1.0, 1.0, -1.0, 400.0),   # past t = 355, where sinh(wt) overflows and q is subnormal
    (-4.0, 2.0, -4.0, 5.0),
    (-0.25, 3.0, -1.5, 15.0),
    (-1.0, 1.0, 0.5, 5.0),
    (-1e-6, 1.0, 0.3, 5.0),     # small |g|, where the e^(+-wt) modes cancel to free flight
    (-1e-6, 10.0, -0.3, 5.0),
    (-1e-12, 0.5, 2.0, 5.0),
])
def test_inverted_oscillator_matches_mpmath(g, q0, p0, t_end):
    # q0 cosh wt + (2 p0/w) sinh wt and the prediction's cosh/sinh terms
    # cancelled on the manifold: at t_end = 15 the CLI printed a predicted
    # drift of 4294967296.0 against a measured 0.5.  Their modes gave
    # 0 * inf = nan there once sinh overflowed, and the report was refused
    ts = np.linspace(0.0, t_end, 51)
    traj = integrate_flow(PowerLawPotential(g, 2), (q0, p0), t_end, samples=51)
    got = np.array([traj.qs, traj.ps, _closed(g, 2, q0, p0, ts)[2]])
    ref = np.array([_mp_inverted_oscillator(g, q0, p0, t) for t in ts]).T
    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))
    if (g, q0, p0) == (-1.0, 1.0, -1.0):
        report = dilatation_drift_report(PowerLawPotential(g, 2), (q0, p0), t_end)
        assert report.max_drift == pytest.approx(0.5, rel=1e-15)
        assert report.predicted_drift == pytest.approx(0.5, rel=1e-15)
        assert report.max_deviation <= 1e-15


def _mp_singular_time(g, s, p0):
    """When the flow from (1, p0) reaches 0 or runs to q = +-inf, or None.

    The energy integral t = int dr / (2 sqrt(H - c r^s)) summed over the
    monotone legs of r = |q| (c = g on the right, g (-1)^s on the left), by
    mpmath at 30 digits.  The last leg to inf is taken in v, r = a v^(-2/(s-2)),
    from a where |V| = |H| on, whose integrand is regular at v = 0.
    """
    with mpmath.workdps(30):
        g, s, p0 = (mpmath.mpf(x) for x in (g, s, p0))
        h = p0 * p0 + g
        side, r, t = 1, mpmath.mpf(1), mpmath.mpf(0)
        d = mpmath.sign(p0) or -mpmath.sign(g * s)
        for _ in range(4):
            c = g if side > 0 else g * (-1) ** int(s)

            def f(x, c=c):
                return 1 / (2 * mpmath.sqrt(h - c * x ** s))

            if c * s * d > 0 and h / c > 0:  # a turning point
                turn = (h / c) ** (1 / s)
                t += mpmath.quad(f, sorted([r, turn]))
                r, d = turn, -d
            elif d < 0:
                t += mpmath.quad(f, [0, r])
                if not (s > 0 and s == int(s) and h > 0):
                    return float(mpmath.re(t))
                side, r, d = -side, mpmath.mpf(0), 1
            elif s > 2 and c < 0:
                a, b = max(r, abs(h / c) ** (1 / s)), 2 / (s - 2)
                t += mpmath.quad(f, [r, a]) + mpmath.quad(
                    lambda v: f(a * v ** -b) * a * b * v ** (-b - 1), [0, 1])
                return float(mpmath.re(t))
            else:
                return None
    return None


def _singular_time(exc):
    return float(re.search(r" at t=(\S+)$", str(exc.value)).group(1))


@pytest.mark.parametrize("g, s, sign", [
    (1.0, 3, "-"), (-1.0, 3, "+"), (-1.0, 4, "+"), (1.0, 5, "-"), (-1.0, 2.5, "+"),
    (-1e-3, 6, "+"),
])
def test_run_to_infinity_is_named_at_the_blow_up(g, s, sign):
    # V = g q^s is unbounded below, and q reaches +-inf in finite time; the
    # time is the energy integral's, which DOP853 gave to 6 digits only
    with pytest.raises(SingularityError, match=rf"runs to q = \{sign}inf at t=") as exc:
        integrate_flow(PowerLawPotential(g, s), (1.0, 0.25), 50.0)
    assert _singular_time(exc) == pytest.approx(_mp_singular_time(g, s, 0.25), rel=1e-12)


@pytest.mark.parametrize("g, s, p0", [(1.0, 2.5, 0.25), (1.0, 0.5, 0.25), (1.0, 3.7, 0.25),
                                      (0.0, 1.5, -1.0), (-1.0, -1.5, 0.25)])
def test_non_integer_exponents_stop_at_the_origin(g, s, p0):
    # q^s is undefined below q = 0, where DOP853 gave up with "step size is
    # less than spacing between numbers" and numpy warned of an invalid power
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularityError, match="reaches the origin at t=") as exc:
            integrate_flow(PowerLawPotential(g, s), (1.0, p0), 50.0)
    expected = 0.5 if g == 0.0 else _mp_singular_time(g, s, p0)
    assert _singular_time(exc) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("g, s, q0, p0", [
    (1.0, 4, 1.0, 0.0),  # at rest at a turning point
    (0.0, 2.5, 1e300, 0.25),  # free flight, whose force 0 * inf at q0 is nan
    (0.0, -1e300, 0.5, 0.25),
])
def test_flows_that_took_a_nan_first_step_run(g, s, q0, p0):
    # DOP853 picked a nan first step here, and its loop never ended
    traj = integrate_flow(PowerLawPotential(g, s), (q0, p0), 1.0, samples=5)
    assert traj.energy_drift <= 1e-15
    if g == 0.0:
        np.testing.assert_allclose(traj.qs, q0 + 2.0 * p0 * traj.ts, rtol=1e-15)


def test_drift_report_refuses_an_exponent_that_rounding_swamps():
    # at s = 1e300 (g = 1e-300) the report gave an energy drift of 6.2e298
    report = dilatation_drift_report(PowerLawPotential(1.0, 2.0**17), (1.0, 0.25), 5.0)
    assert report.max_deviation <= 1e-6 * report.max_drift
    for s in (2.0**17 + 1.0, -2.0**17 - 1.0, 1e300):
        with pytest.raises(PreconditionError, match=r"needs \|s\| <= 2\^17"):
            dilatation_drift_report(PowerLawPotential(1.0, s), (1.0, 0.25), 5.0)


#: Exponents outside {-2, 0, 1, 2}, whose flows come from the energy integral.
_ENGINE_EXPONENTS = [-6, -5, -4, -3, -1, 3, 4, 5, 6, -1.5, 0.5, 2.5, 3.7]


@pytest.mark.parametrize("s", _ENGINE_EXPONENTS)
@pytest.mark.parametrize("g", [1.0, -1.0])
@pytest.mark.parametrize("p0", [0.25, -0.4])
def test_energy_integral_flows_match_mpmath_and_dop853(s, g, p0):
    v = PowerLawPotential(g, s)
    t_singular = _mp_singular_time(g, s, p0)
    if t_singular is not None:
        with pytest.raises(SingularityError) as exc:
            integrate_flow(v, (1.0, p0), 2.0 * t_singular, samples=3)
        assert _singular_time(exc) == pytest.approx(t_singular, rel=1e-12)
    # a horizon that ends at least 10% before a blow-up or a fall
    t_end = 5.0 if t_singular is None else 0.9 * t_singular
    traj = integrate_flow(v, (1.0, p0), t_end, samples=201)
    for got, ref in zip((traj.qs, traj.ps), _dop853(g, s, 1.0, p0, t_end, 201)):
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-9 * np.max(np.abs(ref)))
    # near a blow-up |V| outgrows p0^2 + |V(q0)|, and rounding grows with it
    terms = np.max(traj.ps ** 2 + np.abs(v.value(traj.qs))) / (p0 * p0 + abs(g))
    assert traj.energy_drift <= 1e-13 * terms
    report = dilatation_drift_report(v, (1.0, p0), t_end)
    assert report.max_deviation <= 1e-10 * report.predicted_drift


def test_periodic_flow_is_sampled_modulo_its_period():
    # the quartic well's period 4 int_0^r* dr / (2 sqrt(H - r^4)), by mpmath;
    # a whole number of periods later the flow is back at (q0, p0)
    with mpmath.workdps(30):
        h = mpmath.mpf(0.25) ** 2 + 1
        period = float(mpmath.re(4 * mpmath.quad(lambda r: 1 / (2 * mpmath.sqrt(h - r ** 4)),
                                                 [0, h ** 0.25])))
    traj = integrate_flow(PowerLawPotential(1.0, 4), (1.0, 0.25), 1e4 * period, samples=3)
    assert traj.qs[-1] == pytest.approx(1.0, abs=1e-9)
    assert traj.ps[-1] == pytest.approx(0.25, abs=1e-9)
    assert traj.energy_drift <= 1e-14


@pytest.mark.parametrize("g, s, p0", [(1.0, 4, 0.25), (0.0, 3, 1e12)])
def test_flows_bounded_below_run_to_the_horizon(g, s, p0):
    # a quartic well, and free flight far past any escape bound
    traj = integrate_flow(PowerLawPotential(g, s), (1.0, p0), 5.0, samples=5)
    assert traj.ts[-1] == 5.0


def test_constant_potential_drift_is_linear_in_time():
    report = dilatation_drift_report(PowerLawPotential(2.0, 0), (1.0, 0.5), 3.0)
    assert report.max_drift == pytest.approx(6.0, rel=1e-8)
    assert report.max_deviation / report.predicted_drift <= 1e-8


def _mp_period(g, s, p0):
    """The period 4 int_0^r* dr / (2 sqrt(H - g r^s)) of the even-s well from (1, p0), by mpmath."""
    with mpmath.workdps(30):
        g, s, p0 = (mpmath.mpf(x) for x in (g, s, p0))
        h = p0 * p0 + g
        turn = (h / g) ** (1 / s)
        return float(mpmath.re(4 * mpmath.quad(lambda r: 1 / (2 * mpmath.sqrt(h - g * r ** s)),
                                               [0, turn])))


@pytest.mark.parametrize("t_end", [1.0, 5.0, 1e15])
@pytest.mark.parametrize("p0", [0.25, 1e100])
@pytest.mark.parametrize("g", [1.0, 1e-12, 1e250])
@pytest.mark.parametrize("s", [1e-6, 1e-3, 0.5, 2, 3, 4, 6])
def test_drift_report_holds_or_names_its_cause(s, g, p0, t_end):
    # the report exited 0 with a deviation of 1e15 (samples of a periodic
    # flow left unwritten past 1e14), with a drift of 0.3125 against the
    # 9.25e-12 of a flow measured from its turning point at 3.9e21, and
    # named an overflow of (h/g)^(1/s) as the flow leaving the float range
    v = PowerLawPotential(g, s)
    try:
        report = dilatation_drift_report(v, (1.0, p0), t_end, samples=401)
    except SingularityError as exc:
        # the energy integral's fall or blow-up, before t_end; mpmath's
        # quadrature over spans up to 1e66 holds about 7 digits
        t = float(re.search(r" at t=(\S+)$", str(exc)).group(1))
        assert t <= t_end
        assert t == pytest.approx(_mp_singular_time(g, s, p0), rel=1e-6)
        return
    except PreconditionError as exc:
        # a period that the rounding of t_end swamps
        period = float(re.search(r"has period (\S+):", str(exc)).group(1))
        assert s % 2 == 0 and 2.0**-52 * t_end > 1e-6 * period
        assert period == pytest.approx(_mp_period(g, s, p0), rel=1e-9)
        return
    traj = integrate_flow(v, (1.0, p0), t_end, samples=401)
    terms = np.max(traj.ps ** 2 + np.abs(v.value(traj.qs)))
    assert report.energy_drift * (p0 * p0 + g) <= 1e-10 * terms
    scale = np.max(np.abs(traj.ts * traj.energies[0]) + np.abs(traj.qs * traj.ps) / 2.0)
    assert report.max_deviation <= 1e-10 * scale


@pytest.mark.parametrize("t_end", [1.0, 5.0, 1e15])
@pytest.mark.parametrize("p0", [0.25, 1e100])
def test_harmonic_drift_report_at_g_1e_300_matches_dop853(p0, t_end):
    # the s = 2 points of the grid above at g = 1e-300, where w^3 and
    # x - sin x underflow to 0: the kinetic term p0^2 (x - sin x)/w^3 was
    # 0/0, and the report was refused as leaving the float range
    from scipy.integrate import cumulative_simpson

    g = 1e-300
    report = dilatation_drift_report(PowerLawPotential(g, 2), (1.0, p0), t_end, samples=401)
    ts = np.linspace(0.0, t_end, 401)
    qs, ps = _dop853(g, 2, 1.0, p0, t_end, 401)
    energy = p0 * p0 + g
    assert report.energy_drift * energy <= 1e-10 * np.max(ps ** 2 + g * qs ** 2)
    d_vals = ts * energy - 0.5 * qs * ps
    scale = np.max(np.abs(ts * energy) + np.abs(qs * ps) / 2.0)
    assert abs(report.max_drift - np.max(np.abs(d_vals - d_vals[0]))) <= 1e-10 * scale
    assert report.max_deviation <= 1e-10 * scale
    # q is linear in t to rounding, so Simpson's rule integrates the rate 2g q^2 exactly
    predicted = cumulative_simpson(2.0 * g * qs ** 2, x=ts, initial=0.0)
    assert report.predicted_drift == pytest.approx(np.max(np.abs(predicted)), rel=1e-9)


@pytest.mark.parametrize("s, g, t_end", [
    (0.5, 1e-12, 5.0),  # the turning point is at 3.9e21
    (1e-3, 1.0, 1.0),   # at 2e26
    (1e-6, 1.0, 5.0),   # (h/g)^(1/s) overflows: there is none in the float range
])
def test_flows_toward_a_far_turning_point_match_dop853(s, g, t_end):
    # measured from the turning point, q0 = 1 and the sample times carried
    # its rounding: the report gave a drift of 0.3125 against DOP853's
    # 9.25e-12, and of 1.0625 against DOP853's 1.00072 with a predicted
    # 1.07e9; the last was refused as leaving the float range
    v = PowerLawPotential(g, s)
    report = dilatation_drift_report(v, (1.0, 0.25), t_end)
    traj = integrate_flow(v, (1.0, 0.25), t_end, samples=4001)
    qs, ps = _dop853(g, s, 1.0, 0.25, t_end, 4001)
    for got, ref in zip((traj.qs, traj.ps), (qs, ps)):
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
    d_vals = traj.ts * (0.0625 + g) - 0.5 * qs * ps
    scale = np.max(np.abs(traj.ts * (0.0625 + g)) + np.abs(qs * ps) / 2.0)
    assert abs(report.max_drift - np.max(np.abs(d_vals - d_vals[0]))) <= 1e-10 * scale
    assert report.max_deviation <= 1e-10 * scale

