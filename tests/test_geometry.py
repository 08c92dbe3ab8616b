"""Radial measures: symmetry defect, connection term, commutator survival."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saext.core import GridFunction, inner_product
from saext.errors import (
    GridMismatchError,
    InvalidMetricError,
    PreconditionError,
    SingularSupportError,
)
from saext.geometry import (
    MeasureSpec,
    commutator_preservation_check,
    connection_condition,
    radial_symmetry_defect,
)


def smooth_bump(xs, center, width):
    u = (xs - center) / width
    out = np.zeros_like(xs, dtype=complex)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


def bump_pair(seed, n=4001):
    """Two compactly supported functions on a shared grid inside (0, 6)."""
    rng = np.random.default_rng(seed)
    xs = np.linspace(0.05, 6.0, n)
    c1, c2 = rng.uniform(1.2, 4.5, size=2)
    w1, w2 = rng.uniform(0.4, 1.0, size=2)
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
    f = GridFunction(xs, smooth_bump(xs, c1, w1), weight="r")
    g = GridFunction(xs, phase * smooth_bump(xs, c2, w2), weight="r")
    return f, g


def half_over_r(r):
    with np.errstate(divide="ignore"):
        return 0.5 / r


def one_over_r(r):
    with np.errstate(divide="ignore"):
        return 1.0 / r


def flat_overlap(f, g):
    """int conj(f) g dr with the plain dr measure."""
    a = GridFunction(f.xs, f.values, weight="1")
    b = GridFunction(g.xs, g.values, weight="1")
    return inner_product(a, b)


# -- measure specs ----------------------------------------------------------

def test_builtin_measures_match_their_weights():
    xs = np.linspace(0.1, 5.0, 101)
    for spec, wid in [
        (MeasureSpec.polar(), "r"),
        (MeasureSpec.spherical_radial(), "r^2"),
        (MeasureSpec.cartesian(), "1"),
    ]:
        assert spec.weight == wid
        # sqrt(fl(r^2)) can differ from r in the last bit
        assert spec.consistency_defect(xs) < 1e-14


def test_measure_spec_rejects_unknown_weight():
    with pytest.raises(InvalidMetricError):
        MeasureSpec("r^3", lambda r: r ** 6)


def test_consistency_defect_rejects_nonpositive_metric():
    spec = MeasureSpec("r", lambda r: r ** 2 - 1.0)
    with pytest.raises(InvalidMetricError):
        spec.consistency_defect(np.linspace(0.5, 2.0, 11))


def test_custom_measure_reports_mismatch():
    # weight r but metric r^4: sqrt(g) - w = r^2 - r, maximal at r = 2
    spec = MeasureSpec("r", lambda r: np.asarray(r) ** 4)
    d = spec.consistency_defect(np.linspace(1.0, 2.0, 201))
    assert d == pytest.approx(2.0, abs=1e-12)


# -- symmetry defect --------------------------------------------------------

def test_defect_vanishes_with_connection_term():
    for seed in range(8):
        f, g = bump_pair(seed)
        assert abs(radial_symmetry_defect(half_over_r, f, g)) < 1e-8


def test_defect_without_connection_is_flat_overlap():
    f, g = bump_pair(3)
    d = radial_symmetry_defect(lambda r: np.zeros_like(r), f, g)
    assert d == pytest.approx(1j * flat_overlap(f, g), abs=1e-8)


def test_defect_with_double_connection_flips_sign():
    f, g = bump_pair(11)
    d = radial_symmetry_defect(one_over_r, f, g)
    assert d == pytest.approx(-1j * flat_overlap(f, g), abs=1e-8)


def test_defect_closed_form_for_generic_omega():
    # (f, p_r g) - (p_r f, g) = i int (1 - 2 r omega) conj(f) g dr
    f, g = bump_pair(7)
    omega = lambda r: 0.3 * np.sin(r) + 0.1 * r
    factor = GridFunction(
        g.xs, (1.0 - 2.0 * g.xs * omega(g.xs)) * g.values, weight="r"
    )
    predicted = 1j * flat_overlap(f, factor)
    assert radial_symmetry_defect(omega, f, g) == pytest.approx(
        predicted, abs=1e-8
    )


def test_defect_linear_response_to_connection_perturbation():
    # omega -> omega + eps/r shifts the defect by -2i eps int conj(f) g dr
    f, g = bump_pair(5)
    predicted_slope = -2j * flat_overlap(f, g)
    eps1, eps2 = 0.01, 0.02
    d1 = radial_symmetry_defect(lambda r: 0.5 / r + eps1 / r, f, g)
    d2 = radial_symmetry_defect(lambda r: 0.5 / r + eps2 / r, f, g)
    slope = (d2 - d1) / (eps2 - eps1)
    assert abs(slope - predicted_slope) < 0.05 * abs(predicted_slope)


@settings(max_examples=25, deadline=None)
@given(
    a_re=st.floats(-2, 2), a_im=st.floats(-2, 2),
    b_re=st.floats(-2, 2), b_im=st.floats(-2, 2),
)
def test_defect_is_sesquilinear(a_re, a_im, b_re, b_im):
    a = complex(a_re, a_im)
    b = complex(b_re, b_im)
    f1, g = bump_pair(1, n=1501)
    f2, _ = bump_pair(2, n=1501)
    combo = GridFunction(f1.xs, a * f1.values + b * f2.values, weight="r")
    lhs = radial_symmetry_defect(half_over_r, combo, g)
    rhs = np.conj(a) * radial_symmetry_defect(half_over_r, f1, g) \
        + np.conj(b) * radial_symmetry_defect(half_over_r, f2, g)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_defect_guard_against_origin_support():
    xs = np.linspace(0.0, 5.0, 1001)
    f = GridFunction(xs, np.exp(-xs), weight="r")  # nonzero at r = 0
    g = GridFunction(xs, smooth_bump(xs, 2.0, 0.5), weight="r")
    with pytest.raises(SingularSupportError):
        radial_symmetry_defect(half_over_r, f, g)


def test_defect_guard_against_far_end_support():
    xs = np.linspace(0.5, 3.0, 1001)
    f = GridFunction(xs, smooth_bump(xs, 1.5, 0.4), weight="r")
    g = GridFunction(xs, smooth_bump(xs, 2.9, 0.5), weight="r")
    with pytest.raises(PreconditionError):
        radial_symmetry_defect(half_over_r, f, g)


def test_defect_requires_radial_weight_and_shared_grid():
    xs = np.linspace(0.5, 3.0, 501)
    bump = smooth_bump(xs, 1.5, 0.4)
    flat = GridFunction(xs, bump, weight="1")
    radial = GridFunction(xs, bump, weight="r")
    with pytest.raises(PreconditionError):
        radial_symmetry_defect(half_over_r, flat, radial)
    other = GridFunction(xs + 0.25, smooth_bump(xs + 0.25, 1.5, 0.4), weight="r")
    with pytest.raises(GridMismatchError):
        radial_symmetry_defect(half_over_r, radial, other)


def test_defect_tolerates_inf_connection_outside_support():
    # grid touches r = 0 where omega blows up, but the functions vanish there
    xs = np.linspace(0.0, 4.0, 2001)
    f = GridFunction(xs, smooth_bump(xs, 2.0, 0.6), weight="r")
    g = GridFunction(xs, smooth_bump(xs, 2.2, 0.5), weight="r")
    d = radial_symmetry_defect(half_over_r, f, g)
    assert np.isfinite(d.real) and np.isfinite(d.imag)
    assert abs(d) < 1e-8


# -- connection condition ---------------------------------------------------

def test_connection_closed_forms():
    rs = np.array([0.5, 1.0, 2.0, 4.0])
    polar = connection_condition("polar")
    spherical = connection_condition("spherical_radial")
    flat = connection_condition("cartesian")
    assert np.array_equal(polar(rs), 0.5 / rs)
    assert np.array_equal(spherical(rs), 1.0 / rs)
    assert np.array_equal(flat(rs), np.zeros(4))


def test_connection_unknown_name():
    with pytest.raises(InvalidMetricError):
        connection_condition("hyperbolic")


def test_connection_closed_form_rejects_origin():
    with pytest.raises(InvalidMetricError):
        connection_condition("polar")(np.array([0.0, 1.0]))


def test_connection_by_differences_matches_polar():
    fn = connection_condition(lambda r: np.asarray(r) ** 2)
    rs = np.linspace(0.3, 5.0, 57)
    assert np.max(np.abs(fn(rs) - 0.5 / rs)) < 1e-8


def test_connection_by_differences_exponential_metric():
    # g = exp(2 r) gives a constant connection term 1/2
    fn = connection_condition(lambda r: np.exp(2.0 * np.asarray(r)))
    rs = np.linspace(-1.0, 1.0, 21)
    assert np.max(np.abs(fn(rs) - 0.5)) < 1e-8


def test_connection_by_differences_rejects_sign_change():
    fn = connection_condition(lambda r: np.asarray(r) - 5.0)
    with pytest.raises(InvalidMetricError):
        fn(np.linspace(4.0, 6.0, 11))


def test_connection_matches_measure_spec_metrics():
    rs = np.linspace(0.4, 3.0, 33)
    for spec, name in [
        (MeasureSpec.polar(), "polar"),
        (MeasureSpec.spherical_radial(), "spherical_radial"),
    ]:
        fd = connection_condition(spec.metric_det)
        closed = connection_condition(name)
        assert np.max(np.abs(fd(rs) - closed(rs))) < 1e-8


# -- commutator preservation ------------------------------------------------

def test_commutator_unchanged_by_connection_choice():
    xs = np.linspace(0.05, 6.0, 4001)
    f = GridFunction(xs, smooth_bump(xs, 2.5, 0.8), weight="r")
    for omega in [
        half_over_r,
        one_over_r,
        lambda r: np.zeros_like(r),
        lambda r: 3.0 * np.sin(r) + 2.0,
        lambda r: 0.2 * r ** 2,
    ]:
        assert commutator_preservation_check(omega, f) < 1e-6


@settings(max_examples=20, deadline=None)
@given(c0=st.floats(-3, 3), c1=st.floats(-3, 3))
def test_commutator_for_random_linear_connections(c0, c1):
    xs = np.linspace(0.1, 5.0, 2001)
    f = GridFunction(xs, smooth_bump(xs, 2.0, 0.7), weight="r")
    assert commutator_preservation_check(lambda r: c0 + c1 * r, f) < 1e-6


def test_commutator_check_guards_origin_support():
    xs = np.linspace(0.0, 5.0, 501)
    f = GridFunction(xs, np.cos(xs), weight="r")
    with pytest.raises(SingularSupportError):
        commutator_preservation_check(half_over_r, f)
