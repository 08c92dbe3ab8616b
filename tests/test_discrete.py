import argparse
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saext import cli, discrete, spectral
from saext.core import GridFunction, UnitSystem, derivative_values, inner_product, norm
from saext.discrete import (
    _commutator_trace,
    _hermitian_pair,
    commuting_observables_demo,
    cosine_basis_momentum_matrix,
    eigenvector_commutator_demo,
    hermiticity_defect_demo,
    trace_commutator_check,
)
from saext.errors import PreconditionError


# ---------------------------------------------------------------------------
# trace of a commutator
# ---------------------------------------------------------------------------

def test_explicit_two_by_two_trace_is_exactly_zero():
    x = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    p = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)
    assert np.trace(x @ p - p @ x) == 0.0 + 0.0j


def test_trace_check_small_dimension():
    report = trace_commutator_check(8, 20)
    assert report.id == 2
    assert report.quantities["max_scaled_trace"].value <= 1e-12
    assert report.quantities["naive_canonical_trace"].value == 8j


def test_trace_check_large_dimension_many_trials():
    report = trace_commutator_check(64, 100)
    assert report.quantities["max_scaled_trace"].value <= 1e-10


def test_trace_check_deterministic():
    a = trace_commutator_check(16, 5, seed=7)
    b = trace_commutator_check(16, 5, seed=7)
    assert a.quantities == b.quantities


def test_trace_check_guards():
    with pytest.raises(PreconditionError):
        trace_commutator_check(1, 10)
    with pytest.raises(PreconditionError):
        trace_commutator_check(4, 0)
    # numpy's own "expected non-negative integer" came out as an invalid value
    with pytest.raises(PreconditionError, match="seed .* got -5"):
        trace_commutator_check(4, 10, seed=-5)


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_trace_check_vanishes_for_any_dimension(n, seed):
    report = trace_commutator_check(n, 3, seed=seed)
    assert report.quantities["max_scaled_trace"].value <= 1e-12


def _hermitian_draw(rng, n):
    """One n x n Hermitian draw with iid uniform parts, one generator call per matrix.

    The reference for the pair draws, built entry by entry: of the n**2
    uniforms u - 1/2, the first n are the diagonal and the rest, as
    alternating real and imaginary parts, the entries above it in the
    order of np.triu_indices(n, 1); each entry below is the conjugate of
    its mirror.
    """
    z = rng.random(n * n) - 0.5
    rows, cols = np.triu_indices(n, 1)
    x = np.zeros((n, n), dtype=complex)
    x.real[np.diag_indices(n)] = z[:n]
    x.real[rows, cols] = z[n::2]
    x.imag[rows, cols] = z[n + 1::2]
    x.real[cols, rows] = z[n::2]
    x.imag[cols, rows] = -z[n + 1::2]
    return x


def _matrix(row, n):
    """Scatter one row of a pair buffer into its n x n matrix."""
    rows, cols = np.triu_indices(n, 1)
    m = rows.size
    x = np.empty((n, n), dtype=complex)
    x[np.diag_indices(n)] = row[:n]
    x[rows, cols] = row[n:n + m]
    x[cols, rows] = row[n + m:]
    return x


def _pair(rng, n):
    pair = np.zeros((2, n * n), dtype=complex)
    _hermitian_pair(rng, n, pair)
    return pair


@pytest.mark.parametrize("n", [2, 3, 8, 64])
def test_pair_draws_equal_the_sequential_draws_bit_for_bit(n):
    rng = np.random.default_rng(n)
    reference = [_hermitian_draw(rng, n) for _ in range(10)]
    rng = np.random.default_rng(n)
    pair = np.zeros((2, n * n), dtype=complex)
    drawn = []
    for _ in range(5):
        # one buffer refilled by every draw, as the check does
        _hermitian_pair(rng, n, pair)
        drawn.extend(_matrix(row, n) for row in pair)
    for got, want in zip(drawn, reference, strict=True):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, trials", [(2, 400), (3, 300), (8, 250), (64, 3)])
def test_trace_check_equals_the_per_trial_reference(n, trials):
    # Tr[X,P] = Tr(XP) - conj(Tr(XP)) for Hermitian X and P: twice the
    # imaginary part of one dot product of the entries in a common order,
    # here the order the check lists them in
    rng = np.random.default_rng(11)
    rows, cols = np.triu_indices(n, 1)
    order = (np.concatenate([np.arange(n), rows, cols]),
             np.concatenate([np.arange(n), cols, rows]))
    worst = 0.0
    for _ in range(trials):
        x, p = _hermitian_draw(rng, n)[order], _hermitian_draw(rng, n)[order]
        tr = 2.0 * np.vdot(p, x).imag
        worst = max(worst, abs(tr) / math.sqrt(np.vdot(x, x).real * np.vdot(p, p).real))
    assert trace_commutator_check(n, trials, seed=11).quantities["max_scaled_trace"].value == worst


def test_hermitian_draw_is_exactly_hermitian():
    n = 33
    pair = _pair(np.random.default_rng(3), n)
    assert pair.shape == (2, n * n)
    # entry by entry, with no tolerance: the lower triangle is the
    # conjugate of the upper, and the diagonal is real
    for row in pair:
        x = _matrix(row, n)
        assert np.array_equal(x, x.conj().T)
        assert not np.any(x.diagonal().imag)


@pytest.mark.parametrize("n", [2, 3, 8, 64])
def test_each_row_lists_every_entry_of_its_matrix_once(n):
    # the same multiset of entries as the reference matrix, bit for bit:
    # sorting the bytes of each entry compares them in any order
    def entries(values):
        return sorted(v.tobytes() for v in values)

    rng = np.random.default_rng(n)
    reference = [_hermitian_draw(rng, n) for _ in range(2)]
    for row, want in zip(_pair(np.random.default_rng(n), n), reference, strict=True):
        assert entries(row) == entries(want.ravel())


def test_hermitian_draw_has_the_uniform_law():
    # the diagonal and the real and imaginary parts above it are iid
    # uniform on [-1/2, 1/2): mean 0 and variance 1/12, and each sample
    # mean and variance must land within 5 of its standard errors,
    # sqrt(1/(12 count)) and sqrt((1/80 - 1/144)/count)
    n = 256
    x = _matrix(_pair(np.random.default_rng(20240607), n)[0], n)
    upper = x[np.triu_indices(n, 1)]
    for values in (x.diagonal().real, upper.real, upper.imag):
        assert np.all((-0.5 <= values) & (values < 0.5))
        assert abs(np.mean(values)) <= 5.0 * math.sqrt(1.0 / (12.0 * values.size))
        spread = 5.0 * math.sqrt((1.0 / 80.0 - 1.0 / 144.0) / values.size)
        assert abs(np.mean(values * values) - 1.0 / 12.0) <= spread


@pytest.mark.parametrize("n", [2, 3, 64])
def test_hermitian_draw_parts_lie_on_the_grid_of_the_uniforms(n):
    # every u from Generator.random is k*2**-53, and u - 1/2 is exact, so
    # every part is k*2**-53 - 1/2 for an integer k, 0 <= k <= 2**53 (the
    # imaginary parts below the diagonal are negated); ldexp is exact
    for row in _pair(np.random.default_rng(n), n):
        x = _matrix(row, n)
        for part in (x.real, x.imag):
            k = np.ldexp(part, 53) + 2.0 ** 52
            assert np.array_equal(k, np.floor(k))
            assert np.all((0.0 <= k) & (k <= 2.0 ** 53))


def test_trace_check_past_its_work_bound_is_refused_before_the_first_draw(monkeypatch):
    # --n 2 --trials 1000000000 ran for hours; one trial fewer than each of
    # these is accepted
    monkeypatch.setattr(discrete, "_hermitian_pair", mock.Mock(side_effect=AssertionError("ran")))
    for n in (2, 64, 3344):
        trials = discrete._TRACE_WORK_MAX // (2 * n * n + discrete._TRIAL_WORK) + 1
        with pytest.raises(PreconditionError, match="%d trials at n=%d are .* past the bound "
                           "of 400000000" % (trials, n)):
            trace_commutator_check(n, trials)
    # the golden (8, 100) and the benchmark's (64, 100) take under 1% of it
    assert 100 * (2 * 64 * 64 + discrete._TRIAL_WORK) < discrete._TRACE_WORK_MAX // 100


@pytest.mark.parametrize("trials", [1, 8])
def test_a_trace_check_holds_48_n2_bytes_whatever_its_trial_count(trials):
    # one pair buffer (32 n^2) refilled by every trial, plus the real
    # samples of one draw (16 n^2); the warm-up call imports numpy.random
    n = 512
    trace_commutator_check(2, 1)
    tracemalloc.start()
    try:
        trace_commutator_check(n, trials)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 48 * n * n


@pytest.mark.parametrize("n", [2, 7, 64, 200])
def test_entrywise_trace_matches_the_matrix_products(n):
    rows = _pair(np.random.default_rng(n), n)
    x, p = (_matrix(row, n) for row in rows)
    products = np.trace(x @ p) - np.trace(p @ x)
    scale = np.linalg.norm(x) * np.linalg.norm(p)
    # the dot products of the rows, as the check takes them
    assert abs(_commutator_trace(*rows) - products) <= 1e-14 * scale


# ---------------------------------------------------------------------------
# cosine-basis momentum matrix
# ---------------------------------------------------------------------------

def _cosine_entry(l, m, n):
    """Closed form of (e_m, -i d/dx e_n): 4i n^2/(l(n^2 - m^2)) for m+n odd, else 0."""
    return 4j * n * n / (l * (n * n - m * m)) if (m + n) % 2 else 0j


def test_cosine_matrix_matches_closed_form():
    for l in (1.0, 2.0, 4.0):
        result = cosine_basis_momentum_matrix(l, 8)
        for m in range(1, 9):
            for n in range(1, 9):
                expected = _cosine_entry(l, m, n)
                assert abs(result.p[m - 1, n - 1] - expected) < 1e-12


def test_defect_unit_interval_odd_entry():
    result = cosine_basis_momentum_matrix(1.0, 4)
    assert abs(result.defect[0, 1] - (-4j)) < 1e-10


def test_defect_unit_interval_even_entry():
    result = cosine_basis_momentum_matrix(1.0, 4)
    assert abs(result.defect[0, 2]) < 1e-12


def test_defect_scales_inversely_with_length():
    result = cosine_basis_momentum_matrix(2.0, 4)
    assert abs(result.defect[1, 2] - (-2j)) < 1e-10
    # l * defect is the same constant across lengths on the odd sublattice
    for l in (1.0, 2.0, 4.0):
        d = cosine_basis_momentum_matrix(l, 6).defect
        for m in range(1, 7):
            for n in range(1, 7):
                if (m + n) % 2 == 1:
                    assert abs(l * d[m - 1, n - 1] - (-4j)) < 1e-9


def test_defect_sublattice_pattern_larger_block():
    for l in (1.0, 2.0, 4.0):
        d = cosine_basis_momentum_matrix(l, 12).defect
        for m in range(1, 13):
            for n in range(1, 13):
                if (m + n) % 2 == 0:
                    assert abs(d[m - 1, n - 1]) < 1e-12
                else:
                    assert abs(abs(d[m - 1, n - 1]) - 4.0 / l) < 1e-10


@pytest.mark.parametrize("m_basis", [128, 256])
def test_cosine_matrix_matches_closed_form_at_large_blocks(m_basis):
    result = cosine_basis_momentum_matrix(1.0, m_basis)
    expected = np.array([
        [_cosine_entry(1.0, m, n) for n in range(1, m_basis + 1)]
        for m in range(1, m_basis + 1)
    ])
    assert np.max(np.abs(result.p - expected)) <= 1e-10


def _gauss_legendre_reference(l, m_basis):
    """(e_m, -i d/dx e_n) by Gauss-Legendre quadrature, independent of the closed form.

    The integrands oscillate with frequency up to 2*M*pi/l, so the order
    grows with M (2M+64 nodes) to stay at ~1e-11 of the exact entries.
    """
    nodes, weights = np.polynomial.legendre.leggauss(2 * m_basis + 64)
    xs = 0.5 * l * (nodes + 1.0)
    ws = 0.5 * l * weights
    ks = np.arange(1, m_basis + 1)[:, None] * (math.pi / l)
    e = math.sqrt(2.0 / l) * np.cos(ks * xs)
    # -i d/dx e_n = i (n*pi/l) sqrt(2/l) sin(n*pi*x/l)
    pe = 1j * ks * math.sqrt(2.0 / l) * np.sin(ks * xs)
    return (e * ws) @ pe.T


@pytest.mark.parametrize("l", [0.1, 0.3, 1.0, 3.0])
def test_cosine_matrix_matches_gauss_legendre_reference(l):
    for m_basis in (2, 3, 17, 64, 130, 200, 256):
        p = cosine_basis_momentum_matrix(l, m_basis).p
        reference = _gauss_legendre_reference(l, m_basis)
        assert np.max(np.abs(p - reference)) <= 1e-12 * np.max(np.abs(p))


@given(st.floats(min_value=math.log(0.01), max_value=math.log(10.0)),
       st.integers(min_value=2, max_value=256))
@settings(max_examples=60, deadline=None)
def test_defect_demo_meets_every_printed_tolerance(log_l, m_basis):
    l = math.exp(log_l)
    q = hermiticity_defect_demo(l, m_basis).quantities
    assert q["defect_even_sublattice_max"].value <= q["defect_even_sublattice_max"].tolerance
    deviation = q["defect_odd_sublattice_max_deviation"]
    assert deviation.value <= deviation.tolerance
    value = q["defect_odd_sublattice_value"]
    assert abs(value.value - complex(0.0, -4.0 / l)) <= value.tolerance


@pytest.mark.parametrize("m_basis", [7, 130])
def test_defect_demo_matches_entrywise_scan(m_basis):
    defect = cosine_basis_momentum_matrix(1.0, m_basis).defect
    even_max = odd_dev = 0.0
    for m in range(m_basis):
        for n in range(m_basis):
            if (m + n) % 2 == 0:
                even_max = max(even_max, abs(defect[m, n]))
            else:
                odd_dev = max(odd_dev, abs(defect[m, n] + 4j))
    q = hermiticity_defect_demo(1.0, m_basis).quantities
    assert q["defect_even_sublattice_max"].value == even_max
    assert q["defect_odd_sublattice_max_deviation"].value == odd_dev
    assert odd_dev <= q["defect_odd_sublattice_max_deviation"].tolerance


@pytest.mark.parametrize("l", [0.1, 0.3, 1.0])
def test_defect_demo_even_sublattice_meets_its_tolerance(l):
    # the even-sublattice rounding grows with the entries, ~2M/l
    for m_basis in (16, 64, 130, 200, 256):
        q = hermiticity_defect_demo(l, m_basis).quantities["defect_even_sublattice_max"]
        assert q.value <= q.tolerance


def test_defect_demo_report():
    report = hermiticity_defect_demo(1.0, 6)
    assert report.id == 4
    assert report.quantities["defect_even_sublattice_max"].value < 1e-12
    assert report.quantities["defect_odd_sublattice_max_deviation"].value < 1e-10
    assert report.quantities["defect_odd_sublattice_value"].value == -4j


def test_cosine_matrix_guards():
    with pytest.raises(PreconditionError):
        cosine_basis_momentum_matrix(1.0, 1)
    with pytest.raises(PreconditionError):
        cosine_basis_momentum_matrix(-1.0, 4)


@pytest.mark.parametrize("call", [
    # the smallest sizes over the 1 GiB budget, and the sizes that asked
    # numpy for 298 GiB; only refused sizes run, so nothing large is allocated
    lambda: trace_commutator_check(3345, 1),
    lambda: trace_commutator_check(200_000, 1),
    lambda: cosine_basis_momentum_matrix(1.0, 4730),
    lambda: hermiticity_defect_demo(1.0, 100_000),
])
def test_sizes_over_the_memory_budget_are_refused_before_allocating(call):
    with pytest.raises(PreconditionError, match="1 GiB memory budget"):
        call()


# ---------------------------------------------------------------------------
# momentum-eigenvector commutator expectation
# ---------------------------------------------------------------------------

def test_eigenvector_expectation_vanishes():
    report = eigenvector_commutator_demo(0.0, 1024)
    assert report.id == 1
    assert abs(report.quantities["eigenvector_expectation"].value) <= 1e-8
    assert report.quantities["canonical_target"].value == 1j


def test_eigenvector_expectation_vanishes_antiperiodic():
    report = eigenvector_commutator_demo(math.pi, 1024)
    assert abs(report.quantities["eigenvector_expectation"].value) <= 1e-8


def test_eigenvector_expectation_does_not_converge_to_target():
    # refining the grid does not pull the expectation toward i*hbar
    for n in (256, 2048):
        report = eigenvector_commutator_demo(0.0, n, mode=2)
        assert abs(report.quantities["eigenvector_expectation"].value) <= 1e-8
        assert report.quantities["eigenpair_residual"].value <= 1e-9 * n


@given(
    st.integers(min_value=-10**20, max_value=10**20),
    st.floats(min_value=-1e7, max_value=1e7),
    st.sampled_from([64, 256, 1000, 2048]),
)
@settings(max_examples=60, deadline=None)
def test_every_eigenvector_quantity_meets_its_tolerance_or_is_refused(mode, theta, n):
    # 2*pi*mode + theta kept no digits of phi once mode or theta was large
    try:
        report = eigenvector_commutator_demo(theta, n, mode=mode)
    except PreconditionError as exc:
        assert abs(theta) > 1e6
        assert "|theta| <= 1e+06" in str(exc)
        return
    for name, q in report.quantities.items():
        if name != "canonical_target":
            assert abs(q.value) <= q.tolerance, name
    # modes m and m + n are one eigenpair
    same = eigenvector_commutator_demo(theta, n, mode=mode + n)
    assert report.quantities == same.quantities


@pytest.mark.parametrize("n, mode, theta", [
    (2**22, 2097151, 0.0), (2**22, 2097151, 3.0), (2**22, -2097152, -1e6), (2**21, 524288, 3.0),
])
def test_eigenvector_expectation_meets_its_tolerance_on_a_large_ring(n, mode, theta):
    # each printed 1.1e-8 to 3.3e-8 under a fixed tolerance of 1e-8
    q = eigenvector_commutator_demo(theta, n, mode=mode).quantities
    for name in ("eigenvector_expectation", "eigenpair_residual"):
        assert abs(q[name].value) <= q[name].tolerance, name


@st.composite
def _ring(draw):
    n = draw(st.integers(64, 2**16))
    return n, draw(st.integers(-n, n)), draw(st.floats(-1e6, 1e6))


@given(_ring())
@settings(max_examples=60, deadline=None)
def test_every_eigenvector_quantity_meets_its_tolerance_on_any_ring(ring):
    n, mode, theta = ring
    q = eigenvector_commutator_demo(theta, n, mode=mode).quantities
    for name in ("eigenvector_expectation", "eigenpair_residual"):
        assert abs(q[name].value) <= q[name].tolerance, name


def test_eigenvector_demo_deterministic():
    a = eigenvector_commutator_demo(0.3, 256, mode=1)
    b = eigenvector_commutator_demo(0.3, 256, mode=1)
    assert a.quantities == b.quantities


# ---------------------------------------------------------------------------
# box eigenfunctions vs momentum
# ---------------------------------------------------------------------------

def test_box_levels_are_not_momentum_eigenfunctions():
    report = commuting_observables_demo(1.0, 5)
    assert report.id == 3
    for n in range(1, 6):
        assert report.quantities["r_%d" % n].value == pytest.approx(1.0, abs=1e-10)


def test_box_levels_width_pi():
    report = commuting_observables_demo(math.pi, 2)
    assert report.quantities["r_2"].value == pytest.approx(1.0, abs=1e-10)


#: Box widths whose p psi_n ~ (n pi/a) sqrt(2/a) has subnormal squares
#: (a >~ 1e105: ||p psi_1|| was off by 3e-13 at 1e105, 1e-6 at 1e107 and
#: 1.6e-4 at 1e108, and refused from ~1e154 on) or overflowing ones (a <~ 1e-103).
_WIDE_AND_NARROW = [1e-150, 1e-105, 1e105, 1e107, 1e108, 1e206, 1.7e308]


@pytest.mark.parametrize("a", [1.0, *_WIDE_AND_NARROW])
def test_box_momentum_norms_keep_their_digits_on_any_box_width(a):
    # as the demo scales them: psi_n, then p psi_n, each row by a power of two
    xs = np.linspace(0.0, a, 10_001)
    psi, psi_scale = discrete._unit_rows(spectral.well_spectrum(a, [1, 2, 3])
                                         .discrete.eigenfunctions(xs))
    p_psi, p_scale = discrete._unit_rows(-1j * derivative_values(xs, psi, 1, acc=4))
    p_norms = norm(GridFunction(xs, p_psi)) / p_scale / psi_scale
    assert p_norms == pytest.approx(np.arange(1, 4) * math.pi / a, rel=1e-12)


@pytest.mark.parametrize("a", _WIDE_AND_NARROW)
def test_box_demo_serves_wide_and_narrow_boxes(a):
    report = commuting_observables_demo(a, 3)
    for n in range(1, 4):
        assert report.quantities["r_%d" % n].value == pytest.approx(1.0, abs=1e-10)


def test_box_demo_scaling_keeps_the_bits_of_a_unit_box():
    # the residual as computed before the scaling, row by row
    report = commuting_observables_demo(1.0, 5)
    xs = np.linspace(0.0, 1.0, 10_001)
    for n in range(1, 6):
        psi = GridFunction(xs, math.sqrt(2.0) * np.sin(n * math.pi * xs))
        p_psi = GridFunction(xs, -1j * derivative_values(xs, psi.values, 1, acc=4))
        coeff = complex(inner_product(psi, p_psi)) / complex(inner_product(psi, psi))
        residual = GridFunction(xs, p_psi.values - coeff * psi.values)
        assert report.quantities["r_%d" % n].value == norm(residual) / norm(p_psi)


def test_box_demo_guards():
    with pytest.raises(PreconditionError):
        commuting_observables_demo(0.0, 3)
    with pytest.raises(PreconditionError):
        commuting_observables_demo(1.0, 0)


@pytest.mark.parametrize("grid_n", [5, 7, 9, 101])
def test_box_demo_refuses_levels_its_grid_cannot_resolve(grid_n):
    # sin(n pi x/a) vanishes on every node at n = grid_n - 1: --n 4 --grid-n 5
    # printed r_4 = 0.8632 against its tolerance of 1e-10
    with pytest.raises(PreconditionError, match="a grid of %d samples resolves the levels "
                       "n <= %d, got n_max=%d" % (grid_n, grid_n - 2, grid_n - 1)):
        commuting_observables_demo(1.0, grid_n - 1, grid_n=grid_n)
    report = commuting_observables_demo(1.0, grid_n - 2, grid_n=grid_n)
    assert len(report.quantities) == grid_n - 2
    assert all(abs(q.value - 1.0) <= q.tolerance for q in report.quantities.values())


@pytest.mark.parametrize("n_max, grid_n", [(5_000, 10_001), (6_809, 6_812), (60, 1_000_001)])
def test_box_demo_refuses_a_range_past_its_work_bound_at_once(n_max, grid_n, monkeypatch):
    # --n 2000 took 5 s, and the memory budget admitted ~520,000 levels;
    # one level fewer than each of these is accepted
    # the demo imports well_spectrum from spectral when it is called
    monkeypatch.setattr(spectral, "well_spectrum", mock.Mock(side_effect=AssertionError("ran")))
    with pytest.raises(PreconditionError, match="past the bound of 60000000"):
        commuting_observables_demo(1.0, n_max, grid_n=grid_n)
    assert (n_max - 1) * (grid_n + discrete._LEVEL_WORK) <= discrete._WORK_MAX


def test_box_demo_builds_its_grid_functions_per_stack_not_per_level(monkeypatch):
    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return grid_function(*args, **kwargs)

    grid_function = discrete.GridFunction
    monkeypatch.setattr(discrete, "GridFunction", counted)
    report = commuting_observables_demo(1.0, 299, grid_n=301)
    stacks = -(-299 // (discrete._STACK // 301))
    assert len(report.quantities) == 299
    assert stacks == 2 and len(built) <= 3 * stacks


# ---------------------------------------------------------------------------
# the CLI's report record
# ---------------------------------------------------------------------------

def test_report_json_encodes_complex_and_tolerance():
    out = cli._run_paradox(argparse.Namespace(id=2, n=8, trials=3, seed=0, units=UnitSystem()))
    assert out["id"] == 2
    naive = out["quantities"]["naive_canonical_trace"]
    assert naive["value"] == complex(0.0, 8.0)
    assert naive["tolerance"] == 0.0
    assert isinstance(out["quantities"]["max_scaled_trace"]["value"], float)
    assert list(out["quantities"]) == sorted(out["quantities"])
