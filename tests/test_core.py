import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saext.core import (
    _unit_stencil,
    _window_size,
    BoundaryCondition,
    GridFunction,
    Interval,
    OperatorSpec,
    UnitSystem,
    boundary_form_hamiltonian,
    boundary_form_momentum,
    derivative,
    derivative_values,
    fd_weights,
    inner_product,
    norm,
    quadrature_weights,
)
from saext.errors import (
    DegenerateGridError,
    GridMismatchError,
    PreconditionError,
    UnsupportedBoundaryError,
)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

def test_interval_kinds():
    i = Interval.finite(0.0, 1.0)
    assert i.length == 1.0
    assert Interval.half_line(2.0).b == math.inf
    assert Interval.full_line().a == -math.inf
    with pytest.raises(ValueError):
        Interval.finite(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval.finite(0.0, math.inf)
    with pytest.raises(ValueError):
        Interval("circle")


def test_unit_system():
    assert UnitSystem().hbar == 1.0
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="hbar must be finite and positive"):
            UnitSystem(hbar=bad)


def test_operator_spec_validation():
    OperatorSpec.momentum(Interval.finite(0, 1))
    OperatorSpec.free_hamiltonian()
    OperatorSpec.time_operator(e0=0.5)
    with pytest.raises(ValueError):
        OperatorSpec("time_operator", Interval.finite(0, 1))
    with pytest.raises(ValueError):
        OperatorSpec("hamiltonian", Interval.half_line())


def test_boundary_condition_variants():
    bc = BoundaryCondition.phase(2.0 * math.pi + 0.5)
    assert bc.value == pytest.approx(0.5)
    assert BoundaryCondition.robin(math.inf).is_dirichlet_limit
    assert not BoundaryCondition.robin(-1.0).is_dirichlet_limit
    with pytest.raises(ValueError):
        BoundaryCondition("dirichlet", 3.0)
    with pytest.raises(ValueError):
        BoundaryCondition("absorbing")


# ---------------------------------------------------------------------------
# grid functions
# ---------------------------------------------------------------------------

def test_grid_function_validation():
    with pytest.raises(DegenerateGridError):
        GridFunction(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        GridFunction(np.array([0.0, 0.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        GridFunction(np.array([0.0, 1.0]), np.zeros(2), weight="bogus")
    f = GridFunction.uniform(lambda x: np.exp(1j * x), 0.0, 1.0, 11)
    assert not f.xs.flags.writeable
    assert not f.values.flags.writeable


def test_grid_function_weight_samples():
    f = GridFunction.uniform(lambda x: x, 1.0, 2.0, 5, weight="r")
    np.testing.assert_allclose(f.w, f.xs)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_quadrature_constant():
    f = GridFunction.uniform(lambda x: np.ones_like(x), 0.0, 1.0, 1001)
    assert inner_product(f, f) == pytest.approx(1.0, abs=1e-12)


def test_quadrature_sine_orthogonality():
    xs = np.linspace(0.0, 1.0, 1001)
    f = GridFunction(xs, math.sqrt(2.0) * np.sin(np.pi * xs))
    g = GridFunction(xs, math.sqrt(2.0) * np.sin(2.0 * np.pi * xs))
    assert abs(inner_product(f, g)) < 1e-10
    assert inner_product(f, f).real == pytest.approx(1.0, abs=1e-10)


def test_quadrature_decaying_exponential_norm():
    # normalized sqrt(2) e^{-x}; half-line integral truncated at 40
    xs = np.linspace(0.0, 40.0, 20001)
    f = GridFunction(xs, math.sqrt(2.0) * np.exp(-xs))
    assert inner_product(f, f).real == pytest.approx(1.0, abs=1e-8)


def test_simpson_exact_for_cubics():
    xs = np.linspace(0.0, 1.0, 11)
    w = quadrature_weights(xs)
    assert np.dot(w, xs**3) == pytest.approx(0.25, abs=5e-16)


def test_trapezoid_fallback_non_uniform():
    xs = np.array([0.0, 0.1, 0.35, 0.7, 1.0])
    w = quadrature_weights(xs)
    # trapezoid weights: sums of adjacent half-spacings
    assert np.sum(w) == pytest.approx(1.0)
    assert w[0] == pytest.approx(0.05)


def test_inner_product_grid_mismatch():
    f = GridFunction.uniform(lambda x: x, 0.0, 1.0, 11)
    g = GridFunction.uniform(lambda x: x, 0.0, 1.0, 12)
    with pytest.raises(GridMismatchError):
        inner_product(f, g)
    h = GridFunction.uniform(lambda x: x, 0.5, 1.0, 11, weight="r")
    k = GridFunction.uniform(lambda x: x, 0.5, 1.0, 11, weight="1")
    with pytest.raises(GridMismatchError):
        inner_product(h, k)


@st.composite
def _paired_samples(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    elems = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
    re1 = draw(st.lists(elems, min_size=n, max_size=n))
    im1 = draw(st.lists(elems, min_size=n, max_size=n))
    re2 = draw(st.lists(elems, min_size=n, max_size=n))
    im2 = draw(st.lists(elems, min_size=n, max_size=n))
    return n, re1, im1, re2, im2


@given(_paired_samples())
@settings(max_examples=60, deadline=None)
def test_inner_product_conjugate_symmetry_exact(data):
    """(f,g) == conj((g,f)) bitwise, for any grid pair."""
    n, re1, im1, re2, im2 = data
    xs = np.linspace(0.0, 1.0, n)
    f = GridFunction(xs, np.array(re1) + 1j * np.array(im1))
    g = GridFunction(xs, np.array(re2) + 1j * np.array(im2))
    assert inner_product(f, g) == np.conj(inner_product(g, f))


@given(_paired_samples())
@settings(max_examples=60, deadline=None)
def test_inner_product_positivity_exact(data):
    n, re1, im1, _, _ = data
    xs = np.linspace(0.0, 1.0, n)
    f = GridFunction(xs, np.array(re1) + 1j * np.array(im1))
    v = inner_product(f, f)
    assert v.imag == 0.0
    assert v.real >= 0.0


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def test_fd_weights_standard_one_sided_stencil():
    # classic 5-point forward stencil for f'(x0)
    w = fd_weights(0.0, np.arange(5.0), 1)
    np.testing.assert_allclose(w, [-25.0 / 12.0, 4.0, -3.0, 4.0 / 3.0, -0.25],
                               atol=1e-12)


def test_fd_weights_central_second_derivative():
    w = fd_weights(0.0, np.array([-1.0, 0.0, 1.0]), 2)
    np.testing.assert_allclose(w, [1.0, -2.0, 1.0], atol=1e-13)


def test_derivative_fourth_order_accuracy():
    f = GridFunction.uniform(np.sin, 0.0, 1.0, 2001)
    df = derivative(f)
    np.testing.assert_allclose(df.values.real, np.cos(f.xs), atol=1e-11)


def test_second_derivative_exponential():
    xs = np.linspace(0.0, 2.0, 4001)
    f = GridFunction(xs, np.exp(2.0 * xs))
    d2 = derivative(f, order=2)
    # roundoff-limited: eps/h^2 ~ 1e-9 relative at this spacing
    np.testing.assert_allclose(d2.values.real, 4.0 * np.exp(2.0 * xs),
                               rtol=1e-7)


def test_derivative_non_uniform_grid():
    xs = np.sort(np.concatenate([np.linspace(0.0, 1.0, 800),
                                 np.linspace(0.3, 0.7, 400)]))
    xs = np.unique(xs)
    vals = np.sin(3.0 * xs)
    d = derivative_values(xs, vals, order=1, acc=4)
    np.testing.assert_allclose(d, 3.0 * np.cos(3.0 * xs), atol=1e-6)


def test_derivative_too_few_points():
    with pytest.raises(DegenerateGridError):
        derivative(GridFunction(np.linspace(0, 1, 4), np.zeros(4)))


def _derivative_reference(xs, values, order, acc):
    """derivative_values as it was before its stencils were cached: each one solved where used."""
    n = len(xs)
    w = _window_size(order, acc)
    h = np.diff(xs)
    uniform = bool(np.all(np.abs(h - h[0]) <= 1e-9 * abs(h[0])))
    out = np.empty(n, dtype=complex if np.iscomplexobj(values) else float)
    c = w // 2
    if not uniform:
        for i in range(n):
            start = min(max(i - c, 0), n - w)
            nodes = xs[start:start + w]
            out[i] = np.dot(fd_weights(xs[i], nodes, order), values[start:start + w])
        return out
    step = h[0]
    offsets = np.arange(w, dtype=float)
    centre = fd_weights(c, offsets, order) / step**order
    mid = np.zeros(n - w + 1, dtype=out.dtype)
    for j, sj in enumerate(centre):
        mid += sj * values[j:j + n - w + 1]
    out[c:c + n - w + 1] = mid
    for i in range(c):
        out[i] = np.dot(fd_weights(i, offsets, order) / step**order, values[:w])
        wj = fd_weights(w - 1 - i, offsets, order) / step**order
        out[n - 1 - i] = np.dot(wj, values[-w:])
    return out


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("acc", [1, 2, 4, 6])
def test_cached_stencils_equal_fresh_weights_and_are_read_only(order, acc):
    w = _window_size(order, acc)
    for i in range(w):
        cached = _unit_stencil(w, i, order)
        assert np.array_equal(cached, fd_weights(i, np.arange(w, dtype=float), order))
        assert _unit_stencil(w, i, order) is cached
        with pytest.raises(ValueError):
            cached[0] = 0.0


@given(st.integers(min_value=0, max_value=40), st.floats(-1e3, 1e3),
       st.floats(1e-3, 1e2), st.integers(1, 3), st.integers(1, 6),
       st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_derivative_values_equals_the_uncached_stencils_bit_for_bit(extra, a, length, order, acc,
                                                                   seed, complex_values, warped):
    n = _window_size(order, acc) + extra
    t = np.linspace(0.0, 1.0, n)
    xs = a + length * (t * t if warped else t)
    values = np.random.default_rng(seed).standard_normal((2, n))
    values = values[0] + 1j * values[1] if complex_values else values[0]
    got = derivative_values(xs, values, order, acc)
    want = _derivative_reference(xs, values, order, acc)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("xs, values", [
    # the a = 1e-300 box of paradox 3: weights of ~1e302 times samples of ~1e150
    (np.linspace(0.0, 1e-300, 101), 1e150 * np.sin(np.linspace(0.0, np.pi, 101))),
    (np.linspace(0.0, 1.0, 11), np.full(11, 1e308)),
    (np.linspace(0.0, 1.0, 11), np.r_[np.zeros(10), np.nan]),
    (np.linspace(0.0, 1.0, 11) ** 2, np.full(11, 1e308)),
])
def test_a_derivative_that_leaves_the_float_range_is_refused_without_warnings(xs, values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="float range"):
            derivative_values(xs, values)


# ---------------------------------------------------------------------------
# boundary form: momentum
# ---------------------------------------------------------------------------

def test_momentum_form_vanishing_endpoints():
    """xi(0)=xi(1)=0 makes the endpoint form vanish identically."""
    f = GridFunction.uniform(lambda x: np.sin(np.pi * x) * x * (1 - x), 0, 1, 501)
    assert boundary_form_momentum(f, f, Interval.finite(0, 1)) == 0.0


def test_momentum_form_growing_exponential():
    # -i[e^2 - 1] from direct endpoint arithmetic
    f = GridFunction.uniform(np.exp, 0.0, 1.0, 101)
    v = boundary_form_momentum(f, f, Interval.finite(0, 1))
    assert v == pytest.approx(-1j * (math.e**2 - 1.0), abs=1e-12)
    assert v == pytest.approx(-6.3890560989306495j, abs=1e-12)


def test_momentum_form_theta_domain_pair():
    theta = math.pi / 3.0
    xs = np.linspace(0.0, 1.0, 301)
    eta = GridFunction(xs, np.exp(1j * (2.0 * math.pi + theta) * xs))
    xi = GridFunction(xs, np.exp(1j * theta * xs))
    assert abs(boundary_form_momentum(xi, eta, Interval.finite(0, 1))) < 1e-12


@given(st.floats(min_value=0.0, max_value=2.0 * math.pi),
       st.integers(min_value=-2, max_value=2),
       st.integers(min_value=-2, max_value=2))
@settings(max_examples=80, deadline=None)
def test_momentum_form_vanishes_within_theta_domain(theta, n1, n2):
    """Any pair from the same twisted domain has vanishing form."""
    xs = np.linspace(0.0, 1.0, 64)
    rng = np.random.default_rng(7)
    c = rng.standard_normal(4)
    xi = GridFunction(xs, (1 + c[0]) * np.exp(1j * (2 * math.pi * n1 + theta) * xs)
                      + c[1] * np.exp(1j * (2 * math.pi * (n1 - 1) + theta) * xs))
    eta = GridFunction(xs, (1 + c[2]) * np.exp(1j * (2 * math.pi * n2 + theta) * xs)
                       + c[3] * np.exp(1j * (2 * math.pi * (n2 + 1) + theta) * xs))
    assert abs(boundary_form_momentum(xi, eta, Interval.finite(0, 1))) < 1e-10


def test_momentum_form_nonzero_across_different_theta():
    xs = np.linspace(0.0, 1.0, 64)
    xi = GridFunction(xs, np.exp(1j * 0.3 * xs))
    eta = GridFunction(xs, np.exp(1j * 1.1 * xs))
    assert abs(boundary_form_momentum(xi, eta, Interval.finite(0, 1))) > 0.1


def test_momentum_form_matches_quadrature():
    """delta_p = (xi, p eta) - (p xi, eta) up to discretization error."""
    xs = np.linspace(0.0, 1.0, 2001)
    xi = GridFunction(xs, np.exp((0.7 + 0.2j) * xs))
    eta = GridFunction(xs, np.cos(2.3 * xs) + 0.5j * xs)
    p_eta = eta.with_values(-1j * derivative_values(xs, eta.values))
    p_xi = xi.with_values(-1j * derivative_values(xs, xi.values))
    lhs = boundary_form_momentum(xi, eta, Interval.finite(0, 1))
    rhs = inner_product(xi, p_eta) - inner_product(p_xi, eta)
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_momentum_form_half_line_requires_decay():
    xs = np.linspace(0.0, 30.0, 901)
    ok = GridFunction(xs, np.exp(-xs))
    v = boundary_form_momentum(ok, ok, Interval.half_line(0.0))
    assert v == pytest.approx(1j, abs=1e-12)
    bad = GridFunction(xs, np.exp(0.2 * xs))
    with pytest.raises(UnsupportedBoundaryError):
        boundary_form_momentum(bad, bad, Interval.half_line(0.0))


# ---------------------------------------------------------------------------
# boundary form: Hamiltonian
# ---------------------------------------------------------------------------

def test_hamiltonian_form_dirichlet_neumann_zero():
    f = GridFunction.uniform(lambda x: x**2 * np.exp(-x), 0.0, 20.0, 2001)
    assert abs(boundary_form_hamiltonian(f, f)) < 1e-9


def test_hamiltonian_form_robin_real_alpha():
    """A real Robin pair gives conj(alpha) - alpha = 0."""
    xs = np.linspace(0.0, 20.0, 4001)
    f = GridFunction(xs, np.exp(-xs))
    assert abs(boundary_form_hamiltonian(f, f)) < 1e-9


def test_hamiltonian_form_two_exponentials():
    # xi = e^{-x}, eta = e^{-2x}: 1*(-2) - (-1)*1 = -1
    xs = np.linspace(0.0, 10.0, 4001)
    xi = GridFunction(xs, np.exp(-xs))
    eta = GridFunction(xs, np.exp(-2.0 * xs))
    assert boundary_form_hamiltonian(xi, eta) == pytest.approx(-1.0, abs=1e-6)


@pytest.mark.parametrize("form", [lambda f, g: boundary_form_momentum(f, g, Interval.finite(0, 1)),
                                  boundary_form_hamiltonian])
def test_boundary_forms_refuse_a_stack_by_name(form):
    # numpy's own errors were a TypeError (momentum) and a shapes error (hamiltonian)
    xs = np.linspace(0.0, 1.0, 11)
    stack, single = GridFunction(xs, np.ones((2, 11))), GridFunction(xs, np.ones(11))
    for xi, eta in ((stack, stack), (stack, single), (single, stack)):
        with pytest.raises(ValueError, match="not a stack"):
            form(xi, eta)


def test_hamiltonian_form_needs_five_points():
    f = GridFunction(np.linspace(0, 1, 4), np.ones(4))
    with pytest.raises(DegenerateGridError):
        boundary_form_hamiltonian(f, f)


@given(st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=50, deadline=None)
def test_hamiltonian_form_vanishes_for_shared_robin_condition(alpha, c2, c3):
    """Random tail-decaying profiles with f'(0) = alpha f(0) annihilate delta_H."""
    xs = np.linspace(0.0, 12.0, 6001)
    def profile(c):
        return np.exp(alpha * xs) * (1.0 + c * xs**2) * np.exp(-xs**2)
    f = GridFunction(xs, profile(c2))
    g = GridFunction(xs, profile(c3))
    assert abs(boundary_form_hamiltonian(f, g)) < 1e-6


def test_norm_helper():
    f = GridFunction.uniform(lambda x: 2.0 * np.ones_like(x), 0.0, 1.0, 101)
    assert norm(f) == pytest.approx(2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# stacks: several functions on one grid
# ---------------------------------------------------------------------------

@st.composite
def _stacks(draw):
    """A grid, uniform or not, and two stacks of real or complex rows on it.

    A fifth of the samples are 0.0 and a fifth -0.0, and a row may be all
    -0.0, so that a sign of zero lost by the stacked path shows.
    """
    order, acc = draw(st.sampled_from([(1, 2), (1, 4), (2, 2), (2, 4)]))
    n = _window_size(order, acc) + draw(st.integers(0, 30))
    rows = draw(st.integers(1, 5))
    t = np.linspace(0.0, 1.0, n)
    xs = 0.5 + draw(st.floats(1e-2, 1e2)) * (t * t if draw(st.booleans()) else t)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = rng.standard_normal((2, 2, rows, n))
    pick = rng.random(parts.shape)
    parts[pick < 0.4] = -0.0
    parts[pick < 0.2] = 0.0
    if draw(st.booleans()):
        parts[:, :, 0] = -0.0
    if draw(st.booleans()):
        stacks = parts[:, 0]
    else:
        stacks = np.empty((2, rows, n), dtype=complex)
        stacks.real, stacks.imag = parts[:, 0], parts[:, 1]
    return xs, stacks[0], stacks[1], order, acc


def _bits(values):
    return np.asarray(values).tobytes()


@given(_stacks(), st.sampled_from(["1", "r", "r^2"]))
@settings(max_examples=150, deadline=None)
def test_a_stack_gets_the_bits_of_each_row_alone(data, weight):
    xs, u, v, order, acc = data
    stacked = derivative_values(xs, u, order, acc)
    alone = [derivative_values(xs, row, order, acc) for row in u]
    assert stacked.dtype == alone[0].dtype
    assert _bits(stacked) == _bits(alone)
    f, g = GridFunction(xs, u, weight), GridFunction(xs, v, weight)
    rows = [(GridFunction(xs, a, weight), GridFunction(xs, b, weight)) for a, b in zip(u, v)]
    assert _bits(inner_product(f, g)) == _bits([inner_product(a, b) for a, b in rows])
    assert _bits(norm(f)) == _bits([norm(a) for a, _ in rows])
    df = derivative(f, order, acc)
    assert (df.weight, _bits(df.xs)) == (weight, _bits(xs))
    assert _bits(df.values) == _bits([derivative(a, order, acc).values for a, _ in rows])


def test_one_function_keeps_its_python_types():
    f = GridFunction.uniform(lambda x: np.exp(1j * x), 0.0, 1.0, 11)
    assert type(inner_product(f, f)) is complex
    assert type(norm(f)) is float
    assert derivative_values(f.xs, f.values).shape == (11,)
    stack = GridFunction(f.xs, [f.values, 2 * f.values])
    assert inner_product(stack, stack).shape == norm(stack).shape == (2,)


def test_values_not_one_or_a_stack_of_functions_on_the_grid_are_refused():
    xs = np.linspace(0.0, 1.0, 11)
    for values in (np.zeros((2, 2, 11)), np.zeros((2, 10)), np.zeros(12)):
        with pytest.raises(ValueError):
            GridFunction(xs, values)
        with pytest.raises(ValueError):
            derivative_values(xs, values)
