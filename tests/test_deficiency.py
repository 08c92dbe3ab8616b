import argparse
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from saext import cli
from saext.core import GridFunction, Interval, OperatorSpec, norm, quadrature_weights
from saext.deficiency import (
    ESSENTIALLY_SELF_ADJOINT,
    HAS_EXTENSIONS,
    NO_EXTENSIONS,
    DeficiencyReport,
    DeficiencySolution,
    classify,
    solve_deficiency,
    verify_deficiency_numerically,
)
from saext.errors import DegenerateGridError

MOMENTUM_01 = OperatorSpec.momentum(Interval.finite(0.0, 1.0))
MOMENTUM_HALF = OperatorSpec.momentum(Interval.half_line(0.0))
MOMENTUM_LINE = OperatorSpec.momentum(Interval.full_line())
HAMILTONIAN = OperatorSpec.free_hamiltonian()
TIME_OP = OperatorSpec.time_operator(e0=0.0)


# ---------------------------------------------------------------------------
# catalog indices
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("op,expected", [
    (MOMENTUM_01, (1, 1)),
    (MOMENTUM_HALF, (1, 0)),
    (MOMENTUM_LINE, (0, 0)),
    (HAMILTONIAN, (1, 1)),
    (TIME_OP, (1, 0)),
])
def test_catalog_indices(op, expected):
    r = solve_deficiency(op)
    assert (r.n_plus, r.n_minus) == expected


def test_momentum_finite_basis_shapes():
    """psi+ ~ e^{-x}, psi- ~ e^{x}, with the exact normalization constants."""
    r = solve_deficiency(MOMENTUM_01)
    plus, minus = r.basis_plus[0], r.basis_minus[0]
    assert plus.tag == "exp(-x)"
    assert minus.tag == "exp(x)"
    c_plus = math.sqrt(2.0) * math.e / math.sqrt(math.e**2 - 1.0)
    c_minus = math.sqrt(2.0) / math.sqrt(math.e**2 - 1.0)
    assert plus.fn.values[0].real == pytest.approx(c_plus, abs=1e-14)
    assert minus.fn.values[0].real == pytest.approx(c_minus, abs=1e-14)
    # e^{-x} shape: value at 1 is value at 0 over e
    assert plus.fn.values[-1].real == pytest.approx(c_plus / math.e, abs=1e-13)
    assert norm(plus.fn) == pytest.approx(1.0, abs=1e-9)
    assert norm(minus.fn) == pytest.approx(1.0, abs=1e-9)


def test_hamiltonian_basis_shapes():
    r = solve_deficiency(HAMILTONIAN)
    plus = r.basis_plus[0]
    assert plus.fn.values[0] == pytest.approx(2.0**0.25, abs=1e-14)
    x = 1.3
    expected = 2.0**0.25 * np.exp((1j - 1.0) * x / math.sqrt(2.0))
    assert complex(plus.closed_form(np.array([x]))[0]) == pytest.approx(expected, abs=1e-14)
    minus = r.basis_minus[0]
    np.testing.assert_allclose(minus.fn.values, np.conj(plus.fn.values), atol=1e-15)
    assert norm(plus.fn) == pytest.approx(1.0, abs=1e-8)


def test_hamiltonian_default_basis_keeps_its_bits():
    # the left end enters as x - a; at a = 0 the samples keep their bits
    r = solve_deficiency(HAMILTONIAN, n=501)
    for sol in r.basis():
        xs = sol.fn.xs
        assert xs[0] == 0.0
        assert np.array_equal(sol.fn.values, 2.0**0.25 * np.exp(sol.rate * xs))


def test_hamiltonian_basis_starts_at_the_left_end():
    iv = Interval.half_line(2.0)
    shifted = solve_deficiency(OperatorSpec.free_hamiltonian(iv), lam=2.0)
    origin = solve_deficiency(HAMILTONIAN, lam=2.0)
    for sol, ref in zip(shifted.basis(), origin.basis()):
        assert sol.interval == iv
        assert sol.fn.xs[0] == 2.0
        assert sol.closed_form(2.0) == ref.closed_form(0.0)
        np.testing.assert_allclose(sol.fn.values, ref.fn.values, rtol=0.0, atol=1e-13)
        assert norm(sol.fn) == pytest.approx(1.0, abs=1e-8)


def _tag_function(tag):
    """The function a free-Hamiltonian tag names, e.g. 2^(1/4)*exp((+i-1)(x-2.0)/sqrt2)."""
    text = tag.replace("^", "**").replace("exp", "np.exp").replace("sqrt2", "math.sqrt(2)")
    text = text.replace("+i", "+1j").replace("-i", "-1j")
    text = text.replace(")(", ")*(").replace(")x", ")*x")
    return lambda x: eval(text, {"np": np, "math": math, "x": x})


@pytest.mark.parametrize("a, lam", [(0.0, 1.0), (2.0, 1.0), (2.0, 4.0), (-1.5, 0.25),
                                    (0.0, 0.5)])
def test_hamiltonian_tag_names_the_sampled_function(a, lam):
    # the tag states its normalisation constant, so the exponent must carry
    # the left end: on [2, inf) it reads (x-2.0); its numbers are printed in
    # full, so at lam = 0.5 the tag is the sampled function to rounding
    iv = Interval.half_line(a)
    xs = np.linspace(a, a + 10.0, 101)
    for sol in solve_deficiency(OperatorSpec.free_hamiltonian(iv), lam=lam).basis():
        assert ("(x" in sol.tag) == (a != 0.0)
        np.testing.assert_allclose(_tag_function(sol.tag)(xs), sol.closed_form(xs),
                                   rtol=1e-13, atol=0.0)


def test_classifications():
    assert solve_deficiency(MOMENTUM_LINE).classification == ESSENTIALLY_SELF_ADJOINT
    r = solve_deficiency(MOMENTUM_01)
    assert r.classification == HAS_EXTENSIONS
    assert r.param_dim == 1
    assert solve_deficiency(MOMENTUM_HALF).classification == NO_EXTENSIONS
    assert solve_deficiency(TIME_OP).classification == NO_EXTENSIONS


def test_lambda_must_be_positive():
    with pytest.raises(ValueError):
        solve_deficiency(MOMENTUM_01, lam=0.0)


@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5))
def test_classify_total_and_consistent(n_plus, n_minus):
    kind, dim = classify(n_plus, n_minus)
    if n_plus == n_minus == 0:
        assert kind == ESSENTIALLY_SELF_ADJOINT and dim is None
    elif n_plus == n_minus:
        assert kind == HAS_EXTENSIONS and dim == n_plus**2
    else:
        assert kind == NO_EXTENSIONS and dim is None


def test_lambda_scaling_of_momentum_basis():
    """Basis functions at scale lam are x -> e^{-+ lam x} shapes."""
    lam = 2.5
    r = solve_deficiency(MOMENTUM_01, lam=lam)
    xs = np.array([0.0, 0.4, 1.0])
    plus = r.basis_plus[0].closed_form(xs)
    np.testing.assert_allclose(plus / plus[0], np.exp(-lam * xs), atol=1e-14)
    minus = r.basis_minus[0].closed_form(xs)
    np.testing.assert_allclose(minus / minus[0], np.exp(lam * xs), atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.floats(-300.0, 0.0))
@example(-300.0)
@example(-12.0)
def test_momentum_basis_keeps_unit_norm_for_small_lambda(exponent):
    # e^{2 lam} - 1 cancels for small lam: at lam = 1e-12 the norm was off
    # by 1.1e-5, and at lam = 1e-300 the constant divided by zero
    r = solve_deficiency(MOMENTUM_01, lam=10.0**exponent)
    for sol in (r.basis_plus[0], r.basis_minus[0]):
        assert abs(norm(sol.fn) - 1.0) <= 1e-14


@pytest.mark.parametrize("length", [355.0, 400.0, 700.0])
def test_growing_momentum_solution_past_the_range_of_its_norms_expm1(length):
    # from 2L = 709.8 on, e^{2L} - 1 overflows while the constant
    # sqrt(2/(e^{2L} - 1)) and the samples do not: [0, 400] ended in
    # OverflowError, "math range error".  At x = L the solution is
    # sqrt(2/(1 - e^{-2L})), which is sqrt(2) in floats for these L
    r = solve_deficiency(OperatorSpec.momentum(Interval.finite(0.0, length)))
    at_end = r.basis_minus[0].closed_form(np.array([length]))[0]
    assert at_end.real == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert np.all(np.isfinite(r.basis_minus[0].fn.values))


# ---------------------------------------------------------------------------
# tail integrability
# ---------------------------------------------------------------------------

def tail_integrability(f, cutoffs, interval=None, points_per_unit=200.0):
    """Do the partial norms int_a^X |f|^2 stabilize along the cutoff schedule?

    True iff the relative increment between the last two cutoffs is below
    1e-8; a finite-interval function trivially stabilizes once the cutoffs
    pass the right endpoint.  ``f`` is a catalog solution (which carries its
    closed form and interval) or a bare callable with ``interval`` supplied.
    A partial-norm probe, independent of the closed forms' own L2 verdict.
    """
    if len(cutoffs) < 3:
        raise ValueError("need at least 3 cutoffs")
    if any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise ValueError("cutoffs must be strictly increasing")
    if isinstance(f, DeficiencySolution):
        closed_form, iv = f.closed_form, f.interval
    else:
        closed_form, iv = f, interval or Interval.half_line(0.0)
    a = iv.a if math.isfinite(iv.a) else 0.0
    norms = []
    for cutoff in cutoffs:
        upper = min(cutoff, iv.b) if math.isfinite(iv.b) else cutoff
        if upper <= a:
            norms.append(0.0)
            continue
        npts = max(int((upper - a) * points_per_unit), 100) // 2 * 2 + 1
        xs = np.linspace(a, upper, npts)
        vals = np.asarray(closed_form(xs))
        norms.append(float(np.dot(quadrature_weights(xs), np.abs(vals) ** 2)))
    last, prev = norms[-1], norms[-2]
    if last == 0.0:
        return True
    return (last - prev) / last < 1e-8


def test_tail_decaying_exponential():
    sol = solve_deficiency(MOMENTUM_HALF).basis_plus[0]
    assert tail_integrability(sol, [10.0, 20.0, 40.0]) is True


def test_tail_growing_exponential_rejected():
    assert tail_integrability(lambda x: np.exp(x), [10.0, 20.0, 40.0],
                              interval=Interval.half_line(0.0)) is False


def test_tail_finite_interval_growing_is_fine():
    # on [0,1] the norm is a fixed finite integral however the cutoffs grow
    assert tail_integrability(lambda x: np.exp(x), [10.0, 20.0, 40.0],
                              interval=Interval.finite(0.0, 1.0)) is True


def test_tail_schedule_validation():
    with pytest.raises(ValueError):
        tail_integrability(lambda x: np.exp(-x), [10.0, 20.0],
                           interval=Interval.half_line(0.0))
    with pytest.raises(ValueError):
        tail_integrability(lambda x: np.exp(-x), [10.0, 10.0, 40.0],
                           interval=Interval.half_line(0.0))


@pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
def test_tail_verdicts_lambda_independent(lam):
    r = solve_deficiency(MOMENTUM_01, lam=lam)
    for sol in r.basis():
        assert tail_integrability(sol, [10.0, 20.0, 40.0]) is True


def test_every_catalog_basis_function_is_tail_integrable():
    for op in (MOMENTUM_01, MOMENTUM_HALF, HAMILTONIAN, TIME_OP):
        for sol in solve_deficiency(op).basis():
            assert tail_integrability(sol, [10.0, 20.0, 40.0]) is True


# ---------------------------------------------------------------------------
# residual verification
# ---------------------------------------------------------------------------

def test_residual_momentum_finite():
    r = solve_deficiency(MOMENTUM_01)
    assert verify_deficiency_numerically(MOMENTUM_01, r) <= 1e-6


def test_residual_hamiltonian():
    r = solve_deficiency(HAMILTONIAN)
    assert verify_deficiency_numerically(HAMILTONIAN, r) <= 1e-4


def test_residual_all_catalog_under_acceptance_threshold():
    for op in (MOMENTUM_01, MOMENTUM_HALF, MOMENTUM_LINE, HAMILTONIAN, TIME_OP):
        r = solve_deficiency(op)
        assert verify_deficiency_numerically(op, r) <= 1e-4


def test_residual_flags_corrupted_basis():
    """Replacing psi+ by e^{-2x} leaves an O(1) residual (2i-i)e^{-2x}."""
    r = solve_deficiency(MOMENTUM_01)
    xs = r.basis_plus[0].fn.xs
    fake = DeficiencySolution(
        "exp(-2x)",
        GridFunction(xs, np.exp(-2.0 * xs)),
        lambda x: np.exp(-2.0 * np.asarray(x)),
        Interval.finite(0.0, 1.0),
        -2.0,
    )
    corrupted = DeficiencyReport(1, 1, 1.0, (fake,), r.basis_minus,
                                 r.classification, r.param_dim)
    assert verify_deficiency_numerically(MOMENTUM_01, corrupted) > 0.5


@pytest.mark.parametrize("op", [MOMENTUM_01, MOMENTUM_HALF, HAMILTONIAN, TIME_OP])
def test_residual_check_refuses_a_grid_with_no_interior(op):
    # the check judges resid[3:-3], which is empty below 7 samples
    with pytest.raises(DegenerateGridError, match="at least 7 grid points, got 6"):
        verify_deficiency_numerically(op, solve_deficiency(op, n=6))
    assert verify_deficiency_numerically(op, solve_deficiency(op, n=7)) > 0
    # the full line has no basis, so there is nothing to check on any grid
    assert verify_deficiency_numerically(MOMENTUM_LINE, solve_deficiency(MOMENTUM_LINE, n=3)) == 0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_report_json_shape():
    # the CLI's deficiency result is the JSON form of a report
    args = argparse.Namespace(op="momentum", interval=MOMENTUM_01.interval, lam=1.0, grid_n=501)
    d = cli._run_deficiency(args)
    report = solve_deficiency(MOMENTUM_01, n=501)
    assert d["n_plus"] == 1 and d["n_minus"] == 1
    assert d["lambda"] == 1.0
    assert d["classification"] == HAS_EXTENSIONS
    assert len(d["basis"]) == 2
    assert d["basis"] == [sol.tag for sol in report.basis()]
    assert len(report.basis()[0].fn.xs) == 501
