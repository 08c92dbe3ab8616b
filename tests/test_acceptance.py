"""End-to-end acceptance checks.

Each test prints one ``[PASS]``/``[FAIL]`` verdict line (visible under
``pytest -s``) and asserts the same condition, so the suite doubles as a
human-readable scorecard for the headline results.
"""

import contextlib
import io
import json
import math
from fractions import Fraction

import jsonschema
import numpy as np
import pytest

from saext import cli
from saext.anomaly import anomaly_quadrature, heisenberg_correction
from saext.classical import (
    MonomialObservable,
    PowerLawPotential,
    dilatation_drift_report,
    poisson_bracket,
)
from saext.core import GridFunction, Interval, OperatorSpec, inner_product
from saext.deficiency import solve_deficiency, verify_deficiency_numerically
from saext.discrete import (
    cosine_basis_momentum_matrix,
    eigenvector_commutator_demo,
    trace_commutator_check,
)
from saext.extension import halfline_bc_from_unitary, momentum_bc_from_unitary
from saext.geometry import commutator_preservation_check, radial_symmetry_defect
from saext.spectral import (
    bound_state,
    bound_state_shooting,
    discretized_momentum_eigs,
    momentum_spectrum,
    reflection_coefficient,
    well_spectrum,
)
from test_spectral import _dirichlet_fd_eigenvalues


def report(ok: bool, label: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def smooth_bump(xs, center, width):
    u = (xs - center) / width
    out = np.zeros_like(xs, dtype=complex)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


# -- 01: deficiency catalog -------------------------------------------------

def test_deficiency_catalog():
    catalog = [
        (OperatorSpec.momentum(Interval.finite(0.0, 1.0)), 1, 1),
        (OperatorSpec.momentum(Interval.half_line()), 1, 0),
        (OperatorSpec.momentum(Interval.full_line()), 0, 0),
        (OperatorSpec.free_hamiltonian(), 1, 1),
        (OperatorSpec.time_operator(), 1, 0),
    ]
    ok = True
    worst = 0.0
    for spec, n_plus, n_minus in catalog:
        rep = solve_deficiency(spec, n=10_001)
        ok &= (rep.n_plus, rep.n_minus) == (n_plus, n_minus)
        worst = max(worst, verify_deficiency_numerically(spec, rep))
    ok &= worst <= 1e-4
    report(ok, "01 deficiency catalog exact; adjoint residual "
               f"{worst:.2e} <= 1e-4 on 1e4-point grids")


# -- 02: extension maps -----------------------------------------------------

def test_extension_maps():
    e = math.e
    c_plus = math.sqrt(2.0) * e / math.sqrt(e * e - 1.0)
    c_minus = math.sqrt(2.0) / math.sqrt(e * e - 1.0)
    gammas = np.linspace(0.0, math.tau, 10_000, endpoint=False)
    mod_dev = 0.0
    theta_dev = 0.0
    id_dev = 0.0
    for g in gammas:
        beta = complex(math.cos(g), math.sin(g))
        ratio = (c_plus / e + beta * c_minus * e) / (c_plus + beta * c_minus)
        mod_dev = max(mod_dev, abs(abs(ratio) - 1.0))
        theta = momentum_bc_from_unitary(g).value
        theta_dev = max(theta_dev, abs(complex(math.cos(theta), math.sin(theta)) - ratio))
        alpha = halfline_bc_from_unitary(g).value
        if math.isinf(alpha):
            continue
        half = 0.5 * g
        lhs = alpha * alpha * 2.0 * math.cos(half) ** 2
        rhs = (math.sin(half) - math.cos(half)) ** 2
        id_dev = max(id_dev, abs(lhs - rhs))
    ok = mod_dev <= 1e-12 and theta_dev <= 1e-12 and id_dev <= 1e-10
    report(ok, f"02 extension maps over 1e4 gammas: |ratio|-1 {mod_dev:.2e} "
               f"<= 1e-12, |e^(i theta) - ratio| {theta_dev:.2e} <= 1e-12, "
               f"modulus identity {id_dev:.2e} <= 1e-10")


# -- 03: momentum spectrum --------------------------------------------------

def _lowest_modes(theta: float, count: int):
    ps = sorted(((abs(math.tau * n + theta), math.tau * n + theta)
                 for n in range(-6, 7)))
    return [p for _, p in ps[:count]]


def test_momentum_spectrum_discretization():
    ok = True
    for theta in (0.0, math.pi / 3.0, math.pi):
        res = momentum_spectrum(theta, Interval.finite(0.0, 1.0), range(-3, 4))
        for n, value in zip(res.discrete.n, res.discrete.values.tolist()):
            ok &= value == (math.tau * n + theta)
        eigs = discretized_momentum_eigs(theta, 4096, count=16)
        for p in _lowest_modes(theta, 3):
            err = min(abs(lam - p) for lam in eigs)
            rel = err if abs(p) < 1e-12 else err / abs(p)
            ok &= rel <= 1e-2
    p_ref = math.pi / 3.0
    errs = [min(abs(lam - p_ref) for lam in
                discretized_momentum_eigs(math.pi / 3.0, n, count=16))
            for n in (4096, 8192)]
    ratio = errs[0] / errs[1]
    ok &= 1.7 <= ratio <= 2.3
    report(ok, "03 momentum levels 2*pi*n+theta exact; N=4096 matches 3 "
               f"lowest modes <= 1e-2 rel; error ratio {ratio:.2f} in 2.0+-0.3")


# -- 04: bound state --------------------------------------------------------

def robin_grid_ground_energy(alpha, h):
    """Lowest eigenvalue of the three-point -d^2/dx^2 with psi'(0) = alpha psi(0).

    The Robin condition enters through a ghost point, psi_-1 = psi_1 -
    2 h alpha psi_0, and scaling psi_0 by sqrt(2) makes the matrix
    symmetric; the grid ends with psi = 0 at x = 30/|alpha|.
    """
    from scipy.linalg import eigh_tridiagonal

    n = int(round(30.0 / (abs(alpha) * h)))
    diag = np.full(n, 2.0 / h**2)
    diag[0] += 2.0 * alpha / h
    off = np.full(n - 1, -1.0 / h**2)
    off[0] *= math.sqrt(2.0)
    return float(eigh_tridiagonal(diag, off, select="i", select_range=(0, 0),
                                  eigvals_only=True)[0])


def test_bound_state_family():
    ok = True
    grid_worst, ratios, shoot_worst = 0.0, [], 0.0
    for a in (-0.25, -0.5, -1.0, -2.0, -3.0):
        errs = [(robin_grid_ground_energy(a, c / abs(a)) + a * a) / (a * a)
                for c in (0.02, 0.01)]
        grid_worst = max(grid_worst, abs(errs[1]))
        ratios.append(errs[0] / errs[1])
        e = bound_state_shooting(a, (-1.5 * a * a, -0.5 * a * a))
        shoot_worst = max(shoot_worst, abs(e + a * a))
    ok &= grid_worst <= 5e-5 and all(3.7 <= r <= 4.3 for r in ratios)
    ok &= shoot_worst <= 1e-6
    rng = np.random.default_rng(20240817)
    alphas = np.concatenate([[0.0], rng.uniform(0.0, 50.0, 99)])
    ok &= all(bound_state(float(a)) is None for a in alphas)
    report(ok, f"04 Robin grid ground state within {grid_worst:.2e} <= 5e-5 rel "
               f"of -alpha^2 at h|alpha| = 0.01, error ratio "
               f"{min(ratios):.2f}..{max(ratios):.2f} in 4.0+-0.3; shooting root "
               f"within {shoot_worst:.2e} <= 1e-6; "
               "no bound state for 100 random alpha >= 0")


# -- 05: scattering unitarity -----------------------------------------------

def test_scattering_unitarity():
    rng = np.random.default_rng(777)
    ks = rng.uniform(1e-3, 50.0, 1000)
    alphas = rng.uniform(-50.0, 50.0, 1000)
    worst = max(abs(abs(reflection_coefficient(float(k), float(a))) - 1.0)
                for k, a in zip(ks, alphas))
    ok = worst <= 1e-14
    for k in (0.5, 1.0, 7.0):
        ok &= reflection_coefficient(k, 0.0) == complex(1.0, 0.0)
        ok &= reflection_coefficient(k, math.inf) == complex(-1.0, 0.0)
    report(ok, f"05 |R|-1 worst {worst:.2e} <= 1e-14 over 1000 random (k,alpha); "
               "Neumann R=1 and Dirichlet R=-1 exact")


# -- 06: anomaly identity ---------------------------------------------------

def test_anomaly_identity():
    worst = max(anomaly_quadrature(a).residual
                for a in (-0.25, -0.5, -1.0, -2.0, -4.0))
    ok = worst <= 1e-6
    t_spread = 0.0
    for a in (-0.5, -2.0):
        vals = [anomaly_quadrature(a, t=t).anomaly for t in (0.0, 3.7, 7.3)]
        t_spread = max(t_spread, max(vals) - min(vals))
    ok &= t_spread <= 1e-10
    rng = np.random.default_rng(31)
    xs = np.linspace(0.0, 6.0, 6001)
    bump_worst = 0.0
    for _ in range(20):
        center = rng.uniform(1.2, 4.8)
        width = rng.uniform(0.3, 0.9)
        psi = GridFunction(xs, smooth_bump(xs, center, width))
        bump_worst = max(bump_worst, abs(heisenberg_correction(psi, -1.0)))
    ok &= bump_worst <= 1e-8
    report(ok, f"06 anomaly |A+alpha^2| {worst:.2e} <= 1e-6; t-spread "
               f"{t_spread:.2e} <= 1e-10; 20 interior bumps {bump_worst:.2e} "
               "<= 1e-8")


# -- 07: operator paradoxes -------------------------------------------------

def test_operator_paradoxes():
    ok = True
    for n in (8, 64):
        rep = trace_commutator_check(n, trials=100, seed=5)
        ok &= rep.quantities["max_scaled_trace"].value <= 1e-10
        ok &= rep.quantities["naive_canonical_trace"].value == complex(0.0, n)
    for l in (1.0, 2.0, 4.0):
        defect = cosine_basis_momentum_matrix(l, 12).defect
        for m in range(12):
            for n in range(12):
                d = defect[m, n]
                if (m + n) % 2 == 0:  # basis labels m+1, n+1: same parity sum
                    ok &= abs(d) <= 1e-12
                else:
                    ok &= abs(abs(d) - 4.0 / l) <= 1e-10
    rep = eigenvector_commutator_demo(0.0, 2048, mode=1)
    expectation = rep.quantities["eigenvector_expectation"].value
    ok &= abs(expectation) <= 1e-8
    ok &= rep.quantities["canonical_target"].value == 1j
    report(ok, "07 Tr[X,P] <= 1e-10 for 100 pairs at N in {8,64}; cosine "
               "defect 0 / 4/l pattern to 1e-12 / 1e-10; eigenvector "
               f"expectation {abs(expectation):.2e} <= 1e-8 against target i")


# -- 08: well spectrum ------------------------------------------------------

def test_well_spectrum_convergence():
    ok = True
    orders = []
    for level in (1, 2, 3):
        errs = []
        for n_grid in (400, 800):
            eig = _dirichlet_fd_eigenvalues(1.0, n_grid, level)[level - 1]
            errs.append(abs(eig - (level * math.pi) ** 2))
        orders.append(math.log2(errs[0] / errs[1]))
    ok &= all(1.8 <= order <= 2.2 for order in orders)
    xs = np.linspace(0.0, 1.0, 2001)
    modes = [GridFunction(xs, row)
             for row in well_spectrum(1.0, range(1, 6)).discrete.eigenfunctions(xs)]
    gram_dev = 0.0
    for i, fi in enumerate(modes):
        for j, fj in enumerate(modes):
            g = inner_product(fi, fj)
            gram_dev = max(gram_dev, abs(g - (1.0 if i == j else 0.0)))
    ok &= gram_dev <= 1e-10
    report(ok, f"08 FD well eigenvalues converge at order {min(orders):.2f}-"
               f"{max(orders):.2f} in 2.0+-0.2; sine modes orthonormal "
               f"to {gram_dev:.2e} <= 1e-10")


# -- 09: classical dilatation -----------------------------------------------

def _random_observable(rng) -> MonomialObservable:
    terms = []
    for _ in range(rng.integers(1, 4)):
        coeff = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
        terms.append((coeff, int(rng.integers(-3, 4)),
                      int(rng.integers(0, 4)), int(rng.integers(0, 3))))
    return MonomialObservable(tuple(terms))


def test_classical_dilatation():
    rep = dilatation_drift_report(
        PowerLawPotential(1.0, -2), (1.0, 0.25), 5.0, tol=1e-10)
    ok = rep.max_drift <= 1e-7
    rel_worst = 0.0
    for s in (-3, -1, 0, 1, 2):
        r = dilatation_drift_report(
            PowerLawPotential(1.0, s), (1.0, 0.25), 5.0, tol=1e-10)
        rel_worst = max(rel_worst, r.max_deviation / r.predicted_drift)
    ok &= rel_worst <= 1e-5
    rng = np.random.default_rng(6021)
    zero = MonomialObservable.zero()
    laws_hold = True
    for _ in range(1000):
        f, g, h = (_random_observable(rng) for _ in range(3))
        laws_hold &= poisson_bracket(f, g) == -poisson_bracket(g, f)
        jacobi = (poisson_bracket(f, poisson_bracket(g, h))
                  + poisson_bracket(g, poisson_bracket(h, f))
                  + poisson_bracket(h, poisson_bracket(f, g)))
        laws_hold &= jacobi == zero
        leibniz = poisson_bracket(f, g * h)
        laws_hold &= leibniz == poisson_bracket(f, g) * h + g * poisson_bracket(f, h)
    ok &= laws_hold
    report(ok, f"09 dilatation drift {rep.max_drift:.2e} <= 1e-7 for s=-2; "
               f"drift prediction within {rel_worst:.2e} <= 1e-5 rel for "
               "s in {-3,-1,0,1,2}; Poisson laws exact on 1000 random triples")


# -- 10: radial geometry ----------------------------------------------------

def test_radial_geometry():
    def half_over_r(r):
        with np.errstate(divide="ignore"):
            return 0.5 / r

    rng = np.random.default_rng(90210)
    xs = np.linspace(0.05, 6.0, 4001)
    defect_worst = 0.0
    zero_worst = 0.0
    for i in range(50):
        c1, c2 = rng.uniform(1.2, 4.5, 2)
        w1, w2 = rng.uniform(0.4, 1.0, 2)
        f = GridFunction(xs, smooth_bump(xs, c1, w1), weight="r")
        g = GridFunction(xs, smooth_bump(xs, c2, w2), weight="r")
        defect_worst = max(defect_worst,
                           abs(radial_symmetry_defect(half_over_r, f, g)))
        if i < 10:
            d0 = radial_symmetry_defect(lambda r: np.zeros_like(r), f, g)
            overlap = inner_product(GridFunction(xs, f.values),
                                    GridFunction(xs, g.values))
            zero_worst = max(zero_worst, abs(d0 - 1j * overlap))
    ok = defect_worst <= 1e-8 and zero_worst <= 1e-6
    probe = GridFunction(xs, smooth_bump(xs, 2.5, 0.8), weight="r")
    comm_worst = 0.0
    profiles = [half_over_r, lambda r: np.zeros_like(r),
                lambda r: 3.0 * np.sin(r) + 2.0, lambda r: 0.2 * r ** 2]
    for _ in range(5):
        coeffs = rng.uniform(-2.0, 2.0, 3)
        profiles.append(lambda r, c=coeffs: c[0] + c[1] * r + c[2] * r * r)
    for omega in profiles:
        comm_worst = max(comm_worst,
                         commutator_preservation_check(omega, probe))
    ok &= comm_worst <= 1e-6
    report(ok, f"10 radial defect {defect_worst:.2e} <= 1e-8 on 50 bump pairs "
               f"with omega=1/(2r); omega=0 overlap match {zero_worst:.2e} "
               f"<= 1e-6; commutator preserved to {comm_worst:.2e} <= 1e-6")


# -- 11: CLI determinism ----------------------------------------------------

#: Golden-run suite: one representative invocation per subcommand.  The
#: other test modules import it as GOLDEN; perfbench/inputs.py builds the
#: same argv shapes, and its tests read this literal.
_GOLDEN = {
    "deficiency": ["deficiency", "--op", "momentum", "--interval", "0,1"],
    "extend": ["extend", "--operator", "hamiltonian", "--gamma", "1.0"],
    "spectrum": ["spectrum", "--op", "robin", "--alpha", "-1"],
    "boundstate": ["boundstate", "--alpha", "-1"],
    "scatter": ["scatter", "--k", "2", "--alpha", "inf"],
    "anomaly": ["anomaly", "--alpha", "-2"],
    "paradox": ["paradox", "--id", "2", "--n", "8", "--seed", "7"],
    "classical": ["classical", "--s", "-2"],
    "geometry": ["geometry", "--metric", "polar", "--probe", "bump:1,2"],
    "sweep": ["sweep", "scatter", "--alpha", "-1", "--sweep", "k=0.5:2:4"],
}


def _cli_run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_cli_determinism_golden_suite():
    ok = True
    for name, argv in _GOLDEN.items():
        code1, text1 = _cli_run(argv)
        code2, text2 = _cli_run(argv)
        ok &= code1 == 0 and code2 == 0
        p1, p2 = json.loads(text1), json.loads(text2)
        jsonschema.validate(p1, cli.load_schema(name))
        p1["manifest"].pop("wall_time_s")
        p2["manifest"].pop("wall_time_s")
        ok &= json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)
    report(ok, "11 CLI golden suite byte-identical modulo wall time and "
               "schema-valid for all 10 subcommands")
