"""Tour of the extension machinery: count the deficiency indices of the
standard 1D operators, then walk the unitary parameter through the
boundary conditions it generates.

Run:  python demos/extension_tour.py
"""

import numpy as np

from saext import (
    Interval,
    OperatorSpec,
    halfline_bc_from_unitary,
    momentum_bc_from_unitary,
    momentum_spectrum,
    solve_deficiency,
    verify_deficiency_numerically,
)

CATALOG = [
    ("momentum on [0, 1]", OperatorSpec.momentum(Interval.finite(0.0, 1.0))),
    ("momentum on [0, inf)", OperatorSpec.momentum(Interval.half_line(0.0))),
    ("momentum on the full line", OperatorSpec.momentum(Interval.full_line())),
    ("free Hamiltonian on [0, inf)", OperatorSpec.free_hamiltonian(Interval.half_line(0.0))),
    ("time operator conjugate to a bounded-below H", OperatorSpec.time_operator()),
]


def main():
    print("=== deficiency indices ===")
    for label, op in CATALOG:
        rep = solve_deficiency(op)
        resid = verify_deficiency_numerically(op, rep)
        print(f"{label:45s} (n+, n-) = ({rep.n_plus}, {rep.n_minus})  "
              f"-> {rep.classification}, parameter dim {rep.param_dim}  "
              f"[ode residual {resid:.2e}]")

    print()
    print("=== momentum on [0, 1]: unitary parameter -> quasi-periodic phase ===")
    for gamma in (0.0, np.pi / 3, np.pi, 3 * np.pi / 2):
        bc = momentum_bc_from_unitary(gamma)
        print(f"gamma = {gamma:8.5f}  ->  psi(1) = exp(i theta) psi(0),  theta = {bc.value:.6f}")

    theta = np.pi / 3
    result = momentum_spectrum(theta, Interval.finite(0.0, 1.0), range(-2, 3))
    levels = ", ".join(f"{value:+.4f}" for value in result.discrete.values.tolist())
    print(f"spectrum at theta = pi/3: theta + 2 pi n = {levels}")

    print()
    print("=== free Hamiltonian on [0, inf): unitary parameter -> Robin slope ===")
    for gamma in (0.5, np.pi / 2, 2.5, np.pi):
        bc = halfline_bc_from_unitary(gamma)
        if bc.is_dirichlet_limit:
            print(f"gamma = {gamma:8.5f}  ->  alpha = inf (Dirichlet wall, psi(0) = 0)")
        else:
            print(f"gamma = {gamma:8.5f}  ->  psi'(0) = alpha psi(0),  alpha = {bc.value:+.6f}")
    print("negative alpha admits a single bound state; see demos/halfline_bound_state.py")


if __name__ == "__main__":
    main()
