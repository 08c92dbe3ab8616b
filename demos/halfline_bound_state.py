"""Robin half-line in action: the single bound state below threshold and the
unit-modulus reflection above it.

For psi'(0) = alpha psi(0) with alpha < 0 there is exactly one bound state,
E = -alpha^2 (hbar = 2m = 1), printed here from the closed form and from the
root of the inward shot's boundary mismatch.  With no potential the shot from
the decaying tail is exact, so the two agree by construction, up to the root
finder's tolerance.  For alpha >= 0 nothing lies below the continuum.

Run:  python demos/halfline_bound_state.py
"""

import numpy as np

from saext import (
    bound_state,
    bound_state_shooting,
    halfline_robin_spectrum,
    norm,
    reflection_coefficient,
)

print("--- bound state, closed form and shooting root ---")
for alpha in (-0.5, -1.0, -2.0):
    bs = bound_state(alpha)
    e_shoot = bound_state_shooting(alpha, (1.5 * -(alpha ** 2), 0.5 * -(alpha ** 2)))
    print(f"alpha = {alpha:+.2f}:  closed form E = {bs.energy:+.8f}   "
          f"shooting E = {e_shoot:+.8f}   exact -alpha^2 = {-(alpha ** 2):+.8f}   "
          f"|psi| = {norm(bs.psi):.6f}")

print()
print("--- no bound state for alpha >= 0 ---")
for alpha in (0.0, 1.0):
    bs = bound_state(alpha)
    print(f"alpha = {alpha:+.2f}:  bound_state -> {bs!r}")

print()
print("--- full spectrum object ---")
spec = halfline_robin_spectrum(-1.0)
print(f"discrete levels: {[f'{value:+.6f}' for value in spec.discrete.values.tolist()]}")
print(f"their eigenfunctions at x = 0: {spec.discrete.eigenfunctions(0.0).ravel()}  (sqrt 2)")
print(f"continuum threshold: {spec.continuous.threshold}")

print()
print("--- reflection is a pure phase on the continuum ---")
alpha = -1.0
for k in (0.25, 1.0, 4.0):
    r = reflection_coefficient(k, alpha)
    print(f"k = {k:5.2f}:  R = {r.real:+.6f}{r.imag:+.6f}i   |R| = {abs(r):.12f}   "
          f"arg R = {np.angle(r):+.6f}")
r_wall = reflection_coefficient(1.0, np.inf)
print(f"alpha = inf (hard wall), k = 1:  R = {r_wall:+.1f}  (sign flip, as for psi(0) = 0)")
