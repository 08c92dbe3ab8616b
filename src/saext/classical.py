"""Classical side of the scale symmetry: exact Poisson algebra and flows.

Observables are finite sums of monomials c * q^a * p^b * t^c with exact
rational coefficients, so the algebra laws (antisymmetry, Jacobi,
Leibniz) hold identically rather than to rounding.  Units fix 2m = 1
throughout, so H = p^2 + V(q) and qdot = 2p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterable, NamedTuple, Sequence, Tuple, Union

import numpy as np

from .errors import PreconditionError, SingularityError, StiffnessError

__all__ = [
    "DriftReport",
    "FlowTrajectory",
    "MonomialObservable",
    "P",
    "PowerLawPotential",
    "Q",
    "dilatation",
    "dilatation_drift",
    "dilatation_drift_report",
    "dilatation_observable",
    "hamiltonian_observable",
    "integrate_flow",
    "poisson_bracket",
    "potential_observable",
    "scale_condition_residual",
    "total_time_derivative",
]

Coeff = Union[int, float, Fraction]
RawTerm = Tuple[Coeff, int, int, int]


def _to_fraction(value: Coeff) -> Fraction:
    if isinstance(value, Rational):
        return Fraction(value)
    # binary floats convert exactly, keeping the algebra closed
    return Fraction(value)


@dataclass(frozen=True)
class MonomialObservable:
    """Sum of monomials (coeff, q_pow, p_pow, t_pow), canonically ordered.

    Negative powers are allowed for q (inverse-power potentials); terms
    with equal powers are merged and zero coefficients dropped, so
    structural equality is exact mathematical equality.
    """

    terms: Tuple[Tuple[Fraction, int, int, int], ...]

    def __post_init__(self) -> None:
        merged: dict = {}
        for coeff, q_pow, p_pow, t_pow in self.terms:
            key = (int(q_pow), int(p_pow), int(t_pow))
            merged[key] = merged.get(key, Fraction(0)) + _to_fraction(coeff)
        canonical = tuple(
            (c, k[0], k[1], k[2]) for k, c in sorted(merged.items()) if c != 0
        )
        object.__setattr__(self, "terms", canonical)

    @classmethod
    def single(
        cls, coeff: Coeff, q_pow: int = 0, p_pow: int = 0, t_pow: int = 0
    ) -> "MonomialObservable":
        return cls(((coeff, q_pow, p_pow, t_pow),))

    @classmethod
    def zero(cls) -> "MonomialObservable":
        return cls(())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "MonomialObservable") -> "MonomialObservable":
        return MonomialObservable(self.terms + other.terms)

    def __neg__(self) -> "MonomialObservable":
        return MonomialObservable(
            tuple((-c, a, b, t) for c, a, b, t in self.terms)
        )

    def __sub__(self, other: "MonomialObservable") -> "MonomialObservable":
        return self + (-other)

    def __mul__(self, other: Union["MonomialObservable", Coeff]) -> "MonomialObservable":
        if isinstance(other, MonomialObservable):
            raw = tuple(
                (c1 * c2, a1 + a2, b1 + b2, t1 + t2)
                for c1, a1, b1, t1 in self.terms
                for c2, a2, b2, t2 in other.terms
            )
            return MonomialObservable(raw)
        coeff = _to_fraction(other)
        return MonomialObservable(
            tuple((coeff * c, a, b, t) for c, a, b, t in self.terms)
        )

    __rmul__ = __mul__

    def d_dq(self) -> "MonomialObservable":
        return MonomialObservable(
            tuple((c * a, a - 1, b, t) for c, a, b, t in self.terms if a != 0)
        )

    def d_dp(self) -> "MonomialObservable":
        return MonomialObservable(
            tuple((c * b, a, b - 1, t) for c, a, b, t in self.terms if b != 0)
        )

    def d_dt(self) -> "MonomialObservable":
        return MonomialObservable(
            tuple((c * t, a, b, t - 1) for c, a, b, t in self.terms if t != 0)
        )

    def evaluate(self, q: float, p: float, t: float = 0.0) -> float:
        total = 0.0
        for c, a, b, tp in self.terms:
            total += float(c) * q**a * p**b * t**tp
        return total


Q = MonomialObservable.single(1, q_pow=1)
P = MonomialObservable.single(1, p_pow=1)


def poisson_bracket(f: MonomialObservable, g: MonomialObservable) -> MonomialObservable:
    """Canonical bracket df/dq dg/dp - df/dp dg/dq, exact on monomials.

    For a pair of monomials the rule closes: the coefficient picks up
    a1*b2 - b1*a2 and both q and p powers drop by one.
    """
    raw = []
    for c1, a1, b1, t1 in f.terms:
        for c2, a2, b2, t2 in g.terms:
            factor = a1 * b2 - b1 * a2
            if factor != 0:
                raw.append((c1 * c2 * factor, a1 + a2 - 1, b1 + b2 - 1, t1 + t2))
    return MonomialObservable(tuple(raw))


def total_time_derivative(
    f: MonomialObservable, h: MonomialObservable
) -> MonomialObservable:
    """df/dt along the flow of h: the explicit t-derivative plus {f, h}."""
    return f.d_dt() + poisson_bracket(f, h)


@dataclass(frozen=True)
class PowerLawPotential:
    """V(q) = g * q**s."""

    g: float
    s: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.g) and math.isfinite(self.s)):
            raise PreconditionError("potential parameters must be finite")

    def value(self, q):
        if self.s == 0.0:
            return self.g * np.ones_like(np.asarray(q, dtype=float))
        return self.g * np.asarray(q, dtype=float) ** self.s

    def force(self, q: float) -> float:
        if self.s == 0.0:
            return 0.0
        return -self.g * self.s * q ** (self.s - 1.0)


def _integer_exponent(v: PowerLawPotential) -> int:
    s = Fraction(v.s)
    if s.denominator != 1:
        raise PreconditionError(
            "symbolic form needs an integer exponent, got s=%r" % (v.s,)
        )
    return int(s)


def potential_observable(v: PowerLawPotential) -> MonomialObservable:
    return MonomialObservable.single(v.g, q_pow=_integer_exponent(v))


def hamiltonian_observable(v: PowerLawPotential) -> MonomialObservable:
    return MonomialObservable.single(1, p_pow=2) + potential_observable(v)


def dilatation_observable(h: MonomialObservable) -> MonomialObservable:
    """D = t*H - q*p/2 as an exact observable."""
    return MonomialObservable.single(1, t_pow=1) * h - MonomialObservable.single(
        Fraction(1, 2), q_pow=1, p_pow=1
    )


def dilatation(state: Sequence[float], h_value: float) -> float:
    """Numeric dilatation t*H - q*p/2 at a phase-space point (q, p, t)."""
    q, p, t = (float(state[0]), float(state[1]), float(state[2]))
    return h_value * t - 0.5 * q * p


def scale_condition_residual(v: PowerLawPotential) -> MonomialObservable:
    """(q/2) V' + V = g (1 + s/2) q^s; the zero observable iff s = -2."""
    s = _integer_exponent(v)
    coeff = _to_fraction(v.g) * (1 + Fraction(s, 2))
    return MonomialObservable.single(coeff, q_pow=s)


class FlowTrajectory(NamedTuple):
    ts: np.ndarray
    qs: np.ndarray
    ps: np.ndarray
    energies: np.ndarray
    energy_drift: float


class DriftReport(NamedTuple):
    max_drift: float
    predicted_drift: float
    max_deviation: float
    energy_drift: float


def integrate_flow(
    v: PowerLawPotential,
    state0: Sequence[float],
    t_end: float,
    tol: float,
    samples: int = 2001,
) -> FlowTrajectory:
    """The flow qdot = 2p, pdot = -V'(q) at ``samples`` equally spaced times.

    For s in {-2, 0, 1, 2} the flow is closed and sampled from its closed
    form, exact up to rounding (``tol`` is not used there); see
    :func:`_closed_samples`.  Every other exponent is integrated by DOP853
    with relative tolerance ``tol``.  Trajectories that run into the
    origin, or for s > 2 down a potential unbounded below to q = +-inf in
    finite time, stop with a singularity error instead of silently
    producing garbage.
    """
    if not samples >= 2:
        raise PreconditionError("need at least 2 samples, got %r" % (samples,))
    q0, p0 = float(state0[0]), float(state0[1])
    if not q0 > 0.0:
        raise PreconditionError("flow starts on the q > 0 side, got q0=%r" % (q0,))
    if not t_end > 0.0:
        raise PreconditionError("t_end must be positive, got %r" % (t_end,))
    if v.s in _CLOSED_EXPONENTS:
        return _closed_flow(v, q0, p0, t_end, samples)

    from scipy.integrate import solve_ivp

    def rhs(t, y):
        if t != t:
            # DOP853 picks a nan first step where the force at q0 is not
            # finite or tol leaves no error scale, and would then never end
            raise StiffnessError("integrator gave up: its step size is not a number")
        return (2.0 * y[1], v.force(y[0]))

    events = []
    if v.s < 0.0 or v.s % 1.0 != 0.0:
        # the force pulls q into 0 (s < 0), or q^s is undefined below it
        guard = 1e-6 * q0

        def hit_origin(_t, y):
            return y[0] - guard

        hit_origin.terminal = True
        hit_origin.direction = -1.0
        events.append(hit_origin)
    if v.s > 2.0 and (v.g < 0.0 or v.g > 0.0 and v.s % 2.0 == 1.0):
        # V is unbounded below.  |V(q)| can pass 1e20 (p0^2 + |V(q0)|) only
        # on the way to infinity, where DOP853 gives up near 1e30 or above
        with np.errstate(over="ignore"):
            scale = p0 * p0 + abs(float(v.value(q0)))
        bound = (1e20 * scale / abs(v.g)) ** (1.0 / v.s)

        def run_away(_t, y):
            return abs(y[0]) - bound

        run_away.terminal = True
        run_away.direction = 1.0
        events.append(run_away)

    # at a non-integer s, a trial stage past q = 0 gives nan and is rejected
    with np.errstate(invalid="ignore"):
        sol = solve_ivp(
            rhs,
            (0.0, t_end),
            (q0, p0),
            method="DOP853",
            rtol=tol,
            atol=tol * 1e-3,
            t_eval=np.linspace(0.0, t_end, samples),
            events=events or None,
        )
    if sol.status == 1:
        fired = next(i for i, ts in enumerate(sol.t_events) if len(ts))
        t_hit = float(sol.t_events[fired][0])
        if events[fired].direction < 0.0:  # hit_origin, the event of a falling q
            raise SingularityError("trajectory reached the origin near t=%g" % t_hit)
        # with p^2 = -V to 1e-20, the rest of the way takes |q| / ((s - 2)|p|)
        q, p = sol.y_events[fired][0]
        raise SingularityError("trajectory runs to q = %sinf near t=%g" % (
            "-" if q < 0.0 else "+", t_hit + abs(q) / ((v.s - 2.0) * abs(p))))
    if not sol.success:
        raise StiffnessError("integrator gave up: %s" % sol.message)
    return _trajectory(v, sol.t, sol.y[0], sol.y[1])


def _trajectory(v: PowerLawPotential, ts, qs, ps) -> FlowTrajectory:
    potential = v.value(qs)
    energies = ps * ps + potential
    # relative to p0^2 + |V(q0)|: that is |H0| when V(q0) >= 0, and it
    # stays away from 0 when an attractive H0 cancels to 0
    scale = ps[0] * ps[0] + abs(potential[0])
    drift = float(np.max(np.abs(energies - energies[0])) / max(scale, 1e-300))
    return FlowTrajectory(ts, qs, ps, energies, drift)


#: Exponents whose flow :func:`integrate_flow` samples from its closed form.
_CLOSED_EXPONENTS = (-2.0, 0.0, 1.0, 2.0)


def _closed_flow(
    v: PowerLawPotential, q0: float, p0: float, t_end: float, samples: int
) -> FlowTrajectory:
    """The flow for s in _CLOSED_EXPONENTS from its closed form.

    A flow that leaves the float range by t_end, or at s = -2 comes
    within rounding of q = 0, raises PreconditionError.
    """
    g, s = v.g, v.s
    if s == -2.0:
        _inverse_square_fall(g, q0, p0, t_end)
    ts = np.linspace(0.0, t_end, samples)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        traj = _trajectory(v, ts, *_closed_samples(g, s, q0, p0, ts))
    if np.all(np.isfinite(traj.energies)) and (s != -2.0 or np.all(traj.qs > 0.0)):
        return traj
    lost = "comes within rounding of q = 0 or leaves" if s == -2.0 else "leaves"
    raise PreconditionError("the s=%g flow from q0=%r, p0=%r, g=%r %s the float range "
                            "by t_end=%r" % (s, q0, p0, g, lost, t_end))


def _closed_samples(g: float, s: float, q0: float, p0: float, ts: np.ndarray):
    """(q, p) at the times ts for s in _CLOSED_EXPONENTS.

    s = -2: with qdot = 2p, d(qp)/dt = 2H, so qp = q0 p0 + 2Ht and
    q^2 = q0^2 + 4t(q0 p0 + Ht).  s = 1: constant force, p = p0 - g t and
    q = q0 + 2 p0 t - g t^2.  s = 2 with g > 0: w = 2 sqrt(g),
    q = q0 cos wt + (2 p0/w) sin wt and p = p0 cos wt - (w q0/2) sin wt;
    with g < 0 the same with cosh, sinh and w = 2 sqrt(-g), the sign of
    the p term flipped.  s = 0, or s = 2 with g = 0: free flight,
    q = q0 + 2 p0 t.
    """
    if s == -2.0:
        b, q0_sq = q0 * p0, q0 * q0
        h = p0 * p0 + g / q0_sq
        qs = np.sqrt(q0_sq + 4.0 * ts * (b + h * ts))
        return qs, (b + 2.0 * h * ts) / qs
    if s == 1.0:
        return q0 + 2.0 * p0 * ts - g * ts * ts, p0 - g * ts
    if s == 2.0 and g != 0.0:
        w = 2.0 * math.sqrt(abs(g))
        if g > 0.0:
            c, sn, sign = np.cos(w * ts), np.sin(w * ts), -1.0
        else:
            c, sn, sign = np.cosh(w * ts), np.sinh(w * ts), 1.0
        return q0 * c + (2.0 * p0 / w) * sn, p0 * c + sign * (0.5 * w * q0) * sn
    return q0 + 2.0 * p0 * ts, np.full_like(ts, p0)


def _closed_prediction(g: float, s: float, q0: float, p0: float, ts: np.ndarray):
    """The integral of g (1 + s/2) q(t)^s from 0 to each t in ts, s in _CLOSED_EXPONENTS.

    On the flows of :func:`_closed_samples`: 0 at s = -2 (and at s = 2 with
    g = 0), g t at s = 0, and 1.5 g (q0 t + p0 t^2 - g t^3/3) at s = 1.  At
    s = 2 with g > 0, w = 2 sqrt(g) and x = 2wt, it is
    2g [q0^2 (x + sin x)/(4w) + p0^2 (x - sin x)/w^3 + 2 q0 p0 sin^2(wt)/w^2];
    with g < 0 the same with sinh, w = 2 sqrt(-g) and sinh x - x.
    """
    if s == -2.0 or (s == 2.0 and g == 0.0):
        return np.zeros_like(ts)
    if s == 0.0:
        return g * ts
    if s == 1.0:
        return 1.5 * g * (q0 * ts + p0 * ts * ts - g * ts * ts * ts / 3.0)
    w = 2.0 * math.sqrt(abs(g))
    x = 2.0 * w * ts
    if g > 0.0:
        even, odd, half = x + np.sin(x), _odd_tail(x, -1.0), np.sin(0.5 * x)
    else:
        even, odd, half = x + np.sinh(x), _odd_tail(x, 1.0), np.sinh(0.5 * x)
    return 2.0 * g * (q0 * q0 * even / (4.0 * w) + p0 * p0 * odd / w**3
                      + 2.0 * q0 * p0 * (half / w) ** 2)


def _odd_tail(x: np.ndarray, sign: float) -> np.ndarray:
    """x - sin x (sign = -1) or sinh x - x (sign = +1), without cancellation.

    Below |x| = 1 the difference is summed from its series
    x^3/3! + sign x^5/5! + ..., whose terms after x^21/21! are below
    rounding there.
    """
    x2 = x * x
    series = np.ones_like(x)
    for n in range(9, 0, -1):
        series = 1.0 + sign * x2 / ((2 * n + 2) * (2 * n + 3)) * series
    series *= x * x2 / 6.0
    direct = np.sinh(x) - x if sign > 0.0 else x - np.sin(x)
    return np.where(np.abs(x) < 1.0, series, direct)


def _inverse_square_fall(g: float, q0: float, p0: float, t_end: float) -> None:
    """Raise SingularityError if the s = -2 flow reaches q = 0 by t_end."""
    b, q0_sq = q0 * p0, q0 * q0
    if not q0_sq > 0.0:
        raise PreconditionError("q0^2 underflows, got q0=%r" % (q0,))
    # q^2 = q0^2 + 4t(b + Ht) has discriminant 16(b^2 - H q0^2) = -16g, so
    # it reaches 0 only for g <= 0 (a double root at g = 0).  Its roots in
    # the form without cancellation are q0^2 / (2(+-sqrt(-g) - b)), and
    # the first positive one is q0^2 / (2(sqrt(-g) - b)) if sqrt(-g) > b.
    if g <= 0.0:
        closing = math.sqrt(-g) - b
        fall = 0.5 * q0_sq / closing if closing > 0.0 else math.inf
        if fall <= t_end:
            raise SingularityError("trajectory reaches the origin at t=%r" % (fall,))


def dilatation_drift_report(
    v: PowerLawPotential,
    state0: Sequence[float],
    t_end: float,
    tol: float = 1e-10,
    samples: int = 4001,
) -> DriftReport:
    """Measure D(t) - D(0) along a trajectory and compare to the predicted rate.

    The prediction integrates the rate g (1 + s/2) q(t)^s from 0 to each
    sample time.  For s in {-2, 0, 1, 2} the flow is closed (``tol`` is
    then not used) and so is the integral (see :func:`_closed_prediction`);
    at s = -2 the rate vanishes identically, and the deviation from the
    prediction is rounding alone.  Other exponents integrate the rate
    along the DOP853 trajectory by Simpson's rule.
    """
    traj = integrate_flow(v, state0, t_end, tol, samples=samples)
    d_vals = traj.energies * traj.ts - 0.5 * traj.qs * traj.ps
    measured = d_vals - d_vals[0]
    if v.s in _CLOSED_EXPONENTS:
        predicted = _closed_prediction(v.g, v.s, float(state0[0]), float(state0[1]), traj.ts)
    else:
        from scipy.integrate import cumulative_simpson

        rate = (1.0 + 0.5 * v.s) * v.value(traj.qs)
        predicted = cumulative_simpson(rate, x=traj.ts, initial=0.0)
    return DriftReport(
        max_drift=float(np.max(np.abs(measured))),
        predicted_drift=float(np.max(np.abs(predicted))),
        max_deviation=float(np.max(np.abs(measured - predicted))),
        energy_drift=traj.energy_drift,
    )


def dilatation_drift(
    v: PowerLawPotential,
    state0: Sequence[float],
    t_end: float,
    tol: float = 1e-10,
) -> float:
    """Largest excursion of the dilatation from its initial value."""
    return dilatation_drift_report(v, state0, t_end, tol=tol).max_drift
