"""Classical side of the scale symmetry: exact Poisson algebra and flows.

Observables are finite sums of monomials c * q^a * p^b * t^c with exact
rational coefficients, so the algebra laws (antisymmetry, Jacobi,
Leibniz) hold identically rather than to rounding.  Units fix 2m = 1
throughout, so H = p^2 + V(q) and qdot = 2p.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Tuple, Union

import numpy as np

from .core import _sample_grid
from .errors import PreconditionError, SingularityError

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
    "scale_symmetry_exact",
    "total_time_derivative",
]

Coeff = Union[int, float, Fraction]
RawTerm = Tuple[Coeff, int, int, int]


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
            merged[key] = merged.get(key, Fraction(0)) + Fraction(coeff)
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
        coeff = Fraction(other)
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
        if self.s == 0.0 or self.g == 0.0:
            return self.g * np.ones_like(np.asarray(q, dtype=float))
        return self.g * np.asarray(q, dtype=float) ** self.s


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
    coeff = Fraction(v.g) * (1 + Fraction(s, 2))
    return MonomialObservable.single(coeff, q_pow=s)


def scale_symmetry_exact(v: PowerLawPotential) -> bool:
    """Whether the residual's coefficient g (1 + s/2) is exactly 0: g = 0 or s = -2.

    For an integer s this is ``scale_condition_residual(v).is_zero``; it
    also holds for the exponents that have no symbolic form.
    """
    return v.g == 0.0 or v.s == -2.0


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
    samples: int = 2001,
) -> FlowTrajectory:
    """The flow qdot = 2p, pdot = -V'(q) at ``samples`` equally spaced times.

    For s in {-2, 0, 1, 2} the flow is sampled from its closed form (see
    :func:`_closed`), and for every other exponent from its energy
    integral (see :func:`_energy_flow`); both are exact up to rounding, so
    no tolerance is taken.  Trajectories that reach the origin,
    or run to q = +-inf in finite time, stop with a singularity error that
    gives the exact time instead of silently producing garbage.
    """
    return _flow(v, state0, t_end, samples)[0]


#: Exponents whose flow :func:`integrate_flow` samples from its closed form.
_CLOSED_EXPONENTS = (-2.0, 0.0, 1.0, 2.0)


def _flow(v: PowerLawPotential, state0: Sequence[float], t_end: float, samples: int):
    """The trajectory of :func:`integrate_flow`, and int_0^t g (1 + s/2) q^s dt at its times.

    Exponents in _CLOSED_EXPONENTS take both from :func:`_closed`, every
    other one from :func:`_energy_flow`, where V = H - p^2 turns the
    integral into (1 + s/2)(H t - int p^2 dt).  A flow that leaves the
    float range by t_end, or at s = -2 comes within rounding of q = 0,
    raises PreconditionError.
    """
    if not samples >= 2:
        raise PreconditionError("need at least 2 samples, got %r" % (samples,))
    q0, p0 = float(state0[0]), float(state0[1])
    if not q0 > 0.0:
        raise PreconditionError("flow starts on the q > 0 side, got q0=%r" % (q0,))
    if not t_end > 0.0:
        raise PreconditionError("t_end must be positive, got %r" % (t_end,))
    g, s = v.g, v.s
    closed = s in _CLOSED_EXPONENTS
    ts = _sample_grid(0.0, t_end, samples, "the flow's time grid")
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        qs, ps, rest = _closed(g, s, q0, p0, ts) if closed else _energy_flow(v, q0, p0, ts)
        potential = v.value(qs)
        energies = ps * ps + potential
        # relative to p0^2 + |V(q0)|: that is |H0| when V(q0) >= 0, and it
        # stays away from 0 when an attractive H0 cancels to 0
        scale = ps[0] * ps[0] + abs(potential[0])
        drift = float(np.max(np.abs(energies - energies[0])) / max(scale, 1e-300))
        predicted = rest if closed else (1.0 + 0.5 * s) * (energies[0] * ts - rest)
    if np.all(np.isfinite(energies)) and (s != -2.0 or np.all(qs > 0.0)) and (
            closed or np.all(np.isfinite(rest))):
        return FlowTrajectory(ts, qs, ps, energies, drift), predicted
    lost = "comes within rounding of q = 0 or leaves" if s == -2.0 else "leaves"
    raise PreconditionError("the s=%g flow from q0=%r, p0=%r, g=%r %s the float range "
                            "by t_end=%r" % (s, q0, p0, g, lost, t_end))


def _closed(g: float, s: float, q0: float, p0: float, ts: np.ndarray):
    """q, p and int_0^t g (1 + s/2) q^s dt at the times ts, for s in _CLOSED_EXPONENTS.

    s = -2: with qdot = 2p, d(qp)/dt = 2H, so qp = q0 p0 + 2Ht and
    q^2 = q0^2 + 4t(q0 p0 + Ht); the integral is 0.  A fall to q = 0 by
    ts[-1] raises SingularityError.  s = 1: constant force, p = p0 - g t,
    q = q0 + 2 p0 t - g t^2 and the integral is 1.5 g (q0 t + p0 t^2 - g t^3/3).
    s = 2 with g > 0: w = 2 sqrt(g), q = q0 cos wt + (2 p0/w) sin wt,
    p = p0 cos wt - (w q0/2) sin wt and, with x = 2wt and 2g = w^2/2 taken
    into each term, so that no power of w past the first is formed, the
    integral is q0^2 (x + sin x) w/8 + p0^2 (x - sin x)/(2w) + q0 p0 sin^2(x/2).
    s = 2 with g < 0: w = 2 sqrt(-g) and a = q0 + 2 p0/w, the growing
    mode's amplitude, q = q0 e^(-wt) + a sinh wt, p = p0 e^(-wt) +
    (w a/2) sinh wt and the integral is 2g [-q0^2 expm1(-x)/(2w) +
    q0 a (x + expm1(-x))/(2w) + a^2 (sinh x - x)/(4w)]; unlike
    q0 cosh wt + (2 p0/w) sinh wt these terms do not cancel on the stable
    manifold a = 0, and for small w a sinh wt is about 2 p0 t.  s = 0, or
    s = 2 with g = 0: free flight, q = q0 + 2 p0 t, and the integral is g t.
    """
    if s == -2.0:
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
            if fall <= ts[-1]:
                raise SingularityError("trajectory reaches the origin at t=%r" % (fall,))
        h = p0 * p0 + g / q0_sq
        qs = np.sqrt(q0_sq + 4.0 * ts * (b + h * ts))
        return qs, (b + 2.0 * h * ts) / qs, np.zeros_like(ts)
    if s == 1.0:
        return (q0 + 2.0 * p0 * ts - g * ts * ts, p0 - g * ts,
                1.5 * g * (q0 * ts + p0 * ts * ts - g * ts * ts * ts / 3.0))
    if s == 2.0 and g > 0.0:
        w = 2.0 * math.sqrt(g)
        c, sn, x = np.cos(w * ts), np.sin(w * ts), 2.0 * w * ts
        if w < _TINY_CUBE_ROOT:
            # (x - sin x)/(2w) = t (x - sin x)/x, whose series does not underflow
            kinetic = p0 * p0 * ts * _odd_tail(x, -1.0, over_x=True)
        else:
            kinetic = p0 * (p0 / (2.0 * w)) * _odd_tail(x, -1.0)
        return (q0 * c + (2.0 * p0 / w) * sn, p0 * c - (0.5 * w * q0) * sn,
                q0 * q0 * (x + np.sin(x)) * (0.125 * w) + kinetic
                + q0 * p0 * np.sin(0.5 * x) ** 2)
    if s == 2.0 and g < 0.0:
        w = 2.0 * math.sqrt(-g)
        a, decay, x = q0 + 2.0 * p0 / w, np.exp(-w * ts), 2.0 * w * ts
        total = -q0 * q0 * np.expm1(-x) / (2.0 * w)
        if a == 0.0:  # the stable manifold, where every term in a is 0, also past sinh's range
            return q0 * decay, p0 * decay, 2.0 * g * total
        sn, odd = np.sinh(w * ts), _odd_tail(x, 1.0)
        # x + expm1(-x) = 2 sinh^2(x/2) - (sinh x - x), whose terms do not cancel below x = 1
        ramp = np.where(x < 1.0, 2.0 * np.sinh(0.5 * x) ** 2 - odd, x + np.expm1(-x))
        total = total + q0 * a * ramp / (2.0 * w) + a * a * odd / (4.0 * w)
        return q0 * decay + a * sn, p0 * decay + (0.5 * w * a) * sn, 2.0 * g * total
    return q0 + 2.0 * p0 * ts, np.full_like(ts, p0), g * ts if s == 0.0 else np.zeros_like(ts)


#: The w below which x - sin x, about (2wt)^3/6, underflows by t = 1 though
#: its quotient by 2w is still a normal float.
_TINY_CUBE_ROOT = float(np.finfo(float).tiny) ** (1.0 / 3.0)


def _odd_tail(x: np.ndarray, sign: float, over_x: bool = False) -> np.ndarray:
    """x - sin x (sign = -1) or sinh x - x (sign = +1), without cancellation.

    Below |x| = 1 the difference is summed from its series
    x^3/3! + sign x^5/5! + ..., whose terms after x^21/21! are below
    rounding there.  ``over_x`` divides it by x: below |x| = 1 that is the
    series x^2/3! + sign x^4/5! + ..., which does not underflow where x^3
    does.
    """
    # the series is used below |x| = 1 only; above it may overflow
    with np.errstate(over="ignore", invalid="ignore"):
        x2 = x * x
        series = np.ones_like(x)
        for n in range(9, 0, -1):
            series = 1.0 + sign * x2 / ((2 * n + 2) * (2 * n + 3)) * series
        series = series * (x2 / 6.0) if over_x else series * (x * x2 / 6.0)
    direct = np.sinh(x) - x if sign > 0.0 else x - np.sin(x)
    if over_x:
        with np.errstate(divide="ignore", invalid="ignore"):  # x = 0 takes the series
            direct = direct / x
    return np.where(np.abs(x) < 1.0, series, direct)


#: Fractions 0, 1/(1 + exp(-pi sinh u)) at u = -4 .. 4 in steps of 1/16, and 1: the
#: tanh-sinh nodes, which come within 1e-37 of either end.
_TS_X = np.r_[0.0, 1.0 / (1.0 + np.exp(-math.pi * np.sinh(np.arange(-64, 65) / 16.0))), 1.0]


@functools.cache
def _gauss_legendre():
    """The 12-point Gauss-Legendre rule on (0, 1), for a stretch between two such fractions."""
    x, w = np.polynomial.legendre.leggauss(12)
    return (x + 1.0) / 2.0, w / 2.0


class _Leg:
    """A stretch of the flow on one side of 0, where V = c r^s and r = |q| is monotone.

    r runs from r0 (at time t0, with int p^2 dt = work0 so far) in the
    direction d to a turning point, to 0 or to inf.  Its points are
    r = ref + sign * u, u >= 0, from ref: the turning point it ends or
    starts at, else r0.  A table of u that clusters at both ends holds the
    time and int p^2 dt from ref, summed stretch by stretch.  A turning
    point past the float range counts as none.  A leg from r0 > 0 that
    does not start at a turning point and would end at one past 2 r0 ends
    at half of it instead, measured from r0, and the next leg goes on from
    there: from the turning point, r0 and the time from it would carry the
    rounding of the turning point's scale.
    """

    def __init__(self, h, c, s, side, d, r0, at_turn, t0, work0):
        self.h, self.c, self.s, self.side, self.d = h, c, s if c else 0.0, side, d
        self.t0, self.work0 = t0, work0
        # V rises to H on the way
        end = np.float64(h / c) ** (1.0 / s) if c * s * d > 0.0 and h / c > 0.0 else math.inf
        self.turns = end < math.inf
        if not self.turns:
            end = 0.0 if d < 0.0 else math.inf
        elif d * (end - r0) < 0.0:  # r0 is the turning point, to rounding
            end = r0
        elif not at_turn and 0.0 < 2.0 * r0 < end:
            end, self.turns = 0.5 * end, False
        self.end, self.ref = end, (end if self.turns else r0)
        far = r0 if self.turns else end
        self.sign = -1.0 if far < self.ref else 1.0
        self.v_ref = c * np.float64(self.ref) ** self.s
        self.f_ref = 0.0 if self.turns or at_turn else h - self.v_ref
        if far < math.inf:
            us = abs(far - self.ref) * _TS_X
        else:  # out to the knee, where |V| = |H|, then doubling
            knee = np.float64(abs(h / c)) ** (1.0 / s) - self.ref if c else 0.0
            unit = knee if 0.0 < knee < math.inf else (self.ref or 1.0)
            us = unit * np.r_[_TS_X, np.exp2(np.arange(1.0, 1024.0))]
        table = np.cumsum(np.hstack([np.zeros((2, 1)), self.quad(us[:-1], us[1:])]), axis=1)
        # a table that leaves the float range ends there
        kept = np.isfinite(table).all(axis=0)
        kept[:2] = True
        self.us, (self.times, self.works) = us[kept], table[:, kept]
        self.duration, self.work = float(self.times[-1]), float(self.works[-1])
        if far == math.inf:
            self.duration = self.work = math.inf
            if s > 2.0 and c < 0.0:  # it runs to inf in finite time: past the knee (or ref
                # if that is past it) the time left is the tail integral
                at = min(len(_TS_X) - 1 if unit == knee else 0, len(self.us) - 1)
                self.duration = float(self.times[at] + self.tail(self.ref + self.us[at]))
        elif end == 0.0 == h and s > 2.0:  # a fall with H = 0 and s > 2 never arrives
            self.duration = self.work = math.inf

    def p2(self, delta):
        """p^2 at r = ref + delta: f_ref - V_ref expm1(s log1p(delta/ref)) near ref,
        which does not cancel at a turning point, and H - c r^s elsewhere."""
        em = np.expm1(self.s * np.log1p(delta / self.ref))
        return np.where(np.abs(em) < 0.5, self.f_ref - self.v_ref * em,
                        self.h - self.c * (self.ref + delta) ** self.s)

    def quad(self, a, b):
        """The time int dr/(2|p|) and int p^2 dt = int |p| dr/2 over u from a to each b."""
        span = b - a
        gl_x, gl_w = _gauss_legendre()  # built on first use: a closed flow needs none
        p = np.sqrt(self.p2(self.sign * (a + np.multiply.outer(gl_x, span))))
        w = np.multiply.outer(gl_w, span) / 2.0
        return np.where(span == 0.0, 0.0, [(w / p).sum(axis=0), (w * p).sum(axis=0)])

    def tail(self, r):
        """The time from r to inf, for s > 2 and c < 0.  With r' = r v^(-2/(s-2)) it is
        int_0^1 r/(s-2) / sqrt(p(r)^2 w + |V(r)| (1 - w)) dv, w = v^(2s/(s-2)), whose
        integrand is regular at v = 0; x = 1 - v runs over the table of fractions."""
        gl_x, gl_w = _gauss_legendre()
        x = _TS_X[:-1] + np.multiply.outer(gl_x, np.diff(_TS_X))
        one_minus_w = -np.expm1(2.0 * self.s / (self.s - 2.0) * np.log1p(-x))
        den = np.sqrt(self.p2(r - self.ref) * (1.0 - one_minus_w)
                      - self.c * r ** self.s * one_minus_w)
        return r / (self.s - 2.0) * np.sum(np.multiply.outer(gl_w, np.diff(_TS_X)) / den)

    def radius(self, dt):
        """r, |p| and int p^2 dt at the times dt after t0.

        Newton's method on the time from ref, from the table point before
        it, where a step that leaves the table's bracket is a bisection.
        """
        # the time from ref; a leg that turns starts at the table's far end
        top = self.times[-1] if self.work < math.inf else math.inf
        target = np.clip(self.times[-1] - dt if self.turns else dt, 0.0, top)
        at = np.clip(np.searchsorted(self.times, target), 1, len(self.us) - 1) - 1
        behind, ahead = self.us[at], self.us[at + 1]
        u = np.where(target <= self.times[-1], np.interp(target, self.times, self.us), np.nan)
        for _ in range(60):
            miss = self.times[at] + self.quad(self.us[at], u)[0] - target
            step = u - 2.0 * np.sqrt(self.p2(self.sign * u)) * miss
            ahead, behind = np.where(miss > 0.0, u, ahead), np.where(miss > 0.0, behind, u)
            newton = (step - behind) * (step - ahead) <= 0.0
            # from a miss below 1e-8 of the time, a Newton step leaves one of order its square
            done = ~(np.abs(miss) > np.where(newton, 1e-8, 1e-13) * (target + dt))
            u, last = np.where(newton, step, np.where(done, u, 0.5 * (behind + ahead))), u
            if np.all(done | (u == last)):  # or u is stuck at rounding
                break
        work = self.works[at] + self.quad(self.us[at], u)[1]
        return (self.ref + self.sign * u, np.sqrt(self.p2(self.sign * u)),
                self.works[-1] - work if self.turns else work)


#: The largest share of its period that a sample's phase may carry as the
#: rounding 2^-52 t_end of its time.
_PHASE_ROUNDING = 1e-6


def _energy_flow(v: PowerLawPotential, q0: float, p0: float, ts: np.ndarray):
    """(q, p, int_0^t p^2 dt) at the times ts, from the energy integral.

    H = p^2 + V is conserved and V = c r^s is monotone in r = |q| on each
    side of 0 (c = g for q > 0, g (-1)^s for q < 0), so the flow is a chain
    of legs, along each of which t = int dr / (2 sqrt(H - c r^s)) (Landau,
    Lifshitz, Mechanics, sec. 11).  A leg that reaches 0 crosses it for an
    integer s > 0 with H > 0.  The one periodic flow, an even s with g > 0,
    is sampled modulo its period, so the work does not grow with t_end.  A
    sample's phase there carries the rounding 2^-52 t_end of its time; a
    period below 1e6 times that raises PreconditionError.
    """
    g, s = v.g, v.s
    h = p0 * p0 + float(v.value(q0))
    if not math.isfinite(h):
        return (np.full_like(ts, np.nan),) * 3
    if p0 == 0.0 == g:  # at rest
        return np.full_like(ts, q0), np.zeros_like(ts), np.zeros_like(ts)
    crosses = s > 0.0 and s % 1.0 == 0.0
    periodic = crosses and s % 2.0 == 0.0 and g > 0.0
    side, r, d = 1.0, q0, math.copysign(1.0, p0 if p0 else -g * s)
    legs, t, work, period, first = [], 0.0, 0.0, None, None
    while period is None:
        # a leg starts at a turning point where the last one ended at one
        # (or where p0 = 0, when h - V(q0) is 0 exactly)
        turned = bool(legs) and legs[-1].turns
        if first is None and (turned or legs and r == 0.0):
            first = len(legs)  # the first leg from a turning point or from 0
        legs.append(_Leg(h, g if side > 0.0 else g * (-1.0) ** s, s, side, d, r,
                         turned, t, work))
        leg = legs[-1]
        if math.isnan(leg.duration):
            return (np.full_like(ts, np.nan),) * 3
        if t + leg.duration > ts[-1]:
            break
        t, work = t + leg.duration, work + leg.work
        if leg.end == math.inf:
            raise SingularityError("trajectory runs to q = %sinf at t=%r"
                                   % ("-" if side < 0.0 else "+", t))
        if leg.end == 0.0 and not (crosses and h > 0.0):
            raise SingularityError("trajectory reaches the origin at t=%r" % (t,))
        side, r, d = (-side, 0.0, 1.0) if leg.end == 0.0 else (
            side, leg.end, -d if leg.turns else d)
        if periodic and first is not None and len(legs) == first + 4:
            lap = legs[first]  # four legs from it are one period
            period = (t - lap.t0, work - lap.work0)
    laps = 0.0
    if period is not None:
        # a sample's phase in its period carries the rounding of its time
        if not 2.0**-52 * ts[-1] <= _PHASE_ROUNDING * period[0]:
            raise PreconditionError(
                "the s=%g flow from q0=%r, p0=%r, g=%r has period %r: the rounding "
                "2^-52 t_end of a sample's time at t_end=%r is over %g of it"
                % (s, q0, p0, g, period[0], float(ts[-1]), _PHASE_ROUNDING))
        laps = np.maximum(np.floor((ts - lap.t0) / period[0]), 0.0)
        # rounding may leave a reduced time before its period's start
        ts = np.where(laps > 0.0, np.maximum(ts - laps * period[0], lap.t0), ts)
    which = np.searchsorted([leg.t0 for leg in legs], ts, side="right") - 1
    qs, ps, works = np.empty_like(ts), np.empty_like(ts), np.empty_like(ts)
    for i, leg in enumerate(legs):
        at = which == i
        r, p, work = leg.radius(ts[at] - leg.t0)
        qs[at] = leg.side * r
        ps[at] = leg.side * leg.d * p
        works[at] = leg.work0 + work
    return qs, ps, works + (laps * period[1] if period else 0.0)


def dilatation_drift_report(
    v: PowerLawPotential,
    state0: Sequence[float],
    t_end: float,
    tol: float = 1e-10,
    samples: int = 4001,
) -> DriftReport:
    """Measure D(t) - D(0) along a trajectory and compare to the predicted rate.

    The prediction integrates the rate g (1 + s/2) q(t)^s from 0 to each
    sample time.  For s in {-2, 0, 1, 2} that integral is closed and comes
    from the same case as the flow (see :func:`_closed`); at s = -2 the rate vanishes identically,
    and the deviation from the prediction is rounding alone.  For other
    exponents V = H - p^2 turns it into (1 + s/2)(H t - int p^2 dt), whose
    last term comes from the same energy integral as the flow.  ``tol`` is
    accepted but not used.

    Each rounding of q changes V = g q^s by |s| 2^-53 of itself, and the
    factor 1 + s/2 multiplies that again, so the deviation grows like
    s^2 2^-53: about 1e-6 at s = 1e5 and 1.4 at s = 1e8 (from q0 = 1,
    p0 = 0.25, g = 1).  An exponent past |s| = 2^17 raises
    PreconditionError.
    """
    if not abs(v.s) <= 2.0**17:
        raise PreconditionError("at s=%r rounding swamps the dilatation drift: the "
                                "report needs |s| <= 2^17" % (v.s,))
    traj, predicted = _flow(v, state0, t_end, samples)
    with np.errstate(over="ignore", invalid="ignore"):
        d_vals = traj.energies * traj.ts - 0.5 * traj.qs * traj.ps
        measured = d_vals - d_vals[0]
        deviation = np.abs(measured - predicted)
    if not np.all(np.isfinite(deviation)):
        raise PreconditionError("the dilatation of the s=%g flow leaves the float range by "
                                "t_end=%r" % (v.s, t_end))
    return DriftReport(
        max_drift=float(np.max(np.abs(measured))),
        predicted_drift=float(np.max(np.abs(predicted))),
        max_deviation=float(np.max(deviation)),
        energy_drift=traj.energy_drift,
    )


def dilatation_drift(
    v: PowerLawPotential,
    state0: Sequence[float],
    t_end: float,
) -> float:
    """Largest excursion of the dilatation from its initial value."""
    return dilatation_drift_report(v, state0, t_end).max_drift
