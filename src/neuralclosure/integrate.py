"""Time integration with dense output.

Two steppers cover every run in the package:

* fixed-step classical RK4,
* adaptive Dormand-Prince 5(4) with the FSAL property.

Both run in one method-of-steps core, and an ODE is the delay problem with
no delays. A delay problem caps the step size at its smallest delay, so
every delayed lookup lands in history or in already-committed segments.

Every solve returns a :class:`DenseTrajectory`, a contiguous chain of cubic
Hermite pieces built from the stepper's own RHS evaluations, so callers can
query the solution anywhere in the covered span (delayed lookups, loss times,
adjoint sweeps).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .linalg import Vec


class IntegrationError(RuntimeError):
    """Integrator failure (blow-up, step-budget exhaustion, step underflow)."""


# ---------------------------------------------------------------------------
# Stepper specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RK4Fixed:
    dt: float

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("RK4Fixed: dt must be positive")


@dataclass(frozen=True)
class DormandPrince54:
    rtol: float = 1e-8
    atol: float = 1e-8
    dt_init: float = 1e-3
    max_steps: int = 100_000

    def __post_init__(self):
        if self.rtol <= 0.0 or self.atol <= 0.0:
            raise ValueError("DormandPrince54: rtol and atol must be positive")
        if self.dt_init <= 0.0 or self.max_steps <= 0:
            raise ValueError("DormandPrince54: dt_init and max_steps must be positive")


StepperSpec = RK4Fixed | DormandPrince54


# ---------------------------------------------------------------------------
# Dense trajectory
# ---------------------------------------------------------------------------

class DenseTrajectory:
    """Append-only chain of cubic Hermite pieces with monotone knots.

    Each step keeps its bounds, end values and end slopes; storing the
    stepper's RHS evaluations as the slopes makes consecutive pieces join
    with continuous value and first derivative. Knots may run forward or
    backward in time (backward chains hold adjoint sweeps); the direction is
    fixed by the first appended step. Queries at a stored knot return the
    stored state exactly; at a knot shared by two steps the most recently
    appended one wins, which lets backward adjoint stores return the
    post-jump value at data times. A query past either end by less than
    1e-9 relative reads that end: shifted times such as t + h - tau or
    t + tau overshoot a committed end by an ulp in rounding.
    """

    def __init__(self):
        # per step in append order: (lo, hi, u(lo), u(hi), f(lo), f(hi)), lo < hi
        self._pieces: list[tuple] = []
        # step start times, negated on a backward chain: increasing in
        # append order either way
        self._keys: list[float] = []
        self.ascending = True

    def __len__(self) -> int:
        return len(self._pieces)

    @property
    def t_start(self) -> float:
        if not self._pieces:
            raise ValueError("empty trajectory")
        return self._pieces[0][0 if self.ascending else 1]

    @property
    def t_end(self) -> float:
        if not self._pieces:
            raise ValueError("empty trajectory")
        return self._pieces[-1][1 if self.ascending else 0]

    def append(self, t_from: float, t_to: float, u_from: Vec, u_to: Vec,
               f_from: Vec, f_to: Vec) -> None:
        """Append the step [t_from -> t_to]; must extend the chain contiguously."""
        if not abs(t_to - t_from) > 0.0:
            raise ValueError(f"zero-length or undefined step [{t_from}, {t_to}]")
        forward = t_to > t_from
        if self._pieces:
            if forward != self.ascending:
                raise ValueError("segment direction flips mid-trajectory")
            if t_from != self.t_end:
                raise ValueError(
                    f"non-contiguous append: chain ends at {self.t_end}, segment starts at {t_from}")
        else:
            self.ascending = forward
        u_from, u_to, f_from, f_to = (np.asarray(v, float).copy()
                                      for v in (u_from, u_to, f_from, f_to))
        if forward:
            self._pieces.append((t_from, t_to, u_from, u_to, f_from, f_to))
        else:
            self._pieces.append((t_to, t_from, u_to, u_from, f_to, f_from))
        self._keys.append(t_from if forward else -t_from)

    def _locate(self, t: float) -> tuple[tuple, float]:
        """The piece holding t, and t itself or the end it overshoots."""
        pieces = self._pieces
        if not pieces:
            raise ValueError("empty trajectory")
        first, last = pieces[0], pieces[-1]
        lo, hi = (first[0], last[1]) if self.ascending else (last[0], first[1])
        if t < lo or t > hi:
            end = lo if t < lo else hi
            if abs(t - end) >= 1e-9 * max(1.0, abs(t)):
                raise ValueError(f"query t={t} outside stored domain [{lo}, {hi}]")
            t = end
        # last appended step whose start is at or before t in chain order
        i = bisect.bisect_right(self._keys, t if self.ascending else -t) - 1
        return pieces[max(i, 0)], t

    def eval(self, t: float) -> Vec:
        (t0, t1, u0, u1, f0, f1), t = self._locate(float(t))
        if t == t0:
            return u0.copy()
        if t == t1:
            return u1.copy()
        h = t1 - t0
        s = (t - t0) / h
        s2 = s * s
        s3 = s2 * s
        h00 = 2.0 * s3 - 3.0 * s2 + 1.0
        h10 = s3 - 2.0 * s2 + s
        h01 = -2.0 * s3 + 3.0 * s2
        h11 = s3 - s2
        return h00 * u0 + (h10 * h) * f0 + h01 * u1 + (h11 * h) * f1

    def eval_many(self, ts) -> np.ndarray:
        """:meth:`eval` at each time in ``ts``, one row per time."""
        return np.stack([self.eval(t) for t in ts])

    def knots(self) -> np.ndarray:
        """All step boundaries in append order (duplicates removed)."""
        if not self._pieces:
            return np.empty(0)
        first, rest = (0, 1) if self.ascending else (1, 0)
        return np.asarray([self._pieces[0][first]] + [p[rest] for p in self._pieces])


# ---------------------------------------------------------------------------
# Single steps
# ---------------------------------------------------------------------------

def _rk4_step(rhs, t, u, h, f0=None):
    """One classical RK4 step; returns (u_next, f0) with f0 = rhs(t, u)."""
    k1 = rhs(t, u) if f0 is None else f0
    k2 = rhs(t + 0.5 * h, u + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, u + 0.5 * h * k2)
    k4 = rhs(t + h, u + h * k3)
    return u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), k1


# Dormand-Prince 5(4) tableau.
_DP_C = np.array([0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1.0 / 5.0]),
    np.array([3.0 / 40.0, 9.0 / 40.0]),
    np.array([44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0]),
    np.array([19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0]),
    np.array([9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
              -5103.0 / 18656.0]),
    np.array([35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
              11.0 / 84.0]),
]
_DP_B5 = np.array([35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0,
                   -2187.0 / 6784.0, 11.0 / 84.0, 0.0])
# b5 - b4; dotted with the stages this gives the embedded error estimate
_DP_E = np.array([71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
                  -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0])


def _dopri_step(rhs, t, u, h, k1):
    """One DP5(4) trial step. Returns (u5, err_vec, k_stages)."""
    k = [k1]
    for i in range(1, 7):
        ui = u + h * sum(a * kj for a, kj in zip(_DP_A[i], k))
        k.append(rhs(t + _DP_C[i] * h, ui))
    u5 = u + h * sum(b * kj for b, kj in zip(_DP_B5, k) if b != 0.0)
    err = h * sum(e * kj for e, kj in zip(_DP_E, k) if e != 0.0)
    return u5, err, k


def _error_norm(err, u0, u1, rtol, atol):
    scale = atol + rtol * np.maximum(np.abs(u0), np.abs(u1))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def _check_finite(t, u):
    if not np.all(np.isfinite(u)):
        raise IntegrationError(f"non-finite state at t={t}")


# ---------------------------------------------------------------------------
# Method-of-steps core
# ---------------------------------------------------------------------------

def _knot_grid(t0: float, t1: float, h: float) -> np.ndarray:
    """Uniform knots over [t0, t1] with spacing <= h, endpoints exact."""
    span = t1 - t0
    n = max(int(np.ceil(span / h - 1e-12)), 1)
    ts = t0 + (span / n) * np.arange(n + 1)
    ts[-1] = t1
    return ts


def _solve(rhs: Callable[[float, Vec], Vec], u0: Vec, t_span: tuple[float, float],
           stepper: StepperSpec, breakpoints: Iterable[float], traj: DenseTrajectory,
           cap: float = np.inf) -> DenseTrajectory:
    """Step u' = rhs(t, u) across t_span from u0, appending to ``traj``.

    No step exceeds ``cap``: a delay problem passes its smallest delay, so the
    lookups at t - tau of a step's stages and endpoint read times at or
    before the step's start. ``breakpoints`` are interior times the adaptive
    stepper must land on exactly (derivative discontinuities); fixed-step
    schemes ignore them.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span end must exceed start")
    u = np.asarray(u0, dtype=float).copy()
    _check_finite(t0, u)

    if isinstance(stepper, RK4Fixed):
        ts = _knot_grid(t0, t1, min(stepper.dt, cap))
        f = rhs(t0, u)
        for t, t_next in zip(ts[:-1], ts[1:]):
            u_next, _ = _rk4_step(rhs, t, u, t_next - t, f0=f)
            _check_finite(t_next, u_next)
            # the endpoint slope is the next step's first stage
            f_next = rhs(t_next, u_next)
            traj.append(t, t_next, u, u_next, f, f_next)
            u, f = u_next, f_next
        return traj

    if isinstance(stepper, DormandPrince54):
        stops = sorted({float(b) for b in breakpoints if t0 < float(b) < t1} | {t1})
        h = min(stepper.dt_init, cap, t1 - t0)
        t = t0
        k1 = rhs(t, u)
        steps = 0
        stop_i = 0
        while t < t1 - 1e-14 * max(1.0, abs(t1)):
            while stops[stop_i] <= t + 1e-14 * max(1.0, abs(t)):
                stop_i += 1
            target = stops[stop_i]
            h_try = min(h, cap, target - t)
            u5, err, k = _dopri_step(rhs, t, u, h_try, k1)
            steps += 1
            if steps > stepper.max_steps:
                raise IntegrationError(f"max_steps={stepper.max_steps} exceeded at t={t}")
            _check_finite(t + h_try, u5)
            enorm = _error_norm(err, u, u5, stepper.rtol, stepper.atol)
            if enorm <= 1.0:
                # snap to the stop so breakpoint landings are float-exact
                t_new = target if abs(t + h_try - target) <= 1e-12 * max(1.0, abs(target)) \
                    else t + h_try
                # FSAL: stage 7 is rhs at the accepted endpoint; a delay
                # problem's lookups there read times before t, which the
                # commit leaves unchanged, so the reuse is exact
                f_next = k[6]
                traj.append(t, t_new, u, u5, k1, f_next)
                t, u, k1 = t_new, u5, f_next
                factor = 5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm ** -0.2))
                h = h_try * factor
            else:
                h = h_try * max(0.2, 0.9 * enorm ** -0.2)
                if h < 1e-14 * max(1.0, abs(t)):
                    raise IntegrationError(f"step size underflow at t={t}")
        return traj

    raise TypeError(f"unknown stepper {stepper!r}")


def integrate_ode(rhs: Callable[[float, Vec], Vec], u0: Vec, t_span: tuple[float, float],
                  stepper: StepperSpec,
                  breakpoints: Iterable[float] = ()) -> DenseTrajectory:
    """Integrate u' = rhs(t, u) over t_span and return the dense solution.

    ``breakpoints`` are interior times the adaptive stepper must land on
    exactly (derivative discontinuities); fixed-step schemes ignore them.
    """
    return _solve(rhs, u0, t_span, stepper, breakpoints, DenseTrajectory())


@dataclass(frozen=True)
class DdeProblem:
    """Delay problem u'(t) = rhs(t, u(t), [u(t - tau_1), ..., u(t - tau_K)]).

    ``delays`` must be strictly positive and ascending. ``history`` supplies
    u(t) for t <= t_start and must cover [t_start - max(delays), t_start].
    """

    rhs: Callable[[float, Vec, list[Vec]], Vec]
    delays: tuple[float, ...]
    history: Callable[[float], Vec]

    def __post_init__(self):
        d = tuple(float(x) for x in self.delays)
        if any(x <= 0.0 for x in d):
            raise ValueError("DdeProblem: delays must be strictly positive")
        if any(d[i] >= d[i + 1] for i in range(len(d) - 1)):
            raise ValueError("DdeProblem: delays must be strictly ascending")
        object.__setattr__(self, "delays", d)


def _breakpoints(t0: float, t1: float, delays: tuple[float, ...]):
    """The first-order breakpoints t0 + k*tau_j inside (t0, t1), lazily."""
    for tau in delays:
        k = 1
        while t0 + k * tau < t1 - 1e-12:
            yield t0 + k * tau
            k += 1


def integrate_dde(prob: DdeProblem, t_span: tuple[float, float],
                  stepper: StepperSpec) -> DenseTrajectory:
    """Method-of-steps DDE solve with dense output.

    Steps are capped at min(delays), so delayed lookups never read the step
    under construction. Adaptive runs also land exactly on the first-order
    breakpoints t_start + k*tau_j, where the solution's higher derivatives
    jump.
    """
    if not prob.delays:
        raise ValueError("integrate_dde: no delays; use integrate_ode")
    t0, t1 = float(t_span[0]), float(t_span[1])
    traj = DenseTrajectory()

    def u_at(s: float) -> Vec:
        if s <= t0:
            return np.asarray(prob.history(s), dtype=float)
        return traj.eval(s)

    def rhs(t: float, u: Vec) -> Vec:
        delayed = [u_at(t - tau) for tau in prob.delays]
        return np.asarray(prob.rhs(t, u, delayed), dtype=float)

    return _solve(rhs, prob.history(t0), (t0, t1), stepper,
                  _breakpoints(t0, t1, prob.delays), traj, cap=prob.delays[0])


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

def quadrature_nodes(a: float, b: float, n_panels: int) -> np.ndarray:
    """The n_panels + 1 uniform nodes of the composite trapezoid over [a, b]."""
    if b < a:
        raise ValueError("quadrature: b must be >= a")
    if n_panels < 1:
        raise ValueError("quadrature: n_panels must be >= 1")
    return np.linspace(a, b, n_panels + 1)


def trapezoid(ts: np.ndarray, vals) -> np.ndarray:
    """Trapezoid rule over the nodes ``ts`` of ``vals`` (one row per node);
    np.trapezoid(vals, ts, axis=0) term for term (NumPy >= 2 only)."""
    vals = np.asarray(vals, dtype=float)
    d = np.diff(ts).reshape((-1,) + (1,) * (vals.ndim - 1))
    return np.add.reduce(d * (vals[1:] + vals[:-1]) / 2.0, axis=0)


def trapezoid_weights(ts: np.ndarray) -> np.ndarray:
    """Node weights of the trapezoid rule over the nodes ``ts``: the rule is
    ``trapezoid_weights(ts) @ vals``."""
    half = np.diff(ts) / 2.0
    wts = np.zeros(len(ts))
    wts[:-1] += half
    wts[1:] += half
    return wts


def quadrature(f: Callable[[float], float | Vec], a: float, b: float, n_panels: int):
    """Composite trapezoid of ``f`` over [a, b] with n_panels uniform panels.

    Exact for affine integrands; returns 0 (of f's shape) when a == b.
    f may return scalars or vectors.
    """
    ts = quadrature_nodes(a, b, n_panels)
    fa = np.asarray(f(a), dtype=float)
    if b == a:
        return np.zeros_like(fa) if fa.ndim else 0.0
    out = trapezoid(ts, [fa] + [np.asarray(f(t), dtype=float) for t in ts[1:]])
    return float(out) if out.ndim == 0 else out
