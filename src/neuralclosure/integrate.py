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

Two times s and t are one time when |s - t| <= TIME_RTOL * max(1, |t|):
the store's end clamp, the sweep's time snapping, the span checks and the
data spans share this rule, so the store accepts every read a sweep plans.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np



TIME_RTOL = 1e-9  # relative: two times this close are one time on paper


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
    with continuous value and first derivative. Values may have any shape
    (one state (d,), or a batch (B, d) stepped in lockstep), fixed by the
    first appended step. The knots, values and slopes live in growing
    arrays; a step that starts from other values or slopes than the chain
    ends with (an adjoint jump) adds a second knot at the same time. Knots
    may run forward or backward in time (backward chains hold adjoint
    sweeps); the direction is fixed by the first appended step. Queries at a
    stored knot return the stored value exactly; at a knot shared by two
    steps the most recently appended one wins, which lets backward adjoint
    stores return the post-jump value at data times. A query past either end
    by less than :data:`TIME_RTOL` relative reads that end: shifted times
    such as t + h - tau or t + tau overshoot a committed end by an ulp in
    rounding.
    """

    def __init__(self):
        self._n = 0                 # appended steps
        # knot times, negated on a backward chain so that they increase in
        # append order either way
        self._keys: list = []
        self._t = self._u = self._f = None  # knots, values, slopes
        self._last = (None, None)   # the last step's end value and slope
        self.ascending = True

    @classmethod
    def through(cls, t, u, f) -> "DenseTrajectory":
        """The ascending chain through knots ``t`` (n+1,) with values ``u``
        and slopes ``f`` (n+1, ...), built in one call."""
        t = np.array(t, dtype=float)
        if t.ndim != 1 or t.size < 2 or np.any(np.diff(t) <= 0.0):
            raise ValueError("need at least two strictly increasing knots")
        traj = cls()
        traj._u = np.array(u, dtype=float)
        traj._f = np.array(f, dtype=float)
        if traj._u.shape[0] != t.size or traj._f.shape != traj._u.shape:
            raise ValueError("values and slopes need one row per knot")
        traj._t, traj._keys, traj._n = t, t.tolist(), t.size - 1
        return traj

    def __len__(self) -> int:
        return self._n

    @property
    def t_start(self) -> float:
        if not self._n:
            raise ValueError("empty trajectory")
        return float(self._t[0])

    @property
    def t_end(self) -> float:
        if not self._n:
            raise ValueError("empty trajectory")
        return float(self._t[len(self._keys) - 1])

    def append(self, t_from: float, t_to: float, u_from: np.ndarray, u_to: np.ndarray,
               f_from: np.ndarray, f_to: np.ndarray) -> None:
        """Append the step [t_from -> t_to]; must extend the chain contiguously.

        Values are copied in. A step whose start value and slope are not the
        previous step's end arrays themselves (the objects a stepper hands
        on) starts a new knot at its start time, so a caller must not change
        an appended array in place and then append it again."""
        if not abs(t_to - t_from) > 0.0:
            raise ValueError(f"zero-length or undefined step [{t_from}, {t_to}]")
        forward = t_to > t_from
        if self._n:
            if forward != self.ascending:
                raise ValueError("segment direction flips mid-trajectory")
            if t_from != self.t_end:
                raise ValueError(
                    f"non-contiguous append: chain ends at {self.t_end}, "
                    f"segment starts at {t_from}")
            if u_from is not self._last[0] or f_from is not self._last[1]:
                self._put(t_from, u_from, f_from)
        else:
            self.ascending = forward
            shape = np.shape(u_from)
            self._t = np.empty(16)
            self._u, self._f = np.empty((16,) + shape), np.empty((16,) + shape)
            self._put(t_from, u_from, f_from)
        self._put(t_to, u_to, f_to)
        self._last = (u_to, f_to)
        self._n += 1

    def _put(self, t, u, f):
        m = len(self._keys)
        if m == len(self._t):
            self._t, self._u, self._f = (np.concatenate([a, np.empty_like(a)])
                                         for a in (self._t, self._u, self._f))
        if np.shape(u) != self._u.shape[1:] or np.shape(f) != self._u.shape[1:]:
            raise ValueError(f"step values must have shape {self._u.shape[1:]}")
        self._t[m], self._u[m], self._f[m] = t, u, f
        self._keys.append(t if self.ascending else -t)

    def _domain(self) -> tuple[float, float]:
        if not self._n:
            raise ValueError("empty trajectory")
        a, b = self._t[0], self._t[len(self._keys) - 1]
        return (a, b) if self.ascending else (b, a)

    def eval(self, t: float) -> np.ndarray:
        t = float(t)
        lo, hi = self._domain()
        if t < lo or t > hi:
            end = float(lo if t < lo else hi)
            if abs(t - end) >= TIME_RTOL * max(1.0, abs(t)):
                raise ValueError(f"query t={t} outside stored domain [{lo}, {hi}]")
            t = end
        # the piece from knot i to i+1 with the last knot at or before t in
        # chain order
        keys = self._keys
        if self.ascending:
            i = max(bisect.bisect_right(keys, t, 0, len(keys) - 1) - 1, 0)
            t0, t1, j0, j1 = keys[i], keys[i + 1], i, i + 1
        else:
            i = max(bisect.bisect_right(keys, -t, 0, len(keys) - 1) - 1, 0)
            t0, t1, j0, j1 = -keys[i + 1], -keys[i], i + 1, i
        if t == t0:
            return self._u[j0].copy()
        if t == t1:
            return self._u[j1].copy()
        h = t1 - t0
        s = (t - t0) / h
        s2 = s * s
        s3 = s2 * s
        h00 = 2.0 * s3 - 3.0 * s2 + 1.0
        h10 = s3 - 2.0 * s2 + s
        h01 = -2.0 * s3 + 3.0 * s2
        h11 = s3 - s2
        u, f = self._u, self._f
        return h00 * u[j0] + (h10 * h) * f[j0] + h01 * u[j1] + (h11 * h) * f[j1]

    def eval_many(self, ts) -> np.ndarray:
        """:meth:`eval` at each time in ``ts``, one row per time, in one
        vectorised pass with the same per-row arithmetic."""
        ts = np.array(ts, dtype=float).reshape(-1)
        lo, hi = self._domain()
        off = (ts < lo) | (ts > hi)
        if np.any(off):
            ends = np.where(ts < lo, lo, hi)
            bad = off & (np.abs(ts - ends) >= TIME_RTOL * np.maximum(1.0, np.abs(ts)))
            if np.any(bad):
                raise ValueError(f"query t={ts[bad][0]} outside stored domain [{lo}, {hi}]")
            ts = np.where(off, ends, ts)
        m = len(self._keys)
        if self.ascending:
            i = np.maximum(np.searchsorted(self._t[:m - 1], ts, side="right") - 1, 0)
            j0, j1 = i, i + 1
        else:
            i = np.maximum(np.searchsorted(-self._t[:m - 1], -ts, side="right") - 1, 0)
            j0, j1 = i + 1, i
        t0, t1 = self._t[j0], self._t[j1]
        h = t1 - t0
        s = (ts - t0) / h
        s2 = s * s
        s3 = s2 * s
        col = (-1,) + (1,) * (self._u.ndim - 1)
        h00 = (2.0 * s3 - 3.0 * s2 + 1.0).reshape(col)
        h10 = ((s3 - 2.0 * s2 + s) * h).reshape(col)
        h01 = (-2.0 * s3 + 3.0 * s2).reshape(col)
        h11 = ((s3 - s2) * h).reshape(col)
        # h00 u0 + h10 f0 + h01 u1 + h11 f1, summed in that order in place
        u, f = self._u, self._f
        out, term = u[j0], np.empty((ts.size,) + u.shape[1:])
        out *= h00
        for c, v, j in ((h10, f, j0), (h01, u, j1), (h11, f, j1)):
            np.multiply(c, np.take(v, j, axis=0, out=term), out=term)
            out += term
        at_hi = ts == t1
        out[at_hi] = u[j1[at_hi]]
        at_lo = ts == t0
        out[at_lo] = u[j0[at_lo]]
        return out

    def knots(self) -> np.ndarray:
        """All step boundaries in append order (duplicates removed)."""
        t = self._t[:len(self._keys)] if self._n else np.empty(0)
        return t[np.r_[True, t[1:] != t[:-1]]] if t.size else t


# ---------------------------------------------------------------------------
# Single steps
# ---------------------------------------------------------------------------

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
    if not np.isfinite(u).all():
        raise IntegrationError(f"non-finite state at t={t}")


# ---------------------------------------------------------------------------
# Method-of-steps core
# ---------------------------------------------------------------------------

def rk4_grid(t0: float, t1: float, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The steps of fixed-step RK4 from t0 to t1, forward or backward, with
    uniform steps of at most ``h`` in size: the knots (n+1,), endpoints
    exact, and the stage times t + 0.5*h and t + h of each step [t, t_next]
    (n,), with h = t_next - t. The RK4 steppers step over these arrays, so
    they are the right-hand-side times of a solve or sweep, and its lookup
    plan is read from them."""
    span = t1 - t0
    n = max(int(np.ceil(abs(span) / h - 1e-12)), 1)
    ts = t0 + (span / n) * np.arange(n + 1)
    ts[-1] = t1
    t, step = ts[:-1], ts[1:] - ts[:-1]
    return ts, t + 0.5 * step, t + step


def _solve(rhs: Callable[[float, np.ndarray], np.ndarray], u0: np.ndarray,
           t_span: tuple[float, float], stepper: StepperSpec,
           breakpoints: Iterable[float], traj: DenseTrajectory,
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
        ts, mids, ends = rk4_grid(t0, t1, min(stepper.dt, cap))
        f = rhs(t0, u)
        for t, t_next, t_mid, t_end in zip(ts[:-1], ts[1:], mids, ends):
            h = t_next - t
            k2 = rhs(t_mid, u + 0.5 * h * f)
            k3 = rhs(t_mid, u + 0.5 * h * k2)
            k4 = rhs(t_end, u + h * k3)
            u_next = u + (h / 6.0) * (f + 2.0 * k2 + 2.0 * k3 + k4)
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


def integrate_ode(rhs: Callable[[float, np.ndarray], np.ndarray], u0: np.ndarray,
                  t_span: tuple[float, float], stepper: StepperSpec) -> DenseTrajectory:
    """Integrate u' = rhs(t, u) over t_span and return the dense solution."""
    return _solve(rhs, u0, t_span, stepper, (), DenseTrajectory())


def check_delays(delays) -> tuple[float, ...]:
    """``delays`` as a tuple of floats; they must be positive and strictly
    ascending (none is allowed)."""
    d = tuple(float(x) for x in delays)
    if any(x <= 0.0 for x in d) or any(a >= b for a, b in zip(d, d[1:])):
        raise ValueError(f"delays must be positive and strictly ascending, got {d}")
    return d


def check_window(window) -> tuple[float, float]:
    """``window`` as the floats (tau1, tau2); 0 <= tau1 <= tau2 must hold."""
    tau1, tau2 = (float(x) for x in window)
    if not 0.0 <= tau1 <= tau2:
        raise ValueError(f"window must satisfy 0 <= tau1 <= tau2, got {(tau1, tau2)}")
    return tau1, tau2


@dataclass(frozen=True)
class DdeProblem:
    """Delay problem u'(t) = rhs(t, u(t), p(t)), where the payload p(t) is
    made from the delayed states [u(t - tau_1), ..., u(t - tau_K)].

    ``delays`` must pass :func:`check_delays`. ``history`` supplies
    u(t) for one time t <= t_start and must cover
    [t_start - max(delays), t_start]. ``prepare(times, delayed)`` makes one
    payload per time from the delayed states of R right-hand-side times,
    delayed[r, k] = u(times[r] - tau_k); by default the time's (K,) + value
    array, so ``delayed[k]`` in ``rhs`` is u(t - tau_k). ``rhs`` must not
    change a payload in place: right-hand sides at one time share it.
    """

    rhs: Callable[[float, np.ndarray, object], np.ndarray]
    delays: tuple[float, ...]
    history: Callable[[float], np.ndarray]
    prepare: Callable[[np.ndarray, np.ndarray], Sequence] = lambda times, delayed: delayed

    def __post_init__(self):
        object.__setattr__(self, "delays", check_delays(self.delays))


def _breakpoints(t0: float, t1: float, delays: tuple[float, ...]):
    """The first-order breakpoints t0 + k*tau_j inside (t0, t1), lazily."""
    for tau in delays:
        k = 1
        while t0 + k * tau < t1 - 1e-12:
            yield t0 + k * tau
            k += 1


def _rk4_calls(t0: float, t1: float, h: float) -> np.ndarray:
    """The right-hand-side times of fixed-step RK4 over :func:`rk4_grid`, in
    call order: t0, then per step its midpoint twice, its end t + h and the
    next knot, whose right-hand side is the next step's first stage."""
    ts, mids, ends = rk4_grid(t0, t1, h)
    return np.concatenate([ts[:1], np.stack([mids, mids, ends, ts[1:]], axis=1).ravel()])


def integrate_dde(prob: DdeProblem, t_span: tuple[float, float],
                  stepper: StepperSpec) -> DenseTrajectory:
    """Method-of-steps DDE solve with dense output.

    Steps are capped at min(delays), so delayed lookups never read the step
    under construction. Adaptive runs also land exactly on the first-order
    breakpoints t_start + k*tau_j, where the solution's higher derivatives
    jump.

    ``prob.history`` is called with one time at a time. A fixed-step solve
    knows its right-hand-side times before it starts (:func:`rk4_grid`), so
    it prepares them a block at a time: when no payload is left, the next
    run of them whose reads all lie at or before the committed end of the
    solution has its delayed states read in one
    :meth:`DenseTrajectory.eval_many` (the history's before t_start) and
    made into payloads by one ``prob.prepare`` call, each dropped once taken
    by the last right-hand side at its time. A value before the committed
    end does not change as the solution grows, so each read equals a scalar
    :meth:`DenseTrajectory.eval` at its own time bit for bit. A time whose
    reads pass that end (by an ulp, where a step equals the smallest delay)
    is prepared alone at its own stage, the read clamped to the end, as is
    each right-hand side of an adaptive solve.
    """
    if not prob.delays:
        raise ValueError("integrate_dde: no delays; use integrate_ode")
    t0, t1 = float(t_span[0]), float(t_span[1])
    traj = DenseTrajectory()
    u0 = np.asarray(prob.history(t0), dtype=float)
    calls = reach = None
    if isinstance(stepper, RK4Fixed):
        calls = _rk4_calls(t0, t1, min(stepper.dt, prob.delays[0]))
        # the latest read of each call or of any call before it
        reach = np.maximum.accumulate(calls - prob.delays[0])
    ahead = deque()   # the payloads of the calls after the last one made
    done = 0          # calls[:done] are made or have a payload ahead

    def rhs(t: float, u: np.ndarray) -> np.ndarray:
        nonlocal done
        if not ahead:
            if calls is None:
                block = np.array([t])
            else:
                end = traj.t_end if len(traj) else t0
                stop = max(int(np.searchsorted(reach, end, side="right")), done + 1)
                block, done = calls[done:stop], stop
            new = np.r_[True, block[1:] != block[:-1]]
            lagged = np.subtract.outer(block[new], prob.delays)
            if not len(traj):   # the committed end is t0
                lagged = np.minimum(lagged, t0)
            delayed = np.empty(lagged.shape + u0.shape)
            past = lagged <= t0
            if past.any():
                delayed[past] = [prob.history(s) for s in lagged[past]]
            if not past.all():
                delayed[~past] = traj.eval_many(lagged[~past])
            payloads = prob.prepare(block[new], delayed)
            ahead.extend(payloads[i] for i in np.cumsum(new) - 1)
        return np.asarray(prob.rhs(t, u, ahead.popleft()), dtype=float)

    return _solve(rhs, u0, (t0, t1), stepper, _breakpoints(t0, t1, prob.delays), traj,
                  cap=prob.delays[0])


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


def trapezoid_weights(ts: np.ndarray) -> np.ndarray:
    """Node weights of the trapezoid rule over the nodes ``ts``: the rule is
    ``trapezoid_weights(ts) @ vals``."""
    half = np.diff(ts) / 2.0
    wts = np.zeros(len(ts))
    wts[:-1] += half
    wts[1:] += half
    return wts

