"""Augmented systems (known physics + neural closure) and their adjoints.

A closure model adds a trainable term to a known low-fidelity right-hand
side. Three memory structures are supported:

* ``Markovian``: du/dt = base(t, u) + f(u; theta), a neural ODE term;
* ``Discrete``: the closure is a recurrent network fed the state at a set of
  discrete delays, du/dt = base + f([u(t-tau_K), ..., u(t-tau_1), u(t)]; theta);
* ``Distributed``: a coupled pair where an auxiliary field y integrates a
  learned density g over a moving window [t-tau_2, t-tau_1]:
      du/dt = base(t, u) + f([u; y]; theta)
      dy/dt = g(u(t-tau_1), t-tau_1; phi) - g(u(t-tau_2), t-tau_2; phi)
      y(t0) = integral of g(h(s), s; phi) over [t0-tau_2, t0-tau_1].

With no delays the discrete closure reduces to the Markovian one, and so
does the distributed closure with a (0, 0) window. The code follows that:
one forward body solves every kind (as an ODE when it has no delays), and
one adjoint driver, :func:`adjoint_gradient`, sweeps every kind. The
kind-named entry points ``adjoint_markovian``, ``adjoint_discrete`` and
``adjoint_distributed`` reject a closure they do not model and then call it.

Gradients of data-time losses are computed by integrating adjoint variables
backward in time. The adjoint equations reference *advanced* arguments
lambda(t+tau), mu(t+tau); these are read from the backward-growing dense
store (zero at and beyond the final time). Losses enter as jumps
lambda <- lambda - dl/du applied when the sweep crosses a data time; the sign
convention is frozen against the finite-difference oracle in the tests.

All parameters of one model travel in a single flat vector: theta first,
then phi for distributed closures.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import nn
from .integrate import (
    DdeProblem,
    DenseTrajectory,
    RK4Fixed,
    StepperSpec,
    integrate_dde,
    integrate_ode,
    quadrature_nodes,
    trapezoid_weights,
)
from .linalg import Vec


# ---------------------------------------------------------------------------
# Closure models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Markovian:
    net: nn.Network


@dataclass(frozen=True)
class Discrete:
    """Recurrent closure over states at discrete delays (ascending, > 0).

    The network receives the sequence oldest first:
    [u(t - tau_K), ..., u(t - tau_1), u(t)]. K = 0 reduces to a Markovian
    closure evaluated through the recurrent cell on a one-element sequence.
    """

    net: nn.Network
    delays: tuple[float, ...]

    def __post_init__(self):
        d = tuple(float(x) for x in self.delays)
        if any(x <= 0.0 for x in d):
            raise ValueError("Discrete: delays must be positive")
        if any(d[i] >= d[i + 1] for i in range(len(d) - 1)):
            raise ValueError("Discrete: delays must be strictly ascending")
        object.__setattr__(self, "delays", d)
        if not self.net.recurrent:
            raise ValueError("Discrete closure needs a recurrent network")


@dataclass(frozen=True)
class Distributed:
    """Windowed-memory closure with auxiliary state y of dimension aux_dim.

    ``window`` is (tau_1, tau_2) with 0 <= tau_1 <= tau_2; tau_1 == tau_2
    degenerates to y frozen at its initial value (an empty moving window).
    ``history_quad_panels`` fixes the trapezoid rule used for y(t0); the
    adjoint's history term mirrors the same rule so gradients stay consistent
    with the forward computation.
    """

    f_net: nn.Network
    g_net: nn.Network
    window: tuple[float, float]
    aux_dim: int
    history_quad_panels: int = 64

    def __post_init__(self):
        t1, t2 = (float(self.window[0]), float(self.window[1]))
        if t1 < 0.0 or t2 < t1:
            raise ValueError("Distributed: need 0 <= tau_1 <= tau_2")
        object.__setattr__(self, "window", (t1, t2))
        if self.aux_dim <= 0:
            raise ValueError("Distributed: aux_dim must be positive")


ClosureModel = Markovian | Discrete | Distributed


@dataclass(frozen=True)
class AugmentedSystem:
    """base_rhs plus a neural closure acting on a flat state of state_dim.

    ``base_vjp(t, u, w)`` must return w^T d(base_rhs)/du. The closure
    networks get flat states, and a grid network reads them point-major as
    (points, channels) fields; the number of points follows from
    ``state_dim`` and the networks' state channels.
    """

    base_rhs: Callable[[float, Vec], Vec]
    closure: ClosureModel
    state_dim: int
    base_vjp: Callable[[float, Vec, Vec], Vec]

    # -- parameter bookkeeping -------------------------------------------

    @property
    def n_theta(self) -> int:
        if isinstance(self.closure, Distributed):
            return self.closure.f_net.n_params
        return self.closure.net.n_params

    @property
    def n_phi(self) -> int:
        if isinstance(self.closure, Distributed):
            return self.closure.g_net.n_params
        return 0

    @property
    def n_params(self) -> int:
        return self.n_theta + self.n_phi

    def split_params(self, params: Vec) -> tuple[Vec, Vec]:
        params = np.asarray(params, dtype=float)
        if params.shape != (self.n_params,):
            raise ValueError(
                f"params shape {params.shape}, expected ({self.n_params},)")
        return params[:self.n_theta], params[self.n_theta:]

    @property
    def aux_dim(self) -> int:
        return self.closure.aux_dim if isinstance(self.closure, Distributed) else 0

    @property
    def grid_points(self) -> int:
        """Points of the closure's fields: the state width over the state
        channels of the net, or of the g-net for distributed closures. A
        dense net reads the whole state as one point."""
        c = self.closure
        return self.state_dim // (c.g_net if isinstance(c, Distributed) else c.net).input_spec[1]

    def _f_input(self, u: Vec, y: Vec) -> Vec:
        """The distributed f-net's input: state and auxiliary field joined
        per point, flat."""
        n = self.grid_points
        return np.concatenate([u.reshape(n, -1), y.reshape(n, -1)], axis=1).ravel()

    def _split_f_input_grad(self, dx: Vec) -> tuple[Vec, Vec]:
        """The state and auxiliary parts of an f-net input cotangent."""
        n = self.grid_points
        cu = self.state_dim // n
        dx = dx.reshape(n, -1)
        return dx[:, :cu].ravel(), dx[:, cu:].ravel()

    # -- closure term evaluations ----------------------------------------

    def closure_term(self, t: float, u: Vec, theta: Vec,
                     delayed: Sequence[Vec] = (), y: Vec | None = None) -> Vec:
        """The neural contribution to du/dt at time t; ``delayed`` holds the
        states at t - tau_k in ascending delay order."""
        c = self.closure
        if isinstance(c, Markovian):
            term = nn.forward(c.net, u, theta, t)
        elif isinstance(c, Discrete):
            # the recurrent net reads the sequence oldest first
            term = nn.rnn_forward(c.net, [*reversed(delayed), u], theta, t)
        else:
            term = nn.forward(c.f_net, self._f_input(u, y), theta, t)
        if term.shape != (self.state_dim,):
            raise ValueError(
                f"closure output has {term.size} entries, state has {self.state_dim}")
        return term

    def g_eval(self, t: float, u: Vec, phi: Vec) -> Vec:
        """g(u, t; phi), flat."""
        out = nn.forward(self.closure.g_net, u, phi, t)
        self._check_g_width(out.size)
        return out

    def _check_g_width(self, size: int):
        if size != self.aux_dim:
            raise ValueError(
                f"g-network output has {size} entries, aux_dim is {self.aux_dim}")

    def history_nodes(self, t0: float) -> np.ndarray:
        """The trapezoid nodes of y(t0) over [t0 - tau_2, t0 - tau_1]."""
        tau1, tau2 = self.closure.window
        return quadrature_nodes(t0 - tau2, t0 - tau1, self.closure.history_quad_panels)


def constant_history(u0: Vec) -> Callable[[float], Vec]:
    """History callable that returns the initial state for every past time."""
    u0 = np.asarray(u0, dtype=float).copy()
    return lambda t: u0


# ---------------------------------------------------------------------------
# Forward solves
# ---------------------------------------------------------------------------


@dataclass
class ForwardRun:
    """Forward solution of an augmented system plus the context the adjoint
    needs: the original history callable, the state/aux split and, for a
    windowed distributed closure, the one g-network tape of the y(t0)
    trapezoid nodes, batched in node order."""

    traj: DenseTrajectory
    t0: float
    t1: float
    u_dim: int
    aux_dim: int
    history: Callable[[float], Vec] | None
    history_tape: nn.Tape | None = None

    def u_at(self, t: float) -> Vec:
        if t < self.t0:
            if self.history is None:
                raise ValueError(f"state requested at t={t} before start without history")
            return np.asarray(self.history(t), dtype=float)
        return self.traj.eval(t)[:self.u_dim]

    def y_at(self, t: float) -> Vec:
        if self.aux_dim == 0:
            return np.zeros(0)
        return self.traj.eval(t)[self.u_dim:]


def forward_augmented(sys: AugmentedSystem, params: Vec, t_span: tuple[float, float],
                      stepper: StepperSpec,
                      history: Callable[[float], Vec] | None = None,
                      u0: Vec | None = None) -> ForwardRun:
    """Solve the augmented system over t_span.

    ``history`` supplies u(t) for t <= t_span start; required whenever the
    closure looks into the past. ``u0`` overrides the initial state (defaults
    to history at the start, or must be given for Markovian closures).

    Every closure kind gives its augmented initial state U0, its positive
    delays and rhs(t, U, delayed), where ``delayed`` holds U at t - tau in
    ascending delay order. A closure without delays is solved as an ODE.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    theta, phi = sys.split_params(params)
    c = sys.closure
    n = sys.state_dim

    if u0 is None:
        if history is None:
            raise ValueError("forward_augmented needs u0 or a history callable")
        u0 = np.asarray(history(t0), dtype=float)
    else:
        u0 = np.asarray(u0, dtype=float)
    if u0.shape != (n,):
        raise ValueError(f"u0 shape {u0.shape}, expected ({n},)")

    hist_tape = None
    if isinstance(c, Distributed):
        tau1, tau2 = c.window
        windowed = tau2 > tau1
        delays = tuple(sorted({tau1, tau2} - {0.0})) if windowed else ()
        if not windowed:
            y0 = np.zeros(sys.aux_dim)
        elif history is None:
            raise ValueError("distributed closure needs a history callable")
        else:
            # y(t0) by the trapezoid rule, all nodes through one g tape
            ts = sys.history_nodes(t0)
            hist_tape = nn.tape(c.g_net, nn.stack(c.g_net, [history(s) for s in ts]),
                                phi, ts)
            g_nodes = hist_tape.y.reshape(ts.size, -1)
            sys._check_g_width(g_nodes.shape[1])
            y0 = trapezoid_weights(ts) @ g_nodes
        U0 = np.concatenate([u0, y0])

        def rhs(t, U, delayed=()):
            u, y = U[:n], U[n:]
            du = sys.base_rhs(t, u) + sys.closure_term(t, u, theta, y=y)
            if windowed:
                u1 = u if tau1 == 0.0 else delayed[0][:n]
                dy = sys.g_eval(t - tau1, u1, phi) - sys.g_eval(t - tau2, delayed[-1][:n], phi)
            else:
                dy = np.zeros(sys.aux_dim)
            return np.concatenate([du, dy])
    else:
        delays = c.delays if isinstance(c, Discrete) else ()
        if delays and history is None:
            raise ValueError("discrete-delay closure needs a history callable")
        U0 = u0

        def rhs(t, u, delayed=()):
            return sys.base_rhs(t, u) + sys.closure_term(t, u, theta, delayed)

    if delays:
        def hist(s):
            # the closures read only the state part of a delayed value
            return U0 if s >= t0 else np.asarray(history(s), dtype=float)

        traj = integrate_dde(DdeProblem(rhs=rhs, delays=delays, history=hist),
                             (t0, t1), stepper)
    else:
        traj = integrate_ode(rhs, U0, (t0, t1), stepper)
    return ForwardRun(traj, t0, t1, n, sys.aux_dim, history, hist_tape)


# ---------------------------------------------------------------------------
# Adjoint sweeps
# ---------------------------------------------------------------------------


@dataclass
class AdjointRun:
    """Backward adjoint solution and the assembled parameter gradient.

    ``adjoint_traj`` stores the adjoint state over [t0, T] (state adjoint
    lambda, then the auxiliary adjoint mu for distributed closures); queries
    at t >= T return zero by construction.
    """

    adjoint_traj: DenseTrajectory
    t0: float
    t_final: float
    u_dim: int
    aux_dim: int
    grad: Vec
    n_theta: int

    @property
    def grad_theta(self) -> Vec:
        return self.grad[:self.n_theta]

    @property
    def grad_phi(self) -> Vec:
        return self.grad[self.n_theta:]

    def lam_at(self, t: float) -> Vec:
        if t >= self.t_final:
            return np.zeros(self.u_dim)
        return self.adjoint_traj.eval(t)[:self.u_dim]

    def mu_at(self, t: float) -> Vec:
        if t >= self.t_final:
            return np.zeros(self.aux_dim)
        return self.adjoint_traj.eval(t)[self.u_dim:]


def _loss_jumps(run: ForwardRun, dataset, loss_spec):
    """Data times (ascending) and dL/du(T_i) cotangents from the forward run."""
    times = np.asarray(dataset.times, dtype=float)
    targets = np.asarray(dataset.states, dtype=float)
    if times.ndim != 1 or targets.shape != (times.size, run.u_dim):
        raise ValueError("dataset shapes inconsistent with the forward run")
    tol = 1e-9 * max(1.0, abs(run.t1))
    if np.any(times <= run.t0 + tol) or np.any(times > run.t1 + tol):
        raise ValueError("dataset times must lie in (t0, T]")
    # the jump times are the sweep's knots, so one an ulp past T is T
    times = np.minimum(times, run.t1)
    order = np.argsort(times)
    times = times[order]
    targets = targets[order]
    preds = run.traj.eval_many(times)[:, :run.u_dim]
    cots = np.asarray(loss_spec.cotangents(preds, targets), dtype=float)
    if cots.shape != preds.shape:
        raise ValueError("loss cotangents must match prediction shape")
    return times, cots


# Relative tolerance under which two sweep times are the same time on paper.
_TIME_RTOL = 1e-9


def _same_time(s: float, t: float) -> bool:
    return abs(s - t) <= _TIME_RTOL * max(1.0, abs(t))


def _backward_sweep(dim, t0, T, jump_times, jump_vals, rhs_adj, integrand, dt,
                    shifts=()):
    """Fixed-step RK4 sweep from T down to t0 with jumps and running trapezoid.

    rhs_adj(t, a, look) gives the adjoint time derivative; ``look`` reads
    already-computed adjoint values at the advanced times t + tau, tau in the
    positive ``shifts``, so no step exceeds the smallest shift. The adjoint
    state jumps at data times, so the advanced lookups are one-sided there:
    stages at a step's upper knot take the limit from below (the stored
    post-jump value), the final stage at the lower knot takes the limit from
    above (jump added back). Every time where an advanced argument crosses a
    jump (data time minus shift) is a step boundary, so that discontinuities
    of the adjoint RHS land exactly on step boundaries; without this the
    sweep degrades to first order. ``integrand(t, a)`` returns the flat
    gradient integrand accumulated by the trapezoid rule on the backward
    knots. At every knot ``integrand(t, a)`` is called before the stage-1
    ``rhs_adj(t, a, look)`` of the step leaving it, with the same ``a``, so
    a caller's tape cache serves stage 1 from the integrand's full reverse
    pass. Returns (DenseTrajectory, integral).
    """
    store = DenseTrajectory()
    a = np.zeros(dim)
    total = None
    u_dim = jump_vals.shape[1]

    jump_map = {}
    for t, g in zip(jump_times, jump_vals):
        jump_map.setdefault(float(t), np.zeros(u_dim))
        jump_map[float(t)] += g
    special = sorted(set(jump_map) | {float(T)})

    def _snap(s):
        for tj in special:
            if _same_time(s, tj):
                return tj
        return s

    def look_below(s):
        """lambda(s-): post-jump values, zero strictly beyond T."""
        s = _snap(s)
        if s > T or not len(store):
            return np.zeros(dim)
        return store.eval(s)

    def look_above(s):
        """lambda(s+): pre-jump values, zero at and beyond T."""
        s = _snap(s)
        if s >= T:
            return np.zeros(dim)
        v = store.eval(s)
        if s in jump_map:
            v = v.copy()
            v[:u_dim] += jump_map[s]
        return v

    # segment boundaries: jump times plus the advanced-crossing stops
    eps_t = _TIME_RTOL * max(1.0, abs(T))
    bounds = {float(t0), float(T)} | set(jump_map)
    for s in (tj - tau for tj in jump_times for tau in shifts):
        s = float(s)
        if t0 + eps_t < s < T - eps_t and all(abs(s - b) > eps_t for b in bounds):
            bounds.add(s)
    knots = sorted(bounds)
    h_max = min((dt, *shifts))

    t_hi = knots[-1]
    if t_hi in jump_map:
        a = a.copy()
        a[:u_dim] -= jump_map[t_hi]
    for seg_lo in reversed(knots[:-1]):
        span = t_hi - seg_lo
        n = max(int(np.ceil(span / h_max - 1e-12)), 1)
        ts = t_hi - (span / n) * np.arange(n + 1)
        ts[-1] = seg_lo
        m_prev = integrand(t_hi, a)
        if total is None:
            total = np.zeros_like(m_prev)
        for t, t_next in zip(ts[:-1], ts[1:]):
            h = t_next - t  # negative
            f1 = rhs_adj(t, a, look_below)
            f2 = rhs_adj(t + 0.5 * h, a + 0.5 * h * f1, look_below)
            f3 = rhs_adj(t + 0.5 * h, a + 0.5 * h * f2, look_below)
            f4 = rhs_adj(t_next, a + h * f3, look_above)
            a_next = a + (h / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
            store.append(t, t_next, a, a_next, f1, f4)
            a = a_next
            m_now = integrand(t_next, a)
            total += 0.5 * (t - t_next) * (m_prev + m_now)
            m_prev = m_now
        t_hi = seg_lo
        if t_hi in jump_map and t_hi > t0:
            a = a.copy()
            a[:u_dim] -= jump_map[t_hi]
    return store, total


def _require_rk4(stepper) -> float:
    if not isinstance(stepper, RK4Fixed):
        raise ValueError("adjoint sweeps are fixed-step RK4; pass RK4Fixed(dt)")
    return stepper.dt


def _memo(fn):
    """``fn`` of a float time, computed once per exact time value."""
    seen = {}

    def at(t):
        v = seen.get(t)
        if v is None:
            v = seen[t] = fn(t)
        return v
    return at


class _StageTapes:
    """The tapes and reverse passes of one network over one adjoint sweep.

    ``x_of(t)`` gives the network input at time t; within a sweep it depends
    on t alone (forward state, delayed states, auxiliary field), so a tape is
    built once per exact float stage time and shared by every RK4 stage,
    advanced term and trapezoid node that evaluates the network there. A
    reverse pass is kept per (time, cotangent bytes); a full pass also answers
    an input-only request with the same cotangent. Any miss computes fresh, so
    every result equals that of a fresh ``nn.vjp`` at its time bit for bit;
    a caller that passes a time through :meth:`snap` first gets the stored
    tape of the stage time it equals on paper.
    """

    def __init__(self, net: nn.Network, params: Vec, x_of: Callable):
        self.net, self.params, self.x_of = net, params, x_of
        self._tapes: dict = {}
        self._passes: dict = {}
        self._times: list = []  # the tape times, ascending

    def tape(self, t: float) -> nn.Tape:
        tp = self._tapes.get(t)
        if tp is None:
            tp = self._tapes[t] = nn.tape(self.net, self.x_of(t), self.params, t)
            bisect.insort(self._times, t)
        return tp

    def snap(self, t: float) -> float:
        """The time of an existing tape that ``t`` equals within the sweep's
        time tolerance (an advanced time t + tau that rounding moved off a
        stage time), else ``t``."""
        i = bisect.bisect_left(self._times, t)
        for known in self._times[max(i - 1, 0):i + 1]:
            if _same_time(t, known):
                return known
        return t

    def input_grad(self, t: float, w: Vec):
        """d(w . net)/dx at time t (a list for recurrent networks)."""
        key = (t, w.tobytes())
        done = self._passes.get(key)
        if done is None:
            tp = self.tape(t)
            done = self._passes[key] = (nn.backward_input(tp, w), None)
        return done[0]

    def param_grad(self, t: float, w: Vec) -> Vec:
        """d(w . net)/dparams at time t, keeping the input cotangent too."""
        key = (t, w.tobytes())
        done = self._passes.get(key)
        if done is None or done[1] is None:
            tp = self.tape(t)
            done = self._passes[key] = nn.backward(tp, w)
        return done[1]


def adjoint_gradient(sys: AugmentedSystem, params: Vec, run: ForwardRun,
                     dataset, loss_spec, stepper: StepperSpec) -> AdjointRun:
    """The adjoint sweep of every closure kind.

    With F = base + closure, the state adjoint lambda and, for a distributed
    closure, the auxiliary adjoint mu obey
        d lambda^T/dt = -lambda^T(t) d_u F(t)
                        - sum_k lambda^T(t+tau_k) d_{u(t)} F(t+tau_k)
                        - mu^T(t+tau_1) d_u g(u(t), t) + mu^T(t+tau_2) d_u g(u(t), t)
        d mu^T/dt = -lambda^T d_y f.
    The k-th advanced term (discrete delays) differentiates F at the shifted
    time with respect to its tau_k-delayed input slot; the g terms belong to
    a windowed distributed closure. A Markovian closure is the case with no
    delays and no g. The phi-gradient combines the moving-window integrand
    with the history term -mu^T(t0) * d_phi y(t0), evaluated with the same
    trapezoid rule the forward solve used for y(t0), as one reverse pass of
    the batched g-network tape that solve kept.
    """
    dt = _require_rk4(stepper)
    theta, phi = sys.split_params(params)
    c = sys.closure
    times, cots = _loss_jumps(run, dataset, loss_spec)
    T, n = run.t1, run.u_dim
    u_at = _memo(run.u_at)

    # the f-network's tapes, the cotangents of its current input slot
    # (state, auxiliary field or None) and the shifts the sweep reads ahead
    delays, g_tapes, windowed = (), None, False
    if isinstance(c, Distributed):
        tau1, tau2 = c.window
        windowed = tau2 > tau1
        shifts = sorted({tau1, tau2} - {0.0}) if windowed else ()
        f_tapes = _StageTapes(c.f_net, theta,
                              lambda t: sys._f_input(u_at(t), run.y_at(t)))
        g_tapes = _StageTapes(c.g_net, phi, u_at)
        current = sys._split_f_input_grad
    elif isinstance(c, Discrete):
        delays = shifts = c.delays
        K = len(delays)

        def seq_at(s):
            # oldest first: u(s - tau_K), ..., u(s - tau_1), u(s)
            return [u_at(s - tau) for tau in reversed(delays)] + [u_at(s)]

        f_tapes = _StageTapes(c.net, theta, seq_at)

        def current(dxs):
            return dxs[K], None
    else:
        shifts = ()
        f_tapes = _StageTapes(c.net, theta, u_at)

        def current(dx):
            return dx, None

    def rhs_adj(t, a, look):
        lam = a[:n]
        fu, fy = current(f_tapes.input_grad(t, lam))
        acc = sys.base_vjp(t, u_at(t), lam) + fu
        for k, tau in enumerate(delays, start=1):
            lam_adv = look(t + tau)[:n]
            if np.any(lam_adv):
                acc = acc + f_tapes.input_grad(f_tapes.snap(t + tau), lam_adv)[K - k]
        dlam = -acc
        if windowed:
            mu1 = a[n:] if tau1 == 0.0 else look(t + tau1)[n:]
            if np.any(mu1):
                dlam = dlam - g_tapes.input_grad(t, mu1)
            mu2 = look(t + tau2)[n:]
            if np.any(mu2):
                dlam = dlam + g_tapes.input_grad(t, mu2)
        return dlam if fy is None else np.concatenate([dlam, -fy])

    def integrand(t, a):
        dth = f_tapes.param_grad(t, a[:n])
        if g_tapes is None:
            return dth
        mu = a[n:]
        if windowed:
            dphi = g_tapes.param_grad(t - tau1, mu) - g_tapes.param_grad(t - tau2, mu)
        else:
            dphi = np.zeros(sys.n_phi)
        return np.concatenate([dth, dphi])

    store, integral = _backward_sweep(n + run.aux_dim, run.t0, T, times, cots,
                                      rhs_adj, integrand, dt, shifts)
    grad = -integral

    if windowed:
        # history term: -mu^T(t0) d_phi y(t0)
        mu0 = store.eval(run.t0)[n:]
        if np.any(mu0):
            grad[sys.n_theta:] -= history_param_grad(sys, run, mu0)
    return AdjointRun(store, run.t0, T, n, run.aux_dim, grad, sys.n_theta)


def history_param_grad(sys: AugmentedSystem, run: ForwardRun, mu0: Vec) -> Vec:
    """d_phi of mu0 . y(t0), with y(t0) = sum_i w_i g(h(s_i), s_i; phi) the
    forward's trapezoid rule: one reverse pass of its batched g tape, with
    cotangent row w_i mu0 for node i."""
    if run.history_tape is None:
        raise ValueError("forward run kept no y(t0) tape for this closure")
    wts = trapezoid_weights(sys.history_nodes(run.t0))
    return nn.backward(run.history_tape, wts[:, None] * mu0)[1]


def adjoint_markovian(sys: AugmentedSystem, params: Vec, run: ForwardRun,
                      dataset, loss_spec, stepper: StepperSpec) -> AdjointRun:
    """Plain no-delay adjoint, d lambda/dt = -(d_u F)^T lambda, for a
    Markovian closure or a Discrete one without delays."""
    c = sys.closure
    if not (isinstance(c, Markovian) or (isinstance(c, Discrete) and not c.delays)):
        raise ValueError(
            "adjoint_markovian needs a Markovian closure or a Discrete one without delays")
    return adjoint_gradient(sys, params, run, dataset, loss_spec, stepper)


def adjoint_discrete(sys: AugmentedSystem, params: Vec, run: ForwardRun,
                     dataset, loss_spec, stepper: StepperSpec) -> AdjointRun:
    """Adjoint for discrete-delay closures, with the advanced arguments."""
    if not isinstance(sys.closure, Discrete):
        raise ValueError("adjoint_discrete needs a Discrete closure")
    return adjoint_gradient(sys, params, run, dataset, loss_spec, stepper)


def adjoint_distributed(sys: AugmentedSystem, params: Vec, run: ForwardRun,
                        dataset, loss_spec, stepper: StepperSpec) -> AdjointRun:
    """Coupled (lambda, mu) adjoint for distributed closures."""
    if not isinstance(sys.closure, Distributed):
        raise ValueError("adjoint_distributed needs a Distributed closure")
    return adjoint_gradient(sys, params, run, dataset, loss_spec, stepper)


# ---------------------------------------------------------------------------
# Loss evaluation and the finite-difference oracle
# ---------------------------------------------------------------------------


def run_loss(sys: AugmentedSystem, params: Vec, t_span, dataset, loss_spec,
             stepper: StepperSpec, history=None, u0=None):
    """Forward solve + total loss on the dataset times. Returns (loss, run)."""
    run = forward_augmented(sys, params, t_span, stepper, history=history, u0=u0)
    preds = run.traj.eval_many(dataset.times)[:, :run.u_dim]
    return float(loss_spec.total(preds, np.asarray(dataset.states, dtype=float))), run


def fd_gradient(sys: AugmentedSystem, params: Vec, t_span, dataset, loss_spec,
                stepper: StepperSpec, history=None, u0=None,
                eps: float = 1e-5) -> Vec:
    """Central-difference gradient of the total loss; the adjoint oracle.

    Cost is two forward solves per parameter: keep parameter counts small.
    """
    params = np.asarray(params, dtype=float)
    grad = np.zeros_like(params)
    for i in range(params.size):
        pp, pm = params.copy(), params.copy()
        pp[i] += eps
        pm[i] -= eps
        lp, _ = run_loss(sys, pp, t_span, dataset, loss_spec, stepper, history, u0)
        lm, _ = run_loss(sys, pm, t_span, dataset, loss_spec, stepper, history, u0)
        grad[i] = (lp - lm) / (2.0 * eps)
    return grad
