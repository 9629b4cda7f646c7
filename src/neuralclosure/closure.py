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
each closure class states once what its kind adds (its networks, the lags
its right-hand side reads, the f-network input and the split of its
cotangent, and its description for checkpoints), one forward body solves
every kind (as an ODE when it has no lags), and one adjoint function,
:func:`adjoint_gradient`, sweeps every kind. ``adjoint_markovian``,
``adjoint_discrete`` and ``adjoint_distributed`` are other names for it.

Forward solves and adjoint sweeps are fixed-step RK4, so each reads only
times it planned before it starts. Gradients of data-time losses are
computed by integrating adjoint variables backward in time. The adjoint
equations reference *advanced* arguments lambda(t+tau), mu(t+tau); these are
read from the backward-growing dense store, or, for the limit from above at
a knot, as the value the step ending there reached. Losses enter as jumps
lambda <- lambda - dl/du applied when the sweep crosses a data time; the
sign convention is frozen against the finite-difference oracle in the
tests. A sweep is planned before it starts: each stage time's advanced
reads, snapped once onto the sweep's times and left out past the final time
T, where the adjoint is zero (the limit from above at T has no value and
runs no pass), and every network input, read from the forward run. So a
sweep tapes each network once, over all the times it reads times all
members, runs each RK4 stage's input-only pass on that time's rows, and
takes the parameter gradient as one full reverse pass per network over the
trapezoid-weighted adjoints of the knots.

All parameters of one model travel in a single flat vector, one block per
network of the closure's ``nets``: theta first, then phi for distributed
closures. A forward solve and an adjoint sweep each decode it once into
per-layer views and hand those to every network pass; a forward solve also
builds each network's plain-forward plan (:class:`nn.Plan`) once, which
every right-hand side runs; what depends only on delayed states runs once
per block of right-hand-side times (``prepare``).

A solve may carry a batch of B members in lockstep: states (B, d) on one
shared clock, the first member's time. Member b starts at t0_b, so its time
is the clock plus t0_b - t0_0, and that (B,) array is what the physics reads
(base right-hand sides, context channels, history before the start). A
single trajectory has no member axis and runs on its own time, offset 0.0;
its history is read the same way, by one call over a 1-D array of times.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import nn
from .integrate import (
    DdeProblem,
    DenseTrajectory,
    RK4Fixed,
    StepperSpec,
    TIME_RTOL,
    _rk4_calls,
    check_delays,
    check_window,
    integrate_dde,
    integrate_ode,
    quadrature_nodes,
    rk4_grid,
    trapezoid_weights,
)
from .linalg import Vec


# ---------------------------------------------------------------------------
# Closure models
# ---------------------------------------------------------------------------


HISTORY_QUAD_PANELS = 64   # trapezoid panels of a distributed closure's y(t0)


def _nums(xs) -> str:
    return ",".join(format(x, ".17g") for x in xs)


class _Closure:
    """What the solvers ask of a closure kind, with the Markovian answers as
    defaults: ``nets``, its networks in parameter order (theta, then phi);
    ``lags``, the positive lags its right-hand side reads (the forward
    solve's delays and the adjoint's shifts); ``f_lags``, those the
    f-network reads, each with an advanced adjoint term; the f-network's
    input, its output ``f_term`` and the split of its cotangent. A kind with
    lags gives ``prepare(times, delayed, plans)``: from R member times
    (R,) + members and the states at t - tau, (R, K) + members + (dim,), one
    payload per time for its right-hand side. Each kind also gives
    ``aux_dim``, the width of its auxiliary field, and ``describe()``.
    """

    lags = f_lags = ()

    @property
    def nets(self) -> tuple:
        return (self.net,)

    def f_input(self, U: Vec, delayed=()) -> np.ndarray:
        """The f-network input from the augmented state U = [u; y] at a time
        t and ``delayed``, the states at t - tau for tau in ``f_lags``
        stacked along a leading axis."""
        return nn.fields(self.net, U)

    def f_term(self, t, U: Vec, theta, prepared=None) -> np.ndarray:
        """The f-network at t on U, given the payload (None without lags)."""
        return nn.forward(self.nets[0], self.f_input(U), theta, t)

    def f_input_grad(self, dx, lead: tuple, k: int = 0) -> tuple[Vec, Vec | None]:
        """A cotangent of the f-network input as flat rows, one per member:
        its part on the state at t - f_lags[k - 1] (k >= 1), or on the
        current state and the auxiliary field (None without one)."""
        return dx.reshape(lead + (-1,)), None


@dataclass(frozen=True)
class Markovian(_Closure):
    net: nn.Network
    aux_dim = 0

    def describe(self) -> str:
        return "markovian|" + self.net.describe()


@dataclass(frozen=True)
class Discrete(_Closure):
    """Recurrent closure over states at discrete delays (ascending, > 0).

    The network receives the sequence oldest first:
    [u(t - tau_K), ..., u(t - tau_1), u(t)]. K = 0 reduces to a Markovian
    closure evaluated through the recurrent cell on a one-element sequence.
    """

    net: nn.Network
    delays: tuple[float, ...]
    aux_dim = 0

    def __post_init__(self):
        object.__setattr__(self, "delays", check_delays(self.delays))
        if not self.net.recurrent:
            raise ValueError("Discrete closure needs a recurrent network")

    @property
    def lags(self) -> tuple[float, ...]:
        return self.delays

    f_lags = lags

    def describe(self) -> str:
        return f"discrete[{_nums(self.delays)}]|" + self.net.describe()

    def f_input(self, U, delayed=()):
        # the sequence, oldest (the last delay) first
        delayed = np.reshape(delayed, (-1,) + np.shape(U))
        return nn.fields(self.net, np.concatenate([delayed[::-1], U[None]]))

    def prepare(self, times, delayed, plans):
        """The recurrent cell's pre-activation after the delayed elements of
        each time's sequence, for the block in one pass (:meth:`nn.Plan.prefix`)."""
        return plans[0].prefix(nn.fields(self.net, delayed[:, ::-1]))

    def f_term(self, t, U, theta, prepared=None):
        # U after the prepared prefix row; without delays the sequence is U
        x = self.f_input(U) if prepared is None else nn.fields(self.net, U)
        return nn.rnn_forward(self.net, x, theta, t, prepared)

    def f_input_grad(self, dx, lead, k=0):
        # the sequence cotangent, oldest first like the sequence
        return dx[len(self.delays) - k].reshape(lead + (-1,)), None


@dataclass(frozen=True)
class Distributed(_Closure):
    """Windowed-memory closure with auxiliary state y of dimension aux_dim.

    ``window`` is (tau_1, tau_2) and must pass :func:`check_window`; tau_1 ==
    tau_2 degenerates to y frozen at its initial value (an empty moving window).
    y(t0) is the trapezoid rule on :data:`HISTORY_QUAD_PANELS` panels; the
    adjoint's history term mirrors the same rule so gradients stay consistent
    with the forward computation.
    """

    f_net: nn.Network
    g_net: nn.Network
    window: tuple[float, float]
    aux_dim: int

    def __post_init__(self):
        object.__setattr__(self, "window", check_window(self.window))
        if self.aux_dim <= 0:
            raise ValueError("Distributed: aux_dim must be positive")

    @property
    def nets(self) -> tuple:
        return (self.f_net, self.g_net)

    @property
    def lags(self) -> tuple[float, ...]:
        """The window edges read by g; none for an empty window."""
        tau1, tau2 = self.window
        return tuple(sorted({tau1, tau2} - {0.0})) if tau2 > tau1 else ()

    def describe(self) -> str:
        return (f"distributed[{_nums(self.window)};aux={self.aux_dim}]"
                f"|f:{self.f_net.describe()}|g:{self.g_net.describe()}")

    def f_input(self, U, delayed=()):
        # state and auxiliary field joined per point: the state's fields
        # with the auxiliary channels after its own
        uf = nn.fields(self.g_net, U[..., :-self.aux_dim])
        return np.concatenate([uf, U[..., -self.aux_dim:].reshape(uf.shape[:-1] + (-1,))],
                              axis=-1)

    def f_input_grad(self, dx, lead, k=0):
        cu = self.g_net.input_spec[1]
        return dx[..., :cu].reshape(lead + (-1,)), dx[..., cu:].reshape(lead + (-1,))

    def prepare(self, times, delayed, plans):
        """g at the delayed window edges of each time, for the block in one
        pass (:meth:`nn.Plan.stacked`): g(u(t - tau_2), t - tau_2), or the
        whole rate when tau_1 > 0 too; one row per time, flat per member."""
        x = nn.fields(self.g_net, delayed[..., :-self.aux_dim])
        ts = np.stack([times - tau for tau in self.lags], axis=1)
        g = plans[1].stacked(x.reshape((-1,) + x.shape[2:]), ts.reshape((-1,) + ts.shape[2:]))
        g = g.reshape(ts.shape + (-1,))
        return g[:, 0] - g[:, 1] if self.window[0] > 0.0 else g[:, 0]

    def aux_rate(self, t, u: Vec, prepared, phi) -> Vec:
        """dy/dt = g(u(t - tau_1), t - tau_1) - g(u(t - tau_2), t - tau_2),
        zero over an empty window; ``prepared`` is the time's row of
        :meth:`prepare`, so g runs here only on u(t), when tau_1 = 0."""
        tau1, tau2 = self.window
        if tau2 == tau1:
            return np.zeros(u.shape[:-1] + (self.aux_dim,))
        if tau1 > 0.0:
            return prepared
        return nn.forward(self.g_net, nn.fields(self.g_net, u), phi, t).reshape(
            prepared.shape) - prepared

    def history_nodes(self, t0: float) -> np.ndarray:
        """The trapezoid nodes of y(t0) over [t0 - tau_2, t0 - tau_1]."""
        tau1, tau2 = self.window
        return quadrature_nodes(t0 - tau2, t0 - tau1, HISTORY_QUAD_PANELS)


ClosureModel = Markovian | Discrete | Distributed


@dataclass(frozen=True)
class AugmentedSystem:
    """base_rhs plus a neural closure acting on a flat state of state_dim.

    ``base_vjp(t, u, w)`` must return w^T d(base_rhs)/du. Both take one
    state (d,) at one time, or a batch (B, d) with one time per member (B,).
    The closure networks read flat states point-major as (points, channels)
    fields (:func:`nn.fields`) when they are grid networks. Their output
    widths are checked here, once: f writes state_dim entries and g aux_dim.

    ``forcing`` and ``context`` hold the time-forcing tables that the base
    and the f-network read (:class:`models.column.ForcingTable`): a forward
    solve fills both, a sweep ``forcing`` (its f-network is one tape).
    """

    base_rhs: Callable[[float, Vec], Vec]
    closure: ClosureModel
    state_dim: int
    base_vjp: Callable[[float, Vec, Vec], Vec]
    forcing: tuple = ()
    context: tuple = ()

    def __post_init__(self):
        nets = self.closure.nets
        # the last network reads the state's fields: f, or the g of a
        # distributed closure, whose layout f shares
        kind, ch = nets[-1].input_spec
        points = 1 if kind == "dense" else self.state_dim // ch
        wants = ((self.state_dim, "closure output has {} entries, state has {}"),
                 (self.aux_dim, "g-network output has {} entries, aux_dim is {}"))
        for net, (want, msg) in zip(nets, wants):
            kind, ch = net.output_spec
            size = ch if kind == "dense" else points * ch
            if size != want:
                raise ValueError(msg.format(size, want))

    @property
    def n_theta(self) -> int:
        return self.closure.nets[0].n_params

    @property
    def n_params(self) -> int:
        return sum(net.n_params for net in self.closure.nets)

    @property
    def aux_dim(self) -> int:
        return self.closure.aux_dim

    def decode(self, params: Vec) -> tuple:
        """Each network's block of the flat vector as its per-layer views
        (:meth:`nn.Network.unpack`), in ``nets`` order: theta, then phi."""
        params = np.asarray(params, dtype=float)
        if params.shape != (self.n_params,):
            raise ValueError(
                f"params shape {params.shape}, expected ({self.n_params},)")
        nets = self.closure.nets
        blocks = np.split(params, np.cumsum([net.n_params for net in nets])[:-1])
        return tuple(net.unpack(p) for net, p in zip(nets, blocks))

    def closure_term(self, t, U: Vec, theta, prepared=None) -> Vec:
        """The neural contribution to du/dt at time t from the augmented
        state U and the right-hand side's payload ``prepared`` (the
        closure's ``prepare``; None without lags). ``theta`` is the flat
        vector, its views (:meth:`decode`) or their :class:`nn.Plan`, which
        a payload requires."""
        term = self.closure.f_term(t, U, theta, prepared)
        return term.reshape(U[..., :self.state_dim].shape)


# The history contract: a 1-D array of times gives one row per time.
History = Callable[[np.ndarray], np.ndarray]


def constant_history(u0: Vec) -> History:
    """History that holds the initial state at every past time."""
    u0 = np.asarray(u0, dtype=float).copy()
    return lambda ts: np.broadcast_to(u0, np.shape(ts) + u0.shape)


def _read_history(history: History, times, offsets) -> np.ndarray:
    """``history`` at each clock time in ``times`` for every member, one row
    block per time ((len(times),) + members + (d,)), from one call over the
    flat 1-D array of member times (clock time plus offset)."""
    rows = np.asarray(history(np.add.outer(times, offsets).ravel()), dtype=float)
    return rows.reshape(np.shape(times) + np.shape(offsets) + rows.shape[1:])


# ---------------------------------------------------------------------------
# Forward solves
# ---------------------------------------------------------------------------


def _require_rk4(stepper) -> float:
    if not isinstance(stepper, RK4Fixed):
        raise ValueError("augmented solves and their adjoint sweeps are fixed-step RK4; "
                         "pass RK4Fixed(dt)")
    return stepper.dt


@dataclass
class ForwardRun:
    """Forward solution of an augmented system plus the context the adjoint
    needs: the original history callable, the state/aux split and, for a
    windowed distributed closure, the one g-network tape of the y(t0)
    trapezoid nodes, batched node-major (then member).

    ``traj`` runs on the solve's clock from ``t0`` to ``t1``; ``offsets``
    are the members' start times minus ``t0`` ((B,), first entry 0), or 0.0
    for a single trajectory, so a member's time is the clock plus its offset.
    States before ``t0`` come from ``history`` (:data:`History`), called
    only with a 1-D array of member times.
    """

    traj: DenseTrajectory
    t0: float
    t1: float
    u_dim: int
    aux_dim: int
    history: History | None
    history_tape: nn.Tape | None = None
    offsets: np.ndarray | float = 0.0

    @property
    def lead(self) -> tuple:
        """The member axis of the states: (B,), or () for one trajectory."""
        return np.shape(self.offsets)

    def states_at(self, times) -> list:
        """The state at each of the ascending clock times ``times``, for
        every member, one entry per time: before ``t0`` the history's u, in
        one call; from ``t0`` on the solution's [u; y], in one
        :meth:`DenseTrajectory.eval_many`."""
        times = np.asarray(times, dtype=float)
        k = int(np.searchsorted(times, self.t0))
        past = []
        if k:
            if self.history is None:
                raise ValueError(f"state requested at t={times[0]} before start without history")
            past = list(_read_history(self.history, times[:k], self.offsets))
        return past + list(self.traj.eval_many(times[k:])) if k < times.size else past

    def u_at(self, t: float) -> Vec:
        """The state at clock time t, from the history before ``t0``."""
        return self.states_at([t])[0][..., :self.u_dim]


def forward_augmented(sys: AugmentedSystem, params: Vec, t_span, stepper: StepperSpec,
                      history: History | None = None,
                      u0: Vec | None = None) -> ForwardRun:
    """Solve the augmented system over t_span.

    ``history`` supplies u(t) for t <= t_span start; required whenever the
    closure looks into the past. ``u0`` overrides the initial state (defaults
    to history at the start, or must be given for Markovian closures).

    A batch of B members solved in lockstep gives t_span as two (B,) arrays
    of start and end times, all spanning the same length, and ``u0`` as
    (B, d). ``history`` keeps the history contract (:data:`History`): it
    is called only with a 1-D array of times (a single trajectory's, or
    every member's) and gives one row per time.

    One right-hand side rhs(t, U, prepared) serves every closure kind, with
    ``prepared`` the payload the closure's ``prepare`` made from U at
    t - tau for tau in its ``lags``, for a block of right-hand-side times at
    once (:func:`integrate.integrate_dde`). A closure without lags is solved
    as an ODE. The solve is fixed-step RK4, like the adjoint sweep
    (``stepper`` must be :class:`RK4Fixed`), so its right-hand-side times
    are known before it starts, and with them every time it reads, each of
    them minus each lag: u0 when it is not given, the reads before t0 and
    the y(t0) nodes are one ``history`` call, and the solve reads them by
    exact time. Each network's plain forward runs through one
    :class:`nn.Plan` per solve, sized by the first right-hand side; its
    outputs are fresh arrays. The time forcing is tabulated once, over all
    the solve's right-hand-side times.
    """
    _require_rk4(stepper)
    starts = np.asarray(t_span[0], dtype=float)
    ends = np.asarray(t_span[1], dtype=float)
    t0, t1 = float(starts.flat[0]), float(ends.flat[0])
    offsets = starts - t0 if starts.ndim else 0.0
    if starts.ndim > 1 or ends.shape != starts.shape or np.any(
            np.abs(ends - starts - (t1 - t0)) > TIME_RTOL * max(1.0, abs(t1))):
        raise ValueError("t_span: one start and end time, or equal-length arrays "
                         "of them spanning one length")
    lead = np.shape(offsets)
    views = sys.decode(params)
    c, n, aux, lags = sys.closure, sys.state_dim, sys.aux_dim, sys.closure.lags
    # each network's plain-forward plan, reused by every right-hand side
    plans = tuple(nn.Plan(net, v) for net, v in zip(c.nets, views))
    if u0 is None and history is None:
        raise ValueError("forward_augmented needs u0 or a history callable")
    if lags and history is None:
        raise ValueError("a closure with delays needs a history callable")

    # the solve's right-hand-side times (steps capped at the smallest lag);
    # its reads before t0, the y(t0) nodes and u0 unless given, through one
    # history call
    calls = np.unique(_rk4_calls(t0, t1, min((stepper.dt, *lags))))
    planned = np.unique(np.subtract.outer(calls, lags))
    reads = planned[planned < t0]
    ts = c.history_nodes(t0) if aux and lags else np.empty(0)
    times = np.concatenate([reads, ts, [t0] if u0 is None else []])
    rows = _read_history(history, times, offsets) if times.size else ()
    u0 = np.asarray(rows[-1] if u0 is None else u0, dtype=float)
    if u0.shape != lead + (n,):
        raise ValueError(f"u0 shape {u0.shape}, expected {lead + (n,)}")

    hist_tape = None
    y0 = np.zeros(lead + (aux,))
    if ts.size:
        # y(t0) by the trapezoid rule, all nodes of all members through one
        # g tape
        node_times = np.add.outer(ts, offsets)
        h = rows[reads.size:reads.size + ts.size].reshape(-1, n)
        hist_tape = nn.tape(c.g_net, nn.fields(c.g_net, h), views[1], node_times.ravel())
        g_nodes = hist_tape.y.reshape(ts.size, -1)
        y0 = (trapezoid_weights(ts) @ g_nodes).reshape(lead + (-1,))
    U0 = np.concatenate([u0, y0], axis=-1)
    if sys.forcing or sys.context:
        rhs_times = np.add.outer(calls, offsets)
        for table in sys.forcing + sys.context:
            table.fill(rhs_times)

    def rhs(t, U, prepared=None):
        tm = t + offsets
        u = U[..., :n]
        du = sys.base_rhs(tm, u) + sys.closure_term(tm, U, plans[0], prepared)
        if not aux:
            return du
        return np.concatenate([du, c.aux_rate(tm, u, prepared, plans[1])], axis=-1)

    def prepare(times, delayed):
        return c.prepare(np.add.outer(times, offsets), delayed, plans)

    if lags:
        # the closures read only the state part of a delayed value: the
        # history's has NaN for the auxiliary field
        past = np.pad(rows[:reads.size], [(0, 0)] * (rows.ndim - 1) + [(0, aux)],
                      constant_values=np.nan)
        hist = dict(zip(reads.tolist(), past)) | {t0: U0}
        traj = integrate_dde(DdeProblem(rhs, lags, hist.__getitem__, prepare),
                             (t0, t1), stepper)
    else:
        traj = integrate_ode(rhs, U0, (t0, t1), stepper)
    return ForwardRun(traj, t0, t1, n, aux, history, hist_tape, offsets)


# ---------------------------------------------------------------------------
# Adjoint sweeps
# ---------------------------------------------------------------------------


@dataclass
class AdjointRun:
    """Backward adjoint solution and the assembled parameter gradient.

    ``adjoint_traj`` stores the adjoint state over [t0, T] (state adjoint
    lambda, then the auxiliary adjoint mu for distributed closures); ``grad``
    is the theta gradient followed by the phi gradient.
    """

    adjoint_traj: DenseTrajectory
    grad: Vec


def _loss_jumps(run: ForwardRun, dataset, loss_spec):
    """Data times (ascending) and dL/du(T_i) cotangents from the forward run.

    The dataset's times are clock times; its states hold one row per time,
    with the run's member axis (times, B, u_dim) for a batch."""
    times = np.asarray(dataset.times, dtype=float)
    targets = np.asarray(dataset.states, dtype=float)
    if times.ndim != 1 or targets.shape != (times.size,) + run.lead + (run.u_dim,):
        raise ValueError("dataset shapes inconsistent with the forward run")
    tol = TIME_RTOL * max(1.0, abs(run.t1))
    if np.any(times <= run.t0 + tol) or np.any(times > run.t1 + tol):
        raise ValueError("dataset times must lie in (t0, T]")
    # the jump times are the sweep's knots, so one an ulp past T is T
    times = np.minimum(times, run.t1)
    order = np.argsort(times)
    times = times[order]
    targets = targets[order]
    preds = run.traj.eval_many(times)[..., :run.u_dim]
    cots = np.asarray(loss_spec.cotangents(preds, targets), dtype=float)
    if cots.shape != preds.shape:
        raise ValueError("loss cotangents must match prediction shape")
    return times, cots


def _snap(known: list, t: float) -> float:
    """The time in the ascending list ``known`` that ``t`` equals within
    the sweep's time tolerance (a time that rounding moved off it, such as
    an advanced time t + tau), else ``t``."""
    i = bisect.bisect_left(known, t)
    for k in known[max(i - 1, 0):i + 1]:
        if abs(t - k) <= TIME_RTOL * max(1.0, abs(k)):
            return k
    return t


def _sweep_grid(t0, T, jump_times, dt, shifts=()) -> list[tuple]:
    """The steps of the backward sweep from T down to t0, one segment after
    another in sweep order, each the knots and midpoints of its RK4 grid
    (:func:`integrate.rk4_grid`) from its upper bound down to its lower one.
    The segment bounds are t0, T, the jump times and every time where an
    advanced argument crosses a jump (a jump time minus a shift), and no
    step exceeds dt or the smallest shift."""
    eps_t = TIME_RTOL * max(1.0, abs(T))
    bounds = {float(t0), float(T)} | {float(t) for t in jump_times}
    for s in (tj - tau for tj in jump_times for tau in shifts):
        s = float(s)
        if t0 + eps_t < s < T - eps_t and all(abs(s - b) > eps_t for b in bounds):
            bounds.add(s)
    knots = sorted(bounds)
    h_max = min((dt, *shifts))
    return [rk4_grid(t_hi, seg_lo, h_max)[:2]
            for seg_lo, t_hi in zip(knots[-2::-1], knots[:0:-1])]


def _backward_sweep(shape, grid, jump_times, jump_vals, rhs_adj):
    """Fixed-step RK4 sweep over the steps ``grid`` (:func:`_sweep_grid`)
    with jumps: it evaluates ``rhs_adj`` at the grid's knots and midpoints
    only.

    The adjoint state has ``shape`` ((B, dim) for a batch of members); each
    jump in ``jump_vals`` acts on its first ``u_dim`` entries per member.

    rhs_adj(t, a, look) gives the adjoint time derivative; ``look(s)`` reads
    the already-computed adjoint at a planned advanced time s <= T
    (:func:`_advanced_reads`), t + tau for a shift tau that no step exceeds,
    or gives None where that value is zero by definition. The adjoint state
    jumps at data times, so the advanced lookups are one-sided there: the
    first three stages of a step take the limit from below (the stored
    post-jump value, ``store.eval``); the final stage, at the step's lower
    knot, takes the limit from above, the adjoint just after s before any
    jump at s: at a knot the value the step ending there reached, None at T,
    and ``store.eval`` between knots. Every time where an advanced argument
    crosses a jump (data time minus shift) is a segment bound of the grid,
    so that discontinuities of the adjoint RHS land exactly on step
    boundaries; without this the sweep degrades to first order.

    The sweep does not evaluate the parameter integral: it returns its
    trapezoid nodes on the backward knots, two per step [t, t_next] (each
    end with weight 0.5 * (t - t_next) and the adjoint there, the one before
    the jump at the step's lower end), so a caller weights the adjoints as
    cotangents of one reverse pass. Returns (DenseTrajectory, (times,
    weights, adjoints)), the adjoints stacked along a leading axis.
    """
    store = DenseTrajectory()
    a = np.zeros(shape)
    node_t, node_w, node_a = [], [], []
    u_dim = jump_vals.shape[-1]

    T, t0 = grid[0][0][0], grid[-1][0][-1]
    jump_map = {}
    for t, g in zip(jump_times, jump_vals):
        jump_map.setdefault(float(t), np.zeros(g.shape))
        jump_map[float(t)] += g

    # lambda(s+) at each knot s the sweep has reached: the end value of the
    # step ending at s, before the jump at s; none at T
    above = {T: None}

    def look_above(s):
        return above[s] if s in above else store.eval(s)

    if T in jump_map:
        a[..., :u_dim] -= jump_map[T]
    for ts, mids in grid:
        seg_lo = ts[-1]
        for t, t_next, t_mid in zip(ts[:-1], ts[1:], mids):
            h = t_next - t  # negative
            f1 = rhs_adj(t, a, store.eval)
            f2 = rhs_adj(t_mid, a + 0.5 * h * f1, store.eval)
            f3 = rhs_adj(t_mid, a + 0.5 * h * f2, store.eval)
            f4 = rhs_adj(t_next, a + h * f3, look_above)
            a_next = a + (h / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
            store.append(t, t_next, a, a_next, f1, f4)
            above[t_next] = a_next
            node_t += [t, t_next]
            node_w += [0.5 * (t - t_next)] * 2
            node_a += [a, a_next]
            a = a_next
        if seg_lo in jump_map and seg_lo > t0:
            a = a.copy()
            a[..., :u_dim] -= jump_map[seg_lo]
    return store, (np.array(node_t), np.array(node_w), np.stack(node_a))


def _advanced_reads(stages: np.ndarray, shifts, T: float) -> tuple[list, dict]:
    """The advanced reads of a sweep: each stage time t reads the adjoint at
    t + tau for k, tau in enumerate(``shifts``), that time snapped once onto
    the stage times and the advanced times before it (:func:`_snap`). A read
    past T, where the adjoint is zero, is left out. Returns the ascending
    stage and advanced times, and each stage time's reads as (k, time)."""
    known = stages.tolist()
    reads = {}
    for t in stages.tolist():
        for k, tau in enumerate(shifts):
            s = _snap(known, t + tau)
            if s <= T:
                reads.setdefault(t, []).append((k, s))
                i = bisect.bisect_left(known, s)
                if known[i:i + 1] != [s]:
                    known.insert(i, s)
    return known, reads


class _StageTapes:
    """One network's tape over one adjoint sweep, and its reverse passes.

    The network is evaluated at the times of the parameter integral's nodes
    (``param_times``) and at ``other_times``; ``x_of(times)`` gives its input
    at each of the listed times for every member of the run ((times,) +
    members + the input layout, the sequence axis first for a recurrent
    network), and ``offsets`` turn the clock into member times. The tape's
    times are the distinct node times, ascending, then the other times.
    Within a sweep the input depends on t alone (forward state, delayed
    states, auxiliary field), so one tape over all times x members along the
    batch axis, time-major, serves every RK4 stage, advanced term and
    trapezoid node. An input-only pass at one of the tape's times runs on
    that time's rows (:func:`nn.rows`) and is kept per (time, cotangent
    bytes); the parameter gradient is one full pass over the first rows,
    with the trapezoid weights already in its cotangent.
    """

    def __init__(self, net: nn.Network, views: tuple, param_times, other_times,
                 x_of: Callable, offsets):
        first = np.unique(param_times).tolist()
        times = first + sorted(set(other_times) - set(first))
        lead = np.shape(offsets)
        x = x_of(times)
        ax = int(net.recurrent)
        # the time and member axes merged into the batch axis
        x = x.reshape(x.shape[:ax] + (-1,) + x.shape[ax + 1 + len(lead):])
        self.tape = nn.tape(net, x, views, np.add.outer(times, offsets).ravel())
        self.width = math.prod(lead)
        self.n_param = len(first)
        self.row = {t: i for i, t in enumerate(times)}
        self._rows: dict = {}
        self._passes: dict = {}

    def _block(self, i: int, j: int) -> nn.Tape:
        """The tape of the rows of times i to j - 1."""
        return nn.rows(self.tape, slice(i * self.width, j * self.width))

    def input_grad(self, t: float, w: Vec):
        """d(w . net)/dx at time t, in the layout of the input (stacked like
        the sequence for a recurrent network)."""
        key = (t, w.tobytes())
        dx = self._passes.get(key)
        if dx is None:
            tp = self._rows.get(t)
            if tp is None:
                i = self.row[t]
                tp = self._rows[t] = self._block(i, i + 1)
            dx = self._passes[key] = nn.backward_input(tp, w.reshape(tp.y.shape))
        return dx

    def param_grad(self, times, w) -> Vec:
        """d/dparams of sum_i w_i . net(t_i): one full reverse pass over the
        parameter integral's rows, the cotangents ``w`` (one per time, each
        with the member axis) added into the rows of their times."""
        rows = np.zeros((self.n_param,) + w.shape[1:])
        np.add.at(rows, [self.row[t] for t in times.tolist()], w)
        tp = self._block(0, self.n_param)
        return nn.backward(tp, rows.reshape(tp.y.shape))[1]


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

    The sweep is planned before it starts: the advanced reads t + tau up to
    T (:func:`_advanced_reads`) and every network input, so each network is
    taped once (:class:`_StageTapes`) at every time the sweep reads it: the
    f-network at the knots, the midpoints and the advanced times t + tau_k,
    the g-network at the stage times and the window edges t - tau_1,
    t - tau_2 of each knot, with one input-only pass per stage on
    mu(t + tau_2) - mu(t + tau_1). The parameter integral is one full
    reverse pass per network after the sweep, with cotangent rows weighted
    by the trapezoid rule (+mu at t - tau_1 and -mu at t - tau_2 for g).
    The system's forcing tables are filled once, over the stage times.

    A batched run sweeps all its members in lockstep, with ``dataset``
    holding their targets (times, B, u_dim); the gradient is the sum of the
    members' gradients.
    """
    dt = _require_rk4(stepper)
    views = sys.decode(params)
    c = sys.closure
    times, cots = _loss_jumps(run, dataset, loss_spec)
    T, n, lead, offsets, f_lags = run.t1, run.u_dim, run.lead, run.offsets, c.f_lags
    grid = _sweep_grid(run.t0, T, times, dt, c.lags)
    knots = np.concatenate([ts for ts, _ in grid])
    stages = np.unique(np.concatenate([ts for seg in grid for ts in seg]))
    # the advanced reads t + tau of each stage time; the f-network's times
    # add those of its lags that are no stage time
    adv_times, reads = _advanced_reads(stages, c.lags, T)
    f_times = adv_times if f_lags else stages.tolist()
    # a g-network over a moving window (a distributed closure, tau_2 > tau_1)
    windowed = run.aux_dim > 0 and bool(c.lags)
    g_edges = ()
    if windowed:
        tau1, tau2 = c.window
        g_edges = np.concatenate([knots - tau1, knots - tau2])
    # the sweep's plan: the states it reads, at those times and at t - tau
    # for the f-network's lags, read in one go (ForwardRun.states_at)
    plan = np.unique(np.concatenate(
        [f_times, np.subtract.outer(f_times, f_lags).ravel(), g_edges]))
    state = dict(zip(plan.tolist(), run.states_at(plan)))
    for table in sys.forcing:
        table.fill(np.add.outer(stages, offsets))

    def stack(ts, width=None):
        return np.stack([state[t][..., :width] for t in ts])

    def f_input(ts):
        # the states at t - tau, (f_lags, times) + members + (n,), in one stack
        lagged = np.subtract.outer(ts, f_lags).T
        delayed = stack(lagged.ravel().tolist(), n) if f_lags else np.empty(0)
        return c.f_input(stack(ts), delayed.reshape(lagged.shape + delayed.shape[1:]))

    f_tapes = _StageTapes(c.nets[0], views[0], knots, f_times, f_input, offsets)
    if windowed:
        g_tapes = _StageTapes(c.g_net, views[1], g_edges, stages.tolist(),
                              lambda ts: nn.fields(c.g_net, stack(ts, n)), offsets)

    def rhs_adj(t, a, look):
        lam = a[..., :n]
        fu, fy = c.f_input_grad(f_tapes.input_grad(t, lam), lead)
        acc = sys.base_vjp(t + offsets, state[t][..., :n], lam) + fu
        # the planned advanced reads that have a value
        ahead = [(k, s, v) for k, s in reads.get(t, ()) if (v := look(s)) is not None]
        if not windowed:
            for k, s, v in ahead:
                dx = f_tapes.input_grad(s, v[..., :n])
                acc = acc + c.f_input_grad(dx, lead, k + 1)[0]
        else:
            # the window's g-terms -mu(t + tau_1) + mu(t + tau_2) in one
            # pass; none where both are zero: mu is zero at T and past it
            mu = {c.lags[k]: v[..., n:] for k, s, v in ahead if s < T}
            if tau1 == 0.0 and t < T:
                mu[0.0] = a[..., n:]
            if mu:
                dmu = mu.get(tau2, 0.0) - mu.get(tau1, 0.0)
                acc = acc - g_tapes.input_grad(t, dmu).reshape(lead + (-1,))
        return -acc if fy is None else np.concatenate([-acc, -fy], axis=-1)

    store, (node_t, node_w, node_a) = _backward_sweep(
        lead + (n + run.aux_dim,), grid, times, cots, rhs_adj)
    # the parameter integral: the trapezoid weight times the adjoint at each
    # node, as cotangent rows of one full pass per network
    wa = node_w.reshape((-1,) + (1,) * (node_a.ndim - 1)) * node_a
    grad = [f_tapes.param_grad(node_t, wa[..., :n])]
    if windowed:
        mu = wa[..., n:]
        grad.append(g_tapes.param_grad(np.concatenate([node_t - tau1, node_t - tau2]),
                                       np.concatenate([mu, -mu])))
    elif run.aux_dim:
        grad.append(np.zeros(sys.n_params - sys.n_theta))
    grad = -np.concatenate(grad)

    if windowed:
        # history term: -mu^T(t0) d_phi y(t0)
        grad[sys.n_theta:] -= history_param_grad(sys, run, store.eval(run.t0)[..., n:])
    return AdjointRun(store, grad)


def history_param_grad(sys: AugmentedSystem, run: ForwardRun, mu0: Vec) -> Vec:
    """d_phi of mu0 . y(t0), with y(t0) = sum_i w_i g(h(s_i), s_i; phi) the
    forward's trapezoid rule: one reverse pass of its batched g tape, with
    cotangent row w_i mu0_b for node i of member b."""
    if run.history_tape is None:
        raise ValueError("forward run kept no y(t0) tape for this closure")
    wts = trapezoid_weights(sys.closure.history_nodes(run.t0))
    mu0 = np.asarray(mu0, dtype=float)
    w = wts.reshape((-1,) + (1,) * mu0.ndim) * mu0
    return nn.backward(run.history_tape, w.reshape(run.history_tape.y.shape))[1]


# The kind-named entry points: one function sweeps every kind.
adjoint_markovian = adjoint_discrete = adjoint_distributed = adjoint_gradient


# ---------------------------------------------------------------------------
# Loss evaluation and the finite-difference oracle
# ---------------------------------------------------------------------------


def run_loss(sys: AugmentedSystem, params: Vec, t_span, dataset, loss_spec,
             stepper: StepperSpec, history=None, u0=None):
    """Forward solve + total loss on the dataset times. Returns (loss, run)."""
    run = forward_augmented(sys, params, t_span, stepper, history=history, u0=u0)
    preds = run.traj.eval_many(dataset.times)[..., :run.u_dim]
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
