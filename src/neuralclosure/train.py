"""Windowed adjoint training of closure models on snapshot data.

Training data is a uniformly sampled trajectory of the reference model. Each
iteration draws a batch of short windows (six data steps), solves the
augmented system over every window from the reference state at the window
start, and supervises the three states two, four and six steps in. The
windows of a batch share their length, step grid and supervision times, so
they run in lockstep: one forward solve and one adjoint sweep over the whole
batch. Gradients come from the adjoint sweeps in
:mod:`neuralclosure.closure` and drive an RMSprop update with exponentially
decaying learning rate.

Validation is a genuine rollout: the model is integrated across the held-out
span from the reference state at its start and compared against the held-out
snapshots, never re-anchored in between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .closure import (
    AugmentedSystem,
    History,
    adjoint_gradient,
    forward_augmented,
)
from .integrate import TIME_RTOL, DenseTrajectory, IntegrationError, StepperSpec
from .linalg import Vec


# ---------------------------------------------------------------------------
# Snapshot data
# ---------------------------------------------------------------------------


class SnapshotDataset:
    """Uniformly spaced snapshots of a trajectory: times (N,), states (N, d).

    The states of a batch of windows carry a member axis, (N, B, d)."""

    def __init__(self, times, states):
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)
        if self.times.ndim != 1 or self.times.size < 2:
            raise ValueError("need at least two snapshot times")
        if self.states.shape[0] != self.times.size or self.states.ndim < 2:
            raise ValueError("states must be (n_times, ..., state_dim)")
        steps = np.diff(self.times)
        dt = steps[0]
        if dt <= 0.0 or np.any(np.abs(steps - dt) > 1e-12 * max(1.0, abs(dt))):
            raise ValueError("snapshot times must be uniformly increasing")
        self.dt = float(dt)

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @property
    def state_dim(self) -> int:
        return self.states.shape[-1]

    @property
    def t_start(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def in_span(self, t_lo: float, t_hi: float) -> np.ndarray:
        """Mask of the times in [t_lo, t_hi], a time that is a bound within
        :data:`integrate.TIME_RTOL` counted as in."""
        return ((self.times >= t_lo - TIME_RTOL * max(1.0, abs(t_lo)))
                & (self.times <= t_hi + TIME_RTOL * max(1.0, abs(t_hi))))

    def restrict(self, t_lo: float, t_hi: float) -> "SnapshotDataset":
        keep = self.in_span(t_lo, t_hi)
        return SnapshotDataset(self.times[keep], self.states[keep])

    def interpolant(self) -> DenseTrajectory:
        """C1 cubic Hermite through the snapshots, slopes by central differences."""
        t, u = self.times, self.states
        f = np.empty_like(u)
        f[1:-1] = (u[2:] - u[:-2]) / (2.0 * self.dt)
        f[0] = (u[1] - u[0]) / self.dt
        f[-1] = (u[-1] - u[-2]) / self.dt
        return DenseTrajectory.through(t, u, f)

    def history_fn(self) -> History:
        """Interpolant clamped to the covered span (history for early
        windows), under the history contract: a 1-D array of times (a
        solve's or a sweep's lookup plan, for every member) gives one row
        per time."""
        traj = self.interpolant()
        lo, hi = self.t_start, self.t_end
        return lambda ts: traj.eval_many(np.clip(ts, lo, hi))


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LossSpec:
    """Data-time loss averaged over the supervised states of a window.

    Predictions and targets are (times, d), or (times, B, d) for a batch of
    windows, whose total is the sum of the windows' losses.
    ``time_avg_l2`` is the mean Euclidean norm of the state residuals;
    ``depth_avg_l2`` divides each norm by sqrt(n_depth) so columns report a
    per-depth-cell magnitude. ``positivity_weight`` adds
    w * sum(min(pred, 0)^2) per supervised state, discouraging negative
    concentrations without constraining the model.
    """

    kind: str = "time_avg_l2"
    positivity_weight: float = 0.0
    n_depth: int = 1

    def __post_init__(self):
        if self.kind not in ("time_avg_l2", "depth_avg_l2"):
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.kind == "depth_avg_l2" and self.n_depth < 1:
            raise ValueError("depth_avg_l2 needs n_depth >= 1")

    def _scale(self) -> float:
        return math.sqrt(self.n_depth) if self.kind == "depth_avg_l2" else 1.0

    def total(self, preds, targets) -> float:
        preds = np.asarray(preds, dtype=float)
        targets = np.asarray(targets, dtype=float)
        norms = np.linalg.norm(preds - targets, axis=-1) / self._scale()
        out = np.mean(norms, axis=0)
        if self.positivity_weight != 0.0:
            neg = np.minimum(preds, 0.0)
            out = out + self.positivity_weight * np.mean(np.sum(neg * neg, axis=-1), axis=0)
        return float(np.sum(out))

    def cotangents(self, preds, targets):
        preds = np.asarray(preds, dtype=float)
        targets = np.asarray(targets, dtype=float)
        r = preds - targets
        norms = np.linalg.norm(r, axis=-1)
        m = preds.shape[0]
        safe = np.where(norms > 0.0, norms, 1.0)
        cot = r / (m * self._scale() * safe[..., None])
        cot[norms == 0.0] = 0.0
        if self.positivity_weight != 0.0:
            cot = cot + self.positivity_weight * 2.0 * np.minimum(preds, 0.0) / m
        return cot


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


RMSPROP_RHO = 0.9     # decay of the second-moment average
RMSPROP_EPS = 1e-7    # added to its square root


@dataclass
class RmspropState:
    """Running second-moment accumulator; step counts completed updates."""

    s: np.ndarray
    step: int = 0

    @classmethod
    def fresh(cls, n_params: int) -> "RmspropState":
        return cls(s=np.zeros(n_params), step=0)


def lr_at(lr0: float, decay_rate: float, decay_steps: int, step: int) -> float:
    return lr0 * decay_rate ** (step / decay_steps)


def rmsprop_update(state: RmspropState, params: Vec, grad: Vec, lr: float) -> Vec:
    state.s = RMSPROP_RHO * state.s + (1.0 - RMSPROP_RHO) * grad * grad
    state.step += 1
    return params - lr * grad / (np.sqrt(state.s) + RMSPROP_EPS)


# ---------------------------------------------------------------------------
# Batching
# ---------------------------------------------------------------------------


def iterations_per_epoch(n_steps: int, batch_size: int, window_steps: int = 6) -> int:
    """One pass worth of windows, plus one: ceil(N / (batch * window)) + 1."""
    return math.ceil(n_steps / (batch_size * window_steps)) + 1


def admissible_starts(n_steps: int, window_steps: int = 6, stride: int = 2):
    """Window start indices: every ``stride``-th snapshot with room for a window."""
    last = n_steps - window_steps
    if last < 0:
        raise ValueError("dataset shorter than one training window")
    return np.arange(0, last + 1, stride)

def sample_batch(rng: np.random.Generator, n_steps: int, batch_size: int,
                 window_steps: int = 6, stride: int = 2):
    starts = admissible_starts(n_steps, window_steps, stride)
    return rng.choice(starts, size=batch_size, replace=batch_size > starts.size)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def rmse_series(pred, truth) -> float:
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def avg_crosscorr(pred, truth) -> float:
    """Zero-lag Pearson correlation per component, averaged; nan if any
    component of either series has zero variance."""
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    a = pred - pred.mean(axis=0)
    b = truth - truth.mean(axis=0)
    sa = np.sqrt(np.sum(a * a, axis=0))
    sb = np.sqrt(np.sum(b * b, axis=0))
    denom = sa * sb
    if np.any(denom == 0.0):
        return float("nan")
    return float(np.mean(np.sum(a * b, axis=0) / denom))


def evaluate_rollout(sys: AugmentedSystem, params: Vec, dataset: SnapshotDataset,
                     stepper: StepperSpec, history: History):
    """Free rollout from the dataset's first state, with ``history`` before
    it; returns (preds, rmse, corr).

    ``preds`` covers every dataset time including the anchored first one.
    """
    run = forward_augmented(sys, params, (dataset.t_start, dataset.t_end),
                            stepper, history=history, u0=dataset.states[0])
    preds = run.traj.eval_many(dataset.times)[..., :run.u_dim]
    return preds, rmse_series(preds, dataset.states), avg_crosscorr(preds, dataset.states)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainSettings:
    epochs: int
    batch_size: int
    lr0: float
    decay_rate: float = 0.97
    decay_steps: int | None = None      # default: one epoch of iterations
    iters_per_epoch: int | None = None  # default: iterations_per_epoch(...)
    window_steps: int = 6
    supervise_stride: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be at least 0, got {self.epochs}")
        for name in ("lr0", "decay_rate"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("batch_size", "window_steps", "supervise_stride",
                     "decay_steps", "iters_per_epoch"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ValueError(f"{name} must be at least 1, got {v}")
        if self.window_steps % self.supervise_stride != 0:
            raise ValueError("window_steps must be a multiple of supervise_stride")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    lr: float
    val_loss: float = float("nan")
    val_rmse: float = float("nan")
    val_corr: float = float("nan")


@dataclass
class TrainResult:
    params: np.ndarray
    opt_state: RmspropState
    history: list[EpochRecord] = field(default_factory=list)
    diverged: bool = False
    epochs_run: int = 0


def batch_gradient(sys: AugmentedSystem, params: Vec, dataset: SnapshotDataset,
                   starts, settings: TrainSettings, loss_spec: LossSpec,
                   stepper: StepperSpec, history: History):
    """Forward + adjoint over the training windows at ``starts`` (snapshot
    indices), all in lockstep on the first window's clock, the adjoint on
    the forward solve's ``stepper``; returns the sum of their losses and the
    sum of their gradients."""
    starts = np.asarray(starts, dtype=int).reshape(-1)
    w = settings.window_steps
    stride = settings.supervise_stride
    sup = np.arange(stride, w + 1, stride)
    run = forward_augmented(sys, params, (dataset.times[starts], dataset.times[starts + w]),
                            stepper, history=history, u0=dataset.states[starts])
    # the supervised states, one row per time, on the first window's clock
    batch = SnapshotDataset(dataset.times[starts[0] + sup],
                            dataset.states[starts[None, :] + sup[:, None]])
    preds = run.traj.eval_many(batch.times)[..., :run.u_dim]
    loss = loss_spec.total(preds, batch.states)
    adj = adjoint_gradient(sys, params, run, batch, loss_spec, stepper)
    return loss, adj.grad


def window_gradient(sys: AugmentedSystem, params: Vec, dataset: SnapshotDataset,
                    start: int, settings: TrainSettings, loss_spec: LossSpec,
                    stepper: StepperSpec, history: History):
    """Forward + adjoint over one training window; returns (loss, grad)."""
    return batch_gradient(sys, params, dataset, [start], settings, loss_spec,
                          stepper, history)


def train(sys: AugmentedSystem, dataset: SnapshotDataset, params0: Vec,
          settings: TrainSettings, loss_spec: LossSpec, stepper: StepperSpec,
          val_dataset: SnapshotDataset | None = None,
          opt_state: RmspropState | None = None,
          rng: np.random.Generator | None = None,
          start_epoch: int = 0,
          callback: Callable[[int, TrainResult], None] | None = None) -> TrainResult:
    """Run windowed adjoint training; returns final parameters and the log.

    Each update steps along the sum of the batch's window gradients, while
    the logged training loss is the mean of its window losses. The adjoint
    sweeps on ``stepper``, the forward solve's own step. Training windows
    and the validation rollout over ``val_dataset`` read one history, the
    training data's (:meth:`SnapshotDataset.history_fn`).

    ``opt_state``, ``rng`` and ``start_epoch`` allow a checkpointed run to
    resume mid-stream and reproduce an uninterrupted run bit for bit. On an
    integration failure or a non-finite loss, gradient or parameter the loop
    stops and flags the result as diverged instead of raising. A diverged
    result holds the state at the end of the last completed epoch: its
    params, ``opt_state`` (updated in place) and ``rng`` (rewound in place)
    belong together, so a checkpoint of them is finite and resumable.
    """
    params = np.asarray(params0, dtype=float).copy()
    if params.shape != (sys.n_params,):
        raise ValueError(f"params0 shape {params.shape}, expected ({sys.n_params},)")
    state = opt_state if opt_state is not None else RmspropState.fresh(params.size)
    rng = rng if rng is not None else np.random.default_rng(settings.seed)
    iters = settings.iters_per_epoch or iterations_per_epoch(
        dataset.n_steps, settings.batch_size, settings.window_steps)
    decay_steps = settings.decay_steps or iters
    history = dataset.history_fn()
    result = TrainResult(params=params, opt_state=state, epochs_run=start_epoch)

    for epoch in range(start_epoch, settings.epochs):
        epoch_start = (params, state.s, state.step, rng.bit_generator.state)
        epoch_losses = []
        ok = True
        for _ in range(iters):
            starts = sample_batch(rng, dataset.n_steps, settings.batch_size,
                                  settings.window_steps, settings.supervise_stride)
            try:
                batch_loss, grad = batch_gradient(sys, params, dataset, starts, settings,
                                                  loss_spec, stepper, history)
            except IntegrationError:
                ok = False
                break
            batch_loss /= len(starts)
            if not (np.isfinite(batch_loss) and np.all(np.isfinite(grad))):
                ok = False
                break
            lr = lr_at(settings.lr0, settings.decay_rate, decay_steps, state.step)
            params = rmsprop_update(state, params, grad, lr)
            if not np.all(np.isfinite(params)):
                ok = False
                break
            epoch_losses.append(batch_loss)

        if not ok:
            params, state.s, state.step, rng.bit_generator.state = epoch_start
            result.params = params
            result.diverged = True
            result.epochs_run = epoch
            return result

        rec = EpochRecord(epoch=epoch,
                          train_loss=float(np.mean(epoch_losses)),
                          lr=lr_at(settings.lr0, settings.decay_rate,
                                   decay_steps, state.step))
        if val_dataset is not None:
            try:
                preds, rec.val_rmse, rec.val_corr = evaluate_rollout(
                    sys, params, val_dataset, stepper, history)
                rec.val_loss = loss_spec.total(preds, val_dataset.states)
            except IntegrationError:
                rec.val_loss = float("nan")
                rec.val_rmse = float("nan")
                rec.val_corr = float("nan")
        result.history.append(rec)
        result.params = params
        result.epochs_run = epoch + 1
        if callback is not None:
            callback(epoch, result)
    return result
