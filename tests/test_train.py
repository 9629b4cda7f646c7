"""Dataset handling, loss derivatives, optimizer arithmetic, training loop."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from neuralclosure import experiments as ex, nn
from neuralclosure.closure import AugmentedSystem, Markovian, forward_augmented
from neuralclosure.integrate import RK4Fixed
from neuralclosure.train import (
    EpochRecord,
    LossSpec,
    RmspropState,
    SnapshotDataset,
    TrainSettings,
    admissible_starts,
    avg_crosscorr,
    evaluate_rollout,
    iterations_per_epoch,
    lr_at,
    rmse_series,
    rmsprop_update,
    sample_batch,
    train,
)

from oracles import central_fd


# ---------------------------------------------------------------------------
# SnapshotDataset
# ---------------------------------------------------------------------------


def test_dataset_requires_uniform_times():
    with pytest.raises(ValueError):
        SnapshotDataset([0.0, 0.1, 0.3], np.zeros((3, 1)))
    with pytest.raises(ValueError):
        SnapshotDataset([0.0, -0.1], np.zeros((2, 1)))
    with pytest.raises(ValueError):
        SnapshotDataset([0.0, 0.1], np.zeros((3, 1)))
    ds = SnapshotDataset([0.0, 0.5, 1.0], np.ones((3, 2)))
    assert ds.dt == 0.5 and ds.n_steps == 2 and ds.state_dim == 2


def test_dataset_window_and_restrict():
    t = np.linspace(0.0, 1.0, 11)
    u = np.arange(11, dtype=float)[:, None]
    ds = SnapshotDataset(t, u)
    r = ds.restrict(0.35, 0.75)
    assert np.allclose(r.times, [0.4, 0.5, 0.6, 0.7])


def test_interpolant_exact_on_quadratics():
    # central-difference slopes are exact for quadratics, so the Hermite
    # interpolant reproduces them everywhere in the interior
    t = np.linspace(0.0, 2.0, 21)
    u = np.stack([t * t, 3.0 - t], axis=1)
    ds = SnapshotDataset(t, u)
    traj = ds.interpolant()
    for s in (0.15, 0.7, 1.23, 1.9):
        assert np.max(np.abs(traj.eval(s) - [s * s, 3.0 - s])) < 1e-12


def test_history_fn_clamps_outside_span():
    t = np.linspace(0.0, 1.0, 6)
    u = t[:, None] * 2.0
    h = SnapshotDataset(t, u).history_fn()
    assert np.allclose(h(np.array([-5.0, 2.0, 0.4])), [[0.0], [2.0], [0.8]])


# ---------------------------------------------------------------------------
# LossSpec
# ---------------------------------------------------------------------------


def test_time_avg_l2_is_mean_of_norms():
    loss = LossSpec("time_avg_l2")
    preds = np.array([[3.0, 4.0], [0.0, 0.0]])
    targets = np.zeros((2, 2))
    assert abs(loss.total(preds, targets) - 2.5) < 1e-15


def test_depth_avg_l2_divides_by_sqrt_depth():
    loss = LossSpec("depth_avg_l2", n_depth=4)
    preds = np.array([[3.0, 4.0]])
    assert abs(loss.total(preds, np.zeros((1, 2))) - 2.5) < 1e-15


def test_positivity_penalty_value():
    loss = LossSpec("time_avg_l2", positivity_weight=10.0)
    preds = np.array([[-1.0, 2.0]])
    targets = np.zeros((1, 2))
    assert abs(loss.total(preds, targets) - (np.sqrt(5.0) + 10.0)) < 1e-12


def test_zero_residual_cotangent_is_zero():
    loss = LossSpec("time_avg_l2")
    preds = np.array([[1.0, 2.0], [1.0, 0.0]])
    targets = preds.copy()
    targets[1] = [0.0, 0.0]
    cot = loss.cotangents(preds, targets)
    assert np.all(cot[0] == 0.0)
    assert np.all(np.isfinite(cot))


@settings(max_examples=25)
@given(hnp.arrays(np.float64, (3, 4), elements=st.floats(-2.0, 2.0)),
       hnp.arrays(np.float64, (3, 4), elements=st.floats(-2.0, 2.0)))
def test_cotangents_match_fd_of_total(preds, targets):
    # keep residual norms away from the non-differentiable zero point
    if np.any(np.linalg.norm(preds - targets, axis=1) < 1e-2):
        return
    if np.any(np.abs(preds) < 1e-3):
        return  # positivity kink
    loss = LossSpec("depth_avg_l2", positivity_weight=0.7, n_depth=2)
    fd = central_fd(lambda p: loss.total(p, targets), preds)
    assert np.max(np.abs(loss.cotangents(preds, targets) - fd)) < 1e-6


def test_loss_spec_validation():
    with pytest.raises(ValueError):
        LossSpec("huber")
    with pytest.raises(ValueError):
        LossSpec("depth_avg_l2", n_depth=0)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


def test_rmsprop_hand_step():
    state = RmspropState.fresh(1)
    p = np.array([1.0])
    g = np.array([3.0])
    p1 = rmsprop_update(state, p, g, lr=0.1)
    # s = 0.1 * 9 = 0.9; step = 0.1 * 3 / (sqrt(0.9) + 1e-7)
    assert abs(p1[0] - (1.0 - 0.3 / (np.sqrt(0.9) + 1e-7))) < 1e-15
    assert state.step == 1
    p2 = rmsprop_update(state, p1, g, lr=0.1)
    s2 = 0.9 * 0.9 + 0.1 * 9.0
    assert abs(p2[0] - (p1[0] - 0.3 / (np.sqrt(s2) + 1e-7))) < 1e-15
    assert state.step == 2


def test_learning_rate_decay():
    assert lr_at(0.05, 0.97, 18, 0) == 0.05
    assert abs(lr_at(0.05, 0.97, 18, 18) - 0.05 * 0.97) < 1e-15
    assert abs(lr_at(0.05, 0.97, 18, 9) - 0.05 * 0.97 ** 0.5) < 1e-15


# ---------------------------------------------------------------------------
# Batching
# ---------------------------------------------------------------------------


def test_iterations_per_epoch_values():
    assert iterations_per_epoch(200, 2) == 18
    assert iterations_per_epoch(100, 8) == 4
    assert iterations_per_epoch(600, 4) == 26
    assert iterations_per_epoch(300, 8) == 8


def test_admissible_starts_and_sampling():
    assert np.array_equal(admissible_starts(10), [0, 2, 4])
    assert np.array_equal(admissible_starts(6), [0])
    with pytest.raises(ValueError):
        admissible_starts(5)
    rng = np.random.default_rng(4)
    batch = sample_batch(rng, 40, 8)
    assert batch.shape == (8,)
    assert np.all(batch % 2 == 0) and np.all(batch <= 34)
    rng2 = np.random.default_rng(4)
    assert np.array_equal(batch, sample_batch(rng2, 40, 8))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def test_rmse_series_hand_value():
    pred = np.full((5, 3), 2.0)
    truth = np.zeros((5, 3))
    assert abs(rmse_series(pred, truth) - 2.0) < 1e-15


def test_avg_crosscorr_signs_and_nan():
    t = np.linspace(0.0, 1.0, 20)[:, None]
    assert abs(avg_crosscorr(2.0 * t + 1.0, t) - 1.0) < 1e-12
    assert abs(avg_crosscorr(-t, t) + 1.0) < 1e-12
    flat = np.ones((20, 1))
    assert np.isnan(avg_crosscorr(flat, t))


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def _constant_residual_problem():
    """True dynamics u' = -u + c; base model misses the constant source."""
    c = np.array([0.5, -0.3])
    t = np.arange(0.0, 3.0 + 1e-12, 0.05)
    u0 = np.array([1.0, 0.8])
    truth = c + (u0 - c) * np.exp(-t)[:, None]
    data = SnapshotDataset(t, truth)
    net = nn.Network([nn.Dense(2, 4, "tanh"), nn.Dense(4, 2)])
    sys = AugmentedSystem(lambda tt, u: -u, Markovian(net), 2,
                          base_vjp=lambda tt, u, w: -w)
    return sys, data, c


def test_training_learns_constant_residual():
    sys, data, c = _constant_residual_problem()
    train_ds = data.restrict(0.0, 2.0)
    val_ds = data.restrict(2.0, 3.0)
    settings = TrainSettings(epochs=40, batch_size=2, lr0=0.05, seed=1)
    params0 = nn.init_params(sys.closure.net, seed=1)
    loss = LossSpec("time_avg_l2")
    stepper = RK4Fixed(0.05)
    _, rmse0, _ = evaluate_rollout(sys, params0, val_ds, stepper, train_ds.history_fn())
    res = train(sys, train_ds, params0, settings, loss, stepper, val_dataset=val_ds)
    assert not res.diverged
    assert res.epochs_run == 40
    assert len(res.history) == 40
    assert res.history[-1].train_loss < 0.3 * res.history[0].train_loss
    assert res.history[-1].val_rmse < 0.3 * rmse0
    # the learned closure should approximate the missing constant source
    for u in (np.array([0.5, 0.0]), np.array([0.3, -0.2])):
        term = sys.closure_term(0.0, u, res.params)
        assert np.max(np.abs(term - c)) < 0.1


def test_training_is_deterministic():
    sys, data, _ = _constant_residual_problem()
    train_ds = data.restrict(0.0, 1.5)
    settings = TrainSettings(epochs=3, batch_size=2, lr0=0.05, seed=7)
    params0 = nn.init_params(sys.closure.net, seed=7)
    loss = LossSpec("time_avg_l2")
    r1 = train(sys, train_ds, params0, settings, loss, RK4Fixed(0.05))
    r2 = train(sys, train_ds, params0, settings, loss, RK4Fixed(0.05))
    assert np.array_equal(r1.params, r2.params)
    assert r1.history[-1].train_loss == r2.history[-1].train_loss


def test_resumed_training_matches_uninterrupted():
    sys, data, _ = _constant_residual_problem()
    train_ds = data.restrict(0.0, 1.5)
    loss = LossSpec("time_avg_l2")
    stepper = RK4Fixed(0.05)
    params0 = nn.init_params(sys.closure.net, seed=3)

    full = TrainSettings(epochs=6, batch_size=2, lr0=0.05, seed=5)
    r_full = train(sys, train_ds, params0, full, loss, stepper)

    rng = np.random.default_rng(5)
    r_half = train(sys, train_ds, params0,
                   TrainSettings(epochs=3, batch_size=2, lr0=0.05, seed=5),
                   loss, stepper, rng=rng)
    r_rest = train(sys, train_ds, r_half.params, full, loss, stepper,
                   opt_state=r_half.opt_state, rng=rng, start_epoch=3)
    assert np.array_equal(r_full.params, r_rest.params)


def test_divergence_is_flagged_not_raised():
    # base dynamics with finite-time blow-up inside the first window: the
    # forward solve overflows and the loop must flag it rather than raise
    net = nn.Network([nn.Dense(1, 1)])
    sys = AugmentedSystem(lambda t, u: 50.0 * u * u, Markovian(net), 1,
                          base_vjp=lambda t, u, w: 100.0 * u * w)
    t = np.arange(0.0, 1.0 + 1e-12, 0.05)
    data = SnapshotDataset(t, np.ones((t.size, 1)))
    settings = TrainSettings(epochs=5, batch_size=1, lr0=0.01, seed=2)
    with np.errstate(over="ignore", invalid="ignore"):
        res = train(sys, data, np.zeros(2), settings,
                    LossSpec("time_avg_l2"), RK4Fixed(0.05))
    assert res.diverged
    assert res.epochs_run == 0


def test_divergence_returns_last_finite_state():
    # lr0 = 1e308 overflows the very first update: the result must hold the
    # state the epoch started from, with the batch RNG rewound to match
    study = ex.get_study("toy")
    data = study.setup()
    clo = study.closure("markovian")
    sys = study.system(clo, data)
    ds = SnapshotDataset(data.times, data.states).restrict(0.0, study.train_end)
    settings = replace(study.settings("markovian"), lr0=1e308, epochs=2)
    params0 = ex.initial_params(clo, 0)
    rng = np.random.default_rng(settings.seed)
    rng_before = rng.bit_generator.state
    with np.errstate(over="ignore", invalid="ignore"):
        res = train(sys, ds, params0, settings, study.loss_spec(),
                    study.forward_stepper(), rng=rng)
    assert res.diverged and res.epochs_run == 0
    assert np.all(np.isfinite(res.params))
    assert np.array_equal(res.params, params0)
    assert res.opt_state.step == 0
    assert not np.any(res.opt_state.s)
    assert rng.bit_generator.state == rng_before


def test_settings_validation():
    with pytest.raises(ValueError):
        TrainSettings(epochs=1, batch_size=1, lr0=0.1,
                      window_steps=5, supervise_stride=2)
    for bad in ({"lr0": 0.0}, {"lr0": -1.0}, {"epochs": -1}, {"decay_rate": 0.0},
                {"decay_rate": -0.5}):
        kw = {"epochs": 1, "batch_size": 1, "lr0": 0.1, **bad}
        with pytest.raises(ValueError, match=next(iter(bad))):
            TrainSettings(**kw)


def test_train_validates_a_delay_closure_on_the_training_history():
    # a closure with delays reads the state before the validation span: the
    # rollout takes the history train() builds from its training data
    study = ex.get_study("toy")
    data = study.setup()
    full = SnapshotDataset(data.times, data.states)
    clo = study.closure("discrete")
    res = train(study.system(clo), full.restrict(0.0, study.train_end),
                ex.initial_params(clo, 0), study.settings("discrete", epochs=1),
                study.loss_spec(), study.forward_stepper(),
                val_dataset=full.restrict(study.train_end, study.val_end))
    assert not res.diverged and res.epochs_run == 1
    assert np.isfinite(res.history[0].val_loss)


def test_readme_library_example_runs():
    # the README's Library-use block as written, one epoch instead of fifty
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "epochs=50" in block
    scope = {}
    exec(block.replace("epochs=50", "epochs=1"), scope)
    assert scope["preds"].shape == scope["ds"].states.shape
    assert np.isfinite(scope["rmse"])


def test_evaluate_rollout_exact_model_is_exact():
    net = nn.Network([nn.Dense(1, 1)])
    sys = AugmentedSystem(lambda t, u: -u, Markovian(net), 1,
                          base_vjp=lambda t, u, w: -w)
    t = np.arange(0.0, 1.0 + 1e-12, 0.1)
    ds = SnapshotDataset(t, np.exp(-t)[:, None])
    preds, rmse, corr = evaluate_rollout(sys, np.zeros(2), ds, RK4Fixed(0.01),
                                         ds.history_fn())
    assert rmse < 1e-8
    assert corr > 0.999999
    assert preds.shape == (11, 1)
