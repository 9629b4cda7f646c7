"""Lockstep batches of training windows: one forward solve and one adjoint
sweep per batch.

* The batched loss and gradient equal the sums of one-window calls on every
  (study x closure) pair: for a batch drawn like training draws it, and for
  one that repeats a start and holds the first and last admissible starts
  (the first reads the clamped history before the data begins).
* A batched sweep builds the same tapes and full/input-only reverse passes
  as a one-window sweep, and decodes each network's parameters once per
  forward solve and once per sweep.
* The batched recurrent cells and the per-member context channels give the
  rows of single-sample tapes, and a dataset's history takes member times.
* Reads by plan: a training step, a single trajectory and a rollout call
  the history with 1-D arrays of times, a fixed number of times, and the
  adjoint makes no scalar read of the forward store.
"""

from collections import Counter

import numpy as np
import pytest

from neuralclosure import closure, experiments as ex, nn, train
from neuralclosure.integrate import DenseTrajectory

from oracles import rel_l2

# |batched - sum of windows| / |sum of windows|, for the loss and the gradient
BATCH_RTOL = 1e-12


@pytest.fixture(scope="module", params=ex.EXPERIMENTS)
def study_case(request):
    """One study built once per module: (study, data, training dataset)."""
    study = ex.get_study(request.param)
    data = study.setup()
    ds = train.SnapshotDataset(data.times, getattr(data, study.target))
    return study, data, ds.restrict(0.0, study.train_end)


def _pair(study, data, kind):
    """The system, training settings and live params of one pair."""
    clo = study.closure(kind)
    system = study.system(clo, getattr(data, "basis", None))
    p0 = ex.initial_params(clo, 11)
    params = p0 + 0.3 * np.random.default_rng(11).standard_normal(p0.size)
    return clo, system, study.settings(kind), params


def _check_batch_is_the_window_sum(study, data, ds, kind, starts):
    clo, system, s, params = _pair(study, data, kind)
    args = (s, study.loss_spec(), study.forward_stepper(), ds.history_fn())
    loss, grad = train.batch_gradient(system, params, ds, starts, *args)
    windows = [train.window_gradient(system, params, ds, int(i), *args) for i in starts]
    want_loss = sum(w[0] for w in windows)
    want_grad = np.sum([w[1] for w in windows], axis=0)
    assert abs(loss - want_loss) <= BATCH_RTOL * abs(want_loss)
    assert rel_l2(grad, want_grad) <= BATCH_RTOL


@pytest.mark.parametrize("kind", ex.CLOSURE_KINDS)
def test_batch_gradient_is_the_sum_of_window_gradients(study_case, kind):
    study, data, ds = study_case
    s = study.settings(kind)
    starts = train.sample_batch(np.random.default_rng(5), ds.n_steps, s.batch_size,
                                s.window_steps, s.supervise_stride)
    _check_batch_is_the_window_sum(study, data, ds, kind, starts)


@pytest.mark.parametrize("kind", ex.CLOSURE_KINDS)
def test_batch_with_edge_and_repeated_starts(study_case, kind):
    study, data, ds = study_case
    s = study.settings(kind)
    adm = train.admissible_starts(ds.n_steps, s.window_steps, s.supervise_stride)
    starts = [adm[3], adm[0], adm[-1], adm[3]]
    if kind != "markovian":
        # the first window's memory reaches back past the first snapshot
        clo = study.closure(kind)
        reach = clo.delays[-1] if kind == "discrete" else clo.window[1]
        assert ds.times[adm[0]] - reach < ds.t_start
    _check_batch_is_the_window_sum(study, data, ds, kind, starts)


# ---------------------------------------------------------------------------
# Work per batch
# ---------------------------------------------------------------------------


@pytest.fixture
def counted(monkeypatch):
    """Count network passes and parameter decodes per network: forward
    evaluations, tapes with the lead member's time, full and input-only
    reverse passes, and unpack calls."""
    calls = Counter()
    tape, backward, backward_input = nn.tape, nn.backward, nn.backward_input
    forward, rnn_forward, unpack = nn.forward, nn.rnn_forward, nn.Network.unpack

    def tape_rec(net, x, params, t=None):
        calls[(id(net), "tape", float(np.ravel(t)[0]))] += 1
        return tape(net, x, params, t)

    def count(name, fn):
        def wrapped(tp, *args):
            calls[(id(tp if name in ("forward", "unpack") else tp.net), name)] += 1
            return fn(tp, *args)
        return wrapped

    monkeypatch.setattr(nn, "tape", tape_rec)
    monkeypatch.setattr(nn, "backward", count("full", backward))
    monkeypatch.setattr(nn, "backward_input", count("input", backward_input))
    monkeypatch.setattr(nn, "forward", count("forward", forward))
    monkeypatch.setattr(nn, "rnn_forward", count("forward", rnn_forward))
    monkeypatch.setattr(nn.Network, "unpack", count("unpack", unpack))
    return calls


@pytest.mark.parametrize("kind", ex.CLOSURE_KINDS)
def test_batch_does_the_work_of_one_window(kind, counted):
    study = ex.get_study("toy")
    data = study.setup()
    ds = train.SnapshotDataset(data.times, data.states).restrict(0.0, study.train_end)
    clo, system, s, params = _pair(study, data, kind)
    args = (s, study.loss_spec(), study.forward_stepper(), ds.history_fn())
    work = []
    for starts in ([4], [4, 4, 4], [4, 0, 10, 4]):
        counted.clear()
        train.batch_gradient(system, params, ds, starts, *args)
        work.append(dict(counted))
    # the same tapes at the same (lead) times, the same reverse passes and
    # forward evaluations, however many windows the batch holds
    assert work[1] == work[0]
    if kind == "discrete":
        # an advanced term whose cotangent equals a stored pass's bit for bit
        # reuses it; on this window two do, which four distinct members
        # together need not repeat
        main = (id(clo.net), "input")
        assert work[0][main] <= work[2][main] <= work[0][main] + 2
        work[2][main] = work[0][main]
    assert work[2] == work[0]
    nets = [clo.f_net, clo.g_net] if kind == "distributed" else [clo.net]
    for net in nets:
        # one decode for the forward solve, one for the sweep
        assert work[2][(id(net), "unpack")] == 2


def _counted(history):
    """``history`` recording the number of dimensions of each call's times."""
    calls = []

    def counted(t):
        calls.append(np.ndim(t))
        return history(t)
    return counted, calls


@pytest.mark.parametrize("study_case", ["exp1_rom", "exp3a_bio0d"], indirect=True)
@pytest.mark.parametrize("kind", ex.CLOSURE_KINDS)
def test_batch_reads_the_history_in_two_calls(study_case, kind, monkeypatch):
    # the forward solve reads its planned times before the window starts and
    # the y(t0) nodes in one call, and the adjoint sweep its own in one more,
    # each a flat 1-D array of member times; a single trajectory (scalar
    # t_span) reads the same way. The sweep reads the forward run's store by
    # plan too, with no scalar eval of it.
    study, data, ds = study_case
    clo, system, s, params = _pair(study, data, kind)
    counted, calls = _counted(ds.history_fn())
    evals = []
    scalar_eval = DenseTrajectory.eval
    monkeypatch.setattr(DenseTrajectory, "eval",
                        lambda tr, t: evals.append(tr) or scalar_eval(tr, t))

    budget = {"markovian": 0, "discrete": 2, "distributed": 3}[kind]

    def check(calls):
        assert len(calls) <= budget and set(calls) <= {1}
        if kind == "discrete":
            assert len(calls) == 2

    adm = train.admissible_starts(ds.n_steps, s.window_steps, s.supervise_stride)
    batches = [train.sample_batch(np.random.default_rng(5), ds.n_steps, s.batch_size,
                                  s.window_steps, s.supervise_stride),
               [adm[0], adm[-1], adm[3]]]
    for starts in batches:
        calls.clear()
        train.batch_gradient(system, params, ds, starts, s, study.loss_spec(),
                             study.forward_stepper(), counted)
        check(calls)
    # the first window alone, as a single trajectory and as a batch of one
    w = s.window_steps
    sup = np.arange(s.supervise_stride, w + 1, s.supervise_stride)
    for start in (adm[0], [adm[0]]):
        calls.clear()
        run = closure.forward_augmented(
            system, params, (ds.times[start], ds.times[np.add(start, w)]),
            study.forward_stepper(), history=counted, u0=ds.states[start])
        window = train.SnapshotDataset(ds.times[adm[0] + sup],
                                       ds.states[np.add.outer(sup, start)])
        evals.clear()
        closure.adjoint_gradient(system, params, run, window, study.loss_spec(),
                                 study.forward_stepper())
        check(calls)
        assert not any(tr is run.traj for tr in evals)


@pytest.mark.parametrize("study_case", ["exp1_rom", "exp3a_bio0d"], indirect=True)
def test_rollout_reads_the_history_in_one_call(study_case):
    # a validation rollout of a discrete closure reads every delayed state
    # before its start in one call (114 calls on exp1_rom and 480 on
    # exp3a_bio0d when a single trajectory read one time per call)
    study, data, ds = study_case
    _, system, _, params = _pair(study, data, "discrete")
    full = train.SnapshotDataset(data.times, getattr(data, study.target))
    counted, calls = _counted(ds.history_fn())
    train.evaluate_rollout(system, params, full.restrict(study.train_end, study.val_end),
                           study.forward_stepper(), history=counted)
    assert calls == [1]


# ---------------------------------------------------------------------------
# The batch axis of the network layers and the history
# ---------------------------------------------------------------------------


def _batched_rows_match(net, xs, times, seq):
    """A batched tape and reverse pass against one tape per member."""
    rng = np.random.default_rng(8)
    params = rng.normal(0.0, 0.5, net.n_params)
    tp = nn.tape(net, xs, params, times)
    w = rng.normal(size=tp.y.shape)
    dx, dp = nn.backward(tp, w)
    # a sequence's batch axis is its second one
    members = np.swapaxes(xs, 0, 1) if seq else xs
    dx_rows = np.swapaxes(dx, 0, 1) if seq else dx
    dp_sum = np.zeros_like(dp)
    for x, t, w_b, dx_b, y_b in zip(members, times, w, dx_rows, tp.y):
        single = nn.tape(net, x, params, float(t))
        dx_one, dp_one = nn.backward(single, w_b)
        assert rel_l2(y_b, single.y) <= 1e-14
        assert rel_l2(dx_b, dx_one) <= 1e-14
        dp_sum += dp_one
    assert rel_l2(dp, dp_sum) <= 1e-14


def test_batched_recurrent_cells_match_single_tapes():
    rng = np.random.default_rng(2)
    times = np.array([0.5, 40.0, 181.0, 0.5])
    cases = [
        (nn.Network([nn.SimpleRnnCell(3, 7, "tanh"), nn.Dense(7, 3)]), (3,)),
        (ex.get_study("exp2_subgrid").networks("discrete"), (25, 1)),
        # the conv cell, then per-member context channels
        (ex.get_study("exp3b_bio1d").networks("discrete"), (20, 3)),
    ]
    for net, shape in cases:
        xs = rng.normal(size=(5, len(times)) + shape)
        _batched_rows_match(net, xs, times, seq=True)


def test_context_channels_take_one_time_per_member():
    study = ex.get_study("exp3b_bio1d")
    channels = study.context_channels()
    times = np.array([3.0, 100.5, 300.25])
    rows = channels(times)
    assert rows.shape == (3, study.cfg.n_z, 2)
    for t, row in zip(times, rows):
        assert row.tobytes() == channels(t).tobytes()
    net = study.networks("markovian")  # opens with AddExtraChannels
    xs = np.random.default_rng(4).normal(size=(3, study.cfg.n_z, 3))
    _batched_rows_match(net, xs, times, seq=False)


def test_history_takes_member_times():
    t = np.linspace(1.0, 2.0, 11)
    u = np.stack([np.sin(t), t * t], axis=1)
    ds = train.SnapshotDataset(t, u)
    h, traj = ds.history_fn(), ds.interpolant()
    times = np.array([0.5, 1.0, 1.37, 2.0, 2.5, 1.37])
    want = np.stack([traj.eval(min(max(s, 1.0), 2.0)) for s in times])
    assert h(times).tobytes() == want.tobytes()
    # clamped to the covered span on both sides
    assert h(times)[0].tobytes() == u[0].tobytes()
    assert h(times)[4].tobytes() == u[-1].tobytes()
