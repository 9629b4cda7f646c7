"""The grid kernels and the batched network pass against their plain forms.

The references in ``oracles`` are the sign-split sigmoid, the per-tap
convolution loop, the column reactions one depth at a time and the y(t0)
history term with one g-network tape per trapezoid node. Also here: the tape
and reverse-pass budget of one training window on the shipped studies.
"""

import warnings
from collections import Counter

import numpy as np
import pytest

from neuralclosure import closure, experiments as ex, nn, train
from neuralclosure.integrate import RK4Fixed
from neuralclosure.models import biology, column

import oracles
from oracles import rel_l2


def _study_data(name):
    """A study, its set-up result and its training-span dataset."""
    study = ex.get_study(name)
    data = study.setup()
    ds = train.SnapshotDataset(data.times, getattr(data, study.target))
    return study, data, ds.restrict(0.0, study.train_end)


# ---------------------------------------------------------------------------
# Activations and convolutions
# ---------------------------------------------------------------------------


def test_sigmoid_matches_the_two_branch_form():
    z = np.concatenate([np.linspace(-40.0, 40.0, 8001),
                        [-800.0, 800.0, -745.0, 710.0, 0.0, -0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = nn._sigmoid(z)
        ends = np.array([-800.0, 800.0])
        acts = [nn._act("swish", ends), nn._act_deriv("swish", ends)]
    assert np.all(np.isfinite(got)) and all(np.all(np.isfinite(a)) for a in acts)
    assert np.max(np.abs(got - oracles.sigmoid_two_branch(z))) <= 1e-15
    np.testing.assert_array_equal(acts[0], [0.0, 800.0])
    np.testing.assert_array_equal(acts[1], [0.0, 1.0])


@pytest.mark.parametrize("k", [1, 3])
def test_conv_matches_the_tap_loop_bit_for_bit(k):
    rng = np.random.default_rng(k)
    x = rng.normal(size=(20, 5))
    K = rng.normal(size=(k, 5, 7))
    b = rng.normal(size=7)
    w = rng.normal(size=(20, 7))
    y, xpad = nn._conv_same(x, K, b)
    y_ref, xpad_ref = oracles.conv_same_loop(x, K, b)
    got = nn._conv_same_vjp(xpad, K, w)
    want = oracles.conv_same_vjp_loop(xpad_ref, K, w)
    np.testing.assert_array_equal(y, y_ref)
    for g, r in zip(got, want):
        np.testing.assert_array_equal(g, r)
    np.testing.assert_array_equal(nn._conv_same_vjp(xpad, K, w, grads=False)[0], want[0])


# ---------------------------------------------------------------------------
# Column model
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["npz", "nnpzd"])
def test_column_matches_the_per_depth_loop(kind):
    model = column.ColumnModel(column.ColumnConfig(), biology.BioParams(),
                               column.SeasonalForcing(), kind=kind)
    rng = np.random.default_rng(5)
    u = model.initial_state() * rng.uniform(0.5, 1.5, model.state_dim)
    u += rng.uniform(0.0, 2.0, model.state_dim)  # live P and Z at every depth
    w = rng.normal(size=model.state_dim)
    for t in (0.0, 41.5, 250.0):
        assert rel_l2(model.rhs(t, u), oracles.column_rhs_per_depth(model, t, u)) <= 1e-14
        if kind == "npz":
            assert rel_l2(model.rhs_vjp(t, u, w),
                        oracles.column_rhs_vjp_per_depth(model, t, u, w)) <= 1e-14


def test_npz_vjp_matches_the_jacobian_matrix():
    p = biology.BioParams()
    rng = np.random.default_rng(6)
    for _ in range(20):
        u = rng.uniform(0.01, 20.0, 3)
        w = rng.normal(size=3)
        assert rel_l2(biology.npz_rhs_vjp(0.0, u, w, p, 0.8),
                    oracles.npz_vjp_matrix(u, w, p, 0.8)) <= 1e-14


# ---------------------------------------------------------------------------
# The leading batch axis
# ---------------------------------------------------------------------------


BATCH_NETS = {
    "dense": (nn.Network([nn.Dense(3, 6, "tanh"), nn.Dense(6, 4, "swish"),
                          nn.Dense(4, 1, "linear"), nn.BioConstrain()]), (3,)),
    "conv_k1": (nn.Network([nn.Conv1d(3, 5, 1, "swish"), nn.Conv1d(5, 1, 1, "linear"),
                            nn.BioConstrain()]), (20, 3)),
    "conv_k3": (nn.Network([nn.Conv1d(1, 2, 3, "swish"), nn.Conv1d(2, 3, 3, "swish"),
                            nn.Conv1dTranspose(3, 3, 3, "swish"),
                            nn.Conv1dTranspose(3, 2, 3, "linear")]), (25, 1)),
}


@pytest.mark.parametrize("name", sorted(BATCH_NETS))
def test_batched_tape_rows_equal_single_tapes(name):
    net, shape = BATCH_NETS[name]
    rng = np.random.default_rng(7)
    params = rng.normal(0.0, 0.5, net.n_params)
    xs = rng.normal(size=(9,) + shape)
    tp = nn.tape(net, xs, params)
    singles = [nn.tape(net, x, params) for x in xs]
    ws = rng.normal(size=tp.y.shape)
    dx, dp = nn.backward(tp, ws)
    rows = [nn.backward(s, w) for s, w in zip(singles, ws)]
    for i, (s, (dx_i, _)) in enumerate(zip(singles, rows)):
        assert rel_l2(tp.y[i], s.y) <= 1e-14
        assert rel_l2(dx[i], dx_i) <= 1e-14
    # parameter gradients sum over the batch; flat cotangent rows and the
    # input-only pass give the same result
    assert rel_l2(dp, np.sum([g for _, g in rows], axis=0)) <= 1e-14
    dx_flat, dp_flat = nn.backward(tp, ws.reshape(len(xs), -1))
    assert dx_flat.tobytes() == dx.tobytes() and dp_flat.tobytes() == dp.tobytes()
    assert nn.backward_input(tp, ws).tobytes() == dx.tobytes()
    # nn.stack builds the batch from flat per-sample inputs
    stacked = nn.stack(net, [x.ravel() for x in xs])
    assert stacked.shape == xs.shape and stacked.tobytes() == xs.tobytes()


def test_batch_axis_is_refused_where_it_is_not_supported():
    rnn = nn.Network([nn.SimpleRnnCell(2, 3), nn.Dense(3, 2)])
    with pytest.raises(ValueError):
        nn.rnn_forward(rnn, [np.ones((4, 2))], np.zeros(rnn.n_params))
    ctx = nn.Network([nn.AddExtraChannels(1, lambda t: np.zeros((5, 1)), in_ch=2),
                      nn.Conv1d(3, 1, 1)])
    with pytest.raises(ValueError, match="batch"):
        nn.forward(ctx, np.ones((4, 5, 2)), np.zeros(ctx.n_params), t=np.zeros(4))


@pytest.fixture(scope="module", params=ex.EXPERIMENTS)
def distributed_case(request):
    """A live distributed closure of one study with its training data."""
    study, data, ds = _study_data(request.param)
    clo = study.closure("distributed")
    sys = study.system(clo, getattr(data, "basis", None))
    p0 = ex.initial_params(clo, 4)
    params = p0 + 0.3 * np.random.default_rng(4).standard_normal(p0.size)
    return study, sys, ds, params


def test_batched_history_term_matches_per_node(distributed_case):
    study, sys, ds, params = distributed_case
    t0 = float(ds.times[8])
    history = ds.history_fn()
    run = closure.forward_augmented(sys, params, (t0, t0 + 2 * study.dt_data),
                                    study.forward_stepper(), history=history)
    mu0 = np.random.default_rng(9).normal(size=sys.aux_dim)
    y0, dphi = oracles.history_term_per_node(sys, sys.split_params(params)[1],
                                             history, t0, mu0)
    assert rel_l2(run.traj.eval(t0)[sys.state_dim:], y0) <= 1e-13
    assert rel_l2(closure.history_param_grad(sys, run, mu0), dphi) <= 1e-13


# ---------------------------------------------------------------------------
# Tape budget of one training window
# ---------------------------------------------------------------------------


def _counted_window(study_name, kind, monkeypatch):
    """Forward and adjoint of one exp-study window, counting tapes and reverse
    passes per (network, phase) and reverse passes per tape; returns
    (closure, forward run, counts, sweep knots)."""
    study, data, ds = _study_data(study_name)
    clo = study.closure(kind)
    sys = study.system(clo, getattr(data, "basis", None))
    s = study.settings(kind)
    start = int(train.admissible_starts(ds.n_steps, s.window_steps, s.supervise_stride)[3])
    sl = slice(start + s.supervise_stride, start + s.window_steps + 1, s.supervise_stride)
    sup = train.SnapshotDataset(ds.times[sl], ds.states[sl])
    span = (float(ds.times[start]), float(ds.times[start + s.window_steps]))
    p0 = ex.initial_params(clo, 11)
    params = p0 + 0.3 * np.random.default_rng(11).standard_normal(p0.size)

    counts, phase = Counter(), ["forward"]
    tape, backward, backward_input = nn.tape, nn.backward, nn.backward_input

    def tape_rec(net, x, p, t=None):
        counts[(id(net), phase[0], "tape")] += 1
        return tape(net, x, p, t)

    def count(name, fn):
        def wrapped(tp, w):
            counts[(id(tp.net), phase[0], name)] += 1
            counts[id(tp)] += 1
            return fn(tp, w)
        return wrapped

    monkeypatch.setattr(nn, "tape", tape_rec)
    monkeypatch.setattr(nn, "backward", count("full", backward))
    monkeypatch.setattr(nn, "backward_input", count("input", backward_input))
    run = closure.forward_augmented(sys, params, span, study.forward_stepper(),
                                    history=ds.history_fn(), u0=ds.states[start])
    phase[0] = "adjoint"
    adj = closure.adjoint_gradient(sys, params, run, sup, study.loss_spec(),
                                   RK4Fixed(s.adjoint_dt))
    return clo, run, counts, adj.adjoint_traj.knots()


def test_discrete_window_tapes_each_stage_time_once(monkeypatch):
    # the six delays are multiples of the half step, so every advanced time is
    # a stage time on paper and shares its tape: 25 tapes, where taping each
    # rounded advanced time made 34 on this window
    clo, _, counts, knots = _counted_window("exp2_subgrid", "discrete", monkeypatch)
    stage_times = set(knots) | {t + 0.5 * (u - t) for t, u in zip(knots[:-1], knots[1:])}
    assert counts[(id(clo.net), "adjoint", "tape")] == len(stage_times) == 25


def test_distributed_window_history_is_one_batched_pass(monkeypatch):
    clo, run, counts, knots = _counted_window("exp2_subgrid", "distributed", monkeypatch)
    g = id(clo.g_net)
    # y(t0): one g tape over the 65 trapezoid nodes and one reverse pass on
    # it, where one tape and one pass per node made 65 and 65
    assert counts[(g, "forward", "tape")] == 1
    assert run.history_tape.y.shape[0] == 65 and counts[id(run.history_tape)] == 1
    # the other full g passes are the phi integrand's, at t and t - tau_2 per
    # knot: 27 on this window, and 42 with the f-net's, where the per-node
    # history term made 91 and 106
    assert counts[(g, "adjoint", "full")] == 2 * len(knots) + 1 == 27
    assert counts[(id(clo.f_net), "adjoint", "full")] + 27 == 42
