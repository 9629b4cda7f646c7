"""The grid kernels and the batched network pass against their plain forms.

The references in ``oracles`` are the sign-split sigmoid, the per-tap
convolution loop, the recurrent cells with their input kernel applied one
sequence element at a time, the column reactions one depth at a time and the
y(t0) history term with one g-network tape per trapezoid node, and an adjoint
sweep's parameter integral as the per-knot trapezoid sum of fresh reverse
passes (one weighted pass over the rows of one tape per network in the
package). The convolution
is one matmul over the tap windows of one padded copy: it matches the loop bit
for bit at k = 1 and in its weight gradients, and to rounding (2e-15 of the
largest entry) in its output and input cotangent at k > 1. Also here: row
views of a batched tape against fresh tapes, the tape and reverse-pass
budget of one training window on the shipped studies, the in-place
activations, bias and discrete sequence input against the expressions they
replace, and repeated reverse passes on one tape, whose convolution windows
are read-only.
"""

import warnings
from collections import Counter

import numpy as np
import pytest

from neuralclosure import closure, experiments as ex, nn, train
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
        y, s = nn._act("swish", ends)
        acts = [y, nn._act_deriv("swish", ends, s)]
    assert np.all(np.isfinite(got)) and all(np.all(np.isfinite(a)) for a in acts)
    assert np.max(np.abs(got - oracles.sigmoid_two_branch(z))) <= 1e-15
    np.testing.assert_array_equal(acts[0], [0.0, 800.0])
    np.testing.assert_array_equal(acts[1], [0.0, 1.0])


def _close(a, ref, rel=2e-15):
    """Same shape, and max|a - ref| <= rel * max|ref|."""
    return a.shape == ref.shape and np.max(np.abs(a - ref)) <= rel * np.max(np.abs(ref))


@pytest.mark.parametrize("k", [1, 3])
def test_conv_matches_the_tap_loop_bit_for_bit(k):
    # at k > 1 the output and the input cotangent are one product over the
    # tap windows where the loop adds one product per tap, so they agree to
    # rounding; k = 1 and the weight gradients stay bit for bit
    rng = np.random.default_rng(k)
    x = rng.normal(size=(20, 5))
    K = rng.normal(size=(k, 5, 7))
    b = rng.normal(size=7)
    w = rng.normal(size=(20, 7))
    y, win = nn._conv_same(x, K, b)
    y_ref, xpad_ref = oracles.conv_same_loop(x, K, b)
    dx, dK, db = nn._conv_same_vjp(win, K, w)
    dx_ref, dK_ref, db_ref = oracles.conv_same_vjp_loop(xpad_ref, K, w)
    same = _same if k == 1 else _close
    assert same(y, y_ref) and same(dx, dx_ref)
    assert _same(dK, dK_ref) and _same(db, db_ref)
    assert _same(nn._conv_same_vjp(win, K, w, grads=False)[0], dx)


@pytest.mark.parametrize("n", [1, 2, 25])
def test_conv_layers_match_the_tap_loop_per_member(n):
    # fields shorter than the kernel (n < k), a leading batch axis and the
    # flipped taps of the transposed layer, each member against the loop
    rng = np.random.default_rng(n)
    for layer in (nn.Conv1d(5, 7, 3), nn.Conv1dTranspose(5, 7, 3)):
        K, b = rng.normal(size=(3, 5, 7)), rng.normal(size=7)
        x, w = rng.normal(size=(4, n, 5)), rng.normal(size=(4, n, 7))
        y, cache = layer.forward((K, b), x, None)
        dx, (dK, db) = layer.backward((K, b), cache, w)
        taps = layer.taps(K)
        fwd = [oracles.conv_same_loop(x_i, taps, b) for x_i in x]
        rev = [oracles.conv_same_vjp_loop(pad, taps, w_i) for (_, pad), w_i in zip(fwd, w)]
        assert _close(y, np.stack([y_i for y_i, _ in fwd]))
        assert _close(dx, np.stack([dx_i for dx_i, _, _ in rev]))
        # the weight gradients sum over the members in one product
        assert rel_l2(dK, layer.taps(np.sum([g[1] for g in rev], axis=0))) <= 1e-14
        assert rel_l2(db, np.sum([g[2] for g in rev], axis=0)) <= 1e-14


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
    # parameter gradients sum over the batch; the input-only pass gives the
    # same result
    assert rel_l2(dp, np.sum([g for _, g in rows], axis=0)) <= 1e-14
    assert nn.backward_input(tp, ws).tobytes() == dx.tobytes()


def _study_net(name):
    """A study's closure network ("study/kind") and its input field shape."""
    study_name, kind = name.split("/")
    study = ex.get_study(study_name)
    net = study.networks(kind)
    layout, ch = net.input_spec
    return net, (ch,) if layout == "dense" else (study.state_dim // ch, ch)


@pytest.mark.parametrize("name", sorted(BATCH_NETS) + [
    "exp1_rom/discrete", "exp2_subgrid/discrete", "exp3b_bio1d/discrete",
    "exp3b_bio1d/markovian"])
def test_row_view_passes_equal_a_fresh_tape(name):
    # an adjoint sweep tapes all its times x members in one pass and runs
    # each stage on that time's rows (nn.rows): the same output and passes
    # as a fresh tape of those rows at their member times, through every
    # layer kind (the recurrent cells' sequence axis comes first, and
    # BioConstrain and AddExtraChannels keep shapes and times)
    net, shape = BATCH_NETS[name] if name in BATCH_NETS else _study_net(name)
    rng = np.random.default_rng(12)
    params = rng.normal(0.0, 0.5, net.n_params)
    members = 3
    times = np.add.outer([1.0, 40.5, 100.0, 181.25], [0.0, 2.0, 7.0]).ravel()
    xs = rng.normal(size=(5,) * net.recurrent + times.shape + shape)
    tp = nn.tape(net, xs, params, times)
    for i in range(times.size // members):
        sl = slice(i * members, (i + 1) * members)
        rows = nn.rows(tp, sl)
        fresh = nn.tape(net, xs[:, sl] if net.recurrent else xs[sl], params, times[sl])
        w = rng.normal(size=fresh.y.shape)
        assert np.shares_memory(rows.y, tp.y)
        assert rel_l2(rows.y, fresh.y) <= 1e-14
        assert rel_l2(nn.backward_input(rows, w), nn.backward_input(fresh, w)) <= 1e-14
        (dx, dp), (dx_ref, dp_ref) = nn.backward(rows, w), nn.backward(fresh, w)
        assert rel_l2(dx, dx_ref) <= 1e-14 and rel_l2(dp, dp_ref) <= 1e-14


RNN_CELLS = {
    "dense": nn.SimpleRnnCell(3, 7, "tanh"),
    "conv_k3": nn.SimpleRnnConvCell(1, 3, 3, "swish"),
    "conv_k1": nn.SimpleRnnConvCell(3, 5, 1, "swish"),
}


@pytest.mark.parametrize("name", sorted(RNN_CELLS))
def test_recurrent_input_half_matches_the_per_element_loop(name):
    # the cells apply their input kernel to the whole sequence in one call,
    # and sum its gradient over the sequence in one product
    cell = RNN_CELLS[name]
    net = nn.Network([cell])
    rng = np.random.default_rng(3)
    params = rng.normal(0.0, 0.5, net.n_params)
    shape = (cell.n_in,) if name == "dense" else (20, cell.in_ch)
    xs = rng.normal(size=(7,) + shape)
    tp = nn.tape(net, xs, params)
    w = rng.normal(size=tp.y.shape)
    dxs, grads = nn.backward(tp, w)
    out, dxs_ref, grads_ref = oracles.rnn_cell_loop(cell, net.unpack(params)[0], xs, w)
    assert rel_l2(tp.y, out) <= 1e-14
    assert rel_l2(dxs, dxs_ref) <= 1e-14
    assert rel_l2(grads, np.concatenate([g.ravel() for g in grads_ref])) <= 1e-14


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
    y0, dphi = oracles.history_term_per_node(sys, sys.decode(params)[1],
                                             history, t0, mu0)
    assert rel_l2(run.traj.eval(t0)[sys.state_dim:], y0) <= 1e-13
    assert rel_l2(closure.history_param_grad(sys, run, mu0), dphi) <= 1e-13


# ---------------------------------------------------------------------------
# Tape budget of one training window
# ---------------------------------------------------------------------------


def _counted_window(study_name, kind, monkeypatch, window=None):
    """Forward and adjoint of one study window, counting tapes, their rows
    and reverse passes per (network, phase) and reverse passes per tape;
    returns (closure, forward run, counts, sweep knots)."""
    study, data, ds = _study_data(study_name)
    clo = study.closure(kind, window=window)
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
        counts[(id(net), phase[0], "rows")] += np.size(t)
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
                                   study.forward_stepper())
    return clo, run, counts, adj.adjoint_traj.knots()


def test_discrete_window_tapes_each_stage_time_once(monkeypatch):
    # the six delays are multiples of the half step, so every advanced time is
    # a stage time on paper and reads its rows: one tape of 25 rows, where one
    # tape per stage time made 25 and taping each rounded advanced time 34
    clo, _, counts, knots = _counted_window("exp2_subgrid", "discrete", monkeypatch)
    stage_times = set(knots) | {t + 0.5 * (u - t) for t, u in zip(knots[:-1], knots[1:])}
    net = id(clo.net)
    assert counts[(net, "adjoint", "tape")] == 1
    assert counts[(net, "adjoint", "rows")] == len(stage_times) == 25
    # one full pass for the parameter gradient, where one per knot (two at
    # the interior jump knots) made 15; every RK4 stage and the advanced
    # terms that find no stored pass run input-only: 59. An advanced read at
    # a knot reads the stored adjoint there exactly, so it reuses that
    # knot's stage-1 pass; 62 ran when it read a rounded time off the knot,
    # and 50 when each knot's stage 1 reused its full pass
    assert counts[(net, "adjoint", "full")] == 1
    assert counts[(net, "adjoint", "input")] == 59


def test_distributed_window_history_is_one_batched_pass(monkeypatch):
    clo, run, counts, knots = _counted_window("exp2_subgrid", "distributed", monkeypatch)
    g = id(clo.g_net)
    # y(t0): one g tape over the 65 trapezoid nodes and one reverse pass on
    # it, where one tape and one pass per node made 65 and 65
    assert counts[(g, "forward", "tape")] == 1
    assert run.history_tape.y.shape[0] == 65 and counts[id(run.history_tape)] == 1
    # the sweep tapes each network once and takes each one's parameter
    # gradient in one full pass; with the history pass that makes 3 full
    # passes, where one tape and full pass per knot and window edge made 63
    # tapes and 42 full passes on this window (106 with the per-node history
    # term). Every RK4 stage runs input-only: 95 passes, where 72 did when
    # each knot's stage 1 reused its full passes
    f = id(clo.f_net)
    assert counts[(f, "adjoint", "tape")] == counts[(g, "adjoint", "tape")] == 1
    assert counts[(f, "adjoint", "full")] == 1 and counts[(g, "adjoint", "full")] == 2
    assert counts[(f, "adjoint", "input")] + counts[(g, "adjoint", "input")] == 95
    # the g tape's rows: the stage times and the trailing window edges
    tau2 = clo.window[1]
    stage_times = set(knots) | {t + 0.5 * (u - t) for t, u in zip(knots[:-1], knots[1:])}
    assert counts[(g, "adjoint", "rows")] == len(stage_times | {t - tau2 for t in knots})


@pytest.mark.parametrize("starts", [[4, 10, 4], 4], ids=["batch", "single"])
@pytest.mark.parametrize("kind, window", [("markovian", None), ("discrete", None),
                                          ("distributed", None), ("distributed", (0.2, 0.7))])
def test_weighted_pass_is_the_per_knot_trapezoid_sum(kind, window, starts, monkeypatch):
    # the sweep's parameter integral is one full pass per network over
    # trapezoid-weighted cotangent rows; the reference sums the trapezoid
    # rule step by step over fresh tapes and full passes at each knot, for a
    # batch and a single trajectory, with data times inside the window
    study, data, ds = _study_data("toy")
    clo = study.closure(kind, window=window)
    sys = study.system(clo, getattr(data, "basis", None))
    s, stepper = study.settings(kind), study.forward_stepper()
    p0 = ex.initial_params(clo, 5)
    params = p0 + 0.3 * np.random.default_rng(5).standard_normal(p0.size)
    st = np.asarray(starts)
    sup = np.arange(s.supervise_stride, s.window_steps + 1, s.supervise_stride)
    run = closure.forward_augmented(sys, params, (ds.times[st], ds.times[st + s.window_steps]),
                                    stepper, history=ds.history_fn(), u0=ds.states[st])
    batch = train.SnapshotDataset(ds.times[np.ravel(st)[0] + sup],
                                  ds.states[np.add.outer(sup, st)])
    nodes = []
    sweep = closure._backward_sweep
    monkeypatch.setattr(closure, "_backward_sweep",
                        lambda *args: nodes.append(sweep(*args)) or nodes[-1])
    adj = closure.adjoint_gradient(sys, params, run, batch, study.loss_spec(), stepper)
    ts, _, adjoints = nodes[0][1]
    # an interior data time: two cotangents, before and after its jump
    t_data = [t for t in batch.times if run.t0 < t < run.t1]
    assert t_data
    at = np.flatnonzero(ts == t_data[0])
    assert at.size == 2 and adjoints[at[0]].tobytes() != adjoints[at[1]].tobytes()
    want = oracles.sweep_param_grad_per_knot(sys, params, run, nodes[0][1])
    if kind == "distributed":
        assert clo.window[0] == (0.2 if window else 0.0)
        mu0 = adj.adjoint_traj.eval(run.t0)[..., run.u_dim:]
        want[sys.n_theta:] -= closure.history_param_grad(sys, run, mu0)
    assert rel_l2(adj.grad, want) <= 1e-13


@pytest.mark.parametrize("study_name, kind, window", [
    ("toy", "markovian", None), ("toy", "discrete", None), ("toy", "distributed", None),
    ("toy", "distributed", (0.2, 0.7)), ("exp2_subgrid", "discrete", None)])
def test_each_advanced_read_is_planned_before_the_sweep(study_name, kind, window,
                                                        monkeypatch):
    # every time t + tau is snapped once, while the sweep's plan is built:
    # once the sweep starts nothing is snapped, and each stage time looks up
    # exactly its planned reads, none past T
    plans, looked, stage_times, snapped = [], [], set(), Counter()
    sweeping = [False]
    snap, plan, sweep = closure._snap, closure._advanced_reads, closure._backward_sweep

    def snap_rec(known, t):
        snapped[sweeping[0]] += 1
        return snap(known, t)

    def sweep_rec(shape, grid, jump_times, jump_vals, rhs_adj):
        sweeping[0] = True

        def rhs(t, a, look):
            stage_times.add(t)
            return rhs_adj(t, a, lambda s: looked.append((t, s)) or look(s))
        return sweep(shape, grid, jump_times, jump_vals, rhs)

    monkeypatch.setattr(closure, "_snap", snap_rec)
    monkeypatch.setattr(closure, "_advanced_reads",
                        lambda *args: plans.append(plan(*args)) or plans[-1])
    monkeypatch.setattr(closure, "_backward_sweep", sweep_rec)
    clo, run, _, _ = _counted_window(study_name, kind, monkeypatch, window)
    assert snapped[True] == 0 and snapped[False] == len(stage_times) * len(clo.lags)
    (_, reads), = plans
    T = run.t1
    planned = {(t, s) for t, rs in reads.items() for _, s in rs}
    assert set(looked) == planned and all(s <= T for _, s in looked)
    # each read t + tau up to T is planned, at the time it is on paper
    want = {(t, k): t + tau for t in stage_times for k, tau in enumerate(clo.lags)
            if t + tau <= T + 1e-9 * T}
    got = {(t, k): s for t, rs in reads.items() for k, s in rs}
    assert got.keys() == want.keys()
    assert all(abs(got[key] - want[key]) <= 1e-9 * T for key in want)
    if clo.lags:
        # the reads past T are left out: all of them on the toy's (0, 0.5)
        # window, some elsewhere
        assert len(planned) < len(stage_times) * len(clo.lags)
        assert planned or clo.lags == (0.5,)


# ---------------------------------------------------------------------------
# In-place kernels against the expressions they replace
# ---------------------------------------------------------------------------


SPECIAL = np.array([0.0, -0.0, 1e-300, -1e-300, 800.0, -800.0])


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _with_specials(rng, shape, scale=3.0):
    """Normal draws of ``shape`` whose first entries are SPECIAL, repeated."""
    x = rng.normal(0.0, scale, size=shape)
    flat = x.reshape(-1)
    flat[:2 * SPECIAL.size] = np.tile(SPECIAL, 2)
    return x


def _former_conv(x, K, b):
    """The convolution as it was written before its bias went in place."""
    k = K.shape[0]
    if k == 1:
        return x @ K[0] + b
    n, ci = x.shape[-2:]
    pl = (k - 1) // 2
    xpad = np.zeros(x.shape[:-2] + (n + k - 1, ci))
    xpad[..., pl:pl + n, :] = x
    y = xpad[..., 0:n, :] @ K[0] + b
    for d in range(1, k):
        y += xpad[..., d:d + n, :] @ K[d]
    return y


def test_activations_equal_their_former_expressions():
    z = _with_specials(np.random.default_rng(0), 400, scale=5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sig = 0.5 * (1.0 + np.tanh(0.5 * z))
        assert _same(nn._sigmoid(z), sig)
        y, s = nn._act("swish", z)
        assert _same(y, z * sig) and _same(s, sig)
        assert _same(nn._act_deriv("swish", z, s), s * (1.0 + z * (1.0 - s)))
        y, t = nn._act("tanh", z)
        assert _same(y, np.tanh(z)) and _same(nn._act_deriv("tanh", z, t), 1.0 - t * t)
        # linear passes its cotangent on as it is
        w = z[::-1].copy()
        assert nn._act_deriv("linear", z, None) is None
        assert nn._scale("linear", z, None, w) is w
        for name in ("tanh", "swish"):
            _, s = nn._act(name, z)
            assert _same(nn._scale(name, z, s, w), w * nn._act_deriv(name, z, s))


@pytest.mark.parametrize("k", [1, 3])
def test_affine_layers_add_the_bias_like_before(k):
    rng = np.random.default_rng(k)
    x = _with_specials(rng, (4, 20, 5))
    W, b = rng.normal(size=(7, 5)), rng.normal(size=7)
    z = nn.Dense(5, 7).forward((W, b), x, None)[1][1]
    assert _same(z, x @ W.T + b)
    K = rng.normal(size=(k, 5, 7))
    product = nn._windows(x, k, (k - 1) // 2) @ K.reshape(-1, 7)
    assert _same(nn._conv_same(x, K, b)[0], product + b)
    assert _same(nn._conv_same(x, K, 0.0)[0], product + 0.0)
    # one product over the tap windows, where the former form added one per tap
    same = _same if k == 1 else _close
    assert same(nn._conv_same(x, K, b)[0], _former_conv(x, K, b))
    assert same(nn._conv_same(x, K, 0.0)[0], _former_conv(x, K, 0.0))


def test_bio_constrain_equals_the_stacked_triple():
    rng = np.random.default_rng(2)
    x = _with_specials(rng, (3, 20, 1))
    for beta in (0.5, rng.uniform(), -0.3, 0.0):
        out = nn.BioConstrain().forward((np.array([beta]),), x, None)[0]
        s = x[..., 0]
        assert _same(out, np.stack([beta * s, -s, (1.0 - beta) * s], axis=-1))


@pytest.mark.parametrize("lead", [(), (4,), (25, 4)])
def test_discrete_input_fills_the_stacked_sequence(lead):
    # one preallocated sequence array in place of np.stack, byte for byte:
    # a single state, a batch, and a sweep's times x members
    clo = ex.get_study("exp2_subgrid").closure("discrete")
    rng = np.random.default_rng(6)
    U = _with_specials(rng, lead + (25,))
    delayed = [rng.normal(size=lead + (25,)) for _ in clo.delays]
    assert _same(clo.f_input(U, delayed),
                 nn.fields(clo.net, np.stack([*reversed(delayed), U])))


@pytest.mark.parametrize("name", sorted(RNN_CELLS))
def test_first_recurrent_step_equals_the_zero_state_product(name):
    cell = RNN_CELLS[name]
    rng = np.random.default_rng(4)
    shape = (cell.n_in,) if name == "dense" else (20, cell.in_ch)
    xs = _with_specials(rng, (5, 3) + shape)
    net = nn.Network([cell])
    p = net.unpack(rng.normal(0.0, 0.5, net.n_params))[0]
    z0 = cell.forward(p, xs, None)[1][1][0]
    if name == "dense":
        Wx, Wh, b = p
        h0 = np.zeros((3, cell.units))
        want = (xs @ Wx.T)[0] + h0 @ Wh.T + b
    else:
        Kx, Kh, b = p[:3]
        h0 = np.zeros((3, 20, cell.units))
        want = nn._conv_same(xs, Kx, 0.0)[0][0] + nn._conv_same(h0, Kh, b)[0]
    assert _same(z0, want)


# ---------------------------------------------------------------------------
# Repeated reverse passes on one tape
# ---------------------------------------------------------------------------


def _context(n):
    return ex.ColumnStudy(cfg=column.ColumnConfig(n_z=n)).context_channels()


TAPE_NETS = {
    "dense": (lambda: nn.Network([nn.Dense(3, 6, "tanh"), nn.Dense(6, 4, "linear"),
                                  nn.Dense(4, 2, "swish")]), (3,), 0),
    "rnn": (lambda: nn.Network([nn.SimpleRnnCell(3, 5, "tanh"),
                                nn.Dense(5, 2, "linear")]), (3,), 4),
    "rnn_linear": (lambda: nn.Network([nn.SimpleRnnCell(3, 5, "linear")]), (3,), 4),
    "conv_k3": (lambda: nn.Network([nn.Conv1d(1, 2, 3, "swish"),
                                    nn.Conv1dTranspose(2, 3, 3, "linear"),
                                    nn.Conv1d(3, 1, 3, "tanh")]), (25, 1), 0),
    "rnn_conv_k1": (lambda: nn.Network([nn.SimpleRnnConvCell(3, 4, 1, "swish"),
                                        nn.Conv1d(4, 2, 1, "linear")]), (20, 3), 4),
    "rnn_conv_k3": (lambda: nn.Network([nn.SimpleRnnConvCell(1, 3, 3, "swish"),
                                        nn.Conv1d(3, 1, 3, "linear")]), (25, 1), 4),
    "context_bio": (lambda: nn.Network([nn.AddExtraChannels(2, _context(20), in_ch=3),
                                        nn.Conv1d(5, 4, 1, "swish"),
                                        nn.Conv1d(4, 1, 1, "linear"),
                                        nn.BioConstrain()]), (20, 3), 0),
}


def _arrays(obj):
    """Every array inside nested tuples and lists."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (tuple, list)):
        return [a for item in obj for a in _arrays(item)]
    return []


def test_a_conv_tape_keeps_read_only_windows_of_one_padded_copy():
    # the windows' rows overlap, so a write through them would change the
    # neighbouring windows as well
    net = nn.Network([nn.Conv1d(2, 3, 3, "swish")])
    rng = np.random.default_rng(12)
    params = rng.normal(0.0, 0.5, net.n_params)
    tp = nn.tape(net, rng.normal(size=(4, 25, 2)), params)
    win = tp.caches[0][0]
    assert win.shape == (4, 25, 6) and not win.flags.writeable
    assert win.base.shape == (4, 27, 2)   # a view of the padded input
    with pytest.raises(ValueError):
        win[0, 0, 0] = 1.0
    w = rng.normal(size=tp.y.shape)
    (dx1, g1), (dx2, g2) = nn.backward(tp, w), nn.backward(tp, w)
    assert _same(dx1, dx2) and _same(g1, g2)


@pytest.mark.parametrize("name", sorted(TAPE_NETS))
def test_a_tape_survives_repeated_reverse_passes(name):
    make, shape, seq = TAPE_NETS[name]
    net = make()
    rng = np.random.default_rng(8)
    params = rng.normal(0.0, 0.5, net.n_params)
    x = rng.normal(size=((seq,) if seq else ()) + (3,) + shape)
    t = np.array([0.0, 12.5, 40.0])
    fresh_tape = nn.tape(net, x.copy(), params.copy(), t)
    w = rng.normal(size=fresh_tape.y.shape)
    want = nn.backward(fresh_tape, w.copy())
    want_input = nn.backward_input(nn.tape(net, x.copy(), params.copy(), t), w.copy())

    tp = nn.tape(net, x, params, t)
    kept = [a.copy() for a in [x, w, params, tp.y] + _arrays(tp.caches)]
    got = [nn.backward(tp, w), nn.backward(tp, w)]
    got_input = nn.backward_input(tp, w)
    for dx, grads in got:
        assert _same(dx, want[0]) and _same(grads, want[1])
    assert _same(got_input, want_input) and _same(got_input, want[0])
    after = [x, w, params, tp.y] + _arrays(tp.caches)
    assert len(after) == len(kept)
    assert all(_same(a, b) for a, b in zip(after, kept))
