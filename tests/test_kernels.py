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
replace, repeated reverse passes on one tape, whose convolution windows
are read-only, the plain forward against the tape on every closure network
and on single k = 1 layers of widths 1-16 (whose plan steps multiply by
np.dot), the forward operands ``Network.unpack`` decodes for every weighted
layer, and reverse passes that read the taped act'(z) instead of
recomputing it.
A delay solve, which prepares a block of right-hand sides at a time, is
checked against the solve that reads each delayed state by a scalar eval and
runs every network whole at each stage (``oracles``), bit for bit, with the
matmul stacking rules it rests on and its count of recurrent steps. The
column study's time forcing runs once per forward solve and once per sweep.
"""

import dataclasses
import warnings
from collections import Counter

import numpy as np
import pytest

from neuralclosure import closure, experiments as ex, integrate, nn, train
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
        # a kept swish step's act(z) and act'(z), from its sigmoid
        y, d = _kept_act("swish", z)
        ends = np.array([-800.0, 800.0])
        acts = [*_kept_act("swish", ends), _plan_act("swish", ends)]
    sig = oracles.sigmoid_two_branch(z)
    tol = 1e-15 * np.maximum(1.0, np.abs(z))
    assert np.all(np.isfinite(y)) and np.all(np.isfinite(d))
    assert np.all(np.abs(y - z * sig) <= tol)
    assert np.all(np.abs(d - sig * (1.0 + z * (1.0 - sig))) <= tol)
    assert all(np.all(np.isfinite(a)) for a in acts)
    np.testing.assert_array_equal(acts[0], [0.0, 800.0])
    np.testing.assert_array_equal(acts[1], [0.0, 1.0])
    np.testing.assert_array_equal(acts[2], [0.0, 800.0])


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
    conv = nn.Conv1d(5, 7, k)
    p = _entry(conv, K, b)
    y, (win, _) = _kept_step(conv, p, x)
    y_ref, xpad_ref = oracles.conv_same_loop(x, K, b)
    dx, dK, db = nn._conv_same_vjp(win, p[-1], w)
    dx_ref, dK_ref, db_ref = oracles.conv_same_vjp_loop(xpad_ref, K, w)
    same = _same if k == 1 else _close
    assert same(y, y_ref) and same(dx, dx_ref)
    assert _same(dK, dK_ref) and _same(db, db_ref)
    assert _same(nn._conv_same_vjp(win, p[-1], w, grads=False)[0], dx)


@pytest.mark.parametrize("n", [1, 2, 25])
def test_conv_layers_match_the_tap_loop_per_member(n):
    # fields shorter than the kernel (n < k), a leading batch axis and the
    # flipped taps of the transposed layer, each member against the loop
    rng = np.random.default_rng(n)
    for layer in (nn.Conv1d(5, 7, 3), nn.Conv1dTranspose(5, 7, 3)):
        K, b = rng.normal(size=(3, 5, 7)), rng.normal(size=7)
        x, w = rng.normal(size=(4, n, 5)), rng.normal(size=(4, n, 7))
        p = _entry(layer, K, b)
        y, cache = _kept_step(layer, p, x)
        dx, (dK, db) = layer.backward(p, cache, w)
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
    views = net.unpack(params)[0][:len(cell.param_specs())]
    out, dxs_ref, grads_ref = oracles.rnn_cell_loop(cell, views, xs, w)
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
    # terms that find no stored pass run input-only: 58. An advanced read at
    # a knot reads the stored adjoint there exactly, so it reuses that
    # knot's stage-1 pass; 62 ran when it read a rounded time off the knot,
    # 59 when the read at T ran on its zero adjoint, and 50 when each knot's
    # stage 1 reused its full pass
    assert counts[(net, "adjoint", "full")] == 1
    assert counts[(net, "adjoint", "input")] == 58


@pytest.mark.parametrize("study_name, kind, window", [
    *((name, "discrete", None) for name in ex.EXPERIMENTS),
    ("toy", "distributed", (0.2, 0.7))])
def test_sweep_runs_no_input_pass_on_a_zero_cotangent(study_name, kind, window,
                                                      monkeypatch):
    # the adjoint just after T is zero: a read there has no value and runs no
    # pass, where the discrete sweeps of toy, exp1, exp2 and exp3b each ran
    # one on zeros; mu is zero at T from both sides, so a window edge at T
    # runs none either
    zero = Counter()
    backward_input = nn.backward_input

    def rec(tp, w):
        zero[not np.any(w)] += 1
        return backward_input(tp, w)

    monkeypatch.setattr(nn, "backward_input", rec)
    _counted_window(study_name, kind, monkeypatch, window)
    assert zero[False] > 0 and zero[True] == 0


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


def _plan_act(name, z):
    """A plan step's act(z) into a fresh array: a swish step activates the
    halved pre-activation its halved weights give."""
    return nn._activate(name, z * 0.5 if name == "swish" else z, None)


def _kept_act(name, z):
    """A kept step's (act(z), act'(z)) into a fresh array, from the same
    pre-activation as a plan step's."""
    return nn._activate(name, z * 0.5 if name == "swish" else z.copy(), None, True)


def _entry(layer, *views):
    """The layer's entry of ``Network.unpack`` for hand-made parameter
    views: the views, then their decoded operands."""
    return views + layer.decode(views)


def _kept_step(layer, p, x):
    """One layer's kept step on x, into a fresh array: (output, cache)."""
    keep = []
    step, xin = layer.plan(p, x.shape, None, keep)
    if xin is not None:
        xin[...] = x
    return step(x, None), keep[0]


def _conv(x, K, b):
    """x correlated with the kernel K, plus b: a linear convolution's kept
    step."""
    layer = nn.Conv1d(*K.shape[1:], K.shape[0])
    return _kept_step(layer, _entry(layer, K, b), x)[0]


def _plan_step(layer, p, x):
    """One layer's plan step on x, into a fresh array (its input written
    into the step's padded buffer when it has one)."""
    step, xin = layer.plan(p, x.shape, None)
    if xin is not None:
        xin[...] = x
    return step(x, None)


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
        t = np.tanh(z)
        former = {"swish": (z * sig, sig * (1.0 + z * (1.0 - sig))),
                  "tanh": (t, 1.0 - t * t), "linear": (z, None)}
        w = z[::-1].copy()
        for name, (y_ref, d_ref) in former.items():
            # the tape's act(z) and act'(z), and a plan step's act(z)
            y, d = _kept_act(name, z)
            assert _same(y, y_ref) and _same(_plan_act(name, z), y_ref)
            if d_ref is None:
                # linear passes its cotangent on as it is
                assert d is None and nn._scale(d, w) is w
            else:
                assert _same(d, d_ref) and _same(nn._scale(d, w), w * d_ref)


def test_forward_only_swish_equals_the_sigmoid_form():
    # a plan step's (z / 2) * (1 + tanh(z / 2)), against z * sigmoid(z) as
    # the tape computes it, at the ends of the float range too
    ends = [0.0, 1e-300, 5e-324, 1e-310, 800.0, 1e308]
    z = np.concatenate([np.random.default_rng(1).normal(size=100_000), ends,
                        np.negative(ends)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        want = z * (0.5 * (1.0 + np.tanh(0.5 * z)))
        assert _same(_plan_act("swish", z), want)
        assert _same(_kept_act("swish", z)[0], want)


@pytest.mark.parametrize("k", [1, 3])
def test_affine_layers_add_the_bias_like_before(k):
    rng = np.random.default_rng(k)
    x = _with_specials(rng, (4, 20, 5))
    W, b = rng.normal(size=(7, 5)), rng.normal(size=7)
    # a linear layer's output is its pre-activation, in a tape and a plan
    dense = nn.Dense(5, 7)
    assert _same(_kept_step(dense, _entry(dense, W, b), x)[0], x @ W.T + b)
    assert _same(_plan_step(dense, _entry(dense, W, b), x), x @ W.T + b)
    K = rng.normal(size=(k, 5, 7))
    product = nn._windows(x, k, (k - 1) // 2) @ K.reshape(-1, 7)
    assert _same(_conv(x, K, b), product + b)
    assert _same(_conv(x, K, 0.0), product + 0.0)
    conv = nn.Conv1d(5, 7, k)
    assert _same(_plan_step(conv, _entry(conv, K, b), x), product + b)
    # one product over the tap windows, where the former form added one per tap
    same = _same if k == 1 else _close
    assert same(_conv(x, K, b), _former_conv(x, K, b))
    assert same(_conv(x, K, 0.0), _former_conv(x, K, 0.0))


def test_bio_constrain_equals_the_stacked_triple():
    rng = np.random.default_rng(2)
    x = _with_specials(rng, (3, 20, 1))
    for beta in (0.5, rng.uniform(), -0.3, 0.0):
        p = _entry(nn.BioConstrain(), np.array([beta]))
        s = x[..., 0]
        want = np.stack([beta * s, -s, (1.0 - beta) * s], axis=-1)
        assert _same(_kept_step(nn.BioConstrain(), p, x)[0], want)
        assert _same(_plan_step(nn.BioConstrain(), p, x), want)


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
    # the tape keeps act(z_0) as the next step's hidden state (its windows
    # in the convolutional cell) and act'(z_0)
    _, ds, hs = _kept_step(cell, p, xs)[1][:3]
    if name == "dense":
        Wx, Wh, b = p[:3]
        h0 = np.zeros((3, cell.units))
        want = (xs @ Wx.T)[0] + h0 @ Wh.T + b
    else:
        Kx, Kh, b = p[:3]
        h0 = np.zeros((3, 20, cell.units))
        want = _conv(xs, Kx, 0.0)[0] + _conv(h0, Kh, b)
    h1, d0 = _kept_act(cell.act, want)
    if name != "dense":
        h1 = nn._windows(h1, cell.kernel, (cell.kernel - 1) // 2)
    assert _same(hs[1], h1) and _same(ds[0], d0)


class _CountingMatrix:
    """A matrix that counts the products taken with it on the right."""

    __array_ufunc__ = None  # ndarray @ this defers to __rmatmul__

    def __init__(self, a):
        self.a, self.n = a, 0

    def __rmatmul__(self, x):
        self.n += 1
        return x @ self.a


@pytest.mark.parametrize("grads", [False, True])
@pytest.mark.parametrize("name", sorted(RNN_CELLS))
def test_a_reverse_pass_stops_the_recurrent_product_at_step_1(name, grads, monkeypatch):
    # the hidden state before step 0 is zero, so a 7-step sequence takes 6
    # recurrent products back
    cell = RNN_CELLS[name]
    rng = np.random.default_rng(5)
    shape = (cell.n_in,) if name == "dense" else (20, cell.in_ch)
    net = nn.Network([cell])
    p = net.unpack(rng.normal(0.0, 0.5, net.n_params))[0]
    out, cache = _kept_step(cell, p, rng.normal(size=(7, 3) + shape))
    w = rng.normal(size=out.shape)
    if name == "dense":
        wh = _CountingMatrix(p[1])
        cell.backward((p[0], wh, p[2]), cache, w, grads)
        assert wh.n == 6
    else:
        rh, vjp, calls = p[-2], nn._conv_same_vjp, []
        monkeypatch.setattr(nn, "_conv_same_vjp",
                            lambda win, rev, *a: calls.append(rev is rh) or vjp(win, rev, *a))
        cell.backward(p, cache, w, grads)
        assert sum(calls) == 6


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


# ---------------------------------------------------------------------------
# Plain forward passes and the taped act'(z)
# ---------------------------------------------------------------------------


def _closure_nets():
    """Every network of the (study x closure kind) pairs, with the number of
    points of a grid network's input (None for a dense one)."""
    for study_name in ex.EXPERIMENTS:
        study = ex.get_study(study_name)
        for kind in ("markovian", "discrete", "distributed"):
            clo = study.closure(kind)
            # the last network reads the state alone: its channels give the points
            points = study.state_dim // clo.nets[-1].input_spec[1]
            for i, net in enumerate(clo.nets):
                points_i = points if net.input_spec[0] == "grid" else None
                yield f"{study_name}/{kind}/{i}", net, points_i


CLOSURE_NETS = {name: (net, points) for name, net, points in _closure_nets()}


def _mixed(rng, shape):
    """Normal draws of ``shape`` with SPECIAL values, repeated, at random
    places (as many as fit)."""
    x = rng.normal(0.0, 3.0, size=shape)
    flat = x.reshape(-1)
    m = min(flat.size, 2 * SPECIAL.size)
    flat[rng.choice(flat.size, m, replace=False)] = np.tile(SPECIAL, 2)[:m]
    return x


def _net_input(net, points, rng, batch):
    """Draws with SPECIAL values mixed in, in the layout ``net`` takes: one
    input (batch None) or a batch, after a sequence of four for a recurrent
    network."""
    ch = net.input_spec[1]
    shape = ((4,) if net.recurrent else ()) + ((batch,) if batch else ())
    return _mixed(rng, shape + ((points, ch) if points else (ch,)))


@pytest.mark.parametrize("batch", [None, 8], ids=["single", "batch8"])
@pytest.mark.parametrize("name", sorted(CLOSURE_NETS))
def test_plain_forward_equals_the_tape_output_and_writes_nothing(name, batch):
    # a plain forward runs through a plan, built for the call or kept by the
    # caller; its output is the tape's, bit for bit, and no pass changes a
    # byte of its caller's arrays or of a tape. Two calls on one plan with
    # different inputs each give their tape's output, and the second leaves
    # the first's as it was: the last step writes into a fresh array
    net, points = CLOSURE_NETS[name]
    rng = np.random.default_rng(31)
    params = rng.normal(0.0, 0.5, net.n_params)
    x, x2 = _net_input(net, points, rng, batch), _net_input(net, points, rng, batch)
    t = 40.5 if batch is None else np.linspace(0.0, 180.0, batch)
    t2 = t + 3.25
    run = nn.rnn_forward if net.recurrent else nn.forward
    kept = [x.copy(), x2.copy(), params.copy()]
    tp, tp2 = nn.tape(net, x, params, t), nn.tape(net, x2, params, t2)
    assert _same(run(net, x, params, t), tp.y)
    assert _same(run(net, x, net.unpack(params), t), tp.y)
    plan = nn.Plan(net, params)
    y = run(net, x, plan, t)
    y_first = y.copy()
    y2 = run(net, x2, plan, t2)
    assert _same(y, y_first) and _same(y, tp.y) and _same(y2, tp2.y)
    assert not np.shares_memory(y, y2)
    w = _mixed(rng, tp.y.shape)
    taped = [a.copy() for a in [tp.y] + _arrays(tp.caches)]
    kept.append(w.copy())
    nn.backward(tp, w)
    nn.backward_input(tp, w)
    assert all(_same(a, b) for a, b in zip([x, x2, params, w], kept))
    assert all(_same(a, b) for a, b in zip([tp.y] + _arrays(tp.caches), taped))


LEADS = [(), (1,), (2,), (4,), (8,), (20,)]


def _one_layer_nets(width, act):
    """Single-layer networks at k = 1 whose plan steps multiply by np.dot on
    one- and two-axis operands: (net, the axes before the channels of
    inputs or sequence elements, the sequence length or None). A dense
    input takes at most one batch axis; a grid input's axes are its points,
    or (3, 4) for a batch of three 4-point fields."""
    ci, co = width
    grid = LEADS[1:] + [(3, 4)]
    yield nn.Network([nn.Dense(ci, co, act)]), LEADS, None
    yield nn.Network([nn.Conv1d(ci, co, 1, act)]), grid, None
    yield nn.Network([nn.SimpleRnnCell(ci, co, act)]), LEADS, 3
    yield nn.Network([nn.SimpleRnnConvCell(ci, co, 1, act)]), grid, 3


def _former_act(name, z):
    """act(z) as a tape computed it before it ran the plan's steps."""
    if name == "tanh":
        return np.tanh(z)
    return z * (0.5 * (1.0 + np.tanh(0.5 * z))) if name == "swish" else z


def _former_one_layer(net, x, params):
    """The output of a network of :func:`_one_layer_nets` as a tape computed
    it before it ran the plan's steps: np.matmul products and bias adds in
    the former order, with the former activation expressions."""
    lay, p = net.layers[0], net.unpack(params)[0]
    act = lambda z: _former_act(lay.act, z)
    if isinstance(lay, nn.Dense):
        W, b = p[:2]
        return act(x @ W.T + b)
    if isinstance(lay, nn.Conv1d):
        K, b = p[:2]
        return act(x @ K[0] + b)
    if isinstance(lay, nn.SimpleRnnCell):
        Wx, Wh, b = p[:3]
        zx = x @ Wx.T
        h = act(zx[0] + b)
        for zx_i in zx[1:]:
            h = act(h @ Wh.T + zx_i + b)
        return h
    Kx, Kh, b, Ko, bo = p[:5]
    zx = x @ Kx[0] + 0.0
    h = act(zx[0] + b)
    for zx_i in zx[1:]:
        h = act(h @ Kh[0] + b + zx_i)
    return act(h @ Ko[0] + bo)


@pytest.mark.parametrize("width", [(1, 1), (1, 5), (2, 1), (2, 3), (5, 7), (7, 13),
                                   (13, 13), (16, 2), (16, 16)],
                         ids=lambda w: f"{w[0]}to{w[1]}")
@pytest.mark.parametrize("act", nn.ACTIVATIONS)
def test_plan_products_match_the_tape_byte_for_byte(act, width):
    # plan and tape steps multiply a contiguous operand of one or two axes
    # by np.dot, and a plan adds a bias broadcast once per plan; both give
    # the bytes of np.matmul and a bias add in the former order, with
    # SPECIAL values in the inputs and parameters (a -0.0 bias keeps the
    # sign of a zero product), on one element or point, a few and twenty,
    # and under a batch axis (np.matmul's stacked product), on two calls
    # of one plan
    rng = np.random.default_rng(40)
    for net, leads, seq in _one_layer_nets(width, act):
        params = _mixed(rng, (net.n_params,))
        run = nn.rnn_forward if net.recurrent else nn.forward
        for lead in leads:
            shape = ((seq,) if seq else ()) + lead + (width[0],)
            plan = nn.Plan(net, params)
            for x in _mixed(rng, (2,) + shape):
                want = _former_one_layer(net, x, params)
                case = (net.describe(), lead)
                assert _same(run(net, x, plan), want), case
                assert _same(nn.tape(net, x, params).y, want), case


DECODED_LAYERS = {
    "dense": (lambda act: nn.Dense(3, 4, act), None),
    "rnn": (lambda act: nn.SimpleRnnCell(3, 4, act), None),
    "conv": (lambda act: nn.Conv1d(2, 3, 3, act), 6),
    "conv_transpose": (lambda act: nn.Conv1dTranspose(2, 3, 3, act), 6),
    "rnn_conv": (lambda act: nn.SimpleRnnConvCell(2, 3, 3, act), 6),
}


def _forward_operands(lay, views):
    """What a layer's forward multiplies by and adds, from its parameter
    views, in ``decode`` order: weights transposed, kernels as (k * in,
    out) matrices of their taps, and biases."""
    flat = lambda K: K.reshape(-1, K.shape[-1])
    if isinstance(lay, nn.Dense):
        return views[0].T, views[1]
    if isinstance(lay, nn.SimpleRnnCell):
        return views[0].T, views[1].T, views[2]
    if isinstance(lay, nn.Conv1d):
        return flat(lay.taps(views[0])), views[1]
    Kx, Kh, b, Ko, bo = views
    return flat(Kx), flat(Kh), b, flat(Ko), bo


@pytest.mark.parametrize("batch", [None, 4], ids=["single", "batch4"])
@pytest.mark.parametrize("act", nn.ACTIVATIONS)
@pytest.mark.parametrize("name", sorted(DECODED_LAYERS))
def test_unpack_decodes_the_forward_operands(name, act, batch):
    # unpack appends every operand the layer's steps multiply by or add:
    # half the parameters' for swish (its steps work from z / 2), equal
    # otherwise, the weights of a dense layer or cell as views of the
    # vector; a plain and a kept step read them alike, to the same bytes
    make, points = DECODED_LAYERS[name]
    lay = make(act)
    net = nn.Network([lay])
    rng = np.random.default_rng(42)
    params = _mixed(rng, (net.n_params,))
    p = net.unpack(params)[0]
    n = len(lay.param_specs())
    want = _forward_operands(lay, p[:n])
    scale = 0.5 if act == "swish" else 1.0
    assert len(p) >= n + len(want)
    assert all(_same(got, w * scale) for got, w in zip(p[n:], want))
    if act != "swish" and points is None:
        assert all(np.shares_memory(got, params) for got in p[n:])
    x = _net_input(net, points, rng, batch)
    run = nn.rnn_forward if net.recurrent else nn.forward
    assert _same(run(net, x, params), nn.tape(net, x, params).y)


@pytest.mark.parametrize("batch", [None, 8], ids=["single", "batch8"])
@pytest.mark.parametrize("study_name, window", [
    ("exp2_subgrid", None), ("exp3b_bio1d", None), ("exp1_rom", None), ("toy", (0.2, 0.7))],
    ids=["exp2_subgrid", "exp3b_bio1d", "exp1_rom", "toy-window0.2-0.7"])
def test_aux_rate_is_the_difference_of_two_g_tapes(study_name, window, batch):
    # g at the delayed window edges runs once per block of right-hand-side
    # times (prepare), g on u(t) in each right-hand side when tau_1 = 0;
    # their difference is that of two separate tapes, time after time
    study = ex.get_study(study_name)
    clo = study.closure("distributed", window=window)
    tau1, tau2 = clo.window
    assert tau2 > tau1
    rng = np.random.default_rng(33)
    phi = rng.normal(0.0, 0.5, clo.g_net.n_params)
    lead, n = (() if batch is None else (batch,)), study.state_dim
    times = np.add.outer([40.5, 41.0, 41.25], 0.0 if batch is None else np.linspace(0, 180, batch))
    plan = nn.Plan(clo.g_net, phi)
    delayed = _mixed(rng, (3, len(clo.lags)) + lead + (n + clo.aux_dim,))
    kept = delayed.copy()
    prepared = clo.prepare(times, delayed, (None, plan))
    assert _same(delayed, kept)
    for t, edges, row in zip(times, delayed, prepared):
        u = _mixed(rng, lead + (n,))
        ends = dict(zip(clo.lags, edges[..., :n])) | {0.0: u}
        g1, g2 = (nn.tape(clo.g_net, nn.fields(clo.g_net, ends[tau]), phi, t - tau).y
                  .reshape(lead + (-1,)) for tau in (tau1, tau2))
        rate = clo.aux_rate(t, u, row, plan)
        # both edges delayed: the prepared row is the rate, which no
        # right-hand side writes into
        assert _same(rate, g1 - g2) and np.shares_memory(rate, prepared) == (tau1 > 0.0)


@pytest.mark.parametrize("study_name, kind, window", [
    ("toy", "markovian", None), ("toy", "discrete", None), ("toy", "distributed", None),
    ("toy", "distributed", (0.3, 0.3)), ("exp2_subgrid", "distributed", None),
    ("exp3b_bio1d", "discrete", None)])
def test_a_solve_builds_one_plan_per_network(study_name, kind, window, monkeypatch):
    # forward_augmented builds one plan per network, each sized once and
    # called by every right-hand side; the g-network's is called once per
    # right-hand side (on u(t), tau_1 = 0 here) plus one stacked pass per
    # block of times over its delayed edges, where it ran twice per
    # right-hand side, and not at all over an empty window; the adjoint
    # sweep builds none
    plans, calls, at_adjoint = [], Counter(), []

    class CountedPlan(nn.Plan):
        def __init__(self, *args):
            super().__init__(*args)
            self.calls = self.builds = self.stacks = 0
            plans.append(self)

        def __call__(self, *args):
            self.calls += 1
            return super().__call__(*args)

        def stacked(self, *args):
            self.stacks += 1
            return super().stacked(*args)

        def _build(self, x):
            self.builds += 1
            super()._build(x)

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    ode, dde, adjoint = closure.integrate_ode, closure.integrate_dde, closure.adjoint_gradient
    monkeypatch.setattr(nn, "Plan", CountedPlan)
    monkeypatch.setattr(closure, "integrate_ode",
                        lambda rhs, *a, **k: ode(counted("rhs", rhs), *a, **k))
    monkeypatch.setattr(closure, "integrate_dde", lambda prob, *a, **k: dde(
        dataclasses.replace(prob, rhs=counted("rhs", prob.rhs),
                            prepare=counted("blocks", prob.prepare)), *a, **k))
    monkeypatch.setattr(closure, "adjoint_gradient",
                        lambda *a: at_adjoint.append(len(plans)) or adjoint(*a))
    clo = _counted_window(study_name, kind, monkeypatch, window)[0]
    assert at_adjoint == [len(plans)] and [p.net for p in plans] == list(clo.nets)
    n_rhs, blocks = calls["rhs"], calls["blocks"]
    assert n_rhs > 0 and plans[0].calls == n_rhs and plans[0].builds == 1
    assert (blocks > 0) == bool(clo.lags) and blocks < n_rhs / 4
    if kind == "distributed":
        windowed = clo.window[1] > clo.window[0]
        assert clo.window[0] == 0.0 or not windowed
        assert plans[1].calls == n_rhs * windowed and plans[1].builds == windowed
        assert plans[1].stacks == blocks


def test_a_plan_runs_only_the_shape_it_was_built_for():
    net, points = CLOSURE_NETS["exp2_subgrid/markovian/0"]
    rng = np.random.default_rng(34)
    params = rng.normal(0.0, 0.5, net.n_params)
    x = rng.normal(size=(8, points, 1))
    plan = nn.Plan(net, params)
    with pytest.raises(ValueError, match="input shape"):
        plan(x[..., 0])         # a layout the network does not take
    y = plan(x)
    for bad in (x[:4], x[0], np.zeros((8, points + 1, 1))):
        with pytest.raises(ValueError, match="input shape"):
            plan(bad)
    other, _ = CLOSURE_NETS["exp2_subgrid/distributed/1"]
    with pytest.raises(ValueError, match="another network"):
        nn.forward(other, x, plan)
    assert _same(plan(x), y)


@pytest.mark.parametrize("name", ["exp1_rom/distributed/1", "exp3b_bio1d/distributed/1"])
def test_stacked_passes_build_once_per_shape(name, monkeypatch):
    # a plan keeps the steps a stacked pass builds for its input shape: a
    # second call at that shape builds nothing and gives a fresh plan's
    # bytes, in an array of its own, and a call at another shape builds its
    # own steps
    net, points = CLOSURE_NETS[name]
    rng = np.random.default_rng(37)
    params = rng.normal(0.0, 0.5, net.n_params)
    xs, xs2 = (np.stack([_net_input(net, points, rng, None) for _ in range(5)])
               for _ in range(2))
    times = np.array([40.5, 41.0, 41.25, 41.5, 42.0])
    builds, steps = [], nn._steps
    monkeypatch.setattr(nn, "_steps", lambda *a: builds.append(a[2]) or steps(*a))
    plan = nn.Plan(net, params)
    y = plan.stacked(xs, times)
    y_first = y.copy()
    y2 = plan.stacked(xs2, times + 3.25)
    assert len(builds) == 1
    plan.stacked(xs[:3], times[:3])
    plan.stacked(xs2, times)
    assert len(builds) == 2 and builds[1][0] == 3
    assert _same(y, y_first) and not np.shares_memory(y, y2)
    assert _same(y2, nn.Plan(net, params).stacked(xs2, times + 3.25))


@pytest.mark.parametrize("batch", [None, 8], ids=["single", "batch8"])
@pytest.mark.parametrize("name", sorted(CLOSURE_NETS))
def test_a_tape_shares_no_buffer_with_a_later_pass(name, batch):
    # every tape runs on buffers of its own: a second tape of the same
    # network and views, and plain passes through plans, leave the first
    # tape's output, caches and reverse passes as they were
    net, points = CLOSURE_NETS[name]
    rng = np.random.default_rng(38)
    views = net.unpack(rng.normal(0.0, 0.5, net.n_params))
    x, x2 = _net_input(net, points, rng, batch), _net_input(net, points, rng, batch)
    t = 40.5 if batch is None else np.linspace(0.0, 180.0, batch)
    tp = nn.tape(net, x, views, t)
    w = _mixed(rng, tp.y.shape)
    taped = [a.copy() for a in [tp.y] + _arrays(tp.caches)]
    (dx, grads), dx_input = nn.backward(tp, w), nn.backward_input(tp, w)
    tp2 = nn.tape(net, x2, views, t + 3.25)
    run = nn.rnn_forward if net.recurrent else nn.forward
    plan = nn.Plan(net, views)
    for xi in (x2, x):
        run(net, xi, plan, t)
        run(net, xi, views, t)
    ours = [tp.y] + _arrays(tp.caches)
    assert all(_same(a, b) for a, b in zip(ours, taped))
    assert not any(np.shares_memory(a, b) for a in ours for b in [tp2.y] + _arrays(tp2.caches))
    again = nn.backward(tp, w)
    assert _same(again[0], dx) and _same(again[1], grads)
    assert _same(nn.backward_input(tp, w), dx_input)


def _counted_derivatives(monkeypatch):
    """A counter of the act'(z) that nn computes, one per call of its
    activation routine for a derivative on an activated (not linear) layer."""
    count = Counter()
    activate = nn._activate

    def rec(name, z, out, deriv=False):
        count["deriv"] += deriv and name != "linear"
        return activate(name, z, out, deriv)

    monkeypatch.setattr(nn, "_activate", rec)
    return count


@pytest.mark.parametrize("name", ["exp2_subgrid/markovian/0", "exp2_subgrid/discrete/0",
                                  "exp3b_bio1d/markovian/0"])
def test_an_input_pass_reads_the_taped_derivative(name, monkeypatch):
    # the tape computes act'(z) once per activated layer, once per sequence
    # step in a recurrent cell (whose output convolution adds one); reverse
    # passes only multiply by it, so they call neither the helper nor tanh
    net, points = CLOSURE_NETS[name]
    rng = np.random.default_rng(32)
    params = rng.normal(0.0, 0.5, net.n_params)
    x = _net_input(net, points, rng, 8)
    t = np.linspace(0.0, 180.0, 8)
    count = _counted_derivatives(monkeypatch)
    tp = nn.tape(net, x, params, t)
    want = 0
    for lay in net.layers:
        if getattr(lay, "act", "linear") != "linear":
            want += (len(x) + isinstance(lay, nn.SimpleRnnConvCell)
                     if isinstance(lay, nn._RECURRENT) else 1)
    assert count["deriv"] == want > 0
    tanh = np.tanh
    monkeypatch.setattr(np, "tanh", lambda *a, **k: count.update(["tanh"]) or tanh(*a, **k))
    count.clear()
    w = rng.normal(size=tp.y.shape)
    nn.backward_input(tp, w)
    nn.backward(tp, w)
    assert count["deriv"] == count["tanh"] == 0
    # a plain forward activates without a derivative
    run = nn.rnn_forward if net.recurrent else nn.forward
    run(net, x[:, 0] if net.recurrent else x[0], params, 0.0)
    assert count["deriv"] == 0 and count["tanh"] > 0


# ---------------------------------------------------------------------------
# Delay solves prepared a block of right-hand sides at a time
# ---------------------------------------------------------------------------


def _matrices(net, points, views):
    """Each product of a plain pass of ``net``: (its decoded matrix, the left
    operand's leading sequence axis, 4 for a recurrent cell's input half,
    else (), the shape of its rows per member, its tap count or None for a
    dense product)."""
    for lay, p in zip(net.layers, views):
        if isinstance(lay, nn.Dense):
            yield p[2], (), (lay.n_in,), None
        elif isinstance(lay, nn.SimpleRnnCell):
            yield p[3], (4,), (lay.n_in,), None
            yield p[4], (), (lay.units,), None
        elif isinstance(lay, nn.SimpleRnnConvCell):
            yield p[5], (4,), (points, lay.in_ch), lay.kernel
            for F in (p[6], p[8]):
                yield F, (), (points, lay.units), lay.kernel
        elif isinstance(lay, nn.Conv1d):
            yield p[2], (), (points, lay.in_ch), lay.kernel


@pytest.mark.parametrize("batch", [None, 8], ids=["single", "batch8"])
@pytest.mark.parametrize("name", sorted(CLOSURE_NETS))
def test_stacked_products_run_each_slice_as_the_unstacked_one(name, batch):
    # the exactness of a block of right-hand sides rests on two rules of the
    # matmul: a product stacked along a leading axis runs each slice as the
    # unstacked product does (dense rows, a batch's members, a sequence,
    # convolution tap windows), and a one-trajectory row stacked as
    # (R, 1, d) takes the 1-D product's routine, unlike an (R, d) product
    net, points = CLOSURE_NETS[name]
    rng = np.random.default_rng(35)
    views = net.unpack(rng.normal(0.0, 0.5, net.n_params))
    for M, seq, rows, k in _matrices(net, points, views):
        xs = _mixed(rng, (5,) + seq + ((batch,) if batch else ()) + rows)
        if k is not None:
            xs = nn._windows(xs, k, (k - 1) // 2)
        slices = [x @ M for x in xs]
        if xs.ndim == 2:
            assert all(_same(y[0], s) for y, s in zip(xs[:, None] @ M, slices))
        else:
            assert all(_same(y, s) for y, s in zip(xs @ M, slices))


@pytest.mark.parametrize("batch", [None, 8], ids=["single", "batch8"])
@pytest.mark.parametrize("name", sorted(CLOSURE_NETS))
def test_prefix_and_stacked_passes_equal_the_tape(name, batch):
    # a recurrent network's sequences run as one prefix pass over their
    # delayed elements, then a call per last element from its row (twice
    # from one row, as two RK4 stages at one time do); a feed-forward
    # network runs a block of inputs in one stacked pass. Each output is the
    # tape's of that one input, bit for bit, and the row is left as it was
    net, points = CLOSURE_NETS[name]
    rng = np.random.default_rng(36)
    params = rng.normal(0.0, 0.5, net.n_params)
    xs = np.stack([_net_input(net, points, rng, batch) for _ in range(3)])
    times = np.add.outer([40.5, 41.0, 41.25], 0.0 if batch is None else np.linspace(0, 180, batch))
    plan = nn.Plan(net, params)
    if net.recurrent:
        rows = plan.prefix(xs[:, :-1])
        kept = rows.copy()
        for x, t, row in zip(xs, times, rows):
            want = nn.tape(net, x, params, t).y
            assert _same(nn.rnn_forward(net, x[-1], plan, t, row), want)
            assert _same(nn.rnn_forward(net, x[-1], plan, t, row), want)
            assert _same(plan(x, t), want)
        assert _same(rows, kept)
    else:
        ys = plan.stacked(xs, times)
        assert all(_same(y, nn.tape(net, x, params, t).y) for x, t, y in zip(xs, times, ys))


DELAY_CASES = {
    **{f"{name}/{kind}": (name, kind, {}) for name in ex.EXPERIMENTS
       for kind in ("discrete", "distributed")},
    # a step of the smallest delay: some reads fall an ulp past the
    # committed end and are prepared alone, at their own stage
    "toy/step-equals-delay": ("toy", "discrete", {"delays": (0.025, 0.1)}),
    "toy/one-delay": ("toy", "discrete", {"delays": (0.1,)}),
    "toy/tau1-positive": ("toy", "distributed", {"window": (0.2, 0.7)}),
    "toy/empty-window": ("toy", "distributed", {"window": (0.3, 0.3)}),
}


@pytest.mark.parametrize("batch", [None, 8], ids=["single", "batch8"])
@pytest.mark.parametrize("case", sorted(DELAY_CASES))
def test_a_delay_solve_is_the_per_stage_solve(case, batch):
    # forward_augmented prepares a block of right-hand sides at a time (the
    # delayed reads in one eval_many, the recurrent prefix and g at the
    # delayed window edges in one pass); its knots, values and slopes are
    # those of the solve that reads each delayed state by a scalar eval and
    # runs each network whole at every stage, bit for bit
    name, kind, kw = DELAY_CASES[case]
    study, data, ds = _study_data(name)
    clo = study.closure(kind, **kw)
    sys = study.system(clo, getattr(data, "basis", None))
    p0 = ex.initial_params(clo, 37)
    params = p0 + 0.3 * np.random.default_rng(37).standard_normal(p0.size)
    n = study.settings(kind).window_steps
    st = 1 if batch is None else np.linspace(1, ds.n_steps - n, batch).astype(int)
    span = (ds.times[st], ds.times[st + n])
    dt = study.forward_dt
    if case == "toy/step-equals-delay":
        ts, _, ends = integrate.rk4_grid(ds.times[1], ds.times[1 + n], dt)
        assert dt == clo.delays[0] and np.any(ends - dt > ts[:-1])
    run = closure.forward_augmented(sys, params, span, study.forward_stepper(),
                                    history=ds.history_fn())
    knots, values, slopes = oracles.augmented_solve_per_stage(sys, params, span, dt,
                                                              ds.history_fn())
    m = knots.size
    assert run.traj.knots().tobytes() == knots.tobytes()
    assert run.traj._u[:m].tobytes() == values.tobytes()
    assert run.traj._f[:m].tobytes() == slopes.tobytes()


def test_a_discrete_solve_steps_the_delayed_elements_once_per_time(monkeypatch):
    # each right-hand side runs one recurrent step, on u(t), and the block's
    # prefix K - 1 per prepared time, where every right-hand side ran K;
    # counted as products with the recurrent matrix, one per row, whether a
    # step multiplies by np.matmul or np.dot
    study, data, ds = _study_data("exp1_rom")
    clo = study.closure("discrete")
    sys = study.system(clo, data.basis)
    params = ex.initial_params(clo, 38) + 0.01
    Mh = nn.Plan(clo.net, params).views[0][1].T
    steps, times, counts = Counter(), [], Counter()

    class Counted:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def count(a, b):
            if b.shape == Mh.shape and np.array_equal(b, Mh):
                steps[a.ndim] += a.size // Mh.shape[0]

        def matmul(self, a, b, *out):
            self.count(a, b)
            return np.matmul(a, b, *out)

        def dot(self, a, b, *out):
            self.count(a, b)
            return np.dot(a, b, *out)

    dde = closure.integrate_dde

    def solve(prob, *args):
        def prepare(ts, delayed):
            times.extend(ts)
            return prob.prepare(ts, delayed)

        def rhs(*a):
            counts["rhs"] += 1
            return prob.rhs(*a)
        return dde(dataclasses.replace(prob, rhs=rhs, prepare=prepare), *args)

    monkeypatch.setattr(nn, "np", Counted())
    monkeypatch.setattr(closure, "integrate_dde", solve)
    span = (float(ds.times[40]), float(ds.times[100]))
    closure.forward_augmented(sys, params, span, study.forward_stepper(),
                              history=ds.history_fn())
    K = len(clo.delays)
    # the four right-hand sides of a step share two times (three where the
    # step's end and the next knot differ by rounding)
    n_steps = (counts["rhs"] - 1) // 4
    assert 2 * n_steps + 1 <= len(times) <= 3 * n_steps + 1
    assert steps == {1: counts["rhs"], 3: (K - 1) * len(times)}


# ---------------------------------------------------------------------------
# Time forcing tables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("batch", [None, 8], ids=["single", "batch8"])
@pytest.mark.parametrize("kind", ex.CLOSURE_KINDS)
def test_each_forcing_function_runs_once_per_solve_and_sweep(kind, batch, monkeypatch):
    # a forward solve fills the column model's diffusivity and growth tables
    # and the context channels' table over its right-hand-side times, one
    # evaluation each; a sweep fills the model's tables over its stage times
    # and reads the context channels once, in its one f-network tape; no
    # right-hand side evaluates any of them
    study, data, ds = _study_data("exp3b_bio1d")
    clo = study.closure(kind)
    sys = study.system(clo)
    assert sys.context == (study.context_channels(),)
    evals, rhs_calls = Counter(), Counter()
    for name, table in zip(("k_faces", "growth", "context"), sys.forcing + sys.context):
        monkeypatch.setattr(table, "fn", lambda ts, fn=table.fn, name=name:
                            evals.update([name]) or fn(ts))
    ode, dde = closure.integrate_ode, closure.integrate_dde

    def counted(rhs):
        return lambda *a: rhs_calls.update(["rhs"]) or rhs(*a)
    monkeypatch.setattr(closure, "integrate_ode", lambda rhs, *a: ode(counted(rhs), *a))
    monkeypatch.setattr(closure, "integrate_dde", lambda prob, *a: dde(
        dataclasses.replace(prob, rhs=counted(prob.rhs)), *a))
    vjp = sys.base_vjp
    sys = dataclasses.replace(sys, base_vjp=lambda *a: rhs_calls.update(["vjp"]) or vjp(*a))

    s = study.settings(kind)
    w, stride = s.window_steps, s.supervise_stride
    starts = 3 if batch is None else np.linspace(3, ds.n_steps - w, batch).astype(int)
    sup = np.arange(stride, w + 1, stride)
    p0 = ex.initial_params(clo, 13)
    params = p0 + 0.01 * np.random.default_rng(13).standard_normal(p0.size)
    run = closure.forward_augmented(sys, params, (ds.times[starts], ds.times[starts + w]),
                                    study.forward_stepper(), history=ds.history_fn(),
                                    u0=ds.states[starts])
    assert evals == {"k_faces": 1, "growth": 1, "context": 1} and rhs_calls["rhs"] > 20
    targets = ds.states[np.add.outer(sup, starts)]
    window = train.SnapshotDataset(ds.times[np.min(starts) + sup], targets)
    closure.adjoint_gradient(sys, params, run, window, study.loss_spec(),
                             study.forward_stepper())
    assert evals == {"k_faces": 2, "growth": 2, "context": 2} and rhs_calls["vjp"] > 20
