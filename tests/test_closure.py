"""Adjoint gradients checked against closed forms and finite differences.

The adjoint sweeps and the finite-difference oracle are independent code
paths (the oracle only runs forward solves), so agreement here validates the
advanced-argument terms, the jump convention at data times, and, for the
distributed closure, the history-window term in the phi-gradient.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from neuralclosure import nn
from neuralclosure.closure import (
    AugmentedSystem,
    Discrete,
    Distributed,
    Markovian,
    adjoint_discrete,
    adjoint_distributed,
    adjoint_markovian,
    constant_history,
    _advanced_reads,
    _backward_sweep,
    _sweep_grid,
    fd_gradient,
    forward_augmented,
    run_loss,
)
from neuralclosure.integrate import DormandPrince54, RK4Fixed, integrate_ode
from neuralclosure.train import SnapshotDataset, evaluate_rollout

from oracles import rel_l2


@dataclass
class QuadLoss:
    weight: float = 1.0

    def total(self, preds, targets):
        return 0.5 * self.weight * float(np.sum((preds - targets) ** 2))

    def cotangents(self, preds, targets):
        return self.weight * (preds - targets)


class SumLoss:
    """total = sum of every predicted component (cotangent of ones)."""

    def total(self, preds, targets):
        return float(np.sum(preds))

    def cotangents(self, preds, targets):
        return np.ones_like(preds)


@dataclass
class Data:
    times: np.ndarray
    states: np.ndarray


def decay_rhs(t, u):
    return -u


def decay_vjp(t, u, w):
    return -w


def markovian_toy():
    net = nn.Network([nn.Dense(2, 4, "tanh"), nn.Dense(4, 2)])
    return AugmentedSystem(decay_rhs, Markovian(net), 2, base_vjp=decay_vjp)


def discrete_toy(delays=(0.1, 0.25)):
    net = nn.Network([nn.SimpleRnnCell(2, 4), nn.Dense(4, 2)])
    return AugmentedSystem(decay_rhs, Discrete(net, delays), 2, base_vjp=decay_vjp)


def distributed_toy(window):
    f = nn.Network([nn.Dense(4, 4, "tanh"), nn.Dense(4, 2)])
    g = nn.Network([nn.Dense(2, 3, "tanh"), nn.Dense(3, 2)])
    clo = Distributed(f, g, window, aux_dim=2)
    return AugmentedSystem(decay_rhs, clo, 2, base_vjp=decay_vjp)


def random_params(sys, seed, scale=0.8):
    return scale * np.concatenate([nn.init_params(net, seed + i, zero_final=False)
                                   for i, net in enumerate(sys.closure.nets)])


def toy_dataset(rng, times, dim=2):
    times = np.asarray(times, dtype=float)
    return Data(times, rng.normal(0.0, 0.5, size=(times.size, dim)))


# ---------------------------------------------------------------------------
# Closed-form gradients
# ---------------------------------------------------------------------------


def test_terminal_sum_gradient_is_elapsed_time():
    # du/dt = b with W frozen at zero: dL/db = T for L = sum(u(T)),
    # dL/dW_ij = u0_j T + b_j T^2 / 2 from the adjoint integral by hand.
    net = nn.Network([nn.Dense(1, 1)])
    sys = AugmentedSystem(lambda t, u: np.zeros(1), Markovian(net), 1,
                          base_vjp=lambda t, u, w: np.zeros(1))
    b = 0.7
    params = np.array([0.0, b])
    u0 = np.array([0.4])
    T = 1.3
    ds = Data(np.array([T]), np.zeros((1, 1)))
    run = forward_augmented(sys, params, (0.0, T), RK4Fixed(0.01), u0=u0)
    adj = adjoint_markovian(sys, params, run, ds, SumLoss(), RK4Fixed(0.01))
    expect_dW = u0[0] * T + b * T * T / 2.0
    assert abs(adj.grad[1] - T) < 1e-12
    assert abs(adj.grad[0] - expect_dW) < 1e-12


def test_linear_closure_gradient_closed_form():
    # base 0, closure W u + b with W = 0 at the evaluation point: the state
    # adjoint is constant at -r between 0 and T, so
    # dL/db_i = r_i T and dL/dW_ij = r_i (u0_j T + b_j T^2 / 2).
    net = nn.Network([nn.Dense(2, 2)])
    sys = AugmentedSystem(lambda t, u: np.zeros(2), Markovian(net), 2,
                          base_vjp=lambda t, u, w: np.zeros(2))
    b = np.array([0.3, -0.2])
    params = np.concatenate([np.zeros(4), b])
    u0 = np.array([0.5, 1.0])
    T = 0.8
    target = np.array([[0.1, 0.2]])
    ds = Data(np.array([T]), target)
    run = forward_augmented(sys, params, (0.0, T), RK4Fixed(0.005), u0=u0)
    adj = adjoint_markovian(sys, params, run, ds, QuadLoss(), RK4Fixed(0.005))
    r = run.u_at(T) - target[0]
    expect_db = r * T
    expect_dW = np.outer(r, u0 * T + b * T * T / 2.0)
    assert np.max(np.abs(adj.grad[4:] - expect_db)) < 1e-12
    assert np.max(np.abs(adj.grad[:4].reshape(2, 2) - expect_dW)) < 1e-10


# ---------------------------------------------------------------------------
# Finite-difference agreement
# ---------------------------------------------------------------------------


def test_markovian_adjoint_matches_fd():
    sys = markovian_toy()
    params = random_params(sys, 7)
    rng = np.random.default_rng(3)
    u0 = np.array([0.6, -0.4])
    ds = toy_dataset(rng, [0.4, 1.0])
    loss = QuadLoss()
    run = forward_augmented(sys, params, (0.0, 1.0), RK4Fixed(0.01), u0=u0)
    adj = adjoint_markovian(sys, params, run, ds, loss, RK4Fixed(0.002))
    fd = fd_gradient(sys, params, (0.0, 1.0), ds, loss, RK4Fixed(0.01), u0=u0)
    assert rel_l2(adj.grad, fd) < 1e-4


@settings(max_examples=15)
@given(hnp.arrays(np.float64, (17,), elements=st.floats(-1.0, 1.0)))
def test_markovian_adjoint_matches_fd_property(params):
    net = nn.Network([nn.Dense(2, 3, "tanh"), nn.Dense(3, 2)])
    sys = AugmentedSystem(decay_rhs, Markovian(net), 2, base_vjp=decay_vjp)
    u0 = np.array([0.5, -0.3])
    ds = Data(np.array([0.5]), np.array([[0.2, 0.1]]))
    loss = QuadLoss()
    run = forward_augmented(sys, params, (0.0, 0.5), RK4Fixed(0.02), u0=u0)
    adj = adjoint_markovian(sys, params, run, ds, loss, RK4Fixed(0.005))
    fd = fd_gradient(sys, params, (0.0, 0.5), ds, loss, RK4Fixed(0.02), u0=u0)
    assume(np.linalg.norm(fd) > 1e-6)
    assert rel_l2(adj.grad, fd) < 1e-4


def test_sweep_reads_are_its_grid_stage_times():
    # the backward analogue of the forward solve's lookup plan: every time
    # at which the sweep evaluates rhs_adj or places a trapezoid node is a
    # knot or a midpoint of its grid, and every such time is evaluated, also
    # where segment bounds are jump times minus shifts. The advanced reads
    # look only at their planned times, none past T. The nodes are the
    # knots, two per step, with weight half the step
    jumps = np.array([0.3, 0.65, 1.0])
    for shifts in ((), (0.15,), (0.07, 0.2)):
        grid = _sweep_grid(0.0, 1.0, jumps, 0.02, shifts)
        bounds = [ts[-1] for ts, _ in grid]
        for s in (tj - tau for tj in jumps for tau in shifts):
            assert min(abs(b - s) for b in bounds) <= 1e-12
        stages = np.unique(np.concatenate([ts for seg in grid for ts in seg]))
        _, reads = _advanced_reads(stages, shifts, 1.0)
        seen = []

        def rhs_adj(t, a, look):
            seen.append(t)
            for _, s in reads.get(t, ()):
                assert s <= 1.0
                look(s)
            return -a

        store, (node_t, node_w, node_a) = _backward_sweep(
            (2,), grid, jumps, np.ones((3, 2)), rhs_adj)
        seen += node_t.tolist()
        assert set(seen) == set(np.concatenate([ts for seg in grid for ts in seg]).tolist())
        knots = np.concatenate([ts for ts, _ in grid])
        steps = [(t, u) for ts, _ in grid for t, u in zip(ts[:-1], ts[1:])]
        assert set(node_t.tolist()) == set(knots.tolist())
        assert node_t.size == node_w.size == len(node_a) == 2 * len(steps)
        assert node_w.tolist() == [0.5 * (t - u) for t, u in steps for _ in (t, u)]
        # the trapezoid rule over the backward knots integrates 1 over [0, 1]
        assert abs(node_w.sum() - 1.0) <= 1e-14


def test_discrete_adjoint_matches_fd():
    sys = discrete_toy()
    params = random_params(sys, 5)
    rng = np.random.default_rng(9)
    ds = toy_dataset(rng, [1.0])
    loss = QuadLoss()

    def hist(s):
        return np.array([0.5, -0.2]) + 0.3 * np.asarray(s)[..., None] * np.array([1.0, -0.5])

    run = forward_augmented(sys, params, (0.0, 1.0), RK4Fixed(0.02), history=hist)
    adj = adjoint_discrete(sys, params, run, ds, loss, RK4Fixed(0.004))
    fd = fd_gradient(sys, params, (0.0, 1.0), ds, loss, RK4Fixed(0.02), history=hist)
    assert rel_l2(adj.grad, fd) < 1e-4


def test_discrete_adjoint_interior_data_times_match_fd():
    # interior jumps interact with the advanced terms: lambda(t + tau) read
    # across a data-time discontinuity must come from the committed store
    sys = discrete_toy(delays=(0.15,))
    params = random_params(sys, 21)
    rng = np.random.default_rng(17)
    ds = toy_dataset(rng, [0.3, 0.65, 1.0])
    loss = QuadLoss()
    hist = constant_history(np.array([0.7, -0.1]))
    run = forward_augmented(sys, params, (0.0, 1.0), RK4Fixed(0.02), history=hist)
    adj = adjoint_discrete(sys, params, run, ds, loss, RK4Fixed(0.004))
    fd = fd_gradient(sys, params, (0.0, 1.0), ds, loss, RK4Fixed(0.02), history=hist)
    assert rel_l2(adj.grad, fd) < 1e-4


def test_discrete_adjoint_is_second_order_where_a_step_equals_the_delay():
    # at dt = tau the last stage of the step below a data time reads the
    # adjoint at that data time from above, where the store still ends with
    # its pre-jump value: adding the jump back there costs the sweep its order
    sys = discrete_toy(delays=(0.02,))
    params = random_params(sys, 21)
    ds = toy_dataset(np.random.default_rng(17), [0.3, 0.64, 1.0])
    hist = constant_history(np.array([0.7, -0.1]))
    run = forward_augmented(sys, params, (0.0, 1.0), RK4Fixed(0.001), history=hist)
    ref = adjoint_discrete(sys, params, run, ds, QuadLoss(), RK4Fixed(0.001)).grad
    err = [rel_l2(adjoint_discrete(sys, params, run, ds, QuadLoss(), RK4Fixed(dt)).grad, ref)
           for dt in (0.02, 0.01)]
    assert err[0] < 5.0 * err[1]


def test_no_delay_recurrent_gradient_matches_dense():
    # a recurrent closure with no delays sees one-element sequences, which is
    # exactly the dense network with the recurrent kernel unused
    rnn_net = nn.Network([nn.SimpleRnnCell(2, 4), nn.Dense(4, 2)])
    dense_net = nn.Network([nn.Dense(2, 4, "tanh"), nn.Dense(4, 2)])
    sys_r = AugmentedSystem(decay_rhs, Discrete(rnn_net, ()), 2, base_vjp=decay_vjp)
    sys_d = AugmentedSystem(decay_rhs, Markovian(dense_net), 2, base_vjp=decay_vjp)

    rng = np.random.default_rng(2)
    Wx = rng.normal(0.0, 0.5, (4, 2))
    b1 = rng.normal(0.0, 0.2, 4)
    W2 = rng.normal(0.0, 0.5, (2, 4))
    b2 = rng.normal(0.0, 0.2, 2)
    p_r = np.concatenate([Wx.ravel(), np.zeros(16), b1, W2.ravel(), b2])
    p_d = np.concatenate([Wx.ravel(), b1, W2.ravel(), b2])

    ds = Data(np.array([0.5, 1.0]), np.array([[0.1, 0.0], [-0.2, 0.3]]))
    loss = QuadLoss()
    u0 = np.array([0.4, 0.9])
    run_r = forward_augmented(sys_r, p_r, (0.0, 1.0), RK4Fixed(0.01), u0=u0)
    run_d = forward_augmented(sys_d, p_d, (0.0, 1.0), RK4Fixed(0.01), u0=u0)
    adj_r = adjoint_discrete(sys_r, p_r, run_r, ds, loss, RK4Fixed(0.005))
    adj_d = adjoint_markovian(sys_d, p_d, run_d, ds, loss, RK4Fixed(0.005))

    g_r = adj_r.grad
    # recurrent kernel slots receive exactly zero (h_0 = 0 feeds them)
    assert np.all(g_r[8:24] == 0.0)
    g_r_dense_slots = np.concatenate([g_r[:8], g_r[24:]])
    assert np.max(np.abs(g_r_dense_slots - adj_d.grad)) < 1e-10


def test_distributed_adjoint_matches_fd_zero_tau1():
    sys = distributed_toy((0.0, 0.5))
    params = random_params(sys, 13)
    rng = np.random.default_rng(23)
    ds = toy_dataset(rng, [0.5, 1.0])
    loss = QuadLoss()

    def hist(s):
        return np.array([0.5, -0.2]) + 0.25 * np.asarray(s)[..., None] * np.array([1.0, -0.6])

    run = forward_augmented(sys, params, (0.0, 1.0), RK4Fixed(0.02), history=hist)
    adj = adjoint_distributed(sys, params, run, ds, loss, RK4Fixed(0.005))
    fd = fd_gradient(sys, params, (0.0, 1.0), ds, loss, RK4Fixed(0.02), history=hist)
    assert rel_l2(adj.grad, fd) < 1e-4
    assert np.linalg.norm(adj.grad[sys.n_theta:]) > 0.0


def test_distributed_adjoint_matches_fd_positive_tau1():
    sys = distributed_toy((0.2, 0.7))
    params = random_params(sys, 29)
    rng = np.random.default_rng(31)
    ds = toy_dataset(rng, [1.0])
    loss = QuadLoss()

    def hist(s):
        return np.array([0.3, 0.4]) + 0.2 * np.stack([np.sin(s), np.cos(s)], axis=-1)

    run = forward_augmented(sys, params, (0.0, 1.0), RK4Fixed(0.02), history=hist)
    adj = adjoint_distributed(sys, params, run, ds, loss, RK4Fixed(0.005))
    fd = fd_gradient(sys, params, (0.0, 1.0), ds, loss, RK4Fixed(0.02), history=hist)
    assert rel_l2(adj.grad, fd) < 1e-4


def test_degenerate_window_freezes_aux_and_zeroes_phi_gradient():
    # tau_1 == tau_2: the moving window is empty, y stays at its (zero)
    # initial value and g never influences the trajectory
    sys = distributed_toy((0.3, 0.3))
    params = random_params(sys, 37)
    ds = Data(np.array([0.8]), np.array([[0.0, 0.1]]))
    loss = QuadLoss()
    u0 = np.array([0.5, -0.5])
    run = forward_augmented(sys, params, (0.0, 0.8), RK4Fixed(0.02), u0=u0)
    assert np.all(run.traj.eval(0.5)[2:] == 0.0)
    adj = adjoint_distributed(sys, params, run, ds, loss, RK4Fixed(0.005))
    assert np.all(adj.grad[sys.n_theta:] == 0.0)
    fd = fd_gradient(sys, params, (0.0, 0.8), ds, loss, RK4Fixed(0.02), u0=u0)
    assert rel_l2(adj.grad[:sys.n_theta], fd[:sys.n_theta]) < 1e-4
    assert np.max(np.abs(fd[sys.n_theta:])) < 1e-9


def test_empty_window_sweeps_like_the_zero_window():
    # a (0.3, 0.3) window is as empty as (0, 0): y stays zero, the forward
    # solve is the same ODE, and the adjoint sweep reads no advanced value,
    # so it must take the same steps and give the same gradient bit for bit
    ds = Data(np.array([0.4, 0.8]), np.array([[0.0, 0.1], [0.2, -0.1]]))
    u0 = np.array([0.5, -0.5])
    sweeps = []
    for window in ((0.3, 0.3), (0.0, 0.0)):
        sys = distributed_toy(window)
        params = random_params(sys, 37)
        run = forward_augmented(sys, params, (0.0, 0.8), RK4Fixed(0.02), u0=u0)
        adj = adjoint_distributed(sys, params, run, ds, QuadLoss(), RK4Fixed(0.02))
        sweeps.append((adj.grad.tobytes(), adj.adjoint_traj.knots().tobytes()))
    assert sweeps[0] == sweeps[1]


def test_history_quadrature_needs_no_numpy_trapezoid(monkeypatch):
    # pyproject.toml allows NumPy 1.24, which has no np.trapezoid; the
    # forward solve with its y(t0) quadrature must give the same bits with
    # and without it
    def hist(s):
        return np.array([0.5, -0.2]) + 0.25 * np.asarray(s)[..., None] * np.array([1.0, -0.6])

    def results():
        sys = distributed_toy((0.0, 0.5))
        run = forward_augmented(sys, random_params(sys, 13), (0.0, 1.0),
                                RK4Fixed(0.02), history=hist)
        return np.stack([run.traj.eval(t) for t in np.linspace(0.0, 1.0, 11)])

    want = results()
    monkeypatch.delattr(np, "trapezoid", raising=False)
    assert results().tobytes() == want.tobytes()


def test_constant_g_gives_constant_aux_field():
    # zero g-weights with a final bias c make g identically c, so
    # y(t) = c * (tau_2 - tau_1) for all t regardless of history
    sys = distributed_toy((0.1, 0.6))
    c = np.array([0.4, -0.3])
    phi = np.zeros(sys.closure.g_net.n_params)
    phi[-2:] = c  # final bias slots of the g-network
    params = np.concatenate([np.zeros(sys.n_theta), phi])
    hist = constant_history(np.array([1.0, 2.0]))
    run = forward_augmented(sys, params, (0.0, 1.0), RK4Fixed(0.02), history=hist)
    expect = c * 0.5
    for t in (0.0, 0.3, 1.0):
        assert np.max(np.abs(run.traj.eval(t)[2:] - expect)) < 1e-12


# ---------------------------------------------------------------------------
# Structural properties
# ---------------------------------------------------------------------------


def test_zero_closure_is_neutral():
    rng = np.random.default_rng(0)
    u0 = rng.normal(size=2)
    base = integrate_ode(decay_rhs, u0, (0.0, 1.0), RK4Fixed(0.01))
    hist = constant_history(u0)
    for sys in (markovian_toy(), discrete_toy(), distributed_toy((0.0, 0.5))):
        params = np.zeros(sys.n_params)
        run = forward_augmented(sys, params, (0.0, 1.0), RK4Fixed(0.01),
                                history=hist, u0=u0)
        for t in np.linspace(0.0, 1.0, 11):
            assert np.max(np.abs(run.u_at(t) - base.eval(t))) < 1e-10


def test_constant_history_gives_one_row_per_time():
    u0 = np.array([0.4, -0.6, 1.5])
    hist = constant_history(u0)
    assert hist(np.array([2.0])).tobytes() == u0.tobytes()
    rows = hist(np.array([0.0, 1.0, 2.0]))
    assert rows.shape == (3, 3)
    assert rows.tobytes() == np.stack([u0] * 3).tobytes()


def test_gradient_is_linear_in_loss_weight():
    sys = discrete_toy()
    params = random_params(sys, 41)
    ds = Data(np.array([0.5, 1.0]), np.array([[0.2, -0.1], [0.0, 0.3]]))
    hist = constant_history(np.array([0.4, -0.6]))
    run = forward_augmented(sys, params, (0.0, 1.0), RK4Fixed(0.02), history=hist)
    g1 = adjoint_discrete(sys, params, run, ds, QuadLoss(1.0), RK4Fixed(0.01)).grad
    g2 = adjoint_discrete(sys, params, run, ds, QuadLoss(2.0), RK4Fixed(0.01)).grad
    assert np.max(np.abs(g2 - 2.0 * g1)) <= 1e-12 * max(1.0, np.max(np.abs(g1)))


def test_run_loss_reports_forward_total():
    sys = markovian_toy()
    params = np.zeros(sys.n_params)
    u0 = np.array([1.0, 0.0])
    ds = Data(np.array([1.0]), np.array([[np.exp(-1.0), 0.0]]))
    loss, run = run_loss(sys, params, (0.0, 1.0), ds, QuadLoss(),
                         RK4Fixed(0.01), u0=u0)
    assert loss < 1e-12
    assert run.t1 == 1.0


@pytest.mark.parametrize("kind", ["markovian", "discrete"])
@pytest.mark.parametrize("solve", ["forward_augmented", "run_loss", "evaluate_rollout"])
def test_augmented_solves_refuse_an_adaptive_stepper(solve, kind):
    # a forward solve is fixed-step RK4 like its adjoint sweep, so its lookup
    # plan holds every time it reads; the same call on RK4Fixed runs
    sys = markovian_toy() if kind == "markovian" else discrete_toy()
    params = random_params(sys, 3)
    hist = constant_history(np.array([1.0, 0.0]))
    ds = SnapshotDataset([0.0, 0.5, 1.0], [[1.0, 0.0], [0.6, 0.1], [0.4, 0.1]])
    call = {
        "forward_augmented": lambda st: forward_augmented(sys, params, (0.0, 1.0), st,
                                                          history=hist),
        "run_loss": lambda st: run_loss(sys, params, (0.0, 1.0), ds, QuadLoss(), st,
                                        history=hist),
        "evaluate_rollout": lambda st: evaluate_rollout(sys, params, ds, st, history=hist),
    }[solve]
    call(RK4Fixed(0.02))
    with pytest.raises(ValueError, match="fixed-step RK4; pass RK4Fixed"):
        call(DormandPrince54())


@pytest.mark.parametrize("closure", [
    Markovian(nn.Network([nn.Dense(2, 3)])),
    Discrete(nn.Network([nn.SimpleRnnCell(2, 4), nn.Dense(4, 3)]), (0.1,)),
    Distributed(nn.Network([nn.Dense(4, 3)]), nn.Network([nn.Dense(2, 2)]), (0.0, 0.5), 2),
], ids=["markovian", "discrete", "distributed"])
def test_f_network_must_match_the_state(closure):
    # checked when the system is built, before any solve
    with pytest.raises(ValueError, match="closure output has 3 entries, state has 2"):
        AugmentedSystem(decay_rhs, closure, 2, base_vjp=decay_vjp)


def test_g_network_must_match_the_auxiliary_field():
    # an empty window (0.5, 0.5) never evaluates g, so only the check at
    # construction sees its width
    for window in ((0.0, 0.5), (0.5, 0.5)):
        clo = Distributed(nn.Network([nn.Dense(4, 2)]), nn.Network([nn.Dense(2, 3)]),
                          window, aux_dim=2)
        with pytest.raises(ValueError, match="g-network output has 3 entries, aux_dim is 2"):
            AugmentedSystem(decay_rhs, clo, 2, base_vjp=decay_vjp)


def test_grid_network_widths_count_the_points():
    # a 3-point state of 2 channels: f writes 6 entries, g 3 points x 1 channel
    f = nn.Network([nn.Conv1d(3, 2, 3)])
    g = nn.Network([nn.Conv1d(2, 1, 3)])
    AugmentedSystem(decay_rhs, Distributed(f, g, (0.0, 0.5), aux_dim=3), 6,
                    base_vjp=decay_vjp)
    with pytest.raises(ValueError, match="g-network output has 3 entries, aux_dim is 6"):
        AugmentedSystem(decay_rhs, Distributed(f, g, (0.0, 0.5), aux_dim=6), 6,
                        base_vjp=decay_vjp)


def test_validation_errors():
    sys = discrete_toy()
    params = np.zeros(sys.n_params)
    with pytest.raises(ValueError):
        forward_augmented(sys, params, (0.0, 1.0), RK4Fixed(0.02))  # no history
    with pytest.raises(ValueError):
        sys.decode(np.zeros(3))
    with pytest.raises(ValueError):
        Discrete(nn.Network([nn.SimpleRnnCell(2, 4), nn.Dense(4, 2)]), (0.2, 0.1))
    with pytest.raises(ValueError):
        Discrete(nn.Network([nn.Dense(2, 2)]), (0.1,))
    with pytest.raises(ValueError):
        Distributed(nn.Network([nn.Dense(4, 2)]), nn.Network([nn.Dense(2, 2)]),
                    (0.5, 0.2), aux_dim=2)
    hist = constant_history(np.array([0.1, 0.1]))
    run = forward_augmented(sys, params, (0.0, 1.0), RK4Fixed(0.02), history=hist)
    bad = Data(np.array([1.5]), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        adjoint_discrete(sys, params, run, bad, QuadLoss(), RK4Fixed(0.01))
    with pytest.raises(ValueError):
        adjoint_discrete(sys, params, run, Data(np.array([0.5]), np.zeros((1, 2))),
                         QuadLoss(), DormandPrince54())  # adjoint sweeps are RK4
