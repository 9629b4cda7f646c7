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
    adjoint_gradient,
    adjoint_markovian,
    constant_history,
    fd_gradient,
    forward_augmented,
    run_loss,
)
from neuralclosure.integrate import DormandPrince54, RK4Fixed, integrate_ode

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
    clo = Distributed(f, g, window, aux_dim=2, history_quad_panels=16)
    return AugmentedSystem(decay_rhs, clo, 2, base_vjp=decay_vjp)


def random_params(sys, seed, scale=0.8):
    if isinstance(sys.closure, Distributed):
        p = np.concatenate([
            nn.init_params(sys.closure.f_net, seed, zero_final=False),
            nn.init_params(sys.closure.g_net, seed + 1, zero_final=False),
        ])
    else:
        p = nn.init_params(sys.closure.net, seed, zero_final=False)
    return scale * p


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


def test_fd_base_vjp_fallback_matches_analytic():
    sys = markovian_toy()
    sys_fd = AugmentedSystem(decay_rhs, sys.closure, 2)  # no analytic base VJP
    params = random_params(sys, 11)
    ds = Data(np.array([0.6]), np.array([[0.1, -0.2]]))
    u0 = np.array([0.3, 0.8])
    loss = QuadLoss()
    run = forward_augmented(sys, params, (0.0, 0.6), RK4Fixed(0.01), u0=u0)
    a1 = adjoint_markovian(sys, params, run, ds, loss, RK4Fixed(0.005))
    a2 = adjoint_markovian(sys_fd, params, run, ds, loss, RK4Fixed(0.005))
    assert rel_l2(a1.grad, a2.grad) < 1e-6


def test_discrete_adjoint_matches_fd():
    sys = discrete_toy()
    params = random_params(sys, 5)
    rng = np.random.default_rng(9)
    ds = toy_dataset(rng, [1.0])
    loss = QuadLoss()

    def hist(s):
        return np.array([0.5, -0.2]) + 0.3 * s * np.array([1.0, -0.5])

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
        return np.array([0.5, -0.2]) + 0.25 * s * np.array([1.0, -0.6])

    run = forward_augmented(sys, params, (0.0, 1.0), RK4Fixed(0.02), history=hist)
    adj = adjoint_distributed(sys, params, run, ds, loss, RK4Fixed(0.005))
    fd = fd_gradient(sys, params, (0.0, 1.0), ds, loss, RK4Fixed(0.02), history=hist)
    assert rel_l2(adj.grad, fd) < 1e-4
    assert np.linalg.norm(adj.grad_phi) > 0.0


def test_distributed_adjoint_matches_fd_positive_tau1():
    sys = distributed_toy((0.2, 0.7))
    params = random_params(sys, 29)
    rng = np.random.default_rng(31)
    ds = toy_dataset(rng, [1.0])
    loss = QuadLoss()

    def hist(s):
        return np.array([0.3, 0.4]) + 0.2 * np.array([np.sin(s), np.cos(s)])

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
    assert np.all(run.y_at(0.5) == 0.0)
    adj = adjoint_distributed(sys, params, run, ds, loss, RK4Fixed(0.005))
    assert np.all(adj.grad_phi == 0.0)
    fd = fd_gradient(sys, params, (0.0, 0.8), ds, loss, RK4Fixed(0.02), u0=u0)
    assert rel_l2(adj.grad_theta, fd[:sys.n_theta]) < 1e-4
    assert np.max(np.abs(fd[sys.n_theta:])) < 1e-9


def test_constant_g_gives_constant_aux_field():
    # zero g-weights with a final bias c make g identically c, so
    # y(t) = c * (tau_2 - tau_1) for all t regardless of history
    sys = distributed_toy((0.1, 0.6))
    c = np.array([0.4, -0.3])
    phi = np.zeros(sys.n_phi)
    phi[-2:] = c  # final bias slots of the g-network
    params = np.concatenate([np.zeros(sys.n_theta), phi])
    hist = constant_history(np.array([1.0, 2.0]))
    run = forward_augmented(sys, params, (0.0, 1.0), RK4Fixed(0.02), history=hist)
    expect = c * 0.5
    for t in (0.0, 0.3, 1.0):
        assert np.max(np.abs(run.y_at(t) - expect)) < 1e-12


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


def test_gradient_is_linear_in_loss_weight():
    sys = discrete_toy()
    params = random_params(sys, 41)
    ds = Data(np.array([0.5, 1.0]), np.array([[0.2, -0.1], [0.0, 0.3]]))
    hist = constant_history(np.array([0.4, -0.6]))
    run = forward_augmented(sys, params, (0.0, 1.0), RK4Fixed(0.02), history=hist)
    g1 = adjoint_discrete(sys, params, run, ds, QuadLoss(1.0), RK4Fixed(0.01)).grad
    g2 = adjoint_discrete(sys, params, run, ds, QuadLoss(2.0), RK4Fixed(0.01)).grad
    assert np.max(np.abs(g2 - 2.0 * g1)) <= 1e-12 * max(1.0, np.max(np.abs(g1)))


def test_adjoint_vanishes_at_and_beyond_final_time():
    sys = distributed_toy((0.0, 0.4))
    params = random_params(sys, 43)
    hist = constant_history(np.array([0.2, 0.6]))
    ds = Data(np.array([1.0]), np.array([[0.0, 0.0]]))
    run = forward_augmented(sys, params, (0.0, 1.0), RK4Fixed(0.02), history=hist)
    adj = adjoint_gradient(sys, params, run, ds, QuadLoss(), RK4Fixed(0.01))
    assert np.all(adj.lam_at(1.0) == 0.0)
    assert np.all(adj.lam_at(3.7) == 0.0)
    assert np.all(adj.mu_at(2.0) == 0.0)
    assert adj.lam_at(0.0).shape == (2,)
    assert np.any(adj.lam_at(0.5) != 0.0)


def test_run_loss_reports_forward_total():
    sys = markovian_toy()
    params = np.zeros(sys.n_params)
    u0 = np.array([1.0, 0.0])
    ds = Data(np.array([1.0]), np.array([[np.exp(-1.0), 0.0]]))
    loss, run = run_loss(sys, params, (0.0, 1.0), ds, QuadLoss(),
                         RK4Fixed(0.01), u0=u0)
    assert loss < 1e-12
    assert run.t1 == 1.0


def test_kind_named_adjoints_reject_closures_they_do_not_model():
    # a delayed Discrete closure run through adjoint_markovian would lose its
    # advanced terms without a word, so each entry point checks the kind
    hist = constant_history(np.array([0.4, -0.6]))
    ds = Data(np.array([0.5, 1.0]), np.array([[0.2, -0.1], [0.0, 0.3]]))
    stepper = RK4Fixed(0.02)
    systems = {"markovian": markovian_toy(), "discrete": discrete_toy(),
               "discrete0": discrete_toy(delays=()),
               "distributed": distributed_toy((0.0, 0.5))}
    accepts = {adjoint_markovian: {"markovian", "discrete0"},
               adjoint_discrete: {"discrete", "discrete0"},
               adjoint_distributed: {"distributed"}}
    for name, sys in systems.items():
        params = random_params(sys, 41)
        run = forward_augmented(sys, params, (0.0, 1.0), stepper, history=hist)
        want = adjoint_gradient(sys, params, run, ds, QuadLoss(), stepper).grad
        for entry, kinds in accepts.items():
            if name in kinds:
                got = entry(sys, params, run, ds, QuadLoss(), stepper).grad
                assert got.tobytes() == want.tobytes()
            else:
                with pytest.raises(ValueError):
                    entry(sys, params, run, ds, QuadLoss(), stepper)


def test_validation_errors():
    sys = discrete_toy()
    params = np.zeros(sys.n_params)
    with pytest.raises(ValueError):
        forward_augmented(sys, params, (0.0, 1.0), RK4Fixed(0.02))  # no history
    with pytest.raises(ValueError):
        sys.split_params(np.zeros(3))
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
