import numpy as np
import pytest
from hypothesis import given, strategies as st

from neuralclosure.nn import (
    AddExtraChannels,
    BioConstrain,
    Conv1d,
    Conv1dTranspose,
    Dense,
    Network,
    Plan,
    SimpleRnnCell,
    SimpleRnnConvCell,
    backward,
    backward_input,
    forward,
    init_params,
    rnn_forward,
    tape,
    vjp,
)
from oracles import central_fd, rel_l2


def _rand_params(net, seed, scale=0.5):
    return np.random.default_rng(seed).normal(0.0, scale, size=net.n_params)


class TestForward:
    def test_dense_affine(self):
        net = Network([Dense(1, 1, "linear")])
        out = forward(net, np.array([3.0]), np.array([2.0, 1.0]))
        assert out[0] == pytest.approx(7.0)

    def test_zero_params_zero_output(self):
        net = Network([Dense(3, 5, "tanh"), Dense(5, 2, "linear")])
        out = forward(net, np.array([0.3, -1.0, 2.0]), np.zeros(net.n_params))
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_bioconstrain_triple(self):
        net = Network([BioConstrain()])
        out = forward(net, np.array([2.0]), np.array([0.3]))
        np.testing.assert_allclose(out, [0.6, -2.0, 1.4], atol=1e-15)

    @given(st.floats(-5, 5), st.floats(-2, 2))
    def test_bioconstrain_zero_sum(self, s, beta):
        net = Network([BioConstrain()])
        out = forward(net, np.array([s]), np.array([beta]))
        assert out.sum() == pytest.approx(0.0, abs=1e-12)

    def test_bioconstrain_grid(self):
        net = Network([Conv1d(1, 1, 1, "linear"), BioConstrain()])
        params = np.array([1.0, 0.0, 0.25])
        out = forward(net, np.array([[2.0], [-1.0]]), params)
        np.testing.assert_allclose(out, [[0.5, -2.0, 1.5], [-0.25, 1.0, -0.75]])

    def test_conv_same_length(self):
        net = Network([Conv1d(2, 3, 3, "swish")])
        x = np.random.default_rng(0).normal(size=(11, 2))
        out = forward(net, x, _rand_params(net, 1))
        assert out.shape == (11, 3)

    def test_conv_hand_example(self):
        # single channel, kernel (1, 2, 3), zero bias, x = [1, 0, 0]
        net = Network([Conv1d(1, 1, 3, "linear")])
        params = np.array([1.0, 2.0, 3.0, 0.0])
        out = forward(net, np.array([[1.0], [0.0], [0.0]]), params)
        # y_i = sum_d x[i + d - 1] K[d]: edge effects from zero padding
        np.testing.assert_allclose(out[:, 0], [2.0, 1.0, 0.0])

    def test_transpose_is_flipped_conv(self):
        conv = Network([Conv1d(1, 1, 3, "linear")])
        tconv = Network([Conv1dTranspose(1, 1, 3, "linear")])
        x = np.random.default_rng(2).normal(size=(7, 1))
        params = np.array([1.0, 2.0, 3.0, 0.5])
        flipped = np.array([3.0, 2.0, 1.0, 0.5])
        np.testing.assert_allclose(forward(tconv, x, params),
                                   forward(conv, x, flipped), atol=1e-14)

    def test_add_extra_channels(self):
        extra = lambda t: np.full((4, 2), t)
        net = Network([Conv1d(1, 1, 1, "linear"), AddExtraChannels(2, extra)])
        params = np.array([1.0, 0.0])
        out = forward(net, np.ones((4, 1)), params, t=2.5)
        assert out.shape == (4, 3)
        np.testing.assert_allclose(out[:, 1:], 2.5)

    def test_add_extra_channels_needs_time(self):
        net = Network([Conv1d(1, 1, 1, "linear"),
                       AddExtraChannels(1, lambda t: np.zeros((4, 1)))])
        with pytest.raises(ValueError):
            forward(net, np.ones((4, 1)), np.array([1.0, 0.0]))

    def test_shape_mismatch(self):
        net = Network([Dense(3, 2)])
        with pytest.raises(ValueError):
            forward(net, np.ones(4), np.zeros(net.n_params))


class TestRnnForward:
    def test_zero_params_zero_hidden(self):
        net = Network([SimpleRnnCell(2, 4, "tanh")])
        out = rnn_forward(net, [np.ones(2), np.ones(2)], np.zeros(net.n_params))
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_single_element_equals_dense(self):
        cell = Network([SimpleRnnCell(3, 5, "tanh")])
        params = _rand_params(cell, 3)
        x = np.random.default_rng(4).normal(size=3)
        out = rnn_forward(cell, [x], params)
        # zero initial hidden state: one step is act(Wx x + b)
        ((Wx, Wh, b, *_),) = cell.unpack(params)
        np.testing.assert_allclose(out, np.tanh(Wx @ x + b), atol=1e-14)

    def test_two_step_hand_unroll(self):
        # scalar cell: Wx=0.5, Wh=-1, b=0.25, inputs 1 then 2
        net = Network([SimpleRnnCell(1, 1, "tanh")])
        params = np.array([0.5, -1.0, 0.25])
        h1 = np.tanh(0.5 * 1.0 + 0.25)
        h2 = np.tanh(0.5 * 2.0 - 1.0 * h1 + 0.25)
        out = rnn_forward(net, [np.array([1.0]), np.array([2.0])], params)
        assert out[0] == pytest.approx(h2, abs=1e-14)

    def test_conv_cell_shapes(self):
        net = Network([SimpleRnnConvCell(1, 3, 3, "tanh")])
        xs = [np.random.default_rng(i).normal(size=(9, 1)) for i in range(4)]
        out = rnn_forward(net, xs, _rand_params(net, 5))
        assert out.shape == (9, 3)

    def test_recurrent_must_be_first(self):
        with pytest.raises(ValueError):
            Network([Dense(2, 2), SimpleRnnCell(2, 2)])

    def test_forward_rejects_recurrent(self):
        net = Network([SimpleRnnCell(2, 2)])
        with pytest.raises(ValueError):
            forward(net, np.ones(2), np.zeros(net.n_params))


class TestParamCounts:
    def test_dense(self):
        assert Network([Dense(3, 5)]).n_params == 20

    def test_rnn_cell(self):
        assert Network([SimpleRnnCell(3, 5)]).n_params == 45

    def test_conv(self):
        assert Network([Conv1d(4, 5, 3)]).n_params == 65

    def test_conv_rnn_cell(self):
        # input kernel + recurrent kernel + bias + output projection + bias
        assert Network([SimpleRnnConvCell(1, 3, 3)]).n_params == 69
        assert Network([SimpleRnnConvCell(3, 5, 1)]).n_params == 75

    def test_bioconstrain(self):
        assert Network([BioConstrain()]).n_params == 1

    def test_layout_offsets_contiguous(self):
        net = Network([Dense(2, 4, "tanh"), Dense(4, 3, "linear")])
        p = np.arange(net.n_params, dtype=float)
        (W0, b0, *_), (W1, b1, *_) = net.unpack(p)
        assert W0.size + b0.size + W1.size + b1.size == net.n_params
        assert W0.ravel()[0] == 0.0 and b1.ravel()[-1] == net.n_params - 1
        # layer order, then each layer's parameters in order, row-major
        np.testing.assert_array_equal(np.concatenate([W0.ravel(), b0, W1.ravel(), b1]), p)
        assert all(np.shares_memory(v, p) for v in (W0, b0, W1, b1))

    def test_unpack_checks_the_vector(self):
        net = Network([Dense(2, 4, "tanh")])
        with pytest.raises(ValueError):
            net.unpack(np.zeros(net.n_params + 1))


class _VjpCase:
    """Checks the input and parameter cotangents against the central-difference
    oracle, the input-only pass against the full one, and every input layout
    against the first."""

    def check(self, net, x, params, t=None, seq=False):
        rng = np.random.default_rng(99)
        run = rnn_forward if seq else forward
        y = run(net, x, params, t)
        w = rng.normal(size=y.shape)

        f_in = lambda xx: float(np.sum(w * run(net, xx, params, t)))
        f_par = lambda p: float(np.sum(w * run(net, x, p, t)))
        g_in = backward_input(tape(net, x, params, t), w)
        fd_in = central_fd(f_in, np.asarray(x, dtype=float))
        g_par = vjp(net, x, params, w, t)[1]
        fd_par = central_fd(f_par, params)
        assert rel_l2(g_in, fd_in) < 1e-6
        assert rel_l2(g_par, fd_par) < 1e-6
        # the input-only pass is bit-identical to the full one
        np.testing.assert_array_equal(g_in, vjp(net, x, params, w, t)[0])
        self.check_layouts(net, x, params, w, t, seq)

    def check_layouts(self, net, x, params, w, t, seq):
        # a sequence as a list and as one stacked array give the same output
        # bytes and the same input cotangent bytes, the cotangent stacked
        # like the sequence
        y = tape(net, x, params, t).y
        want_in, want_par = vjp(net, x, params, w, t)
        for xl in ([x, np.stack(x)] if seq else [x]):
            tp = tape(net, xl, params, t)
            assert tp.y.tobytes() == y.tobytes()
            g_in, g_par = backward(tp, w)
            assert g_par.tobytes() == want_par.tobytes()
            assert g_in.shape == np.asarray(xl).shape
            assert g_in.tobytes() == want_in.tobytes()


class TestVjp(_VjpCase):
    def test_dense_linear_jacobian(self):
        net = Network([Dense(3, 2, "linear")])
        params = _rand_params(net, 0)
        ((W, *_),) = net.unpack(params)
        w = np.array([1.0, -2.0])
        g = backward_input(tape(net, np.zeros(3), params), w)
        np.testing.assert_allclose(g, W.T @ w, atol=1e-14)

    def test_zero_cotangent(self):
        net = Network([Dense(3, 2, "tanh")])
        params = _rand_params(net, 1)
        dx, dp = vjp(net, np.ones(3), params, np.zeros(2))
        assert not dx.any() and not dp.any()

    def test_dense_stack(self):
        net = Network([Dense(3, 6, "tanh"), Dense(6, 4, "swish"),
                       Dense(4, 2, "linear")])
        self.check(net, np.random.default_rng(10).normal(size=3),
                   _rand_params(net, 11))

    def test_rnn_dense(self):
        net = Network([SimpleRnnCell(2, 4, "tanh"), Dense(4, 2, "linear")])
        xs = [np.random.default_rng(i).normal(size=2) for i in range(3)]
        self.check(net, xs, _rand_params(net, 12), seq=True)

    def test_conv_stack(self):
        net = Network([Conv1d(2, 3, 3, "swish"), Conv1dTranspose(3, 2, 3, "swish"),
                       Conv1dTranspose(2, 1, 3, "linear")])
        self.check(net, np.random.default_rng(13).normal(size=(8, 2)),
                   _rand_params(net, 14))

    def test_conv_rnn(self):
        net = Network([SimpleRnnConvCell(1, 3, 3, "tanh"),
                       Conv1d(3, 2, 3, "swish"), Conv1dTranspose(2, 1, 3, "linear")])
        xs = [np.random.default_rng(20 + i).normal(size=(7, 1)) for i in range(3)]
        self.check(net, xs, _rand_params(net, 15), seq=True)

    def test_extra_channels_and_bioconstrain(self):
        grid = np.linspace(0.0, 1.0, 6)[:, None]
        extra = lambda t: np.concatenate([grid, np.full((6, 1), np.sin(t))], axis=1)
        net = Network([Conv1d(3, 4, 1, "swish"), AddExtraChannels(2, extra),
                       Conv1d(6, 1, 1, "linear"), BioConstrain()])
        self.check(net, np.random.default_rng(16).normal(size=(6, 3)),
                   _rand_params(net, 17), t=0.7)

    def test_full_bio_dense_net(self):
        net = Network([SimpleRnnCell(3, 7, "tanh"), Dense(7, 7, "tanh"),
                       Dense(7, 1, "linear"), BioConstrain()])
        xs = [np.random.default_rng(30 + i).normal(size=3) for i in range(2)]
        self.check(net, xs, _rand_params(net, 18), seq=True)


def test_grid_networks_take_fields_only():
    # a grid input is (points, channels) fields with an optional batch axis,
    # and an output cotangent has the output's shape: flat forms are refused
    conv = Network([Conv1d(2, 3, 3, "swish"), Conv1d(3, 1, 1, "linear")])
    rnn = Network([SimpleRnnConvCell(2, 3, 3, "tanh")])
    x = np.random.default_rng(6).normal(size=(4, 8, 2))
    with pytest.raises(ValueError):
        forward(conv, x[0].ravel(), _rand_params(conv, 5))
    with pytest.raises(ValueError):
        rnn_forward(rnn, x.reshape(4, -1), _rand_params(rnn, 5))
    tp = tape(conv, x, _rand_params(conv, 5))
    w = np.ones(tp.y.shape)
    with pytest.raises(ValueError):
        backward(tp, w.ravel())
    with pytest.raises(ValueError):
        backward(tp, w.reshape(len(x), -1))


class TestInitParams:
    def test_deterministic(self):
        net = Network([Dense(4, 9, "tanh"), Dense(9, 2, "linear")])
        np.testing.assert_array_equal(init_params(net, 5), init_params(net, 5))

    def test_seed_changes_values(self):
        net = Network([Dense(4, 9, "tanh")])
        assert not np.array_equal(init_params(net, 5, zero_final=False),
                                  init_params(net, 6, zero_final=False))

    def test_biases_zero(self):
        net = Network([Dense(4, 9, "tanh"), Dense(9, 2, "linear")])
        params = init_params(net, 0, zero_final=False)
        (_, b0, *_), (_, b1, *_) = net.unpack(params)
        assert not b0.any() and not b1.any()

    def test_glorot_bound(self):
        net = Network([Dense(100, 100, "tanh")])
        ((W, *_),) = net.unpack(init_params(net, 1, zero_final=False))
        bound = np.sqrt(6.0 / 200.0)
        assert np.all(np.abs(W) <= bound)
        assert np.max(np.abs(W)) > 0.8 * bound

    def test_zero_final_layer(self):
        net = Network([Dense(3, 5, "tanh"), Dense(5, 3, "linear")])
        params = init_params(net, 2)
        _, (W1, b1, *_) = net.unpack(params)
        assert not W1.any() and not b1.any()
        out = forward(net, np.ones(3), params)
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_zero_final_skips_bioconstrain(self):
        net = Network([Dense(3, 5, "tanh"), Dense(5, 1, "linear"), BioConstrain()])
        params = init_params(net, 3)
        _, (W1, *_), (beta, *_) = net.unpack(params)
        assert not W1.any()
        assert beta[0] == 0.5
        out = forward(net, np.ones(3), params)
        np.testing.assert_array_equal(out, np.zeros(3))


def test_parameters_are_decoded_once_per_tape(monkeypatch):
    # nn.tape and nn.forward decode the flat vector once; reverse passes
    # read the tape's views and decode nothing
    calls = []
    unpack = Network.unpack
    monkeypatch.setattr(Network, "unpack",
                        lambda self, p: calls.append(self) or unpack(self, p))
    dense = Network([Dense(3, 4, "swish"), Dense(4, 2, "linear")])
    rnn = Network([SimpleRnnConvCell(1, 2, 3, "swish"), Conv1d(2, 1, 3, "linear")])
    cases = [(dense, np.ones(3), forward),
             (rnn, np.ones((3, 5, 1)), rnn_forward)]
    for net, x, run in cases:
        params = _rand_params(net, 0)
        calls.clear()
        tp = tape(net, x, params)
        assert len(calls) == 1
        w = np.ones(tp.y.shape)
        backward(tp, w)
        backward_input(tp, w)
        backward(tp, 2.0 * w)
        assert len(calls) == 1
        run(net, x, params)
        assert calls == [net, net]


@pytest.mark.parametrize("cell", [SimpleRnnCell(3, 4, "tanh"), SimpleRnnConvCell(3, 2, 3, "swish")])
def test_an_empty_sequence_is_refused_at_every_entry_point(cell):
    # a tape, a plan and a plain pass refuse a sequence of no elements, in
    # words that name no one entry point
    net = Network([cell])
    params = _rand_params(net, 9)
    x = np.empty((0, 3) if isinstance(cell, SimpleRnnCell) else (0, 5, 3))
    for run in (lambda: tape(net, x, params), lambda: Plan(net, params)(x),
                lambda: rnn_forward(net, x, params)):
        with pytest.raises(ValueError, match="non-empty sequence") as err:
            run()
        assert "rnn_forward" not in str(err.value)
