"""Small neural-network kernel with explicit vector-Jacobian products.

The closure networks are tiny (tens to hundreds of parameters), evaluated
inside time integrators millions of times and differentiated by hand-rolled
adjoints, so this module implements exactly the layers the experiment
architectures need and nothing else:

* ``Dense`` and ``SimpleRnnCell`` for the coefficient-space models,
* ``Conv1d`` / ``Conv1dTranspose`` (stride 1, same zero padding) and
  ``SimpleRnnConvCell`` for the grid models,
* ``AddExtraChannels`` to append non-trainable context channels
  (depth grid, irradiance) to a field,
* ``BioConstrain`` mapping one scalar source s per point to the zero-sum
  triple (beta*s, -s, (1-beta)*s) with trainable beta.

Parameters live in one flat float64 vector addressed through the network's
layout; every layer provides forward and reverse (input and parameter) passes.
Recurrent cells consume state sequences ordered oldest to newest.

A grid network takes each input field flat (point-major, reshaped by its
``input_spec``) or shaped (points, channels). Its output, and every input
cotangent of a reverse pass, come back in the layout the input was given in;
output cotangents may be flat or field-shaped.

A reverse pass is split in two steps: :func:`tape` runs the forward pass and
keeps the layer caches, and :func:`backward` (input and parameter cotangents)
or :func:`backward_input` (input cotangent only, skipping all weight-gradient
work) run on that tape, as often as needed. :func:`vjp` composes the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .linalg import Vec

# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _act(name, z):
    if name == "tanh":
        return np.tanh(z)
    if name == "swish":
        return z * _sigmoid(z)
    if name == "linear":
        return z
    raise ValueError(f"unknown activation {name!r}")


def _act_deriv(name, z):
    if name == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    if name == "swish":
        s = _sigmoid(z)
        return s * (1.0 + z * (1.0 - s))
    if name == "linear":
        return np.ones_like(z)
    raise ValueError(f"unknown activation {name!r}")


ACTIVATIONS = ("tanh", "swish", "linear")


def _check_act(name):
    if name not in ACTIVATIONS:
        raise ValueError(f"activation must be one of {ACTIVATIONS}, got {name!r}")


# ---------------------------------------------------------------------------
# Shared convolution helpers (stride 1, same zero padding)
# ---------------------------------------------------------------------------


def _conv_same(x, K, b):
    """Correlate (n, ci) with kernel (k, ci, co); returns (y, xpad)."""
    k, ci, co = K.shape
    n = x.shape[0]
    pl = (k - 1) // 2
    xpad = np.zeros((n + k - 1, ci))
    xpad[pl:pl + n] = x
    y = np.broadcast_to(b, (n, co)).copy()
    for d in range(k):
        y += xpad[d:d + n] @ K[d]
    return y, xpad


def _conv_same_vjp(xpad, K, w, grads=True):
    """Reverse pass of _conv_same; returns (dx, dK, db), with dK and db None
    when ``grads`` is false."""
    k, ci, co = K.shape
    n = w.shape[0]
    pl = (k - 1) // 2
    dxpad = np.zeros_like(xpad)
    dK = np.empty_like(K) if grads else None
    for d in range(k):
        if grads:
            dK[d] = xpad[d:d + n].T @ w
        dxpad[d:d + n] += w @ K[d].T
    return dxpad[pl:pl + n], dK, w.sum(axis=0) if grads else None


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------
#
# ``forward(p, x, t)`` returns (output, cache) and ``backward(p, cache, w,
# grads)`` returns (dx, parameter gradients); with ``grads`` false the second
# entry is None and no weight-gradient work is done. The input cotangent is
# computed by the same operations either way. Recurrent cells take the whole
# sequence as x and return the list of per-element cotangents as dx.


@dataclass(frozen=True)
class Dense:
    """Affine map act(W x + b) on 1-D inputs. Params: W (out, in), b (out,)."""

    n_in: int
    n_out: int
    act: str = "linear"

    def __post_init__(self):
        if self.n_in <= 0 or self.n_out <= 0:
            raise ValueError("Dense: dimensions must be positive")
        _check_act(self.act)

    def param_shapes(self):
        return [(self.n_out, self.n_in), (self.n_out,)]

    def glorot_limits(self):
        return [np.sqrt(6.0 / (self.n_in + self.n_out)), None]

    def out_spec(self, spec):
        if spec != ("dense", self.n_in):
            raise ValueError(f"Dense({self.n_in},{self.n_out}) cannot follow {spec}")
        return ("dense", self.n_out)

    def forward(self, p, x, t):
        W, b = p
        z = W @ x + b
        return _act(self.act, z), (x, z)

    def backward(self, p, cache, w, grads=True):
        W, _ = p
        x, z = cache
        dz = w * _act_deriv(self.act, z)
        return W.T @ dz, (np.outer(dz, x), dz) if grads else None

    def describe(self):
        return f"Dense({self.n_in}->{self.n_out},{self.act})"


@dataclass(frozen=True)
class SimpleRnnCell:
    """Simple recurrent cell h_t = act(Wx x_t + Wh h_(t-1) + b) on 1-D inputs.

    The final hidden state is the layer output. Params: Wx (units, in),
    Wh (units, units), b (units,).
    """

    n_in: int
    units: int
    act: str = "tanh"

    def __post_init__(self):
        if self.n_in <= 0 or self.units <= 0:
            raise ValueError("SimpleRnnCell: dimensions must be positive")
        _check_act(self.act)

    def param_shapes(self):
        return [(self.units, self.n_in), (self.units, self.units), (self.units,)]

    def glorot_limits(self):
        return [np.sqrt(6.0 / (self.n_in + self.units)),
                np.sqrt(6.0 / (2 * self.units)), None]

    def out_spec(self, spec):
        if spec != ("dense", self.n_in):
            raise ValueError(f"SimpleRnnCell({self.n_in}) cannot follow {spec}")
        return ("dense", self.units)

    def forward(self, p, xs, t):
        Wx, Wh, b = p
        h = np.zeros(self.units)
        zs, hs = [], [h]
        for x in xs:
            z = Wx @ x + Wh @ h + b
            h = _act(self.act, z)
            zs.append(z)
            hs.append(h)
        return h, (xs, zs, hs)

    def backward(self, p, cache, w, grads=True):
        Wx, Wh, _ = p
        xs, zs, hs = cache
        if grads:
            dWx = np.zeros_like(Wx)
            dWh = np.zeros_like(Wh)
            db = np.zeros(self.units)
        dxs = []
        dh = w
        for i in range(len(xs) - 1, -1, -1):
            dz = dh * _act_deriv(self.act, zs[i])
            if grads:
                dWx += np.outer(dz, xs[i])
                dWh += np.outer(dz, hs[i])
                db += dz
            dxs.append(Wx.T @ dz)
            dh = Wh.T @ dz
        dxs.reverse()
        return dxs, (dWx, dWh, db) if grads else None

    def describe(self):
        return f"SimpleRnnCell({self.n_in}->{self.units},{self.act})"


@dataclass(frozen=True)
class SimpleRnnConvCell:
    """Convolutional recurrent cell on (n, channels) fields.

    h_t = act(Conv(x_t; Kx) + Conv(h_(t-1); Kh) + b) with separate input and
    recurrent kernels, followed by an output convolution
    out = act(Conv(h_T; Ko) + bo) that belongs to the layer. Params:
    Kx (k, in_ch, units), Kh (k, units, units), b (units,),
    Ko (k, units, units), bo (units,).
    """

    in_ch: int
    units: int
    kernel: int
    act: str = "tanh"

    def __post_init__(self):
        if min(self.in_ch, self.units, self.kernel) <= 0:
            raise ValueError("SimpleRnnConvCell: dimensions must be positive")
        _check_act(self.act)

    def param_shapes(self):
        k, u = self.kernel, self.units
        return [(k, self.in_ch, u), (k, u, u), (u,), (k, u, u), (u,)]

    def glorot_limits(self):
        k, u = self.kernel, self.units
        lim = lambda ci, co: np.sqrt(6.0 / (k * ci + k * co))
        return [lim(self.in_ch, u), lim(u, u), None, lim(u, u), None]

    def out_spec(self, spec):
        if spec != ("grid", self.in_ch):
            raise ValueError(f"SimpleRnnConvCell({self.in_ch}ch) cannot follow {spec}")
        return ("grid", self.units)

    def forward(self, p, xs, t):
        Kx, Kh, b, Ko, bo = p
        n = xs[0].shape[0]
        h = np.zeros((n, self.units))
        zs, hs, xpads, hpads = [], [h], [], []
        for x in xs:
            zx, xpad = _conv_same(x, Kx, np.zeros(self.units))
            zh, hpad = _conv_same(h, Kh, b)
            z = zx + zh
            h = _act(self.act, z)
            zs.append(z)
            hs.append(h)
            xpads.append(xpad)
            hpads.append(hpad)
        zo, opad = _conv_same(h, Ko, bo)
        out = _act(self.act, zo)
        return out, (xs, zs, hs, xpads, hpads, zo, opad)

    def backward(self, p, cache, w, grads=True):
        Kx, Kh, b, Ko, bo = p
        xs, zs, hs, xpads, hpads, zo, opad = cache
        dzo = w * _act_deriv(self.act, zo)
        dh, dKo, dbo = _conv_same_vjp(opad, Ko, dzo, grads)
        if grads:
            dKx = np.zeros_like(Kx)
            dKh = np.zeros_like(Kh)
            db = np.zeros(self.units)
        dxs = []
        for i in range(len(xs) - 1, -1, -1):
            dz = dh * _act_deriv(self.act, zs[i])
            dx_i, dKx_i, _ = _conv_same_vjp(xpads[i], Kx, dz, grads)
            dh_i, dKh_i, db_i = _conv_same_vjp(hpads[i], Kh, dz, grads)
            if grads:
                dKx += dKx_i
                dKh += dKh_i
                db += db_i
            dxs.append(dx_i)
            dh = dh_i
        dxs.reverse()
        return dxs, (dKx, dKh, db, dKo, dbo) if grads else None

    def describe(self):
        return (f"SimpleRnnConvCell({self.in_ch}ch->{self.units}ch,"
                f"k{self.kernel},{self.act})")


@dataclass(frozen=True)
class Conv1d:
    """1-D convolution, stride 1, same zero padding, on (n, channels) fields."""

    in_ch: int
    out_ch: int
    kernel: int
    act: str = "linear"

    def __post_init__(self):
        if min(self.in_ch, self.out_ch, self.kernel) <= 0:
            raise ValueError("Conv1d: dimensions must be positive")
        _check_act(self.act)

    def param_shapes(self):
        return [(self.kernel, self.in_ch, self.out_ch), (self.out_ch,)]

    def glorot_limits(self):
        return [np.sqrt(6.0 / (self.kernel * (self.in_ch + self.out_ch))), None]

    def out_spec(self, spec):
        if spec != ("grid", self.in_ch):
            raise ValueError(f"Conv1d({self.in_ch}ch) cannot follow {spec}")
        return ("grid", self.out_ch)

    def forward(self, p, x, t):
        K, b = p
        z, xpad = _conv_same(x, K, b)
        return _act(self.act, z), (xpad, z)

    def backward(self, p, cache, w, grads=True):
        K, _ = p
        xpad, z = cache
        dz = w * _act_deriv(self.act, z)
        dx, dK, db = _conv_same_vjp(xpad, K, dz, grads)
        return dx, (dK, db) if grads else None

    def describe(self):
        return f"Conv1d({self.in_ch}ch->{self.out_ch}ch,k{self.kernel},{self.act})"


@dataclass(frozen=True)
class Conv1dTranspose(Conv1d):
    """Transposed 1-D convolution at stride 1: correlation with the flipped
    kernel, same padding. Identical parameter shapes to Conv1d."""

    def forward(self, p, x, t):
        K, b = p
        z, xpad = _conv_same(x, K[::-1], b)
        return _act(self.act, z), (xpad, z)

    def backward(self, p, cache, w, grads=True):
        K, _ = p
        xpad, z = cache
        dz = w * _act_deriv(self.act, z)
        dx, dKf, db = _conv_same_vjp(xpad, K[::-1], dz, grads)
        return dx, (dKf[::-1].copy(), db) if grads else None

    def describe(self):
        return (f"Conv1dTranspose({self.in_ch}ch->{self.out_ch}ch,"
                f"k{self.kernel},{self.act})")


@dataclass(frozen=True)
class AddExtraChannels:
    """Append non-trainable context channels (depth grid, irradiance I(z, t)).

    ``channels_fn(t)`` must return an (n, n_extra) array matching the field
    length; it is supplied by the experiment wiring, so the layer itself stays
    agnostic of the physical model. No trainable parameters. ``in_ch`` is only
    needed when the layer opens a network (the input width cannot be inferred
    from a parameter-free layer).
    """

    n_extra: int
    channels_fn: Callable[[float], np.ndarray] = field(compare=False)
    label: str = "context"
    in_ch: int | None = None

    def __post_init__(self):
        if self.n_extra <= 0:
            raise ValueError("AddExtraChannels: n_extra must be positive")

    def param_shapes(self):
        return []

    def glorot_limits(self):
        return []

    def out_spec(self, spec):
        kind, ch = spec
        if kind != "grid":
            raise ValueError("AddExtraChannels requires a grid input")
        if self.in_ch is not None and ch != self.in_ch:
            raise ValueError(f"AddExtraChannels expects {self.in_ch} channels, got {ch}")
        return ("grid", ch + self.n_extra)

    def forward(self, p, x, t):
        if t is None:
            raise ValueError("AddExtraChannels needs the evaluation time t")
        extra = np.asarray(self.channels_fn(t), dtype=float)
        if extra.ndim != 2 or extra.shape != (x.shape[0], self.n_extra):
            raise ValueError(
                f"channels_fn returned shape {extra.shape}, "
                f"expected ({x.shape[0]}, {self.n_extra})")
        return np.concatenate([x, extra], axis=1), x.shape[1]

    def backward(self, p, cache, w, grads=True):
        return w[:, :cache], () if grads else None

    def describe(self):
        return f"AddExtraChannels(+{self.n_extra},{self.label})"


@dataclass(frozen=True)
class BioConstrain:
    """Map each scalar source s to (beta*s, -s, (1-beta)*s); beta trainable.

    The triple sums to -s + s = 0 exactly, so closures built on this layer
    conserve the summed biomass identically. Input must have one channel
    (dense inputs of size 1, or (n, 1) fields); output has three.
    """

    def param_shapes(self):
        return [(1,)]

    def glorot_limits(self):
        return [None]

    def out_spec(self, spec):
        kind, ch = spec
        if ch != 1:
            raise ValueError("BioConstrain requires exactly one input channel")
        return (kind, 3)

    def forward(self, p, x, t):
        beta = p[0][0]
        s = x[..., 0]
        out = np.stack([beta * s, -s, (1.0 - beta) * s], axis=-1)
        return out, (s, beta, x.shape)

    def backward(self, p, cache, w, grads=True):
        s, beta, xshape = cache
        ds = beta * w[..., 0] - w[..., 1] + (1.0 - beta) * w[..., 2]
        if not grads:
            return ds.reshape(xshape), None
        dbeta = float(np.sum(s * (w[..., 0] - w[..., 2])))
        return ds.reshape(xshape), (np.array([dbeta]),)

    def describe(self):
        return "BioConstrain"


LayerSpec = (Dense | SimpleRnnCell | SimpleRnnConvCell | Conv1d | Conv1dTranspose
             | AddExtraChannels | BioConstrain)

_RECURRENT = (SimpleRnnCell, SimpleRnnConvCell)


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------


class Network:
    """Ordered layer stack with a flat parameter layout.

    A recurrent cell, if present, must be the first layer; such networks are
    evaluated with :func:`rnn_forward` on a state sequence (oldest first) and
    all later layers act on the cell output.
    """

    def __init__(self, layers: Sequence[LayerSpec]):
        layers = tuple(layers)
        if not layers:
            raise ValueError("Network needs at least one layer")
        for i, lay in enumerate(layers):
            if isinstance(lay, _RECURRENT) and i != 0:
                raise ValueError("recurrent cell must be the first layer")
        self.layers = layers
        self.recurrent = isinstance(layers[0], _RECURRENT)

        first = layers[0]
        if isinstance(first, (Dense, SimpleRnnCell)):
            self.input_spec = ("dense", first.n_in)
        elif isinstance(first, (Conv1d, Conv1dTranspose, SimpleRnnConvCell)):
            self.input_spec = ("grid", first.in_ch)
        elif isinstance(first, AddExtraChannels):
            if first.in_ch is None:
                raise ValueError(
                    "AddExtraChannels needs in_ch to open a network")
            self.input_spec = ("grid", first.in_ch)
        else:
            self.input_spec = ("dense", 1)  # BioConstrain on a scalar source

        spec = self.input_spec
        for lay in layers:
            spec = lay.out_spec(spec)
        self.output_spec = spec

        self._offsets = []
        off = 0
        for lay in layers:
            shapes = lay.param_shapes()
            sizes = [int(np.prod(s)) for s in shapes]
            self._offsets.append((off, shapes, sizes))
            off += sum(sizes)
        self.n_params = off

    def describe(self) -> str:
        return ";".join(lay.describe() for lay in self.layers)

    def layer_params(self, params: Vec, i: int):
        """Views into the flat vector for layer i, shaped per param_shapes."""
        off, shapes, sizes = self._offsets[i]
        out = []
        for s, sz in zip(shapes, sizes):
            out.append(params[off:off + sz].reshape(s))
            off += sz
        return tuple(out)

    def _check_params(self, params):
        params = np.asarray(params, dtype=float)
        if params.shape != (self.n_params,):
            raise ValueError(
                f"parameter vector has shape {params.shape}, expected ({self.n_params},)")
        return params

    def _check_input(self, x):
        """x as the first layer takes it, and the shape it was given in (per
        element of a recurrent network's sequence)."""
        kind, dim = self.input_spec
        given = [np.asarray(v, dtype=float) for v in (x if self.recurrent else [x])]
        if not given:
            raise ValueError("rnn_forward needs a non-empty sequence")
        xs = []
        for a in given:
            if kind == "dense":
                if a.shape != (dim,):
                    raise ValueError(f"input shape {a.shape}, expected ({dim},)")
            else:
                if a.ndim == 1 and a.size % dim == 0:
                    a = a.reshape(-1, dim)
                if a.ndim != 2 or a.shape[1] != dim:
                    raise ValueError(f"input shape {a.shape}, expected (n, {dim}) or flat")
            xs.append(a)
        shapes = [a.shape for a in given]
        return (xs, shapes) if self.recurrent else (xs[0], shapes[0])


def _run_tape(net: Network, x, params, t):
    """The forward pass: the Tape fields after ``net``."""
    params = net._check_params(params)
    x, x_shape = net._check_input(x)
    flat = len(x_shape[0] if net.recurrent else x_shape) == 1
    caches = []
    for i, lay in enumerate(net.layers):
        x, cache = lay.forward(net.layer_params(params, i), x, t)
        caches.append(cache)
    return params, x.reshape(-1) if flat else x, caches, x_shape, x.shape


def _backward(tp: Tape, w, want_grads: bool):
    """Reverse pass on a tape: (dx, grads), with grads None unless wanted."""
    net, params, caches = tp.net, tp.params, tp.caches
    w = np.asarray(w, dtype=float)
    if w.shape != tp.y_shape and w.shape != (tp.y.size,):
        raise ValueError(f"cotangent shape {w.shape} does not match output {tp.y_shape}")
    grads = np.zeros(net.n_params) if want_grads else None
    dx = w.reshape(tp.y_shape)
    for i in range(len(net.layers) - 1, -1, -1):
        dx, gparts = net.layers[i].backward(net.layer_params(params, i), caches[i],
                                            dx, want_grads)
        if want_grads:
            _write_grads(net, grads, i, gparts)
    if net.recurrent:
        return [d.reshape(s) for d, s in zip(dx, tp.x_shape)], grads
    return dx.reshape(tp.x_shape), grads


def _write_grads(net, grads, i, gparts):
    off, shapes, sizes = net._offsets[i]
    for g, sz in zip(gparts, sizes):
        grads[off:off + sz] += np.asarray(g, dtype=float).ravel()
        off += sz


# ---------------------------------------------------------------------------
# Functional API
# ---------------------------------------------------------------------------


def forward(net: Network, x, params: Vec, t: float | None = None):
    """Evaluate a feed-forward network on one input."""
    if net.recurrent:
        raise ValueError("recurrent network: use rnn_forward with a sequence")
    return _run_tape(net, x, params, t)[1]


def rnn_forward(net: Network, xs, params: Vec, t: float | None = None):
    """Evaluate a recurrent network on a sequence ordered oldest -> newest."""
    if not net.recurrent:
        raise ValueError("rnn_forward requires a network with a recurrent cell")
    return _run_tape(net, xs, params, t)[1]


@dataclass(frozen=True, eq=False)
class Tape:
    """One forward pass kept for reverse passes: the output ``y`` and the
    per-layer caches of ``net`` at ``params``, with the shape the input was
    given in (per element for a sequence) and the output's field shape."""

    net: Network
    params: Vec
    y: np.ndarray
    caches: list
    x_shape: tuple | list
    y_shape: tuple


def tape(net: Network, x, params: Vec, t: float | None = None) -> Tape:
    """Run the forward pass and keep it for :func:`backward`.

    For recurrent networks ``x`` is the input sequence, oldest first.
    """
    return Tape(net, *_run_tape(net, x, params, t))


def backward(tp: Tape, w):
    """Reverse pass of w . y on a tape: (d/dx, d/dparams).

    For recurrent networks the input gradient is the list of per-element
    gradients.
    """
    return _backward(tp, w, True)


def backward_input(tp: Tape, w):
    """The d/dx part of :func:`backward` alone, with no parameter-gradient
    work; bit-identical to ``backward(tp, w)[0]``."""
    return _backward(tp, w, False)[0]


def vjp(net: Network, x, params: Vec, w, t: float | None = None):
    """Reverse pass of w . forward(net, x, params): (d/dx, d/dparams)."""
    return backward(tape(net, x, params, t), w)


def init_params(net: Network, seed: int, *, zero_final: bool = True) -> Vec:
    """Glorot-uniform weights, zero biases, deterministic per seed.

    ``zero_final`` zeroes the last weighted layer (excluding BioConstrain,
    whose beta starts at 0.5) so a freshly initialized closure outputs exactly
    zero and the augmented model starts identical to the base model.
    """
    rng = np.random.default_rng(seed)
    params = np.zeros(net.n_params)
    for i, lay in enumerate(net.layers):
        off, shapes, sizes = net._offsets[i]
        limits = lay.glorot_limits()
        for shape, size, lim in zip(shapes, sizes, limits):
            if lim is not None:
                params[off:off + size] = rng.uniform(-lim, lim, size=size)
            off += size
    for i, lay in enumerate(net.layers):
        if isinstance(lay, BioConstrain):
            off, _, _ = net._offsets[i]
            params[off] = 0.5
    if zero_final:
        last = None
        for i, lay in enumerate(net.layers):
            if not isinstance(lay, BioConstrain) and lay.param_shapes():
                last = i
        if last is not None:
            off, _, sizes = net._offsets[last]
            params[off:off + sum(sizes)] = 0.0
    return params
