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

Parameters live in one flat float64 vector: layer by layer, each layer's
parameters in order, each row-major. :meth:`Network.unpack` decodes it into
per-layer views followed by what the layer's ``decode`` makes of them: every
operand its forward step multiplies by or adds, and each convolution
kernel's contiguous reverse matrix. A forward pass takes either the flat
vector (and decodes it once) or views decoded earlier, so a caller running
many passes on one vector decodes it once. The tape keeps the views for its
reverse passes. Every layer writes its forward once, as the step its
``plan`` builds from decoded operands alone, and provides reverse (input
and parameter) passes.

Every input is one array, with one layout per network kind:

* a feed-forward network takes one input, or a stack of inputs along a
  leading batch axis: (dim,) or (B, dim) dense, (points, channels) or
  (B, points, channels) grid;
* a recurrent network takes its sequence, oldest first, along the leading
  axis, optionally followed by a batch axis ((L, B, ...)); a list of the
  elements is taken as the same array.

:func:`fields` puts flat states with any leading axes into that layout; it
is the one place where a flat state becomes a grid network's fields.

Every layer runs a batch in its one forward and backward code, and a reverse
pass sums the parameter gradients over the batch. An output cotangent has
the shape of the tape's output, and the input cotangent comes back in the
shape of the input (stacked like the sequence for a recurrent network). The
time ``t`` of a pass is one time, or one per batch member (B,); only
``AddExtraChannels`` reads it.

Every pass runs the layers' steps (:func:`_steps`), each writing its output
into the next layer's input buffer, a k > 1 convolution's padded buffer
(whose pad rows stay zero). A plain forward (:func:`forward`,
:func:`rnn_forward`) computes no derivative and runs through a
:class:`Plan`, which builds the steps once for its input shape, so a caller
that keeps the plan (a forward solve keeps one per network) runs each pass
with no allocation but its output and no per-layer dispatch. Given the flat
vector or views, the two functions build a plan for the one call. A plan
also runs inputs stacked along a leading axis, and many recurrent sequences
but their last elements, in one pass each.

A reverse pass is split in two steps: :func:`tape` runs the forward pass and
keeps the layer caches, and :func:`backward` (input and parameter cotangents)
or :func:`backward_input` (input cotangent only, skipping all weight-gradient
work) run on that tape, as often as needed. :func:`vjp` composes the two.
:func:`rows` views a block of a batched tape's rows as a tape of its own, so
one forward pass over many inputs serves reverse passes on any of them.
A tape runs kept steps, built for its input over buffers of its own, which
also keep per layer what its reverse passes read: the layer input (a
convolution's tap windows) for the weight gradient, and act'(z) of an
activated layer, one per sequence step in a recurrent cell. A recurrent
cell steps through its sequence in one loop, :func:`_recurrence`, for a
plan's prefix and a kept step alike; a kept loop also keeps each step's
act'(z) and hidden state. So a plain pass's output is the tape's, bit for
bit. A reverse pass multiplies its cotangent by that act'(z), one NumPy
call per layer, and recomputes nothing from the forward pass.

Each convolution pass is one matmul over the tap windows of one padded
copy. The kernels work in place on the arrays they allocate themselves, and
on nothing else. A layer adds its bias to its own product and activates
that pre-activation by one formula per activation: a plain step by the
activation its plan chose once (:func:`_plain`: np.tanh, a copy or nothing
for linear, :func:`_activate` for swish), a kept step through
:func:`_activate`. A swish layer's decoded weights and bias are halved,
which gives its steps z / 2 exactly; both take act(z) = p (z / 2) from
p = 1 + tanh(z / 2), bit for bit z * sigmoid(z), and a kept step act'(z)
from the same p. A tape's derivative and a scaled cotangent are new arrays.
No layer writes into its input, its cotangent, its parameters or a tape's
arrays, so a tape serves any number of reverse passes and a caller's arrays
come back as they went in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------


def _activate(name, z, out, deriv=False):
    """act(z) of a step's pre-activation z, returned. Without ``deriv`` it
    is written into ``out`` (a fresh array when None; tanh and linear take
    ``out`` z itself), as plain swish steps use it (:func:`_plain`). A kept
    step (``deriv``) gets (act(z), act'(z)), act'(z) a new array (None for
    linear): it works in z, on contiguous arrays, and copies act(z) into
    ``out`` once when given (a ufunc writing into padded rows is slower). A
    swish layer's z is its halved pre-activation z / 2 (``decode``), and
    both come from p = 1 + tanh(z / 2): act = p (z / 2) and
    act' = p (1 + (2 - p) (z / 2)) / 2, bit for bit z * sigmoid(z) and
    sigmoid(z) (1 + z (1 - sigmoid(z))), sigmoid(z) being p / 2."""
    dst, d = (z if deriv else out), None
    if name == "tanh":
        y = np.tanh(z, dst)
        if deriv:
            d = y * y
            np.subtract(1.0, d, out=d)
    elif name == "swish":
        p = np.tanh(z, None if deriv else dst)
        p += 1.0
        if deriv:
            d = 2.0 - p
            d *= z
            d += 1.0
            d *= p
            d *= 0.5
        y = np.multiply(p, z, p if dst is None else dst)
    else:
        y = z if dst is z else np.positive(z, dst)
    if deriv and out is not None:
        np.copyto(out, y)
        y = out
    return (y, d) if deriv else y


def _plain(name):
    """A plain step's activation act(z, out), chosen when its plan is built:
    the ufunc itself for tanh (np.tanh) and linear (np.positive, a copy), so
    that those steps pay no call of their own, and :func:`_activate` for
    swish."""
    ufunc = {"tanh": np.tanh, "linear": np.positive}.get(name)
    return ufunc or (lambda z, out: _activate(name, z, out))


def _scale(d, w):
    """The cotangent w times a tape's act'(z): a new array, or w itself for
    linear (d None)."""
    return w if d is None else d * w


ACTIVATIONS = ("tanh", "swish", "linear")


def _check_act(name):
    if name not in ACTIVATIONS:
        raise ValueError(f"activation must be one of {ACTIVATIONS}, got {name!r}")


# ---------------------------------------------------------------------------
# Shared convolution helpers (stride 1, same zero padding): one matmul per
# pass, over the tap windows of one padded copy
# ---------------------------------------------------------------------------


def _padded(shape, k, left=None):
    """A zero buffer for (..., n, ci) inputs at k > 1, padded with ``left``
    rows ((k - 1) // 2 when None) before them and k - 1 - left after: (the
    view of its input rows, its (..., n, k * ci) tap windows). The windows
    are a view of the buffer, read-only because their rows overlap."""
    n, ci = shape[-2:]
    left = (k - 1) // 2 if left is None else left
    xpad = np.zeros(shape[:-2] + (n + k - 1, ci))
    win = np.ndarray(shape[:-2] + (n, k * ci), buffer=xpad, strides=xpad.strides)
    win.flags.writeable = False
    return xpad[..., left:left + n, :], win


def _windows(x, k, left):
    """The tap windows of x (..., n, ci) padded as :func:`_padded` pads, in
    a fresh buffer; x itself at k = 1."""
    if k == 1:
        return x
    xin, win = _padded(x.shape, k, left)
    xin[...] = x
    return win


def _kernel(K):
    """A correlation kernel K (k, ci, co) as the contiguous matrices its
    passes multiply by: (forward, K as (k * ci, co); reverse, the taps in
    reverse order, each transposed, as (k * co, ci)), both copies."""
    k, ci, co = K.shape
    return (K.reshape(k * ci, co).copy(),
            K[::-1].transpose(0, 2, 1).reshape(k * co, ci).copy())


def _conv_same_vjp(win, rev, w, grads=True):
    """Reverse pass of the correlation of x (..., n, ci) with a kernel K
    (k, ci, co) of reverse matrix ``rev`` (:func:`_kernel`), on the tap
    windows ``win`` of x; returns (dx, dK, db), with dK and db None when
    ``grads`` is false. Leading axes are batch axes, and weight gradients
    sum over them."""
    k = rev.shape[0] // w.shape[-1]
    # dx[j] = sum_d w[j + (k - 1) // 2 - d] @ K[d].T: the windows of w padded
    # k // 2 rows before, times the reverse matrix
    dx = _windows(w, k, k // 2) @ rev
    if not grads:
        return dx, None, None
    return (dx, *_conv_same_grads(win, w, k))


def _conv_same_grads(win, w, k):
    """The (dK, db) of _conv_same_vjp, summed over the batch axes."""
    w2 = w.reshape(-1, w.shape[-1])
    dK = win.reshape(-1, win.shape[-1]).T @ w2
    return dK.reshape(k, -1, w2.shape[1]), w2.sum(axis=0)


def _product(ndim, M, windows=False):
    """A plan step's product by M, chosen when its plan is built: np.dot
    (np.matmul's BLAS call, lighter dispatch) on one or two axes; np.matmul
    on a stack (np.dot is another product), on tap ``windows`` (np.dot
    copies them, moving bits) and over one entry (an outer product's zeros)."""
    return np.dot if ndim <= 2 and M.shape[0] > 1 and not windows else np.matmul


def _halved(act, *ops):
    """A layer's decoded forward operands: halved for swish, so that its
    steps give z / 2 exactly (halving commutes with every rounding, absent
    underflow), else as they are."""
    return tuple(op * 0.5 for op in ops) if act == "swish" else ops


def _affine_step(M, b, act, shape, out, win=None, keep=None):
    """The step act(a @ M + b) of a dense or convolution layer, M and b its
    decoded operands, into ``out`` (a fresh array when None), ``a`` its
    input x or ``win``, the tap windows of its padded input buffer,
    multiplied by :func:`_product`. A plan's b is broadcast to the output
    shape once, for adds of one shape; a kept step (``keep`` a list)
    appends its cache (a, act'(z))."""
    swish = act == "swish"
    if keep is None:
        b = np.full(shape, b)
        # a linear step's output is its z
        f = None if act == "linear" else _plain(act)
    mul = _product(len(shape), M, win is not None)
    # the product goes into a new array in a kept step; a plan's swish keeps
    # z / 2 in a buffer apart from its output, the others work in the output
    zbuf = None if keep is not None else np.empty(shape) if swish else out

    def step(x, t):
        a = x if win is None else win
        z = mul(a, M, zbuf)
        np.add(z, b, z)
        if keep is None:
            return z if f is None else f(z, out if swish else z)
        y, d = _activate(act, z, out, True)
        keep.append((a, d))
        return y
    return step


def _recurrence(name, zx, b, hidden, recur, mul, kept=None):
    """The one recurrence loop of a recurrent cell over its input half zx,
    elements on the leading axis: from z = zx[0] + b, each later element
    activates z (``name``) into the rows of a hidden-state buffer
    ``hidden(shape)`` = (rows, operand) and runs ``recur(operand, zx_i, z,
    b, mul)``, the recurrent product into z plus the element's input half
    and the bias. Returns the last pre-activation z. A plain loop reuses one
    buffer; a kept one (``kept`` = (ds, hs)) makes one per element and
    appends act'(z) to ds and the operand to hs."""
    z = zx[0] + b
    h = None if kept is not None else hidden(z.shape)
    act = _plain(name)
    for zx_i in zx[1:]:
        rows, op = h or hidden(z.shape)
        if kept is None:
            act(z, rows)
        else:
            kept[0].append(_activate(name, z, rows, True)[1])
            kept[1].append(op)
        recur(op, zx_i, z, b, mul)
    return z


def _recurrent_plan(name, b, mul, z, h, hidden, zx_of, zx_last, recur, out, finish):
    """A recurrent cell's plan (last, prefix) from its input halves of R
    sequences (``zx_of``, (R, L - 1 or more) + element) and of a last
    element, its activation ``name`` into the rows of a hidden-state buffer
    h = (rows, operand) and its recurrent product from the operand into z
    (``hidden(shape)`` makes the prefix's buffers), given a bias and product
    (b and np.matmul for the prefix, b broadcast to z and ``mul`` for
    ``last``), and ``finish(y, t)``, its output from the last hidden state y,
    activated into ``out``."""
    bl = np.full(z.shape, b)
    rows, op = h
    act = _plain(name)

    def prefix(xs):
        # the first L - 1 elements (a dense cell's input half also has its
        # zero-padded last one), elements first, each as (R, 1) + element
        zx = zx_of(xs)[:, :xs.shape[1], None].swapaxes(0, 1)
        return _recurrence(name, zx, b, hidden, recur, np.matmul)[:, 0]

    def last(x, zp, t):
        zx = zx_last(x)
        if zp is None:
            np.add(zx, bl, z)
        else:
            act(zp, rows)
            recur(op, zx, z, bl, mul)
        return finish(act(z, out), t)
    return last, prefix


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------
#
# ``param_specs()`` lists each parameter's shape and Glorot-uniform limit
# (None for a parameter that is not drawn). ``decode(views)`` makes, once per
# :meth:`Network.unpack`, every operand the layer's steps multiply by or add
# (halved for a swish layer, :func:`_halved`), then a convolution's reverse
# matrices; the layer's entry of ``unpack`` is its views followed by these.
# ``plan(p, shape, out, keep)`` is the layer's one forward: its step for
# inputs of ``shape``, ``p`` being its entry of :meth:`Network.unpack`, of
# which it reads the decoded operands alone. It returns (step, xin):
# step(x, t) writes the output into ``out`` (a fresh array when None) and
# returns it, and ``xin`` is the buffer view the input must be written into
# (a k > 1 convolution's padded input), or None when the step reads x as
# given. A kept step (``keep`` a list, for a tape) also appends its cache to
# ``keep``: what reverse passes read, act'(z) included.
# ``backward(p, cache, w, grads)`` returns (dx, parameter gradients); with
# ``grads`` false the second entry is None and no weight-gradient work is
# done, and dx is computed by the same operations either way.
# ``rows(cache, sl)`` gives the cache of the batch rows ``sl`` (a slice) as
# views, the cache a forward pass over those rows alone would keep.
# Recurrent cells take the whole sequence as x, one array with the sequence
# on the leading axis (then any batch axis), and return dx stacked the same
# way. Their input half runs in one call over the sequence and batch, and
# only the recurrent half steps through the sequence, in the one loop
# :func:`_recurrence`. A cell's kept step runs the whole sequence through it
# and caches, per element, act'(z) and the hidden-state operand its
# recurrent product read (zero before the first element); its plan for
# sequences of ``shape`` (L,) + element is (last, prefix): prefix(xs) runs
# the first L - 1 elements of R sequences, (R, L - 1) + element, through the
# same loop to one pre-activation row per sequence, and last(x, z, t) runs a
# last element x on from such a row z (None for L = 1). Both give the kept
# step's bits: a stacked product runs each slice as the unstacked one does,
# and one trajectory's hidden-state rows are stacked as (1, units), which
# takes the 1-D product's routine.


@dataclass(frozen=True)
class Dense:
    """Affine map act(W x + b) on (..., in) inputs. Params: W (out, in),
    b (out,)."""

    n_in: int
    n_out: int
    act: str = "linear"

    def __post_init__(self):
        if self.n_in <= 0 or self.n_out <= 0:
            raise ValueError("Dense: dimensions must be positive")
        _check_act(self.act)

    def param_specs(self):
        return [((self.n_out, self.n_in), np.sqrt(6.0 / (self.n_in + self.n_out))),
                ((self.n_out,), None)]

    def out_spec(self, spec):
        if spec != ("dense", self.n_in):
            raise ValueError(f"Dense({self.n_in},{self.n_out}) cannot follow {spec}")
        return ("dense", self.n_out)

    def decode(self, p):
        W, b = p
        return _halved(self.act, W.T, b)

    def plan(self, p, shape, out, keep=None):
        M, b = p[2:]
        return _affine_step(M, b, self.act, shape[:-1] + (self.n_out,), out,
                            keep=keep), None

    def backward(self, p, cache, w, grads=True):
        W = p[0]
        x, d = cache
        dz = _scale(d, w)
        if not grads:
            return dz @ W, None
        dz2 = dz.reshape(-1, self.n_out)
        return dz @ W, (dz2.T @ x.reshape(-1, self.n_in), dz2.sum(axis=0))

    def rows(self, cache, sl):
        x, d = cache
        return x[sl], d if d is None else d[sl]

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

    def param_specs(self):
        u = self.units
        return [((u, self.n_in), np.sqrt(6.0 / (self.n_in + u))),
                ((u, u), np.sqrt(6.0 / (2 * u))), ((u,), None)]

    def out_spec(self, spec):
        if spec != ("dense", self.n_in):
            raise ValueError(f"SimpleRnnCell({self.n_in}) cannot follow {spec}")
        return ("dense", self.units)

    def decode(self, p):
        Wx, Wh, b = p
        return _halved(self.act, Wx.T, Wh.T, b)

    def plan(self, p, shape, out, keep=None):
        Mx, Mh, b = p[3:]
        hshape = shape[1:-1] + (self.units,)
        mx, mh = (_product(len(hshape), M) for M in (Mx, Mh))

        def recur(h, zx_i, z, b, mul):
            mul(h, Mh, z)
            np.add(z, zx_i, z)
            np.add(z, b, z)

        hidden = lambda shape=hshape: (np.empty(shape),) * 2

        if keep is not None:
            def step(xs, t):
                # the hidden state before the first element is zero
                ds, hs = [], [np.zeros(hshape)]
                z = _recurrence(self.act, np.matmul(xs, Mx), b, hidden, recur, mh, (ds, hs))
                y, d = _activate(self.act, z, out, True)
                keep.append((xs, ds + [d], hs))
                return y
            return step, None

        # one trajectory's input half is an L-row product, as in a kept
        # step, for the last element too (one row takes another BLAS routine)
        xl = np.zeros(shape) if len(shape) == 2 else None
        zxl = np.empty(hshape if xl is None else shape[:-1] + (self.units,))

        def zx_of(xs):
            seq = np.zeros(xs.shape[:1] + shape)
            seq[:, :-1] = xs
            return np.matmul(seq, Mx)

        def zx_last(x):
            if xl is None:
                return mx(x, Mx, zxl)
            xl[-1] = x
            return mx(xl, Mx, zxl)[-1]
        return _recurrent_plan(self.act, b, mh, np.empty(hshape), hidden(), hidden, zx_of,
                               zx_last, recur, out, lambda y, t: y)

    def backward(self, p, cache, w, grads=True):
        Wx, Wh = p[:2]
        xs, ds, hs = cache
        dzs = np.empty((len(ds),) + w.shape)
        dh = w
        # the hidden state before step 0 is zero: nothing flows back past it
        for i in range(len(ds) - 1, 0, -1):
            dzs[i] = dz = _scale(ds[i], dh)
            dh = dz @ Wh
        dzs[0] = _scale(ds[0], dh)
        dxs = dzs @ Wx
        if not grads:
            return dxs, None
        dz2 = dzs.reshape(-1, self.units)
        return dxs, (dz2.T @ xs.reshape(-1, self.n_in),
                     dz2.T @ np.stack(hs).reshape(-1, self.units), dz2.sum(axis=0))

    def rows(self, cache, sl):
        xs, ds, hs = cache
        # the sequence comes first, then the batch
        return xs[:, sl], [d if d is None else d[sl] for d in ds], [h[sl] for h in hs]

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

    def param_specs(self):
        k, u = self.kernel, self.units
        lim = lambda ci, co: np.sqrt(6.0 / (k * ci + k * co))
        return [((k, self.in_ch, u), lim(self.in_ch, u)), ((k, u, u), lim(u, u)),
                ((u,), None), ((k, u, u), lim(u, u)), ((u,), None)]

    def out_spec(self, spec):
        if spec != ("grid", self.in_ch):
            raise ValueError(f"SimpleRnnConvCell({self.in_ch}ch) cannot follow {spec}")
        return ("grid", self.units)

    def decode(self, p):
        # the forward matrices and biases, then the reverse matrices
        (fx, rx), (fh, rh), (fo, ro) = (_kernel(K) for K in (p[0], p[1], p[3]))
        return _halved(self.act, fx, fh, p[2], fo, p[4]) + (rx, rh, ro)

    def plan(self, p, shape, out, keep=None):
        # each hidden state in the input rows of a padded buffer, whose
        # windows the recurrent and the output convolution read
        Fx, Fh, b, Fo, bo = p[5:10]
        k = self.kernel
        hshape = shape[1:-1] + (self.units,)

        def padded(shape=hshape):
            return _padded(shape, k) if k > 1 else (np.empty(shape),) * 2

        h = padded()
        kept_out = None if keep is None else []
        conv_out = _affine_step(Fo, bo, self.act, hshape, out, h[1] if k > 1 else None,
                                kept_out)
        mx, mh = (_product(len(hshape), F, k > 1) for F in (Fx, Fh))

        def input_half(win, zx=None, mul=np.matmul):
            zx = mul(win, Fx, zx)
            return np.add(zx, 0.0, zx)   # the input half's zero bias

        def recur(hwin, zx_i, z, b, mul):
            mul(hwin, Fh, z)
            np.add(z, b, z)
            np.add(z, zx_i, z)

        if keep is not None:
            def step(xs, t):
                xwin = _windows(xs, k, (k - 1) // 2)
                # the hidden state before the first element and its windows
                # are zero
                ds, hwins = [], [np.zeros(hshape[:-1] + (k * self.units,))]
                z = _recurrence(self.act, input_half(xwin), b, padded, recur, mh, (ds, hwins))
                ds.append(_activate(self.act, z, h[0], True)[1])
                y = conv_out(h[0], t)
                owin, do = kept_out.pop()
                keep.append((xwin, ds, hwins, do, owin))
                return y
            return step, None

        xin, xwin = _padded(shape[1:], k) if k > 1 else (None, None)
        zxl = np.empty(hshape)

        def zx_last(x):
            if xin is not None:
                np.copyto(xin, x)
            return input_half(x if xwin is None else xwin, zxl, mx)

        return _recurrent_plan(self.act, b, mh, np.empty(hshape), h, padded,
                               lambda xs: input_half(_windows(xs, k, (k - 1) // 2)),
                               zx_last, recur, h[0], conv_out)

    def backward(self, p, cache, w, grads=True):
        rx, rh, ro = p[10:]
        xwin, ds, hwins, do, owin = cache
        dh, dKo, dbo = _conv_same_vjp(owin, ro, _scale(do, w), grads)
        dzs = np.empty((len(ds),) + dh.shape)
        # the hidden state before step 0 is zero: nothing flows back past it
        for i in range(len(ds) - 1, 0, -1):
            dzs[i] = dz = _scale(ds[i], dh)
            dh = _conv_same_vjp(hwins[i], rh, dz, False)[0]
        dzs[0] = _scale(ds[0], dh)
        dxs, dKx, _ = _conv_same_vjp(xwin, rx, dzs, grads)
        if not grads:
            return dxs, None
        dKh, db = _conv_same_grads(np.stack(hwins), dzs, self.kernel)
        return dxs, (dKx, dKh, db, dKo, dbo)

    def rows(self, cache, sl):
        do, owin = cache[3:]
        # the recurrent half's cache is laid out like SimpleRnnCell's
        return (*SimpleRnnCell.rows(self, cache[:3], sl),
                do if do is None else do[sl], owin[sl])

    def describe(self):
        return (f"SimpleRnnConvCell({self.in_ch}ch->{self.units}ch,"
                f"k{self.kernel},{self.act})")


@dataclass(frozen=True)
class Conv1d:
    """1-D convolution, stride 1, same zero padding, on (n, channels) fields.
    Params: K (k, in_ch, out_ch), b (out_ch,); the steps correlate with the
    kernel ``taps(K)``."""

    in_ch: int
    out_ch: int
    kernel: int
    act: str = "linear"

    def __post_init__(self):
        if min(self.in_ch, self.out_ch, self.kernel) <= 0:
            raise ValueError("Conv1d: dimensions must be positive")
        _check_act(self.act)

    def param_specs(self):
        k, ci, co = self.kernel, self.in_ch, self.out_ch
        return [((k, ci, co), np.sqrt(6.0 / (k * (ci + co)))), ((co,), None)]

    def out_spec(self, spec):
        if spec != ("grid", self.in_ch):
            raise ValueError(f"Conv1d({self.in_ch}ch) cannot follow {spec}")
        return ("grid", self.out_ch)

    @staticmethod
    def taps(K):
        """The correlation kernel of the parameter K; also maps a gradient
        with respect to the taps back onto K."""
        return K

    def decode(self, p):
        fwd, rev = _kernel(self.taps(p[0]))
        return _halved(self.act, fwd, p[1]) + (rev,)

    def plan(self, p, shape, out, keep=None):
        F, b = p[2:4]
        k = self.kernel
        xin, win = _padded(shape, k) if k > 1 else (None, None)
        oshape = shape[:-1] + (self.out_ch,)
        return _affine_step(F, b, self.act, oshape, out, win, keep), xin

    def backward(self, p, cache, w, grads=True):
        win, d = cache
        dx, dK, db = _conv_same_vjp(win, p[4], _scale(d, w), grads)
        return dx, (self.taps(dK), db) if grads else None

    rows = Dense.rows

    def describe(self):
        return (f"{type(self).__name__}({self.in_ch}ch->{self.out_ch}ch,"
                f"k{self.kernel},{self.act})")


@dataclass(frozen=True)
class Conv1dTranspose(Conv1d):
    """Transposed 1-D convolution at stride 1: correlation with the flipped
    kernel, same padding. Identical parameter shapes to Conv1d."""

    @staticmethod
    def taps(K):
        # the flip is its own inverse, so it also maps dK back
        return K[::-1]


@dataclass(frozen=True)
class AddExtraChannels:
    """Append non-trainable context channels (depth grid, irradiance I(z, t)).

    ``channels_fn(t)`` must return an (n, n_extra) array matching the field
    length for one time, and (B, n, n_extra) for a (B,) array of times, one
    per batch member. It is supplied by the experiment wiring, so the layer
    itself stays agnostic of the physical model. No trainable parameters.
    ``in_ch`` is only needed when the layer opens a network (the input width
    cannot be inferred from a parameter-free layer).
    """

    n_extra: int
    channels_fn: Callable[[float], np.ndarray] = field(compare=False)
    label: str = "context"
    in_ch: int | None = None

    def __post_init__(self):
        if self.n_extra <= 0:
            raise ValueError("AddExtraChannels: n_extra must be positive")

    def param_specs(self):
        return []

    def decode(self, p):
        return ()

    def out_spec(self, spec):
        kind, ch = spec
        if kind != "grid":
            raise ValueError("AddExtraChannels requires a grid input")
        if self.in_ch is not None and ch != self.in_ch:
            raise ValueError(f"AddExtraChannels expects {self.in_ch} channels, got {ch}")
        return ("grid", ch + self.n_extra)

    def _extra(self, t, shape):
        """The context channels at t, checked to be of ``shape``."""
        if t is None:
            raise ValueError("AddExtraChannels needs the evaluation time t")
        extra = np.asarray(self.channels_fn(t), dtype=float)
        if extra.shape != shape:
            raise ValueError(f"channels_fn returned shape {extra.shape}, expected "
                             f"{shape}: one time per member")
        return extra

    def plan(self, p, shape, out, keep=None):
        want = shape[:-1] + (self.n_extra,)

        def step(x, t):
            if keep is not None:
                keep.append(shape[-1])
            return np.concatenate((x, self._extra(t, want)), axis=-1, out=out)
        return step, None

    def backward(self, p, cache, w, grads=True):
        return w[..., :cache], () if grads else None

    def rows(self, cache, sl):
        return cache

    def describe(self):
        return f"AddExtraChannels(+{self.n_extra},{self.label})"


@dataclass(frozen=True)
class BioConstrain:
    """Map each scalar source s to (beta*s, -s, (1-beta)*s); beta trainable.

    The triple sums to -s + s = 0 exactly, so closures built on this layer
    conserve the summed biomass identically. Input must have one channel
    (dense inputs of size 1, or (n, 1) fields); output has three.
    """

    def param_specs(self):
        return [((1,), None)]

    def out_spec(self, spec):
        kind, ch = spec
        if ch != 1:
            raise ValueError("BioConstrain requires exactly one input channel")
        return (kind, 3)

    def decode(self, p):
        beta = p[0][0]
        return (np.array([beta, -1.0, 1.0 - beta]),)

    def plan(self, p, shape, out, keep=None):
        row = p[1]

        def step(x, t):
            if keep is not None:
                keep.append(x[..., 0])
            return np.multiply(x, row, out)
        return step, None

    def backward(self, p, cache, w, grads=True):
        beta = p[0][0]
        ds = beta * w[..., 0] - w[..., 1] + (1.0 - beta) * w[..., 2]
        if not grads:
            return ds[..., None], None
        dbeta = float(np.sum(cache * (w[..., 0] - w[..., 2])))
        return ds[..., None], (np.array([dbeta]),)

    def rows(self, cache, sl):
        return cache[sl]

    def describe(self):
        return "BioConstrain"


LayerSpec = (Dense | SimpleRnnCell | SimpleRnnConvCell | Conv1d | Conv1dTranspose
             | AddExtraChannels | BioConstrain)

_RECURRENT = (SimpleRnnCell, SimpleRnnConvCell)


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------


class Network:
    """Ordered layer stack with a flat parameter layout: layer by layer, each
    layer's parameters in ``param_specs`` order, each row-major.

    A recurrent cell, if present, must be the first layer; such networks are
    evaluated with :func:`rnn_forward` on a state sequence (oldest first) and
    all later layers act on the cell output.
    """

    def __init__(self, layers: Sequence[LayerSpec]):
        layers = tuple(layers)
        if not layers:
            raise ValueError("Network needs at least one layer")
        if any(isinstance(lay, _RECURRENT) for lay in layers[1:]):
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

        self._shapes = [[shape for shape, _ in lay.param_specs()] for lay in layers]
        self.n_params = sum(math.prod(s) for shapes in self._shapes for s in shapes)

    def describe(self) -> str:
        return ";".join(lay.describe() for lay in self.layers)

    def unpack(self, params: np.ndarray) -> tuple:
        """The flat vector decoded once for the layers' passes: one tuple per
        layer, its parameter views shaped per ``param_specs``, then the
        layer's ``decode`` of them: the operands its forward steps multiply
        by and add (W.T for a dense weight, a kernel's forward matrix), all
        halved for a swish layer, then a convolution's reverse matrices. The
        views share memory with ``params`` when it is a float64 vector, and
        so do the decoded operands that are views of them (a transposed
        weight of a layer other than swish); kernel matrices are copies, made
        here so that no pass reshapes or flips a kernel."""
        params = np.asarray(params, dtype=float)
        if params.shape != (self.n_params,):
            raise ValueError(
                f"parameter vector has shape {params.shape}, expected ({self.n_params},)")
        views, off = [], 0
        for lay, shapes in zip(self.layers, self._shapes):
            layer = []
            for shape in shapes:
                size = math.prod(shape)
                layer.append(params[off:off + size].reshape(shape))
                off += size
            layer = tuple(layer)
            views.append(layer + lay.decode(layer))
        return tuple(views)

    def _check_input(self, x):
        """x as an array, checked against the layout of the first layer: a
        recurrent network takes its sequence along a leading axis, and then
        an optional batch axis; a feed-forward network an optional leading
        batch axis."""
        kind, dim = self.input_spec
        x = np.asarray(x, dtype=float)
        ndim = (1 if kind == "dense" else 2) + self.recurrent
        if x.ndim not in (ndim, ndim + 1) or x.shape[-1] != dim:
            want = f"({dim},)" if kind == "dense" else f"(points, {dim})"
            want = (f"a sequence of {want} along a leading axis" if self.recurrent
                    else want)
            raise ValueError(f"input shape {x.shape}, expected {want}, "
                             f"with an optional batch axis")
        if self.recurrent and not len(x):
            raise ValueError("a recurrent network needs a non-empty sequence")
        return x


def _steps(net: Network, views: tuple, shape, keep=None):
    """The layers' steps (``plan``) for inputs of ``shape``, over buffers of
    their own, each writing into the next one's input buffer and the last
    into a fresh array: (steps, cell). Kept steps (``keep`` a list) append
    their caches in layer order, a recurrent cell's among them, and make
    only padded input buffers; else a cell's (last, prefix) is ``cell``."""
    spec, shapes = net.input_spec, [shape]
    for lay in net.layers:
        spec = lay.out_spec(spec)
        shapes.append(shapes[-1][isinstance(lay, _RECURRENT):-1] + (spec[1],))
    cell = net.recurrent and keep is None
    # from the last layer back
    steps, out = [], None
    for i in range(len(net.layers) - 1, int(cell) - 1, -1):
        step, xin = net.layers[i].plan(views[i], shapes[i], out, keep)
        steps.append(step)
        out = np.empty(shapes[i]) if xin is None and keep is None and i else xin
    if cell:
        return steps[::-1], net.layers[0].plan(views[0], shapes[0], out)
    if out is not None:   # the first layer's padded input buffer
        steps.append(lambda x, t: np.copyto(out, x) or out)
    return steps[::-1], None


class Plan:
    """The plain forward pass of ``net`` (no tape), built once for one input
    shape and run any number of times.

    ``params`` is the flat vector or its :meth:`Network.unpack` views. The
    first call fixes the input shape and builds one step per layer
    (:func:`_steps`) over buffers allocated for it: each layer writes its
    output with ``out=`` into the input buffer of the next, a k > 1
    convolution's padded buffer (whose pad rows stay zero). Each bias is
    broadcast to its step's output shape here, and a step multiplies a one-
    or two-axis operand by np.dot, stacks and tap windows by np.matmul
    (:func:`_product`). The last layer writes into a fresh array, so no
    output aliases a plan buffer. Every call checks the input shape, a tuple compare, and a call
    on another shape raises ``ValueError``. A plan is not reentrant: it
    serves one solve, one call at a time.

    :meth:`prefix` runs many recurrent sequences but their last elements at
    once, each call then one last element from its (read-only) row, and
    :meth:`stacked` runs a feed-forward network on many inputs at once, on
    steps built once per stacked shape.
    """

    def __init__(self, net: Network, params):
        self.net = net
        self.views = params if isinstance(params, tuple) else net.unpack(params)
        self.shape = None
        self.steps = ()
        self._cell = None   # a recurrent cell's (last, prefix)
        self._stacks = {}   # stacked input shape -> its steps

    def __call__(self, x: np.ndarray, t=None, prefix=None) -> np.ndarray:
        """The output for ``x`` at ``t``. With ``prefix``, a row of
        :meth:`prefix`, ``x`` is the last element of that row's sequence."""
        if prefix is None:
            if x.shape != self.shape:
                self._build(x.shape)
            if self._cell is not None:
                prefix = self._cell[1](x[None, :-1])[0] if len(x) > 1 else None
                x = x[-1]
        elif self.shape is None or x.shape != self.shape[1:]:
            raise ValueError(f"input shape {x.shape}, expected the last element of {self.shape}")
        if self._cell is not None:
            x = self._cell[0](x, prefix, t)
        for step in self.steps:
            x = step(x, t)
        return x

    def prefix(self, xs: np.ndarray) -> np.ndarray:
        """The first L - 1 elements of R sequences, (R, L - 1) + element,
        through the recurrent cell in one pass: one row per sequence, for a
        call on its last element. The plan then runs sequences of L."""
        shape = (xs.shape[1] + 1,) + xs.shape[2:]
        if shape != self.shape:
            self._build(shape)
        return self._cell[1](xs)

    def stacked(self, xs: np.ndarray, t=None) -> np.ndarray:
        """R inputs stacked along a leading axis in one pass over buffers
        made for it, row r bit for bit the output for xs[r] at t[r]; one
        trajectory's dense inputs run as (R, 1, dim), which takes the 1-D
        product's routine (an (R, dim) product takes another)."""
        if self.net.recurrent:
            raise ValueError("stacked runs a feed-forward network; use prefix")
        one = self.net.input_spec[0] == "dense" and xs.ndim == 2
        x = xs[:, None] if one else xs
        steps = self._stacks.get(x.shape)
        if steps is None:
            self.net._check_input(xs[0])
            steps = self._stacks[x.shape] = _steps(self.net, self.views, x.shape)[0]
        for step in steps:
            x = step(x, t)
        return x[:, 0] if one else x

    def _build(self, shape):
        if self.shape is not None:
            raise ValueError(f"input shape {shape}, expected {self.shape}, "
                             f"the shape this plan was built for")
        self.net._check_input(np.empty(shape))
        self.steps, self._cell = _steps(self.net, self.views, shape)
        self.shape = shape


def _backward(tp: Tape, w, want_grads: bool):
    """Reverse pass on a tape: (dx, grads), with grads None unless wanted."""
    net = tp.net
    dx = np.asarray(w, dtype=float)
    if dx.shape != tp.y.shape:
        raise ValueError(f"cotangent shape {dx.shape} does not match output {tp.y.shape}")
    layer_grads = []
    for lay, p, cache in zip(net.layers[::-1], tp.views[::-1], tp.caches[::-1]):
        dx, g = lay.backward(p, cache, dx, want_grads)
        layer_grads.append(g)
    if not want_grads:
        return dx, None
    # in layer order, added into zeros so that a -0.0 entry comes out +0.0
    grads = np.zeros(net.n_params)
    if net.n_params:
        grads += np.concatenate([np.ravel(g) for gs in layer_grads[::-1] for g in gs])
    return dx, grads


# ---------------------------------------------------------------------------
# Functional API
# ---------------------------------------------------------------------------


def fields(net: Network, x) -> np.ndarray:
    """Flat inputs (..., dim) in the layout ``net`` takes, whatever the
    leading (sequence and batch) axes: as they are for a dense network, as
    (..., points, channels) fields for a grid network."""
    kind, ch = net.input_spec
    x = np.asarray(x, dtype=float)
    return x if kind == "dense" else x.reshape(x.shape[:-1] + (-1, ch))


def _planned(net: Network, x, params, t, prefix=None):
    """The plain forward pass through ``params`` when it is a plan of
    ``net``, else through a plan built for this one call."""
    if not isinstance(params, Plan):
        if prefix is not None:
            raise ValueError("a prefix row continues only in the plan that made it")
        return Plan(net, params)(np.asarray(x, dtype=float), t)
    if params.net is not net:
        raise ValueError("the plan belongs to another network")
    return params(x, t, prefix)


def forward(net: Network, x, params, t=None):
    """Evaluate a feed-forward network on one input, or on a stack of them
    along a leading batch axis. ``params`` is the flat vector, its
    :meth:`Network.unpack` views, or a :class:`Plan` of ``net``, which takes
    ``x`` as an array of the shape it runs; ``t`` is one time or one per
    member."""
    if net.recurrent:
        raise ValueError("recurrent network: use rnn_forward with a sequence")
    return _planned(net, x, params, t)


def rnn_forward(net: Network, xs, params, t=None, prefix=None):
    """Evaluate a recurrent network on a sequence ordered oldest -> newest,
    stacked along the leading axis (then an optional batch axis); ``params``
    as for :func:`forward`. With ``prefix``, a row of :meth:`Plan.prefix`
    of the plan ``params``, ``xs`` is the sequence's last element alone."""
    if not net.recurrent:
        raise ValueError("rnn_forward requires a network with a recurrent cell")
    return _planned(net, xs, params, t, prefix)


@dataclass(frozen=True, eq=False)
class Tape:
    """One forward pass kept for reverse passes: the parameters of ``net``
    decoded once into per-layer ``views``, the output ``y`` and the per-layer
    caches."""

    net: Network
    views: tuple
    y: np.ndarray
    caches: list


def tape(net: Network, x, params: np.ndarray, t=None) -> Tape:
    """Run the forward pass and keep it for :func:`backward`: the kept steps
    of :func:`_steps` over buffers of this tape's own. ``params`` is the
    flat vector or its :meth:`Network.unpack` views.

    For recurrent networks ``x`` is the input sequence, oldest first.
    """
    views = params if isinstance(params, tuple) else net.unpack(params)
    x = net._check_input(x)
    caches = []
    for step in _steps(net, views, x.shape, caches)[0]:
        x = step(x, t)
    return Tape(net, views, x, caches)


def rows(tp: Tape, sl: slice) -> Tape:
    """The tape of the batch rows ``sl`` of ``tp``, as views: its reverse
    passes are those of a tape of the same forward pass over those rows
    alone."""
    return Tape(tp.net, tp.views, tp.y[sl],
                [lay.rows(c, sl) for lay, c in zip(tp.net.layers, tp.caches)])


def backward(tp: Tape, w):
    """Reverse pass of w . y on a tape: (d/dx, d/dparams).

    ``w`` has the shape of ``tp.y``; the input gradient has the shape of the
    input, so for a recurrent network it is stacked like the sequence.
    """
    return _backward(tp, w, True)


def backward_input(tp: Tape, w):
    """The d/dx part of :func:`backward` alone, with no parameter-gradient
    work; bit-identical to ``backward(tp, w)[0]``."""
    return _backward(tp, w, False)[0]


def vjp(net: Network, x, params: np.ndarray, w, t=None):
    """Reverse pass of w . forward(net, x, params): (d/dx, d/dparams)."""
    return backward(tape(net, x, params, t), w)


def init_params(net: Network, seed: int, *, zero_final: bool = True) -> np.ndarray:
    """Glorot-uniform weights, zero biases, deterministic per seed.

    ``zero_final`` zeroes the last weighted layer (excluding BioConstrain,
    whose beta starts at 0.5) so a freshly initialized closure outputs exactly
    zero and the augmented model starts identical to the base model.
    """
    rng = np.random.default_rng(seed)
    params = np.zeros(net.n_params)
    # each layer's parameter views, without the operands decoded from them
    views = [p[:len(lay.param_specs())] for lay, p in zip(net.layers, net.unpack(params))]
    for lay, vs in zip(net.layers, views):
        for v, (_, lim) in zip(vs, lay.param_specs()):
            if lim is not None:
                v[...] = rng.uniform(-lim, lim, size=v.shape)
        if isinstance(lay, BioConstrain):
            vs[0][0] = 0.5
    weighted = [vs for lay, vs in zip(net.layers, views)
                if vs and not isinstance(lay, BioConstrain)]
    if zero_final and weighted:
        for v in weighted[-1]:
            v[...] = 0.0
    return params
