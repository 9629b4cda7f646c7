"""Independent oracles used to pin derivative and kernel tests.

Kept deliberately separate from the package's own finite-difference helper so
adjoint-vs-FD comparisons never share code with the implementation under test.
The reference kernels below are the plain forms of the package's fast ones.
"""

import numpy as np


def central_fd(f, x, eps=1e-6):
    """Central-difference gradient of scalar f at array x (any shape)."""
    x = np.asarray(x, dtype=float)
    g = np.zeros(x.size)
    flat = x.ravel()
    for i in range(x.size):
        xp = flat.copy()
        xm = flat.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (f(xp.reshape(x.shape)) - f(xm.reshape(x.shape))) / (2.0 * eps)
    return g.reshape(x.shape)


def rel_l2(a, b, floor=1e-300):
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), floor)


# ---------------------------------------------------------------------------
# Reference kernels: the straightforward forms the package's fast kernels
# replace, kept to pin those kernels' results.
# ---------------------------------------------------------------------------


def sigmoid_two_branch(z):
    """Logistic function split by sign so that exp never overflows."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def conv_same_loop(x, K, b):
    """Correlate (n, ci) with kernel (k, ci, co), same zero padding, one
    matmul per kernel tap; returns (y, xpad)."""
    k, ci, co = K.shape
    n = x.shape[0]
    pl = (k - 1) // 2
    xpad = np.zeros((n + k - 1, ci))
    xpad[pl:pl + n] = x
    y = np.broadcast_to(b, (n, co)).copy()
    for d in range(k):
        y += xpad[d:d + n] @ K[d]
    return y, xpad


def conv_same_vjp_loop(xpad, K, w):
    """Reverse pass of conv_same_loop: (dx, dK, db)."""
    k, ci, co = K.shape
    n = w.shape[0]
    pl = (k - 1) // 2
    dxpad = np.zeros_like(xpad)
    dK = np.empty_like(K)
    for d in range(k):
        dK[d] = xpad[d:d + n].T @ w
        dxpad[d:d + n] += w @ K[d].T
    return dxpad[pl:pl + n], dK, w.sum(axis=0)


def rnn_cell_loop(cell, p, xs, w):
    """A recurrent cell's forward and reverse pass on one sequence, with the
    input kernel applied to one element at a time: (out, dxs, grads), grads
    in the cell's parameter order."""
    from neuralclosure import nn

    def conv_same(x, ker, b):
        win = nn._windows(x, cell.kernel, (cell.kernel - 1) // 2)
        return win @ ker[0] + b, win

    def act_deriv(z):
        # the package's activation takes a swish layer's halved z
        return nn._activate(cell.act, z * 0.5 if cell.act == "swish" else z, None, True)

    conv = isinstance(cell, nn.SimpleRnnConvCell)
    if conv:
        Kx, Kh, b, Ko, bo = p
        kx, kh, ko = nn._kernel(Kx), nn._kernel(Kh), nn._kernel(Ko)
        h = np.zeros((xs.shape[1], cell.units))
    else:
        Wx, Wh, b = p
        h = np.zeros(cell.units)
    ds, hs = [], [h]
    for x in xs:
        z = (conv_same(x, kx, 0.0)[0] + conv_same(h, kh, b)[0] if conv
             else Wx @ x + Wh @ h + b)
        h, d = act_deriv(z)
        ds.append(d)
        hs.append(h)
    if conv:
        zo, opad = conv_same(h, ko, bo)
        out, do = act_deriv(zo)
        dh, dKo, dbo = nn._conv_same_vjp(opad, ko[1], w * do)
    else:
        out, dh = h, w
    dxs = np.zeros_like(xs)
    grads = [np.zeros_like(v) for v in p]
    for i in range(len(xs) - 1, -1, -1):
        dz = dh * ds[i]
        if conv:
            dxs[i], dKx, _ = nn._conv_same_vjp(conv_same(xs[i], kx, 0.0)[1], kx[1], dz)
            dh, dKh, db = nn._conv_same_vjp(conv_same(hs[i], kh, b)[1], kh[1], dz)
            for g, d in zip(grads, (dKx, dKh, db)):
                g += d
        else:
            dxs[i] = Wx.T @ dz
            dh = Wh.T @ dz
            grads[0] += np.outer(dz, xs[i])
            grads[1] += np.outer(dz, hs[i])
            grads[2] += dz
    if conv:
        grads[3], grads[4] = dKo, dbo
    return out, dxs, grads


def burgers_rhs_two_ghosts(u, nu, dx):
    """Burgers' right-hand side with the ghosted field built twice: once for
    the upwind advection and again inside the second difference."""
    from neuralclosure.models import burgers

    g = np.concatenate([-u[..., :1], u, -u[..., -1:]], axis=-1)
    back = (g[..., 1:-1] - g[..., :-2]) / dx
    fwd = (g[..., 2:] - g[..., 1:-1]) / dx
    ux = np.where(u >= 0.0, back, fwd)
    return -u * ux + nu * burgers.d2_central(u, dx)


def npz_rhs_repeated(t, u, params, G):
    """npz_rhs with Xi * P and Gamma_z * Z written out at each use."""
    N, P, Z = u.T
    G = getattr(G, "T", G)
    uptake = G * P * N / (N + params.K_u)
    graze = params.R_m * Z * (1.0 - np.exp(-params.Lambda * P))
    dN = -uptake + params.Xi * P + params.Gamma_z * Z + params.gamma_egest * graze
    dP = uptake - params.Xi * P - graze
    dZ = (1.0 - params.gamma_egest) * graze - params.Gamma_z * Z
    return np.array([dN, dP, dZ]).T


def npz_rhs_vjp_repeated(t, u, w, params, G):
    """npz_rhs_vjp with exp(-Lambda * P) computed for each of its two uses."""
    N, P, Z = u.T
    wN, wP, wZ = w.T
    G = getattr(G, "T", G)
    Ku = params.K_u
    dup_dN = G * P * Ku / (N + Ku) ** 2
    dup_dP = G * N / (N + Ku)
    iv = 1.0 - np.exp(-params.Lambda * P)
    dgr_dP = params.R_m * Z * params.Lambda * np.exp(-params.Lambda * P)
    dgr_dZ = params.R_m * iv
    ge = params.gamma_egest
    vN = -dup_dN * wN + dup_dN * wP
    vP = ((-dup_dP + params.Xi + ge * dgr_dP) * wN
          + (dup_dP - params.Xi - dgr_dP) * wP + (1.0 - ge) * dgr_dP * wZ)
    vZ = ((params.Gamma_z + ge * dgr_dZ) * wN - dgr_dZ * wP
          + ((1.0 - ge) * dgr_dZ - params.Gamma_z) * wZ)
    return np.array([vN, vP, vZ]).T


def nnpzd_rhs_repeated(t, u, params, G):
    """nnpzd_rhs with G * P, Xi * P and Gamma_z * Z written out at each use."""
    NO3, NH4, P, Z, D = u.T
    G = getattr(G, "T", G)
    Ku = params.K_u
    up_no3 = G * P * (NO3 / (NO3 + Ku)) * np.exp(-params.Psi * NH4)
    up_nh4 = G * P * (NH4 / (NH4 + Ku))
    graze = params.R_m * Z * (1.0 - np.exp(-params.Lambda * P))
    ge = params.gamma_egest
    dNO3 = params.Omega * NH4 - up_no3
    dNH4 = -params.Omega * NH4 + params.Phi_d * D + params.Gamma_z * Z - up_nh4
    dP = up_no3 + up_nh4 - params.Xi * P - graze
    dZ = (1.0 - ge) * graze - params.Gamma_z * Z
    dD = ge * graze + params.Xi * P - params.Phi_d * D
    return np.array([dNO3, dNH4, dP, dZ, dD]).T


def npz_vjp_matrix(u, w, params, G):
    """w^T d(npz_rhs)/du of one cell through the assembled 3x3 Jacobian."""
    N, P, Z = u
    Ku = params.K_u
    dup_dN = G * P * Ku / (N + Ku) ** 2
    dup_dP = G * N / (N + Ku)
    iv = 1.0 - np.exp(-params.Lambda * P)
    dgr_dP = params.R_m * Z * params.Lambda * np.exp(-params.Lambda * P)
    dgr_dZ = params.R_m * iv
    ge = params.gamma_egest
    jac = np.array([
        [-dup_dN, -dup_dP + params.Xi + ge * dgr_dP, params.Gamma_z + ge * dgr_dZ],
        [dup_dN, dup_dP - params.Xi - dgr_dP, -dgr_dZ],
        [0.0, (1.0 - ge) * dgr_dP, (1.0 - ge) * dgr_dZ - params.Gamma_z],
    ])
    return jac.T @ np.asarray(w, dtype=float)


def column_rhs_per_depth(model, t, u):
    """ColumnModel.rhs with the reactions evaluated one depth at a time."""
    from neuralclosure.models import biology, column

    fields = np.asarray(u, dtype=float).reshape(model.cfg.n_z, model.n_species)
    k_faces = column.kz_profile(model.cfg, model.cfg.z_faces,
                                model.forcing.thermocline(t))
    out = column.diffusion_term(fields, k_faces, model.cfg.dz)
    if model.bio_on:
        G = model.growth_profile(t)
        react = biology.npz_rhs if model.kind == "npz" else biology.nnpzd_rhs
        for i in range(model.cfg.n_z):
            out[i] += react(t, fields[i], model.params, float(G[i]))
    return out.ravel()


def column_rhs_vjp_per_depth(model, t, u, w):
    """ColumnModel.rhs_vjp with one Jacobian-matrix product per depth."""
    from neuralclosure.models import column

    fields = np.asarray(u, dtype=float).reshape(model.cfg.n_z, model.n_species)
    wf = np.asarray(w, dtype=float).reshape(model.cfg.n_z, model.n_species)
    k_faces = column.kz_profile(model.cfg, model.cfg.z_faces,
                                model.forcing.thermocline(t))
    out = column.diffusion_term(wf, k_faces, model.cfg.dz)
    if model.bio_on:
        G = model.growth_profile(t)
        for i in range(model.cfg.n_z):
            out[i] += npz_vjp_matrix(fields[i], wf[i], model.params, float(G[i]))
    return out.ravel()


def history_term_per_node(sys, phi, history, t0, mu0):
    """y(t0) and d_phi(mu0 . y(t0)) of a windowed distributed closure, with
    one g-network tape and one reverse pass per trapezoid node."""
    from neuralclosure import nn
    from neuralclosure.closure import HISTORY_QUAD_PANELS
    from neuralclosure.integrate import quadrature_nodes

    def trapezoid(ts, vals):
        vals = np.asarray(vals, dtype=float)
        return np.add.reduce(np.diff(ts)[:, None] * (vals[1:] + vals[:-1]) / 2.0, axis=0)

    clo = sys.closure
    tau1, tau2 = clo.window
    ts = quadrature_nodes(t0 - tau2, t0 - tau1, HISTORY_QUAD_PANELS)
    tapes = [nn.tape(clo.g_net, nn.fields(clo.g_net, history(np.array([s]))[0]), phi, s)
             for s in ts]
    y0 = trapezoid(ts, [tp.y.ravel() for tp in tapes])
    dphi = trapezoid(ts, [nn.backward(tp, mu0.reshape(tp.y.shape))[1] for tp in tapes])
    return y0, dphi


def sweep_param_grad_per_knot(sys, params, run, nodes):
    """The parameter integral of an adjoint sweep as the trapezoid sum of
    fresh reverse passes: per step, 0.5 |h| times the sum of the integrand at
    its two ends (``nodes`` as the sweep returns them, two per step), each
    end's integrand one fresh tape and full reverse pass per network at its
    time. The integrand is -lambda . d_theta f(t), and for a windowed
    distributed closure also -mu . (d_phi g(t - tau_1) - d_phi g(t - tau_2))."""
    from neuralclosure import nn

    c, n = sys.closure, run.u_dim
    views = sys.decode(params)

    def state(t):
        return run.states_at([t])[0]

    def grad(net, x, p, t, w):
        tp = nn.tape(net, x, p, t + run.offsets)
        return nn.backward(tp, w.reshape(tp.y.shape))[1]

    def integrand(t, a):
        x = c.f_input(state(t), [state(t - tau)[..., :n] for tau in c.f_lags])
        parts = [grad(c.nets[0], x, views[0], t, a[..., :n])]
        if run.aux_dim:
            tau1, tau2 = c.window
            mu = a[..., n:]

            def g(s):
                return grad(c.g_net, nn.fields(c.g_net, state(s)[..., :n]), views[1], s, mu)
            parts.append(g(t - tau1) - g(t - tau2) if tau2 > tau1
                         else np.zeros(sys.n_params - sys.n_theta))
        return np.concatenate(parts)

    ts, ws, adjoints = nodes
    total = 0.0
    for i in range(0, len(ts), 2):
        total = total + ws[i] * (integrand(ts[i], adjoints[i])
                                 + integrand(ts[i + 1], adjoints[i + 1]))
    return -total


def rk4_dde_scalar(rhs, delays, history, t0, t1, dt):
    """Method-of-steps RK4 of u' = rhs(t, u, [u(t - tau) for tau in delays])
    with one scalar ``DenseTrajectory.eval`` per delayed lookup after t0 and
    a ``history`` call before it; steps of at most min(dt, delays[0]) on a
    uniform grid. Returns (knots, values, slopes), the slope at a knot being
    the right-hand side there."""
    from neuralclosure.integrate import DenseTrajectory

    n = max(int(np.ceil((t1 - t0) / min(dt, delays[0]) - 1e-12)), 1)
    ts = t0 + ((t1 - t0) / n) * np.arange(n + 1)
    ts[-1] = t1
    traj = DenseTrajectory()

    def f(t, u):
        lagged = [history(s) if s <= t0 else traj.eval(s) for s in (t - tau for tau in delays)]
        return np.asarray(rhs(t, u, lagged), dtype=float)

    us = [np.asarray(history(t0), dtype=float)]
    ks = [f(t0, us[0])]
    for t, t_next in zip(ts[:-1], ts[1:]):
        h, u, k1 = t_next - t, us[-1], ks[-1]
        k2 = f(t + 0.5 * h, u + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, u + 0.5 * h * k2)
        k4 = f(t + h, u + h * k3)
        us.append(u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        ks.append(f(t_next, us[-1]))
        traj.append(t, t_next, u, us[-1], k1, ks[-1])
    return ts, np.array(us), np.array(ks)


def augmented_solve_per_stage(sys, params, t_span, dt, history, u0=None):
    """``closure.forward_augmented``'s fixed-step RK4 solve with each delayed
    read a scalar ``DenseTrajectory.eval`` after t0 (a ``history`` call
    before it) and each right-hand side the whole of every network through a
    fresh tape, at every stage. ``t_span`` and ``u0`` are a single
    trajectory's or a batch's, as ``forward_augmented`` takes them. Returns
    (knots, values, slopes), the slope at a knot being the right-hand side
    there."""
    from neuralclosure import nn
    from neuralclosure.integrate import DenseTrajectory, rk4_grid, trapezoid_weights

    c, n, aux = sys.closure, sys.state_dim, sys.aux_dim
    views = sys.decode(params)
    starts = np.asarray(t_span[0], dtype=float)
    t0, t1 = float(starts.flat[0]), float(np.asarray(t_span[1]).flat[0])
    offsets = starts - t0 if starts.ndim else 0.0
    lead = np.shape(offsets)

    def hist(s):
        # the history's u at clock time s, for every member
        rows = np.asarray(history(np.atleast_1d(s + offsets)), dtype=float)
        return rows.reshape(lead + (n,))

    def net(i, x, t):
        return nn.tape(c.nets[i], x, views[i], t).y

    u0 = hist(t0) if u0 is None else np.asarray(u0, dtype=float)
    y0 = np.zeros(lead + (aux,))
    windowed = aux and c.window[1] > c.window[0]
    if windowed:
        ts = c.history_nodes(t0)
        h = np.stack([hist(s) for s in ts]).reshape(-1, n)
        g = net(1, nn.fields(c.g_net, h), np.add.outer(ts, offsets).ravel())
        y0 = (trapezoid_weights(ts) @ g.reshape(ts.size, -1)).reshape(lead + (-1,))
    U0 = np.concatenate([u0, y0], axis=-1)
    traj = DenseTrajectory()

    def read(s):
        # before the first step the solution ends at t0
        if s == t0 or s > t0 and not len(traj):
            return U0[..., :n]
        return hist(s) if s < t0 else traj.eval(s)[..., :n]

    def rhs(t, U):
        tm = t + offsets
        u = U[..., :n]
        if c.nets[0].recurrent:
            seq = np.stack([read(t - tau) for tau in c.delays[::-1]] + [U])
            term = net(0, nn.fields(c.net, seq), tm)
        else:
            term = net(0, c.f_input(U), tm)
        du = sys.base_rhs(tm, u) + term.reshape(u.shape)
        if not aux:
            return du
        rate = np.zeros(lead + (aux,))
        if windowed:
            tau1, tau2 = c.window

            def g(tau, v):
                return net(1, nn.fields(c.g_net, v), tm - tau).reshape(lead + (-1,))
            rate = g(tau1, u if tau1 == 0.0 else read(t - tau1)) - g(tau2, read(t - tau2))
        return np.concatenate([du, rate], axis=-1)

    ts, mids, ends = rk4_grid(t0, t1, min((dt, *c.lags)))
    U, f = U0, rhs(t0, U0)
    us, fs = [U], [f]
    for t, t_next, t_mid, t_end in zip(ts[:-1], ts[1:], mids, ends):
        h = t_next - t
        k2 = rhs(t_mid, U + 0.5 * h * f)
        k3 = rhs(t_mid, U + 0.5 * h * k2)
        k4 = rhs(t_end, U + h * k3)
        U_next = U + (h / 6.0) * (f + 2.0 * k2 + 2.0 * k3 + k4)
        f_next = rhs(t_next, U_next)
        traj.append(t, t_next, U, U_next, f, f_next)
        U, f = U_next, f_next
        us.append(U)
        fs.append(f)
    return ts, np.array(us), np.array(fs)
