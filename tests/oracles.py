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
    from neuralclosure.integrate import quadrature_nodes, trapezoid

    clo = sys.closure
    tau1, tau2 = clo.window
    ts = quadrature_nodes(t0 - tau2, t0 - tau1, clo.history_quad_panels)
    tapes = [nn.tape(clo.g_net, np.asarray(history(s), dtype=float), phi, s)
             for s in ts]
    y0 = trapezoid(ts, [tp.y for tp in tapes])
    dphi = trapezoid(ts, [nn.backward(tp, mu0)[1] for tp in tapes])
    return y0, dphi
