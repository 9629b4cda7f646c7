"""Viscous Burgers equation on [0, 1] with homogeneous Dirichlet walls.

The grid is cell-centered: n cells of width dx = 1/n with centers at
(i + 1/2) dx. Wall values are enforced through mirror-negative ghost cells
(u_ghost = -u_edge), which places a zero exactly on each wall. Advection is
first-order upwind on the local velocity sign; diffusion is the standard
three-point central stencil. Coarse fields are box averages of fine fields,
so a 100-cell reference run restricts exactly onto a 25-cell grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np



@dataclass(frozen=True)
class BurgersGrid:
    n_cells: int

    def __post_init__(self):
        if self.n_cells < 2:
            raise ValueError("need at least two cells")

    @property
    def dx(self) -> float:
        return 1.0 / self.n_cells

    @property
    def x(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.dx


def initial_condition(x, re: float) -> np.ndarray:
    """Sharpening-front initial profile u0(x) = x / (1 + exp(re x^2/4 - re/16)).

    The exponent is assembled in one piece so large Reynolds numbers do not
    overflow the intermediate factors.
    """
    x = np.asarray(x, dtype=float)
    expo = np.minimum(re * x * x / 4.0 - re / 16.0, 700.0)  # exp(700) ~ 1e304
    return x / (1.0 + np.exp(expo))


def _ghosted(u: np.ndarray) -> np.ndarray:
    """Pad the last axis with mirror-negative ghosts so the wall value is zero."""
    return np.concatenate([-u[..., :1], u, -u[..., -1:]], axis=-1)


def d1_central(u: np.ndarray, dx: float) -> np.ndarray:
    g = _ghosted(u)
    return (g[..., 2:] - g[..., :-2]) / (2.0 * dx)


def d2_central(u: np.ndarray, dx: float, g=None) -> np.ndarray:
    """The second difference of u; ``g`` is its ghosted field, when made."""
    g = _ghosted(u) if g is None else g
    return (g[..., 2:] - 2.0 * g[..., 1:-1] + g[..., :-2]) / (dx * dx)


def rhs(t, u: np.ndarray, nu: float, dx: float) -> np.ndarray:
    """du/dt = -u u_x (upwind) + nu u_xx (central), on the last axis of u;
    leading axes are a batch of fields."""
    g = _ghosted(u)
    back = (g[..., 1:-1] - g[..., :-2]) / dx
    fwd = (g[..., 2:] - g[..., 1:-1]) / dx
    ux = np.where(u >= 0.0, back, fwd)
    return -u * ux + nu * d2_central(u, dx, g)


def rhs_vjp(t, u: np.ndarray, w: np.ndarray, nu: float, dx: float) -> np.ndarray:
    """w^T d(rhs)/du, using the almost-everywhere derivative of the upwind
    switch (the u_i = 0 tie takes the backward branch, matching rhs)."""
    g = _ghosted(u)
    back = (g[..., 1:-1] - g[..., :-2]) / dx
    fwd = (g[..., 2:] - g[..., 1:-1]) / dx
    pos = u >= 0.0
    out = np.zeros(np.shape(u))

    # advection: row i couples to u_i and one neighbor
    diag = np.where(pos, -(back + u / dx), -(fwd - u / dx))
    out += w * diag
    # left neighbor from backward branch: d/d u_(i-1) = u_i / dx
    left = np.where(pos, u / dx, 0.0)
    out[..., :-1] += w[..., 1:] * left[..., 1:]
    # right neighbor from forward branch: d/d u_(i+1) = -u_i / dx
    right = np.where(pos, 0.0, -u / dx)
    out[..., 1:] += w[..., :-1] * right[..., :-1]
    # ghost mirror: the edge rows see their own value through the ghost cell
    out[..., 0] += np.where(pos[..., 0], w[..., 0] * (u[..., 0] / dx) * (-1.0), 0.0)
    out[..., -1] += np.where(pos[..., -1], 0.0, w[..., -1] * (-u[..., -1] / dx) * (-1.0))

    # diffusion: symmetric tridiagonal with mirror-negative edges
    c = nu / (dx * dx)
    out += c * (-2.0 * w)
    out[..., :-1] += c * w[..., 1:]
    out[..., 1:] += c * w[..., :-1]
    out[..., 0] -= c * w[..., 0]
    out[..., -1] -= c * w[..., -1]
    return out


def smagorinsky_term(u: np.ndarray, dx: float, cs: float = 1.0) -> np.ndarray:
    """Eddy-viscosity closure d/dx(nu_e u_x) with nu_e = (cs dx)^2 |u_x|.

    nu_e lives on cells; face values are neighbor averages and the flux
    divergence telescopes, so the term is conservative in the interior.
    """
    nu_e = (cs * dx) ** 2 * np.abs(d1_central(u, dx))
    g = _ghosted(u)
    nu_g = np.concatenate([[nu_e[0]], nu_e, [nu_e[-1]]])
    face_nu = 0.5 * (nu_g[1:] + nu_g[:-1])
    face_grad = (g[1:] - g[:-1]) / dx
    flux = face_nu * face_grad
    return (flux[1:] - flux[:-1]) / dx


def coarsen(u_fine: np.ndarray, factor: int) -> np.ndarray:
    """Box-average a fine cell field onto a coarser grid (factor cells -> 1)."""
    u_fine = np.asarray(u_fine, dtype=float)
    if u_fine.size % factor != 0:
        raise ValueError("fine grid size must be a multiple of the factor")
    return u_fine.reshape(-1, factor).mean(axis=1)
