"""POD basis extraction and the Galerkin reduced model of viscous Burgers.

Snapshots are mean-centered before the SVD, so the basis captures
fluctuations about the mean field and the reduced state starts at
a = V^T (u - u_mean). Projections use plain Euclidean inner products on the
cell values; spatial derivatives reuse the mirror-negative ghost convention
of the full model so both discretizations see the same walls.

The reduced dynamics are polynomial in the modal coefficients:

    da_k/dt = b_k + sum_i A_ki a_i + sum_ij N_kij a_i a_j
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..linalg import Vec
from .burgers import d1_central, d2_central


@dataclass(frozen=True)
class PodBasis:
    """Mean field (n_x,), modes (n_x, r) column-orthonormal, singular values."""

    mean: np.ndarray
    modes: np.ndarray
    singular_values: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.modes.shape[1]

    def energy_fraction(self) -> float:
        """Fraction of snapshot variance captured by the retained modes."""
        s2 = self.singular_values ** 2
        kept = float(np.sum(s2[:self.n_modes]))
        return kept / float(np.sum(s2))

    def singular_value_fraction(self) -> float:
        """Retained share of the plain singular-value sum (not squared).

        Slower-decaying than the variance fraction; advection-dominated
        snapshot sets are usually reported this way.
        """
        s = self.singular_values
        return float(np.sum(s[:self.n_modes])) / float(np.sum(s))

    def project(self, u: Vec) -> np.ndarray:
        return self.modes.T @ (np.asarray(u, dtype=float) - self.mean)

    def reconstruct(self, a: Vec) -> np.ndarray:
        return self.mean + self.modes @ np.asarray(a, dtype=float)


def pod(snapshots, n_modes: int) -> PodBasis:
    """Leading POD modes of snapshot rows (n_t, n_x), mean removed.

    All singular values of the centered snapshot matrix are kept in the
    result so energy fractions refer to the full spectrum.
    """
    snaps = np.asarray(snapshots, dtype=float)
    if snaps.ndim != 2 or snaps.shape[0] < 2:
        raise ValueError("snapshots must be (n_t, n_x) with n_t >= 2")
    if not 1 <= n_modes <= min(snaps.shape):
        raise ValueError(f"cannot keep {n_modes} modes of {snaps.shape} snapshots")
    mean = snaps.mean(axis=0)
    centered = (snaps - mean).T  # columns are snapshots
    if not np.all(np.isfinite(centered)):
        raise ValueError("snapshots contain non-finite entries")
    U, sigma, _ = np.linalg.svd(centered, full_matrices=False)
    return PodBasis(mean=mean, modes=U[:, :n_modes], singular_values=sigma)


@dataclass(frozen=True)
class GalerkinRom:
    """Precomputed Galerkin tensors; state is the modal coefficient vector."""

    basis: PodBasis
    b: np.ndarray  # (r,)
    A: np.ndarray  # (r, r)
    N: np.ndarray  # (r, r, r), quadratic term N[k, i, j] a_i a_j

    @property
    def n_modes(self) -> int:
        return self.b.size

    def rhs(self, t, a: Vec) -> np.ndarray:
        """da/dt; leading axes of ``a`` are a batch of coefficient vectors."""
        a = np.asarray(a, dtype=float)
        return self.b + a @ self.A.T + np.einsum("kij,...i,...j->...k", self.N, a, a)

    def rhs_vjp(self, t, a: Vec, w: Vec) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        jac = self.A + np.einsum("kij,...i->...kj", self.N, a) \
                     + np.einsum("kij,...j->...ki", self.N, a)
        return (np.asarray(w, dtype=float)[..., None, :] @ jac)[..., 0, :]


def galerkin_rom(basis: PodBasis, nu: float, dx: float) -> GalerkinRom:
    """Project -u u_x + nu u_xx onto the basis (central differences)."""
    ub = basis.mean
    V = basis.modes
    r = basis.n_modes
    ub_x = d1_central(ub, dx)
    ub_xx = d2_central(ub, dx)
    Vx = np.stack([d1_central(V[:, i], dx) for i in range(r)], axis=1)
    Vxx = np.stack([d2_central(V[:, i], dx) for i in range(r)], axis=1)

    b = np.array([-(ub * ub_x) @ V[:, k] + nu * ub_xx @ V[:, k] for k in range(r)])
    A = np.empty((r, r))
    for k in range(r):
        for i in range(r):
            A[k, i] = -(V[:, i] * ub_x + ub * Vx[:, i]) @ V[:, k] \
                      + nu * Vxx[:, i] @ V[:, k]
    N = np.empty((r, r, r))
    for k in range(r):
        for i in range(r):
            for j in range(r):
                N[k, i, j] = -(V[:, i] * Vx[:, j]) @ V[:, k]
    return GalerkinRom(basis=basis, b=b, A=A, N=N)
