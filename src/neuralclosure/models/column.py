"""One-dimensional water-column models: depth-resolved biology plus mixing.

The column spans z in [depth_total, 0] (z negative downward) on a
cell-centered grid of n_z cells. Each cell runs the zero-dimensional
ecosystem at its own light level; vertical turbulent diffusion couples the
cells with zero-flux boundaries, so with biology switched off every species
total is conserved exactly.

The mixing profile follows the thermocline: high in the mixed layer, a small
background below, blended by an arctan ramp whose center M(t) moves
seasonally. Surface light also follows a seasonal cycle.

Flat state layout is depth-major: (n_z, n_species) raveled C-order, matching
both the (points, channels) convention of the convolutional closures and the
CSV column order used by the command line tools.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..linalg import Vec
from .biology import (
    BioParams,
    aggregate_nnpzd,
    growth_G,
    nnpzd_initial,
    nnpzd_rhs,
    npz_initial,
    npz_rhs,
    npz_rhs_vjp,
)


@dataclass(frozen=True)
class SeasonalForcing:
    """Thermocline depth and surface light as cosines over one year."""

    m_mean: float = -30.0
    m_amp: float = 20.0
    i0_mean: float = 158.075
    i0_amp_frac: float = 0.5
    period: float = 364.0

    def thermocline(self, t: float) -> float:
        return self.m_mean + self.m_amp * np.cos(2.0 * np.pi * t / self.period)

    def surface_light(self, t: float) -> float:
        return self.i0_mean * (1.0 + self.i0_amp_frac
                               * np.cos(2.0 * np.pi * t / self.period))


@dataclass(frozen=True)
class ColumnConfig:
    n_z: int = 20
    depth_total: float = -100.0
    K_zb: float = 0.0864        # background diffusivity below the thermocline
    K_z0: float = 8.64          # mixed-layer diffusivity
    gamma_thermo: float = 0.1   # arctan ramp steepness
    t_bio_surface: float = 10.0
    t_bio_bottom: float = 30.0

    def __post_init__(self):
        if self.n_z < 2 or self.depth_total >= 0.0:
            raise ValueError("need n_z >= 2 cells over a negative total depth")

    @property
    def dz(self) -> float:
        return abs(self.depth_total) / self.n_z

    @property
    def z_centers(self) -> np.ndarray:
        return self.depth_total * (np.arange(self.n_z) + 0.5) / self.n_z

    @property
    def z_faces(self) -> np.ndarray:
        """Interior faces only (the boundary fluxes vanish)."""
        return self.depth_total * np.arange(1, self.n_z) / self.n_z

    def total_biomass(self) -> np.ndarray:
        """Linear profile from the surface value down to the bottom value."""
        frac = self.z_centers / self.depth_total
        return self.t_bio_surface + (self.t_bio_bottom - self.t_bio_surface) * frac


def kz_profile(cfg: ColumnConfig, z, M: float) -> np.ndarray:
    """Arctan blend from K_z0 above the thermocline M to K_zb at depth."""
    g = cfg.gamma_thermo
    D = cfg.depth_total
    lo = np.arctan(-g * (M - D))
    hi = np.arctan(-g * M)
    num = np.arctan(-g * (M - np.asarray(z, dtype=float))) - lo
    return cfg.K_zb + (cfg.K_z0 - cfg.K_zb) * num / (hi - lo)


def diffusion_term(fields: np.ndarray, k_faces: np.ndarray, dz: float) -> np.ndarray:
    """Conservative zero-flux diffusion of (n_z, n_species) cell fields."""
    flux = k_faces[:, None] * (fields[1:] - fields[:-1]) / dz
    out = np.zeros_like(fields)
    out[:-1] += flux / dz
    out[1:] -= flux / dz
    return out


@dataclass(frozen=True)
class ColumnModel:
    """Depth-resolved ecosystem: kind selects the embedded reactions."""

    cfg: ColumnConfig
    params: BioParams
    forcing: SeasonalForcing
    kind: str = "npz"           # "npz" or "nnpzd"
    bio_on: bool = True

    def __post_init__(self):
        if self.kind not in ("npz", "nnpzd"):
            raise ValueError("kind must be 'npz' or 'nnpzd'")

    @property
    def n_species(self) -> int:
        return 3 if self.kind == "npz" else 5

    @property
    def state_dim(self) -> int:
        return self.cfg.n_z * self.n_species

    def _shape(self, u: Vec) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return u.reshape(self.cfg.n_z, self.n_species)

    def growth_profile(self, t: float) -> np.ndarray:
        I0 = self.forcing.surface_light(t)
        return growth_G(self.params, self.cfg.z_centers, surface_light=I0)

    def rhs(self, t: float, u: Vec) -> np.ndarray:
        fields = self._shape(u)
        M = self.forcing.thermocline(t)
        k_faces = kz_profile(self.cfg, self.cfg.z_faces, M)
        out = diffusion_term(fields, k_faces, self.cfg.dz)
        if self.bio_on:
            react = npz_rhs if self.kind == "npz" else nnpzd_rhs
            out += react(t, fields.T, self.params, self.growth_profile(t)).T
        return out.ravel()

    def rhs_vjp(self, t: float, u: Vec, w: Vec) -> np.ndarray:
        """Diffusion is symmetric, so its transpose is itself; the reaction
        part transposes cell by cell, all depths in one call."""
        if self.kind != "npz":
            raise NotImplementedError("analytic VJP only for the npz column")
        fields = self._shape(u)
        wf = self._shape(w)
        M = self.forcing.thermocline(t)
        k_faces = kz_profile(self.cfg, self.cfg.z_faces, M)
        out = diffusion_term(wf, k_faces, self.cfg.dz)
        if self.bio_on:
            out += npz_rhs_vjp(t, fields.T, wf.T, self.params,
                               self.growth_profile(t)).T
        return out.ravel()

    def initial_state(self) -> np.ndarray:
        totals = self.cfg.total_biomass()
        seed = npz_initial if self.kind == "npz" else nnpzd_initial
        return np.stack([seed(self.params, total=float(T)) for T in totals]).ravel()

    def species_totals(self, u: Vec) -> np.ndarray:
        """Depth-integrated amount of each species (cell sums times dz)."""
        return self._shape(u).sum(axis=0) * self.cfg.dz


def aggregate_column_state(u5_flat: Vec, n_z: int) -> np.ndarray:
    """Aggregate a flat NNPZD column state onto the flat NPZ layout."""
    u5 = np.asarray(u5_flat, dtype=float).reshape(n_z, 5)
    return aggregate_nnpzd(u5).ravel()
