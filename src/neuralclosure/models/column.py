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
CSV column order used by the command line tools. The right-hand side and its
VJP also take a batch of columns (B, n_z * n_species) with one time per
member, (B,).

The depth grids are computed once per config, as read-only arrays, and the
light attenuation once per model. The time forcing (face diffusivities,
growth rates) is a :class:`ForcingTable`: a fixed-step solve or sweep fills
it once over all its planned times, and each right-hand side reads its row
by exact time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..linalg import Vec
from .biology import (
    BioParams,
    aggregate_nnpzd,
    light_growth,
    nnpzd_initial,
    nnpzd_rhs,
    npz_initial,
    npz_rhs,
    npz_rhs_vjp,
)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _time_key(t):
    """A time's table key: the float for one time, the shape and bytes of
    the array for member times (so 0.0 and [0.0] are different keys)."""
    if isinstance(t, float):
        return t
    a = np.asarray(t, dtype=float)
    return float(a) if a.ndim == 0 else (a.shape, a.tobytes())


class ForcingTable:
    """A time-forcing function ``fn`` read from one table of its values.

    ``fn`` takes one time (a float, or member times (B,)), or many stacked
    on a leading axis. :meth:`fill` runs it once on many and makes their
    rows the table: read-only views of one array, keyed by exact time
    (:func:`_time_key`). A time not in the table is evaluated alone and
    becomes a one-row table.
    """

    def __init__(self, fn):
        self.fn = fn
        self.rows = {}

    def fill(self, times) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        values = _read_only(self.fn(times))
        self.rows = {_time_key(t): v for t, v in zip(times, values)}
        return values

    def __call__(self, t) -> np.ndarray:
        key = _time_key(t)
        if key not in self.rows:
            self.rows = {key: _read_only(self.fn(t))}
        return self.rows[key]


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

    @cached_property
    def z_centers(self) -> np.ndarray:
        return _read_only(self.depth_total * (np.arange(self.n_z) + 0.5) / self.n_z)

    @cached_property
    def z_faces(self) -> np.ndarray:
        """Interior faces only (the boundary fluxes vanish)."""
        return _read_only(self.depth_total * np.arange(1, self.n_z) / self.n_z)

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
    """Conservative zero-flux diffusion of (..., n_z, n_species) cell fields
    with face diffusivities (..., n_z - 1)."""
    flux = k_faces[..., None] * (fields[..., 1:, :] - fields[..., :-1, :])
    flux /= dz
    flux /= dz
    out = np.zeros_like(fields)
    out[..., :-1, :] += flux
    out[..., 1:, :] -= flux
    return out


def _per_member(x):
    """A forcing value: as it is at one time, else with a trailing depth axis."""
    return x[..., None] if np.ndim(x) else x


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
        return u.reshape(u.shape[:-1] + (self.cfg.n_z, self.n_species))

    @cached_property
    def growth_profile(self) -> ForcingTable:
        """t -> growth rate per depth cell, (n_z,), or (B, n_z) for B times."""
        attenuation = np.exp(self.params.k_w * self.cfg.z_centers)

        def growth(t):
            I0 = _per_member(self.forcing.surface_light(t))
            return light_growth(self.params, I0 * attenuation)
        return ForcingTable(growth)

    @cached_property
    def k_faces(self) -> ForcingTable:
        """t -> diffusivity at the interior faces, (n_z - 1,) or (B, n_z - 1)."""
        def k_faces(t):
            M = _per_member(self.forcing.thermocline(t))
            return kz_profile(self.cfg, self.cfg.z_faces, M)
        return ForcingTable(k_faces)

    def rhs(self, t, u: Vec) -> np.ndarray:
        fields = self._shape(u)
        out = diffusion_term(fields, self.k_faces(t), self.cfg.dz)
        if self.bio_on:
            react = npz_rhs if self.kind == "npz" else nnpzd_rhs
            out += react(t, fields, self.params, self.growth_profile(t))
        return out.reshape(np.shape(u))

    def rhs_vjp(self, t, u: Vec, w: Vec) -> np.ndarray:
        """Diffusion is symmetric, so its transpose is itself; the reaction
        part transposes cell by cell, all depths in one call."""
        if self.kind != "npz":
            raise NotImplementedError("analytic VJP only for the npz column")
        fields = self._shape(u)
        wf = self._shape(w)
        out = diffusion_term(wf, self.k_faces(t), self.cfg.dz)
        if self.bio_on:
            out += npz_rhs_vjp(t, fields, wf, self.params, self.growth_profile(t))
        return out.reshape(np.shape(u))

    def initial_state(self) -> np.ndarray:
        totals = self.cfg.total_biomass()
        seed = npz_initial if self.kind == "npz" else nnpzd_initial
        return np.stack([seed(self.params, total=float(T)) for T in totals]).ravel()

    def species_totals(self, u: Vec) -> np.ndarray:
        """Depth-integrated amount of each species (cell sums times dz)."""
        return self._shape(u).sum(axis=-2) * self.cfg.dz


def aggregate_column_state(u5_flat: Vec, n_z: int) -> np.ndarray:
    """Aggregate a flat NNPZD column state onto the flat NPZ layout."""
    u5 = np.asarray(u5_flat, dtype=float).reshape(n_z, 5)
    return aggregate_nnpzd(u5).ravel()
