"""Plankton ecosystem models: three- and five-component nutrient cycles.

Both models move mass between compartments without sources or sinks, so the
componentwise sum of every right-hand side is identically zero; tests lean
on that invariant. Rates follow Ivlev grazing and Michaelis-Menten style
uptake limited by light through a smooth saturating growth curve.

The right-hand sides and the NPZ VJP read the species along the last axis,
so they take one state (species,) or many cells and batch members
(..., species) at once, with a growth rate G that broadcasts against the
leading axes. They work on the transposes (species first), where one
unpacking and one array build are cheapest.

State conventions:

* NPZ: (nutrient N, phytoplankton P, zooplankton Z)
* NNPZD: (nitrate NO3, ammonium NH4, phytoplankton P, zooplankton Z,
  detritus D); aggregation onto NPZ space sums NO3 + NH4 + D into N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np



@dataclass(frozen=True)
class BioParams:
    """Rate constants (per day), light parameters, and the reference depth."""

    V_m: float = 1.5            # maximum phytoplankton growth rate
    K_u: float = 1.0            # uptake half-saturation
    Xi: float = 0.1             # phytoplankton mortality
    R_m: float = 1.52           # maximum grazing rate
    Lambda: float = 0.06        # Ivlev grazing constant
    gamma_egest: float = 0.3    # grazing fraction egested
    Gamma_z: float = 0.145      # zooplankton excretion
    Phi_d: float = 0.175        # detritus remineralization
    Omega: float = 0.041        # nitrification NH4 -> NO3
    Psi: float = 1.46           # ammonium inhibition of nitrate uptake
    alpha_PI: float = 0.025     # initial slope of the growth-light curve
    k_w: float = 0.067          # light attenuation with depth
    I0: float = 158.075         # surface light
    z: float = -25.0            # reference depth for the zero-dimensional runs
    T_bio: float = 30.0         # total biomass fixed by the initial condition


def light_at(params: BioParams, z: float, surface: float | None = None):
    """Exponentially attenuated light at depth z (z is negative downward)."""
    I0 = params.I0 if surface is None else surface
    return I0 * np.exp(params.k_w * z)


def growth_G(params: BioParams, z: float | None = None,
             surface_light: float | None = None):
    """Light-limited growth rate V_m a I / sqrt(V_m^2 + a^2 I^2)."""
    zz = params.z if z is None else z
    return light_growth(params, light_at(params, zz, surface_light))


def light_growth(params: BioParams, I):
    """The growth rate of :func:`growth_G` at light I."""
    aI = params.alpha_PI * I
    return params.V_m * aI / np.sqrt(params.V_m ** 2 + aI ** 2)


def _ivlev(params: BioParams, P):
    return 1.0 - np.exp(-params.Lambda * P)


def npz_rhs(t, u: np.ndarray, params: BioParams, G) -> np.ndarray:
    N, P, Z = u.T
    G = getattr(G, "T", G)
    uptake = G * P * N / (N + params.K_u)
    graze = params.R_m * Z * _ivlev(params, P)
    mort, excr = params.Xi * P, params.Gamma_z * Z
    dN = -uptake + mort + excr + params.gamma_egest * graze
    dP = uptake - mort - graze
    dZ = (1.0 - params.gamma_egest) * graze - excr
    return np.array([dN, dP, dZ]).T


def npz_rhs_vjp(t, u: np.ndarray, w: np.ndarray, params: BioParams, G) -> np.ndarray:
    """w^T d(npz_rhs)/du from the analytic 3x3 Jacobian J[i, j] = dF_i/du_j,
    written out term by term; like npz_rhs it takes (..., 3) arrays."""
    N, P, Z = u.T
    wN, wP, wZ = w.T
    G = getattr(G, "T", G)
    Ku = params.K_u
    dup_dN = G * P * Ku / (N + Ku) ** 2
    dup_dP = G * N / (N + Ku)
    decay = np.exp(-params.Lambda * P)
    dgr_dP = params.R_m * Z * params.Lambda * decay
    dgr_dZ = params.R_m * (1.0 - decay)
    ge = params.gamma_egest
    vN = -dup_dN * wN + dup_dN * wP
    vP = ((-dup_dP + params.Xi + ge * dgr_dP) * wN
          + (dup_dP - params.Xi - dgr_dP) * wP + (1.0 - ge) * dgr_dP * wZ)
    vZ = ((params.Gamma_z + ge * dgr_dZ) * wN - dgr_dZ * wP
          + ((1.0 - ge) * dgr_dZ - params.Gamma_z) * wZ)
    return np.array([vN, vP, vZ]).T


def nnpzd_rhs(t, u: np.ndarray, params: BioParams, G) -> np.ndarray:
    NO3, NH4, P, Z, D = u.T
    G = getattr(G, "T", G)
    Ku = params.K_u
    GP = G * P
    up_no3 = GP * (NO3 / (NO3 + Ku)) * np.exp(-params.Psi * NH4)
    up_nh4 = GP * (NH4 / (NH4 + Ku))
    graze = params.R_m * Z * _ivlev(params, P)
    ge = params.gamma_egest
    mort, excr = params.Xi * P, params.Gamma_z * Z
    dNO3 = params.Omega * NH4 - up_no3
    dNH4 = -params.Omega * NH4 + params.Phi_d * D + excr - up_nh4
    dP = up_no3 + up_nh4 - mort - graze
    dZ = (1.0 - ge) * graze - excr
    dD = ge * graze + mort - params.Phi_d * D
    return np.array([dNO3, dNH4, dP, dZ, dD]).T


def aggregate_nnpzd(u5) -> np.ndarray:
    """Sum the nitrogen pools: (NO3, NH4, P, Z, D) -> (NO3+NH4+D, P, Z)."""
    u5 = np.asarray(u5, dtype=float)
    if u5.shape[-1] != 5:
        raise ValueError("expected five components on the last axis")
    out = np.empty(u5.shape[:-1] + (3,))
    out[..., 0] = u5[..., 0] + u5[..., 1] + u5[..., 4]
    out[..., 1] = u5[..., 2]
    out[..., 2] = u5[..., 3]
    return out


def npz_initial(params: BioParams, total: float | None = None) -> np.ndarray:
    """Seeded equilibrium-free start: small P and Z, the rest as nutrient."""
    T = params.T_bio if total is None else total
    return np.array([T - 0.15, 0.1, 0.05])


def nnpzd_initial(params: BioParams, total: float | None = None) -> np.ndarray:
    """Matches npz_initial under aggregation: nutrient split evenly between
    nitrate and ammonium, no detritus."""
    T = params.T_bio if total is None else total
    half = (T - 0.15) / 2.0
    return np.array([half, half, 0.1, 0.05, 0.0])
