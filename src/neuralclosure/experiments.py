"""Study definitions: reference-data pipelines, closure architectures, and
training recipes.

Each study pairs an expensive reference model with a cheap low-fidelity model
and trains a neural closure on the mismatch:

* ``exp1_rom``      three-mode Galerkin dynamics of an advecting front learn
  the effect of the truncated modes of a 100-cell reference run,
* ``exp2_subgrid``  a 25-cell front model learns the subgrid stresses of the
  100-cell run restricted onto its grid,
* ``exp3a_bio0d``   a 3-species plankton box model learns the memory of the
  5-species system whose nitrogen pools it aggregates,
* ``exp3b_bio1d``   the same aggregation inside a seasonally forced,
  diffusively mixed water column,
* ``toy``           a 2-state linear problem small enough for exhaustive
  finite-difference gradient checks.

Every study is trained the same way, so what they share lives on
:class:`Study`. A study class holds only its own facts: its fields (which
the config may override), its networks, its reference run (``setup``), its
base right-hand side and the names of its state columns. Architectures and
hyperparameters are frozen per study; the trainable parameter counts they
must reproduce are in :data:`PARAMETER_COUNTS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import nn
from .closure import ClosureModel, Discrete, Distributed, Markovian
from .closure import AugmentedSystem
from .integrate import TIME_RTOL, DormandPrince54, RK4Fixed, StepperSpec
from .integrate import integrate_ode
from .models import biology, burgers, column, rom
from .train import LossSpec, TrainSettings

CLOSURE_KINDS = ("markovian", "discrete", "distributed")

PARAMETER_COUNTS = {
    ("exp1_rom", "markovian"): 158,
    ("exp1_rom", "discrete"): 63,
    ("exp1_rom", "distributed"): 110,
    ("exp2_subgrid", "markovian"): 424,
    ("exp2_subgrid", "discrete"): 110,
    ("exp2_subgrid", "distributed"): 361,
    ("exp3a_bio0d", "markovian"): 317,
    ("exp3a_bio0d", "discrete"): 142,
    ("exp3a_bio0d", "distributed"): 195,
    ("exp3b_bio1d", "markovian"): 987,
    ("exp3b_bio1d", "discrete"): 426,
    ("exp3b_bio1d", "distributed"): 477,
}


def closure_parameter_count(closure: ClosureModel) -> int:
    return sum(net.n_params for net in closure.nets)


def initial_params(closure: ClosureModel, seed: int) -> np.ndarray:
    """Flat initial parameter vector, one block per network from seeds
    seed, seed + 1, ...: the f-network's final layer is zeroed so the
    closure is exactly neutral at epoch 0; the memory network g keeps live
    weights."""
    return np.concatenate([nn.init_params(net, seed + i, zero_final=i == 0)
                           for i, net in enumerate(closure.nets)])


def uniform_times(t_end: float, dt: float, t_start: float = 0.0) -> np.ndarray:
    """The data times t_start, t_start + dt, ..., t_end."""
    if not dt > 0.0:
        raise ValueError(f"the data step dt_data must be positive, got {dt}")
    n = round((t_end - t_start) / dt)
    if abs(t_start + n * dt - t_end) > TIME_RTOL * max(1.0, abs(t_end)):
        raise ValueError(f"span ({t_start}, {t_end}) is not a multiple of dt={dt}")
    return np.linspace(t_start, t_end, n + 1)


def _dense_chain(sizes, hidden_act: str = "tanh") -> list:
    layers = []
    for i in range(len(sizes) - 1):
        act = hidden_act if i < len(sizes) - 2 else "linear"
        layers.append(nn.Dense(sizes[i], sizes[i + 1], act))
    return layers


def _numbered(prefix: str, n: int) -> list[str]:
    """prefix1..prefixN, zero-padded to the width of N."""
    return [f"{prefix}{i:0{len(str(n))}d}" for i in range(1, n + 1)]


class Study:
    """What every study shares: steppers, loss, training recipe, closure
    assembly, augmented system and baselines.

    A subclass is a frozen dataclass whose fields are its overridable
    settings; it defines ``state_dim``, ``aux_dim``, :meth:`networks`,
    :meth:`setup`, :meth:`base` and :meth:`state_columns`. The class
    attributes below are per-study constants, not settings.
    """

    truth_tol = 1e-8       # rtol = atol of the reference run's DP5(4)
    batch = 2              # training windows per batch
    target = "states"      # the setup() field holding the training target
    reference = None       # (file, setup() field) of the reference-resolution table
    uses_basis = False     # base() and system() need the modal basis

    def default_truth_stepper(self) -> StepperSpec:
        return DormandPrince54(rtol=self.truth_tol, atol=self.truth_tol)

    def forward_stepper(self) -> StepperSpec:
        return RK4Fixed(self.forward_dt)

    def loss_spec(self) -> LossSpec:
        return LossSpec(positivity_weight=self.positivity_weight)

    def batch_size(self, kind: str) -> int:
        return self.batch

    def settings(self, kind: str, seed: int = 0, epochs: int | None = None) -> TrainSettings:
        return TrainSettings(epochs=self.epochs if epochs is None else epochs,
                             batch_size=self.batch_size(kind), lr0=self.lr0, seed=seed)

    def closure(self, kind: str, delays=None, window=None) -> ClosureModel:
        """The study's closure of ``kind``; delays and window default to the
        study's."""
        if kind not in CLOSURE_KINDS:
            raise ValueError(f"unknown closure kind {kind!r}")
        nets = self.networks(kind)
        if kind == "markovian":
            return Markovian(nets)
        if kind == "discrete":
            return Discrete(nets, self.delays if delays is None else tuple(delays))
        win = self.window if window is None else tuple(window)
        return Distributed(*nets, win, self.aux_dim)

    def _reference_run(self, rhs, u0, stepper: StepperSpec | None):
        """(times, states) of the run from u0 on the data grid to predict_end."""
        traj = integrate_ode(rhs, u0, (0.0, self.predict_end),
                             stepper or self.default_truth_stepper())
        times = uniform_times(self.predict_end, self.dt_data)
        return times, traj.eval_many(times)

    def base_rhs(self, basis=None):
        return self.base(basis)[0]

    def system(self, closure: ClosureModel, basis=None) -> AugmentedSystem:
        rhs, vjp = self.base(basis)
        return AugmentedSystem(rhs, closure, self.state_dim, base_vjp=vjp)

    def baselines(self, basis=None) -> dict:
        return {"baseline": self.base_rhs(basis)}


# ---------------------------------------------------------------------------
# Study 1: modal dynamics of the advecting front
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RomData:
    times: np.ndarray      # data grid over the full span
    coeffs: np.ndarray     # reference modal coefficients (n_t, n_modes)
    basis: rom.PodBasis


@dataclass(frozen=True)
class RomStudy(Study):
    """Three-mode reduced dynamics closed against the full 100-cell run."""

    name: str = "exp1_rom"
    re: float = 1000.0
    n_fine: int = 100
    n_modes: int = 3
    dt_data: float = 0.01
    basis_t: float = 4.0        # snapshot span feeding the modal basis
    train_end: float = 2.0
    val_end: float = 4.0
    predict_end: float = 6.0
    delays: tuple[float, ...] = (0.025, 0.05, 0.075, 0.1, 0.125, 0.15)
    window: tuple[float, float] = (0.0, 0.075)
    aux_dim: int = 2
    epochs: int = 200
    lr0: float = 0.075
    forward_dt: float = 0.005
    positivity_weight: float = 0.0

    target = "coeffs"
    uses_basis = True

    @property
    def state_dim(self) -> int:
        return self.n_modes

    def state_columns(self, which: str = "target") -> list[str]:
        """Column names of a state table; ``which`` is 'target' or 'full'."""
        return _numbered("a" if which == "target" else "u",
                         self.n_modes if which == "target" else self.n_fine)

    def networks(self, kind: str):
        m = self.n_modes
        if kind == "markovian":
            return nn.Network(_dense_chain([m, 5, 5, 5, 5, 5, m]))
        if kind == "discrete":
            return nn.Network([nn.SimpleRnnCell(m, 5, "tanh"), nn.Dense(5, m)])
        return (nn.Network(_dense_chain([m + self.aux_dim, 5, 5, m])),
                nn.Network(_dense_chain([m, 3, 3, self.aux_dim])))

    def setup(self, stepper: StepperSpec | None = None) -> RomData:
        """Reference run -> modal basis -> re-run from the basis-filtered
        initial state -> coefficient trajectories on the data grid."""
        stepper = stepper or self.default_truth_stepper()
        grid = burgers.BurgersGrid(self.n_fine)
        nu = 1.0 / self.re

        def fom(t, u):
            return burgers.rhs(t, u, nu, grid.dx)
        u0 = burgers.initial_condition(grid.x, self.re)
        snaps_traj = integrate_ode(fom, u0, (0.0, self.basis_t), stepper)
        snaps = snaps_traj.eval_many(uniform_times(self.basis_t, self.dt_data))
        basis = rom.pod(snaps, self.n_modes)

        u0_filtered = basis.reconstruct(basis.project(u0))
        times, states = self._reference_run(fom, u0_filtered, stepper)
        coeffs = np.stack([basis.project(u) for u in states])
        return RomData(times=times, coeffs=coeffs, basis=basis)

    def galerkin(self, basis: rom.PodBasis) -> rom.GalerkinRom:
        grid = burgers.BurgersGrid(self.n_fine)
        return rom.galerkin_rom(basis, 1.0 / self.re, grid.dx)

    def base(self, basis: rom.PodBasis):
        gal = self.galerkin(basis)
        return gal.rhs, gal.rhs_vjp


# ---------------------------------------------------------------------------
# Study 2: coarse-grid front with subgrid closure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubgridData:
    times: np.ndarray
    fine_states: np.ndarray     # (n_t, n_fine)
    coarse_states: np.ndarray   # (n_t, n_coarse) box-averaged reference


@dataclass(frozen=True)
class SubgridStudy(Study):
    """25-cell front model closed against the box-averaged 100-cell run."""

    name: str = "exp2_subgrid"
    re: float = 1000.0
    n_fine: int = 100
    n_coarse: int = 25
    dt_data: float = 0.0125
    train_end: float = 1.25
    val_end: float = 2.5
    predict_end: float = 5.0
    delays: tuple[float, ...] = (0.025, 0.05, 0.075, 0.1, 0.125, 0.15)
    window: tuple[float, float] = (0.0, 0.075)
    aux_channels: int = 3
    epochs: int = 250
    lr0: float = 0.075
    forward_dt: float = 0.00625
    cs: float = 1.0             # eddy-viscosity constant for the reference closure
    positivity_weight: float = 0.0

    batch = 8
    target = "coarse_states"
    reference = ("truth_fine.csv", "fine_states")

    def __post_init__(self):
        if self.n_fine % self.n_coarse:
            raise ValueError(f"n_fine = {self.n_fine} is not a multiple of "
                             f"n_coarse = {self.n_coarse}")

    @property
    def state_dim(self) -> int:
        return self.n_coarse

    @property
    def aux_dim(self) -> int:
        return self.n_coarse * self.aux_channels

    def state_columns(self, which: str = "target") -> list[str]:
        return _numbered("u", self.n_coarse if which == "target" else self.n_fine)

    def networks(self, kind: str):
        if kind == "markovian":
            return nn.Network([
                nn.Conv1d(1, 4, 3, "swish"),
                nn.Conv1d(4, 5, 3, "swish"),
                nn.Conv1d(5, 5, 3, "swish"),
                nn.Conv1d(5, 5, 3, "swish"),
                nn.Conv1d(5, 5, 3, "swish"),
                nn.Conv1dTranspose(5, 3, 3, "swish"),
                nn.Conv1dTranspose(3, 2, 3, "swish"),
                nn.Conv1dTranspose(2, 2, 3, "swish"),
                nn.Conv1dTranspose(2, 2, 3, "swish"),
                nn.Conv1dTranspose(2, 1, 3, "linear"),
            ])
        if kind == "discrete":
            return nn.Network([
                nn.SimpleRnnConvCell(1, 3, 3, "swish"),
                nn.Conv1d(3, 2, 3, "swish"),
                nn.Conv1dTranspose(2, 2, 3, "swish"),
                nn.Conv1dTranspose(2, 1, 3, "linear"),
            ])
        c = self.aux_channels
        f = nn.Network([
            nn.Conv1d(1 + c, 4, 3, "swish"),
            nn.Conv1d(4, 5, 3, "swish"),
            nn.Conv1d(5, 5, 3, "swish"),
            nn.Conv1dTranspose(5, 3, 3, "swish"),
            nn.Conv1dTranspose(3, 2, 3, "swish"),
            nn.Conv1dTranspose(2, 1, 3, "linear"),
        ])
        g = nn.Network([
            nn.Conv1d(1, 2, 3, "swish"),
            nn.Conv1d(2, 3, 3, "swish"),
            nn.Conv1dTranspose(3, 3, 3, "swish"),
            nn.Conv1dTranspose(3, c, 3, "linear"),
        ])
        return f, g

    def setup(self, stepper: StepperSpec | None = None) -> SubgridData:
        fine = burgers.BurgersGrid(self.n_fine)
        nu = 1.0 / self.re
        u0 = burgers.initial_condition(fine.x, self.re)
        times, fine_states = self._reference_run(
            lambda t, u: burgers.rhs(t, u, nu, fine.dx), u0, stepper)
        factor = self.n_fine // self.n_coarse
        coarse = np.stack([burgers.coarsen(u, factor) for u in fine_states])
        return SubgridData(times=times, fine_states=fine_states, coarse_states=coarse)

    def base(self, basis=None):
        grid = burgers.BurgersGrid(self.n_coarse)
        nu = 1.0 / self.re
        return (lambda t, u: burgers.rhs(t, u, nu, grid.dx),
                lambda t, u, w: burgers.rhs_vjp(t, u, w, nu, grid.dx))

    def baselines(self, basis=None) -> dict:
        plain = self.base_rhs()
        dx, cs = burgers.BurgersGrid(self.n_coarse).dx, self.cs

        def smagorinsky(t, u):
            return plain(t, u) + burgers.smagorinsky_term(u, dx, cs)
        return {"baseline": plain, "smagorinsky": smagorinsky}


# ---------------------------------------------------------------------------
# Study 3a: plankton box model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Plankton0dData:
    times: np.ndarray
    full_states: np.ndarray   # 5-species reference (n_t, 5)
    agg_states: np.ndarray    # aggregated (n_t, 3) training target


@dataclass(frozen=True)
class Plankton0dStudy(Study):
    """Aggregated 3-species box dynamics closed against the 5-species run."""

    name: str = "exp3a_bio0d"
    params: biology.BioParams = field(default_factory=biology.BioParams)
    dt_data: float = 0.05
    train_end: float = 30.0
    val_end: float = 60.0
    predict_end: float = 330.0
    delays: tuple[float, ...] = (0.75, 1.5, 2.25, 3.0, 3.75, 4.5)
    window: tuple[float, float] = (0.0, 2.5)
    aux_dim: int = 4
    epochs: int = 350
    lr0: float = 0.05
    forward_dt: float = 0.025
    positivity_weight: float = 1.0

    state_dim = 3
    truth_tol = 1e-10
    batch = 4
    target = "agg_states"
    reference = ("truth_full.csv", "full_states")

    def state_columns(self, which: str = "target") -> list[str]:
        return ["N", "P", "Z"] if which == "target" else ["NO3", "NH4", "P", "Z", "D"]

    def networks(self, kind: str):
        if kind == "markovian":
            return nn.Network(_dense_chain([3, 7, 7, 7, 7, 7, 7, 1]) + [nn.BioConstrain()])
        if kind == "discrete":
            return nn.Network([nn.SimpleRnnCell(3, 7, "tanh"),
                               nn.Dense(7, 7, "tanh"), nn.Dense(7, 1),
                               nn.BioConstrain()])
        return (nn.Network(_dense_chain([3 + self.aux_dim, 7, 7, 1]) + [nn.BioConstrain()]),
                nn.Network(_dense_chain([3, 5, 5, self.aux_dim])))

    def growth(self) -> float:
        return float(biology.growth_G(self.params))

    def setup(self, stepper: StepperSpec | None = None) -> Plankton0dData:
        p, G = self.params, self.growth()
        times, full = self._reference_run(lambda t, u: biology.nnpzd_rhs(t, u, p, G),
                                          biology.nnpzd_initial(p), stepper)
        return Plankton0dData(times=times, full_states=full,
                              agg_states=biology.aggregate_nnpzd(full))

    def base(self, basis=None):
        p, G = self.params, self.growth()
        return (lambda t, u: biology.npz_rhs(t, u, p, G),
                lambda t, u, w: biology.npz_rhs_vjp(t, u, w, p, G))


# ---------------------------------------------------------------------------
# Study 3b: plankton column
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnData:
    times: np.ndarray
    full_states: np.ndarray   # 5-species column, flat (n_t, n_z*5)
    agg_states: np.ndarray    # aggregated column, flat (n_t, n_z*3)


@dataclass(frozen=True)
class ColumnStudy(Study):
    """Aggregated plankton column closed against the 5-species column."""

    name: str = "exp3b_bio1d"
    params: biology.BioParams = field(default_factory=biology.BioParams)
    cfg: column.ColumnConfig = field(default_factory=column.ColumnConfig)
    forcing: column.SeasonalForcing = field(default_factory=column.SeasonalForcing)
    dt_data: float = 0.1
    train_end: float = 30.0
    val_end: float = 60.0
    predict_end: float = 364.0
    delays: tuple[float, ...] = (0.5, 1.0, 1.5, 2.0)
    window: tuple[float, float] = (0.0, 2.0)
    aux_channels: int = 2
    epochs: int = 200
    lr0: float = 0.05
    forward_dt: float = 0.05
    positivity_weight: float = 1.0

    batch = 8
    target = "agg_states"
    reference = ("truth_full.csv", "full_states")

    @property
    def state_dim(self) -> int:
        return self.cfg.n_z * 3

    @property
    def aux_dim(self) -> int:
        return self.cfg.n_z * self.aux_channels

    def state_columns(self, which: str = "target") -> list[str]:
        species = ("N", "P", "Z") if which == "target" else ("NO3", "NH4", "P", "Z", "D")
        return [f"{s}_{d}" for d in _numbered("d", self.cfg.n_z) for s in species]

    def loss_spec(self) -> LossSpec:
        return LossSpec(kind="depth_avg_l2", positivity_weight=self.positivity_weight,
                        n_depth=self.cfg.n_z)

    def batch_size(self, kind: str) -> int:
        return 4 if kind == "distributed" else self.batch

    def context_channels(self) -> column.ForcingTable:
        """Normalized depth and attenuated daylight channels for the nets:
        (n_z, 2) at one time, (B, n_z, 2) at B member times. One table per
        study, which its f-networks read and its systems fill."""
        return self._context

    @cached_property
    def _context(self) -> column.ForcingTable:
        z = self.cfg.z_centers
        zn = z / abs(self.cfg.depth_total)
        atten = np.exp(self.params.k_w * z)
        scale = self.forcing.i0_mean

        def channels(t) -> np.ndarray:
            light = np.asarray(self.forcing.surface_light(t))[..., None] * atten / scale
            out = np.empty(light.shape + (2,))
            out[..., 0] = zn
            out[..., 1] = light
            return out
        return column.ForcingTable(channels)

    def networks(self, kind: str):
        ctx = self.context_channels()
        if kind == "markovian":
            return nn.Network(
                [nn.AddExtraChannels(2, ctx, "depth+light", in_ch=3)]
                + [nn.Conv1d(a, b, 1, "swish") for a, b in
                   [(5, 5), (5, 7), (7, 9), (9, 11), (11, 13), (13, 13),
                    (13, 11), (11, 9), (9, 7), (7, 5), (5, 3)]]
                + [nn.Conv1d(3, 1, 1, "linear"), nn.BioConstrain()])
        if kind == "discrete":
            return nn.Network(
                [nn.SimpleRnnConvCell(3, 5, 1, "swish"),
                 nn.AddExtraChannels(2, ctx, "depth+light")]
                + [nn.Conv1d(a, b, 1, "swish") for a, b in
                   [(7, 7), (7, 9), (9, 9), (9, 7), (7, 5), (5, 3)]]
                + [nn.Conv1d(3, 1, 1, "linear"), nn.BioConstrain()])
        c = self.aux_channels
        f = nn.Network(
            [nn.AddExtraChannels(2, ctx, "depth+light", in_ch=3 + c)]
            + [nn.Conv1d(a, b, 1, "swish") for a, b in
               [(5 + c, 7), (7, 9), (9, 9), (9, 7), (7, 5), (5, 3)]]
            + [nn.Conv1d(3, 1, 1, "linear"), nn.BioConstrain()])
        g = nn.Network(
            [nn.Conv1d(a, b, 1, "swish") for a, b in
             [(3, 3), (3, 5), (5, 7), (7, 5)]]
            + [nn.Conv1d(5, c, 1, "linear")])
        return f, g

    def setup(self, stepper: StepperSpec | None = None) -> ColumnData:
        model = column.ColumnModel(self.cfg, self.params, self.forcing, kind="nnpzd")
        times, full = self._reference_run(model.rhs, model.initial_state(), stepper)
        agg = np.stack([column.aggregate_column_state(u, self.cfg.n_z) for u in full])
        return ColumnData(times=times, full_states=full, agg_states=agg)

    def base(self, basis=None):
        model = column.ColumnModel(self.cfg, self.params, self.forcing, kind="npz")
        return model.rhs, model.rhs_vjp

    def system(self, closure: ClosureModel, basis=None) -> AugmentedSystem:
        """The augmented system, handed the time-forcing tables to fill."""
        model = column.ColumnModel(self.cfg, self.params, self.forcing, kind="npz")
        return AugmentedSystem(model.rhs, closure, self.state_dim, base_vjp=model.rhs_vjp,
                               forcing=(model.k_faces, model.growth_profile),
                               context=(self.context_channels(),))


# ---------------------------------------------------------------------------
# Toy study for gradient verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ToyData:
    times: np.ndarray
    states: np.ndarray


@dataclass(frozen=True)
class ToyStudy(Study):
    """Linear decay toward a constant source; trains in seconds."""

    name: str = "toy"
    source: tuple[float, float] = (0.5, -0.3)
    u0: tuple[float, float] = (1.0, -0.5)
    dt_data: float = 0.05
    train_end: float = 1.0
    val_end: float = 2.0
    predict_end: float = 3.0
    delays: tuple[float, ...] = (0.1, 0.25)
    window: tuple[float, float] = (0.0, 0.5)
    aux_dim: int = 2
    epochs: int = 5
    lr0: float = 0.05
    forward_dt: float = 0.025
    positivity_weight: float = 0.0

    state_dim = 2
    truth_tol = 1e-10

    def state_columns(self, which: str = "target") -> list[str]:
        return _numbered("u", self.state_dim)

    def networks(self, kind: str):
        if kind == "markovian":
            return nn.Network([nn.Dense(2, 4, "tanh"), nn.Dense(4, 2)])
        if kind == "discrete":
            return nn.Network([nn.SimpleRnnCell(2, 4, "tanh"), nn.Dense(4, 2)])
        return (nn.Network([nn.Dense(2 + self.aux_dim, 4, "tanh"), nn.Dense(4, 2)]),
                nn.Network([nn.Dense(2, 3, "tanh"), nn.Dense(3, self.aux_dim)]))

    def setup(self, stepper: StepperSpec | None = None) -> ToyData:
        c = np.asarray(self.source, dtype=float)
        times, states = self._reference_run(lambda t, u: -u + c,
                                            np.asarray(self.u0, float), stepper)
        return ToyData(times=times, states=states)

    def base(self, basis=None):
        return (lambda t, u: -u), (lambda t, u, w: -w)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


STUDIES = {cls.name: cls for cls in
           (RomStudy, SubgridStudy, Plankton0dStudy, ColumnStudy, ToyStudy)}

EXPERIMENTS = tuple(STUDIES)


def get_study(name: str, **overrides):
    if name not in STUDIES:
        raise ValueError(f"unknown experiment {name!r}; choose from {EXPERIMENTS}")
    return STUDIES[name](**overrides)
