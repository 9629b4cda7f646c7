"""Run configuration: a strict, typed, line-oriented key=value format.

Files look like::

    [run]
    experiment = exp1_rom
    closure = discrete
    seed = 0
    out = runs/exp1-discrete

    [training]
    epochs = 200

Sections and keys are validated against a fixed schema; unknown names are
errors so configs cannot silently drift. Every key is optional except
``[run] experiment``: anything omitted falls back to the study defaults.
List values (delays, windows, sweep points) are whitespace- or
comma-separated numbers.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import io
from dataclasses import dataclass, field, fields, replace

from .experiments import CLOSURE_KINDS, EXPERIMENTS, STUDIES, get_study
from .integrate import DormandPrince54, StepperSpec
from .models import biology, column
from .train import TrainSettings


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


# (section, key) -> (config attribute, converter). Keys are lowercase; the
# attribute spelling may differ where the target dataclass capitalizes.
_SCHEMA: dict[tuple[str, str], tuple[str, object]] = {
    ("run", "experiment"): ("experiment", str),
    ("run", "closure"): ("kind", str),
    ("run", "seed"): ("seed", int),
    ("run", "out"): ("out", str),
    ("spans", "train_end"): ("train_end", float),
    ("spans", "val_end"): ("val_end", float),
    ("spans", "predict_end"): ("predict_end", float),
    ("spans", "dt_data"): ("dt_data", float),
    ("training", "epochs"): ("epochs", int),
    ("training", "batch_size"): ("batch_size", int),
    ("training", "lr0"): ("lr0", float),
    ("training", "decay_rate"): ("decay_rate", float),
    ("training", "decay_steps"): ("decay_steps", int),
    ("training", "window_steps"): ("window_steps", int),
    ("training", "supervise_stride"): ("supervise_stride", int),
    ("training", "grad_mode"): ("grad_mode", str),
    ("training", "positivity_weight"): ("positivity_weight", float),
    ("training", "checkpoint_every"): ("checkpoint_every", int),
    ("steppers", "truth_rtol"): ("truth_rtol", float),
    ("steppers", "truth_atol"): ("truth_atol", float),
    ("steppers", "forward_dt"): ("forward_dt", float),
    ("steppers", "adjoint_dt"): ("adjoint_dt", float),
    ("closure", "delays"): ("delays", _floats),
    ("closure", "window"): ("window", _floats),
    ("burgers", "re"): ("re", float),
    ("burgers", "n_fine"): ("n_fine", int),
    ("burgers", "n_coarse"): ("n_coarse", int),
    ("burgers", "cs"): ("cs", float),
    ("burgers", "n_modes"): ("n_modes", int),
    ("burgers", "basis_t"): ("basis_t", float),
    ("column", "n_z"): ("n_z", int),
    ("column", "depth_total"): ("depth_total", float),
    ("column", "k_zb"): ("K_zb", float),
    ("column", "k_z0"): ("K_z0", float),
    ("column", "gamma_thermo"): ("gamma_thermo", float),
    ("column", "t_bio_surface"): ("t_bio_surface", float),
    ("column", "t_bio_bottom"): ("t_bio_bottom", float),
    ("sweep", "tau2"): ("sweep_tau2", _floats),
    ("sweep", "repeats"): ("sweep_repeats", int),
    ("sweep", "epochs"): ("sweep_epochs", int),
}

# [biology] keys map straight onto BioParams fields (lowercased in the file).
_BIO_FIELDS = {f.name.lower(): f.name for f in fields(biology.BioParams)}
for _low in _BIO_FIELDS:
    _SCHEMA[("biology", _low)] = ("bio_" + _low, float)

_SECTIONS = ("run", "spans", "training", "steppers", "closure",
             "burgers", "biology", "column", "sweep")

# A model section applies to a study with the named field; a [burgers] key
# applies to a study with a field of the key's own attribute name.
_MODEL_SECTIONS = {"burgers": None, "biology": "params", "column": "cfg"}
_COLUMN_KEYS = [attr for (sec, _), (attr, _) in _SCHEMA.items() if sec == "column"]


@dataclass
class ExperimentConfig:
    """Resolved run description; ``None`` means 'use the study default'."""

    experiment: str
    kind: str = "discrete"
    seed: int = 0
    out: str | None = None
    train_end: float | None = None
    val_end: float | None = None
    predict_end: float | None = None
    dt_data: float | None = None
    epochs: int | None = None
    batch_size: int | None = None
    lr0: float | None = None
    decay_rate: float | None = None
    decay_steps: int | None = None
    window_steps: int | None = None
    supervise_stride: int | None = None
    grad_mode: str | None = None
    positivity_weight: float | None = None
    checkpoint_every: int | None = None
    truth_rtol: float | None = None
    truth_atol: float | None = None
    forward_dt: float | None = None
    adjoint_dt: float | None = None
    delays: tuple[float, ...] | None = None
    window: tuple[float, ...] | None = None
    re: float | None = None
    n_fine: int | None = None
    n_coarse: int | None = None
    cs: float | None = None
    n_modes: int | None = None
    basis_t: float | None = None
    n_z: int | None = None
    depth_total: float | None = None
    K_zb: float | None = None
    K_z0: float | None = None
    gamma_thermo: float | None = None
    t_bio_surface: float | None = None
    t_bio_bottom: float | None = None
    bio: dict = field(default_factory=dict)   # BioParams field -> value
    sweep_tau2: tuple[float, ...] = (0.0, 0.0375, 0.075, 0.15)
    sweep_repeats: int = 3
    sweep_epochs: int | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}")
        if self.kind not in CLOSURE_KINDS:
            raise ValueError(
                f"unknown closure {self.kind!r}; choose from {CLOSURE_KINDS}")
        spans = (self.train_end, self.val_end, self.predict_end)
        named = [s for s in spans if s is not None]
        if len(named) == 3 and not (spans[0] < spans[1] <= spans[2]):
            raise ValueError("spans must satisfy train_end < val_end <= predict_end")
        if self.delays is not None:
            d = self.delays
            if not d or any(x <= 0 for x in d) or any(
                    b <= a for a, b in zip(d, d[1:])):
                raise ValueError("delays must be ascending and positive")
        if self.window is not None:
            if len(self.window) != 2 or not 0 <= self.window[0] <= self.window[1]:
                raise ValueError("window must be 'tau1 tau2' with 0 <= tau1 <= tau2")
        if self.sweep_repeats < 1:
            raise ValueError("sweep repeats must be >= 1")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be at least 1, got {self.checkpoint_every}")

    # -- assembly ----------------------------------------------------------

    def study(self):
        """The study with every set value that names one of its fields, plus
        [biology] and [column] values folded into its params and cfg."""
        over = {f.name: getattr(self, f.name) for f in fields(STUDIES[self.experiment])
                if getattr(self, f.name, None) is not None}
        if self.bio:
            over["params"] = replace(biology.BioParams(), **self.bio)
        col = {k: getattr(self, k) for k in _COLUMN_KEYS if getattr(self, k) is not None}
        if col:
            over["cfg"] = replace(column.ColumnConfig(), **col)
        return get_study(self.experiment, **over)

    def closure(self, study=None, window=None):
        study = study or self.study()
        return study.closure(self.kind, delays=self.delays,
                             window=window if window is not None else self.window)

    def settings(self, study=None) -> TrainSettings:
        study = study or self.study()
        s = study.settings(self.kind, seed=self.seed)
        for name in ("epochs", "batch_size", "lr0", "decay_rate", "decay_steps",
                     "window_steps", "supervise_stride", "grad_mode", "adjoint_dt"):
            v = getattr(self, name)
            if v is not None:
                s = dataclasses.replace(s, **{name: v})
        return s

    def truth_stepper(self, study=None) -> StepperSpec:
        study = study or self.study()
        base = study.default_truth_stepper()
        if self.truth_rtol is None and self.truth_atol is None:
            return base
        rtol = base.rtol if self.truth_rtol is None else self.truth_rtol
        atol = base.atol if self.truth_atol is None else self.truth_atol
        return DormandPrince54(rtol=rtol, atol=atol)

    def forward_stepper(self, study=None) -> StepperSpec:
        return (study or self.study()).forward_stepper()


def parse_config(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=("#",))
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ValueError(f"malformed config: {e}") from None
    values: dict[str, object] = {}
    bio: dict[str, float] = {}
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ValueError(
                f"unknown config section [{section}]; expected one of {list(_SECTIONS)}")
        for key, raw in cp.items(section):
            try:
                attr, conv = _SCHEMA[(section, key)]
            except KeyError:
                allowed = sorted(k for s, k in _SCHEMA if s == section)
                raise ValueError(
                    f"unknown key {key!r} in [{section}]; allowed: {allowed}"
                ) from None
            try:
                val = conv(raw)
            except ValueError:
                raise ValueError(
                    f"bad value for [{section}] {key}: {raw!r}") from None
            if attr.startswith("bio_"):
                bio[_BIO_FIELDS[attr[4:]]] = val
            else:
                values[attr] = val
    if "experiment" not in values:
        raise ValueError("config must set [run] experiment")
    cfg = ExperimentConfig(bio=bio, **values)
    have = {f.name for f in fields(STUDIES[cfg.experiment])}
    for section, holder in _MODEL_SECTIONS.items():
        for key, _ in cp.items(section) if cp.has_section(section) else ():
            if (holder or _SCHEMA[(section, key)][0]) not in have:
                raise ValueError(f"[{section}] {key} does not apply to {cfg.experiment}")
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def _fmt(v) -> str:
    if isinstance(v, tuple):
        return " ".join(_fmt(x) for x in v)
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def config_text(cfg: ExperimentConfig) -> str:
    """Canonical rendering: every non-default value, stable order."""
    out = io.StringIO()
    by_section: dict[str, list[tuple[str, object]]] = {}
    attr_to_loc = {attr: (sec, key) for (sec, key), (attr, _) in _SCHEMA.items()
                   if not attr.startswith("bio_")}
    defaults = {f.name: f.default for f in fields(ExperimentConfig)
                if f.default is not dataclasses.MISSING}
    for f in fields(ExperimentConfig):
        if f.name == "bio":
            continue
        v = getattr(cfg, f.name)
        if v is None or (f.name in defaults and v == defaults[f.name]
                         and f.name not in ("experiment", "kind", "seed")):
            continue
        sec, key = attr_to_loc[f.name]
        by_section.setdefault(sec, []).append((key, v))
    for name, v in sorted(cfg.bio.items()):
        by_section.setdefault("biology", []).append((name.lower(), v))
    first = True
    for sec in _SECTIONS:
        if sec not in by_section:
            continue
        if not first:
            out.write("\n")
        first = False
        out.write(f"[{sec}]\n")
        for key, v in by_section[sec]:
            out.write(f"{key} = {_fmt(v)}\n")
    return out.getvalue()


def truth_settings(cfg: ExperimentConfig) -> dict:
    """The resolved settings that shape gen-data's files: the experiment, the
    data grid, the reference run's tolerances and the study's model keys."""
    study = cfg.study()
    out = {"experiment": cfg.experiment, "truth_rtol/truth_atol": cfg.truth_stepper(study)}
    for (sec, _), (attr, _) in _SCHEMA.items():
        if sec == "burgers" or attr in ("dt_data", "predict_end"):
            out[attr] = getattr(study, attr, None)
    for sec, holder in _MODEL_SECTIONS.items():
        if holder is not None:
            out[f"[{sec}]"] = getattr(study, holder, None)
    return out


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(config_text(cfg).encode()).hexdigest()


def default_config(experiment: str, kind: str = "discrete",
                   seed: int = 0, out: str | None = None) -> ExperimentConfig:
    return ExperimentConfig(experiment=experiment, kind=kind, seed=seed, out=out)
