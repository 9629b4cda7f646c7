"""Run configuration: a strict, typed, line-oriented key=value format.

Files look like::

    [run]
    experiment = exp1_rom
    closure = discrete
    seed = 0
    out = runs/exp1-discrete

    [training]
    epochs = 200

Sections and keys are validated against the schema that the fields of
:class:`ExperimentConfig` declare; unknown names are errors so configs
cannot silently drift. Every key is optional except
``[run] experiment``: anything omitted falls back to the study defaults.
List values (delays, windows, sweep points) are whitespace- or
comma-separated numbers.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import MISSING, dataclass, field, fields, replace

from .experiments import CLOSURE_KINDS, EXPERIMENTS, STUDIES, get_study
from .integrate import DormandPrince54, StepperSpec, check_delays, check_window
from .models import biology, column
from .train import TrainSettings


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _key(section: str, conv, default=None, key: str | None = None):
    """A field read from ``[section]`` by ``conv``, under ``key`` where that
    is not the field's lowercased name."""
    return field(default=default, metadata={"section": section, "conv": conv, "key": key})


@dataclass
class ExperimentConfig:
    """Resolved run description; ``None`` means 'use the study default'.

    Its fields are the config format: each states its section, converter
    and key, and the schema, the canonical text and the overlays onto the
    study and its training settings are read from them."""

    experiment: str = _key("run", str, MISSING)
    kind: str = _key("run", str, "discrete", key="closure")
    seed: int = _key("run", int, 0)
    out: str | None = _key("run", str)
    train_end: float | None = _key("spans", float)
    val_end: float | None = _key("spans", float)
    predict_end: float | None = _key("spans", float)
    dt_data: float | None = _key("spans", float)
    epochs: int | None = _key("training", int)
    batch_size: int | None = _key("training", int)
    lr0: float | None = _key("training", float)
    decay_rate: float | None = _key("training", float)
    decay_steps: int | None = _key("training", int)
    window_steps: int | None = _key("training", int)
    supervise_stride: int | None = _key("training", int)
    positivity_weight: float | None = _key("training", float)
    checkpoint_every: int | None = _key("training", int)
    truth_rtol: float | None = _key("steppers", float)
    truth_atol: float | None = _key("steppers", float)
    forward_dt: float | None = _key("steppers", float)
    delays: tuple[float, ...] | None = _key("closure", _floats)
    window: tuple[float, ...] | None = _key("closure", _floats)
    re: float | None = _key("burgers", float)
    n_fine: int | None = _key("burgers", int)
    n_coarse: int | None = _key("burgers", int)
    cs: float | None = _key("burgers", float)
    n_modes: int | None = _key("burgers", int)
    basis_t: float | None = _key("burgers", float)
    # BioParams field -> value; its keys are the lowercased field names
    bio: dict = field(default_factory=dict, metadata={"section": "biology"})
    n_z: int | None = _key("column", int)
    depth_total: float | None = _key("column", float)
    K_zb: float | None = _key("column", float)
    K_z0: float | None = _key("column", float)
    gamma_thermo: float | None = _key("column", float)
    t_bio_surface: float | None = _key("column", float)
    t_bio_bottom: float | None = _key("column", float)
    sweep_tau2: tuple[float, ...] = _key("sweep", _floats, (0.0, 0.0375, 0.075, 0.15),
                                         key="tau2")
    sweep_repeats: int = _key("sweep", int, 3, key="repeats")
    sweep_epochs: int | None = _key("sweep", int, key="epochs")

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}")
        if self.kind not in CLOSURE_KINDS:
            raise ValueError(
                f"unknown closure {self.kind!r}; choose from {CLOSURE_KINDS}")
        if self.delays is not None:
            if not self.delays:
                raise ValueError("delays must name at least one delay")
            check_delays(self.delays)
        if self.window is not None:
            if len(self.window) != 2:
                raise ValueError(f"window must be 'tau1 tau2', got {len(self.window)} values")
            check_window(self.window)
        if self.sweep_repeats < 1:
            raise ValueError("sweep repeats must be >= 1")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be at least 1, got {self.checkpoint_every}")

    # -- assembly ----------------------------------------------------------

    def _set_values(self, cls) -> dict:
        """The values set here (not None) under the field names of ``cls``."""
        return {f.name: getattr(self, f.name) for f in fields(cls)
                if getattr(self, f.name, None) is not None}

    def study(self):
        """The study with every set value that names one of its fields, plus
        [biology] and [column] values folded into its params and cfg."""
        over = self._set_values(STUDIES[self.experiment])
        if self.bio:
            over["params"] = replace(biology.BioParams(), **self.bio)
        col = self._set_values(column.ColumnConfig)
        if col:
            over["cfg"] = replace(column.ColumnConfig(), **col)
        return get_study(self.experiment, **over)

    def settings(self, study=None) -> TrainSettings:
        """The study's recipe with every set value that names a field of it."""
        study = study or self.study()
        return replace(study.settings(self.kind), **self._set_values(TrainSettings))

    def truth_stepper(self, study=None) -> StepperSpec:
        study = study or self.study()
        base = study.default_truth_stepper()
        if self.truth_rtol is None and self.truth_atol is None:
            return base
        rtol = base.rtol if self.truth_rtol is None else self.truth_rtol
        atol = base.atol if self.truth_atol is None else self.truth_atol
        return DormandPrince54(rtol=rtol, atol=atol)


def _location(f) -> tuple[str, str]:
    return f.metadata["section"], f.metadata["key"] or f.name.lower()


# (section, key) -> (field, converter); a [biology] key is a lowercased
# BioParams field, whose value goes into ``bio`` under the field's own name.
_SCHEMA = {_location(f): (f.name, f.metadata["conv"])
           for f in fields(ExperimentConfig) if f.name != "bio"}
_BIO_NAMES = {f.name.lower(): f.name for f in fields(biology.BioParams)}
_SCHEMA.update({("biology", low): ("bio", float) for low in _BIO_NAMES})
_SECTIONS = tuple(dict.fromkeys(f.metadata["section"] for f in fields(ExperimentConfig)))

# A model section applies to a study with the named field; a [burgers] key
# applies to a study with a field of the key's own attribute name.
_MODEL_SECTIONS = {"burgers": None, "biology": "params", "column": "cfg"}


def parse_config(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=("#",))
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ValueError(f"malformed config: {e}") from None
    values: dict[str, object] = {}
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
            if attr == "bio":
                values.setdefault("bio", {})[_BIO_NAMES[key]] = val
            else:
                values[attr] = val
    if "experiment" not in values:
        raise ValueError("config must set [run] experiment")
    cfg = ExperimentConfig(**values)
    have = {f.name for f in fields(STUDIES[cfg.experiment])}
    for section, holder in _MODEL_SECTIONS.items():
        for key, _ in cp.items(section) if cp.has_section(section) else ():
            if (holder or _SCHEMA[(section, key)][0]) not in have:
                raise ValueError(f"[{section}] {key} does not apply to {cfg.experiment}")
    study = cfg.study()
    if not study.train_end < study.val_end <= study.predict_end:
        raise ValueError(f"spans must satisfy train_end < val_end <= predict_end, got "
                         f"{study.train_end:g}, {study.val_end:g}, {study.predict_end:g}")
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
    """Canonical rendering: the [run] values and every other value set away
    from its default, in field order; [biology] keys in the sorted order of
    their BioParams names."""
    by_section: dict[str, list[tuple[str, object]]] = {}
    for f in fields(ExperimentConfig):
        sec, v = f.metadata["section"], getattr(cfg, f.name)
        if f.name == "bio":
            items = [(name.lower(), x) for name, x in sorted(v.items())]
        elif v is None or (sec != "run" and v == f.default):
            items = []
        else:
            items = [(_location(f)[1], v)]
        if items:
            by_section.setdefault(sec, []).extend(items)
    return "\n".join(f"[{sec}]\n" + "".join(f"{key} = {_fmt(v)}\n" for key, v in items)
                     for sec, items in by_section.items())


def truth_settings(cfg: ExperimentConfig) -> dict:
    """The resolved settings that shape gen-data's files: the experiment, the
    data grid, the reference run's tolerances and the study's model keys."""
    study = cfg.study()
    out = {"experiment": cfg.experiment, "truth_rtol/truth_atol": cfg.truth_stepper(study)}
    for f in fields(ExperimentConfig):
        if f.metadata["section"] == "burgers" or f.name in ("dt_data", "predict_end"):
            out[f.name] = getattr(study, f.name, None)
    for sec, holder in _MODEL_SECTIONS.items():
        if holder is not None:
            out[f"[{sec}]"] = getattr(study, holder, None)
    return out


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(config_text(cfg).encode()).hexdigest()
