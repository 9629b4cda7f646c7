"""Config parsing: strict schema, typed values, override plumbing."""

import ast
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from neuralclosure.config import (
    ExperimentConfig,
    config_hash,
    config_text,
    parse_config,
)
from neuralclosure.experiments import get_study
from neuralclosure.models.biology import BioParams
from neuralclosure.models.column import ColumnConfig

MINIMAL = "[run]\nexperiment = toy\n"


def test_minimal_config():
    cfg = parse_config(MINIMAL)
    assert cfg.experiment == "toy"
    assert cfg.kind == "discrete"
    assert cfg.seed == 0
    assert cfg.out is None


def test_full_round_trip():
    cfg = parse_config("""
[run]
experiment = exp2_subgrid
closure = distributed
seed = 11
out = runs/x

[spans]
train_end = 1.25
val_end = 2.5
predict_end = 5.0

[training]
epochs = 30
batch_size = 4
lr0 = 0.05

[steppers]
forward_dt = 0.0125

[closure]
window = 0.0 0.0375

[burgers]
re = 500
cs = 0.8
""")
    text = config_text(cfg)
    again = parse_config(text)
    assert config_text(again) == text
    assert config_hash(again) == config_hash(cfg)
    assert again.window == (0.0, 0.0375)
    assert again.re == 500.0 and again.cs == 0.8


def test_comments_and_commas_accepted():
    cfg = parse_config("""
[run]
experiment = exp1_rom   # inline note
closure = discrete

[closure]
delays = 0.05, 0.1, 0.15
""")
    assert cfg.delays == (0.05, 0.1, 0.15)


@pytest.mark.parametrize("text,frag", [
    ("[run]\nexperiment = nope\n", "unknown experiment"),
    ("[run]\nexperiment = toy\nclosure = magic\n", "unknown closure"),
    ("[runs]\nexperiment = toy\n", "unknown config section"),
    ("[run]\nexperiment = toy\nepochs = 3\n", "unknown key"),
    ("[training]\nepochs = 3\n", "must set"),
    ("[run]\nexperiment = toy\n[training]\nepochs = many\n", "bad value"),
    ("[run]\nexperiment = toy\n[spans]\ntrain_end = 2\nval_end = 1\n"
     "predict_end = 3\n", "spans"),
    # one span set against the study's defaults (toy: 1, 2, 3)
    ("[run]\nexperiment = toy\n[spans]\ntrain_end = 2.5\n", "spans"),
    ("[run]\nexperiment = toy\n[spans]\nval_end = 0.5\n", "spans"),
    ("[run]\nexperiment = toy\n[steppers]\nadjoint_dt = 0.01\n", "unknown key"),
    ("[run]\nexperiment = toy\n[training]\ngrad_mode = mean\n", "unknown key"),
    ("[run]\nexperiment = toy\n[closure]\ndelays = 0.2 0.1\n", "delays"),
    ("[run]\nexperiment = toy\n[closure]\nwindow = 0.5 0.2\n", "window"),
    ("[run]\nexperiment = toy\n[closure]\nwindow = 0.1 0.2 0.3\n", "window"),
    ("[run]\nexperiment = toy\n[burgers]\nre = 100\n", "does not apply"),
    ("[run]\nexperiment = exp1_rom\n[burgers]\nn_coarse = 5\n",
     "does not apply"),
    ("[run]\nexperiment = exp3a_bio0d\n[column]\nn_z = 5\n", "does not apply"),
    ("[run]\nexperiment = toy\n[sweep]\nrepeats = 0\n", "repeats"),
    ("[run]\nexperiment = toy\n[training]\ncheckpoint_every = 0\n", "checkpoint_every"),
    ("garbage without a section\n", "malformed"),
])
def test_rejected_configs(text, frag):
    with pytest.raises(ValueError, match=frag):
        parse_config(text)


@pytest.mark.parametrize("experiment,applies", [
    ("exp1_rom", {"re", "n_fine", "n_modes", "basis_t"}),
    ("exp2_subgrid", {"re", "n_fine", "n_coarse", "cs"}),
    ("exp3a_bio0d", {"biology"}),
    ("exp3b_bio1d", {"biology", "column"}),
    ("toy", set()),
])
def test_model_sections_apply_by_study_field(experiment, applies):
    probes = {"re": "[burgers]\nre = 500\n", "n_fine": "[burgers]\nn_fine = 200\n",
              "n_coarse": "[burgers]\nn_coarse = 20\n", "cs": "[burgers]\ncs = 0.5\n",
              "n_modes": "[burgers]\nn_modes = 4\n", "basis_t": "[burgers]\nbasis_t = 2\n",
              "biology": "[biology]\nv_m = 2.0\n", "column": "[column]\nn_z = 10\n"}
    for name, section in probes.items():
        text = f"[run]\nexperiment = {experiment}\n{section}"
        if name in applies:
            parse_config(text).study()
        else:
            with pytest.raises(ValueError, match="does not apply"):
                parse_config(text)


def test_config_and_closure_refuse_a_window_with_one_message():
    with pytest.raises(ValueError) as from_config:
        parse_config("[run]\nexperiment = toy\n[closure]\nwindow = 0.5 0.2\n")
    with pytest.raises(ValueError) as from_closure:
        get_study("toy").closure("distributed", window=(0.5, 0.2))
    assert str(from_config.value) == str(from_closure.value)
    assert "0 <= tau1 <= tau2" in str(from_config.value)


def test_degenerate_window_allowed():
    cfg = parse_config("[run]\nexperiment = toy\n[closure]\nwindow = 0 0\n")
    assert cfg.window == (0.0, 0.0)


def test_study_assembly_with_overrides():
    cfg = parse_config("""
[run]
experiment = exp1_rom
closure = discrete
seed = 4

[spans]
train_end = 1.0
val_end = 2.0
predict_end = 3.0

[training]
epochs = 12
batch_size = 3
lr0 = 0.01
""")
    study = cfg.study()
    assert (study.train_end, study.val_end, study.predict_end) == (1.0, 2.0, 3.0)
    assert study.epochs == 12
    s = cfg.settings(study)
    assert (s.epochs, s.batch_size, s.lr0, s.seed) == (12, 3, 0.01, 4)


def test_bio_and_column_overrides_flow_into_models():
    cfg = parse_config("""
[run]
experiment = exp3b_bio1d

[biology]
v_m = 2.0
lambda = 0.07

[column]
n_z = 10
k_zb = 0.05
""")
    study = cfg.study()
    assert study.params.V_m == 2.0
    assert study.params.Lambda == 0.07
    assert study.cfg.n_z == 10 and study.cfg.K_zb == 0.05
    assert study.state_dim == 30


def test_stepper_overrides():
    cfg = parse_config("""
[run]
experiment = toy

[steppers]
truth_rtol = 1e-6
forward_dt = 0.1
""")
    study = cfg.study()
    assert cfg.truth_stepper(study).rtol == 1e-6
    assert study.forward_stepper().dt == 0.1
    plain = ExperimentConfig("toy")
    assert plain.truth_stepper().rtol == 1e-10


def test_closure_window_override_at_call_site():
    # a caller sets the window through the config, as sweep-delay does
    cfg = parse_config("[run]\nexperiment = toy\nclosure = distributed\n")
    clo = replace(cfg, window=(0.0, 0.125)).study().closure(cfg.kind)
    assert clo.window == (0.0, 0.125)


def test_config_hash_distinguishes_seeds():
    a = ExperimentConfig("toy", seed=0)
    b = ExperimentConfig("toy", seed=1)
    assert config_hash(a) != config_hash(b)


def test_canonical_text_is_stable_and_leads_with_run():
    cfg = parse_config("[training]\nepochs = 9\n[run]\nexperiment = toy\n")
    text = config_text(cfg)
    assert text.startswith("[run]\n")
    assert "epochs = 9" in text
    assert config_text(parse_config(text)) == text


def test_canonical_text_and_hash_are_pinned():
    # a key in every section, [biology] and [column] two each; the [biology]
    # keys come in the sorted order of their BioParams names ("V_m" before
    # "alpha_PI"). The constructor does not check which model sections
    # apply, so one config can carry them all.
    cfg = ExperimentConfig(
        experiment="exp3b_bio1d", kind="distributed", seed=5, out="runs/golden",
        train_end=1.5, val_end=3.0, predict_end=4.5, dt_data=0.1,
        epochs=7, lr0=0.02,
        truth_rtol=1e-9, forward_dt=0.05,
        window=(0.0, 1.25),
        re=250.0,
        bio={"V_m": 1.25, "alpha_PI": 0.03},
        n_z=8, K_zb=0.05,
        sweep_tau2=(0.0, 0.5), sweep_repeats=2, sweep_epochs=4)
    assert config_text(cfg) == (
        "[run]\nexperiment = exp3b_bio1d\nclosure = distributed\nseed = 5\n"
        "out = runs/golden\n\n"
        "[spans]\ntrain_end = 1.5\nval_end = 3\npredict_end = 4.5\n"
        "dt_data = 0.10000000000000001\n\n"
        "[training]\nepochs = 7\nlr0 = 0.02\n\n"
        "[steppers]\ntruth_rtol = 1.0000000000000001e-09\n"
        "forward_dt = 0.050000000000000003\n\n"
        "[closure]\nwindow = 0 1.25\n\n"
        "[burgers]\nre = 250\n\n"
        "[biology]\nv_m = 1.25\nalpha_pi = 0.029999999999999999\n\n"
        "[column]\nn_z = 8\nk_zb = 0.050000000000000003\n\n"
        "[sweep]\ntau2 = 0 0.5\nrepeats = 2\nepochs = 4\n")
    assert config_hash(cfg) == \
        "443964f87951e60d14476e90ea9f6b448bca9336573bc6d4799245ea1b047676"


def _accepted_keys() -> set:
    """(section, key) pairs parse_config accepts, read from its own refusals."""
    with pytest.raises(ValueError) as err:
        parse_config("[nosuchsection]\nx = 1\n")
    sections = ast.literal_eval(str(err.value).split("expected one of ", 1)[1])
    pairs = set()
    for sec in sections:
        with pytest.raises(ValueError) as err:
            parse_config(f"[{sec}]\nnosuchkey = 1\n")
        keys = ast.literal_eval(str(err.value).split("allowed: ", 1)[1])
        pairs |= {(sec, key) for key in keys}
    return pairs


def test_accepted_keys_are_the_readme_table_and_the_model_fields():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Config reference", 1)[1].split("\n\n| section")[1]
    listed, by_fields = set(), set()
    models = {"biology": BioParams, "column": ColumnConfig}
    for row in ("| section" + table).split("\n\n", 1)[0].splitlines()[2:]:
        sec = re.search(r"`\[(\w+)\]`", row).group(1)
        # keys come before any ':' that says where they apply
        keys = re.findall(r"`([a-z_0-9]+)`", row.split("|")[2].split(":")[0])
        if "..." in row:
            # the row lists examples of a model's lowercased field names
            names = {f.name.lower() for f in fields(models[sec])}
            assert set(keys) <= names
            by_fields |= {(sec, n) for n in names}
        else:
            listed |= {(sec, k) for k in keys}
    assert not listed & by_fields
    assert _accepted_keys() == listed | by_fields
