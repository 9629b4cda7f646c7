"""Config parsing: strict schema, typed values, override plumbing."""

import numpy as np
import pytest

from neuralclosure import config as cfgmod
from neuralclosure.config import (
    ExperimentConfig,
    config_hash,
    config_text,
    default_config,
    parse_config,
)

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
grad_mode = mean

[steppers]
forward_dt = 0.0125
adjoint_dt = 0.0125

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
    # unset knobs fall back to the study recipe
    assert s.adjoint_dt == study.forward_dt


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
    assert cfg.forward_stepper(study).dt == 0.1
    plain = default_config("toy")
    assert plain.truth_stepper().rtol == 1e-10


def test_closure_window_override_at_call_site():
    cfg = parse_config("[run]\nexperiment = toy\nclosure = distributed\n")
    clo = cfg.closure(window=(0.0, 0.125))
    assert clo.window == (0.0, 0.125)


def test_config_hash_distinguishes_seeds():
    a = default_config("toy", seed=0)
    b = default_config("toy", seed=1)
    assert config_hash(a) != config_hash(b)


def test_canonical_text_is_stable_and_leads_with_run():
    cfg = parse_config("[training]\nepochs = 9\n[run]\nexperiment = toy\n")
    text = config_text(cfg)
    assert text.startswith("[run]\n")
    assert "epochs = 9" in text
    assert config_text(parse_config(text)) == text
