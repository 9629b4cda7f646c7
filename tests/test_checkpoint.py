"""Checkpoint files: exact round-trips, fingerprints, resume invariants."""

from dataclasses import replace

import numpy as np
import pytest

from neuralclosure import experiments as ex
from neuralclosure.checkpoint import (
    Checkpoint,
    check_compatible,
    dump_checkpoint,
    load_checkpoint,
    parse_checkpoint,
    save_checkpoint,
)


def _sample_checkpoint(with_rng=True):
    rng = np.random.default_rng(0)
    clo = ex.get_study("toy").closure("discrete")
    return Checkpoint(
        experiment="toy", kind="discrete", arch=clo.describe(),
        config_sha="c" * 64, epoch=3,
        params=rng.standard_normal(38) * np.pi,
        opt_s=np.abs(rng.standard_normal(38)) * 1e-7,
        opt_step=12,
        rng_state=rng.bit_generator.state if with_rng else None)


def test_round_trip_is_bit_exact():
    ck = _sample_checkpoint()
    text = dump_checkpoint(ck)
    back = parse_checkpoint(text)
    assert np.array_equal(back.params, ck.params)
    assert np.array_equal(back.opt_s, ck.opt_s)
    assert (back.epoch, back.opt_step) == (3, 12)
    assert dump_checkpoint(back) == text


def test_round_trip_without_rng_state():
    ck = _sample_checkpoint(with_rng=False)
    back = parse_checkpoint(dump_checkpoint(ck))
    assert back.rng_state is None and back.rng() is None


def test_rng_restores_the_exact_stream():
    gen = np.random.default_rng(7)
    gen.standard_normal(100)
    ck = _sample_checkpoint()
    ck.rng_state = gen.bit_generator.state
    continued = parse_checkpoint(dump_checkpoint(ck)).rng()
    want = gen.integers(0, 10**9, 16)
    assert np.array_equal(continued.integers(0, 10**9, 16), want)


def test_save_and_load_files(tmp_path):
    ck = _sample_checkpoint()
    path = tmp_path / "ck.txt"
    save_checkpoint(path, ck)
    back = load_checkpoint(path)
    assert np.array_equal(back.params, ck.params)


def test_checkpoint_text_is_pinned():
    # the bytes of checkpoint.txt; a change would orphan the files on disk
    ck = Checkpoint(experiment="toy", kind="markovian", arch="a|b", config_sha="c" * 64,
                    epoch=2, params=np.array([0.1, -2.5, 1.0 / 3.0]),
                    opt_s=np.array([0.0, 1e-7, 2.0]), opt_step=4,
                    rng_state={"state": {"inc": 3, "state": 5}, "bit_generator": "PCG64"})
    assert dump_checkpoint(ck) == (
        "# neural closure checkpoint v1\nexperiment = toy\nclosure = markovian\n"
        "epoch = 2\nopt_step = 4\nn_params = 3\narch = a|b\n"
        "arch_sha256 = 0eab8a0a3380abf4c7d1fb0b43b66aafbb64a4b953e4eb2dccca579461912d0c\n"
        f"config_sha256 = {'c' * 64}\n\n"
        "[params]\n0.1\n-2.5\n0.3333333333333333\n\n"
        "[opt_s]\n0.0\n1e-07\n2.0\n\n"
        '[rng]\n{"bit_generator": "PCG64", "state": {"inc": 3, "state": 5}}\n')
    assert dump_checkpoint(replace(ck, rng_state=None)).endswith("[opt_s]\n0.0\n1e-07\n2.0\n")


def test_fingerprint_covers_delays_and_window():
    study = ex.get_study("toy")
    a = study.closure("discrete").describe()
    b = study.closure("discrete", delays=(0.1, 0.3)).describe()
    assert a != b
    c = study.closure("distributed", window=(0.0, 0.5)).describe()
    d = study.closure("distributed", window=(0.0, 0.25)).describe()
    assert c != d and c.startswith("distributed[")


# The fingerprints that checkpoints on disk carry: a change here would make
# every saved run refuse to resume.
PINNED_FINGERPRINTS = {
    ("toy", "markovian"): "markovian|Dense(2->4,tanh);Dense(4->2,linear)",
    ("toy", "discrete"):
        "discrete[0.10000000000000001,0.25]|SimpleRnnCell(2->4,tanh);Dense(4->2,linear)",
    ("toy", "distributed"):
        "distributed[0,0.5;aux=2]|f:Dense(4->4,tanh);Dense(4->2,linear)"
        "|g:Dense(2->3,tanh);Dense(3->2,linear)",
    ("exp2_subgrid", "discrete"):
        "discrete[0.025000000000000001,0.050000000000000003,0.074999999999999997,"
        "0.10000000000000001,0.125,0.14999999999999999]"
        "|SimpleRnnConvCell(1ch->3ch,k3,swish);Conv1d(3ch->2ch,k3,swish);"
        "Conv1dTranspose(2ch->2ch,k3,swish);Conv1dTranspose(2ch->1ch,k3,linear)",
}


@pytest.mark.parametrize("experiment,kind", sorted(PINNED_FINGERPRINTS))
def test_fingerprints_are_pinned(experiment, kind):
    clo = ex.get_study(experiment).closure(kind)
    want = PINNED_FINGERPRINTS[experiment, kind]
    assert clo.describe() == want
    # a checkpoint that carries the pinned string still resumes
    ck = replace(_sample_checkpoint(), experiment=experiment, kind=kind, arch=want)
    check_compatible(parse_checkpoint(dump_checkpoint(ck)), clo, kind, experiment)


def test_parse_rejects_corruption():
    text = dump_checkpoint(_sample_checkpoint())
    with pytest.raises(ValueError, match="format line"):
        parse_checkpoint("not a checkpoint\n" + text)
    with pytest.raises(ValueError, match="fingerprint"):
        parse_checkpoint(text.replace("arch_sha256 = ", "arch_sha256 = f00"))
    with pytest.raises(ValueError, match="missing"):
        parse_checkpoint(text.replace("[opt_s]", "[opt_t]"))
    mangled = text.replace("n_params = 38", "n_params = 39")
    with pytest.raises(ValueError, match="39"):
        parse_checkpoint(mangled)


def test_check_compatible():
    ck = parse_checkpoint(dump_checkpoint(_sample_checkpoint()))
    study = ex.get_study("toy")
    check_compatible(ck, study.closure("discrete"), "discrete", "toy")
    with pytest.raises(ValueError, match="kind"):
        check_compatible(ck, study.closure("markovian"), "markovian", "toy")
    with pytest.raises(ValueError, match="is for toy"):
        check_compatible(ck, study.closure("discrete"), "discrete", "exp1_rom")
    with pytest.raises(ValueError, match="architecture"):
        check_compatible(ck, study.closure("discrete", delays=(0.2,)),
                         "discrete", "toy")


def test_failed_save_leaves_previous_checkpoint(tmp_path):
    ck = _sample_checkpoint()
    path = tmp_path / "checkpoint.txt"
    save_checkpoint(path, ck)
    before = path.read_text(encoding="utf-8")
    bad = replace(ck, params=np.array([1.0, "not a number"], dtype=object))
    with pytest.raises(ValueError):
        save_checkpoint(path, bad)
    assert path.read_text(encoding="utf-8") == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.txt"]
