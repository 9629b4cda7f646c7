"""CLI flows: data generation, training, evaluation, sweeps, exit codes."""

from types import SimpleNamespace

import numpy as np
import pytest

from neuralclosure import cli
from neuralclosure import experiments as ex
from neuralclosure.checkpoint import load_checkpoint
from neuralclosure.config import config_text, parse_config

TOY_CFG = """\
[run]
experiment = toy
closure = discrete
seed = 1

[training]
epochs = 3
"""


def _write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


@pytest.fixture()
def toy_cfg(tmp_path):
    return _write(tmp_path, TOY_CFG)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def test_write_read_table(tmp_path):
    p = tmp_path / "x.csv"
    cli.write_csv(p, ["t", "a"], [[0.0, 1.0 / 3.0], [0.1, 2.0]])
    header, data = cli.read_table(p)
    assert header == ["t", "a"]
    assert data[0, 1] == 1.0 / 3.0      # 17 significant digits round-trip
    text = p.read_text()
    assert text.splitlines()[0] == "t,a"


def test_failed_table_write_leaves_previous_file(tmp_path):
    path = tmp_path / "loss_history.csv"
    cli.write_csv(path, ["epoch", "loss"], [[0, 1.5], [1, 0.5]])
    before = path.read_text(encoding="utf-8")

    def rows():
        yield [0, 2.5]
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError):
        cli.write_csv(path, ["epoch", "loss"], rows())
    assert path.read_text(encoding="utf-8") == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["loss_history.csv"]


def state_columns(experiment, which):
    return ex.get_study(experiment).state_columns(which)


def test_state_columns():
    assert state_columns("toy", "target") == ["u1", "u2"]
    assert state_columns("exp1_rom", "target") == ["a1", "a2", "a3"]
    assert len(state_columns("exp2_subgrid", "target")) == 25
    assert state_columns("exp3a_bio0d", "full") == \
        ["NO3", "NH4", "P", "Z", "D"]
    cols = state_columns("exp3b_bio1d", "target")
    assert len(cols) == 60
    assert cols[:4] == ["N_d01", "P_d01", "Z_d01", "N_d02"]


def test_basis_file_round_trip(tmp_path):
    from neuralclosure.models import rom
    rng = np.random.default_rng(3)
    snaps = rng.standard_normal((40, 12))
    basis = rom.pod(snaps, 3)
    path = tmp_path / "basis.txt"
    cli.save_basis(path, basis)
    back = cli.load_basis(path)
    assert np.array_equal(back.mean, basis.mean)
    assert np.array_equal(back.modes, basis.modes)
    assert np.array_equal(back.singular_values, basis.singular_values)


def test_basis_file_text_is_pinned(tmp_path):
    from neuralclosure.models import rom
    basis = rom.PodBasis(mean=np.array([0.5, -1.0]), modes=np.array([[0.6, 0.0], [0.8, 1.0]]),
                         singular_values=np.array([3.0, 0.25, 0.125]))
    cli.save_basis(tmp_path / "basis.txt", basis)
    assert (tmp_path / "basis.txt").read_text(encoding="utf-8") == (
        "# pod basis v1\nn_x = 2\nn_modes = 2\n\n[mean]\n0.5\n-1.0\n\n"
        "[singular_values]\n3.0\n0.25\n0.125\n\n[modes]\n0.6,0.0\n0.8,1.0\n")


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------


def test_gen_data_toy(tmp_path, toy_cfg):
    out = tmp_path / "out"
    assert cli.main(["gen-data", "--config", toy_cfg, "--out", str(out)]) == 0
    header, data = cli.read_table(out / "truth.csv")
    assert header == ["t", "u1", "u2"]
    assert data.shape == (61, 3)
    assert np.all(np.diff(data[:, 0]) > 0)
    assert (out / "config.txt").exists()


def test_gen_data_is_byte_identical(tmp_path, toy_cfg):
    a, b = tmp_path / "a", tmp_path / "b"
    cli.main(["gen-data", "--config", toy_cfg, "--out", str(a)])
    cli.main(["gen-data", "--config", toy_cfg, "--out", str(b)])
    assert (a / "truth.csv").read_bytes() == (b / "truth.csv").read_bytes()


def test_gen_data_exp1_writes_basis_and_coeffs(tmp_path):
    cfgp = _write(tmp_path, "[run]\nexperiment = exp1_rom\n")
    out = tmp_path / "out"
    assert cli.main(["gen-data", "--config", cfgp, "--out", str(out)]) == 0
    header, data = cli.read_table(out / "truth.csv")
    assert header == ["t", "a1", "a2", "a3"]
    assert data.shape == (601, 4)
    basis = cli.load_basis(out / "pod_basis.txt")
    assert basis.n_modes == 3


def test_evaluate_refuses_a_bad_basis_file(tmp_path, capsys):
    # a basis cut short before its [singular_values] and [modes] sections,
    # or one whose header disagrees with its arrays, is a bad input: an
    # error line and exit 2, not a traceback
    cfgp = _write(tmp_path, "[run]\nexperiment = exp1_rom\nclosure = discrete\n")
    out = tmp_path / "out"
    assert cli.main(["gen-data", "--config", cfgp, "--out", str(out)]) == 0
    path = out / "pod_basis.txt"
    text = path.read_text(encoding="utf-8")
    for bad, says in ((text[:text.index("[singular_values]")], "[singular_values]"),
                      (text.replace("n_modes = 3", "n_modes = 4"), "4 modes")):
        path.write_text(bad, encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", cfgp, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and says in err


def test_failed_gen_data_is_generated_again(tmp_path, monkeypatch):
    # truth.csv is written last: a gen-data that fails part way (here in the
    # basis write) leaves no truth.csv, so the next load_truth generates
    # the whole set again instead of trusting a half-written directory
    text = "[run]\nexperiment = exp1_rom\n"
    out = tmp_path / "out"
    save_basis = cli.save_basis

    def fail_once(path, basis):
        monkeypatch.setattr(cli, "save_basis", save_basis)
        raise OSError("disk full")

    monkeypatch.setattr(cli, "save_basis", fail_once)
    assert cli.main(["gen-data", "--config", _write(tmp_path, text),
                     "--out", str(out)]) == 1
    ds, basis = cli.load_truth(parse_config(text), out)
    assert ds.states.shape == (601, 3) and basis.n_modes == 3
    assert sorted(p.name for p in out.iterdir()) == ["config.txt", "pod_basis.txt",
                                                     "truth.csv"]


# ---------------------------------------------------------------------------
# train / evaluate
# ---------------------------------------------------------------------------


def test_train_then_evaluate(tmp_path, toy_cfg, capsys):
    out = tmp_path / "out"
    assert cli.main(["train", "--config", toy_cfg, "--out", str(out)]) == 0
    header, hist = cli.read_table(out / "loss_history.csv")
    assert header == ["epoch", "train_loss", "val_loss", "lr"]
    assert hist.shape == (3, 4)
    assert np.all(np.isfinite(hist))
    assert np.all(np.diff(hist[:, 3]) < 0)          # lr decays

    assert cli.main(["evaluate", "--config", toy_cfg, "--out", str(out)]) == 0
    theader, traj = cli.read_table(out / "trajectory.csv")
    assert theader[:3] == ["t", "truth_u1", "truth_u2"]
    assert "model_u1" in theader and "baseline_u1" in theader
    rheader, rmse = cli.read_table(out / "rmse.csv")
    assert rheader == ["t", "rmse_model", "rmse_baseline"]
    assert rmse[0, 1] == 0.0                        # anchored at the truth
    with open(out / "metrics.csv") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "metric,window,model,value"
    tags = {tuple(l.split(",")[:3]) for l in lines[1:]}
    assert ("time_avg_l2", "train", "model") in tags
    assert ("time_avg_l2", "predict", "baseline") in tags
    assert ("crosscorr", "predict", "model") in tags


def test_coarse_grid_override_round_trip(tmp_path):
    # the truth.csv header follows the overridden grid, so train reads it
    cfgp = _write(tmp_path, """
[run]
experiment = exp2_subgrid

[burgers]
n_coarse = 20

[training]
epochs = 1
""")
    out = tmp_path / "out"
    assert cli.main(["gen-data", "--config", cfgp, "--out", str(out)]) == 0
    header, data = cli.read_table(out / "truth.csv")
    assert header == ["t"] + [f"u{i:02d}" for i in range(1, 21)]
    assert cli.main(["train", "--config", cfgp, "--out", str(out)]) == 0


def test_evaluate_notes_a_config_change(tmp_path, toy_cfg, capsys):
    # the config hash in the checkpoint tells weights scored under another
    # configuration; evaluate says so on stderr and still scores them
    out = tmp_path / "out"
    assert cli.main(["train", "--config", toy_cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", toy_cfg, "--out", str(out)]) == 0
    assert "note:" not in capsys.readouterr().err
    longer = _write(tmp_path, TOY_CFG.replace("epochs = 3", "epochs = 5"), "longer.cfg")
    assert cli.main(["evaluate", "--config", longer, "--out", str(out)]) == 0
    assert capsys.readouterr().err.startswith(
        "note: scoring under a config that differs from the checkpoint's")


def test_truncated_truth_is_refused(tmp_path, toy_cfg, capsys):
    # a truth.csv cut short, after whole rows, mid-number or mid-row, lacks
    # data times; scoring on it would average over empty windows
    out = tmp_path / "out"
    assert cli.main(["train", "--config", toy_cfg, "--out", str(out)]) == 0
    truth = out / "truth.csv"
    lines = truth.read_text(encoding="utf-8").splitlines()
    kept = "\n".join(lines[:14])
    for cut in (kept[:kept.rindex("\n") + 1], kept[:-5], kept[:kept.rindex(",")]):
        truth.write_text(cut, encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", toy_cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(truth) in err


def test_zero_closure_checkpoint_reproduces_baseline(tmp_path):
    # an untrained (zero output layer) checkpoint must score exactly like
    # the uncorrected low-fidelity model
    from neuralclosure import experiments as ex
    from neuralclosure.checkpoint import Checkpoint, save_checkpoint
    from neuralclosure.config import config_hash

    cfgp = _write(tmp_path, TOY_CFG)
    cfg = parse_config(TOY_CFG)
    out = tmp_path / "out"
    cli.main(["gen-data", "--config", cfgp, "--out", str(out)])
    clo = cfg.study().closure(cfg.kind)
    params = ex.initial_params(clo, seed=1)
    ck = Checkpoint(experiment="toy", kind="discrete",
                    arch=clo.describe(), config_sha=config_hash(cfg),
                    epoch=0, params=params, opt_s=np.zeros(params.size),
                    opt_step=0)
    save_checkpoint(out / "zero.txt", ck)
    assert cli.main(["evaluate", "--config", cfgp, "--out", str(out),
                     "--checkpoint", str(out / "zero.txt")]) == 0
    header, rmse = cli.read_table(out / "rmse.csv")
    model = rmse[:, header.index("rmse_model")]
    base = rmse[:, header.index("rmse_baseline")]
    assert np.max(np.abs(model - base)) < 1e-12


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_a_failed_evaluate_scores_the_baselines(tmp_path, capsys):
    # a checkpoint whose rollout breaks down exits 1, and still writes the
    # three score tables: the baselines' numbers, the model's nan
    from neuralclosure.checkpoint import Checkpoint, save_checkpoint
    from neuralclosure.config import config_hash

    text = TOY_CFG.replace("closure = discrete", "closure = markovian")
    cfgp, cfg = _write(tmp_path, text), parse_config(text)
    out, ckpt = tmp_path / "out", tmp_path / "ck.txt"
    clo = cfg.study().closure(cfg.kind)
    params = ex.initial_params(clo, seed=1)
    params[-1] = 1.7e308
    save_checkpoint(ckpt, Checkpoint(
        experiment="toy", kind="markovian", arch=clo.describe(),
        config_sha=config_hash(cfg), epoch=0, params=params,
        opt_s=np.zeros(params.size), opt_step=0))
    assert cli.main(["evaluate", "--config", cfgp, "--out", str(out),
                     "--checkpoint", str(ckpt)]) == 1
    assert capsys.readouterr().err.startswith("error: the model's rollout failed: ")
    header, traj = cli.read_table(out / "trajectory.csv")
    model = [i for i, h in enumerate(header) if h.startswith("model_")]
    base = [i for i, h in enumerate(header) if h.startswith("baseline_")]
    assert model and base
    assert np.all(np.isnan(traj[:, model])) and np.all(np.isfinite(traj[:, base]))
    header, rmse = cli.read_table(out / "rmse.csv")
    assert header == ["t", "rmse_model", "rmse_baseline"]
    assert np.all(np.isnan(rmse[:, 1])) and np.all(np.isfinite(rmse[:, 2]))
    with open(out / "metrics.csv") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    assert {r[2] for r in rows} == {"model", "baseline"}
    for _, _, name, value in rows:
        assert np.isnan(float(value)) == (name == "model")


def test_resume_matches_uninterrupted_run(tmp_path):
    cfg4 = _write(tmp_path, TOY_CFG.replace("epochs = 3", "epochs = 4"), "a.cfg")
    cfg2 = _write(tmp_path, TOY_CFG.replace("epochs = 3", "epochs = 2"), "b.cfg")
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["train", "--config", cfg4, "--out", str(a)]) == 0
    assert cli.main(["train", "--config", cfg2, "--out", str(b)]) == 0
    assert cli.main(["train", "--config", cfg4, "--out", str(b),
                     "--checkpoint", str(b / "checkpoint.txt")]) == 0
    assert (a / "checkpoint.txt").read_bytes() == \
        (b / "checkpoint.txt").read_bytes()
    assert (a / "loss_history.csv").read_bytes() == \
        (b / "loss_history.csv").read_bytes()


def test_resume_past_the_last_epoch_keeps_the_checkpoint(tmp_path, capsys):
    # a checkpoint at epoch 3 resumed under epochs = 2 runs no epoch
    out = tmp_path / "out"
    assert cli.main(["train", "--config", _write(tmp_path, TOY_CFG), "--out", str(out)]) == 0
    before = (out / "checkpoint.txt").read_bytes()
    short = _write(tmp_path, TOY_CFG.replace("epochs = 3", "epochs = 2"), "short.cfg")
    assert cli.main(["train", "--config", short, "--out", str(out),
                     "--checkpoint", str(out / "checkpoint.txt")]) == 0
    assert load_checkpoint(out / "checkpoint.txt").epoch == 3
    assert (out / "checkpoint.txt").read_bytes() == before
    assert "for 3 epochs" in capsys.readouterr().out


def test_a_run_that_completed_no_epoch_resumes(tmp_path, recwarn):
    # a run of 0 epochs writes a loss history with a header and no rows,
    # which reads as an empty table when the run is resumed
    text = TOY_CFG.replace("discrete", "markovian")
    none = _write(tmp_path, text.replace("epochs = 3", "epochs = 0"), "none.cfg")
    two = _write(tmp_path, text.replace("epochs = 3", "epochs = 2"), "two.cfg")
    out = tmp_path / "out"
    assert cli.main(["train", "--config", none, "--out", str(out)]) == 0
    header, rows = cli.read_table(out / "loss_history.csv")
    assert rows.shape == (0, len(header)) == (0, 4)
    assert cli.main(["train", "--config", two, "--out", str(out),
                     "--checkpoint", str(out / "checkpoint.txt")]) == 0
    _, rows = cli.read_table(out / "loss_history.csv")
    assert rows[:, 0].tolist() == [0.0, 1.0]
    assert not [w for w in recwarn if issubclass(w.category, UserWarning)]


def test_seed_flag_overrides_config(tmp_path, toy_cfg):
    a, b = tmp_path / "a", tmp_path / "b"
    cli.main(["train", "--config", toy_cfg, "--out", str(a)])
    cli.main(["train", "--config", toy_cfg, "--out", str(b), "--seed", "9"])
    ha = cli.read_table(a / "loss_history.csv")[1]
    hb = cli.read_table(b / "loss_history.csv")[1]
    assert not np.array_equal(ha[:, 1], hb[:, 1])


def test_resume_rejects_wrong_architecture(tmp_path, toy_cfg):
    out = tmp_path / "out"
    cli.main(["train", "--config", toy_cfg, "--out", str(out)])
    other = _write(tmp_path, TOY_CFG.replace("discrete", "markovian"), "m.cfg")
    rc = cli.main(["train", "--config", other, "--out", str(out),
                   "--checkpoint", str(out / "checkpoint.txt")])
    assert rc == 2


# ---------------------------------------------------------------------------
# verify-gradients / sweep-delay
# ---------------------------------------------------------------------------


def test_verify_gradients_passes(capsys):
    assert cli.main(["verify-gradients"]) == 0
    text = capsys.readouterr().out
    assert text.count("PASS") == 4 and "FAIL" not in text


def test_sweep_delay(tmp_path):
    cfgp = _write(tmp_path, """
[run]
experiment = toy
closure = distributed
seed = 0

[sweep]
tau2 = 0 0.25
repeats = 2
epochs = 2
""")
    out = tmp_path / "sweep"
    assert cli.main(["sweep-delay", "--config", cfgp, "--out", str(out)]) == 0
    with open(out / "runs.csv") as fh:
        runs = fh.read().splitlines()
    assert runs[0] == "tau2,repeat,seed,status,val_loss_final"
    assert len(runs) == 5
    assert all(r.split(",")[3] == "ok" for r in runs[1:])
    header, summary = cli.read_table(out / "summary.csv")
    assert header == ["tau2", "n_ok", "min", "q1", "median", "q3", "max"]
    assert summary.shape == (2, 7)
    assert np.all(summary[:, 1] == 2)
    # five-number ordering
    assert np.all(np.diff(summary[:, 2:], axis=1) >= 0)
    assert (out / "tau2_0.25" / "rep1" / "checkpoint.txt").exists()


def test_single_point_sweep_reduces_to_train(tmp_path):
    cfgp = _write(tmp_path, """
[run]
experiment = toy
closure = distributed
seed = 0

[sweep]
tau2 = 0.25
repeats = 1
epochs = 2
""")
    out = tmp_path / "sweep"
    assert cli.main(["sweep-delay", "--config", cfgp, "--out", str(out)]) == 0
    _, summary = cli.read_table(out / "summary.csv")
    assert summary.shape == (1, 7)
    # with one run the five-number summary collapses onto that value
    assert summary[0, 2] == summary[0, 6] == summary[0, 4]
    _, hist = cli.read_table(out / "tau2_0.25" / "rep0" / "loss_history.csv")
    assert np.isclose(np.nanmean(hist[:, 2]), summary[0, 4])


def test_sweep_runs_start_from_the_files_gen_data_wrote(tmp_path, monkeypatch):
    # each run directory gets a copy of every file gen-data wrote, the
    # reference-resolution table included, and the config it trains under
    # as its config.txt
    cfgp = _write(tmp_path, "[run]\nexperiment = exp3a_bio0d\n"
                            "[sweep]\ntau2 = 0.5\nrepeats = 1\n")
    out = tmp_path / "sweep"
    seen = []

    def training(cfg, rdir, quiet):
        seen.append((cfg, {p.name: p.read_bytes() for p in rdir.iterdir()}))
        return SimpleNamespace(history=[], diverged=True)

    monkeypatch.setattr(cli, "run_training", training)
    assert cli.main(["sweep-delay", "--config", cfgp, "--out", str(out)]) == 0
    names = cli.truth_files(ex.get_study("exp3a_bio0d"))
    assert names == ["config.txt", "truth_full.csv", "truth.csv"]
    assert sorted(p.name for p in out.iterdir() if p.is_file()) == \
        sorted(names + ["runs.csv", "summary.csv"])
    [(rcfg, files)] = seen
    assert (rcfg.kind, rcfg.window) == ("distributed", (0.0, 0.5))
    assert files == {name: (out / name).read_bytes() for name in names[1:]} | \
        {"config.txt": config_text(rcfg).encode()}


def test_a_sweep_run_is_scored_under_its_own_config(tmp_path, capsys):
    # the run's config.txt is the config its checkpoint was trained under
    cfgp = _write(tmp_path, "[run]\nexperiment = toy\n"
                            "[sweep]\ntau2 = 0.25\nrepeats = 1\nepochs = 1\n")
    out = tmp_path / "sweep"
    assert cli.main(["sweep-delay", "--config", cfgp, "--out", str(out)]) == 0
    run = out / "tau2_0.25" / "rep0"
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", str(run / "config.txt"),
                     "--out", str(run)]) == 0
    assert "note" not in capsys.readouterr().err


def test_a_rerun_sweep_scores_each_run_under_its_new_config(tmp_path, capsys):
    # a second sweep into the same OUT retrains each run under its new config,
    # so the run's config.txt is rewritten with it; the truth files stay
    out = tmp_path / "sweep"
    run = out / "tau2_0.1" / "rep0"

    def sweep(epochs):
        cfgp = _write(tmp_path, "[run]\nexperiment = toy\n[sweep]\ntau2 = 0.1\n"
                                f"repeats = 1\nepochs = {epochs}\n")
        assert cli.main(["sweep-delay", "--config", cfgp, "--out", str(out)]) == 0

    sweep(1)
    truth = (run / "truth.csv").stat().st_mtime_ns
    sweep(2)
    assert (run / "truth.csv").stat().st_mtime_ns == truth
    assert load_checkpoint(run / "checkpoint.txt").epoch == 2
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", str(run / "config.txt"),
                     "--out", str(run)]) == 0
    assert "note" not in capsys.readouterr().err


def test_a_sweep_after_gen_data_trains_each_run_on_the_new_truth(tmp_path):
    # gen-data into the sweep's OUT with other truth settings replaces the
    # root's truth files; the next sweep trains and scores every run on
    # them, not on the copies the first sweep left in the run directories
    out = tmp_path / "sweep"
    sweep = "[run]\nexperiment = toy\n[sweep]\ntau2 = 0.0 0.5\nrepeats = 1\nepochs = 1\n"
    tight = "[steppers]\ntruth_rtol = 1e-4\ntruth_atol = 1e-4\n"
    first = _write(tmp_path, sweep, "first.cfg")
    assert cli.main(["sweep-delay", "--config", first, "--out", str(out)]) == 0
    old = (out / "truth.csv").read_bytes()
    again = _write(tmp_path, sweep + tight, "again.cfg")
    assert cli.main(["gen-data", "--config", again, "--out", str(out)]) == 0
    new = (out / "truth.csv").read_bytes()
    assert new != old
    assert cli.main(["sweep-delay", "--config", again, "--out", str(out)]) == 0
    for run in (out / "tau2_0" / "rep0", out / "tau2_0.5" / "rep0"):
        assert (run / "truth.csv").read_bytes() == new


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_bad_config_exits_2(tmp_path, capsys):
    bad = _write(tmp_path, "[run]\nexperiment = nope\n")
    assert cli.main(["gen-data", "--config", bad, "--out",
                     str(tmp_path / "x")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["batch_size", "window_steps", "supervise_stride",
                                 "decay_steps", "dt_data", "lr0", "epochs",
                                 "decay_rate", "checkpoint_every"])
def test_nonpositive_steps_and_sizes_exit_2(tmp_path, capsys, key):
    # TOY_CFG ends in its [training] section, which sets epochs
    if key == "epochs":
        text = TOY_CFG.replace("epochs = 3", "epochs = -1")
    elif key == "dt_data":
        text = TOY_CFG + "\n[spans]\ndt_data = 0\n"
    else:
        text = TOY_CFG + f"{key} = 0\n"
    bad = _write(tmp_path, text)
    assert cli.main(["train", "--config", bad, "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


def test_one_span_out_of_order_with_the_defaults_exits_2_unwritten(tmp_path, capsys):
    # toy's spans are 1, 2, 3: train_end = 2.5 passes val_end
    bad = _write(tmp_path, TOY_CFG + "\n[spans]\ntrain_end = 2.5\n")
    out = tmp_path / "out"
    assert cli.main(["train", "--config", bad, "--out", str(out)]) == 2
    assert "spans" in capsys.readouterr().err
    assert not (out / "truth.csv").exists()


def test_missing_config_file_exits_1(tmp_path):
    assert cli.main(["gen-data", "--config", str(tmp_path / "absent.cfg"),
                     "--out", str(tmp_path / "x")]) == 1


def test_missing_out_exits_2(toy_cfg, capsys):
    assert cli.main(["train", "--config", toy_cfg]) == 2
    assert "--out" in capsys.readouterr().err


def test_missing_checkpoint_exits_1(tmp_path, toy_cfg):
    out = tmp_path / "out"
    cli.main(["gen-data", "--config", toy_cfg, "--out", str(out)])
    assert cli.main(["evaluate", "--config", toy_cfg, "--out", str(out)]) == 1


def test_truth_data_of_other_settings_is_refused(tmp_path, toy_cfg, capsys):
    # gen-data's config.txt records the settings its files were made with;
    # a run with another data grid must not train on them
    out = tmp_path / "out"
    assert cli.main(["gen-data", "--config", toy_cfg, "--out", str(out)]) == 0
    coarse = _write(tmp_path, TOY_CFG + "\n[spans]\ndt_data = 0.1\n", "coarse.cfg")
    assert cli.main(["train", "--config", coarse, "--out", str(out)]) == 2
    assert "gen-data" in capsys.readouterr().err
    # a training-only change reuses the data
    short = _write(tmp_path, TOY_CFG.replace("epochs = 3", "epochs = 1"), "short.cfg")
    assert cli.main(["train", "--config", short, "--out", str(out)]) == 0
    (out / "config.txt").unlink()
    assert cli.main(["train", "--config", short, "--out", str(out)]) == 2
    assert "gen-data" in capsys.readouterr().err
