"""Command-line front end.

Subcommands::

    neuralclosure gen-data         --config c.txt --out DIR
    neuralclosure train            --config c.txt --out DIR [--checkpoint CK]
    neuralclosure evaluate         --config c.txt --out DIR [--checkpoint CK]
    neuralclosure verify-gradients [--config c.txt]
    neuralclosure sweep-delay      --config c.txt --out DIR

Every table is CSV with a header row and 17-significant-digit floats; see the
README for the per-file column layouts. Exit code 0 on success, 2 on
validation failure (bad config, mismatched checkpoint, gradient check out of
tolerance), 1 on runtime errors. An ``evaluate`` whose model rollout breaks
down still writes its three tables, the baselines scored and the model's
columns and scores nan, and exits 1.
"""

from __future__ import annotations

import argparse
import sys as _sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import experiments as ex
from .checkpoint import (
    Checkpoint,
    atomic_open,
    check_compatible,
    load_checkpoint,
    read_sections,
    save_checkpoint,
    write_sections,
)
from .closure import (
    adjoint_gradient,
    constant_history,
    fd_gradient,
    forward_augmented,
)
from .config import (ExperimentConfig, config_hash, config_text, load_config,
                     truth_settings)
from .integrate import IntegrationError, RK4Fixed, integrate_ode
from .models import rom
from .train import (LossSpec, SnapshotDataset, TrainResult, avg_crosscorr,
                    evaluate_rollout, train)

GRAD_TOL = 1e-4
CHECKPOINT_EVERY = 25
FINAL_EPOCH_AVG = 50


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def write_csv(path, header, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(x) for x in row) + "\n")


def read_table(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: {len(header)} columns in header, "
                         f"{data.shape[1]} in body")
    return header, data


def _state_table(path, times, states, names) -> None:
    write_csv(path, ["t"] + list(names),
              ([t] + list(row) for t, row in zip(times, states)))


# ---------------------------------------------------------------------------
# Modal-basis file
# ---------------------------------------------------------------------------


def save_basis(path, basis: rom.PodBasis) -> None:
    text = write_sections(
        "# pod basis v1", {"n_x": basis.mean.size, "n_modes": basis.n_modes},
        {"mean": [repr(float(v)) for v in basis.mean],
         "singular_values": [repr(float(v)) for v in basis.singular_values],
         "modes": [",".join(repr(float(v)) for v in row) for row in basis.modes]})
    with atomic_open(path) as fh:
        fh.write(text)


def load_basis(path) -> rom.PodBasis:
    head, sections = read_sections(Path(path).read_text(encoding="utf-8"), "# pod basis v1",
                                   str(path), ("n_x", "n_modes"),
                                   ("mean", "singular_values", "modes"))
    mean = np.array([float(x) for x in sections["mean"]])
    sv = np.array([float(x) for x in sections["singular_values"]])
    modes = np.array([[float(x) for x in row.split(",")]
                      for row in sections["modes"]])
    n_x, n_modes = int(head["n_x"]), int(head["n_modes"])
    if mean.shape != (n_x,) or modes.shape != (n_x, n_modes) or sv.size < n_modes:
        raise ValueError(f"{path}: the header gives {n_x} points and {n_modes} modes, "
                         f"the file {mean.size} mean values, modes {modes.shape} "
                         f"and {sv.size} singular values")
    return rom.PodBasis(mean=mean, modes=modes, singular_values=sv)


# ---------------------------------------------------------------------------
# Truth data on disk
# ---------------------------------------------------------------------------


def truth_files(study) -> list[str]:
    """The files gen-data writes, in order: config.txt, the study's
    reference-resolution table if it has one, the modal basis if it uses
    one and, last, truth.csv (the training target)."""
    names = ["config.txt"]
    if study.reference is not None:
        names.append(study.reference[0])
    if study.uses_basis:
        names.append("pod_basis.txt")
    return names + ["truth.csv"]


def generate_truth(cfg: ExperimentConfig, out: Path) -> None:
    """Writes the :func:`truth_files`. Each file is replaced atomically, and
    truth.csv marks a complete set: a run that fails part way leaves none,
    so load_truth generates again."""
    study = cfg.study()
    data = study.setup(cfg.truth_stepper(study))
    out.mkdir(parents=True, exist_ok=True)
    truth = out / "truth.csv"
    truth.unlink(missing_ok=True)
    with atomic_open(out / "config.txt") as fh:
        fh.write(config_text(cfg))
    if study.reference is not None:
        fname, attr = study.reference
        _state_table(out / fname, data.times, getattr(data, attr),
                     study.state_columns("full"))
    if study.uses_basis:
        save_basis(out / "pod_basis.txt", data.basis)
    _state_table(truth, data.times, getattr(data, study.target),
                 study.state_columns("target"))
    print(f"wrote truth data for {cfg.experiment} to {out}")


def load_truth(cfg: ExperimentConfig, out: Path):
    """Returns (dataset, basis-or-None), generating the files if absent.

    Existing files must have been written by gen-data under the same
    :func:`truth_settings` as ``cfg``, as its config.txt records, and
    truth.csv must hold the whole data grid.
    """
    truth = out / "truth.csv"
    if not truth.exists():
        generate_truth(cfg, out)
    made = out / "config.txt"
    if not made.exists():
        raise ValueError(f"{out} holds truth data without its config.txt; rerun gen-data")
    want, have = truth_settings(cfg), truth_settings(load_config(made))
    differ = sorted(k for k in want.keys() | have.keys() if want.get(k) != have.get(k))
    if differ:
        raise ValueError(f"the truth data in {out} was made with other "
                         f"{', '.join(differ)}; rerun gen-data with this config")
    study = cfg.study()
    header, table = read_table(truth)
    if header != ["t"] + study.state_columns("target"):
        raise ValueError(f"{truth} has unexpected columns {header}")
    if not np.array_equal(table[:, 0], ex.uniform_times(study.predict_end, study.dt_data)):
        raise ValueError(f"{truth} does not hold the data times 0, {study.dt_data:g}, ..., "
                         f"{study.predict_end:g}; rerun gen-data")
    ds = SnapshotDataset(table[:, 0], table[:, 1:])
    return ds, load_basis(out / "pod_basis.txt") if study.uses_basis else None


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _write_history(path, prior_rows, records) -> None:
    """loss_history.csv: rows kept from a resumed run, then ``records``."""
    write_csv(path, ["epoch", "train_loss", "val_loss", "lr"],
              list(prior_rows) + [[r.epoch, r.train_loss, r.val_loss, r.lr]
                                  for r in records])


def run_training(cfg: ExperimentConfig, out: Path,
                 resume: Path | None = None, quiet: bool = False) -> TrainResult:
    study = cfg.study()
    dataset, basis = load_truth(cfg, out)
    closure = study.closure(cfg.kind)
    system = study.system(closure, basis)
    settings = cfg.settings(study)
    stepper = study.forward_stepper()
    loss_spec = study.loss_spec()
    train_ds = dataset.restrict(0.0, study.train_end)
    val_ds = dataset.restrict(study.train_end, study.val_end)

    cfg_sha = config_hash(cfg)
    arch = closure.describe()
    params0 = ex.initial_params(closure, settings.seed)
    opt_state = None
    rng = None
    start_epoch = 0
    prior: list = []
    if resume is not None:
        ck = load_checkpoint(resume)
        check_compatible(ck, closure, cfg.kind, cfg.experiment)
        _note_config_change(ck, cfg_sha, "resuming")
        params0, opt_state = ck.params, ck.opt_state()
        rng, start_epoch = ck.rng(), ck.epoch
        hist_path = out / "loss_history.csv"
        if hist_path.exists():
            _, rows = read_table(hist_path)
            prior = [row for row in rows if row[0] < start_epoch]

    out.mkdir(parents=True, exist_ok=True)

    def save(epoch_done: int, result: TrainResult, rng_now) -> None:
        ck = Checkpoint(experiment=cfg.experiment, kind=cfg.kind, arch=arch,
                        config_sha=cfg_sha, epoch=epoch_done,
                        params=result.params, opt_s=result.opt_state.s,
                        opt_step=result.opt_state.step,
                        rng_state=rng_now.bit_generator.state)
        save_checkpoint(out / "checkpoint.txt", ck)
        _write_history(out / "loss_history.csv", prior, result.history)

    rng_live = rng if rng is not None else np.random.default_rng(settings.seed)
    every = CHECKPOINT_EVERY if cfg.checkpoint_every is None else cfg.checkpoint_every

    def callback(epoch: int, result: TrainResult) -> None:
        rec = result.history[-1]
        if not quiet:
            print(f"epoch {epoch + 1}/{settings.epochs} "
                  f"train {rec.train_loss:.6e} val {rec.val_loss:.6e} "
                  f"lr {rec.lr:.4e}")
        if (epoch + 1) % every == 0:
            save(epoch + 1, result, rng_live)

    result = train(system, train_ds, params0, settings, loss_spec, stepper,
                   val_dataset=val_ds, opt_state=opt_state, rng=rng_live,
                   start_epoch=start_epoch, callback=callback)
    # a resume that runs no epoch leaves its checkpoint as it found it
    if resume is None or result.epochs_run > start_epoch:
        save(result.epochs_run, result, rng_live)
    return result


def cmd_train(cfg: ExperimentConfig, out: Path, resume: Path | None) -> int:
    result = run_training(cfg, out, resume=resume)
    if result.diverged:
        print(f"training diverged at epoch {result.epochs_run}; "
              f"last finite state saved", file=_sys.stderr)
        return 1
    print(f"trained {cfg.experiment}/{cfg.kind} for {result.epochs_run} epochs; "
          f"checkpoint + loss history in {out}")
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def _note_config_change(ck: Checkpoint, cfg_sha: str, doing: str) -> None:
    if ck.config_sha != cfg_sha:
        print(f"note: {doing} under a config that differs from the "
              "checkpoint's (e.g. extended epochs)", file=_sys.stderr)


def _metric_loss(study) -> LossSpec:
    return replace(study.loss_spec(), positivity_weight=0.0)


def cmd_evaluate(cfg: ExperimentConfig, out: Path, ckpt: Path | None) -> int:
    study = cfg.study()
    dataset, basis = load_truth(cfg, out)
    ckpt = ckpt if ckpt is not None else out / "checkpoint.txt"
    ck = load_checkpoint(ckpt)
    closure = study.closure(cfg.kind)
    check_compatible(ck, closure, cfg.kind, cfg.experiment)
    _note_config_change(ck, config_hash(cfg), "scoring")
    system = study.system(closure, basis)
    stepper = study.forward_stepper()

    # a run that fails while scoring leaves no tables of an earlier one
    for name in ("trajectory.csv", "rmse.csv", "metrics.csv"):
        (out / name).unlink(missing_ok=True)
    # a model rollout that breaks down scores nan; the baselines still score
    try:
        model, _, _ = evaluate_rollout(system, ck.params, dataset, stepper,
                                       history=constant_history(dataset.states[0]))
        failure = None
    except IntegrationError as e:
        model, failure = np.full(dataset.states.shape, np.nan), e
    rollouts = {"model": model}
    for bname, rhs in study.baselines(basis).items():
        traj = integrate_ode(rhs, dataset.states[0], (dataset.t_start, dataset.t_end),
                             stepper)
        rollouts[bname] = traj.eval_many(dataset.times)

    names = study.state_columns("target")
    order = ["model"] + [k for k in rollouts if k != "model"]
    header = ["t"] + [f"truth_{c}" for c in names] + \
        [f"{k}_{c}" for k in order for c in names]
    rows = ([t] + list(dataset.states[i]) +
            [v for k in order for v in rollouts[k][i]]
            for i, t in enumerate(dataset.times))
    write_csv(out / "trajectory.csv", header, rows)

    err = {k: rollouts[k] - dataset.states for k in order}
    write_csv(out / "rmse.csv", ["t"] + [f"rmse_{k}" for k in order],
              ([t] + [float(np.sqrt(np.mean(err[k][i] ** 2))) for k in order]
               for i, t in enumerate(dataset.times)))

    windows = [("train", 0.0, study.train_end),
               ("val", study.train_end, study.val_end),
               ("predict", study.val_end, study.predict_end)]
    mloss = _metric_loss(study)
    mrows = []
    for wname, lo, hi in windows:
        sel = dataset.in_span(lo, hi)
        for k in order:
            mrows.append(["time_avg_l2", wname, k,
                          mloss.total(rollouts[k][sel], dataset.states[sel])])
    sel = dataset.in_span(study.val_end, dataset.t_end)
    for k in order:
        mrows.append(["crosscorr", "predict", k,
                      avg_crosscorr(rollouts[k][sel], dataset.states[sel])])
    write_csv(out / "metrics.csv", ["metric", "window", "model", "value"], mrows)
    if failure is not None:
        print(f"error: the model's rollout failed: {failure}; its columns and "
              f"scores in {out} are nan", file=_sys.stderr)
        return 1
    print(f"evaluated {cfg.experiment}/{cfg.kind}: trajectory.csv, rmse.csv, "
          f"metrics.csv in {out}")
    return 0


# ---------------------------------------------------------------------------
# verify-gradients
# ---------------------------------------------------------------------------


def gradient_checks(cfg: ExperimentConfig | None = None):
    """Adjoint-vs-finite-difference relative errors on the toy study.

    Yields (label, relative_error) for the three closure kinds; distributed
    runs both a from-zero and an interior window so the history term of its
    second adjoint variable is exercised.
    """
    study = ex.get_study("toy") if cfg is None or cfg.experiment != "toy" \
        else cfg.study()
    data = study.setup()
    span = (0.0, 2.0)
    ds_all = SnapshotDataset(data.times, data.states)
    idx = [int(round(t / ds_all.dt)) for t in (0.6, 1.2, 1.8)]
    ds = SnapshotDataset(ds_all.times[idx], ds_all.states[idx])
    stepper = RK4Fixed(0.005)
    loss = study.loss_spec()
    hist = constant_history(data.states[0])

    cases = [("markovian", None), ("discrete", None),
             ("distributed (0,0.5)", (0.0, 0.5)),
             ("distributed (0.2,0.7)", (0.2, 0.7))]
    for label, window in cases:
        kind = label.split()[0]
        clo = study.closure(kind, window=window)
        system = study.system(clo)
        rng = np.random.default_rng(9)
        params = ex.initial_params(clo, seed=9)
        params = params + 0.1 * rng.standard_normal(params.size)
        run = forward_augmented(system, params, span, stepper, history=hist)
        adj = adjoint_gradient(system, params, run, ds, loss, stepper)
        fd = fd_gradient(system, params, span, ds, loss, stepper,
                         history=hist, eps=1e-6)
        # the worst of the networks' parameter blocks (theta, then phi)
        blocks = np.cumsum([net.n_params for net in clo.nets])[:-1]
        rel = max(np.linalg.norm(a - f) / max(np.linalg.norm(f), 1e-14)
                  for a, f in zip(np.split(adj.grad, blocks), np.split(fd, blocks)))
        yield label, float(rel)


def cmd_verify_gradients(cfg: ExperimentConfig | None) -> int:
    worst = 0.0
    for label, rel in gradient_checks(cfg):
        status = "PASS" if rel < GRAD_TOL else "FAIL"
        print(f"{label:24s} rel {rel:.3e}  {status}")
        worst = max(worst, rel)
    print(f"max relative error {worst:.3e} (tolerance {GRAD_TOL:g})")
    return 0 if worst < GRAD_TOL else 2


# ---------------------------------------------------------------------------
# sweep-delay
# ---------------------------------------------------------------------------


def final_epoch_val_loss(records, n_last: int = FINAL_EPOCH_AVG) -> float:
    """Validation loss averaged over the last ``n_last`` epochs (all if fewer)."""
    vals = np.array([r.val_loss for r in records[-n_last:]], dtype=float)
    if vals.size == 0 or not np.any(np.isfinite(vals)):
        return float("nan")
    return float(np.nanmean(vals))


def cmd_sweep_delay(cfg: ExperimentConfig, out: Path) -> int:
    cfg = replace(cfg, kind="distributed",
                  epochs=cfg.sweep_epochs if cfg.sweep_epochs is not None
                  else cfg.epochs)
    load_truth(cfg, out)   # shared by every run
    shared = truth_files(cfg.study())[1:]   # gen-data's files after config.txt
    run_rows = []
    by_tau: dict[float, list[float]] = {}
    for tau2 in cfg.sweep_tau2:
        for rep in range(cfg.sweep_repeats):
            seed = cfg.seed + rep
            rcfg = replace(cfg, seed=seed, window=(0.0, tau2))
            rdir = out / f"tau2_{tau2:g}" / f"rep{rep}"
            rdir.mkdir(parents=True, exist_ok=True)
            # the shared truth files, copied when the run's copy is missing
            # or differs (gen-data ran since), and the run's own config.txt,
            # written every time: its truth settings are the root's, and it
            # scores the checkpoint this run trains
            (rdir / "config.txt").write_bytes(config_text(rcfg).encode())
            for name in shared:
                if (out / name).exists():
                    data = (out / name).read_bytes()
                    if not (rdir / name).exists() or (rdir / name).read_bytes() != data:
                        (rdir / name).write_bytes(data)
            result = run_training(rcfg, rdir, quiet=True)
            loss = final_epoch_val_loss(result.history)
            status = "diverged" if result.diverged or not np.isfinite(loss) \
                else "ok"
            if status == "ok":
                by_tau.setdefault(tau2, []).append(loss)
            run_rows.append([tau2, rep, seed, status, loss])
            print(f"tau2 {tau2:g} rep {rep} seed {seed}: {status} "
                  f"val:{loss:.6e}")
    write_csv(out / "runs.csv",
              ["tau2", "repeat", "seed", "status", "val_loss_final"],
              run_rows)
    srows = []
    for tau2 in cfg.sweep_tau2:
        vals = by_tau.get(tau2, [])
        if vals:
            q = np.percentile(vals, [0, 25, 50, 75, 100])
            srows.append([tau2, len(vals), *q])
        else:
            srows.append([tau2, 0] + [float("nan")] * 5)
    write_csv(out / "summary.csv",
              ["tau2", "n_ok", "min", "q1", "median", "q3", "max"], srows)
    print(f"sweep complete: runs.csv, summary.csv in {out}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="neuralclosure",
        description="Train and evaluate neural delay-closure models.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, needs_config in (("gen-data", True), ("train", True),
                               ("evaluate", True), ("verify-gradients", False),
                               ("sweep-delay", True)):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=needs_config,
                        help="path to a run configuration file")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
        sp.add_argument("--out", default=None,
                        help="run directory (overrides [run] out)")
        sp.add_argument("--checkpoint", default=None,
                        help="checkpoint path (train: resume from; "
                             "evaluate: weights to score)")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else None
        if cfg is not None and args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        out = args.out if args.out is not None else (cfg.out if cfg else None)
        if args.command != "verify-gradients":
            if out is None:
                raise ValueError("need --out or [run] out in the config")
            out = Path(out)
        ckpt = Path(args.checkpoint) if args.checkpoint else None
        if args.command == "gen-data":
            generate_truth(cfg, out)
            return 0
        if args.command == "train":
            return cmd_train(cfg, out, ckpt)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, out, ckpt)
        if args.command == "verify-gradients":
            return cmd_verify_gradients(cfg)
        return cmd_sweep_delay(cfg, out)
    except ValueError as e:
        print(f"error: {e}", file=_sys.stderr)
        return 2
    except (OSError, IntegrationError) as e:
        print(f"error: {e}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
