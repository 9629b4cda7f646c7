"""SHA-256 digests of what training computes, for byte-equality checks.

For every (study x closure kind) pair, at seed-7 ``initial_params`` plus 0.01
Gaussian noise, it digests:

* the loss and gradient of three batches, two drawn like training draws
  them and one holding the first and last admissible starts;
* one training window's loss and gradient;
* the validation rollout from the train-span history (predictions, RMSE and
  correlation);
* one single-trajectory forward solve (scalar ``t_span``, the initial state
  read from the history) over the first training window, and its adjoint
  gradient;
* at seed-7 ``initial_params`` plus 0.3 Gaussian noise, the loss and
  gradient of 16 batches drawn like training draws them (``wide0`` to
  ``wide15``): far from the initial weights the sweep's rounding reaches
  more of the gradient's bits, so a change in its arithmetic shows there
  when the 0.01 items stay equal.

For every study it also digests the plain-model paths (``<study>/plain``):
``truth``, the arrays ``setup()`` returns from the DP5(4) reference run, and
``baseline``, the baseline right-hand side integrated over the validation
span with the forward stepper, as ``evaluate`` does.

The output is one JSON file, so two source trees compute the same bits when
their files are equal; ``--compare`` prints the (pair, item) entries whose
digests differ and exits 1 if any do::

    PYTHONPATH=src python tools/digests.py --out a.json
    PYTHONPATH=../other/src python tools/digests.py --out b.json
    PYTHONPATH=src python tools/digests.py --compare a.json b.json

NumPy only; the 15 pairs and 5 plain entries take about 6 s on a 2-vCPU
Xeon VM.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json

import numpy as np

from neuralclosure import experiments as ex, train
from neuralclosure.closure import adjoint_gradient, forward_augmented
from neuralclosure.integrate import integrate_ode

SEED = 7
NOISE = 0.01
WIDE_NOISE, WIDE_BATCHES = 0.3, 16


def sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def pair_digests(study, data, kind: str) -> dict:
    full = train.SnapshotDataset(data.times, getattr(data, study.target))
    ds = full.restrict(0.0, study.train_end)
    val = full.restrict(study.train_end, study.val_end)
    clo = study.closure(kind)
    system = study.system(clo, getattr(data, "basis", None))
    p0 = ex.initial_params(clo, SEED)
    noise = np.random.default_rng(SEED).standard_normal(p0.size)
    params = p0 + NOISE * noise
    s = study.settings(kind, seed=SEED)
    loss_spec, stepper, history = study.loss_spec(), study.forward_stepper(), ds.history_fn()
    args = (s, loss_spec, stepper, history)

    rng = np.random.default_rng(SEED)
    adm = train.admissible_starts(ds.n_steps, s.window_steps, s.supervise_stride)
    batches = [train.sample_batch(rng, ds.n_steps, s.batch_size, s.window_steps,
                                  s.supervise_stride) for _ in range(2)]
    batches.append([adm[0], adm[-1], adm[adm.size // 2]])
    out = {}
    for i, starts in enumerate(batches):
        loss, grad = train.batch_gradient(system, params, ds, starts, *args)
        out[f"batch{i}"] = sha([loss], grad)
    loss, grad = train.window_gradient(system, params, ds, int(adm[1]), *args)
    out["window"] = sha([loss], grad)
    preds, rmse, corr = train.evaluate_rollout(system, params, val, stepper, history=history)
    out["rollout"] = sha(preds, [rmse, corr])

    # one window as a single trajectory: no member axis anywhere
    w = s.window_steps
    sup = np.arange(s.supervise_stride, w + 1, s.supervise_stride)
    start = int(adm[0])
    run = forward_augmented(system, params, (ds.times[start], ds.times[start + w]),
                            stepper, history=history)
    window = train.SnapshotDataset(ds.times[start + sup], ds.states[start + sup])
    adj = adjoint_gradient(system, params, run, window, loss_spec, stepper)
    knots = run.traj.knots()
    out["single"] = sha(knots, run.traj.eval_many(knots), adj.grad)

    wide = p0 + WIDE_NOISE * noise
    rng = np.random.default_rng(SEED)
    for i in range(WIDE_BATCHES):
        starts = train.sample_batch(rng, ds.n_steps, s.batch_size, s.window_steps,
                                    s.supervise_stride)
        loss, grad = train.batch_gradient(system, wide, ds, starts, *args)
        out[f"wide{i}"] = sha([loss], grad)
    return out


def _arrays(obj) -> list:
    """The arrays of a set-up result, its dataclass fields' in order."""
    if dataclasses.is_dataclass(obj):
        return [a for f in dataclasses.fields(obj) for a in _arrays(getattr(obj, f.name))]
    return [obj]


def plain_digests(study, data) -> dict:
    basis = getattr(data, "basis", None)
    val = train.SnapshotDataset(data.times, getattr(data, study.target)).restrict(
        study.train_end, study.val_end)
    traj = integrate_ode(study.baselines(basis)["baseline"], val.states[0],
                         (val.t_start, val.t_end), study.forward_stepper())
    return {"truth": sha(*_arrays(data)), "baseline": sha(traj.eval_many(val.times))}


def differing(a: dict, b: dict) -> list[tuple[str, str]]:
    """The (pair, item) entries whose digests differ between two digest
    documents; an entry that only one of them has differs too."""
    pa, pb = a["pairs"], b["pairs"]
    return [(pair, item) for pair in sorted(set(pa) | set(pb))
            for item in sorted(set(pa.get(pair, {})) | set(pb.get(pair, {})))
            if pa.get(pair, {}).get(item) != pb.get(pair, {}).get(item)]


def compare(path_a: str, path_b: str) -> int:
    """Print the entries that differ between two digest files, and a count;
    1 if any differ, else 0."""
    docs = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    keys = [tuple(doc.get(k) for k in ("seed", "noise", "wide_noise")) for doc in docs]
    if keys[0] != keys[1]:
        print(f"seed/noise/wide_noise differ: {keys[0]} vs {keys[1]}")
        return 1
    diff = differing(*docs)
    for pair, item in diff:
        print(f"{pair} {item}")
    total = len({(p, i) for doc in docs for p, items in doc["pairs"].items() for i in items})
    print(f"{len(diff)} of {total} digests differ")
    return 1 if diff else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", help="the JSON file to write")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare two digest files instead of writing one")
    p.add_argument("--studies", nargs="+", default=list(ex.EXPERIMENTS),
                   choices=ex.EXPERIMENTS, help="studies to digest (default: all)")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.out:
        p.error("one of --out or --compare is required")
    pairs = {}
    for name in args.studies:
        study = ex.get_study(name)
        data = study.setup()
        pairs[f"{name}/plain"] = plain_digests(study, data)
        for kind in ex.CLOSURE_KINDS:
            pairs[f"{name}/{kind}"] = pair_digests(study, data, kind)
    doc = {"seed": SEED, "noise": NOISE, "wide_noise": WIDE_NOISE, "pairs": pairs}
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
