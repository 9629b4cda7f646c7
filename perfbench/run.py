"""Training-throughput and rollout benchmark of neuralclosure.

    python3 perfbench/run.py --workload train-dense --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` next
to this directory. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it is a JSON report with the environment, per-pair figures, the
end-to-end metrics from raw wall times (the result states them at a
reference host speed) and the correctness-check values. See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

# Small arrays: BLAS threads only add overhead and noise. Set before NumPy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
# Largest time per traced operation allowed outside its top-level span (the
# span's own entry and exit take tens of microseconds).
SPAN_GAP_S = 1e-3
# Fixed work of a traced run, per workload: units x (training rounds,
# rollout rounds). Each unit runs untraced, then traced, so both passes see
# the same mix of host speeds.
TRACE_ROUNDS = {"train-dense": (4, (4, 1)), "train-grid": (2, (1, 1)),
                "smoke": (2, (1, 1))}


def _import_package():
    if not (SRC / "neuralclosure" / "__init__.py").is_file():
        sys.exit(f"error: no neuralclosure package under {SRC}; "
                 "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import neuralclosure
    if Path(neuralclosure.__file__).resolve().parent != SRC / "neuralclosure":
        sys.exit(f"error: imported neuralclosure from {neuralclosure.__file__}, "
                 f"not from {SRC}")


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": seed,
        "loadavg_start": os.getloadavg(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_times(workload, seed):
    """Build the workload's inputs SETUP_REPEATS times; returns the pairs and
    the build times, raw and at the reference speed."""
    from workloads import Calibration, build
    calibration = Calibration()
    raw, cal = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        pairs = build(workload, seed)
        raw.append(time.perf_counter() - start)
        cal.append(raw[-1] * calibration.factor())
    return pairs, raw, cal


def untraced(args, report):
    from workloads import TRAIN_ROUNDS, Ops, checks, end_to_end, timed_phases
    pairs, setup_raw, setup_cal = setup_times(args.workload, args.seed)
    ops = Ops()
    timed_phases(ops, pairs, (TRAIN_ROUNDS[args.workload], None), budget_s=args.seconds)
    e2e, report["detail"] = end_to_end(pairs, setup_raw, setup_cal)
    report["checks"] = checks(ops, pairs)
    e2e["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return ops, e2e


def traced(args, report):
    """Fixed work, alternately untraced and traced; per-layer metrics."""
    from tracer import Tracer, installed, truth_counted, wrap_system
    from workloads import Ops, build, checks, end_to_end, timed_phases
    units, rounds = TRACE_ROUNDS[args.workload]
    tracer = Tracer()
    start = time.perf_counter()
    pairs = build(args.workload, args.seed)    # also warms up what set-up loads
    setups = [time.perf_counter() - start]
    tracer.group = "setup"
    with truth_counted(tracer), tracer.span("experiments.setup"):
        build(args.workload, args.seed)

    ops, traced_ops = Ops(), Ops(tracer)
    plain = [p.system for p in pairs]
    wrapped = [wrap_system(tracer, p.system) for p in pairs]
    top0 = tracer.top_level_s
    untraced_wall = wall = 0.0
    for _ in range(units):
        untraced_wall += timed_phases(ops, pairs, rounds)
        for p, system in zip(pairs, wrapped):
            p.system = system
        with installed(tracer):
            wall += timed_phases(traced_ops, pairs, rounds)
        for p, system in zip(pairs, plain):
            p.system = system
    top_level = tracer.top_level_s - top0
    unwrapped = wall - top_level

    ops.attempted += traced_ops.attempted
    ops.failed += traced_ops.failed
    ops.notes += traced_ops.notes
    _, report["detail"] = end_to_end(pairs, setups, setups)
    report["checks"] = checks(ops, pairs)

    def calls(name, prefix=""):
        return tracer.total(name, lambda g: g.startswith(prefix) and g != "setup", 0)

    def inclusive(name, prefix=""):
        return tracer.total(name, lambda g: g.startswith(prefix) and g != "setup", 1)

    def self_s(name):
        return tracer.total(name, lambda g: g != "setup", 2)

    def ratio(a, b):
        return a / b if b else 0.0

    steps = tracer.counts["integrate.steps"]
    adj_steps = tracer.counts["closure.adjoint.steps"]
    m = {}
    for name in ("nn.forward", "nn.rnn_forward", "nn.vjp"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    for name in ("nn.forward", "nn.vjp"):
        m[f"{name}.us_per_call"] = (1e6 * ratio(self_s(name), calls(name)), "us")
    for name in ("models.rhs", "models.vjp"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["integrate.solves"] = (calls("integrate.solve"), "count")
    m["integrate.steps"] = (steps, "count")
    m["integrate.self_s"] = (self_s("integrate.solve"), "s")
    m["integrate.rhs_per_step"] = (ratio(calls("closure.rhs"), steps), "ratio")
    m["integrate.dense_eval.calls"] = (calls("integrate.dense_eval"), "count")
    m["integrate.dense_eval.self_s"] = (self_s("integrate.dense_eval"), "s")
    m["integrate.dense_eval.us_per_call"] = (
        1e6 * ratio(self_s("integrate.dense_eval"), calls("integrate.dense_eval")), "us")
    m["closure.forward.self_s"] = (self_s("closure.forward") + self_s("closure.rhs"), "s")
    m["closure.adjoint.calls"] = (calls("closure.adjoint"), "count")
    m["closure.adjoint.self_s"] = (self_s("closure.adjoint"), "s")
    m["closure.adjoint.steps"] = (adj_steps, "count")
    m["closure.adjoint.vjp_per_step"] = (ratio(calls("nn.vjp"), adj_steps), "ratio")
    m["closure.adjoint_over_forward"] = (ratio(
        inclusive("closure.adjoint", "train:"), inclusive("closure.forward", "train:")),
        "ratio")
    m["train.steps"] = (calls("train.train") - traced_ops.train_failed, "count")
    m["train.windows"] = (calls("closure.adjoint", "train:"), "count")
    m["train.self_s"] = (self_s("train.train"), "s")
    m["train.update.self_s"] = (self_s("train.update"), "s")
    m["train.history.self_s"] = (self_s("train.history"), "s")
    m["train.failed"] = (traced_ops.train_failed, "count")
    m["train.rollout.self_s"] = (self_s("train.rollout"), "s")
    m["experiments.setup.self_s"] = (tracer.total("experiments.setup", None, 2), "s")
    m["experiments.truth_steps"] = (tracer.counts["experiments.truth_steps"], "count")
    m["trace.overhead_frac"] = (traced_ops.cal_total_s / ops.cal_total_s - 1.0, "ratio")
    m["trace.wall_s"] = (wall, "s")
    m["trace.unwrapped_s"] = (unwrapped, "s")

    # The top-level spans must cover the traced operations as the benchmark
    # times them itself; a lost or misnested span leaves a whole operation out.
    ops.attempted += 1
    span_gap = traced_ops.op_s - top_level
    if not 0.0 <= span_gap <= SPAN_GAP_S * traced_ops.attempted:
        ops.fail(f"top-level spans {top_level} s, traced operations "
                 f"{traced_ops.op_s} s")
    report["trace"] = {
        "units": units, "rounds_per_unit": rounds,
        "untraced_wall_s": untraced_wall, "traced_wall_s": wall,
        "span_gap_us_per_op": 1e6 * span_gap / traced_ops.attempted,
        # an identity: self times always sum to the top-level span time
        "self_s_plus_unwrapped_s": unwrapped + sum(
            rec[2] for (g, _), rec in tracer.stats.items() if g != "setup"),
        # share of the timed steps spent in train()'s per-call set-up,
        # rebuilding the train-span interpolant
        "step_history_share": ratio(inclusive("train.history", "train:"),
                                    inclusive("train.train", "train:")),
        "window_ms": {p.name: _window_ms(tracer, p) for p in pairs},
    }
    spans_dir = ROOT / ".bench_out"
    spans_dir.mkdir(exist_ok=True)
    spans_path = spans_dir / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    report["trace"]["spans_file"] = str(spans_path.relative_to(ROOT))
    return ops, m


def _window_ms(tracer, pair):
    """closure.forward + closure.adjoint per training window (traced, ms)."""
    group = f"train:{pair.name}"
    windows = tracer.stats[(group, "closure.adjoint")][0]
    if not windows:
        return None
    fwd = 1e3 * tracer.stats[(group, "closure.forward")][1] / windows
    adj = 1e3 * tracer.stats[(group, "closure.adjoint")][1] / windows
    return {"forward": fwd, "adjoint": adj, "window": fwd + adj}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("train-dense", "train-grid", "smoke"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    _import_package()

    report = {"workload": args.workload, "traced": bool(args.trace),
              "env": environment(args.seed)}
    ops, metrics = (traced if args.trace else untraced)(args, report)
    report["failed_frac"] = ops.failed / ops.attempted
    report["failures"] = ops.notes
    print(json.dumps({"report": report}, default=float))
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
