"""Alternating A/B runs of the benchmark in two checkouts.

Runs each checkout's own ``perfbench/run.py --trace 0`` once per seed, base
and change one after the other, swapping which side goes first from one seed
to the next, so both sides see the same drift in host speed. Writes one JSON
file with each checkout's ``git describe``, every run's result, and per
metric the medians and quartiles of both sides and the number of pairs the
change won::

    python tools/ab.py --base ../parent --change . --workload train-grid \\
        --seeds 3 5 7 11 13 17 --seconds 50 --out ab-grid.json

Which way a metric is better comes from ``BENCHMARK.json`` in the change
checkout. The runs are sequential, in child processes that are waited for;
a failed run is recorded with its exit code and stderr, and the pair it
belongs to counts for neither side.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

SIDES = ("base", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``checkout``: its result line, or the
    exit code and stderr of a run that failed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                              timeout=20 * seconds + 600)
    except subprocess.TimeoutExpired as err:   # run() has killed and reaped it
        return {"exit": "timeout", "stderr": str(err), "wall_s": time.perf_counter() - start}
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        return {"exit": proc.returncode, "stderr": proc.stderr[-2000:], "wall_s": wall}
    result = json.loads(proc.stdout.splitlines()[-1])
    return {"exit": 0, "wall_s": wall, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "units": {k: v["unit"] for k, v in result["metrics"].items()}}


def describe(checkout: Path) -> str:
    """``git describe --always --dirty`` of ``checkout``, or ``unknown``."""
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                              capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 and proc.stdout.strip() else "unknown"


def summarize(runs: list[dict], better: dict) -> dict:
    """Per metric: both sides' median and quartiles, the change's median over
    the base's, and the pairs the change won (None where the direction is
    not known)."""
    pairs = {}
    for r in runs:
        pairs.setdefault(r["pair"], {})[r["side"]] = r
    done = [p for p in pairs.values()
            if all(p.get(side, {}).get("exit") == 0 for side in SIDES)]
    names = set.intersection(*[set(p[side]["metrics"]) for p in done for side in SIDES]
                             ) if done else set()
    out = {}
    for name in sorted(names):
        vals = {side: np.array([p[side]["metrics"][name] for p in done]) for side in SIDES}
        entry = {"unit": done[0]["change"]["units"][name], "better": better.get(name),
                 "pairs": len(done)}
        for side in SIDES:
            q1, med, q3 = np.percentile(vals[side], [25, 50, 75])
            entry[side] = {"median": med, "q1": q1, "q3": q3}
        base_med = entry["base"]["median"]
        entry["change_over_base"] = entry["change"]["median"] / base_med if base_med else None
        sign = {"higher": 1.0, "lower": -1.0}.get(entry["better"])
        entry["change_won"] = (None if sign is None else
                               int(np.sum(sign * (vals["change"] - vals["base"]) > 0)))
        out[name] = entry
    return out


def table(summary: dict) -> str:
    lines = [f"{'metric':22} {'base':>12} {'change':>12} {'ratio':>7} {'won':>6}"]
    for name, e in summary.items():
        ratio = e["change_over_base"]
        won = "-" if e["change_won"] is None else f"{e['change_won']}/{e['pairs']}"
        lines.append(f"{name:22} {e['base']['median']:12.4g} {e['change']['median']:12.4g} "
                     f"{'-' if ratio is None else f'{ratio:.3f}':>7} {won:>6}")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, type=Path, help="checkout of the parent")
    p.add_argument("--change", required=True, type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=int, nargs="+")
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    args = p.parse_args(argv)
    checkouts = {"base": args.base.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            p.error(f"--{side} {path}: no perfbench/run.py")
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    runs = []
    for i, seed in enumerate(args.seeds):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            run = run_once(checkouts[side], args.workload, seed, args.seconds)
            runs.append({"pair": i, "seed": seed, "side": side, **run})
            print(f"seed {seed} {side}: exit {run['exit']}, {run['wall_s']:.1f} s",
                  file=sys.stderr)
    summary = summarize(runs, better)
    doc = {"workload": args.workload, "seconds": args.seconds, "seeds": args.seeds,
           "checkouts": {k: describe(v) for k, v in checkouts.items()},
           "runs": runs, "summary": summary}
    args.out.write_text(json.dumps(doc, indent=1, default=float) + "\n", encoding="utf-8")
    print(table(summary))
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
