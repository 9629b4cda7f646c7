"""Self-test of the benchmark: the ``smoke`` workload, untraced and traced.

    python3 perfbench/selftest.py

``smoke`` trains and rolls out the toy study with all three closure kinds
through the same code path as the real workloads, in a few seconds. The test
checks that each mode exits 0, reports every operation correct, and prints
exactly the metrics ``BENCHMARK.json`` lists for that mode, with their units.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_smoke(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke", "--seed", "0",
         "--seconds", "2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"--trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = run_smoke(trace)
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            problems.append(f"--trace {trace}: result keys {sorted(result)}")
        if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
            problems.append(f"--trace {trace}: correct={result['correct']} "
                            f"failed={result['failed']}/{result['attempted']}")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            units = {k: (got[k], want[k]) for k in got.keys() & want.keys()
                     if got[k] != want[k]}
            problems.append(f"--trace {trace}: metrics differ from {key}: "
                            f"missing {sorted(set(want) - set(got))}, "
                            f"extra {sorted(set(got) - set(want))}, units {units}")
    for p in problems:
        print("FAIL", p)
    if not problems:
        print("PASS smoke workload, untraced and traced")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
