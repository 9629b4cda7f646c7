"""``tools/ab.py``, the alternating A/B benchmark runner, on the smoke workload."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (90001, 90002)
E2E = {"windows_per_s", "step_ms_p50", "step_ms_tail", "rollout_steps_per_s",
       "peak_rss_mb", "setup_s"}


def _running_benchmarks() -> list[str]:
    """Command lines of live processes that run this test's benchmark seeds."""
    found = []
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            args = cmdline.read_bytes().split(b"\0")
        except OSError:
            continue
        if b"perfbench/run.py" in args and any(str(s).encode() in args for s in SEEDS):
            found.append(b" ".join(args).decode(errors="replace"))
    return found


def test_ab_on_the_same_tree_writes_its_schema(tmp_path):
    out = tmp_path / "ab.json"
    proc = subprocess.run(
        [sys.executable, "tools/ab.py", "--base", ".", "--change", str(ROOT),
         "--workload", "smoke", "--seeds", *map(str, SEEDS), "--seconds", "1",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert _running_benchmarks() == []
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert set(doc) == {"workload", "seconds", "seeds", "checkouts", "runs", "summary"}
    assert doc["workload"] == "smoke" and doc["seeds"] == list(SEEDS)
    # each checkout as git describes it, no directory of this host
    git = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                         capture_output=True, text=True)
    name = git.stdout.strip() if git.returncode == 0 else "unknown"
    assert doc["checkouts"] == {"base": name, "change": name}
    assert str(ROOT) not in out.read_text(encoding="utf-8")
    # one run per side and seed, the first side alternating
    assert [(r["pair"], r["seed"], r["side"]) for r in doc["runs"]] == [
        (0, SEEDS[0], "base"), (0, SEEDS[0], "change"),
        (1, SEEDS[1], "change"), (1, SEEDS[1], "base")]
    for run in doc["runs"]:
        assert run["exit"] == 0 and run["correct"] and run["failed"] == 0
        assert set(run["metrics"]) == E2E
    assert set(doc["summary"]) == E2E
    for name, entry in doc["summary"].items():
        assert entry["pairs"] == 2 and entry["better"] in ("higher", "lower")
        assert 0 <= entry["change_won"] <= 2
        for side in ("base", "change"):
            q = entry[side]
            assert q["q1"] <= q["median"] <= q["q3"]
        assert entry["change_over_base"] > 0
    assert "windows_per_s" in proc.stdout
