"""``tools/digests.py``, the byte-equality digests, runs and writes its schema."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = {"batch0", "batch1", "batch2", "window", "rollout", "single"} | {
    f"wide{i}" for i in range(16)}


def test_digests_script_on_toy(tmp_path):
    out = tmp_path / "digests.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "tools/digests.py", "--studies", "toy",
                           "--out", str(out)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["seed"] == 7 and doc["noise"] == 0.01 and doc["wide_noise"] == 0.3
    assert set(doc["pairs"]) == {"toy/markovian", "toy/discrete", "toy/distributed"}
    for digests in doc["pairs"].values():
        assert set(digests) == DIGESTS
        assert all(len(h) == 64 and set(h) <= set("0123456789abcdef")
                   for h in digests.values())


def _compare(a, b):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "tools/digests.py", "--compare", str(a), str(b)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)


def test_compare_prints_the_entries_that_differ(tmp_path):
    pairs = {"toy/markovian": {"batch0": "0" * 64, "single": "1" * 64},
             "toy/discrete": {"batch0": "2" * 64, "single": "3" * 64}}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"seed": 7, "noise": 0.01, "pairs": pairs}), encoding="utf-8")
    same = _compare(a, a)
    assert same.returncode == 0 and same.stdout.splitlines() == ["0 of 4 digests differ"]
    moved = json.loads(json.dumps(pairs))
    moved["toy/discrete"]["single"] = "4" * 64
    moved["toy/markovian"]["window"] = "5" * 64
    b.write_text(json.dumps({"seed": 7, "noise": 0.01, "pairs": moved}), encoding="utf-8")
    proc = _compare(a, b)
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == ["toy/discrete single", "toy/markovian window",
                                        "2 of 5 digests differ"]
    # digests made at another perturbation are not compared entry by entry
    b.write_text(json.dumps({"seed": 7, "noise": 0.01, "wide_noise": 0.3, "pairs": pairs}),
                 encoding="utf-8")
    proc = _compare(a, b)
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [
        "seed/noise/wide_noise differ: (7, 0.01, None) vs (7, 0.01, 0.3)"]
