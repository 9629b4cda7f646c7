"""``tools/tape_times.py``, the taped-pass timings, runs and writes its schema."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PASSES = {"tape_us", "backward_us", "backward_input_us"}


def test_tape_times_script_on_toy(tmp_path):
    out = tmp_path / "tape_times.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "tools/tape_times.py", "--studies", "toy",
                           "--number", "1", "--repeat", "1", "--out", str(out)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["seed"] == 7 and doc["noise"] == 0.01
    assert doc["number"] == 1 and doc["repeat"] == 1
    # one network per closure kind, two for the distributed closure
    assert set(doc["networks"]) == {"toy/markovian/0", "toy/discrete/0",
                                    "toy/distributed/0", "toy/distributed/1"}
    for entry in doc["networks"].values():
        assert set(entry) == {"net", "one", "sweep"} and entry["net"]
        # 4 * 6 + 1 times for each of the toy study's batch of two windows
        assert entry["one"]["rows"] == 1 and entry["sweep"]["rows"] == 50
        for size in ("one", "sweep"):
            times = {k: v for k, v in entry[size].items() if k != "rows"}
            assert set(times) == PASSES
            assert all(isinstance(v, float) and v > 0.0 for v in times.values())
