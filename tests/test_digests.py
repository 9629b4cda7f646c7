"""``tools/digests.py``, the byte-equality digests, runs and writes its schema."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = {"batch0", "batch1", "batch2", "window", "rollout", "single"}


def test_digests_script_on_toy(tmp_path):
    out = tmp_path / "digests.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "tools/digests.py", "--studies", "toy",
                           "--out", str(out)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["seed"] == 7 and doc["noise"] == 0.01
    assert set(doc["pairs"]) == {"toy/markovian", "toy/discrete", "toy/distributed"}
    for digests in doc["pairs"].values():
        assert set(digests) == DIGESTS
        assert all(len(h) == 64 and set(h) <= set("0123456789abcdef")
                   for h in digests.values())
