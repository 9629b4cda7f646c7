"""``tools/loc.py``, the source line counts, on a sample and on the package."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

SAMPLE = '''\
"""A module docstring
over two lines."""

import math  # a comment

# a comment line


def f(x):
    """A function docstring."""  # and a comment
    s = """a string that
is a value"""
    "a string statement further down"
    return (x +
            math.pi)


class C:
    "A class docstring."

    y = 1
'''


def test_code_lines_skip_comments_docstrings_and_blanks():
    # import; def; the two lines of s; the two lines of the return; class; y
    assert loc.code_lines(SAMPLE) == 8
    assert loc.code_lines("") == 0
    assert loc.code_lines('"""only a docstring"""\n') == 0


def test_loc_prints_every_package_file_and_the_total():
    proc = subprocess.run([sys.executable, "tools/loc.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    files = sorted((ROOT / "src" / "neuralclosure").rglob("*.py"))
    assert len(rows) == len(files) + 1
    assert rows[-1][2:] == ["total", f"({len(files)}", "files)"]
    for col in (0, 1):
        assert sum(int(r[col]) for r in rows[:-1]) == int(rows[-1][col])
