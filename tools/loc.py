"""Line counts of the package source, the measure of its size.

For each file under ``src/neuralclosure`` and in total, prints the lines and
the code lines: the lines that hold a token other than a comment, a
docstring or a line break, found with the tokenizer. A docstring is a
string that is a statement on its own (a module's, a class's or a
function's, or one further down a body); any other string counts every
line it spans::

    python tools/loc.py
"""

from __future__ import annotations

import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent / "src" / "neuralclosure"
LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    tokens = [tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type not in (tokenize.COMMENT, tokenize.NL)]
    lines: set[int] = set()
    for prev, tok, nxt in zip([None] + tokens, tokens, tokens[1:] + [None]):
        if tok.type in LAYOUT:
            continue
        # a string that is a statement on its own
        if (tok.type == tokenize.STRING and (prev is None or prev.type in LAYOUT)
                and (nxt is None or nxt.type in LAYOUT)):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> int:
    files = sorted(ROOT.rglob("*.py"))
    total_lines = total_code = 0
    for path in files:
        text = path.read_text(encoding="utf-8")
        n, code = len(text.splitlines()), code_lines(text)
        total_lines += n
        total_code += code
        print(f"{n:6d} {code:6d}  {path.relative_to(ROOT.parent)}")
    print(f"{total_lines:6d} {total_code:6d}  total ({len(files)} files)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
