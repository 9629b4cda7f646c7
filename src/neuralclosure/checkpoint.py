"""Self-describing text checkpoints.

A checkpoint freezes everything a training run needs to continue exactly:
the architecture fingerprint, the flat parameter vector, the optimizer
accumulator, and the batch-sampler RNG state. Values are written with
``repr`` (shortest exact round-trip), so loading and resuming reproduces
the next update bit for bit on the same build. The sectioned text format
is written by :func:`write_sections` and read by :func:`read_sections`;
the POD basis file shares both.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .train import RmspropState

FORMAT_LINE = "# neural closure checkpoint v1"


@dataclass
class Checkpoint:
    experiment: str
    kind: str
    arch: str                 # describe() of the trained closure
    config_sha: str
    epoch: int
    params: np.ndarray
    opt_s: np.ndarray
    opt_step: int
    rng_state: dict | None = None

    @property
    def arch_sha(self) -> str:
        return hashlib.sha256(self.arch.encode()).hexdigest()

    def opt_state(self) -> RmspropState:
        return RmspropState(s=self.opt_s.copy(), step=self.opt_step)

    def rng(self) -> np.random.Generator | None:
        if self.rng_state is None:
            return None
        bg = np.random.PCG64()
        bg.state = self.rng_state
        return np.random.Generator(bg)


def _floats(v: np.ndarray) -> list[str]:
    return [repr(float(x)) for x in v]


def dump_checkpoint(ck: Checkpoint) -> str:
    head = {"experiment": ck.experiment, "closure": ck.kind, "epoch": ck.epoch,
            "opt_step": ck.opt_step, "n_params": ck.params.size, "arch": ck.arch,
            "arch_sha256": ck.arch_sha, "config_sha256": ck.config_sha}
    sections = {"params": _floats(ck.params), "opt_s": _floats(ck.opt_s)}
    if ck.rng_state is not None:
        sections["rng"] = [json.dumps(ck.rng_state, sort_keys=True)]
    return write_sections(FORMAT_LINE, head, sections)


@contextlib.contextmanager
def atomic_open(path):
    """Text file handle whose content replaces ``path`` only once the block
    completes; a write that fails part way leaves the previous file intact.

    The content goes to ``<path>.tmp`` in the same directory first and is
    moved over ``path`` with ``os.replace``, which is atomic.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path, ck: Checkpoint) -> None:
    with atomic_open(path) as fh:
        fh.write(dump_checkpoint(ck))


def write_sections(format_line: str, head: dict, sections: dict) -> str:
    """The text :func:`read_sections` reads: the format line, a ``key =
    value`` line per header entry, then per section a blank line, its
    ``[name]`` and its lines."""
    lines = [format_line, *(f"{key} = {val}" for key, val in head.items())]
    for name, body in sections.items():
        lines += ["", f"[{name}]", *body]
    return "\n".join(lines) + "\n"


def read_sections(text: str, format_line: str, what: str, fields: tuple,
                  names: tuple) -> tuple[dict, dict]:
    """The sectioned text format of checkpoints and basis files: a format
    line, ``key = value`` header lines, then ``[name]`` sections of one
    entry per line; blank lines are skipped. Returns the header and the
    sections (name -> stripped lines). Raises ValueError, its message led
    by ``what``, on a wrong format line, a header line without ``=``, or a
    missing header field in ``fields`` or section in ``names``."""
    lines = text.splitlines()
    if not lines or lines[0] != format_line:
        raise ValueError(f"{what}: bad format line")
    head: dict[str, str] = {}
    sections: dict[str, list[str]] = {}
    current = None
    for line in lines[1:]:
        s = line.strip()
        if not s:
            continue
        if s.startswith("[") and s.endswith("]"):
            current = sections[s[1:-1]] = []
        elif current is not None:
            current.append(s)
        else:
            key, eq, val = s.partition("=")
            if not eq:
                raise ValueError(f"{what}: bad header line {line!r}")
            head[key.strip()] = val.strip()
    for need in fields:
        if need not in head:
            raise ValueError(f"{what}: missing header field {need!r}")
    for need in names:
        if need not in sections:
            raise ValueError(f"{what}: missing [{need}] section")
    return head, sections


def parse_checkpoint(text: str) -> Checkpoint:
    head, sections = read_sections(
        text, FORMAT_LINE, "checkpoint",
        ("experiment", "closure", "epoch", "opt_step", "n_params", "arch", "config_sha256"),
        ("params", "opt_s"))
    params = np.array([float(x) for x in sections["params"]])
    opt_s = np.array([float(x) for x in sections["opt_s"]])
    n = int(head["n_params"])
    if params.size != n or opt_s.size != n:
        raise ValueError(f"checkpoint expects {n} parameters, got "
                         f"{params.size} params / {opt_s.size} opt entries")
    rng_state = None
    if "rng" in sections:
        rng_state = json.loads("\n".join(sections["rng"]))
    ck = Checkpoint(experiment=head["experiment"], kind=head["closure"],
                    arch=head["arch"], config_sha=head["config_sha256"],
                    epoch=int(head["epoch"]), params=params, opt_s=opt_s,
                    opt_step=int(head["opt_step"]), rng_state=rng_state)
    if "arch_sha256" in head and head["arch_sha256"] != ck.arch_sha:
        raise ValueError("checkpoint architecture fingerprint mismatch")
    return ck


def load_checkpoint(path) -> Checkpoint:
    with open(path, encoding="utf-8") as fh:
        return parse_checkpoint(fh.read())


def check_compatible(ck: Checkpoint, closure, kind: str, experiment: str) -> None:
    """Refuse to resume against a different run description."""
    if ck.experiment != experiment:
        raise ValueError(f"checkpoint is for {ck.experiment}, not {experiment}")
    if ck.kind != kind:
        raise ValueError(f"checkpoint closure kind {ck.kind} != {kind}")
    if ck.arch != closure.describe():
        raise ValueError("checkpoint architecture does not match the config")
