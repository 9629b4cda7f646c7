"""Span tracing of the neuralclosure layers, installed from outside the package.

Each wrapped function records one span (name, start, end, parent) per call.
Spans are aggregated as they close: per (group, name) the call count, the
inclusive time and the self time (duration minus the time covered by child
spans). ``group`` is set by the benchmark to tell phases and (study, kind)
pairs apart. The first KEEP_SPANS raw spans are also kept for writing out.

Wrappers patch each name where its caller looks it up, so nothing under
``src/`` changes:

* ``nn.forward``, ``nn.rnn_forward``, ``nn.vjp`` (``closure`` calls them
  through the ``nn`` module);
* ``DenseTrajectory.eval`` on the class;
* ``closure.integrate_ode`` / ``closure.integrate_dde``; the right-hand side
  handed to them is wrapped too, as ``closure.rhs``;
* ``train.forward_augmented``, ``train.adjoint_gradient``,
  ``train.rmsprop_update``; ``SnapshotDataset.history_fn`` on the class, as
  ``train.history`` (``train`` rebuilds the train-span interpolant per call);
* ``experiments.integrate_ode`` (:func:`truth_counted`, installed only while
  set-up is traced; it counts truth steps and records no span, so the truth
  solve stays in ``experiments.setup``'s self time).

Base-model RHS/VJP are wrapped per system with :func:`wrap_system`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import time
from collections import Counter, defaultdict

from neuralclosure import closure, experiments, integrate, nn, train

KEEP_SPANS = 20000


class Tracer:
    def __init__(self):
        self.group = ""
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts = Counter()
        self.spans = []          # (id, parent id, group, name, start, end)
        self._stack = []         # open frames: [id, start, child time]
        self.top_level_s = 0.0   # time inside spans that have no parent
        self._next_id = 0

    def _open(self):
        self._next_id += 1
        frame = [self._next_id, 0.0, 0.0]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _close(self, name, frame):
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame[1]
        rec = self.stats[(self.group, name)]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame[2]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        else:
            self.top_level_s += dur
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((frame[0], parent[0] if parent else 0,
                               self.group, name, frame[1], end))

    @contextlib.contextmanager
    def span(self, name):
        frame = self._open()
        try:
            yield
        finally:
            self._close(name, frame)

    def wrap(self, name, fn, after=None):
        """``fn`` recording a span per call; ``after(result)`` runs outside it."""
        def traced(*args, **kwargs):
            frame = self._open()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(name, frame)
            if after is not None:
                after(out)
            return out
        return traced

    # -- aggregates ------------------------------------------------------

    def total(self, name, groups=None, field=1):
        """Sum of one stats field (0 calls, 1 inclusive s, 2 self s)."""
        return sum(rec[field] for (g, n), rec in self.stats.items()
                   if n == name and (groups is None or groups(g)))

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, parent, group, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "group": group,
                                     "name": name, "start": start, "end": end}))
                fh.write("\n")


def wrap_system(tracer: Tracer, system):
    """The system with its base-model RHS and VJP traced as ``models.*``."""
    return dataclasses.replace(
        system,
        base_rhs=tracer.wrap("models.rhs", system.base_rhs),
        base_vjp=tracer.wrap("models.vjp", system.base_vjp))


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every traced name for the duration of the block."""
    def count(key, n):
        tracer.counts[key] += n

    def solve_ode(fn):
        def patched(rhs, *args, **kwargs):
            return fn(tracer.wrap("closure.rhs", rhs), *args, **kwargs)
        return tracer.wrap("integrate.solve", patched,
                           after=lambda traj: count("integrate.steps", len(traj)))

    def solve_dde(fn):
        def patched(prob, *args, **kwargs):
            prob = dataclasses.replace(prob, rhs=tracer.wrap("closure.rhs", prob.rhs))
            return fn(prob, *args, **kwargs)
        return tracer.wrap("integrate.solve", patched,
                           after=lambda traj: count("integrate.steps", len(traj)))

    patches = [
        (nn, "forward", lambda f: tracer.wrap("nn.forward", f)),
        (nn, "rnn_forward", lambda f: tracer.wrap("nn.rnn_forward", f)),
        (nn, "vjp", lambda f: tracer.wrap("nn.vjp", f)),
        (integrate.DenseTrajectory, "eval",
         lambda f: tracer.wrap("integrate.dense_eval", f)),
        (closure, "integrate_ode", solve_ode),
        (closure, "integrate_dde", solve_dde),
        (train, "forward_augmented", lambda f: tracer.wrap("closure.forward", f)),
        (train, "adjoint_gradient", lambda f: tracer.wrap(
            "closure.adjoint", f,
            after=lambda adj: count("closure.adjoint.steps", len(adj.adjoint_traj)))),
        (train, "rmsprop_update", lambda f: tracer.wrap("train.update", f)),
        (train.SnapshotDataset, "history_fn", lambda f: tracer.wrap("train.history", f)),
    ]
    with _patched(patches):
        yield tracer


@contextlib.contextmanager
def truth_counted(tracer: Tracer):
    """Count the steps of every truth solve made by ``experiments``."""
    def make(fn):
        def patched(*args, **kwargs):
            traj = fn(*args, **kwargs)
            tracer.counts["experiments.truth_steps"] += len(traj)
            return traj
        return patched

    with _patched([(experiments, "integrate_ode", make)]):
        yield tracer


@contextlib.contextmanager
def _patched(patches):
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for (owner, attr, make), (_, _, orig) in zip(patches, saved):
            setattr(owner, attr, make(orig))
        yield
    finally:
        for owner, attr, orig in saved:
            setattr(owner, attr, orig)
