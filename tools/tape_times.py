"""Microseconds per taped network pass, for every closure network.

For every network of the (study x closure kind) pairs, at seed-7
``initial_params`` plus 0.01 Gaussian noise and normal inputs, it times

* ``tape_us``: ``nn.tape``, the forward pass that keeps the layer caches;
* ``backward_us``: ``nn.backward``, the full reverse pass on that tape;
* ``backward_input_us``: ``nn.backward_input``, the input-only reverse pass;

on one input (``one``, no batch axis) and on a sweep-sized batch
(``sweep``): the rows the adjoint sweep of one training batch tapes the
first network at, 4 * window_steps + 1 times for each of the kind's batch
of windows. A recurrent network takes sequences of
len(delays) + 1. Each figure is the best of ``--repeat`` timings of
``--number`` calls, in microseconds per call. The output is one JSON file::

    PYTHONPATH=src python tools/tape_times.py --out tape_times.json

NumPy only; all studies take about 20 s on a 2-vCPU Xeon VM at the
defaults.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from neuralclosure import experiments as ex, nn

SEED = 7
NOISE = 0.01


def best_us(fn, number: int, repeat: int) -> float:
    """The best of ``repeat`` timings of ``number`` calls of fn, in
    microseconds per call."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, time.perf_counter() - start)
    return best / number * 1e6


def pass_times(net, views, x, t, number: int, repeat: int) -> dict:
    """The three passes' microseconds per call on input x at times t."""
    tp = nn.tape(net, x, views, t)
    w = np.random.default_rng(SEED).standard_normal(tp.y.shape)
    return {"tape_us": best_us(lambda: nn.tape(net, x, views, t), number, repeat),
            "backward_us": best_us(lambda: nn.backward(tp, w), number, repeat),
            "backward_input_us": best_us(lambda: nn.backward_input(tp, w), number, repeat)}


def study_times(name: str, number: int, repeat: int) -> dict:
    study = ex.get_study(name)
    out = {}
    for kind in ex.CLOSURE_KINDS:
        clo = study.closure(kind)
        p0 = ex.initial_params(clo, SEED)
        params = p0 + NOISE * np.random.default_rng(SEED).standard_normal(p0.size)
        s = study.settings(kind, seed=SEED)
        rows = (4 * s.window_steps + 1) * s.batch_size
        # the last network reads the state alone: its channels give the points
        points = study.state_dim // clo.nets[-1].input_spec[1]
        seq = (len(clo.delays) + 1,) if kind == "discrete" else ()
        blocks = np.split(params, np.cumsum([net.n_params for net in clo.nets])[:-1])
        for i, (net, block) in enumerate(zip(clo.nets, blocks)):
            views = net.unpack(block)
            layout, ch = net.input_spec
            element = (ch,) if layout == "dense" else (points, ch)
            rng = np.random.default_rng(SEED + i)
            entry = {"net": net.describe()}
            for size, lead in (("one", ()), ("sweep", (rows,))):
                x = rng.standard_normal(seq + lead + element)
                t = np.linspace(0.0, study.train_end, rows) if lead else 0.5 * study.train_end
                entry[size] = {"rows": rows if lead else 1,
                               **pass_times(net, views, x, t, number, repeat)}
            out[f"{name}/{kind}/{i}"] = entry
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="the JSON file to write")
    p.add_argument("--studies", nargs="+", default=list(ex.EXPERIMENTS),
                   choices=ex.EXPERIMENTS, help="studies to time (default: all)")
    p.add_argument("--number", type=int, default=20, help="calls per timing")
    p.add_argument("--repeat", type=int, default=5, help="timings per figure")
    args = p.parse_args(argv)
    if args.number < 1 or args.repeat < 1:
        p.error("--number and --repeat must be positive")
    nets = {}
    for name in args.studies:
        nets.update(study_times(name, args.number, args.repeat))
    doc = {"seed": SEED, "noise": NOISE, "number": args.number, "repeat": args.repeat,
           "networks": nets}
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
