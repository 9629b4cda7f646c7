"""Adjoint gates on the shipped architectures, and the adjoint's tape budget.

* A directional finite-difference check of ``train.window_gradient`` for
  every (experiment x closure) pair at the study's own steppers: the
  loss at p +- eps*v from forward solves alone against grad . v. This covers
  the conv-RNN cell, ``AddExtraChannels``, ``BioConstrain``, the grid
  reshapes and the Burgers, Galerkin and column VJPs inside full sweeps.
* Tape counts per adjoint sweep on the toy study: every network forward pass
  of a sweep is built once per (network, stage time), an advanced time that
  rounding moved off a stage time reuses that time's tape, and there is one
  full reverse pass per knot (two at interior jump knots) while every other
  stage runs input-only.
"""

from collections import Counter

import numpy as np
import pytest

from neuralclosure import closure, experiments as ex, nn, train
from neuralclosure.integrate import RK4Fixed

# Training target of each study's set-up result.
TARGET = {"toy": "states", "exp1_rom": "coeffs", "exp2_subgrid": "coarse_states",
          "exp3a_bio0d": "agg_states", "exp3b_bio1d": "agg_states"}

FD_EPS = 1e-5
# |fd - adjoint| / max(|fd|, |adjoint|). The adjoint is the continuous one,
# integrated by RK4, so it differs from the exact gradient of the discrete
# forward solve by the discretisation error: the ratio runs from 1.5e-6
# (exp1_rom distributed) to 2.2e-4 (exp3b_bio1d distributed). Dropping the
# discrete advanced terms gives 1.3e-3 (exp1_rom) and 2.4e-3 (toy); on the
# grid studies their share of one window's gradient is below 1e-4.
FD_TOL = 1e-3
# Scale of the fixed perturbation added to initial_params: it makes every
# layer live and the closure large enough for its memory terms to show.
PERTURBATION = 0.3


@pytest.fixture(scope="module", params=sorted(TARGET))
def study_case(request):
    """One study built once per module: (study, data, train dataset, history)."""
    study = ex.get_study(request.param)
    data = study.setup()
    full = train.SnapshotDataset(data.times, getattr(data, TARGET[study.name]))
    train_ds = full.restrict(0.0, study.train_end)
    return study, data, train_ds, train_ds.history_fn()


def _live_params(clo, seed):
    """initial_params plus a fixed perturbation, so no layer is zeroed out."""
    p0 = ex.initial_params(clo, seed)
    return p0 + PERTURBATION * np.random.default_rng(seed).standard_normal(p0.size)


@pytest.mark.parametrize("kind", ex.CLOSURE_KINDS)
def test_window_gradient_matches_directional_fd(study_case, kind):
    study, data, ds, history = study_case
    clo = study.closure(kind)
    sys = study.system(clo, getattr(data, "basis", None))
    s = study.settings(kind)
    params = _live_params(clo, 11)
    start = int(train.admissible_starts(ds.n_steps, s.window_steps,
                                        s.supervise_stride)[3])
    loss_spec, stepper = study.loss_spec(), study.forward_stepper()
    _, grad = train.window_gradient(sys, params, ds, start, s, loss_spec,
                                    stepper, history)
    sl = slice(start + s.supervise_stride, start + s.window_steps + 1,
               s.supervise_stride)
    sup = train.SnapshotDataset(ds.times[sl], ds.states[sl])
    span = (float(ds.times[start]), float(ds.times[start + s.window_steps]))

    def loss(p):
        return closure.run_loss(sys, p, span, sup, loss_spec, stepper,
                                history=history, u0=ds.states[start])[0]

    v = np.random.default_rng(12).standard_normal(params.size)
    v /= np.linalg.norm(v)
    fd = (loss(params + FD_EPS * v) - loss(params - FD_EPS * v)) / (2.0 * FD_EPS)
    ad = float(grad @ v)
    assert np.all(np.isfinite(grad))
    assert abs(fd - ad) <= FD_TOL * max(abs(fd), abs(ad)), (fd, ad)


# ---------------------------------------------------------------------------
# Tape budget of one sweep
# ---------------------------------------------------------------------------


@pytest.fixture
def counted(monkeypatch):
    """Record (network, time) of every tape, and the (tape, cotangent) of
    every reverse pass with a count per network and kind."""
    calls = {"tapes": [], "passes": Counter(), "pass_keys": []}
    tape, backward, backward_input = nn.tape, nn.backward, nn.backward_input

    def tape_rec(net, x, params, t=None):
        calls["tapes"].append((id(net), t))
        return tape(net, x, params, t)

    def count(name, fn):
        def wrapped(tp, w):
            calls["passes"][(id(tp.net), name)] += 1
            calls["pass_keys"].append((id(tp), np.asarray(w).tobytes()))
            return fn(tp, w)
        return wrapped

    monkeypatch.setattr(nn, "tape", tape_rec)
    monkeypatch.setattr(nn, "backward", count("full", backward))
    monkeypatch.setattr(nn, "backward_input", count("input", backward_input))
    return calls


def _toy_sweep(kind, counted):
    study = ex.get_study("toy")
    data = study.setup()
    clo = study.closure(kind)
    sys = study.system(clo, data)
    ds = train.SnapshotDataset(data.times, data.states).restrict(0.0, study.train_end)
    s = study.settings(kind)
    start = 4
    sl = slice(start + s.supervise_stride, start + s.window_steps + 1,
               s.supervise_stride)
    sup = train.SnapshotDataset(ds.times[sl], ds.states[sl])
    span = (float(ds.times[start]), float(ds.times[start + s.window_steps]))
    params = _live_params(clo, 3)
    run = closure.forward_augmented(sys, params, span, study.forward_stepper(),
                                    history=ds.history_fn(), u0=ds.states[start])
    for record in counted.values():
        record.clear()
    adj = closure.adjoint_gradient(sys, params, run, sup, study.loss_spec(),
                                   RK4Fixed(s.adjoint_dt))
    # every step of the sweep: (t, t_next) from the backward store
    ts = adj.adjoint_traj.knots()
    steps = list(zip(ts[:-1], ts[1:]))
    knots = {t for step in steps for t in step}
    mids = {t + 0.5 * (t_next - t) for t, t_next in steps}
    interior_jumps = [t for t in sup.times if span[0] < t < span[1]]
    return clo, steps, knots, mids, len(interior_jumps), counted


@pytest.mark.parametrize("kind", ex.CLOSURE_KINDS)
def test_sweep_builds_each_tape_once(kind, counted):
    clo, steps, knots, mids, n_jumps, calls = _toy_sweep(kind, counted)
    stage_times = knots | mids
    tapes = calls["tapes"]
    assert len(tapes) == len(set(tapes)), "a tape was built twice"
    main = id(clo.f_net if kind == "distributed" else clo.net)
    # the stage network is taped exactly at the RK4 stage times. The toy's
    # delays are multiples of the half step, so every advanced time t + tau_k
    # is a stage time on paper; some miss it by rounding, and reuse its tape
    if kind == "discrete":
        end = max(knots)
        advanced = {t + tau for t in stage_times for tau in clo.delays if t + tau < end}
        assert advanced - stage_times
        assert all(min(abs(s - t) for t in stage_times) <= 1e-9 for s in advanced)
    assert {t for n, t in tapes if n == main} == stage_times
    # no reverse pass is repeated on the same tape and cotangent
    keys = calls["pass_keys"]
    assert len(keys) == len(set(keys)), "a reverse pass was computed twice"
    # one full reverse pass per knot, two at interior jump knots; the other
    # three stages of every step run input-only
    passes = calls["passes"]
    assert passes[(main, "full")] == len(knots) + n_jumps
    if kind == "discrete":
        # stages 2-4, plus the advanced terms that find no stored pass
        assert passes[(main, "input")] >= 3 * len(steps)
    else:
        assert passes[(main, "input")] == 3 * len(steps)
    if kind == "distributed":
        g = id(clo.g_net)
        tau1, tau2 = clo.window
        assert tau1 == 0.0
        # g is taped at the stage times (the mu(t + tau) terms) and at the
        # window's trailing edge t - tau_2 of each knot (the phi integrand)
        assert {t for n, t in tapes if n == g} == stage_times | {t - tau2 for t in knots}
        # full passes: the phi integrand at t and t - tau_2 per knot, and the
        # y(t0) history term as one pass on the forward run's batched tape
        assert passes[(g, "full")] == 2 * len(knots) + 1
