"""Study registry checks: architectures, data pipelines, training recipes."""

import numpy as np
import pytest

from neuralclosure import experiments as ex
from neuralclosure import nn
from neuralclosure.closure import constant_history, forward_augmented
from neuralclosure.integrate import integrate_ode
from neuralclosure.models import biology, column
from neuralclosure.train import iterations_per_epoch


@pytest.fixture(scope="module")
def toy_data():
    return ex.get_study("toy").setup()


@pytest.fixture(scope="module")
def rom_data():
    return ex.get_study("exp1_rom").setup()


@pytest.fixture(scope="module")
def subgrid_data():
    return ex.get_study("exp2_subgrid").setup()


@pytest.fixture(scope="module")
def bio0d_data():
    return ex.get_study("exp3a_bio0d").setup()


@pytest.fixture(scope="module")
def bio1d_data():
    return ex.get_study("exp3b_bio1d").setup()


# ---------------------------------------------------------------------------
# Architectures
# ---------------------------------------------------------------------------


def test_parameter_counts_match_table():
    for (name, kind), want in ex.PARAMETER_COUNTS.items():
        clo = ex.get_study(name).closure(kind)
        assert ex.closure_parameter_count(clo) == want, (name, kind)


def test_toy_parameter_counts():
    toy = ex.get_study("toy")
    assert ex.closure_parameter_count(toy.closure("markovian")) == 22
    assert ex.closure_parameter_count(toy.closure("discrete")) == 38
    assert ex.closure_parameter_count(toy.closure("distributed")) == 47


def test_closure_kind_dispatch_and_overrides():
    study = ex.get_study("exp1_rom")
    clo = study.closure("discrete", delays=(0.1, 0.2))
    assert clo.delays == (0.1, 0.2)
    dist = study.closure("distributed", window=(0.0, 0.3))
    assert dist.window == (0.0, 0.3)
    with pytest.raises(ValueError):
        study.closure("fancy")
    with pytest.raises(ValueError):
        ex.get_study("exp9")


def test_initial_params_zero_the_output_layer():
    study = ex.get_study("exp3a_bio0d")
    clo = study.closure("markovian")
    params = ex.initial_params(clo, seed=0)
    x = np.array([0.4, 0.3, 0.2])
    assert np.all(nn.forward(clo.net, x, params) == 0.0)
    # hidden layers stay live
    assert np.any(params != 0.0)


def test_initial_params_distributed_keeps_memory_net_live():
    study = ex.get_study("toy")
    clo = study.closure("distributed")
    params = ex.initial_params(clo, seed=0)
    theta = params[:clo.f_net.n_params]
    phi = params[clo.f_net.n_params:]
    x = np.array([0.2, -0.1, 0.0, 0.05])
    assert np.all(nn.forward(clo.f_net, x, theta) == 0.0)
    assert np.any(nn.forward(clo.g_net, x[:2], phi) != 0.0)


def test_column_context_channels():
    study = ex.get_study("exp3b_bio1d")
    ch = study.context_channels()(0.0)
    assert ch.shape == (20, 2)
    # depth channel: z / |total depth|, in (-1, 0)
    assert np.all(ch[:, 0] < 0.0) and np.all(ch[:, 0] > -1.0)
    assert np.all(np.diff(ch[:, 0]) < 0.0)
    # light channel: positive, attenuating downward, O(1) at the surface
    assert np.all(ch[:, 1] > 0.0)
    assert np.all(np.diff(ch[:, 1]) < 0.0)
    assert ch[0, 1] < 2.0


# ---------------------------------------------------------------------------
# Training recipes
# ---------------------------------------------------------------------------


def test_iterations_per_epoch_for_all_experiments():
    # train-window snapshot counts come from span / dt_data
    expect = {"exp1_rom": 18, "exp2_subgrid": 4, "exp3a_bio0d": 26,
              "exp3b_bio1d": 8}
    for name, want in expect.items():
        study = ex.get_study(name)
        n_steps = round(study.train_end / study.dt_data)
        got = iterations_per_epoch(n_steps, study.batch_size("discrete"))
        assert got == want, name
    study = ex.get_study("exp3b_bio1d")
    n_steps = round(study.train_end / study.dt_data)
    assert iterations_per_epoch(n_steps, study.batch_size("distributed")) == 14


def test_settings_carry_study_defaults():
    study = ex.get_study("exp2_subgrid")
    s = study.settings("discrete", seed=5)
    assert (s.epochs, s.batch_size, s.lr0) == (250, 8, 0.075)
    assert s.seed == 5
    s2 = study.settings("discrete", epochs=7)
    assert s2.epochs == 7


def test_loss_specs():
    assert ex.get_study("exp1_rom").loss_spec().positivity_weight == 0.0
    l3a = ex.get_study("exp3a_bio0d").loss_spec()
    assert l3a.n_depth == 1 and l3a.positivity_weight == 1.0
    l3b = ex.get_study("exp3b_bio1d").loss_spec()
    assert l3b.n_depth == 20


def test_uniform_times_rejects_ragged_span():
    with pytest.raises(ValueError):
        ex.uniform_times(1.03, 0.05)
    t = ex.uniform_times(2.0, 0.01)
    assert t.size == 201 and t[0] == 0.0 and t[-1] == 2.0


# ---------------------------------------------------------------------------
# Reference data
# ---------------------------------------------------------------------------


def test_toy_truth_matches_analytic_solution(toy_data):
    # u' = -u + c from u0: u(t) = c + (u0 - c) exp(-t)
    c = np.array([0.5, -0.3])
    u0 = np.array([1.0, -0.5])
    want = c + (u0 - c) * np.exp(-toy_data.times)[:, None]
    assert np.max(np.abs(toy_data.states - want)) < 1e-8


def test_rom_pipeline_shapes_and_spectrum(rom_data):
    assert rom_data.times.shape == (601,)
    assert rom_data.coeffs.shape == (601, 3)
    assert rom_data.basis.n_modes == 3
    # three modes hold most of the variance but a thin slice of the spectrum
    assert rom_data.basis.energy_fraction() > 0.85
    assert 0.55 < rom_data.basis.singular_value_fraction() < 0.67


def test_rom_truth_starts_from_filtered_state(rom_data):
    # the reference run starts on the modal subspace, so projecting and
    # reconstructing its initial state is a no-op
    from neuralclosure.models import burgers
    study = ex.get_study("exp1_rom")
    grid = burgers.BurgersGrid(study.n_fine)
    u0 = burgers.initial_condition(grid.x, study.re)
    filt = rom_data.basis.reconstruct(rom_data.basis.project(u0))
    assert np.allclose(rom_data.basis.project(filt), rom_data.coeffs[0],
                       atol=1e-10)


def test_subgrid_pipeline_consistency(subgrid_data):
    assert subgrid_data.fine_states.shape == (401, 100)
    assert subgrid_data.coarse_states.shape == (401, 25)
    want = subgrid_data.fine_states.reshape(401, 25, 4).mean(axis=2)
    assert np.max(np.abs(subgrid_data.coarse_states - want)) < 1e-14


def test_bio0d_pipeline(bio0d_data):
    assert bio0d_data.full_states.shape == (6601, 5)
    assert bio0d_data.agg_states.shape == (6601, 3)
    agg = bio0d_data.agg_states
    full = bio0d_data.full_states
    # detritus remineralizes, so it aggregates into the nutrient pool
    assert np.allclose(agg[:, 0], full[:, 0] + full[:, 1] + full[:, 4],
                       atol=1e-12)
    assert np.allclose(agg[:, 1], full[:, 2], atol=1e-12)
    assert np.allclose(agg[:, 2], full[:, 3], atol=1e-12)
    totals = full.sum(axis=1)
    assert np.max(np.abs(totals - totals[0])) / totals[0] < 1e-8


def test_bio1d_pipeline(bio1d_data):
    assert bio1d_data.full_states.shape == (3641, 100)
    assert bio1d_data.agg_states.shape == (3641, 60)
    f = bio1d_data.full_states.reshape(3641, 20, 5)
    a = bio1d_data.agg_states.reshape(3641, 20, 3)
    assert np.allclose(a[..., 0], f[..., 0] + f[..., 1] + f[..., 4],
                       atol=1e-12)
    assert np.allclose(a[..., 1], f[..., 2], atol=1e-12)
    assert np.allclose(a[..., 2], f[..., 3], atol=1e-12)


def test_setup_is_deterministic(toy_data):
    again = ex.get_study("toy").setup()
    assert np.array_equal(again.states, toy_data.states)


# ---------------------------------------------------------------------------
# Augmented systems
# ---------------------------------------------------------------------------


def test_rom_system_base_is_galerkin(rom_data):
    study = ex.get_study("exp1_rom")
    clo = study.closure("markovian")
    sys_ = study.system(clo, rom_data.basis)
    a = rom_data.coeffs[40]
    gal = study.galerkin(rom_data.basis)
    assert np.array_equal(sys_.base_rhs(0.0, a), gal.rhs(0.0, a))
    assert sys_.n_params == 158


def test_bio0d_system_growth_is_frozen():
    study = ex.get_study("exp3a_bio0d")
    # box-model growth: G at the configured mid-depth under mean light
    assert study.growth() == pytest.approx(
        float(biology.growth_G(study.params)), abs=0.0)
    clo = study.closure("discrete")
    sys_ = study.system(clo)
    u = np.array([0.5, 0.3, 0.2])
    r = sys_.base_rhs(0.0, u)
    assert r.shape == (3,) and abs(r.sum()) < 1e-14


def test_rom_networks_follow_n_modes():
    study = ex.get_study("exp1_rom", n_modes=4)
    data = study.setup()
    assert data.coeffs.shape == (601, 4)
    for kind in ex.CLOSURE_KINDS:
        clo = study.closure(kind)
        params = ex.initial_params(clo, seed=1)
        params = params + 0.1 * np.random.default_rng(1).standard_normal(params.size)
        run = forward_augmented(study.system(clo, data.basis), params, (0.0, 0.2),
                                study.forward_stepper(),
                                history=constant_history(data.coeffs[0]))
        assert run.u_at(0.2).shape == (4,) and np.all(np.isfinite(run.u_at(0.2))), kind


@pytest.mark.parametrize("name,sizes", [
    ("exp2_subgrid", {"n_coarse": 20}),
    ("exp2_subgrid", {"n_fine": 200}),
    ("exp3b_bio1d", {"cfg": column.ColumnConfig(n_z=10)}),
])
def test_state_columns_follow_sizes(name, sizes):
    # a short reference run: only the table widths matter here
    study = ex.get_study(name, predict_end=0.5 if name == "exp3b_bio1d" else 0.05,
                         **sizes)
    data = study.setup()
    target = study.state_columns("target")
    assert len(target) == len(set(target)) == study.state_dim
    assert getattr(data, study.target).shape[1] == study.state_dim
    full = study.state_columns("full")
    assert len(full) == len(set(full)) == getattr(data, study.reference[1]).shape[1]


def test_subgrid_rejects_a_coarse_grid_that_does_not_divide_the_fine_one():
    # 100 // 40 box-averages pairs into 50 cells, not the 40 the names say
    with pytest.raises(ValueError, match="multiple"):
        ex.get_study("exp2_subgrid", n_coarse=40)


def test_zero_closure_is_neutral_toy(toy_data):
    study = ex.get_study("toy")
    for kind in ex.CLOSURE_KINDS:
        clo = study.closure(kind)
        sys_ = study.system(clo)
        params = ex.initial_params(clo, seed=2)
        hist = constant_history(toy_data.states[0])
        run = forward_augmented(sys_, params, (0.0, 1.0),
                                study.forward_stepper(), history=hist)
        base = integrate_ode(study.base_rhs(), toy_data.states[0], (0.0, 1.0),
                             study.forward_stepper())
        for t in np.linspace(0.0, 1.0, 6):
            assert np.max(np.abs(run.u_at(t) - base.eval(t))) < 1e-12


def test_smagorinsky_baseline_differs_from_plain(subgrid_data):
    study = ex.get_study("exp2_subgrid")
    rhss = study.baselines()
    u = subgrid_data.coarse_states[100]
    plain = rhss["baseline"](0.5, u)
    smag = rhss["smagorinsky"](0.5, u)
    assert np.max(np.abs(smag - plain)) > 1e-6
