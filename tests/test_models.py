"""Reference-model checks: discrete operators, Jacobians, conservation."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from neuralclosure import config, experiments as ex, nn
from neuralclosure.integrate import RK4Fixed, integrate_ode
from neuralclosure.models import biology, burgers, column, rom

import oracles
from oracles import central_fd, rel_l2


def _vjp_oracle(f, u, w, eps=1e-6):
    """(J^T w)_j by central differences of w . f(u)."""
    return central_fd(lambda v: float(np.dot(w, f(v))), u, eps=eps)


# ---------------------------------------------------------------------------
# Burgers
# ---------------------------------------------------------------------------


def test_initial_condition_midpoint_value():
    # the two exponentials cancel at x = 1/2, leaving x / 2 exactly
    assert abs(burgers.initial_condition(0.5, 1000.0) - 0.25) < 1e-12
    assert burgers.initial_condition(0.0, 1000.0) == 0.0
    assert abs(burgers.initial_condition(1.0, 1000.0)) < 1e-40


def test_initial_condition_no_overflow_large_re():
    x = np.linspace(0.0, 1.0, 201)
    u = burgers.initial_condition(x, 5000.0)
    assert np.all(np.isfinite(u))
    assert np.max(u) > 0.1


def test_grid_geometry():
    g = burgers.BurgersGrid(4)
    assert g.dx == 0.25
    assert np.allclose(g.x, [0.125, 0.375, 0.625, 0.875])
    with pytest.raises(ValueError):
        burgers.BurgersGrid(1)


def test_derivative_stencils_on_smooth_field():
    # quadratic with zero walls: u = x (1 - x), so u_x = 1 - 2x, u_xx = -2
    g = burgers.BurgersGrid(64)
    u = g.x * (1.0 - g.x)
    d1 = burgers.d1_central(u, g.dx)
    d2 = burgers.d2_central(u, g.dx)
    inner = slice(2, -2)
    assert np.max(np.abs(d1[inner] - (1.0 - 2.0 * g.x[inner]))) < 1e-3
    assert np.max(np.abs(d2[inner] + 2.0)) < 1e-9


def test_rhs_upwind_hand_value():
    # three cells, dx = 1/3, u = [3, 6, 3] all positive: backward differences
    u = np.array([3.0, 6.0, 3.0])
    dx = 1.0 / 3.0
    out = burgers.rhs(0.0, u, nu=0.0, dx=dx)
    # cell 0 sees ghost -3: u_x = (3 - (-3)) * 3 = 18 -> -3 * 18 = -54
    # cell 1: u_x = (6 - 3) * 3 = 9 -> -6 * 9 = -54
    # cell 2: u_x = (3 - 6) * 3 = -9 -> -3 * (-9) = 27
    assert np.allclose(out, [-54.0, -54.0, 27.0])


def test_rhs_vjp_matches_fd():
    rng = np.random.default_rng(5)
    for sign in (1.0, -1.0):
        u = sign * rng.uniform(0.2, 1.0, size=12)
        w = rng.normal(size=12)
        f = lambda v: burgers.rhs(0.0, v, nu=0.01, dx=0.05)
        got = burgers.rhs_vjp(0.0, u, w, nu=0.01, dx=0.05)
        assert rel_l2(got, _vjp_oracle(f, u, w)) < 1e-7


def test_rhs_vjp_mixed_signs_matches_fd():
    rng = np.random.default_rng(6)
    u = rng.uniform(0.3, 1.0, size=10) * np.where(np.arange(10) % 3 == 0, -1, 1)
    w = rng.normal(size=10)
    f = lambda v: burgers.rhs(0.0, v, nu=0.002, dx=0.1)
    got = burgers.rhs_vjp(0.0, u, w, nu=0.002, dx=0.1)
    assert rel_l2(got, _vjp_oracle(f, u, w)) < 1e-7


def test_smagorinsky_vanishes_on_uniform_shear_interior():
    # linear profile: |u_x| constant, flux divergence zero away from walls
    g = burgers.BurgersGrid(32)
    u = 0.7 * g.x
    term = burgers.smagorinsky_term(u, g.dx)
    assert np.max(np.abs(term[3:-3])) < 1e-12
    assert np.all(burgers.smagorinsky_term(np.zeros(32), g.dx) == 0.0)


def test_coarsen_box_average():
    assert np.allclose(burgers.coarsen([1.0, 2.0, 3.0, 4.0], 2), [1.5, 3.5])
    fine = np.arange(100, dtype=float)
    assert burgers.coarsen(fine, 4).shape == (25,)
    with pytest.raises(ValueError):
        burgers.coarsen(np.zeros(10), 3)


def test_front_steepens_and_stays_bounded():
    g = burgers.BurgersGrid(100)
    u0 = burgers.initial_condition(g.x, 1000.0)
    traj = integrate_ode(lambda t, u: burgers.rhs(t, u, 1e-3, g.dx), u0,
                         (0.0, 1.0), RK4Fixed(0.005))
    u1 = traj.eval(1.0)
    assert np.all(np.isfinite(u1))
    assert np.max(np.abs(u1)) < 1.0
    # the viscous front decays the peak slightly but transports it right
    assert np.argmax(u1) > np.argmax(u0)


# ---------------------------------------------------------------------------
# POD and the Galerkin model
# ---------------------------------------------------------------------------


def _snapshot_matrix():
    g = burgers.BurgersGrid(60)
    u0 = burgers.initial_condition(g.x, 500.0)
    traj = integrate_ode(lambda t, u: burgers.rhs(t, u, 1.0 / 500.0, g.dx), u0,
                         (0.0, 1.0), RK4Fixed(0.005))
    times = np.linspace(0.0, 1.0, 41)
    return g, np.stack([traj.eval(t) for t in times])


def test_pod_basis_properties():
    g, snaps = _snapshot_matrix()
    basis = rom.pod(snaps, 3)
    assert basis.modes.shape == (60, 3)
    assert np.allclose(basis.modes.T @ basis.modes, np.eye(3), atol=1e-10)
    assert np.allclose(basis.mean, snaps.mean(axis=0))
    # energy fraction against the full spectrum of the centered matrix
    s = np.linalg.svd(snaps - snaps.mean(axis=0), compute_uv=False)
    expect = np.sum(s[:3] ** 2) / np.sum(s ** 2)
    assert abs(basis.energy_fraction() - expect) < 1e-12
    # projection of a reconstructed state is the identity on coefficients
    a = np.array([0.3, -0.2, 0.05])
    assert np.allclose(basis.project(basis.reconstruct(a)), a, atol=1e-12)


def test_pod_validation():
    with pytest.raises(ValueError):
        rom.pod(np.zeros((1, 5)), 1)
    with pytest.raises(ValueError):
        rom.pod(np.zeros((4, 5)), 5)


def test_pod_rejects_nonfinite():
    with pytest.raises(ValueError):
        rom.pod(np.array([[1.0, np.nan], [0.0, 1.0]]), 1)


@pytest.mark.parametrize("lead", [(), (8,)], ids=["single", "batch8"])
def test_rhs_builds_the_ghosted_field_once(lead):
    # the second difference reads the advection's ghosted field: the same
    # values by the same expression as building it again, bit for bit, on
    # zero, negative and sign-changing fields
    rng = np.random.default_rng(9)
    u = rng.normal(0.0, 1.0, lead + (25,))
    u.reshape(-1)[:4] = [0.0, -0.0, 1e-300, -1e-300]
    dx = burgers.BurgersGrid(25).dx
    for nu in (0.0, 1.0 / 500.0):
        out = burgers.rhs(0.0, u, nu, dx)
        assert out.tobytes() == oracles.burgers_rhs_two_ghosts(u, nu, dx).tobytes()


def test_galerkin_tensors_match_direct_projection():
    g, snaps = _snapshot_matrix()
    basis = rom.pod(snaps, 3)
    model = rom.galerkin_rom(basis, nu=1.0 / 500.0, dx=g.dx)

    def direct(a):
        u = basis.reconstruct(a)
        f = -u * burgers.d1_central(u, g.dx) \
            + (1.0 / 500.0) * burgers.d2_central(u, g.dx)
        return basis.modes.T @ f

    rng = np.random.default_rng(8)
    for _ in range(5):
        a = rng.normal(0.0, 0.5, size=3)
        assert np.max(np.abs(model.rhs(0.0, a) - direct(a))) < 1e-10


def test_galerkin_vjp_matches_fd():
    g, snaps = _snapshot_matrix()
    basis = rom.pod(snaps, 3)
    model = rom.galerkin_rom(basis, nu=1.0 / 500.0, dx=g.dx)
    rng = np.random.default_rng(9)
    a = rng.normal(0.0, 0.5, size=3)
    w = rng.normal(size=3)
    got = model.rhs_vjp(0.0, a, w)
    assert rel_l2(got, _vjp_oracle(lambda v: model.rhs(0.0, v), a, w)) < 1e-8


# ---------------------------------------------------------------------------
# Plankton models
# ---------------------------------------------------------------------------


def test_growth_curve_reference_point():
    # alpha I = 1.5 equals V_m: G = V_m / sqrt(2)
    p = biology.BioParams()
    got = biology.growth_G(p, z=0.0, surface_light=60.0)
    assert abs(got - 1.5 / math.sqrt(2.0)) < 1e-12


def test_growth_formula_and_attenuation():
    p = biology.BioParams()
    I = p.I0 * math.exp(p.k_w * p.z)
    aI = p.alpha_PI * I
    expect = p.V_m * aI / math.sqrt(p.V_m ** 2 + aI ** 2)
    assert abs(biology.growth_G(p) - expect) < 1e-12
    # deeper water sees less light, hence slower growth
    assert biology.growth_G(p, z=-50.0) < biology.growth_G(p, z=-10.0)


def test_npz_rhs_hand_value():
    p = biology.BioParams()
    out = biology.npz_rhs(0.0, np.array([1.0, 1.0, 0.0]), p, G=1.0)
    # uptake = 0.5, no grazing: dN = -0.5 + 0.1, dP = 0.5 - 0.1, dZ = 0
    assert np.allclose(out, [-0.4, 0.4, 0.0], atol=1e-14)


def test_nnpzd_rhs_hand_value():
    p = biology.BioParams()
    u = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
    out = biology.nnpzd_rhs(0.0, u, p, G=1.0)
    assert np.allclose(out, [-0.5, 0.0, 0.4, 0.0, 0.1], atol=1e-14)


@settings(max_examples=25)
@given(hnp.arrays(np.float64, (3,), elements=st.floats(0.001, 30.0)),
       st.floats(0.1, 1.5))
def test_npz_mass_is_conserved_pointwise(u, G):
    out = biology.npz_rhs(0.0, u, biology.BioParams(), G)
    assert abs(np.sum(out)) < 1e-12 * max(1.0, np.max(np.abs(out)))


@settings(max_examples=25)
@given(hnp.arrays(np.float64, (5,), elements=st.floats(0.001, 30.0)),
       st.floats(0.1, 1.5))
def test_nnpzd_mass_is_conserved_pointwise(u, G):
    out = biology.nnpzd_rhs(0.0, u, biology.BioParams(), G)
    assert abs(np.sum(out)) < 1e-12 * max(1.0, np.max(np.abs(out)))


def test_npz_vjp_matches_fd():
    p = biology.BioParams()
    rng = np.random.default_rng(12)
    for _ in range(5):
        u = rng.uniform(0.1, 10.0, size=3)
        w = rng.normal(size=3)
        got = biology.npz_rhs_vjp(0.0, u, w, p, G=0.8)
        oracle = _vjp_oracle(lambda v: biology.npz_rhs(0.0, v, p, G=0.8), u, w)
        assert rel_l2(got, oracle) < 1e-7


def _bio_inputs(rng, lead, n_species):
    """States (lead + (n_species,)) over [0, 30) with +-0.0 and large P
    among them, a cotangent and a growth rate per leading entry (a float
    for a single state)."""
    u = rng.uniform(0.0, 30.0, lead + (n_species,))
    flat = u.reshape(-1, n_species)
    specials = [0.0, -0.0, 1e-300, 800.0, 1e5, -800.0]
    flat[:len(specials), 2 if n_species == 5 else 1] = specials[:flat.shape[0]]
    flat[1::3, 0] = -0.0
    G = float(rng.uniform(0.1, 1.5)) if not lead else rng.uniform(0.1, 1.5, lead)
    return u, rng.normal(size=u.shape), G


@pytest.mark.parametrize("lead", [(), (1,), (7,), (4, 6)])
def test_npz_right_hand_sides_equal_their_former_expressions(lead):
    # each repeated product (Xi * P, Gamma_z * Z, G * P, exp(-Lambda * P))
    # is computed once; the results are the former expressions' byte for byte
    p = biology.BioParams()
    rng = np.random.default_rng(len(lead) + sum(lead))
    u3, w3, G = _bio_inputs(rng, lead, 3)
    u5 = _bio_inputs(rng, lead, 5)[0]
    with np.errstate(all="ignore"):
        pairs = [(biology.npz_rhs(0.0, u3, p, G), oracles.npz_rhs_repeated(0.0, u3, p, G)),
                 (biology.npz_rhs_vjp(0.0, u3, w3, p, G),
                  oracles.npz_rhs_vjp_repeated(0.0, u3, w3, p, G)),
                 (biology.nnpzd_rhs(0.0, u5, p, G), oracles.nnpzd_rhs_repeated(0.0, u5, p, G))]
    for got, want in pairs:
        assert _same(got, want)


def test_aggregation_mapping():
    u = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert np.allclose(biology.aggregate_nnpzd(u), [8.0, 3.0, 4.0])
    batch = np.stack([u, 2.0 * u])
    assert biology.aggregate_nnpzd(batch).shape == (2, 3)
    with pytest.raises(ValueError):
        biology.aggregate_nnpzd(np.zeros(4))


def test_initial_states_consistent():
    p = biology.BioParams()
    u3 = biology.npz_initial(p)
    u5 = biology.nnpzd_initial(p)
    assert abs(np.sum(u3) - p.T_bio) < 1e-12
    assert abs(np.sum(u5) - p.T_bio) < 1e-12
    assert np.allclose(biology.aggregate_nnpzd(u5), u3)
    assert np.allclose(biology.npz_initial(p, total=12.0), [11.85, 0.1, 0.05])


# ---------------------------------------------------------------------------
# Column model
# ---------------------------------------------------------------------------


def _column(kind="npz", n_z=20, bio_on=True):
    return column.ColumnModel(cfg=column.ColumnConfig(n_z=n_z),
                              params=biology.BioParams(),
                              forcing=column.SeasonalForcing(),
                              kind=kind, bio_on=bio_on)


def test_mixing_profile_limits_and_monotonicity():
    cfg = column.ColumnConfig()
    assert abs(column.kz_profile(cfg, 0.0, -30.0) - cfg.K_z0) < 1e-12
    assert abs(column.kz_profile(cfg, cfg.depth_total, -30.0) - cfg.K_zb) < 1e-12
    prof = column.kz_profile(cfg, cfg.z_centers, -30.0)
    assert np.all(np.diff(prof) < 0.0)
    assert np.all(prof >= cfg.K_zb - 1e-12) and np.all(prof <= cfg.K_z0 + 1e-12)


@settings(max_examples=25)
@given(hnp.arrays(np.float64, (6, 2), elements=st.floats(-5.0, 5.0)),
       hnp.arrays(np.float64, (5,), elements=st.floats(0.01, 5.0)))
def test_diffusion_conserves_each_species(fields, k_faces):
    out = column.diffusion_term(fields, k_faces, dz=2.0)
    col_sums = np.abs(out.sum(axis=0))
    assert np.all(col_sums < 1e-12 * max(1.0, np.max(np.abs(out))))


def test_diffusion_operator_is_symmetric():
    rng = np.random.default_rng(3)
    k = rng.uniform(0.1, 2.0, size=7)
    a = rng.normal(size=(8, 1))
    b = rng.normal(size=(8, 1))
    Da = column.diffusion_term(a, k, dz=1.5)
    Db = column.diffusion_term(b, k, dz=1.5)
    assert abs(float(a.ravel() @ Db.ravel()) - float(b.ravel() @ Da.ravel())) < 1e-12


def test_column_rhs_conserves_total_mass():
    m = _column()
    u = m.initial_state()
    out = m.rhs(10.0, u)
    assert abs(np.sum(out)) < 1e-10


def test_column_bio_off_conserves_each_species():
    m = _column(bio_on=False)
    rng = np.random.default_rng(7)
    u = rng.uniform(0.1, 5.0, size=m.state_dim)
    out = m.rhs(3.0, u).reshape(m.cfg.n_z, 3)
    assert np.max(np.abs(out.sum(axis=0))) < 1e-12


def test_column_vjp_matches_fd():
    m = _column(n_z=5)
    rng = np.random.default_rng(15)
    u = rng.uniform(0.1, 5.0, size=m.state_dim)
    w = rng.normal(size=m.state_dim)
    got = m.rhs_vjp(2.5, u, w)
    oracle = _vjp_oracle(lambda v: m.rhs(2.5, v), u, w)
    assert rel_l2(got, oracle) < 1e-7


def test_column_initial_profile():
    m = _column()
    u = m.initial_state().reshape(20, 3)
    totals = u.sum(axis=1)
    assert np.allclose(totals, m.cfg.total_biomass())
    assert totals[0] < totals[-1]  # biomass grows with depth
    m5 = _column(kind="nnpzd")
    u5 = m5.initial_state()
    assert u5.shape == (100,)
    assert np.allclose(column.aggregate_column_state(u5, 20), m.initial_state())


def test_column_growth_decreases_with_depth():
    m = _column()
    G = m.growth_profile(0.0)
    assert G.shape == (20,)
    assert np.all(np.diff(G) < 0.0)


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_per_time_caches_key_on_the_shape_of_the_time():
    # 0.0 and [0.0] have the same bytes; a cache keyed on bytes alone hands a
    # (1, n_z - 1) diffusivity to a single column and fails to broadcast
    def make():
        return (_column(n_z=6), _column(kind="nnpzd", n_z=6),
                ex.ColumnStudy(cfg=column.ColumnConfig(n_z=6)).context_channels())

    npz, nnpzd, ctx = make()
    rng = np.random.default_rng(3)
    u3, u5 = rng.uniform(0.1, 5.0, (3, 18)), rng.uniform(0.1, 5.0, (3, 30))
    w = rng.normal(size=(3, 18))
    times = [0.0, np.array([0.0]), np.zeros(3), 0.0, np.array([0.0, 5.0, 0.0]),
             np.float64(5.0), np.array(5.0), np.array([5.0]), 5.0, np.zeros(3), 0.0]
    for t in times:
        rows = slice(0, np.size(t)) if np.ndim(t) else 0
        fresh = make()
        assert _same(npz.rhs(t, u3[rows]), fresh[0].rhs(t, u3[rows]))
        assert _same(npz.rhs_vjp(t, u3[rows], w[rows]),
                     fresh[0].rhs_vjp(t, u3[rows], w[rows]))
        assert _same(nnpzd.rhs(t, u5[rows]), fresh[1].rhs(t, u5[rows]))
        assert _same(ctx(t), fresh[2](t))
        assert ctx(t).shape == np.shape(t) + (6, 2)


def test_cached_column_constants_are_read_only():
    cfg = column.ColumnConfig(n_z=8)
    m = column.ColumnModel(cfg, biology.BioParams(), column.SeasonalForcing())
    m.rhs(1.0, m.initial_state())
    ctx = ex.ColumnStudy(cfg=cfg).context_channels()
    for a in (cfg.z_centers, cfg.z_faces, m.growth_profile(1.0),
              m.k_faces(1.0), m.k_faces(np.ones(2)), ctx(1.0)):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    # the caches sit outside the fields: equality, hashing, repr and replace
    # see only the fields
    fresh = column.ColumnConfig(n_z=8)
    assert cfg == fresh and hash(cfg) == hash(fresh) and repr(cfg) == repr(fresh)
    wider = replace(cfg, n_z=10)
    assert wider == column.ColumnConfig(n_z=10) and wider.z_centers.shape == (10,)
    assert _same(wider.z_faces, column.ColumnConfig(n_z=10).z_faces)


def _forcing_tables(n_z=6):
    """A column model's diffusivity and growth tables and the context
    channels' table, each with its per-time closed form at one float time."""
    m = _column(n_z=n_z)
    cfg, f, prm = m.cfg, m.forcing, m.params
    atten = np.exp(prm.k_w * cfg.z_centers)

    def context(t):
        return np.stack([cfg.z_centers / abs(cfg.depth_total),
                         f.surface_light(t) * atten / f.i0_mean], axis=-1)
    ctx = ex.ColumnStudy(cfg=cfg).context_channels()
    return [(m.k_faces, lambda t: column.kz_profile(cfg, cfg.z_faces, f.thermocline(t))),
            (m.growth_profile, lambda t: biology.light_growth(prm, f.surface_light(t) * atten)),
            (ctx, context)]


@pytest.mark.parametrize("lead", [(), (1,), (4,)], ids=["scalar", "one", "batch"])
def test_a_filled_table_reads_the_per_time_rows(lead):
    # a fill over R times (one per row, or R x members) is one evaluation;
    # each row read back is that time's per-time evaluation, bit for bit
    rng = np.random.default_rng(5)
    offsets = np.concatenate([[0.0], rng.uniform(0.0, 40.0, 3)])[:lead[0]] if lead else 0.0
    times = np.add.outer(np.sort(rng.uniform(0.0, 364.0, 9)), offsets)
    for table, per_time in _forcing_tables():
        table.fill(times)
        for row_t in times:
            got = table(row_t)
            want = (per_time(float(row_t)) if not lead
                    else np.stack([per_time(float(t)) for t in row_t]))
            assert _same(got, want)


def test_a_time_not_in_the_table_is_computed_alone():
    # a time between two filled ones, or the (1,) array of a filled float,
    # is evaluated by itself and becomes the table; no neighbour is read
    for table, per_time in _forcing_tables():
        calls = []
        fn = table.fn
        table.fn = lambda ts: calls.append(np.shape(ts)) or fn(ts)
        ts = np.linspace(0.0, 100.0, 5)
        table.fill(ts)
        lo, hi = table(ts[2]), table(ts[3])
        mid = 0.5 * (ts[2] + ts[3])
        got = table(mid)
        assert _same(got, per_time(mid)) and not _same(got, lo) and not _same(got, hi)
        assert calls == [(5,), ()] and list(table.rows) == [mid]
        one = table(ts[2:3])
        assert one.shape == (1,) + lo.shape and calls[-1] == (1,)
        assert _same(one[0], per_time(ts[2]))
        # 0-d, np.float64 and float times of one value share a row
        table.fill(ts)
        assert table(np.array(ts[1])) is table(float(ts[1])) is table(ts[1])
        assert len(calls) == 4


def test_table_rows_are_read_only_views_of_one_array():
    for table, _ in _forcing_tables():
        times = np.add.outer(np.linspace(1.0, 9.0, 7), np.array([0.0, 0.5]))
        values = table.fill(times)
        assert not values.flags.writeable and len(table.rows) == 7
        for row_t in times:
            row = table(row_t)
            assert row.base is values and np.shares_memory(row, values)
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 0.0


def test_column_caches_leave_the_config_hash_and_fingerprints():
    exp = config.ExperimentConfig("exp3b_bio1d", n_z=8, K_zb=0.05)
    study = exp.study()
    before = (config.config_text(exp), config.config_hash(exp),
              [study.closure(kind).describe() for kind in ex.CLOSURE_KINDS])
    clo = study.closure("markovian")
    nn.forward(clo.net, np.ones((2, 8, 3)), ex.initial_params(clo, 0), np.ones(2))
    study.base()[0](1.0, np.ones(24))
    after = (config.config_text(exp), config.config_hash(exp),
             [study.closure(kind).describe() for kind in ex.CLOSURE_KINDS])
    assert after == before


def test_seasonal_forcing_extremes():
    f = column.SeasonalForcing()
    assert abs(f.thermocline(0.0) - (-10.0)) < 1e-12
    assert abs(f.thermocline(182.0) - (-50.0)) < 1e-12
    assert abs(f.surface_light(0.0) - 158.075 * 1.5) < 1e-9
    assert abs(f.surface_light(182.0) - 158.075 * 0.5) < 1e-9


def test_column_short_run_mass_drift():
    m = _column(n_z=10)
    u0 = m.initial_state()
    traj = integrate_ode(m.rhs, u0, (0.0, 2.0), RK4Fixed(0.02))
    total0 = np.sum(u0)
    total1 = np.sum(traj.eval(2.0))
    assert abs(total1 - total0) < 1e-10 * max(1.0, abs(total0))


def test_column_validation():
    with pytest.raises(ValueError):
        column.ColumnConfig(n_z=1)
    with pytest.raises(ValueError):
        column.ColumnConfig(depth_total=10.0)
    with pytest.raises(ValueError):
        _column(kind="npzd")
    m5 = _column(kind="nnpzd", n_z=4)
    with pytest.raises(NotImplementedError):
        m5.rhs_vjp(0.0, np.ones(20), np.ones(20))
