import numpy as np
import pytest

from oracles import rk4_dde_scalar

from neuralclosure.integrate import (
    DdeProblem,
    DenseTrajectory,
    DormandPrince54,
    IntegrationError,
    RK4Fixed,
    _rk4_calls,
    integrate_dde,
    integrate_ode,
    quadrature_nodes,
    trapezoid_weights,
)


def decay(t, u):
    return -u


class TestDenseTrajectory:
    def test_append_and_eval(self):
        tr = DenseTrajectory()
        one = lambda v: np.array([float(v)])
        tr.append(0.0, 1.0, one(0), one(1), one(1), one(1))
        tr.append(1.0, 2.0, one(1), one(2), one(1), one(1))
        assert tr.t_start == 0.0 and tr.t_end == 2.0
        assert tr.eval(0.5)[0] == pytest.approx(0.5, abs=1e-14)
        assert tr.eval(1.5)[0] == pytest.approx(1.5, abs=1e-14)

    def test_exact_at_knots(self):
        tr = DenseTrajectory()
        one = lambda v: np.array([float(v)])
        tr.append(0.0, 0.3, one(2.0), one(-1.0), one(5.0), one(7.0))
        assert tr.eval(0.0)[0] == 2.0
        assert tr.eval(0.3)[0] == -1.0

    def test_noncontiguous_rejected(self):
        tr = DenseTrajectory()
        one = lambda v: np.array([float(v)])
        tr.append(0.0, 1.0, one(0), one(1), one(1), one(1))
        with pytest.raises(ValueError):
            tr.append(1.5, 2.0, one(1), one(2), one(1), one(1))

    def test_backward_chain_last_appended_wins(self):
        # backward store with a jump at the shared knot t=1
        tr = DenseTrajectory()
        one = lambda v: np.array([float(v)])
        tr.append(2.0, 1.0, one(0.0), one(0.5), one(0), one(0))
        tr.append(1.0, 0.0, one(1.5), one(1.5), one(0), one(0))  # post-jump value
        assert not tr.ascending
        assert tr.t_start == 2.0 and tr.t_end == 0.0
        assert tr.eval(1.0)[0] == 1.5
        assert tr.eval(1.5)[0] == pytest.approx(0.25, rel=1e-12)

    def test_out_of_domain(self):
        tr = DenseTrajectory()
        one = lambda v: np.array([float(v)])
        tr.append(0.0, 1.0, one(0), one(1), one(1), one(1))
        with pytest.raises(ValueError):
            tr.eval(1.2)

    @pytest.mark.parametrize("ascending", [True, False])
    def test_ulp_past_either_end_reads_that_end(self, ascending):
        # shifted query times (t + h - tau, t + tau) overshoot an end by an
        # ulp in rounding; such a query reads the stored end state exactly
        tr = DenseTrajectory()
        one = lambda v: np.array([float(v)])
        knots = [0.1, 0.45, 0.7] if ascending else [0.7, 0.45, 0.1]
        vals = [one(0.3), one(-1.7), one(2.9)]
        for i in range(2):
            tr.append(knots[i], knots[i + 1], vals[i], vals[i + 1], one(5.0), one(-3.0))
        for t, v in ((knots[0], vals[0]), (knots[-1], vals[-1])):
            outward = np.inf if t == max(knots) else -np.inf
            assert tr.eval(np.nextafter(t, outward))[0] == v[0]
            with pytest.raises(ValueError):
                tr.eval(t + 1e-6 if outward > 0 else t - 1e-6)

    @pytest.mark.parametrize("ascending", [True, False])
    def test_eval_many_is_stacked_eval(self, ascending):
        # knots, interior points and ulp-past-end queries, in any order; the
        # values jump at every shared knot, where the later step's value wins
        # (on a backward store, the post-jump value)
        rng = np.random.default_rng(4)
        knots = np.array([0.0, 0.3, 0.55, 1.0])
        if not ascending:
            knots = knots[::-1]
        tr = DenseTrajectory()
        steps = [rng.normal(size=(4, 2)) for _ in range(3)]  # u, u_next, f, f_next
        for i, step in enumerate(steps):
            tr.append(knots[i], knots[i + 1], *step)
        assert tr.eval(0.3).tobytes() == steps[1 if ascending else 2][0].tobytes()
        lo, hi = np.nextafter(0.0, -1.0), np.nextafter(1.0, 2.0)
        ts = np.concatenate([knots, [0.1, 0.8, 0.42, lo, hi], rng.uniform(0.0, 1.0, 7)])
        want = np.stack([tr.eval(t) for t in ts])
        assert tr.eval_many(ts).tobytes() == want.tobytes()
        assert tr.eval_many(list(ts)).tobytes() == want.tobytes()
        for bad in (-1e-6, 1.0 + 1e-6):
            with pytest.raises(ValueError):
                tr.eval_many([0.5, bad])

    def test_through_matches_appended_steps_with_batched_values(self):
        # a chain built in one call equals one built step by step, past the
        # arrays' first growth, and a (B, d) trailing shape evaluates per row
        # like B separate chains
        rng = np.random.default_rng(6)
        t = np.cumsum(rng.uniform(0.1, 0.5, 40))
        u = rng.normal(size=(40, 3, 2))
        f = rng.normal(size=(40, 3, 2))
        built = DenseTrajectory.through(t, u, f)
        stepped = DenseTrajectory()
        for i in range(39):
            stepped.append(t[i], t[i + 1], u[i], u[i + 1], f[i], f[i + 1])
        assert len(built) == len(stepped) == 39
        assert built.knots().tobytes() == stepped.knots().tobytes() == t.tobytes()
        ts = np.concatenate([t[::3], rng.uniform(t[0], t[-1], 9)])
        many = built.eval_many(ts)
        assert many.tobytes() == stepped.eval_many(ts).tobytes()
        assert many.tobytes() == np.stack([stepped.eval(s) for s in ts]).tobytes()
        for b in range(3):
            row = DenseTrajectory.through(t, u[:, b], f[:, b])
            assert row.eval_many(ts).tobytes() == many[:, b].copy().tobytes()
        with pytest.raises(ValueError):
            stepped.append(t[-1], t[-1] + 1.0, np.zeros(2), np.zeros(2), np.zeros(2),
                           np.zeros(2))


class TestIntegrateOde:
    def test_zero_rhs_constant(self):
        tr = integrate_ode(lambda t, u: np.zeros_like(u), np.array([3.0, -1.0]),
                           (0.0, 1.0), RK4Fixed(0.1))
        np.testing.assert_allclose(tr.eval(0.77), [3.0, -1.0], atol=1e-14)

    def test_exp_decay_dopri(self):
        tr = integrate_ode(decay, np.array([1.0]), (0.0, 1.0),
                           DormandPrince54(rtol=1e-10, atol=1e-10, dt_init=0.1))
        assert tr.eval(1.0)[0] == pytest.approx(np.exp(-1.0), abs=1e-8)

    def test_polynomial_exact_rk4(self):
        tr = integrate_ode(lambda t, u: np.array([1.0, 2.0]), np.zeros(2),
                           (0.0, 2.0), RK4Fixed(0.5))
        np.testing.assert_allclose(tr.eval(2.0), [2.0, 4.0], atol=1e-13)

    def test_cubic_exact_rk4(self):
        # RK4's quadrature is Simpson's rule: exact for u' = 3 t^2
        tr = integrate_ode(lambda t, u: np.array([3.0 * t * t]), np.zeros(1),
                           (0.0, 1.0), RK4Fixed(0.25))
        assert tr.eval(1.0)[0] == pytest.approx(1.0, abs=1e-13)

    def test_rk4_fourth_order(self):
        errs = []
        for dt in (0.1, 0.05):
            tr = integrate_ode(decay, np.array([1.0]), (0.0, 1.0), RK4Fixed(dt))
            errs.append(abs(tr.eval(1.0)[0] - np.exp(-1.0)))
        ratio = errs[0] / errs[1]
        assert 14.0 <= ratio <= 18.0

    def test_dopri_tolerance_scaling(self):
        errs = []
        for tol in (1e-6, 1e-8):
            tr = integrate_ode(decay, np.array([1.0]), (0.0, 1.0),
                               DormandPrince54(rtol=tol, atol=tol, dt_init=0.2))
            errs.append(abs(tr.eval(1.0)[0] - np.exp(-1.0)))
        assert errs[0] / max(errs[1], 1e-300) >= 10.0

    def test_blowup_detected(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationError):
                integrate_ode(lambda t, u: u * u, np.array([10.0]), (0.0, 5.0),
                              RK4Fixed(0.1))

    def test_max_steps(self):
        with pytest.raises(IntegrationError):
            integrate_ode(decay, np.array([1.0]), (0.0, 1.0),
                          DormandPrince54(rtol=1e-13, atol=1e-13, dt_init=1e-6,
                                          max_steps=10))

    def test_start_exact(self):
        u0 = np.array([0.123456789])
        tr = integrate_ode(decay, u0, (0.0, 1.0), RK4Fixed(0.1))
        assert tr.eval(0.0)[0] == u0[0]


class TestIntegrateDde:
    def test_analytic_linear_piece(self):
        # u' = -u(t-1), history 1: u = 1 - t on [0, 1]
        prob = DdeProblem(rhs=lambda t, u, d: -d[0], delays=(1.0,),
                          history=lambda t: np.array([1.0]))
        tr = integrate_dde(prob, (0.0, 1.0),
                           DormandPrince54(rtol=1e-10, atol=1e-10, dt_init=0.1))
        assert abs(tr.eval(1.0)[0]) < 1e-9

    def test_analytic_quadratic_piece(self):
        # on [1, 2]: u = 1 - t + (t-1)^2/2, so u(2) = -0.5
        prob = DdeProblem(rhs=lambda t, u, d: -d[0], delays=(1.0,),
                          history=lambda t: np.array([1.0]))
        tr = integrate_dde(prob, (0.0, 2.0),
                           DormandPrince54(rtol=1e-10, atol=1e-10, dt_init=0.1))
        assert tr.eval(2.0)[0] == pytest.approx(-0.5, abs=1e-8)

    def test_constant_with_delays(self):
        prob = DdeProblem(rhs=lambda t, u, d: np.zeros_like(u),
                          delays=(0.3, 0.7), history=lambda t: np.array([4.2]))
        tr = integrate_dde(prob, (0.0, 2.0), RK4Fixed(0.1))
        assert tr.eval(2.0)[0] == pytest.approx(4.2, abs=1e-13)

    def test_rk4_matches_analytic(self):
        prob = DdeProblem(rhs=lambda t, u, d: -d[0], delays=(1.0,),
                          history=lambda t: np.array([1.0]))
        tr = integrate_dde(prob, (0.0, 2.0), RK4Fixed(0.01))
        assert abs(tr.eval(1.0)[0]) < 1e-9
        assert tr.eval(2.0)[0] == pytest.approx(-0.5, abs=1e-8)

    def test_two_delays(self):
        # u' = -u(t-1) + u(t-2), history 1: on [0,1] u = 1 - t + t = 1
        prob = DdeProblem(rhs=lambda t, u, d: -d[0] + d[1], delays=(1.0, 2.0),
                          history=lambda t: np.array([1.0]))
        tr = integrate_dde(prob, (0.0, 1.0), RK4Fixed(0.05))
        assert tr.eval(1.0)[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("stepper", [RK4Fixed(0.07),
                                         DormandPrince54(rtol=1e-7, atol=1e-7, dt_init=0.05)])
    def test_ode_is_the_zero_delay_dde(self, stepper):
        # a delay longer than the span neither caps the step nor adds a
        # breakpoint, so an RHS that ignores its delayed argument gives the
        # ODE solution segment for segment, bit for bit
        def rhs(t, u):
            return np.array([np.sin(u[1]) - 0.5 * u[0] * u[0], np.cos(t) * u[0]])

        u0 = np.array([0.8, -0.3])
        prob = DdeProblem(rhs=lambda t, u, d: rhs(t, u), delays=(2.5,),
                          history=lambda t: u0)
        dde = integrate_dde(prob, (0.0, 2.0), stepper)
        ode = integrate_ode(rhs, u0, (0.0, 2.0), stepper)
        assert len(dde) == len(ode) > 5
        knots = ode.knots()
        assert dde.knots().tobytes() == knots.tobytes()
        # knot values, and interior points that read the stored slopes too
        for t in np.concatenate([knots, knots[:-1] + np.diff(knots) * 0.3,
                                 knots[:-1] + np.diff(knots) * 0.8]):
            assert dde.eval(t).tobytes() == ode.eval(t).tobytes()

    @pytest.mark.parametrize("delays, dt", [
        ((0.1, 0.25), 0.05),         # multiples of the step
        ((0.13, 0.37), 0.05),        # not multiples
        ((0.1, 0.37, 3.0), 0.05),    # one of each, and one longer than the span
        ((0.07, 0.2), 0.1),          # a delay shorter than dt caps the step
    ])
    def test_read_ahead_is_the_scalar_lookup_solve(self, delays, dt, monkeypatch):
        # the planned block reads give the knots, values and slopes of a solve
        # that reads each delayed state with its own scalar eval, bit for bit
        def rhs(t, u, d):
            return np.array([-d[0][1] + 0.5 * np.sin(d[-1][0]), u[0] * np.cos(t) - d[0][0]])

        def history(t):
            return np.array([np.cos(t), np.sin(2.0 * t)])

        evals = []
        scalar_eval = DenseTrajectory.eval
        monkeypatch.setattr(DenseTrajectory, "eval",
                            lambda tr, t: evals.append(t) or scalar_eval(tr, t))
        ts, us, ks = rk4_dde_scalar(rhs, delays, history, 0.0, 2.0, dt)
        oracle_evals = len(evals)
        evals.clear()
        tr = integrate_dde(DdeProblem(rhs=rhs, delays=delays, history=history),
                           (0.0, 2.0), RK4Fixed(dt))
        assert len(evals) < oracle_evals / 4
        assert tr.knots().tobytes() == ts.tobytes()
        m = ts.size
        assert tr._u[:m].tobytes() == us.tobytes()
        assert tr._f[:m].tobytes() == ks.tobytes()

    def test_read_times_are_the_solve_reads(self, monkeypatch):
        # the plan holds every time t - tau the scalar-lookup solve reads
        reads = []
        scalar_eval = DenseTrajectory.eval
        monkeypatch.setattr(DenseTrajectory, "eval",
                            lambda tr, t: reads.append(t) or scalar_eval(tr, t))
        history = lambda t: reads.append(t) or np.array([1.0])
        rk4_dde_scalar(lambda t, u, d: -d[0] + 0.1 * d[1], (0.07, 0.2), history,
                       0.0, 1.0, 0.05)
        plan = np.unique(np.subtract.outer(np.unique(_rk4_calls(0.0, 1.0, 0.05)), (0.07, 0.2)))
        assert plan.tolist() == sorted(set(reads[1:]))  # reads[0] is u(t0)

    def test_delay_validation(self):
        with pytest.raises(ValueError):
            DdeProblem(rhs=lambda t, u, d: u, delays=(0.5, 0.5),
                       history=lambda t: np.array([1.0]))
        with pytest.raises(ValueError):
            DdeProblem(rhs=lambda t, u, d: u, delays=(-0.1,),
                       history=lambda t: np.array([1.0]))


def _trapezoid(f, a, b, n_panels):
    """The composite trapezoid rule of f over [a, b]: weights @ node values."""
    ts = quadrature_nodes(a, b, n_panels)
    return trapezoid_weights(ts) @ np.array([f(t) for t in ts])


class TestQuadrature:
    """The trapezoid rule as the y(t0) history term applies it: node weights
    on uniform nodes."""

    def test_affine_exact(self):
        for n in (1, 3, 10):
            assert _trapezoid(lambda x: 2.0 - 3.0 * x, -1.0, 0.5, n) == \
                pytest.approx(2.0 * 1.5 - 1.5 * (0.25 - 1.0), abs=1e-14)

    def test_weights_sum_to_interval_length(self):
        for a, b, n in ((0.0, 1.0, 1), (-0.5, 0.0, 64), (2.0, 7.0, 13)):
            assert trapezoid_weights(quadrature_nodes(a, b, n)).sum() == \
                pytest.approx(b - a, abs=1e-14)

    def test_sin(self):
        assert _trapezoid(np.sin, 0.0, np.pi, 1000) == pytest.approx(2.0, abs=1e-5)

    def test_empty_interval(self):
        wts = trapezoid_weights(quadrature_nodes(1.0, 1.0, 5))
        assert wts.shape == (6,) and np.all(wts == 0.0)
        assert wts @ np.sin(np.full(6, 1.0)) == 0.0

    def test_vector_integrand(self):
        out = _trapezoid(lambda x: np.array([1.0, x]), 0.0, 2.0, 4)
        np.testing.assert_allclose(out, [2.0, 2.0], atol=1e-14)

    def test_convergence_rate(self):
        errs = [abs(_trapezoid(np.sin, 0.0, np.pi, n) - 2.0) for n in (100, 200)]
        assert 3.5 <= errs[0] / errs[1] <= 4.5
