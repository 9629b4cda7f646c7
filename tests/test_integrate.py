import numpy as np
import pytest

from neuralclosure.integrate import (
    DdeProblem,
    DenseTrajectory,
    DormandPrince54,
    IntegrationError,
    RK4Fixed,
    integrate_dde,
    integrate_ode,
    quadrature,
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

    def test_delay_validation(self):
        with pytest.raises(ValueError):
            DdeProblem(rhs=lambda t, u, d: u, delays=(0.5, 0.5),
                       history=lambda t: np.array([1.0]))
        with pytest.raises(ValueError):
            DdeProblem(rhs=lambda t, u, d: u, delays=(-0.1,),
                       history=lambda t: np.array([1.0]))


class TestQuadrature:
    def test_affine_exact(self):
        for n in (1, 3, 10):
            assert quadrature(lambda x: x, 0.0, 1.0, n) == pytest.approx(0.5, abs=1e-15)

    def test_sin(self):
        assert quadrature(np.sin, 0.0, np.pi, 1000) == pytest.approx(2.0, abs=1e-5)

    def test_empty_interval(self):
        assert quadrature(np.sin, 1.0, 1.0, 5) == 0.0

    def test_vector_integrand(self):
        out = quadrature(lambda x: np.array([1.0, x]), 0.0, 2.0, 4)
        np.testing.assert_allclose(out, [2.0, 2.0], atol=1e-14)

    def test_convergence_rate(self):
        errs = [abs(quadrature(np.sin, 0.0, np.pi, n) - 2.0) for n in (100, 200)]
        assert 3.5 <= errs[0] / errs[1] <= 4.5
