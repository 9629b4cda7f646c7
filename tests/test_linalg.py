import numpy as np
import pytest
from hypothesis import given, strategies as st

from neuralclosure.integrate import DenseTrajectory
from neuralclosure.linalg import svd


class TestSvd:
    def test_diagonal(self):
        r = svd(np.diag([3.0, 2.0]))
        np.testing.assert_allclose(r.sigma, [3.0, 2.0], atol=1e-12)

    def test_permutation(self):
        r = svd(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(r.sigma, [1.0, 1.0], atol=1e-12)

    def test_shear(self):
        # singular values solve s^4 - 3 s^2 + 1 = 0: the golden ratio and its inverse
        r = svd(np.array([[1.0, 1.0], [0.0, 1.0]]))
        phi = (1.0 + np.sqrt(5.0)) / 2.0
        np.testing.assert_allclose(r.sigma, [phi, 1.0 / phi], atol=1e-6)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            svd(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            svd(np.empty((0, 3)))

    @given(st.integers(1, 50), st.integers(1, 50), st.integers(0, 2 ** 32 - 1))
    def test_invariants_random(self, m, n, seed):
        A = np.random.default_rng(seed).normal(size=(m, n))
        r = svd(A)
        k = min(m, n)
        assert r.sigma.shape == (k,)
        assert np.all(r.sigma >= 0.0)
        assert np.all(np.diff(r.sigma) <= 1e-12)
        np.testing.assert_allclose(r.U.T @ r.U, np.eye(k), atol=1e-10)
        np.testing.assert_allclose(r.Vt @ r.Vt.T, np.eye(k), atol=1e-10)
        denom = np.linalg.norm(A) or 1.0
        assert np.linalg.norm(r.reconstruct() - A) / denom < 1e-8

    def test_deterministic(self):
        A = np.random.default_rng(7).normal(size=(20, 9))
        r1, r2 = svd(A), svd(A)
        assert np.array_equal(r1.U, r2.U)
        assert np.array_equal(r1.sigma, r2.sigma)
        assert np.array_equal(r1.Vt, r2.Vt)

    def test_energy_fractions(self):
        r = svd(np.diag([3.0, 4.0]))
        np.testing.assert_allclose(r.energy_fractions(), [16.0 / 25.0, 1.0])


class TestHermite:
    """The cubic Hermite piece of a single-step DenseTrajectory."""

    def _seg(self, t0, t1, u0, u1, f0, f1):
        one = lambda v: np.atleast_1d(np.asarray(v, float))
        tr = DenseTrajectory()
        tr.append(t0, t1, one(u0), one(u1), one(f0), one(f1))
        return tr

    def test_constant(self):
        seg = self._seg(0.0, 2.0, 5.0, 5.0, 0.0, 0.0)
        assert seg.eval(1.3)[0] == pytest.approx(5.0, abs=1e-14)

    def test_linear_midpoint(self):
        seg = self._seg(1.0, 3.0, 0.0, 1.0, 0.5, 0.5)
        assert seg.eval(2.0)[0] == pytest.approx(0.5, abs=1e-14)

    def test_cubic_value(self):
        # u(t) = t^3 on [0, 1]
        seg = self._seg(0.0, 1.0, 0.0, 1.0, 0.0, 3.0)
        assert seg.eval(0.5)[0] == pytest.approx(0.125, abs=1e-14)

    def test_exact_at_knots(self):
        seg = self._seg(0.0, 1.0, 0.3, 0.7, -2.0, 4.0)
        assert seg.eval(0.0)[0] == 0.3
        assert seg.eval(1.0)[0] == 0.7

    def test_out_of_domain(self):
        seg = self._seg(0.0, 1.0, 0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            seg.eval(1.5)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            self._seg(1.0, 1.0, 0.0, 0.0, 0.0, 0.0)

    @given(st.tuples(*[st.floats(-3, 3) for _ in range(4)]),
           st.floats(0.05, 1.0), st.floats(0.0, 1.0))
    def test_reproduces_cubics(self, coeffs, width, frac):
        # oracle: direct polynomial evaluation of c0 + c1 t + c2 t^2 + c3 t^3
        c = np.array(coeffs)
        p = lambda t: c[0] + c[1] * t + c[2] * t * t + c[3] * t ** 3
        dp = lambda t: c[1] + 2 * c[2] * t + 3 * c[3] * t * t
        t0, t1 = 0.2, 0.2 + width
        seg = self._seg(t0, t1, p(t0), p(t1), dp(t0), dp(t1))
        t = t0 + frac * width
        assert seg.eval(t)[0] == pytest.approx(p(t), abs=1e-12)
