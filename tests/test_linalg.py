import numpy as np
import pytest
from hypothesis import given, strategies as st

from neuralclosure.integrate import DenseTrajectory


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
