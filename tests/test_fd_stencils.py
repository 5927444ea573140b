import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fd.stencils import (
    AXIS_PH,
    AXIS_R,
    AXIS_TH,
    add_stencil_counts,
    diff,
    diff2,
    reset_stencil_counts,
    stencil_counts,
)


class TestDiffExactness:
    """Central differences are exact on polynomials up to degree 2;
    the one-sided edge stencil is exact up to degree 2 as well."""

    def test_exact_on_linear(self):
        x = np.linspace(0.0, 1.0, 11)
        f = np.broadcast_to((3.0 * x + 1.0)[:, None, None], (11, 4, 4)).copy()
        d = diff(f, x[1] - x[0], AXIS_R)
        np.testing.assert_allclose(d, 3.0, atol=1e-12)

    def test_exact_on_quadratic_everywhere(self):
        x = np.linspace(0.0, 2.0, 9)
        h = x[1] - x[0]
        f = np.broadcast_to((x**2)[None, :, None], (3, 9, 3)).copy()
        d = diff(f, h, AXIS_TH)
        np.testing.assert_allclose(d, np.broadcast_to((2 * x)[None, :, None], d.shape), atol=1e-10)

    def test_diff2_exact_on_quadratic(self):
        x = np.linspace(0.0, 2.0, 9)
        h = x[1] - x[0]
        f = np.broadcast_to((x**2)[None, None, :], (3, 3, 9)).copy()
        d2 = diff2(f, h, AXIS_PH)
        np.testing.assert_allclose(d2, 2.0, atol=1e-9)


class TestConvergence:
    def _err(self, n, op, deriv):
        x = np.linspace(0.0, 1.0, n)
        h = x[1] - x[0]
        f = np.sin(3.0 * x)[:, None, None] * np.ones((1, 3, 3))
        d = op(f, h, AXIS_R)
        exact = deriv(x)[:, None, None]
        interior = np.abs(d - exact)[1:-1].max()
        edge = max(np.abs(d - exact)[0].max(), np.abs(d - exact)[-1].max())
        return interior, edge

    def test_diff_second_order_interior_and_edges(self):
        i1, e1 = self._err(20, diff, lambda x: 3 * np.cos(3 * x))
        i2, e2 = self._err(40, diff, lambda x: 3 * np.cos(3 * x))
        assert i1 / i2 > 3.4  # ~ 4x per refinement
        assert e1 / e2 > 3.0  # one-sided 2nd order too

    def test_diff2_second_order_interior(self):
        i1, _ = self._err(20, diff2, lambda x: -9 * np.sin(3 * x))
        i2, _ = self._err(40, diff2, lambda x: -9 * np.sin(3 * x))
        assert i1 / i2 > 3.4


class TestValidation:
    def test_too_few_points(self):
        with pytest.raises(ValueError, match=">= 3 points"):
            diff(np.zeros((2, 4, 4)), 0.1, AXIS_R)
        with pytest.raises(ValueError, match=">= 3 points"):
            diff2(np.zeros((4, 4, 2)), 0.1, AXIS_PH)

    def test_output_is_new_array(self):
        f = np.random.default_rng(0).normal(size=(5, 5, 5))
        d = diff(f, 0.1, AXIS_R)
        assert d is not f
        assert d.shape == f.shape


class TestLinearity:
    @given(st.floats(-3, 3), st.floats(-3, 3))
    def test_diff_linear_in_field(self, a, b):
        rng = np.random.default_rng(11)
        f = rng.normal(size=(6, 5, 4))
        g = rng.normal(size=(6, 5, 4))
        left = diff(a * f + b * g, 0.2, AXIS_TH)
        right = a * diff(f, 0.2, AXIS_TH) + b * diff(g, 0.2, AXIS_TH)
        np.testing.assert_allclose(left, right, atol=1e-9)

    @given(st.sampled_from([AXIS_R, AXIS_TH, AXIS_PH]))
    def test_diff_of_constant_is_zero(self, axis):
        f = np.full((5, 5, 5), 7.3)
        np.testing.assert_allclose(diff(f, 0.1, axis), 0.0, atol=1e-12)
        np.testing.assert_allclose(diff2(f, 0.1, axis), 0.0, atol=1e-10)

    def test_diff_antisymmetric_under_reversal(self):
        """Reversing the axis negates the first derivative."""
        rng = np.random.default_rng(12)
        f = rng.normal(size=(7, 4, 4))
        d = diff(f, 0.3, AXIS_R)
        d_rev = diff(f[::-1], 0.3, AXIS_R)[::-1]
        np.testing.assert_allclose(d, -d_rev, atol=1e-12)


class TestTally:
    def test_exact_under_two_threads(self):
        """The two panels of a serial step tally from two threads."""
        reset_stencil_counts()
        start = threading.Barrier(2)

        def credit():
            start.wait()
            for _ in range(100_000):
                add_stencil_counts(1, 1)

        threads = [threading.Thread(target=credit) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert stencil_counts() == {"diff": 200_000, "diff2": 200_000}
        reset_stencil_counts()
