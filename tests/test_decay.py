import math

import numpy as np
import pytest

from subdecay.decay import (NormSeries, fit_exponent, l2_norm, log_uniform_indices,
                            pointwise_exponent)
from subdecay.errors import DomainError


class TestNormSeries:
    def test_rejects_length_mismatch(self):
        with pytest.raises(DomainError):
            NormSeries(np.array([1.0, 2.0]), np.array([1.0]))

    def test_rejects_non_increasing_times(self):
        with pytest.raises(DomainError):
            NormSeries(np.array([1.0, 1.0, 2.0]), np.ones(3))


class TestPointwiseExponent:
    def test_pure_power_is_constant(self):
        t = np.logspace(1, 3, 30)
        out = pointwise_exponent(NormSeries(t, t ** -0.9))
        assert np.allclose(out.values, -0.9, atol=1e-12)

    def test_prefactor_offset(self):
        # 5 t^{-1.5} at t = 1000: the ratio still carries ln 5 / ln 1000
        t = np.array([10.0, 100.0, 1000.0])
        out = pointwise_exponent(NormSeries(t, 5.0 * t ** -1.5))
        expected = -1.5 + math.log(5.0) / math.log(1000.0)
        assert out.values[-1] == pytest.approx(expected, rel=1e-12)
        assert out.values[-1] == pytest.approx(-1.267, abs=5e-4)

    def test_slowly_corrected_power(self):
        t = np.array([100.0])
        vals = t ** -0.5 * (1.0 + 1.0 / t)
        out = pointwise_exponent(NormSeries(t, vals))
        assert out.values[0] == pytest.approx(-0.5, abs=0.01)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            pointwise_exponent(NormSeries(np.array([0.5, 2.0]), np.ones(2)))
        with pytest.raises(DomainError):
            pointwise_exponent(NormSeries(np.array([2.0, 3.0]), np.array([1.0, 0.0])))


class TestFitExponent:
    def test_pure_power_recovered_exactly(self):
        t = np.logspace(0.5, 3, 80)
        fit = fit_exponent(NormSeries(t, 3.7 * t ** -1.23), (10.0, 1000.0))
        assert fit.exponent == pytest.approx(-1.23, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.7), abs=1e-12)
        assert fit.rms_residual < 1e-12

    def test_scale_invariance(self):
        t = np.logspace(1, 3, 50)
        v = t ** -0.7 * (1.0 + 0.1 * np.sin(np.log(t)))
        f1 = fit_exponent(NormSeries(t, v), (10.0, 1000.0))
        f2 = fit_exponent(NormSeries(t, 100.0 * v), (10.0, 1000.0))
        assert f1.exponent == pytest.approx(f2.exponent, abs=1e-13)
        assert f2.intercept - f1.intercept == pytest.approx(math.log(100.0), rel=1e-12)

    def test_corrected_power_inside_tolerance(self):
        t = np.logspace(2, 3, 40)
        fit = fit_exponent(NormSeries(t, t ** -0.5 * (1.0 + 1.0 / t)), (100.0, 1000.0))
        assert fit.exponent == pytest.approx(-0.5, abs=0.01)

    def test_exponential_flagged_by_residual(self):
        t = np.linspace(10.0, 20.0, 30)
        fit = fit_exponent(NormSeries(t, np.exp(-t)), (10.0, 20.0))
        assert fit.exponent < -10.0
        assert fit.rms_residual > 1e-2

    def test_sample_count_guard(self):
        t = np.logspace(1, 3, 30)
        with pytest.raises(DomainError):
            fit_exponent(NormSeries(t, t ** -1.0), (900.0, 1000.0))

    def test_zero_values_in_window(self):
        t = np.logspace(1, 3, 30)
        v = t ** -1.0
        v[15] = 0.0
        with pytest.raises(DomainError):
            fit_exponent(NormSeries(t, v), (10.0, 1000.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_values_in_window(self, bad):
        t = np.logspace(1, 3, 30)
        v = t ** -1.0
        v[15] = bad
        with pytest.raises(DomainError, match="non-finite"):
            fit_exponent(NormSeries(t, v), (10.0, 1000.0))

    def test_window_validation(self):
        t = np.logspace(1, 3, 30)
        with pytest.raises(DomainError):
            fit_exponent(NormSeries(t, t ** -1.0), (0.5, 1000.0))


class TestL2Norm:
    def test_sine_profile(self):
        x = np.linspace(0.0, math.pi, 129)
        val = l2_norm(np.sin(x), x[1] - x[0])
        assert val == pytest.approx(math.sqrt(math.pi / 2.0), abs=1e-4)

    def test_zero_profile(self):
        assert l2_norm(np.zeros(11), 0.1) == 0.0

    def test_boxcar_limit(self):
        x = np.linspace(0.0, 2.0, 20001)
        u = np.ones_like(x)
        u[0] = u[-1] = 0.0
        assert l2_norm(u, x[1] - x[0]) == pytest.approx(math.sqrt(2.0), rel=1e-4)

    def test_second_order_convergence(self):
        # trapezoid is exact for trig profiles and 4th order for anything
        # vanishing at both walls (the squared profile then has zero
        # boundary slopes); measure plain order 2 on exp instead
        exact = math.sqrt((math.exp(2.0 * math.pi) - 1.0) / 2.0)
        errs = []
        for n in (16, 32, 64):
            x = np.linspace(0.0, math.pi, n + 1)
            errs.append(abs(l2_norm(np.exp(x), x[1] - x[0]) - exact))
        order = math.log2(errs[0] / errs[1]), math.log2(errs[1] / errs[2])
        assert order[0] == pytest.approx(2.0, abs=0.2)
        assert order[1] == pytest.approx(2.0, abs=0.2)


class TestLogUniformIndices:
    def test_picks_unique_sorted_indices(self):
        t = np.linspace(0.0, 1000.0, 4001)
        idx = log_uniform_indices(t, 200.0, 1000.0, 60)
        assert np.all(np.diff(idx) > 0)
        assert t[idx[0]] >= 199.0 and t[idx[-1]] <= 1000.0
        assert idx.size >= 50
