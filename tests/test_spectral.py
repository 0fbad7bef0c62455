import dataclasses
import math
import re

import mpmath
import numpy as np
import pytest
from scipy.special import rgamma

from subdecay import frac_ode, spectral
from subdecay.errors import DomainError, QuadratureError
from subdecay.spectral import SpectralSolution, mode_convolution, project_initial

from conftest import ml_series_reference
from identities import q_integral, r_series_identity

SQRT_PI_HALF = math.sqrt(math.pi / 2.0)


def quad_reference_mode(lam, beta, t, dps=35):
    """Independent extended-precision quadrature of the mode convolution.

    At beta = 1/2 the kernel is the closed form
    E_{1/2,1/2}(-x) = 1/sqrt(pi) - x e^{x^2} erfc(x) in working precision;
    other orders use the series reference."""
    with mpmath.workdps(dps):
        bb = mpmath.mpf(beta)

        if beta == 0.5:
            def E(z):
                return 1 / mpmath.sqrt(mpmath.pi) + z * mpmath.exp(z * z) * mpmath.erfc(-z)
        else:
            def E(z):
                return mpmath.mpf(ml_series_reference(beta, beta, float(z)))

        def f(u):
            tau = t - u
            return tau ** (bb - 1) * E(-lam * tau ** bb) * mpmath.e ** (-lam * u)

        return float(mpmath.quad(f, [0, t / 2, t]))


def talbot_reference_mode(lam, beta, t, dps=40):
    """Talbot inversion of F(s) = 1/((s^beta + lam)(s + lam)) in 40-digit
    arithmetic: a different contour, rule and precision from the library's."""
    with mpmath.workdps(dps):
        bb, ll = mpmath.mpf(beta), mpmath.mpf(lam)
        return float(mpmath.invertlaplace(lambda s: 1 / ((s ** bb + ll) * (s + ll)),
                                          mpmath.mpf(t), method="talbot"))


class TestEigensystem:
    def test_sine_projects_to_first_mode(self):
        coeffs = project_initial(np.sin, 6)
        assert coeffs[0] == pytest.approx(SQRT_PI_HALF, rel=1e-10)
        assert np.all(coeffs[1:] == 0.0)

    @pytest.mark.parametrize("n_modes", [1, 8, 64])
    def test_projection_against_direct_sum(self, n_modes):
        # the sine transform against one trapezoid sum per eigenfunction
        # phi_n = sqrt(2/pi) sin(n x) on the same grid; exp has no vanishing
        # mode, so every entry counts
        x = np.linspace(0.0, math.pi, spectral._N_QUAD + 1)
        direct = []
        for n in range(1, n_modes + 1):
            f = np.exp(x) * math.sqrt(2.0 / math.pi) * np.sin(n * x)
            direct.append((x[1] - x[0]) * (0.5 * f[0] + f[1:-1].sum() + 0.5 * f[-1]))
        assert project_initial(np.exp, n_modes) == pytest.approx(direct, rel=1e-13)

    def test_more_modes_than_transform_bins_refused(self):
        project_initial(np.sin, spectral._N_QUAD)
        with pytest.raises(DomainError):
            project_initial(np.sin, spectral._N_QUAD + 1)


class TestModeConvolution:
    def test_zero_eigenvalue_closed_form(self):
        assert mode_convolution(0.0, 0.5, 4.0) == pytest.approx(
            4.0 ** 0.5 / math.gamma(1.5), rel=1e-13)

    def test_short_time_vanishes(self):
        # value collapses like t^beta / Gamma(beta+1) as t -> 0+
        for t in (1e-4, 1e-8):
            v = mode_convolution(1.0, 0.5, t)
            assert 0.0 < v < 2.0 * t ** 0.5 / math.gamma(1.5)

    def test_against_independent_quadrature(self):
        for lam, t in [(1.0, 1.0), (4.0, 2.5), (1.0, 40.0)]:
            ref = quad_reference_mode(lam, 0.5, t)
            assert mode_convolution(lam, 0.5, t) == pytest.approx(ref, rel=1e-8)

    def test_positivity(self):
        for lam in (1.0, 9.0, 100.0):
            for t in (0.1, 1.0, 10.0, 1000.0):
                assert mode_convolution(lam, 0.5, t) > 0.0

    @pytest.mark.parametrize("beta", [0.05, 0.5, 0.99])
    def test_against_talbot_over_envelope(self, beta):
        for lam in (1.0, 64.0, 4096.0):
            for t in (1e-8, 1e-5, 1e-2, 1.0, 1e2, 1e4):
                ref = talbot_reference_mode(lam, beta, t)
                assert mode_convolution(lam, beta, t) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("beta", [0.05, 0.5, 0.99])
    def test_regime_switch(self, beta):
        # plain F at lam*t = 0.5, the subtracted form at lam*t = 2, chosen
        # per mode within one call
        for t in (1.0, 2.0 ** -12):
            lam = np.array([0.5, 2.0]) / t
            got = mode_convolution(lam, beta, t)
            for g, lt in zip(got, lam):
                assert g == pytest.approx(talbot_reference_mode(lt, beta, t), rel=1e-10)
                assert g == pytest.approx(mode_convolution(float(lt), beta, t), rel=1e-14)

    def test_array_matches_scalar_calls(self):
        lam = np.arange(1.0, 65.0) ** 2
        for t in (1e-3, 1.0, 1000.0):
            got = mode_convolution(lam, 0.5, t)
            assert got.shape == lam.shape
            for g, x in zip(got, lam):
                assert g == pytest.approx(mode_convolution(float(x), 0.5, t), rel=1e-14)

    def test_estimate_above_rtol_raises(self, monkeypatch):
        # the rounding part of the estimate alone is ~1e-16 relative
        monkeypatch.setattr(frac_ode, "_BROMWICH_RTOL", 1e-20)
        with pytest.raises(QuadratureError):
            mode_convolution(1.0, 0.5, 1.0)

    def test_overflowing_eigenvalue_refused(self):
        with pytest.raises(QuadratureError, match=r"lam=1e\+300 at t=1 overflows float64"):
            mode_convolution(1e300, 0.5, 1.0)

    @pytest.mark.parametrize("t", [1e210, 1e216])
    def test_underflowing_value_refused(self, t):
        # t^-1.5 / (2 sqrt(pi)) is 2.8e-316 at 1e210, where a subnormal sum
        # has lost its digits, and 0 at 1e216, where it has lost the value
        message = re.escape(f"lam=1 at t={t:g} underflows float64")
        with pytest.raises(QuadratureError, match=message):
            mode_convolution(1.0, 0.5, t)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            mode_convolution(1.0, 0.5, 0.0)
        with pytest.raises(DomainError):
            mode_convolution(1.0, 1.2, 1.0)
        with pytest.raises(DomainError):
            mode_convolution(-1.0, 0.5, 1.0)

    @pytest.mark.parametrize("lam,t", [(math.inf, 1.0), (math.nan, 1.0),
                                       (np.array([1.0, math.inf]), 1.0),
                                       (1.0, math.inf), (1.0, math.nan)])
    def test_non_finite_inputs(self, lam, t):
        with pytest.raises(DomainError):
            mode_convolution(lam, 0.5, t)


class TestDecoupledSolve:
    def test_mode_value_cross_check(self):
        # (u0, phi_1) = 1 and (u0, phi_2) = 0.5, to the projection's rounding
        sol = SpectralSolution(beta=0.5, n_modes=2,
                               u0=lambda x: (np.sin(x) + 0.5 * np.sin(2.0 * x)) / SQRT_PI_HALF)
        assert sol.u0_coeffs == pytest.approx([1.0, 0.5], rel=1e-12)
        v = sol.v_coeffs(1.0)
        assert v[0] == pytest.approx(mode_convolution(1.0, 0.5, 1.0), rel=1e-12)
        assert v[1] == pytest.approx(0.5 * mode_convolution(4.0, 0.5, 1.0), rel=1e-12)

    def test_input_checks(self):
        with pytest.raises(DomainError):
            SpectralSolution(beta=0.5, u0=np.zeros_like, n_modes=2).v_coeffs(-1.0)

    def test_norm_does_not_underflow(self):
        # |v| = |c_1| f_1(t) is 3.5e-226 at t = 1e150, whose square underflows
        sol = SpectralSolution(beta=0.5, u0=np.sin, n_modes=8)
        exact = abs(sol.u0_coeffs[0]) * mode_convolution(1.0, 0.5, 1e150)
        assert sol.v_norm(1e150) == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_solution_is_frozen(self):
        # the beta and the coefficients checked at construction are the ones read
        sol = SpectralSolution(beta=0.5, u0=np.sin, n_modes=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            sol.beta = 1.5
        with pytest.raises(ValueError, match="read-only"):
            sol.u0_coeffs[0] = math.nan


class TestQIntegral:
    def test_diagonal_reduction(self):
        # j = k reduces to t^{beta(j+1)} / Gamma(beta(j+1) + 1)
        t, j, beta = 1.7, 3, 0.4
        expected = t ** (beta * (j + 1)) / math.gamma(beta * (j + 1) + 1.0)
        assert q_integral(t, j, j, beta) == pytest.approx(expected, rel=1e-14)

    def test_worked_point(self):
        # oracle: direct quadrature of the defining integral; equals 1/Gamma(2.5)
        assert q_integral(1.0, 0, 1, 0.5) == pytest.approx(0.7522527780636751,
                                                           rel=1e-13)

    def test_against_quadrature(self, rng):
        # quadrature of the defining integral; the substitution
        # sigma = (tau/t)^{beta(j+1)} removes the left-endpoint singularity
        for _ in range(200):
            beta = rng.uniform(0.2, 0.9)
            k = int(rng.integers(0, 11))
            j = int(rng.integers(0, k + 1))
            t = rng.uniform(0.05, 2.0)

            with mpmath.workdps(35):
                bb, tt = mpmath.mpf(float(beta)), mpmath.mpf(float(t))
                c = bb * (j + 1)
                pref = tt ** c / (c * mpmath.gamma(bb * j + bb)
                                  * mpmath.gamma(k - j + 1))

                def g(sig):
                    tau = tt * sig ** (1 / c)
                    return (tt - tau) ** (k - j)

                ref = float(pref * mpmath.quad(g, [0, 1]))
            assert q_integral(float(t), j, k, float(beta)) == pytest.approx(
                ref, rel=1e-8)


class TestRSeriesIdentity:
    def test_zero_eigenvalue(self):
        lhs, rhs = r_series_identity(0.0, 0.5, 1.3)
        assert lhs == pytest.approx(1.0 / math.gamma(1.5), rel=1e-14)
        assert rhs == pytest.approx(1.0 / math.gamma(1.5), rel=1e-14)

    def test_identity_at_reference_point(self):
        lhs, rhs = r_series_identity(1.0, 0.5, 1.0, k_max=25)
        assert abs(lhs - rhs) <= 1e-8

    @pytest.mark.parametrize("lam,beta,t", [(1.0, 0.3, 1.0), (2.0, 0.5, 2.0),
                                            (0.5, 0.7, 4.0), (4.0, 0.5, 1.0)])
    def test_identity_sweep(self, lam, beta, t):
        # truncation of the outer alternating sum decays slowly in lam*t;
        # k_max = 130 keeps it below the 1e-8 target through lam*t = 4
        lhs, rhs = r_series_identity(lam, beta, t, k_max=130)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))

    def test_largest_argument_hits_float_noise_floor(self):
        # at lam*t = 5 the two sums cancel terms of size ~3e8 down to ~4e-3,
        # so float64 cannot do better than ~1e-5 regardless of k_max;
        # document that floor (the identity itself is exact arithmetic)
        lhs, rhs = r_series_identity(5.0, 0.5, 1.0, k_max=200)
        assert abs(lhs - rhs) <= 1e-5

    def test_chains_to_mode_convolution(self):
        # t^beta * R(t) is the mode convolution (the P(t) route)
        for lam, t in [(1.0, 1.0), (2.0, 1.0), (1.0, 2.0)]:
            lhs, _ = r_series_identity(lam, 0.5, t, k_max=60)
            conv = mode_convolution(lam, 0.5, t)
            assert t ** 0.5 * lhs == pytest.approx(conv, abs=1e-7)


class TestAsymptoticForm:
    def test_limit_pattern_for_first_mode(self):
        # u0 = sin x has unit eigenvalue, so the limit pattern equals u0
        sol = SpectralSolution(beta=0.5, u0=np.sin, n_modes=4)
        ratio = sol.v_norm_asymptotic(1e6) * 1e6 ** 1.5 * (-1.0 / rgamma(-0.5))
        assert ratio == pytest.approx(SQRT_PI_HALF, rel=1e-3)

    def test_reflection_constant(self):
        assert -1.0 / rgamma(-0.5) == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-14)

    def test_superlinear_ratio_monotone_to_one(self):
        sol = SpectralSolution(beta=0.5, u0=np.sin, n_modes=8)
        ts = [100.0, 200.0, 400.0, 1000.0]
        ratios = []
        for t in ts:
            v1 = sol.v_coeffs(t)[0]
            ratios.append(v1 * t ** 1.5 * (-1.0 / rgamma(-0.5)) / SQRT_PI_HALF)
        assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))
        assert abs(ratios[-1] - 1.0) <= 0.02

    def test_requires_large_time(self):
        with pytest.raises(DomainError):
            SpectralSolution(beta=0.5, u0=np.sin, n_modes=1).v_norm_asymptotic(1.0)


class TestSpectralInputChecks:
    def test_asymptotic_non_finite_time(self):
        sol = SpectralSolution(beta=0.5, u0=np.sin, n_modes=1)
        for t in (math.nan, math.inf):
            with pytest.raises(DomainError):
                sol.v_norm_asymptotic(t)

    def test_non_finite_coefficients(self):
        # finite samples whose transform overflows: refused, with no warning
        with pytest.raises(DomainError, match="coefficients must be finite"):
            SpectralSolution(beta=0.5, u0=lambda x: np.full_like(x, 1e308), n_modes=2)

    def test_non_positive_time_with_zero_data(self):
        sol = SpectralSolution(beta=0.5, u0=np.zeros_like, n_modes=2)
        assert sol.v_norm(1.0) == 0.0
        with pytest.raises(DomainError):
            sol.v_norm(-1.0)

    def test_n_modes_at_least_one(self):
        with pytest.raises(DomainError):
            SpectralSolution(beta=0.5, u0=np.sin, n_modes=0)
        with pytest.raises(DomainError):
            project_initial(np.sin, 0)

    def test_sampled_datum_of_wrong_length(self):
        with pytest.raises(DomainError, match=f"{spectral._N_QUAD + 1} samples"):
            project_initial(lambda x: np.ones(x.size - 1), 4)

    def test_non_finite_datum(self):
        with pytest.raises(DomainError):
            project_initial(lambda x: np.where(x > 1.0, math.nan, x), 4)
        with pytest.raises(DomainError):
            SpectralSolution(beta=0.5, u0=lambda x: np.full_like(x, math.inf), n_modes=4)
