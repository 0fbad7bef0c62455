import math

import numpy as np
import pytest
from scipy.special import erfcx

from subdecay import mittag_leffler
from subdecay.errors import DomainError, UnsupportedRangeError
from subdecay.mittag_leffler import gamma_fn, ml_eval, ml_neg, relaxation_kernel

from conftest import ml_integral_reference, ml_series_reference

SQRT_PI = math.sqrt(math.pi)


class TestGamma:
    def test_factorial_point(self):
        assert gamma_fn(1.0) == 1.0

    def test_half(self):
        assert gamma_fn(0.5) == pytest.approx(SQRT_PI, rel=1e-15)

    def test_negative_half_by_reflection(self):
        assert gamma_fn(-0.5) == pytest.approx(-2.0 * SQRT_PI, rel=1e-14)

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -17.0])
    def test_poles_raise(self, x):
        with pytest.raises(DomainError):
            gamma_fn(x)

    def test_accuracy_envelope(self):
        # non-pole arguments across |x| <= 20 against extended precision
        import mpmath
        xs = np.concatenate([
            np.linspace(0.05, 20.0, 57),
            np.linspace(-19.95, -0.05, 57) + 0.013,
        ])
        for x in xs:
            if x <= 0 and abs(x - round(x)) < 1e-9:
                continue
            ref = float(mpmath.gamma(mpmath.mpf(float(x))))
            assert gamma_fn(float(x)) == pytest.approx(ref, rel=1e-13)


class TestMLEval:
    def test_exponential_point(self):
        assert ml_eval(1.0, 1.0, -1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_series_leading_term_at_zero(self):
        assert ml_eval(0.5, 0.5, 0.0) == pytest.approx(1.0 / gamma_fn(0.5), rel=1e-14)

    def test_half_order_against_erfcx(self):
        # frozen from the complementary-error-function identity
        assert ml_eval(0.5, 1.0, -1.0) == pytest.approx(0.427583576155807, rel=1e-12)

    def test_erfcx_identity_sweep(self):
        x = np.logspace(-3, 4, 120)
        vals = ml_neg(0.5, 1.0, -x)
        assert np.max(np.abs(vals - erfcx(x)) / erfcx(x)) < 1e-10

    def test_exponential_special_case_band(self):
        z = np.linspace(-30.0, 0.0, 61)
        vals = ml_neg(1.0, 1.0, z)
        assert np.all(np.abs(vals - np.exp(z)) <= 1e-12 * np.exp(z))

    @pytest.mark.parametrize("eta", [0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
    @pytest.mark.parametrize("mu", [0.1, 0.7, 1.0, 1.6, 3.0])
    def test_against_series_reference(self, eta, mu):
        zmax = min(35.0, (eta * 2500.0) ** eta * 0.8)
        for x in np.logspace(-2, math.log10(zmax), 7):
            ref = ml_series_reference(eta, mu, -float(x))
            got = float(ml_neg(eta, mu, -float(x)))
            assert got == pytest.approx(ref, rel=1e-10, abs=1e-280), \
                f"eta={eta}, mu={mu}, z={-x}"

    @pytest.mark.parametrize("eta", [0.3, 0.5, 0.7, 0.9])
    def test_far_field_against_integral_representation(self, eta):
        # the large-|z| regime is out of reach of the series reference; the
        # completely monotone integral representation covers it
        for x in [50.0, 500.0, 1e4]:
            ref1 = ml_integral_reference(eta, x, second=False)
            assert ml_eval(eta, 1.0, -x) == pytest.approx(ref1, rel=1e-10)
            ref2 = ml_integral_reference(eta, x, second=True)
            assert float(ml_neg(eta, eta, -x)) == pytest.approx(ref2, rel=1e-10)

    def test_asymptotic_consistency_band(self):
        # two-term large-argument form with the generous z^-3 envelope
        for eta in [0.3, 0.5, 0.7, 0.9]:
            for z in np.logspace(2, 4, 9):
                lead = 1.0 / (z * gamma_fn(1.0 - eta))
                if eta == 0.5:
                    second = 0.0  # 1/Gamma(0) is interpreted as zero
                else:
                    second = 1.0 / (z * z * gamma_fn(1.0 - 2.0 * eta))
                approx = lead - second
                assert abs(ml_eval(eta, 1.0, -z) - approx) <= 10.0 * z ** -3

    def test_normalization_at_zero(self):
        for eta in [0.1, 0.4, 0.8, 1.0]:
            for mu in [0.1, 0.9, 2.3, 3.0]:
                assert ml_eval(eta, mu, 0.0) == pytest.approx(1.0 / gamma_fn(mu),
                                                              rel=1e-13)

    @pytest.mark.parametrize("eta", [0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
    def test_positivity_and_bound(self, eta):
        # at eta = 1 the function is e^z, which underflows float64 below
        # z ~ -745; restrict the grid to representable values there
        zmax = 4.0 if eta < 1.0 else math.log10(700.0)
        z = np.concatenate([[0.0], np.logspace(-6, zmax, 101)])
        e1 = ml_neg(eta, 1.0, -z)
        assert np.all(e1 > 0.0) and np.all(e1 <= 1.0 + 1e-14)
        ee = ml_neg(eta, eta, -z)
        assert np.all(ee > 0.0) and np.all(ee <= 1.0 + 1e-14)

    @pytest.mark.parametrize("eta", [0.1, 0.5, 0.9, 1.0])
    def test_monotone_in_argument(self, eta):
        z = np.logspace(-4, 4, 161)
        vals = ml_neg(eta, 1.0, -z)
        assert np.all(np.diff(vals) <= 1e-15)

    def test_envelope_rejections(self):
        with pytest.raises(UnsupportedRangeError):
            ml_eval(0.05, 1.0, -1.0)
        with pytest.raises(UnsupportedRangeError):
            ml_eval(0.5, 5.0, -1.0)
        with pytest.raises(UnsupportedRangeError):
            ml_eval(0.5, 1.0, -2e4)
        with pytest.raises(DomainError):
            ml_eval(0.5, 1.0, 0.5)
        with pytest.raises(DomainError):
            ml_eval(-0.5, 1.0, -1.0)
        with pytest.raises(DomainError):
            ml_eval(0.0, 1.0, -1.0)

    @pytest.mark.parametrize("eta", [0.3, 0.5, 0.7, 0.9, 0.95, 1.0])
    def test_crossover_route_against_series_reference(self, eta):
        # the band from z = 0 to the point where the expansion certifies
        # (|z|^(1/eta) ~ 36), evaluated by the contour (eta < 1) or the
        # Kummer series (eta = 1) on their own and via ml_neg
        route = mittag_leffler._kummer_f64 if eta == 1.0 else mittag_leffler._contour_f64
        z = -np.concatenate([np.logspace(-8, -1, 8), np.linspace(0.5, 1.2 * 36.0 ** eta, 24)])
        for mu in sorted({eta, 1.0, 3.0}):
            ref = np.array([ml_series_reference(eta, mu, float(x)) for x in z])
            got, est = route(eta, mu, z)
            assert np.all(est <= 1e-10), f"eta={eta}, mu={mu}"
            assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-10, f"eta={eta}, mu={mu}"
            via = ml_neg(eta, mu, z)
            assert np.max(np.abs(via - ref) / np.abs(ref)) < 1e-10, f"eta={eta}, mu={mu}"

    def test_internal_lines_need_no_extended_precision(self, monkeypatch):
        # mu >= eta has no zeros of E on the negative axis (Schneider 1996), so
        # the kernel builders' lines stay on float64 routes at their rtol
        def refuse(*args):
            raise AssertionError(f"_mp_series reached at {args}")

        monkeypatch.setattr(mittag_leffler, "_mp_series", refuse)
        z = -np.logspace(-3, 4, 400)
        for eta in [0.01, 0.05, *np.round(np.arange(0.1, 0.96, 0.05), 2), 0.99, 1.0]:
            for mu in sorted({eta, 1.0, eta + 1.0, eta + 2.0}):
                assert np.all(np.isfinite(ml_neg(eta, mu, z, rtol=1e-10)))

    @pytest.mark.parametrize("eta", [0.5, 1.0])
    @pytest.mark.parametrize("mu", [0.0, -1.3])
    def test_nonpositive_mu_rejected(self, eta, mu):
        with pytest.raises(DomainError, match="mu > 0"):
            ml_neg(eta, mu, np.array([0.0, -0.5, -30.0]))

    @pytest.mark.filterwarnings("error")
    def test_extended_precision_resolves_tiny_values(self):
        # at eta = 1 with mu next to 1 and |z| > 709 the Kummer sum overflows
        # and E ~ 3e-19 is far below its largest series term ~1e325
        z = -750.0
        ref = ml_series_reference(1.0, 1.0000000000000002, z)
        assert ml_eval(1.0, 1.0000000000000002, z) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(DomainError):
            ml_eval(0.5, 1.0, bad)
        with pytest.raises(DomainError):
            ml_eval(bad, 1.0, -1.0)
        with pytest.raises(DomainError):
            ml_eval(0.5, bad, -1.0)
        with pytest.raises(DomainError):
            ml_neg(0.5, 1.0, np.array([-1.0, bad]))
        with pytest.raises(DomainError):
            ml_neg(0.5, bad, -1.0)


class TestRelaxationKernel:
    def test_classical_limit_is_exponential(self):
        t = np.linspace(0.01, 5.0, 40)
        assert relaxation_kernel(1.0, 1.7, t) == pytest.approx(np.exp(-1.7 * t),
                                                               rel=1e-13)

    def test_undamped_leading_power(self):
        t = np.array([0.25, 1.0, 4.0])
        expected = t ** -0.5 / gamma_fn(0.5)
        assert relaxation_kernel(0.5, 0.0, t) == pytest.approx(expected, rel=1e-12)

    def test_frozen_value(self):
        # oracle: extended-precision series at (0.5, 0.5, -1), cross-checked
        # against 1/sqrt(pi) - erfcx(1)
        ref = ml_series_reference(0.5, 0.5, -1.0)
        assert ref == pytest.approx(1.0 / SQRT_PI - float(erfcx(1.0)), rel=1e-13)
        assert relaxation_kernel(0.5, 1.0, 1.0) == pytest.approx(
            0.13660600739194928, rel=1e-11)

    def test_strictly_positive_with_integrable_singularity(self):
        t = np.logspace(-9, 2, 60)
        vals = relaxation_kernel(0.7, 2.0, t)
        assert np.all(vals > 0.0)
        # near zero the kernel behaves like t^{eta-1}/Gamma(eta), with the
        # next term smaller by a factor c * t^eta
        small = t < 1e-7
        lead = t[small] ** (0.7 - 1.0) / gamma_fn(0.7)
        assert vals[small] == pytest.approx(lead, rel=1e-4)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            relaxation_kernel(0.5, 1.0, 0.0)
        with pytest.raises(DomainError):
            relaxation_kernel(0.5, 1.0, -1.0)
        with pytest.raises(DomainError):
            relaxation_kernel(1.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            relaxation_kernel(0.5, -1.0, 1.0)
