import math

import numpy as np
import pytest
from scipy.special import erfcx, rgamma

from subdecay import mittag_leffler
from subdecay.errors import DomainError, UnsupportedRangeError
from subdecay.mittag_leffler import ml_eval, ml_neg

from conftest import kernel_gauss_nodes, ml_integral_reference, ml_series_reference

SQRT_PI = math.sqrt(math.pi)


class TestGamma:
    def test_accuracy_envelope(self):
        # the library's 1/Gamma, which the expansion weights and the spectral
        # oracle's Gamma(-beta) rest on, at non-pole arguments across
        # |x| <= 20 against extended precision
        import mpmath
        xs = np.concatenate([
            np.linspace(0.05, 20.0, 57),
            np.linspace(-19.95, -0.05, 57) + 0.013,
        ])
        for x in xs:
            if x <= 0 and abs(x - round(x)) < 1e-9:
                continue
            ref = float(mpmath.rgamma(mpmath.mpf(float(x))))
            assert mittag_leffler._rgamma(float(x)) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("xs", [
        pytest.param([5e-324, 1e-320, 1e-310, 5e-309], id="overflow-next-to-zero"),
        pytest.param([0.0, -0.0, -1.0, -2.0, -170.0, -171.0, -172.0, -400.0], id="poles"),
        pytest.param([171.7, 172.0, 200.0, 1e3, 1e300], id="overflow"),
        pytest.param(list(np.linspace(-399.7, -171.9, 53)), id="underflow"),
        pytest.param(list(np.linspace(0.5, 171.5, 37)) + list(np.linspace(-170.3, -0.3, 37)),
                     id="finite")])
    def test_edges_match_scipy(self, xs):
        # where math.gamma overflows, underflows or has a pole: x itself next
        # to 0, 0 at the poles and past 171.6, inf with Gamma's sign below
        # -171.6 (where the expansion stops summing)
        for x in map(float, xs):
            assert mittag_leffler._rgamma(x) == pytest.approx(float(rgamma(x)), rel=1e-13), x


class TestMLEval:
    def test_exponential_point(self):
        assert ml_eval(1.0, 1.0, -1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_series_leading_term_at_zero(self):
        assert ml_eval(0.5, 0.5, 0.0) == pytest.approx(1.0 / math.gamma(0.5), rel=1e-14)

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
                lead = 1.0 / (z * math.gamma(1.0 - eta))
                second = rgamma(1.0 - 2.0 * eta) / (z * z)  # 1/Gamma(0) = 0 at eta = 0.5
                approx = lead - second
                assert abs(ml_eval(eta, 1.0, -z) - approx) <= 10.0 * z ** -3

    def test_normalization_at_zero(self):
        for eta in [0.1, 0.4, 0.8, 1.0]:
            for mu in [0.1, 0.9, 2.3, 3.0]:
                assert ml_eval(eta, mu, 0.0) == pytest.approx(1.0 / math.gamma(mu),
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
    def test_extended_precision_resolves_tiny_values(self, monkeypatch):
        # at eta = 1 with mu one ulp from 1 and |z| > 709 the Kummer sum
        # overflows and E ~ 1e-19 is far below its largest series term
        # ~1e325; the expansion's reflected weights resolve it in float64
        import mpmath

        def refuse(*args):
            raise AssertionError(f"_mp_series reached at {args}")

        with monkeypatch.context() as patch:
            patch.setattr(mittag_leffler, "_mp_series", refuse)
            for mu, z in [(1.0000000000000002, -750.0), (1.0000000000000002, -8000.0),
                          (1.0 - 2.0 ** -53, -1084.1458689358328), (1.0 - 2.0 ** -53, -750.0)]:
                with mpmath.workdps(40):
                    ref = float(mpmath.hyp1f1(1, mpmath.mpf(mu), mpmath.mpf(z))
                                / mpmath.gamma(mpmath.mpf(mu)))
                assert ml_eval(1.0, mu, z) == pytest.approx(ref, rel=1e-10), (mu, z)
        # next to a zero of E (mu < eta) no float64 route certifies the
        # value, and the extended-precision series does
        reached = []
        series = mittag_leffler._mp_series
        monkeypatch.setattr(mittag_leffler, "_mp_series",
                            lambda *args: reached.append(args) or series(*args))
        z = -3.226799119945808
        ref = ml_series_reference(0.8, 0.7, z)
        assert ml_eval(0.8, 0.7, z) == pytest.approx(ref, rel=1e-10)
        assert reached

    def test_kernel_table_points_near_the_expansion_switch(self):
        # the eta = 0.5 kernel cells 1828, 1880 and 1938 (c = 2, T = 20, 5120
        # steps): the expansion certifies them at rtol 1e-10 with errors of
        # 6e-12 to 3.4e-11, so its a-priori floor sends them to the contour
        for z in (-5.35, -5.42, -5.50):
            ref = ml_series_reference(0.5, 0.5, z)
            got = float(ml_neg(0.5, 0.5, z, rtol=1e-10))
            assert got == pytest.approx(ref, rel=1e-13, abs=0.0), z

    @pytest.mark.parametrize("route, eta, mu", [
        ("_contour_f64", 0.5, 0.5), ("_contour_f64", 0.9, 1.0), ("_contour_f64", 0.3, 2.0),
        ("_asymp_f64", 0.5, 0.5), ("_asymp_f64", 0.9, 1.0), ("_asymp_f64", 1.0, 1.5)])
    def test_route_value_independent_of_batch(self, route, eta, mu):
        # a point alone gives bitwise the value and estimate it gets inside a
        # batch that crosses a contour block boundary or freezes unevenly
        f = getattr(mittag_leffler, route)
        rng = np.random.default_rng(7)
        n = mittag_leffler._CONTOUR_CHUNK + 3
        z = -np.concatenate([rng.uniform(0.0, 40.0, n - 3), [4.0, 1e3, 1e-3]])
        values, estimates = f(eta, mu, z)
        for i in [0, n // 2 - 1, n - 4, n - 3, n - 2, n - 1]:
            alone = f(eta, mu, z[i:i + 1])
            assert alone[0][0] == values[i] and alone[1][0] == estimates[i], i
        tail = f(eta, mu, z[-4:])
        assert np.array_equal(tail[0], values[-4:]) and np.array_equal(tail[1], estimates[-4:])

    @pytest.mark.parametrize("eta", [0.1, 0.4, 0.5, 0.7, 0.9, 1.0])
    @pytest.mark.parametrize("mu", [0.3, 1.0, 1.0000000000000002, 2.5])
    def test_expansion_matches_masked_loop(self, eta, mu):
        # dropping frozen points from the working arrays changes no digit
        z = -np.logspace(0.0, 4.0, 301)
        got = mittag_leffler._asymp_f64(eta, mu, z)
        ref = asymp_masked_reference(eta, mu, z)
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])

    @pytest.mark.parametrize("eta, mu, z", [
        (0.4375209453377964, 0.4375209453377964, -5.66),
        (0.34997524464880925, 1.2499210380877577, -5.5438596491228065)])
    def test_expansion_estimate_bounds_error_next_to_a_pole(self, eta, mu, z):
        # a term next to a pole of 1/Gamma is 1e-3 of its neighbours: taken
        # as the smallest term, it certified 1e-10 and 9.8e-13 where the
        # truncation error is 9.8e-9 and 7.0e-11; the bound holds up to
        # rounding of the sum
        value, est = mittag_leffler._asymp_f64(eta, mu, np.array([z]))
        err = abs(value[0] / ml_series_reference(eta, mu, z) - 1.0)
        assert err <= est[0] + 1e-15

    def test_one_ulp_below_one_needs_no_extended_precision(self, monkeypatch):
        # at eta = mu = 1 - 2^-53 every mu - eta*k sits (k - 1) 2^-53 from a
        # pole, and those tiny weights carry the whole value (~1e-20 at
        # z = -100); below |z| ~ 74 e^z is as large as they are, and the
        # series stays
        eta = 1.0 - 2.0 ** -53
        refs = {z: ml_series_reference(eta, eta, z) for z in (-80.0, -300.0)}

        def refuse(*args):
            raise AssertionError(f"_mp_series reached at {args}")

        monkeypatch.setattr(mittag_leffler, "_mp_series", refuse)
        for z in -np.logspace(math.log10(80.0), 4.0, 20):
            value = ml_eval(eta, eta, float(z))
            assert math.isfinite(value) and value > 0.0, z
        for z, ref in refs.items():
            assert ml_eval(eta, eta, z) == pytest.approx(ref, rel=1e-12, abs=0.0), z

    @pytest.mark.parametrize("eta", [0.30000000000000004, 0.8, 0.9])
    def test_first_weight_next_to_a_pole(self, monkeypatch, eta):
        # mu one ulp below eta gives the first term a weight of ~-1e-16;
        # counted as the error estimate, that term sent every such point
        # with |z| >= 122 to the extended-precision series.  The reference
        # is E at mu = eta, where that weight is 0, plus the first term: one
        # ulp of mu moves the other terms by ~1e-16 relative
        import mpmath

        def refuse(*args):
            raise AssertionError(f"_mp_series reached at {args}")

        monkeypatch.setattr(mittag_leffler, "_mp_series", refuse)
        mu = math.nextafter(eta, 0.0)
        first = float(mpmath.rgamma(mpmath.mpf(mu) - mpmath.mpf(eta)))
        z = -np.logspace(2.0, 4.0, 41)
        ref = ml_neg(eta, eta, z) - first / z
        assert np.all(np.abs(ml_neg(eta, mu, z) / ref - 1.0) <= 1e-12)

    def test_weights_next_to_poles(self):
        # weights whose argument mu - eta*k lies a few ulps from a pole,
        # against 50-digit 1/Gamma of the exact argument; 0 only on a pole
        import mpmath

        rng = np.random.default_rng(26)
        cases = [(1.0 - 2.0 ** -53, 1.0 - 2.0 ** -53, k) for k in range(1, 171)]
        for _ in range(60):
            eta = float(rng.uniform(0.1, 1.0))
            j = int(rng.integers(1, 9))
            mu = eta * j - int(rng.integers(0, math.ceil(eta * j)))
            cases += [(eta, mu, k) for k in range(1, 41)]
        for mu in (1.0, 2.0):
            for side in (0.0, 3.0):
                cases += [(1.0, math.nextafter(mu, side), k) for k in range(1, 171)]
        with mpmath.workdps(50):
            for eta, mu, k in cases:
                ref = mpmath.rgamma(mpmath.mpf(mu) - k * mpmath.mpf(eta))
                got = mittag_leffler._asymp_weight(eta, mu, k)
                if ref == 0:
                    assert got == 0.0, (eta, mu, k)
                else:
                    assert abs(got / ref - 1) <= 1e-13, (eta, mu, k, got, float(ref))

    def test_expansion_accepts_no_wrong_point(self):
        # 400 seeded (eta, mu) lines on z in [-60, -4], half of them with
        # mu = eta*j - i, a few ulps from a pole at k = j: every point the
        # expansion certifies matches the contour wherever the contour's own
        # estimate is at rounding level
        rng = np.random.default_rng(21)
        lines = []
        while len(lines) < 400:
            eta = float(rng.uniform(0.1, 1.0))
            if len(lines) % 2:
                mu = eta * int(rng.integers(1, 31)) - int(rng.integers(0, 4))
            else:
                mu = float(rng.uniform(0.1, 3.0))
            if 0.1 <= mu <= 3.0:
                lines.append((eta, mu))
        z = np.linspace(-60.0, -4.0, 400)
        for rtol in (1e-10, 1e-12):
            accepted = 0
            for eta, mu in lines:
                value, est = mittag_leffler._asymp_f64(eta, mu, z)
                ref, ref_est = mittag_leffler._contour_f64(eta, mu, z)
                ok = (est <= rtol) & (ref_est <= 1e-13)
                accepted += int(ok.sum())
                err = np.abs(value[ok] / ref[ok] - 1.0)
                assert np.all(err <= rtol + 2e-13), (rtol, eta, mu, z[ok][err > rtol + 2e-13])
            assert accepted > 100_000

    def test_expansion_tried_where_it_certifies(self, monkeypatch):
        # over the lines the ode-sweep benchmark's three solves sample when
        # every point is a direct call (both kernels of the two coupled
        # solves at each Gauss node, each datum at each grid point), at the
        # kernel tables' rtol, at most 10 % of the points the expansion is
        # tried on fail its certificate and go on to the contour
        tried, failed = [], []
        expansion = mittag_leffler._asymp_f64

        def counted(eta, mu, z):
            value, est = expansion(eta, mu, z)
            tried.append(z.size)
            failed.append(int(np.sum(est > 1e-10)))
            return value, est

        monkeypatch.setattr(mittag_leffler, "_asymp_f64", counted)
        t = np.linspace(0.0, 20.0, 5121)
        lines = [(0.5, 1.0, -np.linspace(0.0, 10.0, 4097)[1:] ** 0.5)]
        for alpha, beta in ((0.9, 0.5), (0.8, 0.4)):
            lines.append((alpha, 1.0, -2.0 * t[1:] ** alpha))
            lines += [(eta, eta, -2.0 * kernel_gauss_nodes(t).ravel() ** eta)
                      for eta in (alpha, beta)]
        for eta, mu, z in lines:
            ml_neg(eta, mu, z, rtol=1e-10)
        assert sum(tried) > 10_000
        assert sum(failed) <= 0.1 * sum(tried)

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


def asymp_masked_reference(eta, mu, z):
    """The expansion with every point kept in the arrays and masked once
    frozen: the plain loop that _asymp_f64 must reproduce bit for bit.  It
    takes the weights up to the cap or the first non-finite one and sums up
    to the last nonzero weight among them."""
    weights = []
    for k in range(1, mittag_leffler._ASYMP_CAP + 1):
        weight = mittag_leffler._asymp_weight(float(eta), float(mu), k)
        if not math.isfinite(weight):
            break
        weights.append(weight)
    nz_idx = np.flatnonzero(np.array(weights) != 0.0)
    eps = mittag_leffler._EPS
    zinv = 1.0 / z
    power = np.ones_like(z)
    total = np.zeros_like(z)
    best = np.full(z.shape, np.inf)
    prev = np.full(z.shape, np.inf)
    frozen = np.zeros(z.shape, dtype=bool)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for k in range(int(nz_idx[-1]) + 1 if nz_idx.size else 0):
            power = power * zinv
            if weights[k] == 0.0:
                continue
            a = -power * weights[k]
            size = np.maximum(np.abs(a), prev)
            prev = np.abs(a)
            frozen |= size > 2.0 * best
            total = np.where(frozen, total, total + a)
            best = np.where((size < best) & ~frozen, size, best)
            frozen |= size <= 0.25 * eps * np.abs(total)
            if np.all(frozen):
                break
    if eta == 1.0:
        best[~frozen] = 0.0
    scale = np.maximum(np.abs(total), 1e-300)
    est = np.where(np.isfinite(best), best, np.inf) / scale * 3.0
    if eta > 2.0 / 3.0:
        with np.errstate(divide="ignore", under="ignore"):
            r = np.abs(z) ** (1.0 / eta)
            est = est + 2.0 / eta * r ** (1.0 - mu) * np.exp(
                np.maximum(r * math.cos(math.pi / eta), -700.0)) / scale
    return total, est


def relaxation_kernel(eta, c, t):
    """t^{eta-1} E_{eta,eta}(-c t^eta), as the Picard kernel tables sample it."""
    return t ** (eta - 1.0) * ml_neg(eta, eta, -c * t ** eta)


class TestRelaxationKernel:
    def test_classical_limit_is_exponential(self):
        t = np.linspace(0.01, 5.0, 40)
        assert relaxation_kernel(1.0, 1.7, t) == pytest.approx(np.exp(-1.7 * t),
                                                               rel=1e-13)

    def test_undamped_leading_power(self):
        t = np.array([0.25, 1.0, 4.0])
        expected = t ** -0.5 / math.gamma(0.5)
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
        lead = t[small] ** (0.7 - 1.0) / math.gamma(0.7)
        assert vals[small] == pytest.approx(lead, rel=1e-4)
