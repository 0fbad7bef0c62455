import bisect
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfcx

from conftest import (branch_cut_quad_reference, branch_cut_talbot_reference,
                      kernel_gauss_nodes, ml_series_reference, picard_iterates,
                      picard_monotonicity, principal_zero_count)
from identities import im_parts, q_of_r
from subdecay import frac_ode, mittag_leffler
from subdecay.errors import DomainError, NumericalError, QuadratureError
from subdecay.frac_ode import (_CELL_W, _CELL_X, LaplaceSymbol, OdeSpec, _cheb_table,
                               _convolve_linear, _end_weights, _fft_size,
                               _kernel_moments, branch_cut_invert, picard_solve)


def random_symbol(rng):
    beta = rng.uniform(0.05, 0.95)
    alpha = rng.uniform(beta, 1.0)
    c2 = rng.uniform(0.1, 3.0)
    c1 = c2 * rng.uniform(1.01, 3.0)
    return LaplaceSymbol(c1=c1, c2=c2, alpha=alpha, beta=beta)


def q_product_form(sym, r):
    """Independent route: (s^a + c1)(s^b + c1) - c2^2 at s = r e^{i pi}."""
    s = r * np.exp(1j * np.pi)
    return (s ** sym.alpha + sym.c1) * (s ** sym.beta + sym.c1) - sym.c2 ** 2


class TestSymbol:
    def test_rejects_bad_constants(self):
        with pytest.raises(DomainError):
            LaplaceSymbol(c1=1.0, c2=1.0, alpha=0.9, beta=0.5)
        with pytest.raises(DomainError):
            LaplaceSymbol(c1=1.0, c2=-0.5, alpha=0.9, beta=0.5)
        with pytest.raises(DomainError):
            LaplaceSymbol(c1=2.0, c2=1.0, alpha=0.5, beta=0.9)

    @pytest.mark.parametrize("c1", [math.inf, math.nan])
    def test_rejects_non_finite_c1(self, c1):
        with pytest.raises(DomainError, match="finite"):
            LaplaceSymbol(c1=c1, c2=1.0, alpha=0.9, beta=0.5)

    def test_q_at_origin(self):
        sym = LaplaceSymbol(c1=2.0, c2=1.0, alpha=0.9, beta=0.5)
        assert q_of_r(sym, 0.0) == pytest.approx(3.0 + 0.0j, abs=0.0)

    def test_q_worked_point(self):
        sym = LaplaceSymbol(c1=2.0, c2=1.0, alpha=1.0, beta=0.5)
        assert q_of_r(sym, 1.0) == pytest.approx(1.0 + 1.0j, abs=1e-12)

    def test_q_matches_product_form(self, rng):
        for _ in range(1000):
            sym = random_symbol(rng)
            r = rng.uniform(0.0, 50.0)
            closed = q_of_r(sym, r)
            direct = q_product_form(sym, r)
            assert abs(closed - direct) <= 1e-12 * max(abs(direct), 1.0)

    def test_q_growth_rate(self):
        sym = LaplaceSymbol(c1=2.0, c2=1.0, alpha=0.9, beta=0.5)
        r = np.array([1e4, 1e6])
        ratio = abs(q_of_r(sym, r[1])) ** 2 / abs(q_of_r(sym, r[0])) ** 2
        expected = (r[1] / r[0]) ** (2 * (sym.alpha + sym.beta))
        assert ratio == pytest.approx(expected, rel=0.01)

    def test_q_never_vanishes_on_log_grid(self):
        sym = LaplaceSymbol(c1=2.0, c2=1.0, alpha=0.9, beta=0.5)
        r = np.logspace(-6, 6, 400)
        vals = np.abs(np.asarray(q_of_r(sym, r))) ** 2
        assert vals.min() > 0.0


class TestImParts:
    def test_at_origin(self):
        sym = LaplaceSymbol(c1=2.0, c2=1.0, alpha=0.9, beta=0.5)
        gap = sym.c1 ** 2 - sym.c2 ** 2
        im_exp, im_p = im_parts(sym, 0.0)
        assert im_exp == pytest.approx(gap * math.sin(0.9 * math.pi), rel=1e-14)
        assert im_p == pytest.approx(sym.c1 * gap * math.sin(0.9 * math.pi), rel=1e-14)

    def test_classical_alpha_reduction(self):
        sym = LaplaceSymbol(c1=2.0, c2=1.0, alpha=1.0, beta=0.5)
        r = 1.7
        im_exp, im_p = im_parts(sym, r)
        sb = math.sin(0.5 * math.pi)
        assert im_exp == pytest.approx(
            sym.c1 * r ** 0.5 * sb - r ** 1.5 * sb, rel=1e-12)
        # only the c2^2 sin(beta pi) r^beta term survives at alpha = 1
        assert im_p == pytest.approx(sym.c2 ** 2 * sb * r ** 0.5, rel=1e-12)

    def test_closed_forms_match_complex_arithmetic(self, rng):
        for _ in range(1000):
            sym = random_symbol(rng)
            r = rng.uniform(0.0, 20.0)
            im_exp, im_p = im_parts(sym, r)
            qbar = np.conj(q_product_form(sym, r))
            direct_exp = (np.exp(1j * np.pi * sym.alpha) * qbar).imag
            p = np.exp(1j * np.pi * sym.alpha) * (
                (r * np.exp(1j * np.pi)) ** sym.beta + sym.c1)
            direct_p = (p * qbar).imag
            scale = max(abs(direct_exp), abs(direct_p), 1.0)
            assert abs(im_exp - direct_exp) <= 1e-12 * scale
            assert abs(im_p - direct_p) <= 1e-12 * scale


class TestFindPoles:
    """The inversion sums no residues: the symbols it accepts have no pole
    in the cut plane, and alpha = beta = 1, whose poles lie on the negative
    axis, is refused."""

    def test_classical_case_excluded(self):
        with pytest.raises(DomainError, match="alpha = beta = 1"):
            LaplaceSymbol(c1=2.0, c2=1.0, alpha=1.0, beta=1.0)

    @pytest.mark.parametrize("orders", [(0.9, 0.5), (1.0, 0.5), (0.7, 0.7)])
    def test_reference_symbols_have_no_principal_poles(self, orders):
        sym = LaplaceSymbol(c1=2.0, c2=1.0, alpha=orders[0], beta=orders[1])
        assert principal_zero_count(sym) == 0


class TestPicard:
    def test_decoupled_collapses_to_mittag_leffler(self):
        spec = OdeSpec(alpha=0.5, beta=0.5, a=1.0, b=0.0,
                       eta1=1.0, eta2=0.0, mu1=0.0, mu2=0.0)
        path = picard_solve(spec, T=10.0, n_steps=512)
        ref = erfcx(np.sqrt(path.times[1:]))
        assert np.max(np.abs(path.U[1:] - ref)) < 1e-10
        assert np.max(np.abs(path.V)) == 0.0

    def test_classical_pair_against_matrix_exponential(self):
        c1, c2 = 1.3, 0.7
        spec = OdeSpec(alpha=1.0, beta=1.0, a=1.0, b=0.0,
                       eta1=c1, eta2=c1, mu1=c2, mu2=c2)
        path = picard_solve(spec, T=5.0, n_steps=2048)
        t = path.times
        U_exact = 0.5 * (np.exp(-(c1 - c2) * t) + np.exp(-(c1 + c2) * t))
        V_exact = 0.5 * (np.exp(-(c1 - c2) * t) - np.exp(-(c1 + c2) * t))
        assert np.max(np.abs(path.U - U_exact)) < 1e-6
        assert np.max(np.abs(path.V - V_exact)) < 1e-6

    def test_rotation_with_one_negative_coupling_certified(self):
        # U' = -2 V, V' = 2 U from (1, 0); without the refinement step, the
        # rounding of the map's reciprocal series leaves a residual of 1.9e-12
        spec = OdeSpec(alpha=1.0, beta=1.0, a=1.0, b=0.0,
                       eta1=0.0, eta2=0.0, mu1=-2.0, mu2=2.0)
        path = picard_solve(spec, T=10.0, n_steps=1024)
        assert path.residual <= 1e-12
        assert np.max(np.abs(path.U - np.cos(2.0 * path.times))) < 1e-3
        assert np.max(np.abs(path.V - np.sin(2.0 * path.times))) < 1e-3

    def test_nonnegative_data_gives_nonnegative_solution(self):
        spec = OdeSpec(alpha=0.9, beta=0.5, a=1.0, b=0.2,
                       eta1=1.0, eta2=0.5, mu1=0.6, mu2=0.8)
        path = picard_solve(spec, T=8.0, n_steps=512)
        assert path.residual <= 1e-12
        assert np.all(path.U >= 0.0) and np.all(path.V >= 0.0)
        # strict positivity at interior points when a > 0
        assert np.all(path.U[1:] > 0.0) and np.all(path.V[1:] > 0.0)

    def test_iterates_monotone_for_nonnegative_data(self):
        spec = OdeSpec(alpha=0.9, beta=0.5, a=1.0, b=0.0,
                       eta1=2.0, eta2=2.0, mu1=1.0, mu2=1.0)
        _, iterates = picard_iterates(spec, T=5.0, n_steps=256)
        assert picard_monotonicity(iterates)

    def test_decoupled_iterates_fixed_after_first(self):
        spec = OdeSpec(alpha=0.5, beta=0.5, a=1.0, b=0.0,
                       eta1=1.0, eta2=1.0, mu1=0.0, mu2=0.0)
        _, iterates = picard_iterates(spec, T=2.0, n_steps=64)
        (u1, v1), (u2, v2) = iterates[1], iterates[-1]
        assert np.array_equal(u1, u2) and np.array_equal(v1, v2)

    def test_monotonicity_detects_violation(self):
        down = [(np.array([0.0, 1.0]), np.array([0.0, 0.0])),
                (np.array([0.0, 0.5]), np.array([0.0, 0.0]))]
        assert not picard_monotonicity(down)

    def test_preconditions(self):
        spec = OdeSpec(alpha=0.5, beta=0.5, a=1.0, b=0.0,
                       eta1=1.0, eta2=1.0, mu1=0.0, mu2=0.0)
        with pytest.raises(DomainError):
            picard_solve(spec, T=0.0, n_steps=64)
        for T in (math.inf, math.nan):
            with pytest.raises(DomainError, match="horizon must be finite"):
                picard_solve(spec, T=T, n_steps=64)
        with pytest.raises(DomainError):
            picard_solve(spec, T=1.0, n_steps=8)
        with pytest.raises(DomainError):
            OdeSpec(alpha=0.5, beta=0.9, a=1.0, b=0.0,
                    eta1=1.0, eta2=1.0, mu1=0.0, mu2=0.0)

    @pytest.mark.parametrize("name", ["a", "b", "eta1", "eta2", "mu1", "mu2"])
    def test_non_finite_coefficient_rejected(self, name):
        fields = dict(alpha=0.9, beta=0.5, a=1.0, b=0.0,
                      eta1=1.0, eta2=1.0, mu1=0.5, mu2=0.5)
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            OdeSpec(**{**fields, name: math.nan})

    def test_coarse_step_for_the_coupling_raises(self):
        # mu1 mu2 C_A[0] C_B[0] = 1.29: sweeps of the map diverge at cell 0
        spec = OdeSpec(alpha=0.9, beta=0.5, a=1.0, b=0.0,
                       eta1=0.0, eta2=0.0, mu1=4.0, mu2=4.0)
        with pytest.raises(NumericalError, match="step too coarse for the coupling"):
            picard_solve(spec, T=20.0, n_steps=64)

    def test_exit_satisfies_discrete_map(self):
        # both halves of the discrete map hold at the returned solution
        spec = OdeSpec(alpha=0.9, beta=0.5, a=1.0, b=0.0,
                       eta1=2.0, eta2=2.0, mu1=1.0, mu2=1.0)
        path = picard_solve(spec, T=20.0, n_steps=5120)
        assert path.residual <= 1e-12
        t = path.times
        U1 = np.append(1.0, mittag_leffler.ml_neg(0.9, 1.0, -2.0 * t[1:] ** 0.9, rtol=1e-10))
        kA = _kernel_moments(0.9, 2.0, t, layer_exp=0.5)
        kB = _kernel_moments(0.5, 2.0, t, layer_exp=0.9)
        assert np.max(np.abs(path.U - (U1 + _convolve_linear(kA, path.V)))) <= 1e-12
        assert np.max(np.abs(path.V - _convolve_linear(kB, path.U))) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(alpha=st.floats(0.1, 1.0), beta_share=st.floats(0.0, 1.0),
           a=st.floats(0.0, 2.0), b=st.floats(0.0, 2.0),
           eta1=st.floats(0.0, 3.0), eta2=st.floats(0.0, 3.0),
           mu1_share=st.floats(0.0, 1.0), mu2_share=st.floats(0.0, 1.0),
           T=st.floats(0.5, 10.0))
    @example(alpha=0.45009942806429437, beta_share=0.9640716844467738, a=0.0, b=0.0,
             eta1=0.0, eta2=3.0, mu1_share=0.0, mu2_share=1.0, T=5.0)
    def test_iterates_monotone_for_random_nonnegative_data(self, alpha, beta_share, a, b,
                                                          eta1, eta2, mu1_share,
                                                          mu2_share, T):
        # couplings at most the damping keep the solution within max(a, b);
        # the iterates of a growing solution jitter at its rounding floor,
        # past the 1e-12 slack of picard_monotonicity
        beta = 0.1 + beta_share * (alpha - 0.1)
        spec = OdeSpec(alpha=alpha, beta=beta, a=a, b=b, eta1=eta1, eta2=eta2,
                       mu1=mu1_share * eta1, mu2=mu2_share * eta2)
        _, iterates = picard_iterates(spec, T=T, n_steps=64)
        assert picard_monotonicity(iterates)

    @pytest.mark.parametrize("orders, a, b, mu, T, n", [
        ((0.809, 0.651), 0.98, 0.35, (0.96, 1.97), 9.33, 64),
        ((0.9, 0.5), 1.0, 0.0, (1.0, 1.0), 20.0, 5120)])
    def test_growing_solution_certified(self, orders, a, b, mu, T, n):
        # undamped, the data stay a and b, and the solutions grow to 2.5e6
        # and 3.5e8; the map applied here holds to 1e-12 of that scale
        spec = OdeSpec(alpha=orders[0], beta=orders[1], a=a, b=b,
                       eta1=0.0, eta2=0.0, mu1=mu[0], mu2=mu[1])
        path = picard_solve(spec, T=T, n_steps=n)
        scale = max(1.0, np.max(np.abs(path.U)), np.max(np.abs(path.V)))
        assert scale > 1e6 and path.residual <= 1e-12 * scale
        kA = _kernel_moments(orders[0], 0.0, path.times, layer_exp=orders[1])
        kB = _kernel_moments(orders[1], 0.0, path.times, layer_exp=orders[0])
        U_map = a + mu[0] * _convolve_linear(kA, path.V)
        V_map = b + mu[1] * _convolve_linear(kB, path.U)
        assert np.max(np.abs(path.U - U_map)) <= 1e-12 * scale
        assert np.max(np.abs(path.V - V_map)) <= 1e-12 * scale

    @settings(max_examples=25, deadline=None)
    @given(orders=st.tuples(st.floats(0.1, 1.0), st.floats(0.1, 1.0)),
           a=st.floats(0.0, 2.0), b=st.floats(0.0, 2.0),
           eta1=st.floats(0.0, 3.0), eta2=st.floats(0.0, 3.0),
           mu1=st.floats(0.0, 4.0), mu2=st.floats(0.0, 4.0),
           T=st.floats(0.5, 10.0), n=st.integers(64, 1024))
    @example(orders=(0.809, 0.651), a=0.98, b=0.35, eta1=0.0, eta2=0.0,
             mu1=0.96, mu2=1.97, T=9.33, n=64)
    @example(orders=(0.5, 0.9999999999999999), a=1.0, b=0.5, eta1=1.0, eta2=1.0,
             mu1=0.5, mu2=0.5, T=5.0, n=256)
    def test_any_coupling_certified_or_raises(self, orders, a, b, eta1, eta2, mu1, mu2, T, n):
        # couplings past the damping grow the solution, up to past float64's
        # range or with a step too coarse for the coupling; a returned path
        # always carries a passing certificate, and no draw warns
        spec = OdeSpec(alpha=max(orders), beta=min(orders), a=a, b=b,
                       eta1=eta1, eta2=eta2, mu1=mu1, mu2=mu2)
        try:
            path = picard_solve(spec, T=T, n_steps=n)
        except NumericalError:
            return
        assert np.all(np.isfinite(path.U)) and np.all(np.isfinite(path.V))
        scale = max(1.0, np.max(np.abs(path.U)), np.max(np.abs(path.V)))
        assert path.residual <= 1e-12 * scale

    @pytest.mark.parametrize("eta, c, T, n", [
        (0.5, 1.0, 10.0, 4096), (0.9, 2.0, 20.0, 5120), (0.99, 2.0, 20.0, 5120),
        (1.0, 0.5, 100.0, 5120), (0.3, 1.0, 5.0, 64)])
    def test_datum_against_direct_samples(self, eta, c, T, n, monkeypatch):
        # a decoupled solve returns its datum table: E_eta(-c t^eta) at every
        # grid point, both sides sampled at rtol 1e-12
        monkeypatch.setattr(frac_ode, "ml_neg", ml_neg_sharp)
        spec = OdeSpec(alpha=eta, beta=eta, a=1.0, b=0.0, eta1=c, eta2=c, mu1=0.0, mu2=0.0)
        path = picard_solve(spec, T=T, n_steps=n)
        ref = mittag_leffler.ml_neg(eta, 1.0, -c * path.times[1:] ** eta, rtol=1e-12)
        assert path.U[0] == 1.0
        np.testing.assert_allclose(path.U[1:], ref, rtol=1e-13, atol=0.0)

    def test_tables_need_no_extended_precision(self, monkeypatch):
        # near eta = 1 the kernel lines hold points the float64 routes
        # certify only at rtol 1e-10 and above; the tables sample there
        def refuse(*args):
            raise AssertionError("extended-precision fallback reached")

        monkeypatch.setattr(mittag_leffler, "_mp_series", refuse)
        for eta in (0.95, 0.98, 0.99, 0.995, 0.999, 1.0):
            for c in (0.5, 2.0, 8.0):
                spec = OdeSpec(alpha=eta, beta=eta, a=1.0, b=1.0,
                               eta1=c, eta2=c, mu1=0.5 * c, mu2=0.5 * c)
                for T, n in ((20.0, 5120), (20.0, 64), (100.0, 5120)):
                    picard_solve(spec, T=T, n_steps=n)

    @pytest.fixture
    def ml_calls(self, monkeypatch):
        """(eta, mu) of every ml_neg call picard_solve makes."""
        calls = []

        def counted(eta, mu, z, **kwargs):
            calls.append((eta, mu))
            return mittag_leffler.ml_neg(eta, mu, z, **kwargs)

        monkeypatch.setattr(frac_ode, "ml_neg", counted)
        return calls

    def test_decoupled_solve_tabulates_only_the_datum(self, ml_calls):
        spec = OdeSpec(alpha=0.5, beta=0.5, a=1.0, b=0.0,
                       eta1=1.0, eta2=1.0, mu1=0.0, mu2=0.0)
        path = picard_solve(spec, T=10.0, n_steps=512)
        assert ml_calls == [(0.5, 1.0)]
        assert np.all(path.V == 0.0)

    def test_zero_slow_datum_skips_its_table(self, ml_calls):
        spec = OdeSpec(alpha=0.9, beta=0.5, a=1.0, b=0.0,
                       eta1=2.0, eta2=2.0, mu1=1.0, mu2=1.0)
        picard_solve(spec, T=5.0, n_steps=256)
        # E_alpha for U's datum and the two kernels' tables, no E_beta table
        assert (0.9, 1.0) in ml_calls and (0.5, 1.0) not in ml_calls
        assert {eta for eta, _ in ml_calls} == {0.9, 0.5}


def kernel_cell_reference(eta, c, t0, t1, weight, end_power=0.0):
    """int_{t0}^{t1} k(tau) weight(tau - t0, t1 - tau) (t1 - tau)^end_power
    dtau for the relaxation kernel k(tau) = tau^{eta-1} E_{eta,eta}(-c tau^eta),
    by QUADPACK over the mpmath series of E.  On cell 0 the variable is
    sigma = tau^eta (k dtau = E(-c sigma)/eta dsigma, no singular factor
    left).  On later cells it is the offset s = tau - t0, so that both
    distances to the cell ends are formed without cancelling against tau
    (t1 - sigma^{1/eta} at tau ~ 20 loses about 1e-12 of a 5120-step cell),
    and QUADPACK's algebraic weight takes (t1 - tau)^end_power."""
    if t0 == 0.0:
        def f(sig):
            tau = sig ** (1.0 / eta)
            return (ml_series_reference(eta, eta, -c * sig) / eta
                    * weight(tau, t1 - tau) * (t1 - tau) ** end_power)

        val, err = quad(f, 0.0, t1 ** eta, epsabs=0.0, epsrel=2e-14, limit=200)
    else:
        def f(s):
            tau = t0 + s
            return (tau ** (eta - 1.0) * ml_series_reference(eta, eta, -c * tau ** eta)
                    * weight(s, (t1 - t0) - s))

        val, err = quad(f, 0.0, t1 - t0, weight="alg", wvar=(0.0, end_power),
                        epsabs=0.0, epsrel=2e-14, limit=200)
    assert err <= 1e-13 * abs(val)
    return val


def ml_neg_sharp(eta, mu, z, rtol):
    """ml_neg at rtol 1e-12 whatever rtol a table asks for: two samplings of
    the kernel then differ by their interpolation alone, not by errors up to
    the tables' 1e-10 that the routes certify at different points."""
    return mittag_leffler.ml_neg(eta, mu, z, rtol=min(rtol, 1e-12))


def gauss_node_moments(eta, c, times, p, rtol):
    """A, B and the end moment M of kernel cells 1..n-1 with the kernel
    sampled by ml_neg at every node of the cells' 12-node Gauss rule."""
    h = times[1] - times[0]
    x, w = np.polynomial.legendre.leggauss(12)
    nodes = kernel_gauss_nodes(times)
    vals = (nodes ** (eta - 1.0) * 0.5 * h
            * mittag_leffler.ml_neg(eta, eta, -c * nodes ** eta, rtol=rtol))
    return [vals @ (w * 0.5 * (1.0 - x)), vals @ (w * 0.5 * (1.0 + x)),
            (vals @ _end_weights(p, x, w)) * (0.5 * h) ** p]


class TestKernelMoments:
    @pytest.mark.parametrize("eta, c, p, T, n", [
        (0.9, 2.0, 0.5, 20.0, 5120), (0.5, 2.0, 0.9, 20.0, 5120),
        (1.0, 2.0, 0.5, 20.0, 16), (0.3, 1.0, 0.1, 5.0, 64),
        (0.5, 2.0, 1.0, 20.0, 5120)])
    def test_first_cells_against_quadrature(self, eta, c, p, T, n):
        # cell 0 is closed form; later cells one 12-node Gauss panel, shared
        # by A, B and M, checked next to the origin, on both sides of the
        # table's 32- and 64-step block seams, and on the last cell (16 and
        # 64 steps have fewer of these cells)
        times = np.linspace(0.0, T, n + 1)
        kw = _kernel_moments(eta, c, times, layer_exp=p)
        h = kw.h
        M = kw.layer_corr + h ** p * kw.A
        for j in sorted({j for j in (0, 1, 2, 3, 4, 31, 32, 63, 64) if j < n} | {n - 1}):
            t0, t1 = times[j], times[j + 1]
            A = kernel_cell_reference(eta, c, t0, t1, lambda left, right: right / h)
            B = kernel_cell_reference(eta, c, t0, t1, lambda left, right: left / h)
            Mj = kernel_cell_reference(eta, c, t0, t1, lambda left, right: 1.0, end_power=p)
            assert kw.A[j] == pytest.approx(A, rel=1e-12, abs=0.0)
            assert kw.B[j] == pytest.approx(B, rel=1e-12, abs=0.0)
            assert M[j] == pytest.approx(Mj, rel=1e-12, abs=0.0)
        if p == 1.0:
            # the beta-kernel of an alpha = 1 solve: the end moment is h A
            np.testing.assert_allclose(M, h * kw.A, rtol=1e-13)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9, 1.0])
    def test_end_weights_exact_to_degree_eleven(self, p):
        # int x^k (1-x)^p over [-1, 1] from the Beta moments of (1+x)^m (1-x)^p,
        # summed in mpmath because the binomial expansion alternates; the
        # 12-node rule of the kernel cells is exact to degree eleven
        with mpmath.workdps(30):
            exact = [float(mpmath.fsum(
                mpmath.binomial(k, m) * (-1) ** (k - m) * mpmath.mpf(2) ** (m + p + 1)
                * mpmath.beta(m + 1, p + 1) for m in range(k + 1))) for k in range(12)]
        w = _end_weights(p, _CELL_X, _CELL_W)
        np.testing.assert_allclose([w @ _CELL_X ** k for k in range(12)], exact,
                                   rtol=0.0, atol=1e-13)
        assert w.sum() == pytest.approx(2.0 ** (p + 1.0) / (p + 1.0), rel=1e-14)

    @pytest.mark.parametrize("eta, c, p, T, n", [
        (0.9, 2.0, 0.5, 20.0, 5120), (0.5, 2.0, 0.9, 20.0, 5120),
        (1.0, 2.0, 0.5, 20.0, 16), (0.3, 1.0, 0.1, 5.0, 64),
        (0.5, 2.0, 1.0, 20.0, 5120), (0.99, 0.5, 0.5, 20.0, 5120)])
    def test_tables_against_gauss_node_samples(self, eta, c, p, T, n, monkeypatch):
        # the moments from the Chebyshev table against the same Gauss rule
        # on ml_neg at every node, both sides sampled at rtol 1e-12.  At
        # eta = 0.99, c = 0.5 keeps |z| under 10: with c = 2, about half of
        # the nodes (|z| from 12.6 to 38.8) need the mpmath series there
        monkeypatch.setattr(frac_ode, "ml_neg", ml_neg_sharp)
        times = np.linspace(0.0, T, n + 1)
        kw = _kernel_moments(eta, c, times, layer_exp=p)
        A, B, M = gauss_node_moments(eta, c, times, p, rtol=1e-12)
        np.testing.assert_allclose(kw.A[1:], A, rtol=3e-13, atol=0.0)
        np.testing.assert_allclose(kw.B[1:], B, rtol=3e-13, atol=0.0)
        np.testing.assert_allclose(kw.layer_corr[1:] + kw.h ** p * kw.A[1:], M,
                                   rtol=3e-13, atol=0.0)

    def test_tables_through_underflow(self):
        # e^{-8t} to t = 100 falls through the subnormals to 0 from t ~ 90 on;
        # blocks there pass on the absolute floor, and wherever the values
        # are normal floats the tables match direct sampling.  Rounding t
        # alone moves e^{-8t} by 8 t eps, 1.6e-13 at t = 90, on either side
        times = np.linspace(0.0, 100.0, 5121)
        kw = _kernel_moments(1.0, 8.0, times, layer_exp=0.5)
        tiny = np.finfo(float).tiny
        for got, ref in zip((kw.A[1:], kw.B[1:], kw.layer_corr[1:] + kw.h ** 0.5 * kw.A[1:]),
                            gauss_node_moments(1.0, 8.0, times, 0.5, rtol=1e-10)):
            normal = ref >= tiny
            assert 0 < np.count_nonzero(normal) < ref.size
            np.testing.assert_allclose(got[normal], ref[normal], rtol=4e-13, atol=0.0)
        spec = OdeSpec(alpha=1.0, beta=1.0, a=1.0, b=0.0,
                       eta1=8.0, eta2=8.0, mu1=0.0, mu2=0.0)
        U, ref = picard_solve(spec, T=100.0, n_steps=5120).U, np.exp(-8.0 * times)
        normal = ref >= tiny
        np.testing.assert_allclose(U[normal], ref[normal], rtol=4e-13, atol=0.0)
        assert np.all(np.abs(U[~normal]) < tiny)

    def test_one_table_call_per_kernel(self, monkeypatch):
        samples = []

        def counted(eta, mu, z, **kwargs):
            samples.append(np.ravel(z))
            return mittag_leffler.ml_neg(eta, mu, z, **kwargs)

        monkeypatch.setattr(frac_ode, "ml_neg", counted)
        cheb = np.cos(np.pi * (np.arange(24) + 0.5) / 24)
        lam = (-2.0 * math.cos(0.8 * math.pi)) ** 1.25
        # three closed-form cell-0 moments, then one table for every cell:
        # 24 Chebyshev points on each block of 2^k steps, as wide as its
        # distance from 0, 64 steps and 4/lam allow.  At 5120 steps that is
        # 1, 2, ..., 32, then 79 blocks of 64; at 64 steps (h = 0.3125,
        # lam h = 0.57) it is 1, 2, then 14 blocks of 4
        for n, cap, blocks in ((5120, 64, 85), (64, 4, 17)):
            samples.clear()
            times = np.linspace(0.0, 20.0, n + 1)
            _kernel_moments(0.8, 2.0, times, layer_exp=0.4)
            assert [z.size for z in samples] == [1, 1, 1, 24 * blocks]
            assert cap == min(64, 2 ** math.floor(math.log2(4.0 / (lam * times[1]))))
            # each block's start and width from its sample points
            s = ((-samples[3] / 2.0) ** 1.25 / times[1]).reshape(blocks, 24)
            width = np.round(2.0 * (s[:, 0] - s[:, -1]) / (cheb[0] - cheb[-1]))
            start = np.round(s[:, -1] - 0.5 * width * (1.0 + cheb[-1]))
            assert start[0] == 1.0 and np.all(start[1:] == start[:-1] + width[:-1])
            assert start[-1] < n <= start[-1] + width[-1]
            np.testing.assert_array_equal(width, np.minimum(start, cap))
            assert np.all(np.log2(width) % 1.0 == 0.0)
        # at 16 steps (lam h = 2.3) one-step blocks would take 24 points a
        # cell, more than its Gauss nodes: the kernel is sampled at the nodes
        samples.clear()
        times = np.linspace(0.0, 20.0, 17)
        _kernel_moments(0.8, 2.0, times, layer_exp=0.4)
        nodes = kernel_gauss_nodes(times).size
        assert [z.size for z in samples] == [1, 1, 1, nodes] and nodes < 24 * 15

    def test_unresolved_block_raises(self):
        # noise never passes the tail gate, down to one-step blocks
        noise = np.random.default_rng(3)
        with pytest.raises(NumericalError, match="Chebyshev block unresolved at step"):
            _cheb_table(lambda s: noise.uniform(1.0, 2.0, np.shape(s)), 5121, 0.0, 10 ** 6)

    def test_fft_size_against_brute_force(self):
        # every 2^a 3^b 5^c up to 2^14, then the smallest one >= m
        k = range(15)
        smooth = sorted(n for n in (2 ** a * 3 ** b * 5 ** c for a in k for b in k for c in k)
                        if n <= 2 ** 14)
        for m in [*range(5001), 8191, 10239]:
            assert _fft_size(m) == smooth[bisect.bisect_left(smooth, m)], m

    @pytest.mark.parametrize("n", [16, 1009, 5120])
    def test_fft_convolution_against_direct_sum(self, n):
        # 1009 is prime, so the transform length is padded to a 5-smooth one
        times = np.linspace(0.0, 20.0, n + 1)
        kw = _kernel_moments(0.8, 2.0, times, layer_exp=0.4)
        W = 1.0 + np.sqrt(times) * np.exp(-times / 5.0)
        direct = np.zeros(n + 1)
        direct[1:] = (np.convolve(kw.A, W[1:])[:n] + np.convolve(kw.B, W[:-1])[:n]
                      + (W[1] - W[0]) / kw.h ** 0.4 * kw.layer_corr)
        np.testing.assert_allclose(_convolve_linear(kw, W), direct, rtol=0.0,
                                   atol=1e-14 * np.max(np.abs(direct)))

    @pytest.mark.parametrize("eta, p, n", [(0.9, 0.5, 700), (0.4, 0.8, 1009)])
    def test_single_transform_against_direct_sum(self, eta, p, n):
        # entry i of A W[1:] + B W[:-1] summed directly over cells j < i, plus
        # the end-cell layer correction, on random samples W
        times = np.linspace(0.0, 20.0, n + 1)
        kw = _kernel_moments(eta, 2.0, times, layer_exp=p)
        W = np.random.default_rng(11).uniform(0.5, 1.5, n + 1)
        direct = np.zeros(n + 1)
        for i in range(1, n + 1):
            direct[i] = kw.A[:i] @ W[i:0:-1] + kw.B[:i] @ W[i - 1::-1]
        direct[1:] += (W[1] - W[0]) / kw.h ** p * kw.layer_corr
        got = _convolve_linear(kw, W)
        assert got[0] == 0.0
        np.testing.assert_allclose(got, direct, rtol=1e-13, atol=0.0)


def cut_reference(sym, t):
    """(U, V) at the times t by scalar QUADPACK along the cut."""
    return np.array([[branch_cut_quad_reference(sym, tv, n) for tv in t]
                     for n in ("p", "exp")]) * [[1.0], [sym.c2]]


def assert_talbot_or_refused(sym, t, rtol=1e-9):
    """branch_cut_invert's (U, V) at the times t agree with 30-digit Talbot
    inversion to rtol; a QuadratureError is allowed only for 1 - beta < 1e-3."""
    ref = np.array([branch_cut_talbot_reference(sym, tv) for tv in t]).T
    try:
        got = branch_cut_invert(sym, t)
    except QuadratureError:
        assert 1.0 - sym.beta < 1e-3
        return
    np.testing.assert_allclose(got, ref, rtol=rtol, atol=0.0)


def assert_solvers_agree(alpha, beta, c1, c2):
    """Picard (T = 20, 5120 steps) and branch-cut inversion of the symmetric
    system with data (1, 0) agree to 1e-4 relative at t = 1, 2, 5, 10, 20."""
    sym = LaplaceSymbol(c1=c1, c2=c2, alpha=alpha, beta=beta)
    spec = OdeSpec(alpha=alpha, beta=beta, a=1.0, b=0.0,
                   eta1=c1, eta2=c1, mu1=c2, mu2=c2)
    path = picard_solve(spec, T=20.0, n_steps=5120)
    assert path.residual <= 1e-12
    t_check = np.array([1.0, 2.0, 5.0, 10.0, 20.0])
    U_bc, V_bc = branch_cut_invert(sym, t_check)
    idx = np.searchsorted(path.times, t_check)
    np.testing.assert_allclose(path.times[idx], t_check, atol=1e-12, rtol=0)
    assert np.max(np.abs(path.U[idx] - U_bc) / U_bc) < 1e-4
    assert np.max(np.abs(path.V[idx] - V_bc) / V_bc) < 1e-4


class TestBranchCutInversion:
    def test_rejects_small_times(self):
        sym = LaplaceSymbol(c1=2.0, c2=1.0, alpha=0.9, beta=0.5)
        with pytest.raises(DomainError):
            branch_cut_invert(sym, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_times(self, bad):
        sym = LaplaceSymbol(c1=2.0, c2=1.0, alpha=0.9, beta=0.5)
        with pytest.raises(DomainError, match="finite"):
            branch_cut_invert(sym, bad)
        with pytest.raises(DomainError, match="finite"):
            branch_cut_invert(sym, np.array([2.0, bad]))

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(0.2, 1.0), beta_share=st.floats(0.0, 1.0),
           c2=st.floats(0.05, 3.0), ratio=st.floats(1.01, 4.0),
           log_t=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=3))
    # beta = 1 - 1e-16, next to the corner (see test_alpha_beta_one_limit)
    @example(alpha=1.0, beta_share=0.9999999999999999, c2=1.0, ratio=2.0, log_t=[0.0])
    def test_against_talbot(self, alpha, beta_share, c2, ratio, log_t):
        beta = 0.05 + beta_share * (alpha - 0.05)
        # the corner alpha = beta = 1 has no cut, and LaplaceSymbol refuses it
        assume(beta < 1.0)
        sym = LaplaceSymbol(c1=ratio * c2, c2=c2, alpha=alpha, beta=beta)
        assert_talbot_or_refused(sym, 10.0 ** np.array(log_t))

    @pytest.mark.parametrize("alpha, beta, c1, c2, t, rtol", [
        # next to the corner alpha = beta = 1, whose poles -c1 +- c2 sit just
        # across the cut
        (1.0, 0.9998908960433656, 2.81143911695857, 1.5792132577292666, [8270.396784692733],
         1e-9),
        (1.0, 1.0 - 1.9e-8, 7.0227, 2.43, [1.28], 1e-12),
        (1.0, 0.05 + (1.0 - 1.2e-6) * 0.95, 1.56 * 1.58, 1.58, [1.0, 10.0], 1e-12),
        # QUADPACK along the cut certifies a value 2.7e-7 off here
        (0.9999999988786845, 0.9999999957044455, 5.649990718854599, 1.534828496917195,
         [1.6745168348924229], 1e-9),
        # constants far below 1: the symbol's scale r^alpha ~ c1 is tiny
        (0.9, 0.5, 1e-8, 5e-9, [1.0, 100.0, 1e4], 1e-12)],
        ids=["late-corner", "corner-poles", "corner-share", "quadpack-miss", "tiny-constants"])
    def test_hard_symbols_against_talbot(self, alpha, beta, c1, c2, t, rtol):
        sym = LaplaceSymbol(c1=c1, c2=c2, alpha=alpha, beta=beta)
        np.testing.assert_allclose(branch_cut_invert(sym, np.array(t)),
                                   np.array([branch_cut_talbot_reference(sym, tv) for tv in t]).T,
                                   rtol=rtol, atol=0.0)

    @pytest.mark.parametrize("beta, c1, c2, t", [
        (0.9999988758613507, 3.6785953994789544, 0.9519054027932831, 84.10227630957607),
        (0.9999999996405375, 7.41665682091456, 2.0535855224130266, 8.114730494135104)],
        ids=["beta-1e-6", "beta-4e-10"])
    def test_corner_refused_or_right(self, beta, c1, c2, t):
        # next to the corner a value may be refused, never silently wrong
        assert_talbot_or_refused(LaplaceSymbol(c1=c1, c2=c2, alpha=1.0, beta=beta),
                                 np.array([t]))

    def test_alpha_beta_one_limit(self):
        # at alpha = 1, beta = 1 - 1e-16 the system is the ODE pair with
        # U = e^{-2t} cosh t and V = e^{-2t} sinh t for c1 = 2, c2 = 1
        U, V = branch_cut_invert(LaplaceSymbol(c1=2.0, c2=1.0, alpha=1.0,
                                               beta=0.9999999999999999), 1.0)
        assert U == pytest.approx(math.exp(-2.0) * math.cosh(1.0), rel=1e-12, abs=0.0)
        assert V == pytest.approx(math.exp(-2.0) * math.sinh(1.0), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("c1, c2", [(1e200, 1.0)])
    def test_overflowing_symbol_refused(self, c1, c2):
        # c1^2 overflows: no silent inf/NaN
        sym = LaplaceSymbol(c1=c1, c2=c2, alpha=0.9, beta=0.5)
        with pytest.raises(QuadratureError, match="overflows"):
            branch_cut_invert(sym, np.array([1.0, 100.0]))

    def test_tiny_constants_decoupled_limit(self):
        # as c1, c2 -> 0, U^ -> 1/s and V^ -> c2 s^{-1-beta}: U = 1 and
        # V = c2 t^beta / Gamma(1 + beta)
        sym = LaplaceSymbol(c1=1e-150, c2=1e-160, alpha=0.9, beta=0.5)
        t = np.array([1.0, 100.0])
        U, V = branch_cut_invert(sym, t)
        np.testing.assert_allclose(U, 1.0, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(V, 1e-160 * t ** 0.5 / math.gamma(1.5), rtol=1e-12, atol=0.0)

    def test_underflowing_gap_divides_nowhere(self):
        # c1^2 - c2^2 underflows to 0, so the subtracted form holds at no t
        # and is not divided out (the suite makes RuntimeWarnings errors);
        # the values are the plain sums', as before that
        sym = LaplaceSymbol(c1=2e-200, c2=1e-200, alpha=0.9, beta=0.5)
        assert branch_cut_invert(sym, 1.0) == (0.9999999999999998, 1.1283791670955125e-200)
        assert branch_cut_invert(sym, 10.0) == (1.0, 3.568248232305542e-200)

    def test_near_pole_cut_against_quadpack(self):
        # at orders 1.0/0.2, c2 = 0.053, |q(r)|^2 dips to 4e-7 near r = c1 = 2
        sym = LaplaceSymbol(c1=2.0, c2=0.053, alpha=1.0, beta=0.2)
        r = np.linspace(1.9, 2.1, 2001)
        assert np.min(np.abs(q_of_r(sym, r)) ** 2) < 5e-7
        t = np.array([1.0, 2.0, 5.0, 10.0, 20.0, 100.0, 1e4])
        np.testing.assert_allclose(branch_cut_invert(sym, t), cut_reference(sym, t),
                                   rtol=1e-9, atol=0.0)

    def test_against_talbot_frozen_values(self):
        # frozen from an independent 30-digit Talbot inversion of the symbols
        sym = LaplaceSymbol(c1=2.0, c2=1.0, alpha=0.9, beta=0.5)
        U, V = branch_cut_invert(sym, np.array([1.0, 2.0, 5.0]))
        assert U == pytest.approx([0.2210165248, 0.0923952146, 0.0261749975],
                                  rel=1e-8)
        assert V == pytest.approx([0.1071099714, 0.0537847041, 0.0171316197],
                                  rel=1e-8)

    def test_cross_solver_agreement(self):
        assert_solvers_agree(0.9, 0.5, c1=2.0, c2=1.0)

    def test_cold_solve_stays_in_float64(self, monkeypatch):
        # the kernel tables of a cold solve need no extended precision
        def refuse(*args):
            raise AssertionError("extended-precision fallback reached")

        monkeypatch.setattr(mittag_leffler, "_mp_series", refuse)
        spec = OdeSpec(alpha=0.9, beta=0.5, a=1.0, b=0.0,
                       eta1=2.0, eta2=2.0, mu1=1.0, mu2=1.0)
        path = picard_solve(spec, T=20.0, n_steps=5120)
        assert path.residual <= 1e-12

    def test_classical_fast_order_agreement(self):
        # orders 1.0/0.5: the fast kernel and E_{1,1} are plain exponentials
        assert_solvers_agree(1.0, 0.5, c1=2.0, c2=1.0)

    @pytest.mark.parametrize("orders, c1, c2", [
        ((1.0, 0.05), 1.5, 1.0), ((1.0, 0.2), 1.9, 0.02), ((1.0, 0.2), 2.1, 0.1)])
    def test_near_cut_symbols_against_picard(self, orders, c1, c2):
        # |q(r)| dips to 5e-2, 3e-5 and 5e-4 of |q(0)| along the cut for
        # these symbols; the cut integral alone must still match Picard
        assert_solvers_agree(*orders, c1=c1, c2=c2)

    def test_positivity_along_the_decay(self):
        for alpha in (0.9, 1.0):
            sym = LaplaceSymbol(c1=2.0, c2=1.0, alpha=alpha, beta=0.5)
            U, V = branch_cut_invert(sym, np.logspace(0, 3, 16))
            assert np.all(U > 0.0) and np.all(V > 0.0)

    def test_residue_bound_trivial_when_no_poles(self):
        sym = LaplaceSymbol(c1=2.0, c2=1.0, alpha=0.9, beta=0.5)
        assert principal_zero_count(sym) == 0
        # with an empty pole set the inversion is the pure cut integral,
        # bounded by any e^{sigma t} with sigma < 0
        U, _ = branch_cut_invert(sym, 10.0)
        assert U > 0.0

