import bisect
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfcx

from conftest import branch_cut_quad_reference, ml_series_reference, principal_zero_count
from subdecay import frac_ode, mittag_leffler
from subdecay.errors import DomainError, QuadratureError
from subdecay.frac_ode import (_CELL_BANDS, LaplaceSymbol, OdeSpec, _cell_bands,
                               _convolve_linear, _cut_integrals, _end_weights, _fft_size,
                               _kernel_moments, branch_cut_invert, check_decay_assumption,
                               im_parts, picard_monotonicity, picard_solve, poincare_constant,
                               q_of_r)


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
        assert path.converged and path.iterations <= 3
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

    def test_nonnegative_data_gives_nonnegative_solution(self):
        spec = OdeSpec(alpha=0.9, beta=0.5, a=1.0, b=0.2,
                       eta1=1.0, eta2=0.5, mu1=0.6, mu2=0.8)
        path = picard_solve(spec, T=8.0, n_steps=512)
        assert path.converged
        assert np.all(path.U >= 0.0) and np.all(path.V >= 0.0)
        # strict positivity at interior points when a > 0
        assert np.all(path.U[1:] > 0.0) and np.all(path.V[1:] > 0.0)

    def test_iterates_monotone_for_nonnegative_data(self):
        spec = OdeSpec(alpha=0.9, beta=0.5, a=1.0, b=0.0,
                       eta1=2.0, eta2=2.0, mu1=1.0, mu2=1.0)
        path = picard_solve(spec, T=5.0, n_steps=256, record_iterates=True)
        assert path.converged
        assert len(path.iterates) == path.iterations + 1
        assert picard_monotonicity(path.iterates)

    def test_decoupled_iterates_fixed_after_first(self):
        spec = OdeSpec(alpha=0.5, beta=0.5, a=1.0, b=0.0,
                       eta1=1.0, eta2=1.0, mu1=0.0, mu2=0.0)
        path = picard_solve(spec, T=2.0, n_steps=64, record_iterates=True)
        (u1, v1), (u2, v2) = path.iterates[1], path.iterates[-1]
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

    def test_nonconvergence_reported_not_raised(self, monkeypatch):
        monkeypatch.setattr(frac_ode, "_MAX_SWEEPS", 3)
        spec = OdeSpec(alpha=0.9, beta=0.5, a=1.0, b=0.0,
                       eta1=0.0, eta2=0.0, mu1=4.0, mu2=4.0)
        path = picard_solve(spec, T=20.0, n_steps=64)
        assert not path.converged
        assert path.iterations == 3
        assert path.increment >= frac_ode._PICARD_TOL

    def test_exit_satisfies_discrete_map(self):
        # Gauss-Seidel sweeps: the 0.9/0.5 pair converges in at most 18, and
        # at exit both halves of the discrete map hold to the stop tolerance
        spec = OdeSpec(alpha=0.9, beta=0.5, a=1.0, b=0.0,
                       eta1=2.0, eta2=2.0, mu1=1.0, mu2=1.0)
        path = picard_solve(spec, T=20.0, n_steps=5120)
        assert path.converged and path.iterations <= 18
        assert path.increment < 1e-12
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
    def test_iterates_monotone_for_random_nonnegative_data(self, alpha, beta_share, a, b,
                                                          eta1, eta2, mu1_share,
                                                          mu2_share, T):
        # couplings at most the damping keep the solution within max(a, b),
        # where the 1e-12 stop is reachable; a growing solution stalls at
        # its rounding floor and its last iterates jitter by that much
        beta = 0.1 + beta_share * (alpha - 0.1)
        spec = OdeSpec(alpha=alpha, beta=beta, a=a, b=b, eta1=eta1, eta2=eta2,
                       mu1=mu1_share * eta1, mu2=mu2_share * eta2)
        path = picard_solve(spec, T=T, n_steps=64, record_iterates=True)
        assert path.converged
        assert len(path.iterates) == path.iterations + 1
        assert picard_monotonicity(path.iterates)

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
        assert path.converged and path.iterations == 2
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


def band_edges(bands, n):
    """Cell 0 and the first and last cell of each Gauss band of an n-cell table."""
    firsts = [min(band[0], n) for band in bands] + [n]
    return sorted({0} | {j for lo, hi in zip(firsts, firsts[1:]) if lo < hi
                         for j in (lo, hi - 1)})


class TestKernelMoments:
    @pytest.mark.parametrize("eta, c, p, T, n", [
        (0.9, 2.0, 0.5, 20.0, 5120), (0.5, 2.0, 0.9, 20.0, 5120),
        (1.0, 2.0, 0.5, 20.0, 16), (0.3, 1.0, 0.1, 5.0, 64),
        (0.5, 2.0, 1.0, 20.0, 5120)])
    def test_first_cells_against_quadrature(self, eta, c, p, T, n):
        # cell 0 is closed form; later cells the Gauss panel of their band,
        # shared by A, B and M, checked where each band starts and ends
        # (16 and 64 steps cut the bands short)
        times = np.linspace(0.0, T, n + 1)
        kw = _kernel_moments(eta, c, times, layer_exp=p)
        h = kw.h
        M = kw.layer_corr + h ** p * kw.A
        for j in band_edges(_cell_bands(eta, c, h, p), n):
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

    @pytest.mark.parametrize("eta, p, n", [(0.3, 0.1, 5120), (0.9, 0.5, 5120),
                                           (0.5, 1.0, 5120), (1.0, 0.5, 512)])
    def test_graded_rule_matches_twelve_nodes(self, eta, p, n, monkeypatch):
        # the graded bands against 12 nodes on every cell.  0.3/0.1 is the
        # pair a ladder that drops to 4 nodes from cell 8 on breaks; at
        # eta = 1 with 512 steps, c h = 0.078 is too coarse for 4 nodes.
        # Both builds sample the kernel at rtol 1e-12: at the tables' 1e-10
        # the large-argument expansion is certified with errors up to 1e-11,
        # which two node sets sample differently, and this compares rules
        def sharper(eta, mu, z, rtol):
            return mittag_leffler.ml_neg(eta, mu, z, rtol=min(rtol, 1e-12))

        monkeypatch.setattr(frac_ode, "ml_neg", sharper)
        times = np.linspace(0.0, 20.0, n + 1)
        graded = _kernel_moments(eta, 2.0, times, layer_exp=p)
        monkeypatch.setattr(frac_ode, "_CELL_BANDS",
                            ((1, *np.polynomial.legendre.leggauss(12)),))
        ref = _kernel_moments(eta, 2.0, times, layer_exp=p)
        np.testing.assert_allclose(graded.A, ref.A, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(graded.B, ref.B, rtol=1e-13, atol=0.0)
        # relative to the end moment M = layer_corr + h^p A it corrects:
        # at p = 1 the correction itself is rounding around zero
        M = ref.layer_corr + ref.h ** p * ref.A
        assert np.all(np.abs(graded.layer_corr - ref.layer_corr) <= 1e-13 * np.abs(M))

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9, 1.0])
    def test_end_weights_exact_to_degree_eleven(self, p):
        # int x^k (1-x)^p over [-1, 1] from the Beta moments of (1+x)^m (1-x)^p,
        # summed in mpmath because the binomial expansion alternates; each
        # n-node rule of the ladder is exact to degree n - 1 (eleven at the cap)
        with mpmath.workdps(30):
            exact = [float(mpmath.fsum(
                mpmath.binomial(k, m) * (-1) ** (k - m) * mpmath.mpf(2) ** (m + p + 1)
                * mpmath.beta(m + 1, p + 1) for m in range(k + 1))) for k in range(12)]
        for _, x, gw in _CELL_BANDS:
            w = _end_weights(p, x, gw)
            np.testing.assert_allclose([w @ x ** k for k in range(x.size)], exact[:x.size],
                                       rtol=0.0, atol=1e-13)
            assert w.sum() == pytest.approx(2.0 ** (p + 1.0) / (p + 1.0), rel=1e-14)

    def test_one_kernel_sample_per_gauss_node(self, monkeypatch):
        # order n of 12, 8, 6, 4 starts at the first cell j whose Bernstein
        # ellipse, rho_j = (2j+1) + sqrt((2j+1)^2 - 1), gives rho_j^-n <= 1e-13
        starts = [next(j for j in range(1, 10 ** 4)
                       if ((2 * j + 1) + math.sqrt((2 * j + 1) ** 2 - 1)) ** -n <= 1e-13)
                  for n in (8, 6, 4)]
        assert [first for first, _, _ in _CELL_BANDS] == [1, *starts] == [1, 11, 37, 445]
        points = []

        def counted(eta, mu, z, **kwargs):
            points.append(np.size(z))
            return mittag_leffler.ml_neg(eta, mu, z, **kwargs)

        monkeypatch.setattr(frac_ode, "ml_neg", counted)
        # three closed-form cell-0 moments, then one sample per node that A,
        # B and M all read: at 5120 steps 12 nodes on cells 1-10, 8 on 11-36,
        # 6 on 37-444 and 4 on 445-5119; at 64 steps (h = 0.3125, lam = 1.83)
        # the kernel's decay rate rules out 6 and 4, so 8 nodes on 11-63
        for n, expected in ((5120, 3 + 12 * 10 + 8 * 26 + 6 * 408 + 4 * 4675),
                            (64, 3 + 12 * 10 + 8 * 53)):
            points.clear()
            _kernel_moments(0.8, 2.0, np.linspace(0.0, 20.0, n + 1), layer_exp=0.4)
            assert sum(points) == expected

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
    return np.array([[branch_cut_quad_reference(sym, tv, n) for tv in t]
                     for n in ("p", "exp")])


def assert_solvers_agree(alpha, beta, c1, c2):
    """Picard (T = 20, 5120 steps) and branch-cut inversion of the symmetric
    system with data (1, 0) agree to 1e-4 relative at t = 1, 2, 5, 10, 20."""
    sym = LaplaceSymbol(c1=c1, c2=c2, alpha=alpha, beta=beta)
    spec = OdeSpec(alpha=alpha, beta=beta, a=1.0, b=0.0,
                   eta1=c1, eta2=c1, mu1=c2, mu2=c2)
    path = picard_solve(spec, T=20.0, n_steps=5120)
    assert path.converged
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
    # beta = 1 - 1e-16: QUADPACK cannot reach its error target there
    @example(alpha=1.0, beta_share=0.9999999999999999, c2=1.0, ratio=2.0, log_t=[0.0])
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_cut_integrals_against_quadpack(self, alpha, beta_share, c2, ratio, log_t):
        beta = 0.05 + beta_share * (alpha - 0.05)
        # the corner alpha = beta = 1 has no cut, and LaplaceSymbol refuses it
        assume(beta < 1.0)
        sym = LaplaceSymbol(c1=ratio * c2, c2=c2, alpha=alpha, beta=beta)
        t = 10.0 ** np.array(log_t)
        try:
            ref = cut_reference(sym, t)
        except ValueError:
            # where the reference cannot certify a value, no value may be returned
            with pytest.raises(QuadratureError):
                _cut_integrals(sym, t)
            return
        np.testing.assert_allclose(_cut_integrals(sym, t), ref, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("c1, c2", [(1e200, 1.0), (1e-150, 1e-160)])
    def test_overflowing_symbol_refused(self, c1, c2):
        # c1^2 overflows, or |q|^2 ~ c1^4 underflows to 0: no silent inf/NaN
        sym = LaplaceSymbol(c1=c1, c2=c2, alpha=0.9, beta=0.5)
        with np.errstate(all="ignore"), pytest.raises(QuadratureError, match="overflows"):
            branch_cut_invert(sym, np.array([1.0, 100.0]))

    def test_near_pole_cut_against_quadpack(self):
        # at orders 1.0/0.2, c2 = 0.053, |q(r)|^2 dips to 4e-7 near r = c1 = 2
        sym = LaplaceSymbol(c1=2.0, c2=0.053, alpha=1.0, beta=0.2)
        r = np.linspace(1.9, 2.1, 2001)
        assert np.min(np.abs(q_of_r(sym, r)) ** 2) < 5e-7
        t = np.array([1.0, 2.0, 5.0, 10.0, 20.0, 100.0, 1e4])
        np.testing.assert_allclose(_cut_integrals(sym, t), cut_reference(sym, t),
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
        assert path.converged

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


class TestDecayAssumption:
    def test_boundary_equality_fails(self):
        assert not check_decay_assumption(1.0, 1.0, 1.0, 1.0)

    def test_small_couplings_pass(self):
        assert check_decay_assumption(1.0, 1.0, 0.5, 0.5)

    def test_reference_experiment_exceeds_condition(self):
        # the standard experiment on (0, pi): kappa0 = 1, C = 1, couplings 1
        c = poincare_constant(math.pi)
        assert c == pytest.approx(1.0, rel=1e-15)
        assert not check_decay_assumption(1.0, c, 1.0, 1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            check_decay_assumption(0.0, 1.0, 1.0, 1.0)
