import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfcx

from conftest import branch_cut_quad_reference, ml_series_reference
from subdecay import mittag_leffler
from subdecay.errors import ConsistencyError, DomainError
from subdecay.frac_ode import (LaplaceSymbol, OdeSpec, _cut_integrals, _kernel_moments,
                               branch_cut_invert, check_decay_assumption,
                               default_search_radius, find_poles, im_parts,
                               picard_monotonicity, picard_solve, poincare_constant,
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
    def test_classical_case_excluded(self):
        sym = LaplaceSymbol(c1=2.0, c2=1.0, alpha=1.0, beta=1.0)
        with pytest.raises(DomainError):
            find_poles(sym)

    @pytest.mark.parametrize("orders", [(0.9, 0.5), (1.0, 0.5), (0.7, 0.7)])
    def test_reference_symbols_have_no_principal_poles(self, orders):
        sym = LaplaceSymbol(c1=2.0, c2=1.0, alpha=orders[0], beta=orders[1])
        assert find_poles(sym) == []

    def test_two_resolution_agreement(self):
        sym = LaplaceSymbol(c1=2.0, c2=1.0, alpha=0.9, beta=0.5)
        coarse = find_poles(sym, samples=256)
        fine = find_poles(sym, samples=1024)
        assert len(coarse) == len(fine)
        for zc, zf in zip(coarse, fine):
            assert abs(zc - zf) < 1e-8

    def test_search_radius_default(self):
        sym = LaplaceSymbol(c1=2.0, c2=1.0, alpha=0.9, beta=0.5)
        assert default_search_radius(sym) == pytest.approx(4.0 * 2.0 ** 2)


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
                       eta1=1.0, eta2=0.5, mu1=0.6, mu2=0.8,
                       F=lambda t: 0.1 * math.exp(-t), G=lambda t: 0.05)
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
            picard_solve(spec, T=1.0, n_steps=64, tol=0.0)
        with pytest.raises(DomainError):
            OdeSpec(alpha=0.5, beta=0.9, a=1.0, b=0.0,
                    eta1=1.0, eta2=1.0, mu1=0.0, mu2=0.0)

    @pytest.mark.parametrize("name", ["a", "b", "eta1", "eta2", "mu1", "mu2"])
    def test_non_finite_coefficient_rejected(self, name):
        fields = dict(alpha=0.9, beta=0.5, a=1.0, b=0.0,
                      eta1=1.0, eta2=1.0, mu1=0.5, mu2=0.5)
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            OdeSpec(**{**fields, name: math.nan})

    def test_nonconvergence_reported_not_raised(self):
        spec = OdeSpec(alpha=0.9, beta=0.5, a=1.0, b=0.0,
                       eta1=0.0, eta2=0.0, mu1=4.0, mu2=4.0)
        path = picard_solve(spec, T=20.0, n_steps=64, max_iter=3)
        assert not path.converged
        assert path.iterations == 3


def kernel_cell_reference(eta, c, t0, t1, weight):
    """int_{t0}^{t1} k(tau) weight(tau) dtau for the relaxation kernel
    k(tau) = tau^{eta-1} E_{eta,eta}(-c tau^eta), by QUADPACK under
    sigma = tau^eta (k dtau = E(-c sigma)/eta dsigma, no singular factor
    left) over the mpmath series of E."""
    def f(sig):
        return ml_series_reference(eta, eta, -c * sig) / eta * weight(sig ** (1.0 / eta))

    val, err = quad(f, t0 ** eta, t1 ** eta, epsabs=0.0, epsrel=2e-14, limit=200)
    assert err <= 1e-13 * abs(val)
    return val


class TestKernelMoments:
    @pytest.mark.parametrize("eta, c, p, T, n", [
        (0.9, 2.0, 0.5, 20.0, 5120), (0.5, 2.0, 0.9, 20.0, 5120),
        (1.0, 2.0, 0.5, 20.0, 16), (0.3, 1.0, 0.1, 5.0, 64)])
    def test_first_cells_against_quadrature(self, eta, c, p, T, n):
        # cell 0 is closed form, cell 1 the Gauss and Gauss-Jacobi panels
        times = np.linspace(0.0, T, n + 1)
        kw = _kernel_moments(eta, c, times, layer_exp=p)
        h = kw.h
        M = kw.layer_corr + h ** p * kw.A
        for j in (0, 1):
            t0, t1 = times[j], times[j + 1]
            A = kernel_cell_reference(eta, c, t0, t1, lambda tau: (t1 - tau) / h)
            B = kernel_cell_reference(eta, c, t0, t1, lambda tau: (tau - t0) / h)
            Mj = kernel_cell_reference(eta, c, t0, t1, lambda tau: (t1 - tau) ** p)
            assert kw.A[j] == pytest.approx(A, rel=1e-12, abs=0.0)
            assert kw.B[j] == pytest.approx(B, rel=1e-12, abs=0.0)
            assert M[j] == pytest.approx(Mj, rel=1e-12, abs=0.0)


def cut_reference(sym, t):
    return np.array([[branch_cut_quad_reference(sym, tv, n) for tv in t]
                     for n in ("p", "exp")])


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
    def test_cut_integrals_against_quadpack(self, alpha, beta_share, c2, ratio, log_t):
        beta = 0.05 + beta_share * (alpha - 0.05)
        sym = LaplaceSymbol(c1=ratio * c2, c2=c2, alpha=alpha, beta=beta)
        try:
            find_poles(sym)
        except ConsistencyError:
            assume(False)
        t = 10.0 ** np.array(log_t)
        ref = cut_reference(sym, t)
        np.testing.assert_allclose(_cut_integrals(sym, t), ref, rtol=1e-9, atol=0.0)

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
        sym = LaplaceSymbol(c1=2.0, c2=1.0, alpha=0.9, beta=0.5)
        spec = OdeSpec(alpha=0.9, beta=0.5, a=1.0, b=0.0,
                       eta1=2.0, eta2=2.0, mu1=1.0, mu2=1.0)
        path = picard_solve(spec, T=20.0, n_steps=5120)
        t_check = np.array([1.0, 2.0, 5.0, 10.0, 20.0])
        U_bc, V_bc = branch_cut_invert(sym, t_check)
        idx = np.searchsorted(path.times, t_check)
        np.testing.assert_allclose(path.times[idx], t_check, atol=1e-12, rtol=0)
        assert np.max(np.abs(path.U[idx] - U_bc) / U_bc) < 1e-4
        assert np.max(np.abs(path.V[idx] - V_bc) / V_bc) < 1e-4

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
        sym = LaplaceSymbol(c1=2.0, c2=1.0, alpha=1.0, beta=0.5)
        spec = OdeSpec(alpha=1.0, beta=0.5, a=1.0, b=0.0,
                       eta1=2.0, eta2=2.0, mu1=1.0, mu2=1.0)
        path = picard_solve(spec, T=20.0, n_steps=5120)
        assert path.converged
        t_check = np.array([1.0, 2.0, 5.0, 10.0, 20.0])
        U_bc, V_bc = branch_cut_invert(sym, t_check)
        idx = np.searchsorted(path.times, t_check)
        assert np.max(np.abs(path.U[idx] - U_bc) / U_bc) < 1e-4
        assert np.max(np.abs(path.V[idx] - V_bc) / V_bc) < 1e-4

    def test_positivity_along_the_decay(self):
        for alpha in (0.9, 1.0):
            sym = LaplaceSymbol(c1=2.0, c2=1.0, alpha=alpha, beta=0.5)
            U, V = branch_cut_invert(sym, np.logspace(0, 3, 16))
            assert np.all(U > 0.0) and np.all(V > 0.0)

    def test_residue_bound_trivial_when_no_poles(self):
        sym = LaplaceSymbol(c1=2.0, c2=1.0, alpha=0.9, beta=0.5)
        assert find_poles(sym) == []
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
