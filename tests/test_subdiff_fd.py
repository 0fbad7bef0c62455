import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg.lapack import dgbtrs

from conftest import (band_to_dense, gershgorin_gap, l1_history_direct, l1_weights_reference,
                      mode_one_norms, system_matrix)
from subdecay.decay import l2_norm
from subdecay.errors import DomainError, SolverError
from subdecay.mittag_leffler import ml_neg
from subdecay.subdiff_fd import (_SOE_TOL, SCHEMES, BandedMatrix, Grid, SystemSpec,
                                 _band_product, _BandedLU, _Stepper, _soe_modes, l1_weights,
                                 levels, simulate, stability_margin)

HAT = lambda x: np.pi / 2 - np.abs(x - np.pi / 2)
ZERO = lambda x: np.zeros_like(x)


def single_component(alpha, source=None, d=1.0):
    return SystemSpec(orders=(alpha,), diffusivities=(d,), couplings=[[0.0]],
                      initials=[np.sin], sources=None if source is None else [source])


class TestWeights:
    def test_first_weight(self):
        assert l1_weights(0.5, 0)[0] == 1.0

    def test_second_weight_value(self):
        assert l1_weights(0.5, 1)[1] == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-15)

    def test_backward_euler_degeneration(self):
        b = l1_weights(1.0, 6)
        assert b[0] == 1.0 and np.all(b[1:] == 0.0)

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.7, 0.9, 1.0])
    def test_identities_bulk(self, gamma):
        n = 10_000
        b = l1_weights(gamma, n)
        assert b[0] == 1.0
        assert np.all(b > 0.0) if gamma < 1.0 else np.all(b[:1] > 0.0)
        if gamma < 1.0:
            assert np.all(np.diff(b) < 0.0)
        assert b.sum() == pytest.approx((n + 1) ** (1.0 - gamma), rel=1e-13)

    def test_rejects_bad_order(self):
        with pytest.raises(DomainError):
            l1_weights(0.0, 4)
        with pytest.raises(DomainError):
            l1_weights(1.2, 4)


class TestSoeModes:
    """The sum-of-exponentials fit of the L1 weight differences: a log-s
    trapezoid with its slowest modes folded into one 8-node Gauss rule."""

    @pytest.mark.parametrize("N", [10, 1000, 16_000])
    @pytest.mark.parametrize("gamma", [0.05, 0.3, 0.5, 0.9, 0.99])
    def test_against_exact_differences(self, gamma, N):
        rate, weight = _soe_modes(gamma, N)
        _, d = l1_weights_reference(gamma, N)
        m = np.arange(1, N)
        approx = np.exp(-m[:, None] * rate[None, :]) @ weight
        assert np.all(np.abs(approx - d[1:]) <= 6e-15 * d[1:])

    @pytest.mark.parametrize("N", [2, 10, 1000, 16_000])
    @pytest.mark.parametrize("gamma", [0.05, 0.3, 0.5, 0.9, 0.99])
    def test_positive_weights_and_nodes_in_range(self, gamma, N):
        s, weight = _soe_modes(gamma, N)
        assert np.all(weight > 0.0)
        # inside the trapezoid's own range, whose top mode is e^{1/2} -log(tol)
        assert np.all((s > 0.0) & (s < math.exp(0.5) * -math.log(_SOE_TOL)))
        # the Gauss nodes replace exactly the modes with s N <= 1/2
        assert np.count_nonzero(s * N <= 0.5) == 8

    def test_mode_count_ceiling(self):
        for N in (2, 10, 100, 1000, 4000, 16_000):
            for gamma in (1e-6, 0.05, 0.5, 0.99):
                rate, weight = _soe_modes(gamma, N)
                assert rate.size == weight.size <= 70
        assert _soe_modes(1.0, 1000)[0].size == 0


class TestBandedSolve:
    def test_identity(self):
        eye = BandedMatrix(lower=0, upper=0, ab=np.ones((1, 5)))
        rhs = np.array([1.0, -2.0, 3.0, 0.5, 4.0])
        assert np.array_equal(_BandedLU(eye).solve(rhs), rhs)

    def test_two_by_two_closed_form(self):
        # [[2, 1], [1, 3]]
        matrix = BandedMatrix(lower=1, upper=1, ab=np.array([[0.0, 1.0], [2.0, 3.0],
                                                              [1.0, 0.0]]))
        rhs = np.array([5.0, 10.0])
        x = _BandedLU(matrix).solve(rhs)
        assert x == pytest.approx([1.0, 3.0], rel=1e-14)

    def test_random_tridiagonal_against_dense(self, rng):
        for _ in range(25):
            n = 5
            ab = rng.uniform(-1.0, 1.0, size=(3, n))
            ab[1] = 3.0 + np.abs(ab[1])
            matrix = BandedMatrix(lower=1, upper=1, ab=ab)
            rhs = rng.uniform(-1, 1, size=n)
            x = _BandedLU(matrix).solve(rhs)
            ref = np.linalg.solve(band_to_dense(matrix), rhs)
            assert np.max(np.abs(x - ref)) < 1e-12

    def test_wider_band_against_dense(self, rng):
        n = 40
        ab = rng.uniform(-1, 1, size=(6, n))
        ab[2] = 8.0
        matrix = BandedMatrix(lower=3, upper=2, ab=ab)
        rhs = rng.uniform(-1, 1, size=n)
        x = _BandedLU(matrix).solve(rhs)
        assert np.max(np.abs(band_to_dense(matrix) @ x - rhs)) < 1e-12 * np.abs(rhs).max() * 100

    @staticmethod
    def _random_band(rng, lower, upper, n, dominant):
        ab = rng.uniform(-1.0, 1.0, size=(lower + upper + 1, n))
        if dominant:
            ab[upper] = (lower + upper + 1) * np.sign(ab[upper]) + ab[upper]
        return BandedMatrix(lower=lower, upper=upper, ab=ab)

    def test_pivoting_bands_take_gbtrs(self, rng):
        """Factors with row interchanges solve by gbtrs, against a dense solve;
        two band sweeps would ignore the interchanges."""
        # [[1e-3, 1], [1, 1]]: partial pivoting swaps the rows
        bands = [BandedMatrix(lower=1, upper=1, ab=np.array([[0.0, 1.0], [1e-3, 1.0],
                                                             [1.0, 0.0]]))]
        bands += [self._random_band(rng, lower, upper, n, dominant=False)
                  for lower, upper, n in [(1, 1, 6), (2, 1, 9), (1, 3, 12), (3, 2, 40)]]
        for matrix in bands:
            lu = _BandedLU(matrix)
            assert lu.l_band is None and not np.array_equal(lu.piv, np.arange(matrix.n))
            rhs = rng.uniform(-1.0, 1.0, size=matrix.n)
            np.testing.assert_allclose(lu.solve(rhs),
                                       np.linalg.solve(band_to_dense(matrix), rhs),
                                       rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("lower", range(4))
    @pytest.mark.parametrize("upper", range(4))
    def test_dominant_bands_sweep_as_gbtrs(self, rng, lower, upper):
        """Diagonally dominant bands factor without interchanges and solve by
        two band sweeps, as gbtrs does with the same factors; n runs below
        lower + upper + 1 too."""
        for n in (1, 2, 3, 5, 40):
            matrix = self._random_band(rng, lower, upper, n, dominant=True)
            lu = _BandedLU(matrix)
            assert lu.l_band is not None
            # the sweep reads L through a view of gbtrf's buffer: in place
            assert np.array_equal(lu.l_band[1:lower + 1], lu.lu[lower + upper + 1:])
            rhs = rng.uniform(-1.0, 1.0, size=n)
            x = lu.solve(rhs)
            reference, info = dgbtrs(lu.lu, lower, upper, rhs, lu.piv)
            assert info == 0
            assert np.abs(x - reference).max() <= 1e-14 * np.abs(reference).max()
            assert np.abs(band_to_dense(matrix) @ x - rhs).max() <= 1e-12

    @pytest.mark.parametrize("rhs", [np.zeros(3), np.array([1.0, 0.0, -1.0])])
    def test_nan_in_matrix_raises(self, rhs):
        matrix = BandedMatrix(lower=1, upper=1, ab=np.array([[0.0, 1.0, 1.0],
                                                             [4.0, np.nan, 4.0],
                                                             [1.0, 1.0, 0.0]]))
        with pytest.raises(SolverError, match="residual"):
            _BandedLU(matrix).solve(rhs)

    def test_singular_raises(self):
        # [[1, 1], [1, 1]]
        matrix = BandedMatrix(lower=1, upper=1, ab=np.array([[0.0, 1.0], [1.0, 1.0],
                                                              [1.0, 0.0]]))
        with pytest.raises(SolverError):
            _BandedLU(matrix).solve(np.array([1.0, 2.0]))

    @settings(max_examples=150, deadline=None)
    @given(lower=st.integers(0, 3), upper=st.integers(0, 3), n=st.integers(1, 60),
           dominant=st.booleans(), scale=st.integers(-3, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_certified_solves_meet_the_residual_bound(self, lower, upper, n, dominant,
                                                      scale, seed):
        """A factor holds a certificate only after certify() passes it, and
        only where gbtrf made no interchanges; every certified solve meets
        the per-solve residual bound, computed here with the dense matrix."""
        rng = np.random.default_rng(seed)
        matrix = self._random_band(rng, lower, upper, n, dominant)
        matrix.ab *= 10.0 ** scale
        dense = band_to_dense(matrix)
        lu = _BandedLU(matrix)
        assert lu.zeros is None
        certified = lu.certify()
        assert (lu.zeros is not None) == certified
        assert lu.l_band is not None or not certified
        for _ in range(5):
            rhs = rng.uniform(-1.0, 1.0, size=n) * 10.0 ** rng.integers(-8, 9)
            try:
                x = lu.solve(rhs)
            except SolverError:
                # only the per-solve check may refuse; a certified factor
                # would have passed every finite x
                assert lu.zeros is None
                continue
            assert (lu.zeros is not None) == certified
            if lu.zeros is not None:
                assert np.array_equal(lu.piv, np.arange(n))
                resid = np.abs(dense @ x - rhs).max()
                assert resid <= 1e-12 * max(np.abs(matrix.ab).max() * max(np.abs(x).max(), 1.0)
                                            + np.abs(rhs).max(), 1.0)
        if dominant:
            assert lu.zeros is not None

    @pytest.mark.parametrize("scheme, band, offset", [
        ("semi-implicit", "L", 2), ("semi-implicit", "U", 0), ("semi-implicit", "U", 2),
        ("fully-implicit", "L", 1), ("fully-implicit", "L", 2), ("fully-implicit", "U", 0),
        ("fully-implicit", "U", 1), ("fully-implicit", "U", 2)])
    def test_certificate_refuses_a_perturbed_factor(self, scheme, band, offset):
        """One entry of the run's factor, in L's band or U's, moved by 1e-6
        relative after its first solve: the certificate, put to it again,
        refuses the factor and drops the one it held, and the next solve's
        residual check raises.  (The semi-implicit band's offset-1
        diagonals hold its zero couplings.)"""
        grid = Grid(L=math.pi, I=8, T=1.0, N=4)
        spec = SystemSpec(orders=(0.9, 0.5), diffusivities=(1.0, 1.0),
                          couplings=[[1.0, -1.0], [-1.0, 1.0]], initials=[np.sin, HAT])
        u0 = np.array([np.sin(grid.x[1:-1]), HAT(grid.x[1:-1])])
        stepper = _Stepper(spec, grid, scheme, u0)
        u1 = stepper.step(0, u0)
        assert stepper.lu.zeros is not None
        # K = 2: gbtrf keeps L's offset p at row 4 + p, U's offset q at row 4 - q
        factors, row = stepper.lu, 4 + (offset if band == "L" else -offset)
        column = factors.matrix.n // 2
        assert factors.lu[row, column] != 0.0
        factors.lu[row, column] *= 1.0 + 1e-6
        assert not factors.certify() and factors.zeros is None
        with pytest.raises(SolverError, match="residual"):
            stepper.step(1, u1)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_certified_factor_refuses_non_finite_right_hand_sides(self, rng, bad):
        """A certified solve checks only that x is finite: an inf or NaN in
        the right-hand side raises SolverError, and no RuntimeWarning; finite
        data of size 1e300 still solves."""
        matrix = self._random_band(rng, 2, 2, 40, dominant=True)
        lu = _BandedLU(matrix)
        assert lu.certify()
        rhs = rng.uniform(-1.0, 1.0, size=40)
        first = lu.solve(rhs)
        assert np.array_equal(lu.solve(rhs), first) and lu.zeros is not None
        x = lu.solve(1e300 * rhs)
        assert np.all(np.isfinite(x)) and np.abs(x / 1e300 - first).max() <= 1e-14
        rhs[7] = bad
        with pytest.raises(SolverError, match="residual"):
            lu.solve(rhs)

    def test_factored_again_checks_its_residual_again(self, rng):
        """factor() makes the factor of the band the matrix holds now, in the
        same buffer, and drops the old factor's certificate: its solves
        check their residual, so a bad new factor is refused where the
        certified old one would have let any finite x through, and certify()
        puts a sound new factor to the certificate again."""
        matrix = self._random_band(rng, 2, 2, 40, dominant=True)
        lu = _BandedLU(matrix)
        buffer, rhs = lu.lu, rng.uniform(-1.0, 1.0, size=40)
        assert lu.certify()
        lu.solve(rhs)
        assert lu.zeros is not None
        matrix.ab[2] *= 2.0
        lu.factor()
        assert lu.zeros is None and np.shares_memory(lu.lu, buffer)
        np.testing.assert_allclose(lu.solve(rhs), np.linalg.solve(band_to_dense(matrix), rhs),
                                   rtol=1e-12, atol=1e-14)
        assert lu.zeros is None
        assert lu.certify() and lu.zeros is not None
        lu.factor()
        lu.lu[4, 20] *= 1.0 + 1e-6
        with pytest.raises(SolverError, match="residual"):
            lu.solve(rhs)

    def test_one_factor_per_run(self, monkeypatch):
        """A run builds one _BandedLU, factored when it is built; a fully
        implicit run with callable couplings factors it again at each of its
        N steps, in the gbtrf buffer it was built with, and a run with
        constant couplings never again."""
        built, factored = [], []
        init, factor = _BandedLU.__init__, _BandedLU.factor
        monkeypatch.setattr(_BandedLU, "__init__",
                            lambda lu, matrix: built.append(lu) or init(lu, matrix))
        monkeypatch.setattr(_BandedLU, "factor",
                            lambda lu: factor(lu) or factored.append(lu.lu))
        grid = Grid(L=math.pi, I=8, T=1.0, N=6)
        callable_couplings = [[1.0, lambda x, t: -0.5 * np.cos(t) + 0.0 * x], [-0.5, 1.0]]
        for couplings, scheme, factors in (
                (callable_couplings, "fully-implicit", 1 + grid.N),
                (callable_couplings, "semi-implicit", 1),
                ([[1.0, -0.5], [-0.5, 1.0]], "fully-implicit", 1)):
            built.clear()
            factored.clear()
            list(levels(SystemSpec(orders=(0.9, 0.5), diffusivities=(1.0, 1.0),
                                   couplings=couplings, initials=[np.sin, HAT]), grid, scheme))
            assert len(built) == 1 and len(factored) == factors
            assert all(np.shares_memory(lu, factored[0]) for lu in factored)

    def test_certificate_counts_rounding_by_the_band(self):
        """The sweeps' rounding is counted by the band, gamma_{2 kl + ku + 1}
        = gamma_4 here, not by n: diag 4, off-diagonals -1 has |L| |U| row
        sums near 6 = 1.5 max|A|, and certifies at every length (a bound
        of gamma_{3n} refused it past n of about 2000)."""
        for n in (1000, 2500, 100_000):
            ab = np.array([[-1.0] * n, [4.0] * n, [-1.0] * n])
            assert _BandedLU(BandedMatrix(lower=1, upper=1, ab=ab)).certify() is True

    def test_one_shot_factors_compute_no_certificate(self, monkeypatch):
        """Each per-step factor of a fully implicit run with callable
        couplings solves once and is never put to the certificate; the one
        factor a run keeps is, once, when the stepper makes it."""
        calls = []
        certify = _BandedLU.certify
        monkeypatch.setattr(_BandedLU, "certify", lambda lu: calls.append(lu) or certify(lu))
        grid = Grid(L=math.pi, I=8, T=1.0, N=6)
        couplings = [[1.0, lambda x, t: -0.5 * np.cos(t) + 0.0 * x], [-0.5, 1.0]]
        spec = SystemSpec(orders=(0.9, 0.5), diffusivities=(1.0, 1.0),
                          couplings=couplings, initials=[np.sin, HAT])
        list(levels(spec, grid, "fully-implicit"))
        assert calls == []
        list(levels(spec, grid, "semi-implicit"))
        assert len(calls) == 1

    @settings(max_examples=60, deadline=None)
    @given(lower=st.integers(0, 3), upper=st.integers(0, 3), n=st.integers(1, 5000),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(lower=3, upper=3, n=5000, seed=0)
    def test_certificate_keeps_its_promise_on_long_bands(self, lower, upper, n, seed):
        """Column-dominant bands, their columns scaled over six decades,
        factor without interchanges up to n = 5000 and certify; then every
        finite solve meets the 1e-12 residual bound, recomputed by gbmv."""
        rng = np.random.default_rng(seed)
        matrix = self._random_band(rng, lower, upper, n, dominant=True)
        matrix.ab *= 10.0 ** rng.uniform(-3.0, 3.0, size=n)
        lu = _BandedLU(matrix)
        assert lu.l_band is not None and lu.certify()
        for _ in range(3):
            rhs = rng.uniform(-1.0, 1.0, size=n) * 10.0 ** rng.integers(-8, 9)
            x = lu.solve(rhs)
            assert np.all(np.isfinite(x))
            resid = np.abs(_band_product(matrix, matrix.ab, x) - rhs).max()
            assert resid <= 1e-12 * max(np.abs(matrix.ab).max() * max(np.abs(x).max(), 1.0)
                                        + np.abs(rhs).max(), 1.0)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("K, I", [(2, 760), (2, 1024), (2, 8192), (3, 700), (3, 1024)])
    def test_kept_bands_certify_at_every_size(self, scheme, K, I):
        """The factor a run keeps holds its certificate from the stepper's
        build at sizes past the ~1,500 unknowns where a gamma_{3n} bound
        refused it, at under 1e-2 of the bound by an independent sparse
        product; a 1e-6 relative change to one entry of L (the spatial
        neighbour's multiplier) or of U (the diagonal) is refused."""
        orders, couplings = (((0.9, 0.5), [[1.0, -1.0], [-1.0, 1.0]]) if K == 2 else
                             ((1.0, 0.5, 0.3), [[1.0 if k == l else -0.5 for l in range(3)]
                                                for k in range(3)]))
        spec = SystemSpec(orders=orders, diffusivities=(1.0,) * K, couplings=couplings,
                          initials=[np.sin] * K)
        grid = Grid(L=math.pi, I=I, T=1000.0, N=4000)
        lu = _Stepper(spec, grid, scheme, np.zeros((K, I - 1))).lu
        assert lu.zeros is not None
        assert certificate_ratio(lu) <= 1e-2
        column = lu.matrix.n // 2
        # gbtrf keeps L's offset p at row 2K + p and U's offset q at row 2K - q
        for row in (3 * K, 2 * K):
            kept = lu.lu[row, column]
            lu.lu[row, column] = kept * (1.0 + 1e-6)
            assert not lu.certify() and lu.zeros is None
            lu.lu[row, column] = kept
            assert lu.certify()


def certificate_ratio(lu):
    """(||A - L U||_inf + gamma_{2 kl + ku + 1} || |L| |U| ||_inf) / (1e-12
    max|A|) for a factor without interchanges, from L and U read off
    gbtrf's band into scipy.sparse matrices and multiplied there."""
    kl, ku, n = lu.matrix.lower, lu.matrix.upper, lu.matrix.n
    uu = kl + ku
    A = sparse.dia_matrix((lu.matrix.ab, np.arange(ku, -kl - 1, -1)), shape=(n, n)).tocsr()
    L = sparse.dia_matrix((np.vstack((np.ones(n), lu.lu[uu + 1:])), -np.arange(kl + 1)),
                          shape=(n, n)).tocsr()
    U = sparse.dia_matrix((lu.lu[:uu + 1], np.arange(uu, -1, -1)), shape=(n, n)).tocsr()
    k = 2 * kl + ku + 1
    gamma = k * 2.0 ** -53 / (1.0 - k * 2.0 ** -53)
    error = abs(A - L @ U).sum(axis=1).max()
    size = (abs(L) @ abs(U)).sum(axis=1).max()
    return (error + gamma * size) / (1e-12 * np.abs(lu.matrix.ab).max())


class TestGrid:
    @pytest.mark.parametrize("name", ["L", "T"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_extent_rejected(self, name, bad):
        with pytest.raises(DomainError, match=f"^{name} must be finite and positive, got {bad}$"):
            Grid(**{"L": math.pi, "I": 4, "T": 1.0, "N": 4, name: bad})

    def test_every_problem_listed(self):
        with pytest.raises(DomainError) as err:
            Grid(L=-1.0, I=1, T=math.inf, N=4)
        assert str(err.value) == ("L must be finite and positive, got -1.0; "
                                  "T must be finite and positive, got inf; "
                                  "need n_space >= 2 cells and n_time >= 2 steps, "
                                  "got I = 1 and N = 4")


def stepper_band(spec, grid):
    """The band a fully implicit stepper writes and factors when it is built,
    which holds the couplings where they are constant."""
    return _Stepper(spec, grid, "fully-implicit", np.zeros((spec.K, grid.I - 1))).band


class TestAssembly:
    def grid(self, I=3):
        return Grid(L=math.pi, I=I, T=1.0, N=4)

    def spec2(self):
        return SystemSpec(orders=(0.9, 0.5), diffusivities=(1.0, 2.0),
                          couplings=[[1.0, -1.0], [-1.0, 1.0]],
                          initials=[np.sin, HAT])

    def spec3(self):
        return SystemSpec(orders=(0.9, 0.5, 0.3), diffusivities=(1.0, 1.0, 1.0),
                          couplings=[[1.0, -0.5, -0.5], [-0.5, 1.0, -0.5],
                                     [-0.5, -0.5, 1.0]],
                          initials=[np.sin, HAT, ZERO])

    def test_stepper_band_is_the_system_matrix(self):
        # constant couplings are written from the constants, with no sample
        for spec, I in ((single_component(0.7), 6), (self.spec2(), 3), (self.spec2(), 12),
                        (self.spec3(), 8)):
            grid = self.grid(I)
            band = stepper_band(spec, grid)
            assert band.lower == band.upper == spec.K  # 2K+1 bands in all
            assert band_to_dense(band).tobytes() == system_matrix(spec, grid, 0).tobytes()

    def test_hand_expanded_two_by_two_blocks(self):
        grid = self.grid(I=3)
        spec = self.spec2()
        A = system_matrix(spec, grid, 0)
        dt, dx = grid.dt, grid.dx
        r = [d * math.gamma(2.0 - a) * dt ** a / dx ** 2
             for a, d in zip(spec.orders, spec.diffusivities)]
        fac = [dx ** 2 * r[k] / spec.diffusivities[k] for k in range(2)]
        expected = np.zeros((4, 4))
        # interleaved ordering: (node0,e1), (node0,e2), (node1,e1), (node1,e2)
        expected[0, 0] = 1 + 2 * r[0] + fac[0] * 1.0
        expected[1, 1] = 1 + 2 * r[1] + fac[1] * 1.0
        expected[2, 2] = 1 + 2 * r[0] + fac[0] * 1.0
        expected[3, 3] = 1 + 2 * r[1] + fac[1] * 1.0
        expected[0, 1] = fac[0] * -1.0
        expected[1, 0] = fac[1] * -1.0
        expected[2, 3] = fac[0] * -1.0
        expected[3, 2] = fac[1] * -1.0
        expected[0, 2] = expected[2, 0] = -r[0]
        expected[1, 3] = expected[3, 1] = -r[1]
        assert np.array_equal(A, expected)

    def test_single_component_reduces_to_tridiagonal(self):
        grid = Grid(L=math.pi, I=6, T=1.0, N=4)
        spec = single_component(0.7)
        dense = system_matrix(spec, grid, 0)
        assert np.array_equal(dense, np.triu(np.tril(dense, 1), -1))
        r = spec.diffusivities[0] * math.gamma(1.3) * grid.dt ** 0.7 / grid.dx ** 2
        assert np.allclose(np.diag(dense), 1 + 2 * r)
        assert np.allclose(np.diag(dense, 1), -r)
        assert np.allclose(np.diag(dense, -1), -r)

    def test_bandwidth_bound(self):
        # node-interleaved, every coupling lies within K = 3 of the diagonal
        A = system_matrix(self.spec3(), Grid(L=math.pi, I=8, T=1.0, N=4), 0)
        assert np.array_equal(A, np.triu(np.tril(A, 3), -3))
        assert np.any(np.diag(A, 3) != 0.0) and np.any(np.diag(A, -3) != 0.0)

    def test_diagonal_dominance_under_stability_condition(self):
        grid = self.grid(I=12)
        spec = self.spec2()
        assert stability_margin(spec) >= 0.0
        A = system_matrix(spec, grid, 0)
        for i in range(A.shape[0]):
            off = np.sum(np.abs(A[i])) - abs(A[i, i])
            assert abs(A[i, i]) >= off + 1.0 - 1e-12


class TestGershgorin:
    def test_interior_row_formulas(self):
        grid = Grid(L=math.pi, I=8, T=1.0, N=4)
        spec = SystemSpec(orders=(0.9, 0.5), diffusivities=(1.0, 1.0),
                          couplings=[[1.0, -1.0], [-1.0, 1.0]],
                          initials=[np.sin, HAT])
        row = system_matrix(spec, grid, 0)[2]  # node 1, component 1
        r1 = math.gamma(1.1) * grid.dt ** 0.9 / grid.dx ** 2
        fac1 = grid.dx ** 2 * r1
        assert row[2] == pytest.approx(1 + 2 * r1 + fac1 * 1.0, rel=1e-14)
        assert np.abs(row).sum() - abs(row[2]) == pytest.approx(2 * r1 + fac1 * 1.0, rel=1e-14)

    @pytest.mark.parametrize("lower, upper, n", [
        (1, 1, 2), (2, 1, 2), (1, 3, 3), (3, 2, 4), (0, 2, 5), (2, 0, 5), (3, 1, 40)])
    def test_random_bands_against_dense_row_sums(self, rng, lower, upper, n):
        # |A| times ones by gbmv, as the certificate forms it; n < lower + upper
        # + 1 in the first four: fewer rows than the band, which gbmv refuses
        matrix = BandedMatrix(lower=lower, upper=upper,
                              ab=rng.uniform(-1.0, 1.0, size=(lower + upper + 1, n)))
        np.testing.assert_allclose(_band_product(matrix, np.abs(matrix.ab), np.ones(n)),
                                   np.sum(np.abs(band_to_dense(matrix)), axis=1),
                                   rtol=1e-14, atol=1e-15)

    def test_disks_outside_unit_ball_when_stable(self):
        grid = Grid(L=math.pi, I=16, T=2000.0, N=200)
        spec = SystemSpec(orders=(0.9, 0.5), diffusivities=(1.0, 1.0),
                          couplings=[[1.0, -1.0], [-1.0, 1.0]],
                          initials=[np.sin, HAT])
        assert gershgorin_gap(system_matrix(spec, grid, 0)) >= 1.0 - 1e-9


class TestStabilityCondition:
    def test_reference_two_component_setup(self):
        spec = SystemSpec(orders=(0.9, 0.5), diffusivities=(1.0, 1.0),
                          couplings=[[1.0, -1.0], [-1.0, 1.0]],
                          initials=[np.sin, HAT])
        assert stability_margin(spec) == 0.0  # equality case, flagged marginal

    def test_reference_three_component_setup(self):
        spec = SystemSpec(orders=(0.9, 0.5, 0.3), diffusivities=(1.0, 1.0, 1.0),
                          couplings=[[1.0, -0.5, -0.5], [-0.5, 1.0, -0.5],
                                     [-0.5, -0.5, 1.0]],
                          initials=[np.sin, HAT, ZERO])
        assert stability_margin(spec) >= 0.0

    def test_violating_coupling(self):
        spec = SystemSpec(orders=(0.9, 0.5), diffusivities=(1.0, 1.0),
                          couplings=[[0.0, 1.0], [0.0, 1.0]],
                          initials=[np.sin, HAT])
        assert stability_margin(spec) < 0.0

    def test_time_dependent_couplings_refused(self):
        spec = SystemSpec(orders=(0.9,), diffusivities=(1.0,),
                          couplings=[[lambda x, t: 1.0 + 0.0 * x]],
                          initials=[np.sin])
        with pytest.raises(DomainError, match="constant couplings"):
            stability_margin(spec)


class TestStepping:
    def test_unknown_scheme_refused_when_called(self):
        # the refusal comes before any level is asked for
        spec = single_component(0.5)
        with pytest.raises(DomainError, match="^unknown scheme 'bogus'$"):
            levels(spec, Grid(L=math.pi, I=4, T=1.0, N=4), "bogus")

    def test_zero_data_stays_zero(self):
        grid = Grid(L=math.pi, I=16, T=1.0, N=16)
        spec = SystemSpec(orders=(0.9, 0.5), diffusivities=(1.0, 1.0),
                          couplings=[[1.0, -1.0], [-1.0, 1.0]],
                          initials=[ZERO, ZERO])
        hist = simulate(spec, grid)
        assert np.all(hist.values == 0.0)

    def test_heat_equation_benchmark(self):
        grid = Grid(L=math.pi, I=64, T=1.0, N=256)
        hist = simulate(single_component(1.0), grid)
        norms = l2_norm(hist.values, grid.dx)
        exact = math.exp(-1.0) * math.sqrt(math.pi / 2.0)
        assert norms[-1, 0] == pytest.approx(exact, rel=8e-3)

    def test_fractional_decoupled_against_mittag_leffler(self):
        grid = Grid(L=math.pi, I=128, T=1.0, N=1024)
        hist = simulate(single_component(0.5), grid)
        norms = l2_norm(hist.values, grid.dx)
        exact = float(ml_neg(0.5, 1.0, -1.0)) * math.sqrt(math.pi / 2.0)
        assert norms[-1, 0] == pytest.approx(exact, rel=1e-3)
        # error decreases under time refinement (layer-limited rate)
        hist2 = simulate(single_component(0.5), Grid(L=math.pi, I=128, T=1.0, N=4096))
        norms2 = l2_norm(hist2.values, hist2.grid.dx)
        err1 = abs(norms[-1, 0] - exact)
        err2 = abs(norms2[-1, 0] - exact)
        assert err2 < 0.6 * err1

    def test_boundary_identically_zero(self):
        grid = Grid(L=math.pi, I=16, T=1.0, N=32)
        spec = SystemSpec(orders=(0.9, 0.5), diffusivities=(1.0, 1.0),
                          couplings=[[1.0, -1.0], [-1.0, 1.0]],
                          initials=[np.sin, HAT])
        hist = simulate(spec, grid)
        assert np.all(hist.values[:, :, 0] == 0.0)
        assert np.all(hist.values[:, :, -1] == 0.0)
        assert np.array_equal(hist.values[0, 0, 1:-1], np.sin(grid.x[1:-1]))

    def test_schemes_coincide_without_coupling(self):
        """Zero couplings and a time-constant source: both schemes solve
        the same node-interleaved system, so their levels are equal."""
        grid = Grid(L=math.pi, I=32, T=1.0, N=64)
        const_src = lambda x, t: np.sin(x)  # time-constant source
        for spec in (
                SystemSpec(orders=(0.9, 0.5), diffusivities=(1.0, 1.0),
                           couplings=[[0.0, 0.0], [0.0, 0.0]],
                           initials=[np.sin, HAT],
                           sources=[const_src, None]),
                SystemSpec(orders=(1.0, 0.5, 0.3), diffusivities=(1.0, 0.5, 2.0),
                           couplings=np.zeros((3, 3)),
                           initials=[np.sin, HAT, lambda x: x * (np.pi - x)],
                           sources=[None, const_src, const_src])):
            hs = simulate(spec, grid, "semi-implicit")
            hf = simulate(spec, grid, "fully-implicit")
            assert np.array_equal(hs.values, hf.values)

    def test_scheme_difference_first_order_in_dt(self):
        spec = SystemSpec(orders=(0.9, 0.5), diffusivities=(1.0, 1.0),
                          couplings=[[1.0, -1.0], [-1.0, 1.0]],
                          initials=[np.sin, HAT])

        def diff_at(N):
            grid = Grid(L=math.pi, I=32, T=1.0, N=N)
            hs = simulate(spec, grid, "semi-implicit")
            hf = simulate(spec, grid, "fully-implicit")
            d = hs.values[-1] - hf.values[-1]
            return math.sqrt(grid.dx * np.sum(d[:, 1:-1] ** 2))

        d1, d2 = diff_at(64), diff_at(128)
        assert d1 / d2 == pytest.approx(2.0, abs=0.6)

    @pytest.mark.parametrize("scheme", ["semi-implicit", "fully-implicit"])
    @pytest.mark.parametrize("orders", [(0.9, 0.5), (1.0, 0.5)])
    def test_case_ii_norms_converge_to_the_exact_mode(self, orders, scheme):
        """Case (ii) of the reference experiment on I = 128 against its exact
        time-continuous norms (mode_one_norms): the largest relative error
        over t >= 10, at every (N/100)-th level, halves with dt."""
        spec = SystemSpec(orders=orders, diffusivities=(1.0, 1.0),
                          couplings=[[1.0, -1.0], [-1.0, 1.0]], initials=[np.sin, ZERO])
        errors = []
        for N in (4000, 8000):
            grid = Grid(L=math.pi, I=128, T=1000.0, N=N)
            times = grid.times[::N // 100]
            norms = np.array([l2_norm(np.pad(u, ((0, 0), (1, 1))), grid.dx) for u in
                              itertools.islice(levels(spec, grid, scheme), 0, None, N // 100)])
            late = times >= 10.0
            exact = mode_one_norms(*orders, grid.dx, times[late]).T
            errors.append(np.max(np.abs(norms[late] - exact) / exact, axis=0))
        ratios = errors[0] / errors[1]
        assert np.all((1.9 <= ratios) & (ratios <= 2.2)), ratios

    @pytest.mark.parametrize("scheme", ["semi-implicit", "fully-implicit"])
    def test_callable_couplings_match_constants(self, scheme):
        """Constant couplings, which the semi-implicit scheme folds into the
        memory's tables, against the same couplings as callables, whose
        load is made at each step; 130 steps wrap the phase past 64."""
        consts = [[1.0, -0.5], [-0.25, 0.75]]
        as_callables = [[(lambda x, t, c=c: c + 0.0 * x) for c in row] for row in consts]
        for N in (16, 130):
            grid = Grid(L=math.pi, I=16, T=1.0, N=N)
            runs = [simulate(SystemSpec(orders=(0.9, 0.5), diffusivities=(1.0, 0.5),
                                        couplings=couplings, initials=[np.sin, HAT]),
                             grid, scheme)
                    for couplings in (consts, as_callables)]
            np.testing.assert_allclose(runs[1].values, runs[0].values, rtol=0, atol=1e-14)

    def test_three_component_residual(self):
        grid = Grid(L=math.pi, I=24, T=1.0, N=8)
        spec = SystemSpec(orders=(0.9, 0.5, 0.3), diffusivities=(1.0, 1.0, 1.0),
                          couplings=[[1.0, -0.5, -0.5], [-0.5, 1.0, -0.5],
                                     [-0.5, -0.5, 1.0]],
                          initials=[np.sin, HAT, lambda x: x * (np.pi - x)])
        hist = simulate(spec, grid, "fully-implicit")
        # re-check the level-N linear system residual against the direct L1 sum
        n = grid.N - 1
        interior = hist.values[..., 1:-1]
        A = system_matrix(spec, grid, n + 1)
        rhs = np.array([l1_history_direct(a, interior[:, k], n)
                        for k, a in enumerate(spec.orders)])
        sol = interior[n + 1].T.reshape(-1)
        resid = np.max(np.abs(A @ sol - rhs.T.reshape(-1)))
        assert resid < 1e-10 * max(1.0, np.abs(rhs).max())

    def test_stepper_levels_match_direct_solve(self):
        """Every level simulate returns solves the scheme's system built
        from the direct L1 sum, by a dense solve independent of the band.
        The K = 3 run has an order of 1, which has no modes, and 130 steps,
        so every phase's table serves and the phase wraps past 64."""
        cases = [
            (Grid(L=math.pi, I=16, T=1.0, N=8),
             SystemSpec(orders=(0.9, 0.5), diffusivities=(1.0, 1.0),
                        couplings=[[1.0, -1.0], [-1.0, 1.0]], initials=[np.sin, HAT])),
            (Grid(L=math.pi, I=16, T=1.0, N=130),
             SystemSpec(orders=(1.0, 0.5, 0.3), diffusivities=(1.0, 0.5, 2.0),
                        couplings=[[1.0, -0.5, -0.25], [-0.25, 1.0, -0.5],
                                   [-0.5, -0.5, 1.0]],
                        initials=[np.sin, HAT, lambda x: x * (np.pi - x)]))]
        for grid, spec in cases:
            K, m = spec.K, grid.I - 1
            C = np.array(spec.couplings)
            r = [d * math.gamma(2.0 - a) * grid.dt ** a / grid.dx ** 2
                 for a, d in zip(spec.orders, spec.diffusivities)]
            fac = [grid.dx ** 2 * r[k] / spec.diffusivities[k] for k in range(K)]
            full = system_matrix(spec, grid, 0)
            for scheme in ("semi-implicit", "fully-implicit"):
                interior = simulate(spec, grid, scheme).values[..., 1:-1]
                for n in range(grid.N):
                    memory = np.array([l1_history_direct(a, interior[:, k], n)
                                       for k, a in enumerate(spec.orders)])
                    if scheme == "semi-implicit":
                        load = memory - np.array(fac)[:, None] * (C @ interior[n])
                        expected = np.array([
                            np.linalg.solve((1 + 2 * r[k]) * np.eye(m)
                                            - r[k] * (np.eye(m, k=1) + np.eye(m, k=-1)),
                                            load[k]) for k in range(K)])
                    else:
                        expected = np.linalg.solve(full, memory.T.reshape(-1)).reshape(m, K).T
                    assert np.allclose(interior[n + 1], expected, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("scheme", ["semi-implicit", "fully-implicit"])
    def test_source_drives_zero_data(self, scheme):
        """From zero data a time-constant source alone makes level 1:
        (1 + 2r - r shifts) u^1 = dx^2 r / d f, by a dense solve."""
        grid = Grid(L=math.pi, I=16, T=1.0, N=4)
        spec = SystemSpec(orders=(0.5,), diffusivities=(2.0,), couplings=[[0.0]],
                          initials=[ZERO], sources=[lambda x, t: np.sin(x)])
        m, x = grid.I - 1, grid.x[1:-1]
        r = 2.0 * math.gamma(1.5) * grid.dt ** 0.5 / grid.dx ** 2
        A = (1 + 2 * r) * np.eye(m) - r * (np.eye(m, k=1) + np.eye(m, k=-1))
        expected = np.linalg.solve(A, grid.dx ** 2 * r / 2.0 * np.sin(x))
        level1 = simulate(spec, grid, scheme).values[1, 0, 1:-1]
        assert np.allclose(level1, expected, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("scheme", ["semi-implicit", "fully-implicit"])
    @pytest.mark.parametrize("K, I", [(2, 2), (3, 2), (3, 3)])
    def test_smallest_grids_stay_finite(self, scheme, K, I):
        """n = K (I - 1) unknowns, below the bandwidth: the residual's band
        product still runs, and the run stays finite."""
        couplings = [[1.0 if k == l else -0.5 / (K - 1) for l in range(K)] for k in range(K)]
        spec = SystemSpec(orders=(0.9, 0.5, 0.3)[:K], diffusivities=(1.0,) * K,
                          couplings=couplings, initials=[np.sin, HAT, np.sin][:K])
        values = simulate(spec, Grid(L=math.pi, I=I, T=1.0, N=8), scheme).values
        assert np.all(np.isfinite(values)) and np.any(values[-1] != 0.0)

    @pytest.mark.parametrize("scheme", ["semi-implicit", "fully-implicit"])
    def test_nan_through_factored_matrix_raises(self, scheme):
        """The constant matrix is factored and certified once per run, and
        its certified solves still refuse a solution that is not finite."""
        grid = Grid(L=math.pi, I=8, T=1.0, N=4)
        spec = SystemSpec(orders=(0.9, 0.5), diffusivities=(1.0, 1.0),
                          couplings=[[1.0, -1.0], [-1.0, 1.0]], initials=[np.sin, HAT])
        u0 = np.array([np.sin(grid.x[1:-1]), HAT(grid.x[1:-1])])
        stepper = _Stepper(spec, grid, scheme, u0)
        factors = stepper.lu
        u1 = stepper.step(0, u0)
        assert np.all(np.isfinite(u1)) and stepper.lu is factors
        u1[1, 3] = math.nan
        with pytest.raises(SolverError, match="residual"):
            stepper.step(1, u1)

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.9])
    def test_stepper_impulse_response_at_every_lag(self, gamma):
        """One unit level u^1 and zeros after it: the memory of step n is
        the weight difference b^{n-1} - b^n at every lag up to N - 2, as
        exactly as the exponential fit itself."""
        N = 16_000
        _, d = l1_weights_reference(gamma, N)
        spec = SystemSpec(orders=(gamma,), diffusivities=(1.0,), couplings=[[0.0]],
                          initials=[ZERO])
        stepper = _Stepper(spec, Grid(L=math.pi, I=2, T=1.0, N=N), "semi-implicit",
                           np.zeros((1, 1)))
        stepper.memory(0, np.zeros((1, 1)))
        stepper.memory(1, np.ones((1, 1)))
        response = np.array([stepper.memory(n, np.zeros((1, 1)))[0, 0] for n in range(2, N)])
        assert np.all(np.abs(response - d[1:N - 1]) <= 1e-14 * d[1:N - 1])

    @pytest.mark.parametrize("scheme", ["semi-implicit", "fully-implicit"])
    def test_runs_at_the_ends_of_the_float_range(self, scheme):
        """The solution is linear in the data: initial data scaled by 1e-300
        or 1e300 steps finitely to the unit run times the scale, so the
        memory's scaled states stay inside the float range."""
        grid = Grid(L=math.pi, I=32, T=100.0, N=2000)

        def run(scale):
            spec = SystemSpec(orders=(0.9, 0.5), diffusivities=(1.0, 1.0),
                              couplings=[[1.0, -0.5], [-0.5, 1.0]],
                              initials=[lambda x: scale * np.sin(x),
                                        lambda x: scale * HAT(x)])
            return simulate(spec, grid, scheme).values

        unit = run(1.0)
        for scale in (1e-300, 1e300):
            values = run(scale)
            assert np.all(np.isfinite(values))
            assert np.abs(values / scale - unit).max() <= 1e-12 * np.abs(unit).max()

    @settings(max_examples=40, deadline=None)
    @example(order=5e-324, N=2, seed=0)
    @example(order=1e-323, N=23, seed=0)
    @given(order=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
           N=st.integers(2, 2000), seed=st.integers(0, 2 ** 32 - 1))
    def test_stepper_memory_matches_direct_sum(self, order, N, seed):
        """The sum-of-exponentials memory against the direct L1 sum, at
        every step of random levels, relative to sum |weight| |level|."""
        levels = np.random.default_rng(seed).standard_normal((N + 1, 1, 3))
        spec = SystemSpec(orders=(order,), diffusivities=(1.0,), couplings=[[0.0]],
                          initials=[ZERO])
        stepper = _Stepper(spec, Grid(L=math.pi, I=4, T=1.0, N=N), "semi-implicit",
                           levels[0])
        b = l1_weights(order, N)
        d_abs = np.abs(b[:-1] - b[1:])
        for n in range(N):
            memory = stepper.memory(n, levels[n])[0]
            direct = l1_history_direct(order, levels[:, 0], n)
            scale = b[n] * np.abs(levels[0, 0]) + d_abs[:n] @ np.abs(levels[n:0:-1, 0])
            assert np.all(np.abs(memory - direct) <= 1e-12 * scale)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            SystemSpec(orders=(0.5, 0.9), diffusivities=(1.0, 1.0),
                       couplings=[[1.0, 0.0], [0.0, 1.0]], initials=[np.sin, HAT])
        with pytest.raises(DomainError):
            SystemSpec(orders=(0.9,), diffusivities=(0.0,), couplings=[[0.0]],
                       initials=[np.sin])
        with pytest.raises(DomainError):
            SystemSpec(orders=(0.9,), diffusivities=(1.0,), couplings=[[-0.2]],
                       initials=[np.sin])
        with pytest.raises(DomainError, match="finite"):
            SystemSpec(orders=(0.9, 0.5), diffusivities=(1.0, math.inf),
                       couplings=[[1.0, 0.0], [0.0, 1.0]], initials=[np.sin, HAT])
        with pytest.raises(DomainError, match="finite"):
            SystemSpec(orders=(0.9, 0.5), diffusivities=(1.0, 1.0),
                       couplings=[[1.0, math.nan], [0.0, 1.0]], initials=[np.sin, HAT])
        with pytest.raises(DomainError, match="callable"):
            SystemSpec(orders=(0.9,), diffusivities=(1.0,), couplings=[[0.0]],
                       initials=[np.zeros(9)])
        with pytest.raises(DomainError):
            Grid(L=math.pi, I=1, T=1.0, N=4)

    def test_orders_rising_by_one_ulp_refused(self):
        with pytest.raises(DomainError, match="^orders must be non-increasing$"):
            SystemSpec(orders=(0.5, 0.5000000000000001), diffusivities=(1.0, 1.0),
                       couplings=[[1.0, 0.0], [0.0, 1.0]], initials=[np.sin, HAT])

    @pytest.mark.parametrize("scheme", ["semi-implicit", "fully-implicit"])
    def test_diagonal_coupling_sign_checked_where_sampled(self, scheme):
        # c_00 = 1 - 3t turns negative after t = 1/3, inside the run
        spec = SystemSpec(orders=(0.9,), diffusivities=(1.0,),
                          couplings=[[lambda x, t: 1.0 - 3.0 * t + 0.0 * x]],
                          initials=[np.sin])
        with pytest.raises(DomainError, match=r"c\[0\]\[0\] negative at t=0\.375"):
            simulate(spec, Grid(L=math.pi, I=8, T=1, N=8), scheme)

    @pytest.mark.parametrize("scheme", ["semi-implicit", "fully-implicit"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("where", ["coupling", "source"])
    def test_non_finite_samples_refused_as_input(self, scheme, bad, where):
        # a callable coefficient turns non-finite at t = 0.5: bad input, not a
        # failed solve, named with the coefficient and the time
        def turns_bad(x, t):
            return np.full_like(x, bad if t >= 0.5 else 0.1)

        couplings = [[1.0, turns_bad if where == "coupling" else 0.1], [0.1, 1.0]]
        sources = [turns_bad, None] if where == "source" else None
        spec = SystemSpec(orders=(0.9, 0.5), diffusivities=(1.0, 1.0), couplings=couplings,
                          initials=[np.sin, HAT], sources=sources)
        name = r"coupling c\[0\]\[1\]" if where == "coupling" else r"source\[0\]"
        with pytest.raises(DomainError, match=rf"{name} not finite at t=0\.5"):
            simulate(spec, Grid(L=math.pi, I=8, T=1.0, N=4), scheme)

    @pytest.mark.parametrize("scheme", ["semi-implicit", "fully-implicit"])
    @pytest.mark.parametrize("where, wrong, shape", [
        ("coupling", lambda x, t: np.ones(3), r"\(3,\)"),
        ("source", lambda x, t: x[:, None], r"\(7, 1\)")])
    def test_wrong_shape_samples_refused_as_input(self, scheme, where, wrong, shape):
        # a sample that does not broadcast to the 7 interior nodes is bad
        # input, named with the coefficient and the first time sampled
        couplings = [[1.0, wrong if where == "coupling" else 0.1], [0.1, 1.0]]
        sources = [None, wrong] if where == "source" else None
        spec = SystemSpec(orders=(0.9, 0.5), diffusivities=(1.0, 1.0), couplings=couplings,
                          initials=[np.sin, HAT], sources=sources)
        name = r"coupling c\[0\]\[1\]" if where == "coupling" else r"source\[1\]"
        t = "0" if scheme == "semi-implicit" else r"0\.25"
        with pytest.raises(DomainError, match=rf"^{name} of shape {shape} does not broadcast "
                                              rf"to the 7 nodes at t={t}$"):
            simulate(spec, Grid(L=math.pi, I=8, T=1.0, N=4), scheme)

    @staticmethod
    def varying_spec(K, sources=None):
        """K components with couplings 1 + 0.5 sin x cos^2 t on the diagonal
        and (x, t)-varying ones off it."""
        couplings = [[(lambda x, t: 1.0 + 0.5 * np.sin(x) * np.cos(t) ** 2) if k == l
                      else (lambda x, t, k=k: -0.2 * (1 + k) * np.cos(x + t))
                      for l in range(K)] for k in range(K)]
        return SystemSpec(orders=(0.9, 0.5, 0.3)[:K], diffusivities=(1.0, 0.5, 2.0)[:K],
                          couplings=couplings, initials=[np.sin, HAT, np.sin][:K],
                          sources=sources)

    @pytest.mark.parametrize("scheme", ["semi-implicit", "fully-implicit"])
    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_factored_band_is_the_assembled_matrix(self, scheme, K, monkeypatch):
        """Every band the stepper factors, recorded as factor() is called, is
        the system matrix of the formula (conftest.system_matrix) bit for
        bit.  Both schemes' factors are first made of the band with no
        coupling; the semi-implicit scheme's is never made again, and the
        fully implicit scheme's band is rewritten in place at each level and
        factored again."""
        factored = []
        factor = _BandedLU.factor
        monkeypatch.setattr(_BandedLU, "factor",
                            lambda lu: factored.append(band_to_dense(lu.matrix)) or factor(lu))
        spec, grid = self.varying_spec(K), Grid(L=math.pi, I=9, T=2.0, N=70)
        simulate(spec, grid, scheme)
        uncoupled = SystemSpec(orders=spec.orders, diffusivities=spec.diffusivities,
                               couplings=np.zeros((K, K)), initials=spec.initials)
        expected = [system_matrix(uncoupled, grid, 0)]
        if scheme == "fully-implicit":
            expected += [system_matrix(spec, grid, n) for n in range(1, grid.N + 1)]
        assert len(factored) == len(expected)
        for band, matrix in zip(factored, expected):
            assert band.tobytes() == matrix.tobytes()

    @pytest.mark.parametrize("scheme", ["semi-implicit", "fully-implicit"])
    def test_one_sample_per_step(self, scheme, monkeypatch):
        """A step samples the coefficients once, calling each source once,
        at t_n when the scheme lags them and at t_{n+1} otherwise; a run
        with constant couplings and no sources samples nothing per step."""
        grid = Grid(L=math.pi, I=8, T=1.0, N=6)
        samples, times = [], []
        sample = SystemSpec._sample
        monkeypatch.setattr(SystemSpec, "_sample",
                            lambda *args, **kwargs: samples.append(1) or sample(*args, **kwargs))

        def source(x, t):
            times.append(t)
            return np.sin(x)

        simulate(self.varying_spec(2, sources=[source, source]), grid, scheme)
        steps = grid.times[:-1] if scheme == "semi-implicit" else grid.times[1:]
        assert len(samples) == grid.N and times == list(np.repeat(steps, 2))
        samples.clear()
        simulate(SystemSpec(orders=(0.9, 0.5), diffusivities=(1.0, 1.0),
                            couplings=[[1.0, -0.5], [-0.5, 1.0]], initials=[np.sin, HAT]),
                 grid, scheme)
        # the fully implicit band is written once, from the constants
        assert samples == []

    @pytest.mark.parametrize("K", [2, 3])
    def test_lagged_load_is_the_loop_sum(self, K):
        """The semi-implicit load taken from the step's one sample, summed by
        numpy over l, is the loop sum_l c_kl u_l bit for bit: the levels
        equal those of a reference step that forms it by the loop."""
        spec = self.varying_spec(K, sources=[lambda x, t: np.cos(x) * t] * K)
        grid = Grid(L=math.pi, I=12, T=2.0, N=70)
        x, m = grid.x[1:-1], grid.I - 1
        u0 = np.array([f(x) for f in spec.initials])
        stepper = _Stepper(spec, grid, "semi-implicit", u0)
        reference = _Stepper(spec, grid, "semi-implicit", u0)
        fac = grid.dx ** 2 * np.array(
            [d * math.gamma(2.0 - a) * grid.dt ** a / grid.dx ** 2
             for a, d in zip(spec.orders, spec.diffusivities)]) / np.array(spec.diffusivities)
        u = u0
        for n in range(grid.N):
            t = float(grid.times[n])
            c = [[f(x, t) for f in row] for row in spec.couplings]
            rhs = reference.memory(n, u) - fac[:, None] * np.array(
                [sum(c[k][l] * u[l] for l in range(K)) for k in range(K)])
            rhs += fac[:, None] * np.array([f(x, t) for f in spec.sources])
            expected = reference.lu.solve(rhs.T.reshape(-1)).reshape(m, K).T
            u = stepper.step(n, u)
            assert u.tobytes() == expected.tobytes()
