import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgbtrs

from conftest import band_to_dense, l1_history_direct, l1_weights_reference
from subdecay.errors import DomainError, SolverError
from subdecay.mittag_leffler import ml_neg
from subdecay.subdiff_fd import (_SOE_TOL, BandedMatrix, Grid, SystemSpec, _BandedLU,
                                 _Stepper, _soe_modes, assemble_block_matrix, banded_solve,
                                 gershgorin_disks, l1_weights, norm_history, simulate,
                                 stability_margin)

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
        assert np.array_equal(banded_solve(eye, rhs), rhs)

    def test_two_by_two_closed_form(self):
        # [[2, 1], [1, 3]]
        matrix = BandedMatrix(lower=1, upper=1, ab=np.array([[0.0, 1.0], [2.0, 3.0],
                                                              [1.0, 0.0]]))
        rhs = np.array([5.0, 10.0])
        x = banded_solve(matrix, rhs)
        assert x == pytest.approx([1.0, 3.0], rel=1e-14)

    def test_random_tridiagonal_against_dense(self, rng):
        for _ in range(25):
            n = 5
            ab = rng.uniform(-1.0, 1.0, size=(3, n))
            ab[1] = 3.0 + np.abs(ab[1])
            matrix = BandedMatrix(lower=1, upper=1, ab=ab)
            rhs = rng.uniform(-1, 1, size=n)
            x = banded_solve(matrix, rhs)
            ref = np.linalg.solve(band_to_dense(matrix), rhs)
            assert np.max(np.abs(x - ref)) < 1e-12

    def test_wider_band_against_dense(self, rng):
        n = 40
        ab = rng.uniform(-1, 1, size=(6, n))
        ab[2] = 8.0
        matrix = BandedMatrix(lower=3, upper=2, ab=ab)
        rhs = rng.uniform(-1, 1, size=n)
        x = banded_solve(matrix, rhs)
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
            np.testing.assert_allclose(banded_solve(lu, rhs),
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
            x = banded_solve(lu, rhs)
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
            banded_solve(matrix, rhs)

    def test_singular_raises(self):
        # [[1, 1], [1, 1]]
        matrix = BandedMatrix(lower=1, upper=1, ab=np.array([[0.0, 1.0], [1.0, 1.0],
                                                              [1.0, 0.0]]))
        with pytest.raises(SolverError):
            banded_solve(matrix, np.array([1.0, 2.0]))

    def test_shape_mismatch(self):
        eye = BandedMatrix(lower=0, upper=0, ab=np.ones((1, 4)))
        with pytest.raises(DomainError):
            banded_solve(eye, np.ones(5))


class TestGrid:
    @pytest.mark.parametrize("name", ["L", "T"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_extent_rejected(self, name, bad):
        with pytest.raises(DomainError, match="positive and finite"):
            Grid(**{"L": math.pi, "I": 4, "T": 1.0, "N": 4, name: bad})


class TestAssembly:
    def grid(self, I=3):
        return Grid(L=math.pi, I=I, T=1.0, N=4)

    def spec2(self):
        return SystemSpec(orders=(0.9, 0.5), diffusivities=(1.0, 2.0),
                          couplings=[[1.0, -1.0], [-1.0, 1.0]],
                          initials=[np.sin, HAT])

    def test_hand_expanded_two_by_two_blocks(self):
        grid = self.grid(I=3)
        spec = self.spec2()
        A = band_to_dense(assemble_block_matrix(spec, grid, 0))
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
        m = assemble_block_matrix(spec, grid, 0)
        assert m.lower == 1 and m.upper == 1
        dense = band_to_dense(m)
        r = spec.diffusivities[0] * math.gamma(1.3) * grid.dt ** 0.7 / grid.dx ** 2
        assert np.allclose(np.diag(dense), 1 + 2 * r)
        assert np.allclose(np.diag(dense, 1), -r)
        assert np.allclose(np.diag(dense, -1), -r)

    def test_bandwidth_bound(self):
        grid = Grid(L=math.pi, I=8, T=1.0, N=4)
        spec = SystemSpec(orders=(0.9, 0.5, 0.3), diffusivities=(1.0, 1.0, 1.0),
                          couplings=[[1.0, -0.5, -0.5], [-0.5, 1.0, -0.5],
                                     [-0.5, -0.5, 1.0]],
                          initials=[np.sin, HAT, ZERO])
        m = assemble_block_matrix(spec, grid, 0)
        assert m.lower == 3 and m.upper == 3  # 2K+1 = 7 bands total

    def test_diagonal_dominance_under_stability_condition(self):
        grid = self.grid(I=12)
        spec = self.spec2()
        assert stability_margin(spec) >= 0.0
        A = band_to_dense(assemble_block_matrix(spec, grid, 0))
        for i in range(A.shape[0]):
            off = np.sum(np.abs(A[i])) - abs(A[i, i])
            assert abs(A[i, i]) >= off + 1.0 - 1e-12


class TestGershgorin:
    def test_identity_disks(self):
        disks = gershgorin_disks(BandedMatrix(lower=0, upper=0, ab=np.ones((1, 4))))
        assert disks == [(1.0, 0.0)] * 4

    def test_interior_row_formulas(self):
        grid = Grid(L=math.pi, I=8, T=1.0, N=4)
        spec = SystemSpec(orders=(0.9, 0.5), diffusivities=(1.0, 1.0),
                          couplings=[[1.0, -1.0], [-1.0, 1.0]],
                          initials=[np.sin, HAT])
        A = assemble_block_matrix(spec, grid, 0)
        disks = gershgorin_disks(A)
        r1 = math.gamma(1.1) * grid.dt ** 0.9 / grid.dx ** 2
        fac1 = grid.dx ** 2 * r1
        interior = disks[2]  # node 1 (interior), component 1
        assert interior[0] == pytest.approx(1 + 2 * r1 + fac1 * 1.0, rel=1e-14)
        assert interior[1] == pytest.approx(2 * r1 + fac1 * 1.0, rel=1e-14)

    @pytest.mark.parametrize("lower, upper, n", [
        (1, 1, 2), (2, 1, 2), (1, 3, 3), (3, 2, 4), (0, 2, 5), (2, 0, 5), (3, 1, 40)])
    def test_random_bands_against_dense_row_sums(self, rng, lower, upper, n):
        # n < lower + upper + 1 in the first four: fewer rows than the band
        matrix = BandedMatrix(lower=lower, upper=upper,
                              ab=rng.uniform(-1.0, 1.0, size=(lower + upper + 1, n)))
        dense = band_to_dense(matrix)
        centers, radii = np.array(gershgorin_disks(matrix)).T
        assert np.array_equal(centers, np.diag(dense))
        np.testing.assert_allclose(radii, np.sum(np.abs(dense), axis=1) - np.abs(np.diag(dense)),
                                   rtol=1e-14, atol=1e-15)

    def test_disks_outside_unit_ball_when_stable(self):
        grid = Grid(L=math.pi, I=16, T=2000.0, N=200)
        spec = SystemSpec(orders=(0.9, 0.5), diffusivities=(1.0, 1.0),
                          couplings=[[1.0, -1.0], [-1.0, 1.0]],
                          initials=[np.sin, HAT])
        disks = gershgorin_disks(assemble_block_matrix(spec, grid, 0))
        assert min(abs(c) - r for c, r in disks) >= 1.0 - 1e-9


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
        _, norms = norm_history(hist)
        exact = math.exp(-1.0) * math.sqrt(math.pi / 2.0)
        assert norms[-1, 0] == pytest.approx(exact, rel=8e-3)

    def test_fractional_decoupled_against_mittag_leffler(self):
        grid = Grid(L=math.pi, I=128, T=1.0, N=1024)
        hist = simulate(single_component(0.5), grid)
        _, norms = norm_history(hist)
        exact = float(ml_neg(0.5, 1.0, -1.0)) * math.sqrt(math.pi / 2.0)
        assert norms[-1, 0] == pytest.approx(exact, rel=1e-3)
        # error decreases under time refinement (layer-limited rate)
        hist2 = simulate(single_component(0.5), Grid(L=math.pi, I=128, T=1.0, N=4096))
        _, norms2 = norm_history(hist2)
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
        grid = Grid(L=math.pi, I=32, T=1.0, N=64)
        const_src = lambda x, t: np.sin(x)  # time-constant source
        spec = SystemSpec(orders=(0.9, 0.5), diffusivities=(1.0, 1.0),
                          couplings=[[0.0, 0.0], [0.0, 0.0]],
                          initials=[np.sin, HAT],
                          sources=[const_src, None])
        hs = simulate(spec, grid, "semi-implicit")
        hf = simulate(spec, grid, "fully-implicit")
        assert np.max(np.abs(hs.values - hf.values)) < 1e-13

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
    def test_callable_couplings_match_constants(self, scheme):
        grid = Grid(L=math.pi, I=16, T=1.0, N=16)
        consts = [[1.0, -0.5], [-0.25, 0.75]]
        as_callables = [[(lambda x, t, c=c: c + 0.0 * x) for c in row] for row in consts]
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
        A = assemble_block_matrix(spec, grid, n + 1)
        rhs = np.array([l1_history_direct(a, interior[:, k], n)
                        for k, a in enumerate(spec.orders)])
        sol = interior[n + 1].T.reshape(-1)
        resid = np.max(np.abs(band_to_dense(A) @ sol - rhs.T.reshape(-1)))
        assert resid < 1e-10 * max(1.0, np.abs(rhs).max())

    def test_stepper_levels_match_direct_solve(self):
        """Every level simulate returns solves the scheme's system built
        from the direct L1 sum, by a dense solve independent of the band."""
        grid = Grid(L=math.pi, I=16, T=1.0, N=8)
        spec = SystemSpec(orders=(0.9, 0.5), diffusivities=(1.0, 1.0),
                          couplings=[[1.0, -1.0], [-1.0, 1.0]],
                          initials=[np.sin, HAT])
        C = np.array(spec.couplings)
        m = grid.I - 1
        r = [d * math.gamma(2.0 - a) * grid.dt ** a / grid.dx ** 2
             for a, d in zip(spec.orders, spec.diffusivities)]
        fac = [grid.dx ** 2 * r[k] / spec.diffusivities[k] for k in range(2)]
        full = band_to_dense(assemble_block_matrix(spec, grid, 0))
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
                                        load[k]) for k in range(2)])
                else:
                    expected = np.linalg.solve(full, memory.T.reshape(-1)).reshape(m, 2).T
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
        """The constant matrix is factored once per run, and every solve with
        those factors still runs the residual check."""
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
