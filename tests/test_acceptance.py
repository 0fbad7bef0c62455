"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Tolerances are pinned here, straight from the
criteria; nothing is deferred to later calibration.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import erfcx

from conftest import gershgorin_gap, picard_iterates, picard_monotonicity, system_matrix
from identities import im_parts, q_integral, q_of_r, r_series_identity
from subdecay import decay as decay_mod
from subdecay import frac_ode, spectral, subdiff_fd
from subdecay.cli import RunConfig, run, table_configs
from subdecay.mittag_leffler import ml_neg
from subdecay.subdiff_fd import Grid, SystemSpec, simulate

HAT = lambda x: np.pi / 2 - np.abs(x - np.pi / 2)
ZERO = lambda x: np.zeros_like(x)
C2 = [[1.0, -1.0], [-1.0, 1.0]]
SQRT_PI_HALF = math.sqrt(math.pi / 2.0)


def _report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def _drive(orders, ic_case):
    """One reference run through ``cli.run`` (default couplings, unit
    diffusivities, T=1000, N=4000, I=128, fit window [T/5, T]), every time
    level kept: returns (per-component slopes, summed-norm slope)."""
    rep = run(RunConfig.from_dict({"orders": list(orders), "ic_case": ic_case,
                                   "stride": 1}))
    return [fit.exponent for fit in rep.component_fits], rep.total_fit.exponent


class TestCriterion1:
    def test_figure2_rates(self):
        t0 = time.perf_counter()
        slopes_i, _ = _drive((0.9, 0.5), "i")
        el_i = time.perf_counter() - t0
        t0 = time.perf_counter()
        slopes_ii, _ = _drive((0.9, 0.5), "ii")
        el_ii = time.perf_counter() - t0
        ok = (all(abs(s + 0.5) <= 0.05 for s in slopes_i)
              and all(abs(s + 0.9) <= 0.05 for s in slopes_ii)
              and el_i <= 300.0 and el_ii <= 300.0)
        _report(1, ok,
                f"case (i) slopes {slopes_i[0]:+.4f}/{slopes_i[1]:+.4f} "
                f"(target -0.5±0.05), case (ii) {slopes_ii[0]:+.4f}/"
                f"{slopes_ii[1]:+.4f} (target -0.9±0.05), "
                f"runtimes {el_i:.0f}s/{el_ii:.0f}s <= 300s")


class TestCriterion2:
    def test_figure3_rates(self):
        slopes_i, _ = _drive((1.0, 0.5), "i")
        slopes_ii, _ = _drive((1.0, 0.5), "ii")
        ok = (all(abs(s + 0.5) <= 0.05 for s in slopes_i)
              and all(abs(s + 1.5) <= 0.07 for s in slopes_ii))
        _report(2, ok,
                f"case (i) {slopes_i[0]:+.4f}/{slopes_i[1]:+.4f} "
                f"(-0.5±0.05), case (ii) {slopes_ii[0]:+.4f}/{slopes_ii[1]:+.4f} "
                f"(-1.5±0.07)")


class TestCriterion3:
    def test_figure4_rates(self):
        slopes_03, _ = _drive((1.0, 0.3), "ii")
        slopes_07, _ = _drive((1.0, 0.7), "ii")
        ok = (all(abs(s + 1.3) <= 0.07 for s in slopes_03)
              and all(abs(s + 1.7) <= 0.07 for s in slopes_07))
        _report(3, ok,
                f"beta=0.3: {slopes_03[0]:+.4f}/{slopes_03[1]:+.4f} (-1.3±0.07), "
                f"beta=0.7: {slopes_07[0]:+.4f}/{slopes_07[1]:+.4f} (-1.7±0.07)")


class TestCriterion4:
    def test_figure5_three_component_rates(self):
        # one fitted exponent per case (the tables and figures report a
        # single rate per experiment): fit the summed component norms
        _, s_i = _drive((0.9, 0.5, 0.3), "i")
        _, s_ii = _drive((0.9, 0.5, 0.3), "ii")
        _, s_iii = _drive((0.9, 0.5, 0.3), "iii")
        ok = (abs(s_i + 0.3) <= 0.05 and abs(s_ii + 0.5) <= 0.05
              and abs(s_iii + 0.9) <= 0.05)
        _report(4, ok,
                f"cases (i)/(ii)/(iii) fitted {s_i:+.4f}/{s_ii:+.4f}/{s_iii:+.4f} "
                f"vs targets -0.3/-0.5/-0.9 (each ±0.05)")


class TestCriterion5:
    def test_twelve_table_rows(self):
        t0 = time.perf_counter()
        details = []
        ok = True
        for case in ("ii", "iii"):
            for cfg, target in table_configs(case):
                rep = run(cfg)
                fitted = rep.total_fit.exponent
                row_ok = abs(fitted - target) <= 0.07
                ok = ok and row_ok
                details.append(f"{cfg.orders}->{fitted:+.3f} (t^{target:+.1f})"
                               + ("" if row_ok else " MISS"))
        elapsed = time.perf_counter() - t0
        ok = ok and elapsed <= 45 * 60
        _report(5, ok, f"12 rows within ±0.07 in {elapsed:.0f}s: "
                       + "; ".join(details))


class TestCriterion6:
    def test_fractional_ode_dichotomy(self):
        t0 = time.perf_counter()
        results = {}
        for alpha, target in ((0.9, -0.9), (1.0, -1.5)):
            sym = frac_ode.LaplaceSymbol(c1=2.0, c2=1.0, alpha=alpha, beta=0.5)
            ts = np.logspace(2, 4, 60)
            U, V = frac_ode.branch_cut_invert(sym, ts)
            fit = decay_mod.fit_exponent(decay_mod.NormSeries(ts, U + V),
                                         (1e2, 1e4))
            results[alpha] = (fit.exponent, target)
        elapsed = time.perf_counter() - t0
        ok = all(abs(s - t) <= 0.05 for s, t in results.values()) and elapsed <= 60.0
        _report(6, ok,
                f"alpha=0.9 slope {results[0.9][0]:+.4f} (-0.9±0.05), "
                f"alpha=1.0 slope {results[1.0][0]:+.4f} (-1.5±0.05), "
                f"{elapsed:.1f}s <= 60s")


class TestCriterion7:
    def test_cross_validation(self):
        sym = frac_ode.LaplaceSymbol(c1=2.0, c2=1.0, alpha=0.9, beta=0.5)
        spec = frac_ode.OdeSpec(alpha=0.9, beta=0.5, a=1.0, b=0.0,
                                eta1=2.0, eta2=2.0, mu1=1.0, mu2=1.0)
        path = frac_ode.picard_solve(spec, T=20.0, n_steps=5120)
        t_check = np.array([1.0, 2.0, 5.0, 10.0, 15.0, 20.0])
        U_bc, V_bc = frac_ode.branch_cut_invert(sym, t_check)
        idx = np.searchsorted(path.times, t_check)
        worst = max(np.max(np.abs(path.U[idx] - U_bc) / U_bc),
                    np.max(np.abs(path.V[idx] - V_bc) / V_bc))

        dec = frac_ode.OdeSpec(alpha=0.5, beta=0.5, a=1.0, b=0.0,
                               eta1=1.0, eta2=1.0, mu1=0.0, mu2=0.0)
        dp = frac_ode.picard_solve(dec, T=10.0, n_steps=4096)
        ml_err = float(np.max(np.abs(dp.U[1:] - erfcx(np.sqrt(dp.times[1:])))))
        ok = worst <= 1e-4 and ml_err <= 1e-6
        _report(7, ok,
                f"picard vs branch-cut worst rel {worst:.2e} <= 1e-4 on [1,20]; "
                f"decoupled vs Mittag-Leffler closed form {ml_err:.2e} <= 1e-6")


class TestCriterion8:
    def test_superlinear_coefficient_exact_path(self):
        sol = spectral.SpectralSolution(beta=0.5, u0=np.sin, n_modes=8)
        v1 = sol.v_coeffs(1000.0)[0]
        scaled = v1 * 1000.0 ** 1.5 * (2.0 * math.sqrt(math.pi))
        lo, hi = 0.98 * SQRT_PI_HALF, 1.02 * SQRT_PI_HALF
        ok = lo <= scaled <= hi
        _report("8a", ok,
                f"v1(1e3) * t^1.5 * 2 sqrt(pi) = {scaled:.6f} in "
                f"[{lo:.6f}, {hi:.6f}]")

    def test_mixed_order_fd_reproduces_oracle(self):
        sol = spectral.SpectralSolution(beta=0.5, u0=np.sin, n_modes=8)
        grid = Grid(L=math.pi, I=256, T=100.0, N=16000)
        spec = SystemSpec(orders=(1.0, 0.5), diffusivities=(1.0, 1.0),
                          couplings=[[0.0, 0.0], [-1.0, 0.0]],
                          initials=[np.sin, ZERO])
        hist = simulate(spec, grid, "semi-implicit")
        times, norms = grid.times[::16], decay_mod.l2_norm(hist.values[::16], grid.dx)
        worst = 0.0
        for tv in (10.0, 20.0, 50.0, 100.0):
            i = int(np.argmin(np.abs(times - tv)))
            exact = sol.v_norm(float(times[i]))
            worst = max(worst, abs(norms[i, 1] - exact) / exact)
        ok = worst <= 0.01
        _report("8b", ok,
                f"finite-difference ||v|| vs spectral oracle worst rel "
                f"{worst:.2e} <= 1e-2 on t in [10, 100]")


class TestCriterion9:
    @staticmethod
    def _mms_error(alpha, N, I, scheme="fully-implicit", T=1.0):
        c0 = 2.0 / math.gamma(3.0 - alpha)
        src = lambda x, t: (c0 * t ** (2.0 - alpha) + (1.0 + t * t)) * np.sin(x)
        spec = SystemSpec(orders=(alpha,), diffusivities=(1.0,),
                          couplings=[[0.0]], initials=[np.sin], sources=[src])
        grid = Grid(L=math.pi, I=I, T=T, N=N)
        hist = simulate(spec, grid, scheme)
        err = hist.values[-1, 0, :] - (1.0 + T * T) * np.sin(grid.x)
        return math.sqrt(grid.dx * float(np.sum(err[1:-1] ** 2)))

    def test_temporal_orders(self):
        details = []
        ok = True
        for alpha in (0.5, 0.9):
            errs = [self._mms_error(alpha, N, I=512) for N in (24, 48, 96, 192)]
            order = math.log2(errs[0] / errs[-1]) / 3.0
            good = (2.0 - alpha - 0.15) <= order <= (2.0 - alpha + 0.15)
            ok = ok and good
            details.append(f"alpha={alpha}: order {order:.3f} "
                           f"(target {2 - alpha}±0.15)")
        _report("9a", ok, "; ".join(details))

    def test_spatial_order(self):
        errs = [self._mms_error(0.5, 4096, I) for I in (8, 16, 32)]
        order = math.log2(errs[0] / errs[-1]) / 2.0
        ok = abs(order - 2.0) <= 0.1
        _report("9b", ok, f"spatial order {order:.3f} (target 2±0.1)")


class TestCriterion10:
    def test_large_step_stability(self):
        grid = Grid(L=math.pi, I=16, T=2000.0, N=200)  # dt = 10, dx = pi/16
        spec = SystemSpec(orders=(0.9, 0.5), diffusivities=(1.0, 1.0),
                          couplings=C2, initials=[np.sin, HAT])
        assert subdiff_fd.stability_margin(spec) >= 0.0
        hist = simulate(spec, grid, "fully-implicit")
        norms = decay_mod.l2_norm(hist.values, grid.dx)
        growth = float(np.max(norms / norms[0]))
        min_gap = gershgorin_gap(system_matrix(spec, grid, 1))
        ok = growth <= 10.0 and min_gap >= 1.0 - 1e-9
        _report(10, ok,
                f"norm growth {growth:.3f} <= 10; min |center|-radius "
                f"{min_gap:.12f} >= 1")


class TestCriterion11:
    def test_mittag_leffler_properties(self):
        ok = True
        for eta in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            zmax = 4.0 if eta < 1.0 else math.log10(700.0)
            z = np.concatenate([[0.0], np.logspace(-6, zmax, 80)])
            e1 = ml_neg(eta, 1.0, -z)
            ee = ml_neg(eta, eta, -z)
            ok = ok and bool(np.all(e1 > 0) and np.all(e1 <= 1.0 + 1e-14))
            ok = ok and bool(np.all(ee > 0) and np.all(ee <= 1.0 + 1e-14))
            ok = ok and bool(np.all(np.diff(e1) <= 1e-15))
            for mu in (0.1, 1.0, 2.0, 3.0):
                ok = ok and abs(float(ml_neg(eta, mu, 0.0))
                                - 1.0 / math.gamma(mu)) <= 1e-13 / math.gamma(mu)
        _report("11-ml", ok,
                "positivity, bound, monotonicity and normalization grids clean")

    def test_l1_weight_identities(self):
        ok = True
        for gamma in (0.3, 0.5, 0.7, 0.9, 1.0):
            b = subdiff_fd.l1_weights(gamma, 10_000)
            ok = ok and b[0] == 1.0
            ok = ok and abs(b.sum() - 10_001 ** (1.0 - gamma)) <= 1e-13 * 10_001
            if gamma < 1.0:
                ok = ok and bool(np.all(b > 0) and np.all(np.diff(b) < 0))
        _report("11-weights", ok, "L1 weight identities to 1e-13 up to n=1e4")

    def test_symbol_closed_forms(self, rng):
        worst = 0.0
        for _ in range(1000):
            beta = rng.uniform(0.05, 0.95)
            alpha = rng.uniform(beta, 1.0)
            c2 = rng.uniform(0.1, 3.0)
            c1 = c2 * rng.uniform(1.01, 3.0)
            sym = frac_ode.LaplaceSymbol(c1=c1, c2=c2, alpha=alpha, beta=beta)
            r = rng.uniform(0.0, 30.0)
            s = r * np.exp(1j * np.pi)
            q_direct = (s ** alpha + c1) * (s ** beta + c1) - c2 ** 2
            qc = q_of_r(sym, r)
            im_exp, im_p = im_parts(sym, r)
            d_exp = (np.exp(1j * np.pi * alpha) * np.conj(q_direct)).imag
            p = np.exp(1j * np.pi * alpha) * (s ** beta + c1)
            d_p = (p * np.conj(q_direct)).imag
            scale = max(abs(q_direct), abs(d_exp), abs(d_p), 1.0)
            worst = max(worst,
                        abs(qc - q_direct) / scale,
                        abs(im_exp - d_exp) / scale,
                        abs(im_p - d_p) / scale)
        ok = worst <= 1e-12
        _report("11-symbols", ok,
                f"q/p closed forms vs complex arithmetic: worst {worst:.2e} "
                f"<= 1e-12 over 1000 draws")

    def test_q_and_r_identities(self, rng):
        import mpmath
        worst_q = 0.0
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
                ref = float(pref * mpmath.quad(
                    lambda sig: (tt - tt * sig ** (1 / c)) ** (k - j), [0, 1]))
            got = q_integral(float(t), j, k, float(beta))
            worst_q = max(worst_q, abs(got - ref) / abs(ref))
        worst_r = 0.0
        for lam, beta, t in ((1.0, 0.5, 1.0), (1.0, 0.3, 1.0), (2.0, 0.5, 1.0),
                             (0.5, 0.7, 4.0), (4.0, 0.5, 1.0)):
            lhs, rhs = r_series_identity(lam, beta, t, k_max=130)
            worst_r = max(worst_r, abs(lhs - rhs) / max(1.0, abs(lhs)))
        ok = worst_q <= 1e-8 and worst_r <= 1e-8
        _report("11-series", ok,
                f"Q-integral worst {worst_q:.2e}, R-series worst {worst_r:.2e} "
                f"(both <= 1e-8)")

    def test_picard_monotonicity_and_positivity(self):
        spec = frac_ode.OdeSpec(alpha=0.9, beta=0.5, a=1.0, b=0.0,
                                eta1=2.0, eta2=2.0, mu1=1.0, mu2=1.0)
        path, iterates = picard_iterates(spec, T=10.0, n_steps=512)
        mono = picard_monotonicity(iterates)
        strict = bool(np.all(path.U[1:] > 0.0) and np.all(path.V[1:] > 0.0))
        ok = path.converged and mono and strict
        _report("11-picard", ok,
                "iterates monotone non-decreasing, converged solution "
                "strictly positive")
