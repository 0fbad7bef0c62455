"""The three workloads: inputs made from the seed, the timed calls into
subdecay in a fixed order, and the checks of every output.

Each workload function takes a recorder (see ``worker.Recorder``) and the
seed's inputs.  ``rec.op(stage, fn, ...)`` times one call and files it under
a stage; ``rec.check(problems)`` records failed checks;
``rec.quarantine(label, fn)`` runs an operation that a known fault makes
fail, untimed and untraced, and counts it as failed when the fault shows.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from subdecay import cli, frac_ode, spectral, subdiff_fd
from subdecay.errors import ConfigError, DomainError, NumericalError

import checks


@dataclass(frozen=True)
class Inputs:
    """What the seed changes.

    ``scale`` multiplies every initial datum (and the manufactured
    solution); the problems are linear, so it moves every output without
    moving the work.  ``log_shift`` moves the long-time branch-cut grid
    [1e2, 1e4] by up to 0.02 decades either way.  Seed 0 gives the
    documented inputs: scale 1, no shift.  Quarantined operations never
    depend on the seed.
    """

    scale: float
    log_shift: float

    @classmethod
    def from_seed(cls, seed: int) -> "Inputs":
        if seed == 0:
            return cls(scale=1.0, log_shift=0.0)
        rng = np.random.default_rng(seed)
        return cls(scale=float(2.0 ** rng.uniform(-1.0, 1.0)),
                   log_shift=float(rng.uniform(-0.02, 0.02)))

    def long_times(self) -> np.ndarray:
        return np.logspace(2.0, 4.0, 60) * 10.0 ** self.log_shift


# ---------------------------------------------------------------------------
# pde-decay: L1 history sums and banded solves; no Mittag-Leffler calls

LONG_RUNS = [
    # (config, paper's rate of the summed norms, tolerance)
    ({"orders": [0.9, 0.5], "ic_case": "ii", "scheme": "semi-implicit"}, -0.9, 0.05),
    ({"orders": [1.0, 0.5], "ic_case": "ii", "scheme": "fully-implicit"}, -1.5, 0.07),
    ({"orders": [1.0, 0.5, 0.3], "ic_case": "iii", "scheme": "semi-implicit"}, -1.3, 0.07),
]

WIDE_ORDERS = (0.9, 0.5)

# Each workload has a main stage of three operations and a short second
# stage.  The short one is repeated after each main operation and reported
# as a total, so both stages sample the whole round rather than a few
# seconds of machine noise.  Only stages without caches are repeated, so
# every repeat is as cold as the first.


def _c11(x, t):
    return 2.0 + np.sin(x) * np.cos(t)


def _c12(x, t):
    return -(0.5 + 0.25 * np.cos(x) * t)


def _c21(x, t):
    return -(0.5 + 0.5 * np.sin(x) * t)


def _c22(x, t):
    return 1.5 + 0.5 * np.cos(2.0 * x) * np.sin(t)


def manufactured(scale: float):
    """K=2 system with couplings varying in x and t, and the source that
    makes scale * checks.manufactured_u, manufactured_v exact.  Caputo
    derivatives of the time factors: D^a t^2 = 2 t^(2-a)/Gamma(3-a) and
    D^a t = t^(1-a)/Gamma(2-a); -u'' = u for sin x."""
    a1, a2 = WIDE_ORDERS

    def f1(x, t):
        u, v = scale * checks.manufactured_u(x, t), scale * checks.manufactured_v(x, t)
        dt_u = scale * 2.0 * t ** (2.0 - a1) / math.gamma(3.0 - a1) * np.sin(x)
        return dt_u + u + _c11(x, t) * u + _c12(x, t) * v

    def f2(x, t):
        u, v = scale * checks.manufactured_u(x, t), scale * checks.manufactured_v(x, t)
        dt_v = scale * t ** (1.0 - a2) / math.gamma(2.0 - a2) * np.sin(x)
        return dt_v + v + _c21(x, t) * u + _c22(x, t) * v

    spec = subdiff_fd.SystemSpec(
        orders=WIDE_ORDERS, diffusivities=(1.0, 1.0),
        couplings=[[_c11, _c12], [_c21, _c22]],
        initials=[lambda x: scale * checks.manufactured_u(x, 0.0),
                  lambda x: scale * checks.manufactured_v(x, 0.0)],
        sources=[f1, f2])
    grid = subdiff_fd.Grid(L=math.pi, I=1024, T=1.0, N=1000)
    return spec, grid


def _semi_implicit_large_step():
    """dt = 10 on I = 16: the semi-implicit scheme's norms grow by ~1e34
    while it reports the stability condition satisfied.  Bounded norms or
    a refusal both count as a correct answer."""
    config = cli.RunConfig.from_dict({"orders": [0.9, 0.5], "ic_case": "i",
                                      "n_space": 16, "n_time": 200, "T": 2000.0})
    sink = io.StringIO()
    try:
        cli.run(config, csv_sink=sink)
    except (DomainError, ConfigError, NumericalError):
        return []
    table = np.genfromtxt(io.StringIO(sink.getvalue()), delimiter=",", names=True)
    norms = np.column_stack([table[n] for n in table.dtype.names if n.startswith("norm_")])
    return [] if checks.norms_bounded(norms) else None


def pde_decay(rec, inputs: Inputs):
    spec, grid = manufactured(inputs.scale)
    for cfg, target, tol in LONG_RUNS:
        config = cli.RunConfig.from_dict(dict(cfg, n_space=128, n_time=4000, T=1000.0,
                                              ic_scale=inputs.scale))
        report = rec.op("pde_long", cli.run, config)
        if report is not None:
            label = f"orders {cfg['orders']} case {cfg['ic_case']} {cfg['scheme']}"
            rec.check(checks.exponent_within(label, report.total_fit.exponent, target, tol))
        history = rec.op("pde_wide", subdiff_fd.simulate, spec, grid, "fully-implicit")
        if history is not None:
            rec.check(checks.manufactured_within(history.values, grid.x, grid.times,
                                                 inputs.scale, grid.dt, grid.dx,
                                                 max(WIDE_ORDERS)))
    rec.quarantine("semi-implicit run with dt=10", _semi_implicit_large_step)


# ---------------------------------------------------------------------------
# ode-sweep: cold Mittag-Leffler tables, kernel moments, branch-cut quadrature

C1, C2 = 2.0, 1.0
COMPARE_TIMES = np.array([1.0, 2.0, 5.0, 10.0, 15.0, 20.0])


def _coupled(alpha: float, beta: float, a: float) -> frac_ode.OdeSpec:
    return frac_ode.OdeSpec(alpha=alpha, beta=beta, a=a, b=0.0,
                            eta1=C1, eta2=C1, mu1=C2, mu2=C2)


def picard_vs_branch_cut(label: str, path, reference, scale: float) -> list[str]:
    return checks.picard_agrees(label, path.times, path.U, path.V, path.converged,
                                COMPARE_TIMES, reference, scale)


def _picard_alpha_one():
    """E_{1,1} = exp, yet ml_neg_cached builds a spline of it and fails its
    own interpolation check, so this solve raises NumericalError."""
    path = frac_ode.picard_solve(_coupled(1.0, 0.5, 1.0), T=20.0, n_steps=5120)
    sym = frac_ode.LaplaceSymbol(c1=C1, c2=C2, alpha=1.0, beta=0.5)
    return picard_vs_branch_cut("picard 1.0/0.5", path,
                                frac_ode.branch_cut_invert(sym, COMPARE_TIMES), 1.0)


def ode_sweep(rec, inputs: Inputs):
    coupled = [(0.9, 0.5), (0.8, 0.4)]
    decoupled = frac_ode.OdeSpec(alpha=0.5, beta=0.5, a=inputs.scale, b=0.0,
                                 eta1=1.0, eta2=1.0, mu1=0.0, mu2=0.0)
    solves = [(_coupled(alpha, beta, inputs.scale), 20.0, 5120) for alpha, beta in coupled]
    solves.append((decoupled, 10.0, 4096))
    symbols = [frac_ode.LaplaceSymbol(c1=C1, c2=C2, alpha=alpha, beta=beta)
               for alpha, beta in coupled]
    long_symbols = [frac_ode.LaplaceSymbol(c1=C1, c2=C2, alpha=alpha, beta=0.5)
                    for alpha in (0.9, 1.0)]
    times = inputs.long_times()

    def branch_cut_sweep():
        return ([frac_ode.branch_cut_invert(sym, COMPARE_TIMES) for sym in symbols],
                [frac_ode.branch_cut_invert(sym, times) for sym in long_symbols])

    paths, sweeps = [], []
    for spec, T, n_steps in solves:
        paths.append(rec.op("picard", frac_ode.picard_solve, spec, T=T, n_steps=n_steps))
        # branch-cut inversion keeps no state between calls: each sweep is cold
        sweeps.append(rec.op("branch_cut", branch_cut_sweep))
    *coupled_paths, decoupled_path = paths
    if decoupled_path is not None:
        rec.check(checks.decoupled_half_order(decoupled_path.times, decoupled_path.U,
                                              decoupled_path.V, inputs.scale))
    for short, long in filter(None, sweeps):
        for (alpha, beta), path, reference in zip(coupled, coupled_paths, short):
            if path is not None:
                rec.check(picard_vs_branch_cut(f"picard {alpha}/{beta}", path, reference,
                                               inputs.scale))
        for (alpha, target), (U, V) in zip(((0.9, -0.9), (1.0, -1.5)), long):
            rec.check(checks.slope_within(f"branch-cut slope alpha={alpha}", times, U + V,
                                          target, 0.05))
    rec.quarantine("picard with orders 1.0/0.5", _picard_alpha_one)


# ---------------------------------------------------------------------------
# spectral-oracle: scalar Mittag-Leffler calls inside adaptive quadrature

BETA = 0.5
HAT_MODES = 32
HAT_TIMES = (10.0, 100.0, 1000.0)
SIN_MODES = 8
SIN_TIME = 1000.0


def spectral_oracle(rec, inputs: Inputs):
    scale = inputs.scale

    def hat(x):
        return scale * (np.pi / 2.0 - np.abs(x - np.pi / 2.0))

    sol = rec.op("project", spectral.SpectralSolution, beta=BETA, u0=hat, n_modes=HAT_MODES)
    if sol is None:
        return
    exact = checks.hat_coefficients(HAT_MODES, scale)
    rec.check(checks.projection_within("hat projection", sol.u0_coeffs, exact))

    def sin_point():
        sol8 = spectral.SpectralSolution(beta=BETA, u0=lambda x: scale * np.sin(x),
                                         n_modes=SIN_MODES)
        return sol8.v_coeffs(SIN_TIME)

    ratios = []
    for t in HAT_TIMES:
        # an oracle point is all of v_norm's work: v_norm(t) = |v_coeffs(t)|
        v = rec.op("oracle_point", sol.v_coeffs, t)
        if v is not None:
            rec.check(checks.modes_within("hat modes", v, sol.u0_coeffs, t))
            ratios.append(sol.v_norm_asymptotic(t) / float(np.linalg.norm(v)))
        # the sin case takes half a second, so it runs five times per point
        for _ in range(5):
            v8 = rec.op("sin_point", sin_point)
            if v8 is not None:
                rec.check(checks.sin_coefficient_within(float(v8[0]), SIN_TIME, scale, BETA))
    if len(ratios) == len(HAT_TIMES):
        rec.check(checks.ratios_approach_one("hat norms", ratios))


WORKLOADS = {
    "pde-decay": pde_decay,
    "ode-sweep": ode_sweep,
    "spectral-oracle": spectral_oracle,
}
