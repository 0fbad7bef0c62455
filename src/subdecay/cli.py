"""Experiment orchestration and the ``subdecay`` command line.

Subcommands:

* ``mlf``    one Mittag-Leffler evaluation,
* ``ode``    the coupled fractional ODE pair by Picard or Laplace inversion,
* ``pde``    a coupled subdiffusion run from a JSON config,
* ``oracle`` the decoupled-system exact/asymptotic norms,
* ``decay``  fit a decay exponent to a norm-series CSV,
* ``report`` reproduce the two decay-rate tables.

Exit codes: 0 success, 1 config/validation error, 2 numerical failure.
All floats in CSV output carry 17 significant digits; runs are deterministic
for a fixed config on one platform.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from dataclasses import MISSING, asdict, dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from . import decay as decay_mod
from . import frac_ode, mittag_leffler, spectral
from .errors import ConfigError, DomainError, NumericalError, SubdecayError

# subdiff_fd loads scipy's BLAS and LAPACK, which only `pde` and `report`
# need: the functions that step the PDE import it when called
if TYPE_CHECKING:
    from . import subdiff_fd

_FMT = "{:.17g}"
# physical memory in GB, which a run must fit (inf where unknown)
_MEMORY_GB = (os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 1e9
              if "SC_PHYS_PAGES" in getattr(os, "sysconf_names", {}) else math.inf)


def _hat(x):
    return np.pi / 2.0 - np.abs(x - np.pi / 2.0)


def _zero(x):
    return np.zeros_like(x)


def _parabola(x):
    return x * (np.pi - x)


# The paper-style initial-condition cases, by (K, ic_case).
# K=2: (i) u0 = sin x, v0 = hat;  (ii) u0 = sin x, v0 = 0.
# K=3: (i) u0 = x(pi-x), v0 = sin x, w0 = hat;
#      (ii) u0 = sin x, v0 = hat, w0 = 0;
#      (iii) u0 = sin x, v0 = w0 = 0.
_IC_PROFILES = {
    (2, "i"): [np.sin, _hat],
    (2, "ii"): [np.sin, _zero],
    (3, "i"): [_parabola, np.sin, _hat],
    (3, "ii"): [np.sin, _hat, _zero],
    (3, "iii"): [np.sin, _zero, _zero],
}


def _floats(value):
    """A number as a float, nested lists of numbers as nested tuples of floats."""
    return tuple(map(_floats, value)) if isinstance(value, (list, tuple)) else float(value)


# the values a RunConfig key holds, by its annotation: lists hold floats, and floats take ints
_LEAF_TYPES = {"float": (int, float), "int": int, "str": str}


def _value_problem(value, depth: int, leaf, entry: bool = False) -> str | None:
    """What is wrong with value, a list's entry if entry, against a list nested
    depth deep (0: a scalar) of leaf values, in the float range; None if nothing."""
    if depth and isinstance(value, (list, tuple)):
        return next(filter(None, (_value_problem(v, depth - 1, leaf, True) for v in value)), None)
    if isinstance(value, bool) and leaf is not str and not depth:  # true and false are ints
        return "holds a boolean where a number belongs"
    if depth or not isinstance(value, leaf):
        if not entry:
            return f"has wrong type {type(value).__name__}"
        return (f"holds an entry of type {type(value).__name__} where a "
                f"{'list' if depth else 'number'} belongs")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        return "holds an int beyond the float range"
    return None


@dataclass(frozen=True)
class RunConfig:
    """Validated PDE run configuration on (0, pi); see the README for the JSON schema."""

    orders: tuple[float, ...]
    ic_case: str
    scheme: str = "semi-implicit"
    diffusivities: tuple[float, ...] | None = None
    couplings: tuple[tuple[float, ...], ...] | None = None
    ic_scale: float = 1.0
    T: float = 1000.0
    n_time: int = 4000
    n_space: int = 128
    window: tuple[float, ...] | None = None
    stride: int = 10
    output: str | None = None

    def __post_init__(self):
        """Each key's type, then K-dependent defaults and every rule: the one
        check, whether built directly or by from_dict; lists become tuples of floats."""
        from . import subdiff_fd
        problems = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.default is None:  # null means the default
                continue
            depth = f.type.count("tuple[")  # 1: a list of numbers, 2: of rows of them
            leaf = _LEAF_TYPES["float" if depth else f.type.removesuffix(" | None")]
            if problem := _value_problem(value, depth, leaf):
                problems.append(f"key {f.name!r} {problem}")
            elif depth or f.type == "float":
                object.__setattr__(self, f.name, _floats(value))
        if problems:
            raise ConfigError(problems)
        K = len(self.orders)
        if self.diffusivities is None:
            object.__setattr__(self, "diffusivities", (1.0,) * K)
        if self.couplings is None:
            object.__setattr__(self, "couplings", _default_couplings(K))
        if self.scheme not in subdiff_fd.SCHEMES:
            problems.append(f"unknown scheme {self.scheme!r}")
        if K not in (2, 3):
            problems.append(f"component count {K} not supported (2 or 3)")
        elif (K, self.ic_case) not in _IC_PROFILES:
            problems.append(f"ic_case {self.ic_case!r} undefined for K={K}; valid: "
                            f"{sorted(c for (k, c) in _IC_PROFILES if k == K)}")
        else:
            problems += _domain_problems(self.system_spec)
        if not 0.0 < self.ic_scale < math.inf:
            problems.append(f"ic_scale must be finite and positive, got {self.ic_scale}")
        if grid_problems := _domain_problems(self.grid):
            problems += grid_problems
        # per step: 2K L1 weights, 6 temporaries, 2 time grids; per node and order:
        # 2 floats a mode, <= 8 + 4 (ln 2N + 5) modes, and 8K of bands and levels
        # (float factors first: a product of huge ints may not fit a float)
        elif (run_gb := 8e-9 * (2 * K + 8) * (self.n_time + 1) + 8e-9 * K * (self.n_space - 1) * (
                8 * (K + 2 + math.log(2 * self.n_time) + 5))) > _MEMORY_GB:
            problems.append(f"n_time and n_space need {run_gb:.3g} GB for the run, more "
                            f"than the {_MEMORY_GB:.3g} GB of physical memory")
        if self.window is not None and not (
                len(self.window) == 2 and 1.0 <= self.window[0] < self.window[1] <= self.T):
            problems.append("window must be finite and satisfy 1 <= lo < hi <= T")
        if self.stride < 1:
            problems.append("stride must be >= 1")
        elif self.stride > self.n_time:
            problems.append("stride must be at most n_time")
        problems += _output_problems(self.output)
        if not problems:  # every other rule holds, so the grid fits: count the levels to fit
            problems += _domain_problems(lambda: decay_mod.window_mask(
                self.grid().times[::self.stride], self.fit_window()))
        if problems:
            raise ConfigError(problems)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """The config a JSON object's keys build, none of them unknown or missing."""
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        problems = []
        if unknown := sorted(set(raw) - {f.name for f in fields(cls)}, key=str):
            problems.append(f"unknown config keys: {unknown}")
        problems += [f"missing required key {f.name!r}" for f in fields(cls)
                     if f.default is MISSING and f.name not in raw]
        if problems:
            raise ConfigError(problems)
        return cls(**raw)

    def to_dict(self) -> dict:
        """The config as JSON values, tuples written as lists."""
        return json.loads(json.dumps(asdict(self)))

    def system_spec(self) -> subdiff_fd.SystemSpec:
        from . import subdiff_fd
        profiles = _IC_PROFILES[(len(self.orders), self.ic_case)]
        scale = self.ic_scale
        initials = [(lambda x, f=f: scale * f(x)) for f in profiles]
        return subdiff_fd.SystemSpec(
            orders=self.orders, diffusivities=self.diffusivities,
            couplings=self.couplings, initials=initials)

    def grid(self) -> subdiff_fd.Grid:
        from . import subdiff_fd
        return subdiff_fd.Grid(L=math.pi, I=self.n_space, T=self.T, N=self.n_time)

    def fit_window(self) -> tuple:
        """The window the run's decay fits use: window, or (T/5, T)."""
        return self.window or (self.T / 5.0, self.T)


def _domain_problems(build) -> list:
    """The message of the DomainError that build() raises, as a problem list."""
    try:
        build()
    except DomainError as exc:
        return [str(exc)]
    return []


def _output_problems(output) -> list:
    """The problem list of an output file name that names a directory or
    whose directory does not exist."""
    if output and os.path.isdir(output):
        return [f"cannot write {output}: is a directory"]
    folder = os.path.dirname(output or "") or "."
    return [] if os.path.isdir(folder) else [f"output directory {folder} does not exist"]


def _default_couplings(K: int):
    if K == 2:
        return ((1.0, -1.0), (-1.0, 1.0))
    return ((1.0, -0.5, -0.5), (-0.5, 1.0, -0.5), (-0.5, -0.5, 1.0))


@dataclass
class RunReport:
    """Everything a run produced besides the CSV: the fits, the coupling
    margin (subdiff_fd.stability_margin: stable iff >= 0, marginal at 0),
    the decay assumption's verdict and the wall time."""

    config: RunConfig
    component_fits: list
    total_fit: decay_mod.DecayFit
    stability_margin: float
    assumption_ok: bool
    wall_time_s: float

    def to_text(self) -> str:
        def slope(fit):  # a positive slope is growth, never a decay exponent
            return (f"growing, slope {fit.exponent:+.17g}" if fit.growing
                    else f"exponent {_FMT.format(fit.exponent)}")

        stable = "satisfied" if self.stability_margin >= 0.0 else "violated"
        if self.stability_margin == 0.0:
            stable += " (marginal: disks touch the unit circle)"
        lines = ["run config: " + json.dumps(self.config.to_dict(), sort_keys=True)]
        lines += [f"component {k + 1}: {slope(fit)} "
                  f"(rms residual {fit.rms_residual:.3e}, window {fit.window})"
                  for k, fit in enumerate(self.component_fits)]
        lines += [f"summed norms: {slope(self.total_fit)} "
                  f"(rms residual {self.total_fit.rms_residual:.3e})",
                  f"stability condition: {stable}",
                  "decay assumption (spectral gap vs couplings): "
                  + ("satisfied" if self.assumption_ok else "not satisfied")]
        if not self.assumption_ok:
            lines.append("note: experiment exceeds the sufficient decay assumption (as the "
                         "reference experiments do); rates are observed, not guaranteed")
        lines.append(f"wall time: {self.wall_time_s:.2f} s")
        return "\n".join(lines) + "\n"


def run(config: RunConfig, csv_sink=None) -> RunReport:
    """Step once through the levels, keeping every stride-th level's norms,
    then write the CSV series, fit decay exponents and return the report.
    A kept level whose summed norm is not finite or, for row-dominant
    couplings, above 10 times its start raises NumericalError naming its
    time.  Deterministic for a fixed config.  The CSV columns are t, norm_1..K
    and pointwise_exp_1..K (NaN where t <= 1 makes the ratio undefined)."""
    from . import subdiff_fd

    t_start = time.perf_counter()
    spec, grid = config.system_spec(), config.grid()
    margin = subdiff_fd.stability_margin(spec)
    times = grid.times[::config.stride]
    norms = np.empty((times.size, spec.K))
    level = np.zeros((spec.K, grid.I + 1))  # walls stay zero
    kept = itertools.islice(subdiff_fd.levels(spec, grid, config.scheme), 0, None, config.stride)
    for i, u in enumerate(kept):
        level[:, 1:-1] = u
        norms[i] = decay_mod.l2_norm(level, grid.dx)
        # without sources a row-dominant system stays bounded: growth is instability
        total = norms[i].sum()
        if not (math.isfinite(total) and (margin < 0.0 or total <= 10.0 * norms[0].sum())):
            raise NumericalError(
                f"norms diverged (summed norm {total:.3g} at t = {times[i]:g}, "
                f"{norms[0].sum():.3g} at t = 0, coupling margin {margin:g}): the "
                f"{config.scheme} scheme is unstable at dt = {grid.dt:g}")

    if csv_sink is not None or config.output is not None:
        header = ",".join(["t"] + [f"norm_{k + 1}" for k in range(spec.K)]
                          + [f"pointwise_exp_{k + 1}" for k in range(spec.K)])
        _write_csv(header, np.column_stack([times, norms, _pointwise_columns(times, norms)]),
                   config.output if csv_sink is None else csv_sink)

    if float(np.max(norms)) == 0.0:
        raise NumericalError(
            "zero norm series: all components vanish identically, "
            "no decay exponent to fit")
    window = config.fit_window()
    fits = [decay_mod.fit_exponent(decay_mod.NormSeries(times, norms[:, k]), window)
            for k in range(spec.K)]
    total_fit = decay_mod.fit_exponent(decay_mod.NormSeries(times, norms.sum(axis=1)), window)

    # the energy method's sufficient decay condition: the spectral gap
    # kappa0 / C^2, with Poincare constant C = 1 on (0, pi), strictly above
    # every off-diagonal coupling, and some coupling at all
    c_sup = max(abs(c) for k, row in enumerate(config.couplings)
                for l, c in enumerate(row) if k != l)
    return RunReport(
        config=config,
        component_fits=fits,
        total_fit=total_fit,
        stability_margin=margin,
        assumption_ok=0.0 < c_sup < min(config.diffusivities),
        wall_time_s=time.perf_counter() - t_start,
    )


def _pointwise(times, values):
    """decay.pointwise_exponent where it is defined: t > 1 and value > 0."""
    mask = (times > 1.0) & (values > 0.0)
    return mask, decay_mod.pointwise_exponent(decay_mod.NormSeries(times[mask], values[mask]))


def _pointwise_columns(times, norms):
    """_pointwise of each norm column, NaN where it is undefined."""
    pointwise = np.full(norms.shape, np.nan)
    for k in range(norms.shape[1]):
        mask, ratio = _pointwise(times, norms[:, k])
        pointwise[mask, k] = ratio.values
    return pointwise


# ---------------------------------------------------------------------------
# decay-rate tables


def conjectured_rate(orders, ic_nonzero) -> float:
    """Predicted decay power: the lowest order with nonvanishing initial data
    sets the rate; if that order is 1, the decay accelerates to 1 plus the
    lowest order overall."""
    live = [a for a, nz in zip(orders, ic_nonzero) if nz]
    if not live:
        raise DomainError("at least one component needs nonzero initial data")
    a_live = min(live)
    if a_live < 1.0:
        return -a_live
    return -(1.0 + min(orders))


# largest |fitted - target| a table row may show and still pass
_TABLE_TOLERANCE = 0.07

TABLE_ORDER_ROWS = [
    (1.0, 0.5, 0.3),
    (1.0, 0.5, 0.5),
    (1.0, 0.7, 0.5),
    (1.0, 1.0, 0.3),
    (1.0, 1.0, 0.5),
    (1.0, 1.0, 0.7),
]


def table_configs(case: str):
    """The twelve desk-scale table rows: six order triples, run with the
    K=3 initial-condition case 'ii' (third component zero) or 'iii' (second
    and third zero), as (config, target) pairs: the target is the
    conjectured rate for the components whose profile is not _zero."""
    if case not in ("ii", "iii"):
        raise ConfigError("table case must be 'ii' or 'iii'")
    nonzero = [f is not _zero for f in _IC_PROFILES[(3, case)]]
    return [(RunConfig.from_dict({"orders": list(rows), "ic_case": case}),
             conjectured_rate(rows, nonzero)) for rows in TABLE_ORDER_ROWS]


def report_tables() -> bool:
    """Run the twelve table configurations and print fitted vs target rates,
    each line to stdout, flushed, as it is made; return whether every row
    passed.  Each row reports the fitted exponent of the summed component
    norms over the default window, annotated pass/fail against the
    conjectured power within _TABLE_TOLERANCE."""
    all_pass = True
    for case, title in (("ii", "third component starts at zero"),
                        ("iii", "second and third components start at zero")):
        print(f"table ({title}):", flush=True)
        print("  alpha  beta  gamma   target   fitted      status", flush=True)
        for cfg, target in table_configs(case):
            fitted = run(cfg).total_fit.exponent
            passed = abs(fitted - target) <= _TABLE_TOLERANCE
            all_pass &= passed
            a, b, g = cfg.orders
            print(f"  {a:5.2f} {b:5.2f} {g:6.2f}   t^{target:+.2f}  "
                  f"{fitted:+.4f}     {'pass' if passed else 'FAIL'}", flush=True)
    return all_pass


# ---------------------------------------------------------------------------
# command line


def _write_csv(header: str, rows, output) -> None:
    """The header and one line of _FMT floats per row, to output: a file
    name, a text stream or, without one, stdout."""
    text = "\n".join([header] + [",".join(map(_FMT.format, row)) for row in rows]) + "\n"
    output = output or sys.stdout
    if isinstance(output, str):
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {output}: {exc}") from None
    else:
        output.write(text)


def _cmd_mlf(args) -> int:
    val = mittag_leffler.ml_eval(args.eta, args.mu, args.z)
    print(_FMT.format(val))
    return 0


def _cmd_ode(args) -> int:
    if not (math.isfinite(args.t_max) and args.t_max > 0.0):
        raise DomainError(f"horizon --t-max must be finite and positive, got {args.t_max}")
    floor = frac_ode._MIN_STEPS if args.method == "picard" else 1
    if args.n_steps < floor:
        raise DomainError(f"--n-steps must be at least {floor} for --method {args.method}, "
                          f"got {args.n_steps}")
    # the times each method returns: the fit window is refused before the solve
    times = (np.linspace(0.0, args.t_max, args.n_steps + 1) if args.method == "picard"
             else np.logspace(0.0, math.log10(args.t_max), args.n_steps))
    mask = times > 0
    if args.fit_window:
        decay_mod.window_mask(times[mask], tuple(args.fit_window))
    if args.method == "picard":
        spec = frac_ode.OdeSpec(alpha=args.alpha, beta=args.beta, a=1.0, b=0.0,
                                eta1=args.c1, eta2=args.c1,
                                mu1=args.c2, mu2=args.c2)
        path = frac_ode.picard_solve(spec, T=args.t_max, n_steps=args.n_steps)
        U, V = path.U, path.V
        print(f"map residual {path.residual:.3e}", file=sys.stderr)
    else:
        sym = frac_ode.LaplaceSymbol(c1=args.c1, c2=args.c2,
                                     alpha=args.alpha, beta=args.beta)
        U, V = frac_ode.branch_cut_invert(sym, times)
    _write_csv("t,U,V", zip(times, U, V), args.output)
    if args.fit_window:
        lo, hi = args.fit_window
        fit = decay_mod.fit_exponent(decay_mod.NormSeries(times[mask], (U + V)[mask]), (lo, hi))
        trend = "growth" if fit.growing else "slope"
        print(f"{trend} of U+V on [{lo:g}, {hi:g}]: {fit.exponent:+.4f} "
              f"(rms {fit.rms_residual:.2e})", file=sys.stderr)
    return 0


def _cmd_pde(args) -> int:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not text
        raise ConfigError(f"cannot read config {args.config}: {exc}") from None
    config = RunConfig.from_dict(raw)
    report = run(config)
    sys.stdout.write(report.to_text())
    return 0


def _cmd_oracle(args) -> int:
    if not (math.isfinite(args.t_max) and args.t_max >= 10.0):
        raise DomainError(f"horizon --t-max must be finite and at least 10, the oracle's "
                          f"first time, got {args.t_max}")
    if args.n_points < 1:
        raise DomainError(f"--n-points must be at least 1, got {args.n_points}")
    sol = spectral.SpectralSolution(beta=args.beta, u0=np.sin, n_modes=args.n_modes)
    rows = []
    for t in np.logspace(1.0, math.log10(args.t_max), args.n_points):
        ve = sol.v_norm(float(t))
        va = sol.v_norm_asymptotic(float(t))
        rows.append((t, ve, va, va / ve))
    _write_csv("t,v_norm_exact,v_norm_asymptotic,ratio", rows, args.output)
    return 0


def _cmd_decay(args) -> int:
    try:
        data = np.atleast_1d(np.genfromtxt(args.csv, delimiter=",", names=True))
    except (OSError, ValueError) as exc:  # ValueError: ragged rows, or not text
        raise ConfigError(f"cannot read CSV {args.csv}: {exc}") from None
    names = data.dtype.names or ()
    columns = [c for c in names if c != "t" and not c.startswith("pointwise")]
    if "t" not in names or not columns or data.size == 0:
        raise ConfigError("CSV must have a header row with a 't' column and a norm "
                          "column, and a data row")
    times = np.asarray(data["t"], dtype=float)
    window = tuple(args.window) if args.window else (times[-1] / 5.0, times[-1])
    for col in columns:
        vals = np.asarray(data[col], dtype=float)
        fit = decay_mod.fit_exponent(decay_mod.NormSeries(times, vals), window)
        trend = "growing, slope" if fit.growing else "exponent"
        print(f"{col}: {trend} {fit.exponent:+.6f} intercept {fit.intercept:+.6f} "
              f"rms {fit.rms_residual:.3e} on window [{window[0]:g}, {window[1]:g}]")
        _, ratio = _pointwise(times, vals)
        print(f"{col}: pointwise ratio series (t, log value / log t):")
        for t, p in zip(ratio.times, ratio.values):
            print(f"  {_FMT.format(t)},{_FMT.format(p)}")
    return 0


def _cmd_report(args) -> int:
    if not args.tables:
        raise ConfigError("nothing to report: pass --tables")
    return 0 if report_tables() else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="subdecay",
                                description="coupled subdiffusion decay toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    mlf = sub.add_parser("mlf", help="evaluate the Mittag-Leffler function")
    mlf.add_argument("--eta", type=float, required=True)
    mlf.add_argument("--mu", type=float, required=True)
    mlf.add_argument("--z", type=float, required=True)
    mlf.set_defaults(func=_cmd_mlf)

    ode = sub.add_parser("ode", help="coupled fractional ODE pair")
    ode.add_argument("--alpha", type=float, required=True)
    ode.add_argument("--beta", type=float, required=True)
    ode.add_argument("--c1", type=float, required=True)
    ode.add_argument("--c2", type=float, required=True)
    ode.add_argument("--t-max", type=float, required=True)
    ode.add_argument("--method", choices=("picard", "laplace"), default="picard")
    ode.add_argument("--n-steps", type=int, default=2048)
    ode.add_argument("--fit-window", type=float, nargs=2, default=None)
    ode.add_argument("--output", default=None)
    ode.set_defaults(func=_cmd_ode)

    pde = sub.add_parser("pde", help="coupled subdiffusion run from JSON config")
    pde.add_argument("--config", required=True)
    pde.set_defaults(func=_cmd_pde)

    oracle = sub.add_parser("oracle", help="decoupled-system exact/asymptotic norms")
    oracle.add_argument("--beta", type=float, required=True)
    oracle.add_argument("--t-max", type=float, required=True)
    oracle.add_argument("--n-modes", type=int, default=64)
    oracle.add_argument("--n-points", type=int, default=25)
    oracle.add_argument("--output", default=None)
    oracle.set_defaults(func=_cmd_oracle)

    dec = sub.add_parser("decay", help="fit decay exponents to a norm-series CSV")
    dec.add_argument("csv")
    dec.add_argument("--window", type=float, nargs=2, default=None)
    dec.set_defaults(func=_cmd_decay)

    rep = sub.add_parser("report", help="reproduce the decay-rate tables")
    rep.add_argument("--tables", action="store_true")
    rep.set_defaults(func=_cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # `ode` and `oracle` name an output file: refuse a missing directory before the work
        if problems := _output_problems(getattr(args, "output", None)):
            raise ConfigError(problems)
        return args.func(args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, SubdecayError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
