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
import io
import json
import math
import os
import sys
import time
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import decay as decay_mod
from . import frac_ode, mittag_leffler, spectral, subdiff_fd
from .errors import ConfigError, DomainError, NumericalError, SubdecayError

_FMT = "{:.17g}"
# physical memory in GB, which a run's history must fit (inf where unknown)
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


def _floats(values) -> tuple:
    """Nested lists of numbers as nested tuples of floats."""
    return tuple(_floats(v) if isinstance(v, (list, tuple)) else float(v) for v in values)


# JSON type and converter of each RunConfig field, by its annotation's first
# name (annotations are strings here); "| None" marks the keys where an
# explicit null means "use the default"
_FIELD_TYPES = {
    "tuple": (list, _floats),
    "float": ((int, float), float),
    "int": (int, int),
    "str": (str, str),
}


def _field_type(f):
    return _FIELD_TYPES[f.type.split(" | ")[0]]


@dataclass(frozen=True)
class RunConfig:
    """Validated PDE run configuration; see the README for the JSON schema."""

    orders: tuple
    ic_case: str
    scheme: str = "semi-implicit"
    diffusivities: tuple | None = None
    couplings: tuple | None = None
    ic_scale: float = 1.0
    L: float = math.pi
    T: float = 1000.0
    n_time: int = 4000
    n_space: int = 128
    window: tuple | None = None
    stride: int = 10
    output: str | None = None

    def __post_init__(self):
        """K-dependent defaults, lists as tuples of floats, then every rule checked."""
        K = len(self.orders)
        if self.diffusivities is None:
            object.__setattr__(self, "diffusivities", [1.0] * K)
        if self.couplings is None:
            object.__setattr__(self, "couplings", _default_couplings(K))
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:
                object.__setattr__(self, f.name, _field_type(f)[1](value))
        problems = []
        if self.scheme not in ("semi-implicit", "fully-implicit"):
            problems.append(f"unknown scheme {self.scheme!r}")
        if K not in (2, 3):
            problems.append(f"component count {K} not supported (2 or 3)")
        elif (K, self.ic_case) not in _IC_PROFILES:
            problems.append(f"ic_case {self.ic_case!r} undefined for K={K}; valid: "
                            f"{sorted(c for (k, c) in _IC_PROFILES if k == K)}")
        for a in self.orders:
            if not 0.0 < a <= 1.0:
                problems.append(f"order {a} outside (0, 1]")
        if list(self.orders) != sorted(self.orders, reverse=True):
            problems.append("orders must be non-increasing")
        if len(self.diffusivities) != K:
            problems.append("diffusivities length disagrees with orders")
        if K in (2, 3) and (len(self.couplings) != K
                            or any(len(r) != K for r in self.couplings)):
            problems.append("couplings must be a K x K matrix")
        for name, vals in (("T", [self.T]), ("L", [self.L]), ("ic_scale", [self.ic_scale]),
                           ("diffusivities", self.diffusivities),
                           ("couplings", [c for row in self.couplings for c in row]),
                           ("window", self.window or [])):
            if not all(map(math.isfinite, vals)):
                problems.append(f"{name} must be finite")
        if self.ic_scale < 0.0:
            problems.append("ic_scale must be nonnegative")
        if not (self.L > 0 and self.T > 0):
            problems.append("L and T must be positive")
        if self.n_time < 2 or self.n_space < 2:
            problems.append("n_time and n_space must be >= 2")
        history_gb = 8 * (self.n_time + 1) * K * (self.n_space + 1) / 1e9
        if history_gb > _MEMORY_GB:
            problems.append(f"n_time and n_space need a {history_gb:.3g} GB history, more "
                            f"than the {_MEMORY_GB:.3g} GB of physical memory")
        if self.window is not None and not (
                len(self.window) == 2 and 1.0 <= self.window[0] < self.window[1] <= self.T):
            problems.append("window must satisfy 1 <= lo < hi <= T")
        if self.stride < 1:
            problems.append("stride must be >= 1")
        if problems:
            raise ConfigError(problems)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        problems = []
        unknown = sorted(set(raw) - {f.name for f in fields(cls)})
        if unknown:
            problems.append(f"unknown config keys: {unknown}")
        for f in fields(cls):
            json_type = _field_type(f)[0]
            if f.name not in raw:
                if f.default is MISSING:
                    problems.append(f"missing required key {f.name!r}")
            elif not (isinstance(raw[f.name], json_type)
                      or raw[f.name] is None and "| None" in f.type):
                problems.append(
                    f"key {f.name!r} has wrong type {type(raw[f.name]).__name__}")
        if problems:
            raise ConfigError(problems)
        try:
            return cls(**raw)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:  # e.g. a null order, a flat couplings list
            raise ConfigError(f"malformed config entry: {exc}") from None

    def to_dict(self) -> dict:
        """The config as JSON values, tuples written as lists."""
        return json.loads(json.dumps(asdict(self)))

    def system_spec(self) -> subdiff_fd.SystemSpec:
        profiles = _IC_PROFILES[(len(self.orders), self.ic_case)]
        scale = self.ic_scale
        initials = [(lambda x, f=f: scale * f(x)) for f in profiles]
        return subdiff_fd.SystemSpec(
            orders=self.orders, diffusivities=self.diffusivities,
            couplings=self.couplings, initials=initials)

    def grid(self) -> subdiff_fd.Grid:
        return subdiff_fd.Grid(L=self.L, I=self.n_space, T=self.T, N=self.n_time)


def _default_couplings(K: int):
    if K == 2:
        return [[1.0, -1.0], [-1.0, 1.0]]
    return [[1.0, -0.5, -0.5], [-0.5, 1.0, -0.5], [-0.5, -0.5, 1.0]]


@dataclass
class RunReport:
    """Everything a run produced besides the CSV: fits, flags, provenance."""

    config: RunConfig
    component_fits: list
    total_fit: decay_mod.DecayFit | None
    stability_ok: bool
    stability_marginal: bool
    assumption_ok: bool
    wall_time_s: float
    notes: list = field(default_factory=list)

    def to_text(self) -> str:
        buf = io.StringIO()
        print("run config:", json.dumps(self.config.to_dict(), sort_keys=True), file=buf)
        for k, fit in enumerate(self.component_fits):
            print(f"component {k + 1}: exponent {_FMT.format(fit.exponent)} "
                  f"(rms residual {fit.rms_residual:.3e}, window {fit.window})", file=buf)
        if self.total_fit is not None:
            print(f"summed norms: exponent {_FMT.format(self.total_fit.exponent)} "
                  f"(rms residual {self.total_fit.rms_residual:.3e})", file=buf)
        print(f"stability condition: {'satisfied' if self.stability_ok else 'violated'}"
              + (" (marginal: disks touch the unit circle)" if self.stability_marginal else ""),
              file=buf)
        print(f"decay assumption (spectral gap vs couplings): "
              f"{'satisfied' if self.assumption_ok else 'not satisfied'}", file=buf)
        for note in self.notes:
            print("note:", note, file=buf)
        print(f"wall time: {self.wall_time_s:.2f} s", file=buf)
        return buf.getvalue()


def run(config: RunConfig, csv_sink=None) -> RunReport:
    """Simulate, write the CSV series, fit decay exponents, return the report.

    Deterministic for a fixed config.  The CSV columns are t, norm_1..K and
    pointwise_exp_1..K (NaN where t <= 1 makes the ratio undefined).
    """
    t_start = time.perf_counter()
    spec = config.system_spec()
    grid = config.grid()
    history = subdiff_fd.simulate(spec, grid, config.scheme)
    times, norms = subdiff_fd.norm_history(history, stride=config.stride)
    margin = subdiff_fd.stability_margin(spec)
    # without sources a row-dominant system stays bounded: growth is instability
    total = norms.sum(axis=1)
    if not (np.all(np.isfinite(norms))
            and (margin < 0.0 or total.max() <= 10.0 * total[0])):
        raise NumericalError(
            f"norms diverged (summed norm up to {total.max():.3g}, {total[0]:.3g} at "
            f"t = 0, coupling margin {margin:g}): the {config.scheme} scheme is "
            f"unstable at dt = {grid.dt:g}")

    if csv_sink is None and config.output is not None:
        with open(config.output, "w") as fh:
            _write_series_csv(fh, times, norms)
    elif csv_sink is not None:
        _write_series_csv(csv_sink, times, norms)

    if float(np.max(norms)) == 0.0:
        raise NumericalError(
            "zero norm series: all components vanish identically, "
            "no decay exponent to fit")
    window = config.window or (config.T / 5.0, config.T)
    fits = []
    for k in range(spec.K):
        fits.append(_fit_window(times, norms[:, k], window))
    total_fit = _fit_window(times, norms.sum(axis=1), window)

    kappa0 = min(config.diffusivities)
    c_sup = _offdiag_sup(config)
    assumption_ok = False
    if c_sup > 0.0:
        assumption_ok = frac_ode.check_decay_assumption(
            kappa0, frac_ode.poincare_constant(config.L), c_sup, c_sup)
    notes = []
    if not assumption_ok:
        notes.append("experiment exceeds the sufficient decay assumption "
                     "(as the reference experiments do); rates are observed, "
                     "not guaranteed")
    report = RunReport(
        config=config,
        component_fits=fits,
        total_fit=total_fit,
        stability_ok=margin >= 0.0,
        stability_marginal=margin == 0.0,
        assumption_ok=assumption_ok,
        wall_time_s=time.perf_counter() - t_start,
        notes=notes,
    )
    return report


def _offdiag_sup(config: RunConfig) -> float:
    K = len(config.orders)
    vals = [abs(config.couplings[k][l]) for k in range(K) for l in range(K) if k != l]
    return max(vals) if vals else 0.0


def _fit_window(times, values, window):
    sel = decay_mod.log_uniform_indices(times, max(window[0], times[1]), window[1], 60)
    series = decay_mod.NormSeries(times[sel], values[sel])
    return decay_mod.fit_exponent(series, window)


def _pointwise(times, values):
    """decay.pointwise_exponent where it is defined: t > 1 and value > 0."""
    mask = (times > 1.0) & (values > 0.0)
    return mask, decay_mod.pointwise_exponent(decay_mod.NormSeries(times[mask], values[mask]))


def _write_series_csv(fh, times, norms):
    K = norms.shape[1]
    pointwise = np.full(norms.shape, np.nan)
    for k in range(K):
        mask, ratio = _pointwise(times, norms[:, k])
        pointwise[mask, k] = ratio.values
    header = ["t"] + [f"norm_{k + 1}" for k in range(K)] \
        + [f"pointwise_exp_{k + 1}" for k in range(K)]
    fh.write(",".join(header) + "\n")
    for t, row in zip(times, np.hstack([norms, pointwise])):
        fh.write(",".join(_FMT.format(x) for x in (t, *row)) + "\n")


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
    and third zero)."""
    if case not in ("ii", "iii"):
        raise ConfigError("table case must be 'ii' or 'iii'")
    return [RunConfig.from_dict({"orders": list(rows), "ic_case": case})
            for rows in TABLE_ORDER_ROWS]


def report_tables(sink=None) -> str:
    """Run the twelve table configurations and print fitted vs target rates.

    Each row reports the fitted exponent of the summed component norms over
    the default window, annotated pass/fail against the conjectured power
    within _TABLE_TOLERANCE.
    Returns the text; with a sink, every line is also written there as it
    is made.
    """
    out = io.StringIO()

    def emit(line):
        print(line, file=out)
        if sink is not None:
            print(line, file=sink, flush=True)

    ic_nonzero = {"ii": (True, True, False), "iii": (True, False, False)}
    for case, title in (("ii", "third component starts at zero"),
                        ("iii", "second and third components start at zero")):
        emit(f"table ({title}):")
        emit("  alpha  beta  gamma   target   fitted      status")
        for cfg in table_configs(case):
            target = conjectured_rate(cfg.orders, ic_nonzero[case])
            rep = run(cfg)
            fitted = rep.total_fit.exponent
            status = "pass" if abs(fitted - target) <= _TABLE_TOLERANCE else "FAIL"
            a, b, g = cfg.orders
            emit(f"  {a:5.2f} {b:5.2f} {g:6.2f}   t^{target:+.2f}  "
                 f"{fitted:+.4f}     {status}")
    return out.getvalue()


# ---------------------------------------------------------------------------
# command line


def _cmd_mlf(args) -> int:
    val = mittag_leffler.ml_eval(args.eta, args.mu, args.z)
    print(_FMT.format(val))
    return 0


def _cmd_ode(args) -> int:
    sym = frac_ode.LaplaceSymbol(c1=args.c1, c2=args.c2,
                                 alpha=args.alpha, beta=args.beta)
    if args.method == "picard":
        spec = frac_ode.OdeSpec(alpha=args.alpha, beta=args.beta, a=1.0, b=0.0,
                                eta1=args.c1, eta2=args.c1,
                                mu1=args.c2, mu2=args.c2)
        path = frac_ode.picard_solve(spec, T=args.t_max, n_steps=args.n_steps)
        times, U, V = path.times, path.U, path.V
        if not path.converged:
            stop = (f"picard iteration did not converge: {path.iterations} sweeps, "
                    f"last increment {path.increment:.3e}")
            # a slope of an unconverged path would read as a decay exponent
            if args.fit_window:
                raise NumericalError(stop)
            print(f"warning: {stop}", file=sys.stderr)
    else:
        times = np.logspace(0.0, math.log10(args.t_max), args.n_steps)
        U, V = frac_ode.branch_cut_invert(sym, times)
    rows = ["t,U,V"]
    for t, u, v in zip(times, U, V):
        rows.append(",".join(_FMT.format(x) for x in (t, u, v)))
    text = "\n".join(rows) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.fit_window:
        lo, hi = args.fit_window
        mask = times > 0
        fit = decay_mod.fit_exponent(decay_mod.NormSeries(times[mask], (U + V)[mask]),
                                     (lo, hi))
        print(f"slope of U+V on [{lo:g}, {hi:g}]: {fit.exponent:+.4f} "
              f"(rms {fit.rms_residual:.2e})", file=sys.stderr)
    return 0


def _cmd_pde(args) -> int:
    with open(args.config) as fh:
        raw = json.load(fh)
    config = RunConfig.from_dict(raw)
    report = run(config)
    sys.stdout.write(report.to_text())
    return 0


def _cmd_oracle(args) -> int:
    sol = spectral.SpectralSolution(beta=args.beta, u0=np.sin, n_modes=args.n_modes)
    times = np.logspace(1.0, math.log10(args.t_max), args.n_points)
    rows = ["t,v_norm_exact,v_norm_asymptotic,ratio"]
    for t in times:
        ve = sol.v_norm(float(t))
        va = sol.v_norm_asymptotic(float(t))
        rows.append(",".join(_FMT.format(x) for x in (t, ve, va, va / ve)))
    text = "\n".join(rows) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_decay(args) -> int:
    data = np.genfromtxt(args.csv, delimiter=",", names=True)
    names = data.dtype.names
    if names is None or "t" not in names:
        raise ConfigError("CSV must have a header row with a 't' column")
    times = np.asarray(data["t"], dtype=float)
    for col in names:
        if col == "t" or col.startswith("pointwise"):
            continue
        vals = np.asarray(data[col], dtype=float)
        series = decay_mod.NormSeries(times, vals)
        window = tuple(args.window) if args.window else (times[-1] / 5.0, times[-1])
        fit = decay_mod.fit_exponent(series, window)
        print(f"{col}: exponent {fit.exponent:+.6f} intercept {fit.intercept:+.6f} "
              f"rms {fit.rms_residual:.3e} on window [{window[0]:g}, {window[1]:g}]")
        _, ratio = _pointwise(times, vals)
        print(f"{col}: pointwise ratio series (t, log value / log t):")
        for t, p in zip(ratio.times, ratio.values):
            print(f"  {_FMT.format(t)},{_FMT.format(p)}")
    return 0


def _cmd_report(args) -> int:
    if not args.tables:
        raise ConfigError("nothing to report: pass --tables")
    text = report_tables(sink=sys.stdout if args.progress else None)
    if not args.progress:
        sys.stdout.write(text)
    return 1 if "FAIL" in text else 0


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
    rep.add_argument("--progress", action="store_true",
                     help="stream rows as they finish")
    rep.set_defaults(func=_cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, SubdecayError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
