"""Per-layer timing by wrapping module attributes from outside.

The benchmark never edits the program.  Instead it replaces, in the worker
process of a traced round, the names each subdecay module looks up across a
module boundary (``frac_ode.ml_neg``, ``subdiff_fd.banded_solve``, ...) with
a wrapper that counts calls and points and records total and self time.  Self
time is a span's duration minus the time of the wrapped calls it made, so
nested layers (``quad`` calling ``ml_neg``) are not counted twice.

A name that a later version of the program no longer has is listed in
``Tracer.absent`` and its metrics read zero; it never stops the run.
"""

from __future__ import annotations

import functools
import time

import numpy as np


class Span:
    """Accumulated cost of one wrapped name (or of several sharing a span)."""

    __slots__ = ("calls", "total", "self_time", "points", "items")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.points = 0
        self.items = 0.0


class Tracer:
    """Wraps callables found on modules and accumulates one Span per name."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.absent: list[str] = []
        self.enabled = True
        self._stack: list[list[float]] = []

    def span(self, name: str) -> Span:
        return self.spans.setdefault(name, Span())

    def wrap(self, module, attr: str, span: str, points=None, on_result=None):
        """Replace ``module.attr`` by a timing wrapper feeding ``span``.

        ``points(args, kwargs)`` gives the work size of one call;
        ``on_result(span, result)`` folds something from the result into
        the span (Picard sweeps, History size).
        """
        original = getattr(module, attr, None)
        if not callable(original):
            self.absent.append(f"{getattr(module, '__name__', module)}.{attr}")
            return
        stat = self.span(span)
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - frame[0]
            if points is not None:
                stat.points += points(args, kwargs)
            if on_result is not None:
                on_result(stat, result)
            return result

        setattr(module, attr, wrapper)


def _arg_size(position: int, keyword: str):
    def size(args, kwargs):
        value = args[position] if len(args) > position else kwargs.get(keyword)
        return int(np.size(value))
    return size


def _add_iterations(stat: Span, path):
    stat.items += getattr(path, "iterations", 0)


def _max_history_mb(stat: Span, history):
    values = getattr(history, "values", None)
    if isinstance(values, np.ndarray):
        stat.items = max(stat.items, values.nbytes / 2.0 ** 20)


# (module, attribute, span, points, on_result).  Names the modules import
# from one another are wrapped where they are looked up, so a call from
# inside the owning module (ml_neg_cached -> ml_neg) is not counted.
WRAPPED = [
    ("frac_ode", "ml_neg", "ml.direct", _arg_size(2, "z"), None),
    ("spectral", "ml_neg", "ml.direct", _arg_size(2, "z"), None),
    ("frac_ode", "ml_neg_cached", "ml.cached", _arg_size(2, "z"), None),
    ("frac_ode", "picard_solve", "frac_ode.picard", None, _add_iterations),
    ("frac_ode", "fftconvolve", "frac_ode.fftconvolve", None, None),
    ("frac_ode", "quad", "frac_ode.quad", None, None),
    ("frac_ode", "branch_cut_invert", "frac_ode.branch_cut", _arg_size(1, "t"), None),
    ("frac_ode", "find_poles", "frac_ode.find_poles", None, None),
    ("subdiff_fd", "simulate", "subdiff_fd.simulate", None, _max_history_mb),
    ("subdiff_fd", "step_semi_implicit", "subdiff_fd.step", None, None),
    ("subdiff_fd", "step_fully_implicit", "subdiff_fd.step", None, None),
    ("subdiff_fd", "banded_solve", "subdiff_fd.solve", None, None),
    ("subdiff_fd", "assemble_block_matrix", "subdiff_fd.assemble", None, None),
    ("subdiff_fd", "norm_history", "subdiff_fd.norms", None, None),
    ("spectral", "mode_convolution", "spectral.mode", None, None),
    ("spectral", "quad", "spectral.quad", None, None),
    ("spectral", "project_initial", "spectral.project", None, None),
    ("decay", "fit_exponent", "decay.fit", None, None),
    ("cli", "run", "cli.run", None, None),
]


def install(tracer: Tracer, modules: dict) -> Tracer:
    """Wrap every name of WRAPPED on the given {short name: module} map."""
    for mod_name, attr, span, points, on_result in WRAPPED:
        module = modules.get(mod_name)
        if module is None:
            tracer.absent.append(f"{mod_name}.{attr}")
            continue
        tracer.wrap(module, attr, span, points, on_result)
    return tracer


def _per(total: float, count: float, scale: float) -> float:
    return total / count * scale if count else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced round, by name."""
    s = tracer.span
    direct, cached = s("ml.direct"), s("ml.cached")
    picard, fft = s("frac_ode.picard"), s("frac_ode.fftconvolve")
    branch = s("frac_ode.branch_cut")
    step, solve, assemble = s("subdiff_fd.step"), s("subdiff_fd.solve"), s("subdiff_fd.assemble")
    mode, fit, run = s("spectral.mode"), s("decay.fit"), s("cli.run")
    ml_points = direct.points + cached.points
    return {
        "mittag_leffler.direct.calls": direct.calls,
        "mittag_leffler.direct.points": direct.points,
        "mittag_leffler.direct.s": direct.total,
        "mittag_leffler.cached.calls": cached.calls,
        "mittag_leffler.cached.points": cached.points,
        "mittag_leffler.cached.s": cached.total,
        "mittag_leffler.us_per_point": _per(direct.total + cached.total, ml_points, 1e6),
        "frac_ode.picard.solves": picard.calls,
        "frac_ode.picard.sweeps": picard.items,
        "frac_ode.picard.s": picard.total,
        # every fftconvolve call is a sweep convolution: sources are zero
        "frac_ode.picard.build_s": picard.total - fft.total,
        "frac_ode.picard.ms_per_sweep": _per(fft.total, picard.items, 1e3),
        "frac_ode.branch_cut.points": branch.points,
        "frac_ode.branch_cut.ms_per_point": _per(branch.total, branch.points, 1e3),
        "frac_ode.branch_cut.poles_s": s("frac_ode.find_poles").total,
        "frac_ode.quad.calls": s("frac_ode.quad").calls,
        "subdiff_fd.steps": step.calls,
        "subdiff_fd.step.us": _per(step.self_time, step.calls, 1e6),
        "subdiff_fd.solve.calls": solve.calls,
        "subdiff_fd.solve.us": _per(solve.total, solve.calls, 1e6),
        "subdiff_fd.assemble.calls": assemble.calls,
        "subdiff_fd.assemble.s": assemble.total,
        "subdiff_fd.norms.s": s("subdiff_fd.norms").total,
        "subdiff_fd.history_mb": s("subdiff_fd.simulate").items,
        "spectral.modes": mode.calls,
        "spectral.mode.ms": _per(mode.total, mode.calls, 1e3),
        "spectral.quad.calls": s("spectral.quad").calls,
        "spectral.project.s": s("spectral.project").total,
        "decay.fits": fit.calls,
        "decay.fit.us": _per(fit.total, fit.calls, 1e6),
        "cli.runs": run.calls,
        "cli.self.s": run.self_time,
    }
