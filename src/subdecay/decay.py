"""Decay-rate estimation from norm time-series.

Two diagnostics: the pointwise ratio log(value)/log(t), which converges to
the decay power but carries an O(log c / log t) offset from the prefactor,
and a windowed least-squares line through (log t, log value), which removes
the prefactor and is the statistic used by the acceptance runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# most samples a fit uses: log-uniform picks from its window
_FIT_SAMPLES = 60


@dataclass(frozen=True)
class NormSeries:
    """A sampled time series over finite, strictly increasing times.

    Holds norm histories (nonnegative values) as well as derived series such
    as the pointwise exponent ratio, so no sign constraint is imposed here;
    the fitting operations validate positivity where they need it.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or values.ndim != 1 or times.size != values.size:
            raise DomainError("times and values must be 1-D and equally long")
        if not np.isfinite(times).all():
            raise DomainError("times must be finite")
        if times.size and np.any(np.diff(times) <= 0.0):
            raise DomainError("times must be strictly increasing")


@dataclass(frozen=True)
class DecayFit:
    """Fitted power law value ~ exp(intercept) * t**exponent on a window, as
    made by fit_exponent, which checks the window and the sample count."""

    window: tuple[float, float]
    exponent: float
    intercept: float
    rms_residual: float

    @property
    def growing(self) -> bool:
        """A positive slope: the series grows, and the slope is no decay exponent."""
        return self.exponent > 0.0


def pointwise_exponent(series: NormSeries) -> NormSeries:
    """log(value)/log(t) at each sample (natural logs; ratio is base-free)."""
    if np.any(series.times <= 1.0):
        raise DomainError("pointwise exponent needs all times > 1")
    if np.any(series.values <= 0.0):
        raise DomainError("pointwise exponent needs strictly positive values")
    return NormSeries(series.times, np.log(series.values) / np.log(series.times))


def fit_exponent(series: NormSeries, window: tuple[float, float]) -> DecayFit:
    """Least-squares line through (log t, log value) restricted to window.

    Every sample inside the window (window_mask) is checked: each finite
    and positive.  The line is fitted to at most _FIT_SAMPLES of them,
    picked by log_uniform_indices, so a dense uniform grid does not weight
    the window's late decades more than its early ones.  The slope is the
    decay exponent; the rms residual diagnoses whether a single power law
    is the right model at all.
    """
    mask = window_mask(series.times, window)
    lo, hi = float(window[0]), float(window[1])
    t = series.times[mask]
    v = series.values[mask]
    if not np.all(np.isfinite(v) & (v > 0.0)):
        raise DomainError("non-finite, zero or negative values inside the fit window")
    sel = log_uniform_indices(t, lo, hi, _FIT_SAMPLES)
    x = np.log(t[sel])
    y = np.log(v[sel])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    rms = float(np.sqrt(np.mean(resid**2)))
    return DecayFit(window=(lo, hi), exponent=float(slope),
                    intercept=float(intercept), rms_residual=rms)


def window_mask(times: np.ndarray, window) -> np.ndarray:
    """The samples of times inside window, lo <= t <= hi, as a mask: a fit
    needs 1 <= lo < hi and at least 10 samples there, or DomainError."""
    lo, hi = float(window[0]), float(window[1])
    if not (lo >= 1.0 and hi > lo):
        raise DomainError(f"window must satisfy 1 <= lo < hi, got {window}")
    mask = (times >= lo) & (times <= hi)
    n = int(np.count_nonzero(mask))
    if n < 10:
        raise DomainError(f"only {n} samples inside window {window}; need >= 10")
    return mask


def l2_norm(profile, dx: float):
    """Composite-trapezoid approximation of the spatial L2 norm along the
    last axis: a float for a 1-D profile, an array of norms otherwise.

    ``profile`` samples the function on equispaced nodes including both
    boundary nodes; second-order accurate in dx for smooth profiles.
    """
    u = np.asarray(profile, dtype=float)
    if u.ndim < 1 or u.shape[-1] < 2:
        raise DomainError("profile needs at least 2 nodes along its last axis")
    sq = u * u
    norms = np.sqrt(dx * (np.sum(sq[..., 1:-1], axis=-1)
                         + 0.5 * sq[..., 0] + 0.5 * sq[..., -1]))
    return float(norms) if u.ndim == 1 else norms


def log_uniform_indices(times: np.ndarray, lo: float, hi: float, n: int) -> np.ndarray:
    """Indices of samples nearest to n log-uniform targets in [lo, hi],
    deduplicated and sorted: at most n of them, and every sample where the
    samples are sparser than the targets.  fit_exponent thins its window
    with it."""
    targets = np.exp(np.linspace(np.log(lo), np.log(hi), n))
    idx = np.searchsorted(times, targets)
    idx = np.clip(idx, 0, times.size - 1)
    left = np.maximum(idx - 1, 0)
    pick = np.where(np.abs(times[left] - targets) < np.abs(times[idx] - targets), left, idx)
    return np.unique(pick)
