"""Two-parameter Mittag-Leffler function E_{eta,mu}(z) on the negative real
axis, plus the Gamma function at arbitrary non-pole arguments.

E_{eta,mu}(z) = sum_k z^k / Gamma(eta*k + mu).  Everything downstream
(relaxation kernels, Picard iterations, spectral solutions) reduces to this
function evaluated at z <= 0, so the evaluator aims at ~1e-12 relative
accuracy and refuses to return silently degraded values.

Evaluation routes for mu > 0, tried in this order; each float64 route is
vectorised and gated by an a-posteriori relative error estimate:

* |z| >= 4: the algebraic expansion -sum_{k>=1} z^{-k}/Gamma(mu - eta*k),
  truncated at its smallest term (1/Gamma at a pole contributes exactly 0);
* every point the expansion does not certify, |z| < 4 included, goes to the
  one route of its order: for 0 < eta < 1 the trapezoid rule on a parabolic
  Bromwich contour (Weideman & Trefethen, Math. Comp. 76 (2007); Garrappa,
  SIAM J. Numer. Anal. 53 (2015)), for eta = 1 the Kummer-transformed
  series; E_{1,1} short-circuits to exp;
* last resort, an extended-precision series (mpmath) for what no float64
  route certifies: points next to a zero of E (mu < eta, or mu < 1 at
  eta = 1), eta = 1 with mu next to 1 past |z| ~ 709, and, at
  rtol = 1e-12, mu = eta >= 0.98 with 14 <= |z| <= 38.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, rgamma

from .errors import DomainError, NumericalError, UnsupportedRangeError

_EPS = float(np.finfo(float).eps)
_KUMMER_CAP = 2000
_ASYMP_CAP = 400
_CONTOUR_N = 28
_CONTOUR_CHUNK = 2048
# validated accuracy envelope of the public evaluator
_ETA_RANGE = (0.1, 1.0)
_MU_RANGE = (0.1, 3.0)
_Z_MIN = -1.0e4


def _sinpi(x: float) -> float:
    """sin(pi*x) with exact argument reduction (no pi*x rounding blowup)."""
    r = x - round(x)
    s = math.sin(math.pi * r)
    return s if round(x) % 2 == 0 else -s


def gamma_fn(x: float) -> float:
    """Gamma(x) for real x that is not a non-positive integer.

    Positive arguments go straight to the platform gamma; negative ones use
    the reflection formula Gamma(x)Gamma(1-x) = pi/sin(pi*x).  Relative error
    is a few ulp for |x| <= 20.
    """
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise DomainError(f"gamma_fn pole at x={x:g} (non-positive integer)")
    if x > 0.0:
        return math.gamma(x)
    return math.pi / (_sinpi(x) * math.gamma(1.0 - x))


@lru_cache(maxsize=256)
def _asymp_weights(eta: float, mu: float, cap: int) -> np.ndarray:
    """1/Gamma(mu - eta*k) for k = 1..cap; exactly 0 at the Gamma poles.

    Arguments within a few ulps of a non-positive integer are snapped onto
    the pole: rounding of mu - eta*k otherwise yields ghost weights ~1e-15
    whose terms wreck the optimal-truncation error estimate.
    """
    k = np.arange(1, cap + 1, dtype=float)
    a = mu - eta * k
    w = rgamma(a)
    nearest = np.round(a)
    snap = (nearest <= 0.0) & (np.abs(a - nearest) <= 64.0 * _EPS * np.maximum(1.0, eta * k))
    w[snap] = 0.0
    return w


def _asymp_f64(eta, mu, z):
    """Vectorized large-|z| expansion with per-point optimal truncation, z < 0.

    Sums -z^{-k}/Gamma(mu-eta*k) while the (nonzero) term magnitudes shrink,
    freezing each point once they clearly grow again or fall below rounding
    level; the smallest term seen is the error estimate.  If the nonzero
    weights run out before any growth (possible only for eta == 1, where the
    expansion terminates), truncation is exact up to the exponentially small
    part, which is added to the estimate whenever eta > 2/3.
    """
    weights = _asymp_weights(float(eta), float(mu), _ASYMP_CAP)
    finite = np.isfinite(weights)
    n_usable = int(np.argmax(~finite)) if not finite.all() else _ASYMP_CAP
    nz_idx = np.flatnonzero(weights[:n_usable] != 0.0)
    last_nz = int(nz_idx[-1]) if nz_idx.size else -1

    zinv = 1.0 / z
    power = np.ones_like(z)
    total = np.zeros_like(z)
    best = np.full(z.shape, np.inf)
    frozen = np.zeros(z.shape, dtype=bool)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for k in range(last_nz + 1):
            power = power * zinv
            if weights[k] == 0.0:
                continue
            a = -power * weights[k]
            mag = np.abs(a)
            frozen |= mag > 2.0 * best
            total = np.where(frozen, total, total + a)
            best = np.where((mag < best) & ~frozen, mag, best)
            frozen |= mag <= 0.25 * _EPS * np.abs(total)
            if np.all(frozen):
                break
    if eta == 1.0 and not np.all(frozen):
        # ran out of nonzero weights without growth: expansion terminated
        best[~frozen] = 0.0
    scale = np.maximum(np.abs(total), 1e-300)
    est = np.where(np.isfinite(best), best, np.inf) / scale * 3.0
    if eta > 2.0 / 3.0:
        # the exponentials (1/eta) s^(1-mu) e^s at s = |z|^(1/eta) e^(+-i pi/eta)
        # survive on the negative axis for eta > 2/3 (e^z z^(1-mu) at eta = 1);
        # exponentially small, but not below the smallest algebraic term
        with np.errstate(divide="ignore", under="ignore"):
            r = np.abs(z) ** (1.0 / eta)
            est = est + 2.0 / eta * r ** (1.0 - mu) * np.exp(
                np.maximum(r * math.cos(math.pi / eta), -700.0)) / scale
    return total, est


@lru_cache(maxsize=64)
def _contour_rule(eta: float, mu: float, n: int):
    """Nodes s_k^eta and weights w_k of the n-step trapezoid rule on the
    parabola s(u) = c (1 + iu)^2, u in [0, u_max], so that by symmetry about
    the real axis E = sum_k Im(w_k / (s_k^eta - z)).

    c = 1.5 bounds the e^s rounding of the weights by e^1.5 eps (Garrappa's
    choice for a 1e-15 target); c moves right once s^(eta-mu) is strongly
    singular at the origin (mu > eta + 1), whose |s|^(eta-mu) decay pays for
    the larger e^c.  The tail beyond u_max is e^(c(1 - u_max^2)) = e^-36.
    """
    centre = 1.5 * (1.0 + max(0.0, mu - eta - 1.0))
    u = np.linspace(0.0, math.sqrt(1.0 + 36.0 / centre), n + 1)
    s = centre * (1.0 + 1j * u) ** 2
    w = (u[1] / math.pi) * np.exp(s) * s ** (eta - mu) * (2j * centre * (1.0 + 1j * u))
    w[0] *= 0.5
    return s ** eta, w


def _contour_f64(eta, mu, z):
    """Inverse Laplace transform of s^(eta-mu)/(s^eta - z) at t = 1, for
    0 < eta < 1 and z < 0 (no poles on the principal sheet).

    Returns the 1.5N-node value with the estimate |I_N - I_1.5N| plus the
    rounding bound eps * sum |terms|, both relative.  z is processed in
    fixed-size chunks so the node-by-point matrix stays small.
    """
    (s_n, w_n), (s_fine, w_fine) = (_contour_rule(float(eta), float(mu), n)
                                    for n in (_CONTOUR_N, 3 * _CONTOUR_N // 2))
    total = np.empty_like(z)
    err = np.empty_like(z)
    for lo in range(0, z.size, _CONTOUR_CHUNK):
        part = slice(lo, lo + _CONTOUR_CHUNK)
        rough = (w_n[:, None] / (s_n[:, None] - z[part])).imag.sum(axis=0)
        terms = (w_fine[:, None] / (s_fine[:, None] - z[part])).imag
        total[part] = terms.sum(axis=0)
        err[part] = np.abs(rough - total[part]) + _EPS * np.abs(terms).sum(axis=0)
    return total, err / np.maximum(np.abs(total), 1e-300)


def _kummer_f64(eta, mu, z):
    """E_{1,mu}(z) = e^z/Gamma(mu) * sum_k (mu-1)/(mu-1+k) (-z)^k/k!, mu > 0.

    Kummer's transformation of 1F1(1; mu; z).  For z <= 0 every term past
    k = 0 has the sign of mu - 1, so the sum cancels only where E itself
    crosses zero (mu < 1), which the estimate reports.  Term k carries about
    k roundings from the recurrence; the estimate weights it accordingly.
    Past |z| ~ 709 the sum overflows; those points come back uncertified.
    """
    x = -z
    power = np.ones_like(x)
    total = np.ones_like(x)
    weighted = np.ones_like(x)
    tiny_prev = np.zeros(x.shape, dtype=bool)
    converged = np.zeros(x.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, _KUMMER_CAP):
            power = power * x / k
            term = (mu - 1.0) / (mu - 1.0 + k) * power
            total += term
            weighted += (k + 2.0) * np.abs(term)
            tiny = np.abs(term) <= 0.25 * _EPS * np.abs(total)
            converged |= tiny & tiny_prev
            tiny_prev = tiny
            if np.all(converged | ~np.isfinite(total)):
                break
        est = _EPS * weighted / np.maximum(np.abs(total), 1e-300)
        value = np.exp(z) * rgamma(mu) * total
    est = np.where(converged & np.isfinite(total), est + 4.0 * _EPS, np.inf)
    return value, est


def _mp_series(eta: float, mu: float, z: float, rtol: float) -> float:
    """Extended-precision series for one point no float64 route certifies.

    The first precision covers the largest term as if |E| were about 1; the
    sum is redone with more digits while the largest term it met, measured
    against the sum, says that the cancellation needs them (E is ~1e-19 at
    eta = 1, mu next to 1, z = -750).
    """
    import mpmath

    absz = abs(z)
    kstar = (absz ** (1.0 / eta) / eta if absz > 1.0 else 0.0) + 10.0
    if kstar > 2e5:
        raise NumericalError(
            f"mittag-leffler series needs ~{kstar:.3g} terms at "
            f"eta={eta:g}, z={z:g}; no convergent evaluation path"
        )
    log10_max = (kstar * math.log(max(absz, 1.0))
                 - float(gammaln(eta * kstar + mu))) / math.log(10.0)
    guard = 15.0 - math.log10(rtol)
    dps = need = int(max(30.0, log10_max + guard))
    while dps <= 3000:
        with mpmath.workdps(dps):
            # Gamma argument must be formed in working precision: forming
            # eta*k+mu in float64 drifts by k*ulp(eta), which the huge
            # cancelling terms amplify into O(1) errors of the sum
            eta_mp, mu_mp, zz = mpmath.mpf(eta), mpmath.mpf(mu), mpmath.mpf(z)
            total = largest = mpmath.mpf(0)
            power = mpmath.mpf(1)
            term_stop = mpmath.mpf(10) ** (-dps)
            tiny = 0
            for k in range(500000):
                term = power / mpmath.gamma(eta_mp * k + mu_mp)
                total += term
                largest = max(largest, abs(term))
                tiny = tiny + 1 if abs(term) <= term_stop * (abs(total) + term_stop) else 0
                if tiny >= 3:
                    break
                power *= zz
            else:
                raise NumericalError("extended-precision series did not converge")
            need = float(mpmath.log10(largest) - mpmath.log10(abs(total))) + guard
        if need <= dps:
            return float(total)
        dps = math.ceil(min(need, 3001.0))
    raise NumericalError(
        f"extended-precision series would need ~{need:.0f} digits at "
        f"eta={eta:g}, mu={mu:g}, z={z:g}")


def ml_neg(eta: float, mu: float, z, rtol: float = 1e-12):
    """E_{eta,mu}(z) for arrays of z <= 0, without the public envelope check.

    Internal workhorse: callers that need parameters outside the validated
    public envelope (e.g. large mu in series identities, or z below -1e4
    where the expansion only gets better) come through here.  ``rtol`` is the
    relative error a float64 route must certify before the point falls
    through to the next route; kernel builders pass 1e-10.  mu <= 0 raises
    DomainError: every internal caller has mu >= eta.
    """
    eta = float(eta)
    mu = float(mu)
    if not 0.0 < eta <= 1.0:
        raise DomainError(f"ml_neg supports 0 < eta <= 1, got {eta}")
    z_arr = np.asarray(z, dtype=float)
    scalar = z_arr.ndim == 0
    z_arr = np.atleast_1d(z_arr)
    if not (math.isfinite(mu) and np.all(np.isfinite(z_arr))):
        raise DomainError(f"ml_neg needs finite mu and z, got mu={mu}")
    if not mu > 0.0:
        raise DomainError(f"ml_neg supports mu > 0, got {mu}")
    if np.any(z_arr > 0.0):
        raise DomainError("ml_neg requires z <= 0")
    out = np.empty_like(z_arr)

    if eta == 1.0 and mu == 1.0:
        out[:] = np.exp(z_arr)
        return float(out[0]) if scalar else out

    zero = z_arr == 0.0
    out[zero] = rgamma(mu)
    todo = ~zero
    if np.any(todo):
        zv = z_arr[todo]
        vals = np.empty_like(zv)
        done = np.zeros(zv.shape, dtype=bool)

        def attempt(route, idx):
            if idx.size:
                v, e = route(eta, mu, zv[idx])
                ok = e <= rtol
                vals[idx[ok]] = v[ok]
                done[idx[ok]] = True

        attempt(_asymp_f64, np.flatnonzero(np.abs(zv) >= 4.0))
        attempt(_kummer_f64 if eta == 1.0 else _contour_f64, np.flatnonzero(~done))
        for i in np.flatnonzero(~done):
            vals[i] = _mp_series(eta, mu, float(zv[i]), rtol)
        out[todo] = vals
    return float(out[0]) if scalar else out


def ml_eval(eta: float, mu: float, z: float) -> float:
    """E_{eta,mu}(z) within the validated envelope.

    Guaranteed relative error <= 1e-10 for eta in [0.1, 1], mu in [0.1, 3]
    and z in [-1e4, 0]; anything outside raises UnsupportedRangeError rather
    than returning a silently degraded value.
    """
    eta = float(eta)
    mu = float(mu)
    z = float(z)
    if not all(map(math.isfinite, (eta, mu, z))):
        raise DomainError(f"ml_eval needs finite arguments, got {eta}, {mu}, {z}")
    if not eta > 0.0:
        raise DomainError(f"eta must be positive, got {eta}")
    if z > 0.0:
        raise DomainError(f"z must be <= 0, got {z}")
    if not (_ETA_RANGE[0] <= eta <= _ETA_RANGE[1]):
        raise UnsupportedRangeError(
            f"eta={eta:g} outside validated range {_ETA_RANGE}")
    if not (_MU_RANGE[0] <= mu <= _MU_RANGE[1]):
        raise UnsupportedRangeError(
            f"mu={mu:g} outside validated range {_MU_RANGE}")
    if z < _Z_MIN:
        raise UnsupportedRangeError(f"z={z:g} below validated minimum {_Z_MIN:g}")
    return float(ml_neg(eta, mu, z, rtol=1e-12))


def relaxation_kernel(eta: float, c: float, t):
    """t^{eta-1} * E_{eta,eta}(-c t^eta), the relaxation kernel of a damped
    fractional mode.

    Strictly positive for t > 0, with the integrable t^{eta-1} singularity
    at the origin.  For eta = 1 this is exactly exp(-c t).
    """
    eta = float(eta)
    c = float(c)
    if not 0.0 < eta <= 1.0:
        raise DomainError(f"relaxation_kernel needs 0 < eta <= 1, got {eta}")
    if c < 0.0:
        raise DomainError(f"damping must be >= 0, got {c}")
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    if np.any(t_arr <= 0.0):
        raise DomainError("relaxation_kernel requires t > 0")
    out = t_arr ** (eta - 1.0) * ml_neg(eta, eta, -c * t_arr ** eta, rtol=1e-12)
    return float(out[0]) if scalar else out
