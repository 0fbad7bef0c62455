"""Two-parameter Mittag-Leffler function E_{eta,mu}(z) on the negative real
axis.

E_{eta,mu}(z) = sum_k z^k / Gamma(eta*k + mu).  Everything downstream
(relaxation kernels, Picard iterations, spectral solutions) reduces to this
function evaluated at z <= 0, so the evaluator aims at ~1e-12 relative
accuracy and refuses to return silently degraded values.

Evaluation routes for mu > 0; each float64 route is vectorised and gated by
an a-posteriori relative error estimate:

* the algebraic expansion -sum_{k>=1} z^{-k}/Gamma(mu - eta*k), for
  |z| >= 4, truncated at its smallest term (1/Gamma at a pole contributes
  exactly 0; every weight next to a pole comes from the reflection on the
  exact distance, so an argument one ulp from a pole keeps its tiny term);
  it forms each weight from math.gamma when some point reaches its term;
* the one route of each order: for 0 < eta < 1 the trapezoid rule on a
  parabolic Bromwich contour (Weideman & Trefethen, Math. Comp. 76 (2007);
  Garrappa, SIAM J. Numer. Anal. 53 (2015)), for eta = 1 the
  Kummer-transformed series; E_{1,1} short-circuits to exp;
* an extended-precision series (mpmath) for what no float64 route
  certifies: points next to a zero of E (mu < eta, or mu < 1 at eta = 1);
  at rtol = 1e-12, mu = eta >= 0.98 with 14 <= |z| <= 38; and eta = mu one
  ulp below 1 with about 10 <= |z| <= 74, where e^z is as large as the
  algebraic part, so that neither the contour nor the expansion certifies.

The expansion goes first only where its a-priori error floor (_asymp_floor)
is below _ASYMP_MARGIN * rtol, where it certifies with an error near that
floor; every other point tries the contour (Kummer) first and the expansion
after it.  So the expansion is seldom tried where it cannot certify, and
near its switch the contour's value, at rounding level, wins over one just
inside rtol.  The contour runs in blocks of _CONTOUR_CHUNK points, so that
its two (70, 512) node-by-point arrays, 0.29 MB each, stay in L2 cache.

Gamma comes from the math module (_rgamma, math.lgamma), so the module
needs numpy only and a cold command that evaluates E loads no scipy.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericalError, UnsupportedRangeError

_EPS = float(np.finfo(float).eps)
_KUMMER_CAP = 2000
_ASYMP_CAP = 400
_CONTOUR_N = 28
_CONTOUR_CHUNK = 512
_ASYMP_MARGIN = 1e-3
# validated accuracy envelope of the public evaluator
_ETA_RANGE = (0.1, 1.0)
_MU_RANGE = (0.1, 3.0)
_Z_MIN = -1.0e4


def _rgamma(x: float) -> float:
    """1/Gamma(x) for one finite float, on math.gamma: 0 at the poles
    0, -1, -2, ... and past x ~ 171.6, where Gamma overflows; x itself where
    Gamma overflows next to 0 (1/Gamma(x) = x + 0.577 x^2 + ...); and inf,
    signed as Gamma is, where Gamma underflows below x ~ -171.6."""
    if x <= 0.0 and float(x).is_integer():
        return 0.0
    try:
        g = math.gamma(x)
    except OverflowError:
        return x if abs(x) < 1.0 else 0.0
    return 1.0 / g if g != 0.0 else math.copysign(math.inf, g)


def _asymp_weight(eta: float, mu: float, k: int) -> float:
    """1/Gamma(mu - eta*k), the weight of term k >= 1 of the expansion.

    The argument is split exactly into n + delta, n the nearest integer:
    from the integer ratios of mu and eta, delta is one correctly rounded
    int / int division, so it keeps full relative accuracy however close the
    argument is to a pole.  For n <= 0 the weight is the reflection
    (-1)^n sin(pi delta) Gamma(1 - n - delta) / pi, zero only at a pole
    (delta = 0), and inf once Gamma overflows.
    """
    p, q = mu.as_integer_ratio()
    r, s = eta.as_integer_ratio()
    num, den = p * s - k * r * q, q * s
    n = round(num / den)
    delta = (num - n * den) / den
    if n > 0 or delta == 0.0:
        return _rgamma(n + delta)
    try:
        return (-1.0) ** n * (math.sin(math.pi * delta) / math.pi) * math.gamma(1.0 - n - delta)
    except OverflowError:
        return math.inf


def _asymp_f64(eta, mu, z):
    """Vectorized large-|z| expansion with per-point optimal truncation, z < 0.

    Sums -z^{-k}/Gamma(mu-eta*k) while the (nonzero) term magnitudes shrink,
    freezing each point once they clearly grow again or fall below rounding
    level; the smallest term seen is the error estimate.  A term next to a
    Gamma pole is small however far the tail reaches, so each term counts
    as the larger of itself and the previous nonzero term, and the first
    nonzero term, which has none, counts as no estimate.  Frozen points leave
    the working arrays, so each point pays for its own terms only, and weight
    k is formed only once some point reaches term k.  The sum stops at
    _ASYMP_CAP terms or at the first non-finite weight.  If the nonzero
    weights run out before any growth (possible only for eta == 1 with
    integer mu, where the expansion terminates after round(mu) - 1 terms),
    truncation is exact up to the exponentially small part, which is added
    to the estimate whenever eta > 2/3.
    """
    eta, mu = float(eta), float(mu)
    terminates = eta == 1.0 and mu == round(mu)
    n_terms = min(round(mu) - 1, _ASYMP_CAP) if terminates else _ASYMP_CAP

    total = np.zeros_like(z)
    best = np.full(z.shape, np.inf)
    # working arrays of the points still summing: partial sums, smallest terms
    live = np.arange(z.size)
    zinv = 1.0 / z
    power = np.ones_like(z)
    part = np.zeros_like(z)
    low = np.full(z.shape, np.inf)
    prev = np.full(z.shape, np.inf)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for k in range(1, n_terms + 1):
            weight = _asymp_weight(eta, mu, k)
            if not math.isfinite(weight):
                break
            power *= zinv
            if weight == 0.0:
                continue
            a = power * -weight
            mag = np.abs(a)
            size = np.maximum(mag, prev)
            prev = mag
            grew = size > 2.0 * low
            np.add(part, a, out=part, where=~grew)
            # a point that grew has size > low, so fmin keeps its low
            np.fmin(low, size, out=low)
            stop = size <= 0.25 * _EPS * np.abs(part)
            stop |= grew
            if stop.any():
                total[live[stop]] = part[stop]
                best[live[stop]] = low[stop]
                keep = ~stop
                live, zinv, power, part, low, prev = (
                    v[keep] for v in (live, zinv, power, part, low, prev))
                if not live.size:
                    break
    total[live] = part
    # ran out of nonzero weights without growth: at eta = 1 the expansion terminated
    best[live] = 0.0 if eta == 1.0 else low
    scale = np.maximum(np.abs(total), 1e-300)
    est = np.where(np.isfinite(best), best, np.inf) / scale * 3.0
    if eta > 2.0 / 3.0:
        est = est + _exp_part(eta, mu, np.abs(z) ** (1.0 / eta)) / scale
    return total, est


def _exp_part(eta, mu, r):
    """(2/eta) r^(1-mu) e^(r cos(pi/eta)), r = |z|^(1/eta): the exponentials
    (1/eta) s^(1-mu) e^s at s = r e^(+-i pi/eta), which survive on the
    negative axis for eta > 2/3 (e^z z^(1-mu) at eta = 1); exponentially
    small, but not below the smallest algebraic term."""
    with np.errstate(divide="ignore", under="ignore", over="ignore"):
        return 2.0 / eta * r ** (1.0 - mu) * np.exp(
            np.maximum(r * math.cos(math.pi / eta), -700.0))


def _asymp_floor(eta, mu, z):
    """A-priori relative error floor of the expansion at z < 0: with
    r = |z|^(1/eta), its smallest term r^(1/2-mu) e^(-r) (Stirling at
    k ~ r/eta), plus _exp_part for eta > 2/3, against its first nonzero term,
    which is the value's size for large |z|."""
    eta, mu = float(eta), float(mu)
    # mu - eta > -1, so weight 1 is on a pole only at mu = eta, and weight 2
    # then only at eta = mu = 1, which ml_neg answers with exp before this
    k = 2 if mu == eta else 1
    weight = _asymp_weight(eta, mu, k)
    with np.errstate(divide="ignore", under="ignore", over="ignore", invalid="ignore"):
        r = np.abs(z) ** (1.0 / eta)
        floor = r ** (0.5 - mu) * np.exp(-r)
        if eta > 2.0 / 3.0:
            floor = floor + _exp_part(eta, mu, r)
        return floor * np.abs(z) ** k / abs(weight)


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
    rounding bound eps * sum |terms|, both relative.  For real z each term
    is real arithmetic, Im(w/(S - z)) = (Im w (Re S - z) - Re w Im S) /
    ((Re S - z)^2 + (Im S)^2) with S = s^eta, on both rules' nodes at once,
    in blocks of _CONTOUR_CHUNK points that keep the node-by-point arrays
    in cache.  numpy sums a block node by node, but a lone column pairwise,
    so a lone point goes in paired with itself: a value never depends on
    the batch it came in.
    """
    rules = [_contour_rule(float(eta), float(mu), n) for n in (_CONTOUR_N, 3 * _CONTOUR_N // 2)]
    split = rules[0][0].size
    S, w = (np.concatenate(parts) for parts in zip(*rules))
    s_re, s_im2, w_im, w_re_s_im = (v[:, None] for v in
                                    (S.real, S.imag ** 2, w.imag, w.real * S.imag))
    total = np.empty_like(z)
    err = np.empty_like(z)
    for lo in range(0, z.size, _CONTOUR_CHUNK):
        zc = z[lo:lo + _CONTOUR_CHUNK]
        m = zc.size
        if m == 1:
            zc = np.repeat(zc, 2)
        gap = s_re - zc
        terms = w_im * gap
        terms -= w_re_s_im
        gap *= gap
        gap += s_im2
        terms /= gap
        fine = terms[split:]
        value = fine.sum(axis=0)
        total[lo:lo + m] = value[:m]
        err[lo:lo + m] = (np.abs(terms[:split].sum(axis=0) - value)
                          + _EPS * np.abs(fine).sum(axis=0))[:m]
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
        value = np.exp(z) * _rgamma(mu) * total
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
                 - math.lgamma(eta * kstar + mu)) / math.log(10.0)
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
    public envelope (e.g. z below -1e4, where the expansion only gets
    better) come through here.  ``rtol`` is the
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
    out[zero] = _rgamma(mu)
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

        # the expansion goes first only where its a-priori floor is well
        # inside rtol; elsewhere it only picks up what the other route misses
        reach = np.abs(zv) >= 4.0
        first = reach & (_asymp_floor(eta, mu, zv) <= _ASYMP_MARGIN * rtol)
        attempt(_asymp_f64, np.flatnonzero(first))
        attempt(_kummer_f64 if eta == 1.0 else _contour_f64, np.flatnonzero(~done))
        attempt(_asymp_f64, np.flatnonzero(reach & ~first & ~done))
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

