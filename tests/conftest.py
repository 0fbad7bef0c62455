"""Shared test oracles, all independent of the library's evaluation paths."""

import math
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln


def ml_series_reference(eta: float, mu: float, z: float) -> float:
    """Extended-precision truncated power series for E_{eta,mu}(z), z <= 0.

    Working precision is chosen from the largest-term estimate so the
    alternating cancellation is fully resolved; the Gamma argument is formed
    in working precision (a float64 argument drifts by k*ulp(eta), which the
    huge terms amplify).
    """
    absz = abs(z)
    kstar = absz ** (1.0 / eta) / eta + 10.0
    if kstar > 250000:
        raise ValueError("series reference impractical at these parameters")
    dps = int(max(40.0, (kstar * math.log(max(absz, 1.0))
                         - float(gammaln(eta * kstar + mu))) / math.log(10.0) + 40.0))
    with mpmath.workdps(dps):
        e_mp, m_mp, zz = mpmath.mpf(eta), mpmath.mpf(mu), mpmath.mpf(z)
        total = mpmath.mpf(0)
        power = mpmath.mpf(1)
        stop = mpmath.mpf(10) ** (-dps + 6)
        tiny = 0
        k = 0
        while True:
            term = power / mpmath.gamma(e_mp * k + m_mp)
            total += term
            if abs(term) <= stop * abs(total) + mpmath.mpf(10) ** (-dps - 10):
                tiny += 1
                if tiny >= 3:
                    break
            else:
                tiny = 0
            k += 1
            power *= zz
            if k > 300000:
                raise ValueError("reference series did not converge")
        return float(total)


def ml_integral_reference(eta: float, x: float, second: bool = False) -> float:
    """Completely monotone integral representations, for 0 < eta < 1, x > 0:

    E_{eta,1}(-x)   = (x sin(eta pi)/pi) *
                      int_0^inf e^{-r} r^{eta-1} / d(r) dr,
    E_{eta,eta}(-x) = (sin(eta pi)/pi) *
                      int_0^inf e^{-r} r^{eta}   / d(r) dr,

    with d(r) = r^{2 eta} + 2 x r^eta cos(eta pi) + x^2.  Entirely
    independent of any series evaluation.
    """
    if not (0.0 < eta < 1.0 and x > 0.0):
        raise ValueError("integral representation needs 0 < eta < 1, x > 0")
    with mpmath.workdps(40):
        ee = mpmath.mpf(eta)
        xx = mpmath.mpf(x)
        s = mpmath.sin(ee * mpmath.pi)

        def f(r):
            d = r ** (2 * ee) + 2 * xx * r ** ee * mpmath.cos(ee * mpmath.pi) + xx ** 2
            p = r ** ee if second else r ** (ee - 1)
            return mpmath.e ** (-r) * p / d

        val = mpmath.quad(f, [0, 1, mpmath.inf])
        pref = s / mpmath.pi if second else xx * s / mpmath.pi
        return float(pref * val)


@lru_cache(maxsize=64)
def l1_weights_reference(gamma: float, n: int):
    """L1 weights b^j = (j+1)^{1-gamma} - j^{1-gamma}, j = 0..n, and their
    differences d_m = b^m - b^{m+1}, m = 0..n-1, formed in 40-digit
    arithmetic (float64 differences of b lose digits at large m)."""
    with mpmath.workdps(40):
        g = 1 - mpmath.mpf(gamma)
        p = [mpmath.mpf(j) ** g if j else mpmath.mpf(0) for j in range(n + 2)]
        b = [p[j + 1] - p[j] for j in range(n + 1)]
        d = [b[m] - b[m + 1] for m in range(n)]
        return (np.array([float(v) for v in b]), np.array([float(v) for v in d]))


def l1_history_direct(gamma: float, levels: np.ndarray, n: int) -> np.ndarray:
    """The L1 memory of step n -> n+1 summed directly over every level:
    b^n u^0 + sum_{m=0}^{n-1} d_m u^{n-m}, for levels[j] = u^j (any trailing
    shape).  O(n) per call, the oracle for the stepper's exponential sum."""
    b, d = l1_weights_reference(float(gamma), levels.shape[0] - 1)
    levels = np.asarray(levels, dtype=float)
    return b[n] * levels[0] + np.tensordot(d[:n], levels[n:0:-1], axes=1)


def branch_cut_quad_reference(sym, t: float, numerator: str) -> float:
    """(1/pi) int_0^{45/t} e^{-rt} r^{alpha-1} n(r)/|q(r)|^2 dr by scalar
    QUADPACK (the algebraic-weight rule qawse, epsrel 1e-11), n = im_p for
    numerator "p" and n = im_exp for "exp": the oracle for the vectorised
    cut quadrature, with the same error and tail checks.  The closed forms
    q_of_r and im_parts are held to complex arithmetic in test_frac_ode."""
    from subdecay.frac_ode import im_parts, q_of_r

    pick = 1 if numerator == "p" else 0
    A = 45.0 / t

    def f(r):
        return math.exp(-r * t) * im_parts(sym, r)[pick] / abs(q_of_r(sym, r)) ** 2

    val, err = quad(f, 0.0, A, weight="alg", wvar=(sym.alpha - 1.0, 0.0),
                    epsabs=1e-300, epsrel=1e-11, limit=400)
    scale = max(abs(val), 1e-280)
    if err > 1e-8 * scale:
        val, err = quad(f, 0.0, A, weight="alg", wvar=(sym.alpha - 1.0, 0.0),
                        epsabs=1e-13 * scale, epsrel=1e-11, limit=800)
        if err > 1e-8 * max(abs(val), 1e-280):
            raise ValueError(f"reference quadrature error {err:.3e} at t={t:g}")
    tail = abs(f(A)) * math.gamma(sym.alpha) * max(A, 1.0) ** (sym.alpha - 1.0) / t
    if tail > 1e-9 * scale:
        raise ValueError(f"reference tail bound {tail:.3e} not negligible")
    return val / math.pi


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
