"""Closed forms of the paper's Laplace-transform algebra, which the tests hold
to direct arithmetic: the cut's q and imaginary parts, the Q-integral and the
R-series rearrangement."""

import math

import numpy as np

from subdecay.mittag_leffler import ml_neg


def _cut_parts(sym, ra, rb):
    """Re q, Im q, Im(e^{i alpha pi} conj(q)) and Im(p conj(q)) on the upper
    side of the cut, s = r e^{i pi}, from ra = r^alpha and rb = r^beta."""
    a, b, c1, c2 = sym.alpha, sym.beta, sym.c1, sym.c2
    sin_a, sin_b, sin_amb = (math.sin(x * math.pi) for x in (a, b, a - b))
    gap = c1 * c1 - c2 * c2
    rab = ra * rb
    re = (ra * math.cos(a * math.pi) + rb * math.cos(b * math.pi)) * c1 + gap \
        + rab * math.cos((a + b) * math.pi)
    im = (ra * sin_a + rb * sin_b) * c1 + rab * math.sin((a + b) * math.pi)
    im_exp = c1 * rb * sin_amb + gap * sin_a - rab * sin_b
    im_p = ((c1 * c1 * sin_amb + gap * math.sin((a + b) * math.pi)) * rb
            + c1 * gap * sin_a + c1 * sin_a * rb * rb)
    return re, im, im_exp, im_p


def q_of_r(sym, r):
    """Denominator D of the LaplaceSymbol sym along the upper side of the
    cut, s = r e^{i pi}, in the closed form grouping real and imaginary parts."""
    r = np.asarray(r, dtype=float)
    re, im, _, _ = _cut_parts(sym, r ** sym.alpha, r ** sym.beta)
    out = re + 1j * im
    return complex(out) if out.ndim == 0 else out


def im_parts(sym, r):
    """Closed forms of Im(e^{i alpha pi} conj(q)) and Im(p conj(q)): over |q|^2,
    the cut densities n(r) of V/c2 (n = im_exp) and of U (n = im_p), each
    (1/pi) int_0^inf e^{-rt} r^{alpha-1} n(r)/|q(r)|^2 dr."""
    r = np.asarray(r, dtype=float)
    _, _, im_exp, im_p = _cut_parts(sym, r ** sym.alpha, r ** sym.beta)
    if im_exp.ndim == 0:
        return float(im_exp), float(im_p)
    return im_exp, im_p


def q_integral(t: float, j: int, k: int, beta: float) -> float:
    """Closed form t^{beta(j+1)+k-j} / Gamma(beta j + k - j + beta + 1) of the
    Beta-function integral int_0^t tau^{beta(j+1)-1} (t-tau)^{k-j}
    / (Gamma(beta j + beta) Gamma(k-j+1)) dtau, for t > 0, 0 <= j <= k."""
    return t ** (beta * (j + 1) + k - j) / math.gamma(beta * j + k - j + beta + 1.0)


def r_series_identity(lam: float, beta: float, t: float, k_max: int = 25):
    """Both sides of the double-series rearrangement:

    lhs = sum_{k<=k_max} (-lam)^k sum_{j<=k} t^{beta j + (k-j)}
          / Gamma(beta j + (k-j) + beta + 1),
    rhs = sum_{k<=k_max} (-lam t^beta)^k E_{1, beta(k+1)+1}(-lam t).

    Both converge fast in float for lam >= 0, t > 0 and lam * t <= 5.
    """
    log_t = math.log(t)
    log_lam = math.log(lam) if lam > 0.0 else -math.inf
    lhs = 0.0
    for k in range(k_max + 1):
        inner = 0.0
        for j in range(k + 1):
            # exp/lgamma form: plain Gamma overflows beyond argument ~171
            inner += math.exp((beta * j + (k - j)) * log_t
                              - math.lgamma(beta * j + (k - j) + beta + 1.0))
        sign = -1.0 if k % 2 else 1.0
        lhs += sign * math.exp(k * log_lam) * inner if lam > 0.0 else (inner if k == 0 else 0.0)
    rhs = 0.0
    for k in range(k_max + 1):
        mu = beta * (k + 1) + 1.0
        sign = -1.0 if k % 2 else 1.0
        coeff = sign * math.exp(k * (log_lam + beta * log_t)) if lam > 0.0 else (1.0 if k == 0 else 0.0)
        if coeff == 0.0:
            continue
        rhs += coeff * float(ml_neg(1.0, mu, -lam * t))
    return lhs, rhs
