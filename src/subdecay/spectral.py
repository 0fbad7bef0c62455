"""Exact eigenmode solution of the decoupled mixed-order system on (0, pi):

    u_t + A u = 0,     d^beta v + A v = u,    v(0) = 0,

with A = -d^2/dx^2 under Dirichlet walls, so the eigenpairs are
lambda_n = n^2, phi_n = sqrt(2/pi) sin(n x).  Mode n evolves as

    u_n(t) = e^{-n^2 t} (u0, phi_n),
    v_n(t) = (u0, phi_n) * int_0^t tau^{beta-1} E_{beta,beta}(-n^2 tau^beta)
                                   e^{-n^2 (t-tau)} dtau,

and for large t the slow component approaches the separated form

    v(t) ~ (A^{-3} u0) t^{-(1+beta)} / (-Gamma(-beta)),

with the next correction (A^{-4} u0) t^{-(2+beta)} / Gamma(-1-beta).  This
module is the independent oracle for that superlinear regime:
project_initial gives the coefficients (u0, phi_n), mode_convolution the
integral of v_n, and SpectralSolution, one datum's solution, the v
coefficients, their norm and the norm of the two-term expansion.

The mode convolution f(t) is the inverse Laplace transform of
F(s) = 1/((s^beta + lam)(s + lam)), analytic off the negative real axis.
mode_convolution sums it for all eigenvalues at once by the trapezoid rule
on the parabola s = 1.5 (1 + iu)^2 / t, cut at e^-36 (the nodes and weights
of frac_ode._bromwich_rule(n) over t); no Mittag-Leffler value enters.
Each mode takes one of two integrands, by lam * t:

* lam t <= 1: plain F.  The nodes have |s| >~ 1/t >= lam, so nothing
  cancels; the form below is near -1/lam^2 there (1.3e-4 relative error at
  lam = 1, beta = 1/2, t = 1e-8; 0.12 at beta = 0.99).
* lam t > 1: F - 1/lam^2 (a delta at t = 0, so f(t > 0) is unchanged) as
  -(s^(beta+1) + lam (s^beta + s)) / (lam^2 (s^beta + lam)(s + lam)).
  Plain F is near 1/lam^2 at nodes |s| << lam, far above f (5e-7 relative
  error at lam = 4096, t = 1e4, beta = 0.99).

The estimate |I_43 - I_64| + eps sum |terms| (43 against 64 nodes, plus
rounding) raises QuadratureError past frac_ode's _BROMWICH_RTOL, as does a
sum that overflows float64 or falls below its smallest normal number
(frac_ode._bromwich_sum).  Against
40-digit Talbot inversion (beta 0.05-0.99, lam 1-4096, t 1e-8-1e4) the
worst error is 5e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .frac_ode import _bromwich_sum
from .mittag_leffler import _rgamma

# trapezoid cells of the initial-datum projection on (0, pi)
_N_QUAD = 16384


def project_initial(u0, n_modes: int) -> np.ndarray:
    """Coefficients (u0, phi_n) by composite trapezoid on a fine grid, all at
    once: with x_j = j pi / M, sum_j w_j u0(x_j) sin(n x_j) is minus the
    imaginary part of bin n of the length-2M real FFT of w_j u0(x_j)."""
    if not 1 <= n_modes <= _N_QUAD:
        raise DomainError(f"n_modes must lie in [1, {_N_QUAD}], got {n_modes}")
    x = np.linspace(0.0, math.pi, _N_QUAD + 1)
    vals = np.asarray(u0(x), dtype=float)
    if vals.shape not in ((), x.shape):
        raise DomainError(f"initial datum needs {_N_QUAD + 1} samples on [0, pi] "
                          f"(or one constant), got shape {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise DomainError("initial datum must be finite")
    weighted = vals * np.ones_like(x)
    weighted[[0, -1]] *= 0.5
    # huge finite data overflows here, and is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        spectrum = np.fft.rfft(weighted, 2 * _N_QUAD)
    coeffs = -math.sqrt(2.0 / math.pi) * (x[1] - x[0]) * spectrum.imag[1:n_modes + 1]
    if not np.all(np.isfinite(coeffs)):
        raise DomainError("mode coefficients must be finite")
    # trapezoid noise on exactly-orthogonal modes is pure rounding; zero it
    coeffs[np.abs(coeffs) < 1e-14 * np.max(np.abs(coeffs), initial=0.0)] = 0.0
    return coeffs


def mode_convolution(lam, beta: float, t: float):
    """int_0^t tau^{beta-1} E_{beta,beta}(-lam tau^beta) e^{-lam (t-tau)} dtau
    for a scalar or an array of eigenvalues lam >= 0, positive for t > 0.

    One contour sum over all modes (see the module docstring); lam = 0 is
    the closed form t^beta / Gamma(beta + 1).
    """
    if not (0.0 < beta < 1.0):
        raise DomainError(f"beta must lie in (0, 1), got {beta}")
    t = float(t)
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError(f"t must be finite and positive, got {t}")
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    if not np.all(np.isfinite(lams) & (lams >= 0.0)):
        raise DomainError(f"eigenvalues must be finite and >= 0, got {lam}")
    out = np.full(lams.shape, t ** beta / math.gamma(beta + 1.0))
    pos = lams > 0.0
    lp = lams[pos]
    plain = lp * t <= 1.0

    def terms_at(s1, w):
        s = s1[:, None] / t
        sb = s ** beta
        num = np.where(plain, lp * lp, -(sb * s + lp * (sb + s)))
        return (w[:, None] * num / (lp * lp * (sb + lp) * (s + lp))).imag / t

    out[pos] = _bromwich_sum(terms_at, lambda i: f"of mode lam={lp[i[0]]:g} at t={t:g}")
    return float(out[0]) if np.ndim(lam) == 0 else out


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of v, taken on v scaled by the power of two of max|v|,
    so that no square underflows; the scaling is exact, and the norm is
    np.linalg.norm(v) wherever no square would."""
    _, e = math.frexp(np.max(np.abs(v)))
    return math.ldexp(float(np.linalg.norm(np.ldexp(v, -e))), e)


@dataclass(frozen=True)
class SpectralSolution:
    """Eigenmode solution of the decoupled system for the initial datum u0 (a
    callable of x): its n_modes coefficients u0_coeffs, projected and checked
    once, at construction, and read-only, and the v coefficients and norms."""

    beta: float
    u0: object
    n_modes: int = 64
    u0_coeffs: np.ndarray = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.beta < 1.0):
            raise DomainError(f"beta must lie in (0, 1), got {self.beta}")
        coeffs = project_initial(self.u0, self.n_modes)
        coeffs.flags.writeable = False
        object.__setattr__(self, "u0_coeffs", coeffs)

    def v_coeffs(self, t: float) -> np.ndarray:
        """v_n(t) = (u0, phi_n) times the mode convolution of lambda_n = n^2,
        one mode_convolution call over the nonzero coefficients."""
        nz = np.flatnonzero(self.u0_coeffs)
        v = np.zeros(self.n_modes)
        v[nz] = self.u0_coeffs[nz] * mode_convolution((nz + 1.0) ** 2, self.beta, t)
        return v

    def v_norm(self, t: float) -> float:
        return _norm(self.v_coeffs(t))

    def v_norm_asymptotic(self, t: float) -> float:
        """Norm of the two-term large-time expansion of the v coefficients:

        v_n ~ (u0,phi_n)/lam^3 * t^{-(1+beta)}/(-Gamma(-beta))
            + (u0,phi_n)/lam^4 * t^{-(2+beta)}/Gamma(-1-beta).

        The t^{-(1+beta)} coefficients (u0,phi_n)/lam_n^3 are the modes of the
        limit pattern (the triple inverse of the elliptic operator applied to
        the fast component's initial data).
        """
        if not (math.isfinite(t) and t >= 10.0):
            raise DomainError(f"asymptotic form is for finite t >= 10, got {t}")
        lam = np.arange(1, self.n_modes + 1, dtype=float) ** 2
        coeffs, beta = self.u0_coeffs, self.beta
        lead = coeffs / lam ** 3 * t ** (-(1.0 + beta)) * -_rgamma(-beta)
        nxt = coeffs / lam ** 4 * t ** (-(2.0 + beta)) * _rgamma(-1.0 - beta)
        return _norm(lead + nxt)
