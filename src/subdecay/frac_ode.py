"""Coupled two-component fractional relaxation system, solved two independent
ways: a direct solve of the discretized Volterra integral form, and Laplace
inversion of the symbols for the special constant system (initial data
(1, 0), symmetric damping/coupling).

The system is

    d^alpha(U - a) + eta1*U - mu1*V = 0,
    d^beta (V - b) + eta2*V - mu2*U = 0      on t > 0,

with Caputo derivatives of orders 1 >= alpha >= beta > 0.  Its integral form

    U = a E_alpha(-eta1 t^alpha) + mu1 k_alpha * V,
    V = b E_beta (-eta2 t^beta)  + mu2 k_beta  * U,

convolves the relaxation kernel k_eta(t) = t^{eta-1} E_{eta,eta}(-c t^eta)
against the other component (kernel cell 0 in closed form, each later cell
on one 12-node Gauss panel shared by all its moments).  The kernel's moments
and the datum E_eta(-c t^eta) each come from one Chebyshev table, and a zero
datum or coupling costs no Mittag-Leffler table: its term is exactly zero.
The discrete map is linear, lower-triangular Toeplitz past its first step,
so one power-series reciprocal solves it, and one Picard sweep of the map
certifies the result.

The Laplace route writes

    U^(s) = s^{alpha-1}(s^beta+c1) / D(s),   V^(s) = c2 s^{alpha-1} / D(s),
    D(s)  = (s^alpha+c1)(s^beta+c1) - c2^2,

whose only singularity is the branch cut, because D has no zero in the cut
plane: for 0 < arg s = theta < pi the factors s^alpha + c1 and s^beta + c1
have arguments in (0, alpha theta) and (0, beta theta), so their product has
argument in (0, 2 pi) and is never the positive real c2^2; on the positive
axis the product is at least c1^2 > c2^2, and conjugation covers theta < 0.
With no residues, the inverse is one fixed trapezoid sum of the symbols on a
parabola around the cut, for all times at once (see branch_cut_invert).
The two solvers share nothing numerically, which is exactly why the
cross-check between them is trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, QuadratureError
from .mittag_leffler import _rgamma, ml_neg

# the fewest steps picard_solve takes
_MIN_STEPS = 16


# ---------------------------------------------------------------------------
# The discrete integral form, solved directly (picard_solve)


@dataclass(frozen=True)
class OdeSpec:
    """Coefficients of the coupled fractional ODE system.  Nonnegative data
    (a, b and the coefficients all >= 0) is what the maximum principle
    assumes.
    """

    alpha: float
    beta: float
    a: float
    b: float
    eta1: float
    eta2: float
    mu1: float
    mu2: float

    def __post_init__(self):
        if not (0.0 < self.beta <= self.alpha <= 1.0):
            raise DomainError(
                f"orders must satisfy 0 < beta <= alpha <= 1, got "
                f"alpha={self.alpha}, beta={self.beta}")
        bad = [name for name in ("a", "b", "eta1", "eta2", "mu1", "mu2")
               if not math.isfinite(getattr(self, name))]
        if bad:
            raise DomainError(f"{', '.join(bad)} must be finite")


@dataclass
class OdePath:
    """Sampled trajectory returned by picard_solve, with its certificate:
    residual = max(|U' - U|, |V' - V|) for one sweep (U', V') of the
    discrete map from (U, V)."""

    times: np.ndarray
    U: np.ndarray
    V: np.ndarray
    residual: float
    # picard_solve raises rather than return an uncertified path
    converged = True


@dataclass
class _KernelWeights:
    """Product-integration weights of one relaxation kernel on a uniform grid.

    A[j], B[j] are the hat moments over cell [t_j, t_{j+1}]; layer_corr[j] is
    the defect of the linear rule against a t^p front (the other component's
    singular layer exponent), applied at the moving end of the convolution.
    C[j] = A[j] + B[j-1] (C[0] = A[0]) is the one sequence that carries both
    hat moments (see _convolve_linear).
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    layer_corr: np.ndarray
    layer_exp: float
    h: float


# the one Gauss rule of every kernel cell past cell 0 (see _kernel_moments)
_CELL_X, _CELL_W = np.polynomial.legendre.leggauss(12)


def _decay_rate(eta: float, c: float) -> float:
    """lam = (-c cos eta pi)^{1/eta}, 0 for eta <= 1/2 or c <= 0.

    The kernel is a mixture of e^{-r tau} with weight proportional to
    1/|r^eta e^{i eta pi} + c|^2.  For eta > 1/2 that weight peaks at lam
    (lam = c at eta = 1, a pure exponential), and near the peak the kernel
    decays like e^{-lam tau} at any distance from the origin, which caps the
    blocks of _cheb_table.
    """
    return (-c * math.cos(math.pi * eta)) ** (1.0 / eta) if eta > 0.5 and c > 0.0 else 0.0


# Chebyshev tables (see _cheb_table): _CHEB_N first-kind points cos theta_j, their
# barycentric weights, and the DCT rows a_k = (2/N) sum_j f_j cos(k theta_j), k >= N-4
_CHEB_N, _CHEB_WIDTH, _CHEB_RTOL = 24, 64, 1e-10
_CHEB_THETA = np.pi * (np.arange(_CHEB_N) + 0.5) / _CHEB_N
_CHEB_X, _CHEB_BARY = np.cos(_CHEB_THETA), (-1.0) ** np.arange(_CHEB_N) * np.sin(_CHEB_THETA)
_CHEB_TAIL = np.cos(np.outer(np.arange(_CHEB_N - 4, _CHEB_N), _CHEB_THETA)) * (2.0 / _CHEB_N)


def _cheb_table(f, stop: int, rate: float, targets: int):
    """Chebyshev interpolant of f(s), s in steps, on cells 1..stop-1 (cell j
    spans [j, j+1]): row j-1 of values(offsets, weights) is
    sum_i f(j + offsets[i]) weights[i, :].

    Blocks of 2^k steps, none wider than its distance from 0 (its Bernstein
    ellipse avoids the branch point), _CHEB_WIDTH or 4 / rate (rate = decay
    per step), sample f at _CHEB_N points, all in one call; where that is no
    fewer points than the targets the table will serve, values calls f.  A
    block is kept when |a_20| + ... + |a_23| <= _CHEB_RTOL (min|f| + the
    smallest normal float, below which samples carry no relative accuracy)
    + 16 eps max|f| (rounding), and is halved and sampled again otherwise.
    Per block width, the weights fold into the barycentric matrix that maps
    the samples to the targets, so one matmul gives every sum of that width.
    """
    cap = _CHEB_WIDTH
    while cap > 1 and cap * rate > 4.0:
        cap //= 2
    starts = np.concatenate((1 << np.arange(cap.bit_length() - 1), np.arange(cap, stop, cap)))
    starts = starts[starts < stop]
    if _CHEB_N * starts.size >= targets:
        return lambda offsets, weights: f(np.arange(1, stop)[:, None] + offsets) @ weights
    widths, kept = np.minimum(starts, cap), []
    while starts.size:
        samples = f(starts[:, None] + 0.5 * widths[:, None] * (1.0 + _CHEB_X))
        mag = np.abs(samples)
        ok = (np.abs(samples @ _CHEB_TAIL.T).sum(axis=1)
              <= _CHEB_RTOL * (mag.min(axis=1) + np.finfo(float).tiny)
              + 16.0 * np.finfo(float).eps * mag.max(axis=1))
        if np.any(~ok & (widths == 1)):
            raise NumericalError(f"Chebyshev block unresolved at step {starts[~ok].min()}")
        kept.append((starts[ok], widths[ok], samples[ok]))
        half = widths[~ok] // 2
        starts = np.concatenate((starts[~ok], starts[~ok] + half))
        widths = np.concatenate((half, half))
    starts, widths, samples = (np.concatenate(parts) for parts in zip(*kept))

    def values(offsets: np.ndarray, weights: np.ndarray) -> np.ndarray:
        out = np.empty((stop + _CHEB_WIDTH, weights.shape[1]))
        for w in np.unique(widths):
            y = (2.0 / w) * (np.arange(w)[:, None] + offsets) - 1.0
            # bary[k, j, i] weighs sample k of a block at target i of its cell j
            bary = _CHEB_BARY[:, None, None] / (y - _CHEB_X[:, None, None])
            bary /= bary.sum(axis=0)
            fold = (bary.reshape(-1, offsets.size) @ weights).reshape(_CHEB_N, -1)
            sel = widths == w
            vals = samples[sel] @ fold
            out[(starts[sel, None] + np.arange(w)).ravel()] = vals.reshape(-1, out.shape[1])
        return out[1:stop]

    return values


def _kernel_moments(eta: float, c: float, times: np.ndarray,
                    layer_exp: float) -> _KernelWeights:
    """Moments of the kernel k(tau) = tau^{eta-1} E_{eta,eta}(-c tau^eta).

    A[j] = int_{t_j}^{t_{j+1}} k(tau) (t_{j+1}-tau)/h dtau and B[j] likewise
    with (tau-t_j)/h.  The first cell, which holds the tau^{eta-1}
    singularity, is closed form: the Riemann-Liouville integral
    K_p(t) = int_0^t k(tau) (t-tau)^p dtau = Gamma(p+1) t^{eta+p}
    E_{eta,eta+p+1}(-c t^eta) gives A[0] = K_1(h)/h, B[0] = K_0(h) - K_1(h)/h
    and M[0] = K_p(h).  Away from the origin the kernel is smooth, and each
    later cell integrates it on one 12-node Gauss panel, for A, B and M
    alike.  One Chebyshev table of the kernel (see _cheb_table), sampled in
    one ml_neg call at rtol 1e-10, returns all three moments of every cell.

    layer_exp is the power p of the convolved factor's initial layer
    (W ~ W(0) + c0 t^p); the extra moment M[j] = int k(tau) (t_{j+1}-tau)^p
    dtau feeds the end-cell correction that restores accuracy lost to linear
    interpolation of that layer.
    """
    h = times[1] - times[0]
    p = float(layer_exp)
    n_cells = times.size - 1

    def K(q):
        E = ml_neg(eta, eta + q + 1.0, -c * h ** eta, rtol=1e-11)
        return math.gamma(q + 1.0) * h ** (eta + q) * E

    K0, K1 = K(0.0), K(1.0)
    first = [K1 / h, K0 - K1 / h, K(p)]
    # on the panel tau = t_j + (h/2)(1 + x): the hat weights (t_{j+1} - tau)/h and
    # (tau - t_j)/h are (1 -+ x)/2, and t_{j+1} - tau = (h/2)(1 - x) is M's weight
    weights = 0.5 * h * np.column_stack((0.5 * _CELL_W * (1.0 - _CELL_X),
                                         0.5 * _CELL_W * (1.0 + _CELL_X),
                                         _end_weights(p, _CELL_X, _CELL_W) * (0.5 * h) ** p))
    table = _cheb_table(lambda s: (s * h) ** (eta - 1.0) * ml_neg(eta, eta, -c * (s * h) ** eta,
                                                                   rtol=1e-10),
                        n_cells, _decay_rate(eta, c) * h, (n_cells - 1) * _CELL_X.size)
    A, B, M = np.vstack((first, table(0.5 * (1.0 + _CELL_X), weights))).T.copy()
    C = A.copy()
    C[1:] += B[:-1]
    return _KernelWeights(A=A, B=B, C=C, layer_corr=M - h ** p * A, layer_exp=p, h=h)


def _fft_size(m: int) -> int:
    """Smallest 2^a 3^b 5^c >= m: numpy's FFT is slow at large prime factors.

    Walks the products 3^b 5^c below the best size so far and raises each by
    the fewest doublings that reach m.
    """
    best = 1 << max(m - 1, 0).bit_length()
    f5 = 1
    while f5 < best:
        f = f5
        while f < best:
            # f * 2^a >= m  <=>  2^a >= ceil(m / f)
            best = min(best, f << (-(-m // f) - 1).bit_length())
            f *= 3
        f5 *= 5
    return best


def _end_weights(p: float, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Interpolatory weights on the Gauss rule (nodes, weights) for
    int (1-x)^p f(x) dx over [-1, 1], from mu_k = int (1-x)^p P_k =
    (-1)^k 2^{p+1} Gamma(p+1)^2 / (Gamma(p+k+2) Gamma(p-k+1)); 1/Gamma is 0
    at the poles integer p meets."""
    k = np.arange(nodes.size)
    mu = np.array([(-1.0) ** j * 2.0 ** (p + 1.0) * math.gamma(p + 1.0) ** 2
                   * _rgamma(p + j + 2.0) * _rgamma(p - j + 1.0) for j in range(nodes.size)])
    legendre = np.polynomial.legendre.legvander(nodes, k[-1])
    return weights * (legendre @ ((k + 0.5) * mu))


def _mul(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """First k coefficients of the power series a(z) b(z), by a wrap-free FFT."""
    a, b = a[:k], b[:k]
    size = _fft_size(a.size + b.size - 1)
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:k]


def _edge(kw: _KernelWeights, w0: float, w1: float) -> np.ndarray:
    """The terms of _convolve_linear in W[0] and W[1]: entry i >= 1 is
    C[i-1] W[1] + B[i-1] W[0] + (W[1] - W[0]) h^-p layer_corr[i-1]."""
    c0 = (w1 - w0) / kw.h ** kw.layer_exp
    return np.append(0.0, w1 * kw.C + w0 * kw.B + c0 * kw.layer_corr)


def _convolve_linear(kw: _KernelWeights, W):
    """Convolution of the tabulated kernel against the piecewise-linear
    interpolant of samples W, with the end-cell layer correction; entry i
    approximates int_0^{t_i} k(tau) W(t_i - tau) dtau.

    The linear rule sum_{j<i} A[j] W[i-j] + B[j] W[i-1-j] is
    sum_{j<i} C[j] W[i-j] + B[i-1] W[0], and the moving-end cell adds
    c0 layer_corr[i-1] for the layer model W(s) ~ W(0) + c0 s^p.  Past the
    terms in W[0] and W[1] (see _edge), that is the product of the power
    series C and W[2:], shifted by two entries.
    """
    out = _edge(kw, W[0], W[1])
    out[2:] += _mul(kw.C, W[2:], W.size - 2)
    return out


def _reciprocal(D: np.ndarray, m: int) -> np.ndarray:
    """First m coefficients of 1/D(z) by Newton doubling, R <- R (2 - D R)
    (Brent & Kung, J. ACM 25 (1978) 581-595)."""
    R = np.array([1.0 / D[0]])
    while R.size < m:
        k = min(2 * R.size, m)
        E = -_mul(D, R, k)
        E[0] += 2.0
        R = _mul(R, E, k)
    return R


def _growth_root(P: np.ndarray) -> float:
    """Root z in (0, 1] of P(z) = 1 (1 if P(1) <= 1) for P(0) < 1 and
    P >= 0, by bisection on 32 points at once to a relative width of
    1/P.size, so that z^j follows the growth of 1/(1 - P) within a factor e."""
    if not P.sum() > 1.0:
        return 1.0
    k, lo, hi = np.arange(P.size), 0.0, 1.0
    while hi - lo > hi / P.size:
        z = np.linspace(lo, hi, 33)[1:]
        i = int(np.argmax(z[:, None] ** k @ P > 1.0))
        lo, hi = (z[i - 1] if i else lo), z[i]
    return hi


def _solve_coupled(spec: OdeSpec, U1, V1, kA: _KernelWeights, kB: _KernelWeights):
    """(U, V) = (U1 + mu1 K_A V, V1 + mu2 K_B U), solved directly.

    Entry 1 of K W holds only W[0] and W[1] (see _edge), so a 2x2 solve
    gives U[1] and V[1].  Past them, K acts on W[2:] as the power series
    C(z): with gU, gV the data and edge terms, x = U[2:] solves
    (1 - mu1 mu2 C_A C_B) x = gU + mu1 C_A gV by one power-series reciprocal
    (Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6 (1985)
    532-541) and one refinement step, which a negative mu1 mu2 can need to
    pass the certificate; V[2:] = gV + mu2 C_B x.  Entry j is weighted by
    z^j (see _growth_root), so a growing solution keeps its relative
    accuracy.  A first-cell coupling product of 1 or more, where sweeps
    diverge, raises.
    """
    mu1, mu2, m = spec.mu1, spec.mu2, U1.size - 2
    # U = gU + eA V[1] and V = gV + eB U[1]
    gU, eA = U1 + mu1 * _edge(kA, V1[0], 0.0), mu1 * _edge(kA, 0.0, 1.0)
    gV, eB = V1 + mu2 * _edge(kB, U1[0], 0.0), mu2 * _edge(kB, 0.0, 1.0)
    P = mu1 * mu2 * _mul(kA.C, kB.C, m)
    first = max(P[0], eA[1] * eB[1])
    if first >= 1.0:
        raise NumericalError(f"step too coarse for the coupling: first-cell product "
                             f"{first:.3g} >= 1")
    u1 = (gU[1] + eA[1] * gV[1]) / (1.0 - eA[1] * eB[1])
    gU += (gV[1] + eB[1] * u1) * eA
    gV += u1 * eB
    w = _growth_root(P) ** np.arange(m)
    D = -w * P
    D[0] += 1.0
    gV_w = w * gV[2:]
    rhs = w * gU[2:] + mu1 * _mul(w * kA.C[:m], gV_w, m)
    R = _reciprocal(D, m)
    x = _mul(R, rhs, m)
    x += _mul(R, rhs - _mul(D, x, m), m)
    gV[2:] = (gV_w + mu2 * _mul(w * kB.C[:m], x, m)) / w
    gU[2:] = x / w
    return gU, gV


def picard_solve(spec: OdeSpec, T: float, n_steps: int) -> OdePath:
    """Fixed point of the discrete Volterra map U = U1 + mu1 K_A V,
    V = V1 + mu2 K_B U on a uniform grid over [0, T].

    The map is solved directly (see _solve_coupled); with a kernel skipped it
    is triangular, and one sweep from V1 is exact.  A sweep updates U from V,
    then V from the new U.  One more sweep certifies the result: its change,
    OdePath.residual, must be at most 1e-12 max(1, |U|, |V|).  A failed
    certificate, a solution beyond the float64 range or a step too coarse
    for the coupling raises NumericalError.

    With nonnegative data the iterates of sweeps from the zero pair increase
    monotonically to the solution: the discrete convolutions K_A, K_B are
    nonnegative, so by induction U_{m+1} - U_m = mu1 K_A (V_m - V_{m-1}) >= 0
    and then V_{m+1} - V_m = mu2 K_B (U_{m+1} - U_m) >= 0.

    Each datum E_order(-rate t^order) is one Chebyshev table (see
    _cheb_table).  A zero coefficient skips the tables it would multiply: no
    E_alpha table when a == 0, no E_beta table when b == 0, and no kernel
    table or convolution when mu1 or mu2 is 0.  For finite tables 0 * x is
    +-0, so the result is the one the tables would give.
    """
    if not (math.isfinite(T) and T > 0.0):
        raise DomainError(f"horizon must be finite and positive, got {T}")
    if n_steps < _MIN_STEPS:
        raise DomainError(f"n_steps must be >= {_MIN_STEPS}, got {n_steps}")
    times = np.linspace(0.0, T, n_steps + 1)
    h = times[1]

    def datum(value, order, rate):
        """value * E_order(-rate t^order) on the grid."""
        if value == 0.0:
            return np.zeros(n_steps + 1)
        E = _cheb_table(lambda s: ml_neg(order, 1.0, -rate * (s * h) ** order, rtol=1e-10),
                        n_steps + 1, _decay_rate(order, rate) * h, n_steps)
        return value * np.append(1.0, E(np.zeros(1), np.ones((1, 1)))[:, 0])

    U1 = datum(spec.a, spec.alpha, spec.eta1)
    V1 = datum(spec.b, spec.beta, spec.eta2)
    # kernel-alpha convolves V (initial layer t^beta) and vice versa
    kA = _kernel_moments(spec.alpha, spec.eta1, times, layer_exp=spec.beta) \
        if spec.mu1 != 0.0 else None
    kB = _kernel_moments(spec.beta, spec.eta2, times, layer_exp=spec.alpha) \
        if spec.mu2 != 0.0 else None

    def sweep(V):
        U = U1 if kA is None else U1 + spec.mu1 * _convolve_linear(kA, V)
        return U, (V1 if kB is None else V1 + spec.mu2 * _convolve_linear(kB, U))

    # past the float64 range U and V hold inf or nan, and the certificate fails
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        U, V = sweep(V1) if kA is None or kB is None else _solve_coupled(spec, U1, V1, kA, kB)
        residual = float(np.max(np.abs(np.subtract(sweep(V), (U, V)))))
    scale = max(1.0, float(np.max(np.abs((U, V)))))
    if not residual <= 1e-12 * scale < math.inf:
        raise NumericalError(f"map residual {residual:.3e} at solution scale {scale:.3e}: "
                             "needs a finite scale and a residual <= 1e-12 of it")
    return OdePath(times=times, U=U, V=V, residual=residual)


# ---------------------------------------------------------------------------
# Laplace-domain symbols and branch-cut inversion


@dataclass(frozen=True)
class LaplaceSymbol:
    """Constant-coefficient symbol with finite c1 > c2 > 0 and orders
    0 < beta <= alpha <= 1, alpha = beta = 1 excluded (the validated decay set)."""

    c1: float
    c2: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.c1) and self.c1 > self.c2 > 0.0):
            raise DomainError(
                f"need finite c1 > c2 > 0, got c1={self.c1}, c2={self.c2}")
        if not (0.0 < self.beta <= self.alpha <= 1.0):
            raise DomainError(
                f"orders must satisfy 0 < beta <= alpha <= 1, got "
                f"alpha={self.alpha}, beta={self.beta}")
        if self.alpha == 1.0 and self.beta == 1.0:
            raise DomainError("alpha = beta = 1 puts the poles on the negative "
                              "axis and leaves no cut; need alpha < 1 or beta < 1")


def _bromwich_rule(n: int):
    """Nodes s_k and weights w_k of the n-step trapezoid rule on the parabola
    s(u) = 1.5 (1 + iu)^2, u in [0, 5] (the tail is e^-36), so that
    f(t) = sum_k Im(w_k F(s_k / t)) / t for a real transform F analytic off
    the negative axis (Weideman & Trefethen, Math. Comp. 76 (2007) 1341-1356).
    spectral's mode convolution sums the same rule; none of it comes from
    mittag_leffler, whose contour Picard's tables use, so the two solvers
    share no numerics.
    """
    u = np.linspace(0.0, 5.0, n + 1)
    s = 1.5 * (1.0 + 1j * u) ** 2
    w = (u[1] / math.pi) * np.exp(s) * (3j * (1.0 + 1j * u))
    w[0] *= 0.5
    return s, w


# the 43-node estimate and the 64-node value
_BROMWICH = tuple(_bromwich_rule(n) for n in (43, 64))
# relative error the inversion's estimate must meet
_BROMWICH_RTOL = 1e-10


def _bromwich_sum(terms_at, where, exact=0.0):
    """The 64-node sums of terms_at(s1, w), the terms Im(w_k F(s_k / t)) / t of
    each rule (s1, w) of _BROMWICH along axis -2 (w inside their product),
    plus exact, an inverse the transforms had subtracted.  A sum out of
    float64 range, or whose estimate |I_43 - I_64| + eps sum |terms| exceeds
    _BROMWICH_RTOL of it, raises QuadratureError, where(i) naming entry i."""
    sums = []
    # past the float64 range the sums hold inf or nan, and are refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for s1, w in _BROMWICH:
            terms = terms_at(s1, w)
            sums.append(terms.sum(axis=-2))
        rough, total = sums
        err = np.abs(rough - total) + np.finfo(float).eps * np.abs(terms).sum(axis=-2)
        total += exact
    finite = np.isfinite(total)
    ok = finite & (err <= _BROMWICH_RTOL * np.abs(total))
    if not ok.all():
        i = tuple(np.argwhere(~ok)[0])
        problem = (f"has error {err[i]:.3e} (value {total[i]:.6e})" if finite[i]
                   else "overflows float64")
        raise QuadratureError(f"Bromwich sum {where(i)} {problem}")
    return total


def branch_cut_invert(sym: LaplaceSymbol, t):
    """(U(t), V(t)) by one fixed Bromwich sum over the symbols, valid for t >= 1.

    D has no zero off the cut (see the module docstring), so the trapezoid
    sum on the parabola (see _bromwich_rule) needs no residue.  Where
    t^beta (c1^2 - c2^2) >= c1 the nodes sit where U^ ~ A s^{alpha-1},
    A = c1/(c1^2 - c2^2), and a plain sum would cancel; there it sums
    U^ - A s^{alpha-1} = -s^{alpha-1}(c2^2 s^beta + c1 s^{alpha+beta}
    + c1^2 s^alpha) / (D (c1^2 - c2^2)) and adds back the exact inverse
    A t^{-alpha} / Gamma(1 - alpha), 0 at alpha = 1; V^ likewise, with
    -c2 s^{alpha-1}(s^{alpha+beta} + c1 s^alpha + c1 s^beta) and c2 in place
    of c1.  Elsewhere it sums U^ and V^ as they are.  The estimate
    |I_43 - I_64| + eps sum |terms|, relative to the value, raises
    QuadratureError past 1e-10, and so does a sum out of float64 range (see
    _bromwich_sum).
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    if not np.all(np.isfinite(t_arr)):
        raise DomainError("branch-cut inversion needs finite times")
    if np.any(t_arr < 1.0):
        raise DomainError("branch-cut inversion is validated for t >= 1 only; "
                          "use picard_solve below t = 1")
    a, b, c1, c2 = sym.alpha, sym.beta, sym.c1, sym.c2
    gap = (c1 - c2) * (c1 + c2)
    lead = t_arr ** b * gap >= c1
    divisor = np.where(lead, gap, 1.0)  # gap > 0 where lead holds, and may underflow to 0

    def terms_at(s1, w):
        s = s1[:, None] / t_arr
        sa, sb = s ** a, s ** b
        u_num = np.where(lead, -(c2 * c2 * sb + c1 * sa * sb + c1 * c1 * sa) / divisor, sb + c1)
        v_num = np.where(lead, -(sa * sb + c1 * sa + c1 * sb) / divisor, 1.0) * c2
        D = gap + c1 * (sa + sb) + sa * sb
        return (w[:, None] * s ** (a - 1.0) / D * np.stack((u_num, v_num))).imag / t_arr

    # its own 1/Gamma(1 - a): this check on Picard reads nothing from mittag_leffler
    inv_gamma = 0.0 if a == 1.0 else 1.0 / math.gamma(1.0 - a)
    exact = np.where(lead, np.array([[c1], [c2]]) / divisor * inv_gamma * t_arr ** -a, 0.0)
    U, V = _bromwich_sum(terms_at, lambda i: f"in {'UV'[i[0]]} at t={t_arr[i[1]]:g}", exact)
    if scalar:
        return float(U[0]), float(V[0])
    return U, V
