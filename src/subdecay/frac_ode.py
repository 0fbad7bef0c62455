"""Coupled two-component fractional relaxation system, solved two independent
ways: Picard iteration on the Volterra integral form, and branch-cut
inversion of the Laplace-domain symbols for the special constant system
(initial data (1, 0), symmetric damping/coupling).

The system is

    d^alpha(U - a) + eta1*U - mu1*V = 0,
    d^beta (V - b) + eta2*V - mu2*U = 0      on t > 0,

with Caputo derivatives of orders 1 >= alpha >= beta > 0.  Its integral form

    U = a E_alpha(-eta1 t^alpha) + mu1 k_alpha * V,
    V = b E_beta (-eta2 t^beta)  + mu2 k_beta  * U,

convolves the relaxation kernel k_eta(t) = t^{eta-1} E_{eta,eta}(-c t^eta)
against the other component, which is what the Picard sweep discretizes
(kernel cell 0 in closed form, each later cell on one Gauss panel shared by
all its moments, of an order graded by the cell's distance from the
origin).  A sweep updates U from the previous V and then V from the new U
(Gauss-Seidel order), and a zero datum or coupling costs no Mittag-Leffler
table: its term is exactly zero.

The Laplace route writes

    U^(s) = s^{alpha-1}(s^beta+c1) / D(s),   V^(s) = c2 s^{alpha-1} / D(s),
    D(s)  = (s^alpha+c1)(s^beta+c1) - c2^2,

and inverts along the branch cut alone, because D has no zero in the cut
plane: for 0 < arg s = theta < pi the factors s^alpha + c1 and s^beta + c1
have arguments in (0, alpha theta) and (0, beta theta), so their product has
argument in (0, 2 pi) and is never the positive real c2^2; on the positive
axis the product is at least c1^2 > c2^2, and conjugation covers theta < 0.
With no residues, the inversion is an integral of e^{-rt} r^{alpha-1}
against closed-form imaginary parts along the cut, one adaptive
Gauss-Legendre pass for all times.  The two solvers share nothing
numerically, which is exactly why the cross-check between them is trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import rgamma

from .errors import DomainError, QuadratureError
from .mittag_leffler import ml_neg

# branch-cut quadrature (see _cut_integrals): its own rule, nothing shared with Picard
_CUT_NODES, _CUT_WEIGHTS = np.polynomial.legendre.leggauss(16)
_CUT_X, _CUT_BULK, _CUT_GRADE, _CUT_LEVELS = 45.0, 16, 0.15, 20
_CUT_TOL, _CUT_BUDGET, _CUT_CHUNK = 1e-13, 2000, 16
# Picard stops once a sweep changes U and V by less than _PICARD_TOL
_PICARD_TOL, _MAX_SWEEPS = 1e-12, 200


# ---------------------------------------------------------------------------
# Picard iteration on the integral form


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
    """Sampled trajectory returned by picard_solve: the sweeps it took and
    the last sweep's increment max(|U_m - U_{m-1}|, |V_m - V_{m-1}|)."""

    times: np.ndarray
    U: np.ndarray
    V: np.ndarray
    iterations: int
    converged: bool
    increment: float
    iterates: list | None = field(default=None, repr=False)


@dataclass
class _KernelWeights:
    """Product-integration weights of one relaxation kernel on a uniform grid.

    A[j], B[j] are the hat moments over cell [t_j, t_{j+1}]; layer_corr[j] is
    the defect of the linear rule against a t^p front (the other component's
    singular layer exponent), applied at the moving end of the convolution.
    C_hat is the FFT, at the wrap-free length n_fft, of C = [A, 0] + [0, B],
    the one sequence that carries both hat moments (see _convolve_linear).
    """

    A: np.ndarray
    B: np.ndarray
    layer_corr: np.ndarray
    layer_exp: float
    h: float
    n_fft: int
    C_hat: np.ndarray


# Gauss orders of the kernel cells past cell 0, capped at 12 next to the origin
_CELL_ORDERS = (12, 8, 6, 4)
_CELL_TOL = 1e-13


def _first_cell(n: int) -> int:
    """First cell j >= 1 on which n Gauss nodes meet rho_j^{-n} <= _CELL_TOL.

    Cell j spans [jh, (j+1)h]; the largest Bernstein ellipse around it that
    avoids the tau^{eta-1} branch point at 0 has rho_j + 1/rho_j = 2(2j+1).
    A and B converge like rho_j^{-2n}, but M's interpolatory rule against the
    (1-x)^p weight only like rho_j^{-n}, and that slower rate sets the order.
    """
    r = _CELL_TOL ** (-1.0 / n)
    return math.ceil(((r + 1.0 / r) / 2.0 - 1.0) / 2.0)


# (first cell, Gauss nodes, Gauss weights) per order; the cap holds from cell 1
_CELL_BANDS = tuple((1 if n == _CELL_ORDERS[0] else _first_cell(n),
                     *np.polynomial.legendre.leggauss(n)) for n in _CELL_ORDERS)


def _cell_bands(eta: float, c: float, h: float, p: float) -> list:
    """(first cell, nodes, weights, end weights) of each band of _CELL_BANDS
    whose rule also resolves the kernel's own decay rate.

    The kernel is a mixture of e^{-r tau} with weight proportional to
    1/|r^eta e^{i eta pi} + c|^2.  For eta > 1/2 that weight peaks at
    lam = (-c cos eta pi)^{1/eta} (lam = c at eta = 1, a pure exponential),
    and near the peak the kernel decays like e^{-lam tau} at any distance
    from the origin.  An order is kept only if its A, B and M of e^{-lam tau}
    over one cell of width h agree with the 12-node rule's to _CELL_TOL.
    """
    lam = (-c * math.cos(math.pi * eta)) ** (1.0 / eta) if eta > 0.5 else 0.0
    bands = [(first, x, w, _end_weights(p, x, w)) for first, x, w in _CELL_BANDS]

    def exp_moments(_, x, w, end_w):
        f = np.exp(-0.5 * lam * h * x)
        return np.array([(f * (1.0 - x)) @ w, (f * (1.0 + x)) @ w, f @ end_w])

    cap = exp_moments(*bands[0])
    return [band for band in bands
            if np.all(np.abs(exp_moments(*band) - cap) <= _CELL_TOL * cap)]


def _kernel_moments(eta: float, c: float, times: np.ndarray,
                    layer_exp: float) -> _KernelWeights:
    """Moments of the kernel k(tau) = tau^{eta-1} E_{eta,eta}(-c tau^eta).

    A[j] = int_{t_j}^{t_{j+1}} k(tau) (t_{j+1}-tau)/h dtau and B[j] likewise
    with (tau-t_j)/h.  The first cell, which holds the tau^{eta-1}
    singularity, is closed form: the Riemann-Liouville integral
    K_p(t) = int_0^t k(tau) (t-tau)^p dtau = Gamma(p+1) t^{eta+p}
    E_{eta,eta+p+1}(-c t^eta) gives A[0] = K_1(h)/h, B[0] = K_0(h) - K_1(h)/h
    and M[0] = K_p(h).  Away from the origin the kernel is smooth, and each
    later cell samples it once, on one Gauss panel, for A, B and M alike.
    The panel's order falls with the distance from the origin (12 nodes on
    cells 1-10, 8, 6, then 4 from cell 445 on; see _cell_bands), one ml_neg
    call per band.

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
    A, B, M = [[K1 / h]], [[K0 - K1 / h]], [[K(p)]]
    bands = _cell_bands(eta, c, h, p)
    stops = [band[0] for band in bands[1:]] + [n_cells]
    for (first, x, w, end_w), stop in zip(bands, stops):
        lo, hi = min(first, n_cells), min(stop, n_cells)
        if lo == hi:
            continue
        nodes = (times[lo:hi] + 0.5 * h)[:, None] + 0.5 * h * x
        wa = (times[lo + 1:hi + 1, None] - nodes) / h
        vals = nodes ** (eta - 1.0) * ml_neg(eta, eta, -c * nodes.ravel() ** eta,
                                             rtol=1e-10).reshape(nodes.shape) * 0.5 * h
        A.append((vals * wa) @ w)
        B.append((vals * (1.0 - wa)) @ w)
        # t_{j+1} - tau = (h/2)(1 - x) on the panel, so M takes the same samples
        M.append((vals @ end_w) * (0.5 * h) ** p)
    A, B, M = (np.concatenate(parts) for parts in (A, B, M))
    C = np.append(A, 0.0)
    C[1:] += B
    n_fft = _fft_size(2 * A.size)
    return _KernelWeights(A=A, B=B, layer_corr=M - h ** p * A, layer_exp=p, h=h,
                          n_fft=n_fft, C_hat=np.fft.rfft(C, n_fft))


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
    (-1)^k 2^{p+1} Gamma(p+1)^2 / (Gamma(p+k+2) Gamma(p-k+1)); rgamma is 0
    at the poles integer p meets."""
    k = np.arange(nodes.size)
    mu = ((-1.0) ** k * 2.0 ** (p + 1.0) * math.gamma(p + 1.0) ** 2
          * rgamma(p + k + 2.0) * rgamma(p - k + 1.0))
    legendre = np.polynomial.legendre.legvander(nodes, k[-1])
    return weights * (legendre @ ((k + 0.5) * mu))


def _convolve_linear(kw: _KernelWeights, W):
    """Convolution of the tabulated kernel against the piecewise-linear
    interpolant of samples W, with the end-cell layer correction; entry i
    approximates int_0^{t_i} k(tau) W(t_i - tau) dtau.

    The linear rule sum_j A[j] W[i-j] + B[j] W[i-1-j] over j < i is entry i
    of C * W with C = [A, 0] + [0, B], less the j = i term A[i] W[0]; so
    each call transforms W once, and C's transform is kept with the kernel.
    Entries 1..n of the convolution stay wrap-free at n_fft >= 2n.
    """
    n = kw.A.size
    out = np.fft.irfft(kw.C_hat * np.fft.rfft(W, kw.n_fft), kw.n_fft)[:n + 1]
    out[0] = 0.0
    out[1:n] -= W[0] * kw.A[1:]
    # replace the linear rule on the moving-end cell by the layer model
    # W(s) ~ W(0) + c0 s^p: out[i] gains c0 * (M[i-1] - h^p A[i-1])
    c0 = (W[1] - W[0]) / kw.h ** kw.layer_exp
    out[1:] += c0 * kw.layer_corr
    return out


def picard_solve(spec: OdeSpec, T: float, n_steps: int,
                 record_iterates: bool = False) -> OdePath:
    """Fixed point of the Volterra integral map on a uniform grid over [0, T].

    Starts from the zero pair.  Sweep m sets U_m = U1 + mu1 K_A V_{m-1} and
    then V_m = V1 + mu2 K_B U_m (Gauss-Seidel order), which reaches the same
    discrete fixed point as updating both from the previous pair in about
    half the sweeps.  With nonnegative data the iterates still increase
    monotonically: the discrete convolutions K_A, K_B are nonnegative, so by
    induction U_{m+1} - U_m = mu1 K_A (V_m - V_{m-1}) >= 0 and then
    V_{m+1} - V_m = mu2 K_B (U_{m+1} - U_m) >= 0.  record_iterates keeps
    every pair (U_m, V_m).

    A zero coefficient skips the tables it would multiply: no E_alpha table
    when a == 0, no E_beta table when b == 0, and no kernel table or
    convolution when mu1 or mu2 is 0.  For finite tables 0 * x is +-0, so
    the result is the one the tables would give.  The sweeps stop once one
    changes U and V by less than _PICARD_TOL; non-convergence within
    _MAX_SWEEPS returns the last iterate with converged=False.
    """
    if not T > 0.0:
        raise DomainError(f"horizon must be positive, got {T}")
    if n_steps < 16:
        raise DomainError(f"n_steps must be >= 16, got {n_steps}")
    times = np.linspace(0.0, T, n_steps + 1)

    def datum(value, order, rate):
        """value * E_order(-rate t^order) on the grid."""
        if value == 0.0:
            return np.zeros(n_steps + 1)
        E = np.empty(n_steps + 1)
        E[0] = 1.0
        E[1:] = ml_neg(order, 1.0, -rate * times[1:] ** order, rtol=1e-10)
        return value * E

    U1 = datum(spec.a, spec.alpha, spec.eta1)
    V1 = datum(spec.b, spec.beta, spec.eta2)
    # kernel-alpha convolves V (initial layer t^beta) and vice versa
    kA = _kernel_moments(spec.alpha, spec.eta1, times, layer_exp=spec.beta) \
        if spec.mu1 != 0.0 else None
    kB = _kernel_moments(spec.beta, spec.eta2, times, layer_exp=spec.alpha) \
        if spec.mu2 != 0.0 else None

    U = np.zeros(n_steps + 1)
    V = np.zeros(n_steps + 1)
    iterates = [(U, V)] if record_iterates else None
    converged = False
    sweeps, diff = 0, math.inf
    while sweeps < _MAX_SWEEPS and not converged:
        Unew = U1 if kA is None else U1 + spec.mu1 * _convolve_linear(kA, V)
        Vnew = V1 if kB is None else V1 + spec.mu2 * _convolve_linear(kB, Unew)
        diff = max(np.max(np.abs(Unew - U)), np.max(np.abs(Vnew - V)))
        U, V = Unew, Vnew
        sweeps += 1
        if record_iterates:
            iterates.append((U, V))
        converged = diff < _PICARD_TOL
    return OdePath(times=times, U=U, V=V, iterations=sweeps, converged=converged,
                   increment=float(diff), iterates=iterates)


def picard_monotonicity(iterates) -> bool:
    """True iff the recorded iterate pairs are pointwise non-decreasing.

    Valid only for runs with nonnegative data, where successive differences
    are convolutions of nonnegative kernels against nonnegative differences.
    A floating-point slack of 1e-12 of the iterate scale is allowed.
    """
    for (U0, V0), (U1, V1) in zip(iterates, iterates[1:]):
        slack_u = 1e-12 * max(1.0, float(np.max(np.abs(U1))))
        slack_v = 1e-12 * max(1.0, float(np.max(np.abs(V1))))
        if np.any(U1 - U0 < -slack_u) or np.any(V1 - V0 < -slack_v):
            return False
    return True


def check_decay_assumption(kappa0: float, C_Omega: float,
                           c12_sup: float, c21_sup: float) -> bool:
    """Sufficient condition for the sharp decay rates: the spectral-gap
    quotient kappa0/C_Omega^2 must strictly dominate both coupling sups."""
    if min(kappa0, C_Omega, c12_sup, c21_sup) <= 0.0:
        raise DomainError("all inputs must be positive")
    return kappa0 / C_Omega**2 > max(c12_sup, c21_sup)


def poincare_constant(L: float) -> float:
    """Optimal Poincare constant of the interval (0, L): first Dirichlet
    eigenvalue (pi/L)^2 gives C = L/pi."""
    if not L > 0.0:
        raise DomainError(f"interval length must be positive, got {L}")
    return L / math.pi


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


def _cut_parts(sym: LaplaceSymbol, ra, rb):
    """Re q, Im q, Im(e^{i alpha pi} conj(q)) and Im(p conj(q)) on the upper
    side of the cut, s = r e^{i pi}, from ra = r^alpha and rb = r^beta.
    Each part is built in place, one temporary at a time: fewer (pairs, 16)
    allocations make a measurably faster branch-cut sweep."""
    a, b, c1, c2 = sym.alpha, sym.beta, sym.c1, sym.c2
    sin_a, sin_b = math.sin(a * math.pi), math.sin(b * math.pi)
    gap = c1 * c1 - c2 * c2
    rab = ra * rb
    re = ra * math.cos(a * math.pi)
    re += rb * math.cos(b * math.pi)
    re *= c1
    re += gap
    re += rab * math.cos((a + b) * math.pi)
    im = ra * sin_a
    im += rb * sin_b
    im *= c1
    im += rab * math.sin((a + b) * math.pi)
    im_exp = c1 * rb
    im_exp *= math.sin((a - b) * math.pi)
    im_exp += gap * sin_a
    rab *= sin_b
    im_exp -= rab
    im_p = (c1 * c1 * math.sin((a - b) * math.pi) + gap * math.sin((a + b) * math.pi)) * rb
    im_p += c1 * gap * sin_a
    square = c1 * sin_a * rb
    square *= rb
    im_p += square
    return re, im, im_exp, im_p


def q_of_r(sym: LaplaceSymbol, r):
    """Denominator along the upper side of the cut, s = r e^{i pi}, in the
    closed form grouping real and imaginary parts."""
    r = np.asarray(r, dtype=float)
    re, im, _, _ = _cut_parts(sym, r ** sym.alpha, r ** sym.beta)
    out = re + 1j * im
    return complex(out) if out.ndim == 0 else out


def im_parts(sym: LaplaceSymbol, r):
    """Closed forms of Im(e^{i alpha pi} conj(q)) and Im(p conj(q)).

    These are the only symbol combinations the branch-cut integrands need;
    each equals the directly computed complex expression to ~1e-12 relative.
    """
    r = np.asarray(r, dtype=float)
    _, _, im_exp, im_p = _cut_parts(sym, r ** sym.alpha, r ** sym.beta)
    if im_exp.ndim == 0:
        return float(im_exp), float(im_p)
    return im_exp, im_p


def _cut_panels(sym: LaplaceSymbol, lo, hi, t_a, t_b):
    """16-point Gauss-Legendre sums of e^{-x} n(r)/|q(r)|^2 over panels
    [lo, hi] of y, with x = y^{1/alpha}, r = x/t, t_a = t^-alpha and
    t_b = t^-beta per panel: the sums and the sums of absolute values, each
    shaped (2, panels), row 0 for n = im_p and row 1 for n = im_exp."""
    half = 0.5 * (hi - lo)[:, None]
    y = half * _CUT_NODES
    y += 0.5 * (hi + lo)[:, None]
    x = y ** (1.0 / sym.alpha)
    y *= t_a[:, None]
    rb = x ** sym.beta
    rb *= t_b[:, None]
    re, im, im_exp, im_p = _cut_parts(sym, y, rb)
    # damp = e^{-x} / |q|^2, formed in x's storage
    re *= re
    im *= im
    re += im
    np.negative(x, out=x)
    np.exp(x, out=x)
    x /= re
    w = half * _CUT_WEIGHTS
    sums, abs_sums = np.empty((2, 2, lo.size))
    for row, part in enumerate((im_p, im_exp)):
        part *= x
        part *= w
        part.sum(axis=1, out=sums[row])
        # |n damp| w = |n damp w| for the positive weights
        np.abs(part, out=part)
        part.sum(axis=1, out=abs_sums[row])
    return sums, abs_sums


def _cut_integrals(sym: LaplaceSymbol, t: np.ndarray):
    """(1/pi) int_0^{45/t} e^{-rt} r^{alpha-1} n(r)/|q(r)|^2 dr for n = im_p
    (row 0, U) and n = im_exp (row 1, V), at every t at once.

    x = r t maps each cut to [0, 45] (e^-45 < 1e-19) and y = x^alpha absorbs
    the weight: t^-alpha/(pi alpha) int_0^{45^alpha} e^{-x} n/|q|^2 dy.  As n
    and |q|^2 carry r^beta, the first of 16 uniform panels is graded
    geometrically toward y = 0.  Each (time, panel) pair compares its
    16-point sum with the sum over its two halves and is bisected while they
    differ by more than 1e-13 of that time's int |integrand|; each level is
    two array passes, over the left and the right halves of the active pairs
    of a chunk of 16 times.  The 576 first-level pairs then make (pairs, 16)
    temporaries of 74 KB, under glibc's 128 KiB mmap threshold, so they come
    from the heap, not from fresh mappings, whatever ran before.  A
    non-finite sum (c1^2 or |q|^2 out of float64 range), summed differences
    above 1e-8 |I(t)|, a tail past x = 45 above 1e-9 |I(t)|, or more than
    2,000 panels for one time raise QuadratureError.
    """
    if t.size > _CUT_CHUNK:
        return np.concatenate([_cut_integrals(sym, t[i:i + _CUT_CHUNK])
                               for i in range(0, t.size, _CUT_CHUNK)], axis=1)
    a, b, m = sym.alpha, sym.beta, t.size
    y_max = _CUT_X ** a
    first = y_max / _CUT_BULK
    edges = np.concatenate(([0.0], first * _CUT_GRADE ** np.arange(_CUT_LEVELS, 0, -1),
                            np.linspace(first, y_max, _CUT_BULK)))
    t_a, t_b = t ** -a, t ** -b
    owner = np.repeat(np.arange(m), edges.size - 1)
    lo, hi = np.tile(edges[:-1], m), np.tile(edges[1:], m)
    coarse, _ = _cut_panels(sym, lo, hi, t_a[owner], t_b[owner])
    total, err, l1_done = np.zeros((3, 2, m))
    panels = np.full(m, edges.size - 1)
    while owner.size:
        mid = 0.5 * (lo + hi)
        t_ao, t_bo = t_a[owner], t_b[owner]
        left, left_abs = _cut_panels(sym, lo, mid, t_ao, t_bo)
        right, right_abs = _cut_panels(sym, mid, hi, t_ao, t_bo)
        fine, fine_abs = left + right, left_abs + right_abs
        diff = np.abs(fine - coarse)
        # int |integrand| so far: accepted panels plus the active ones
        l1 = l1_done.copy()
        np.add.at(l1.T, owner, fine_abs.T)
        split = np.any(diff > _CUT_TOL * l1[:, owner], axis=0)
        for acc, part in ((total, fine), (err, diff), (l1_done, fine_abs)):
            np.add.at(acc.T, owner[~split], part[:, ~split].T)
        panels += np.bincount(owner[split], minlength=m)
        if np.any(panels > _CUT_BUDGET):
            raise QuadratureError(f"branch-cut quadrature needs more than {_CUT_BUDGET} "
                                  f"panels at t={t[np.argmax(panels)]:g}")
        owner = np.concatenate((owner[split], owner[split]))
        lo, hi = np.concatenate((lo[split], mid[split])), np.concatenate((mid[split], hi[split]))
        coarse = np.concatenate((left[:, split], right[:, split]), axis=1)
    if not np.all(np.isfinite(total)):
        raise QuadratureError("branch-cut integrand overflows float64 for "
                              f"c1={sym.c1:g}, c2={sym.c2:g}")
    scale = np.maximum(np.abs(total), 1e-280)
    if np.any(err > 1e-8 * scale):
        k, i = np.unravel_index(np.argmax(err / scale), err.shape)
        raise QuadratureError(f"branch-cut quadrature error {err[k, i]:.3e} at "
                              f"t={t[i]:g} (value {total[k, i]:.6e})")
    # crude tail bound: |integrand| decays at least like e^{-rt} past r = 45/t
    re, im, im_exp, im_p = _cut_parts(sym, y_max * t_a, _CUT_X ** b * t_b)
    edge = math.exp(-_CUT_X) * np.abs(np.stack((im_p, im_exp))) / (re * re + im * im)
    tail = edge * math.gamma(a) * np.maximum(_CUT_X / t, 1.0) ** (a - 1.0) / t
    if np.any(tail > 1e-9 * np.maximum(scale * t_a / a, 1e-280)):
        raise QuadratureError("branch-cut tail bound not negligible")
    return total * (t_a / (math.pi * a))


def branch_cut_invert(sym: LaplaceSymbol, t):
    """(U(t), V(t)) by the branch-cut integrals, valid for t >= 1.

    The cut contribution enters with the orientation that reproduces the
    classical completely monotone representation in the decoupled limit.
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    if not np.all(np.isfinite(t_arr)):
        raise DomainError("branch-cut inversion needs finite times")
    if np.any(t_arr < 1.0):
        raise DomainError("branch-cut inversion is validated for t >= 1 only; "
                          "use picard_solve below t = 1")
    U, V = _cut_integrals(sym, t_arr)
    V *= sym.c2
    if scalar:
        return float(U[0]), float(V[0])
    return U, V
