"""Coupled two-component fractional relaxation system, solved two independent
ways: Picard iteration on the Volterra integral form, and residue plus
branch-cut inversion of the Laplace-domain symbols for the special constant
system (initial data (1, 0), no sources, symmetric damping/coupling).

The system is

    d^alpha(U - a) + eta1*U - mu1*V = F,
    d^beta (V - b) + eta2*V - mu2*U = G      on t > 0,

with Caputo derivatives of orders 1 >= alpha >= beta > 0.  Its integral form
convolves the relaxation kernel t^{eta-1} E_{eta,eta}(-c t^eta) against the
other component, which is what the Picard sweep discretizes.

The Laplace route writes

    U^(s) = s^{alpha-1}(s^beta+c1) / D(s),   V^(s) = c2 s^{alpha-1} / D(s),
    D(s)  = (s^alpha+c1)(s^beta+c1) - c2^2,

and inverts along the branch cut: poles of D on the principal branch are
located by argument-principle counting plus Newton polish, and the cut
contributes an integral of e^{-rt} r^{alpha-1} against closed-form imaginary
parts.  The two solvers share nothing numerically, which is exactly why the
cross-check between them is trusted.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.signal import fftconvolve
from scipy.special import roots_jacobi

from .errors import ConsistencyError, DomainError, QuadratureError
from .mittag_leffler import ml_neg

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(12)


# ---------------------------------------------------------------------------
# Picard iteration on the integral form


@dataclass(frozen=True)
class OdeSpec:
    """Coefficients of the coupled fractional ODE system.

    F and G are source terms: None (zero), a callable of t, or an array
    sampled on the solver grid.  Nonnegative data (a, b, coefficients and
    sources all >= 0) is what the maximum principle assumes.
    """

    alpha: float
    beta: float
    a: float
    b: float
    eta1: float
    eta2: float
    mu1: float
    mu2: float
    F: object = None
    G: object = None

    def __post_init__(self):
        if not (0.0 < self.beta <= self.alpha <= 1.0):
            raise DomainError(
                f"orders must satisfy 0 < beta <= alpha <= 1, got "
                f"alpha={self.alpha}, beta={self.beta}")

    def coeffs_nonnegative(self) -> bool:
        return min(self.a, self.b, self.eta1, self.eta2, self.mu1, self.mu2) >= 0.0


@dataclass
class OdePath:
    """Sampled trajectory returned by picard_solve."""

    times: np.ndarray
    U: np.ndarray
    V: np.ndarray
    iterations: int
    converged: bool
    iterates: list | None = field(default=None, repr=False)


def _sample_source(src, times):
    if src is None:
        return None
    if callable(src):
        return np.asarray([float(src(t)) for t in times], dtype=float)
    arr = np.asarray(src, dtype=float)
    if arr.shape != times.shape:
        raise DomainError(
            f"sampled source length {arr.shape} does not match grid {times.shape}")
    return arr


@dataclass
class _KernelWeights:
    """Product-integration weights of one relaxation kernel on a uniform grid.

    A[j], B[j] are the hat moments over cell [t_j, t_{j+1}]; layer_corr[j] is
    the defect of the linear rule against a t^p front (the other component's
    singular layer exponent), applied at the moving end of the convolution.
    """

    A: np.ndarray
    B: np.ndarray
    layer_corr: np.ndarray
    layer_exp: float
    h: float


def _kernel_moments(eta: float, c: float, times: np.ndarray,
                    layer_exp: float) -> _KernelWeights:
    """Moments of the kernel tau^{eta-1} E_{eta,eta}(-c tau^eta).

    A[j] = int_{t_j}^{t_{j+1}} k(tau) (t_{j+1}-tau)/h dtau and B[j] likewise
    with (tau-t_j)/h.  The first two cells use adaptive quadrature under the
    substitution sigma = tau^eta that removes the endpoint singularity; away
    from the origin the kernel is smooth and fixed Gauss panels suffice.

    layer_exp is the power p of the convolved factor's initial layer
    (W ~ W(0) + c0 t^p); the extra moment int k(tau) (t_{j+1}-tau)^p dtau
    feeds the end-cell correction that restores accuracy lost to linear
    interpolation of that layer.
    """
    n = times.size - 1
    h = times[1] - times[0]
    A = np.empty(n)
    B = np.empty(n)
    M = np.empty(n)
    p = float(layer_exp)

    def kernel_sigma(sig):
        # kernel contribution after tau = sigma^{1/eta}: k(tau) dtau = E/eta dsigma
        return float(ml_neg(eta, eta, -c * sig, rtol=1e-11)) / eta

    n_adaptive = min(2, n)
    for j in range(n_adaptive):
        t0, t1 = times[j], times[j + 1]
        lo, hi = t0 ** eta, t1 ** eta

        def fa(sig):
            return kernel_sigma(sig) * (t1 - sig ** (1.0 / eta)) / h

        def fb(sig):
            return kernel_sigma(sig) * (sig ** (1.0 / eta) - t0) / h

        def fm(sig):
            return kernel_sigma(sig) * (t1 - sig ** (1.0 / eta)) ** p

        A[j], errA = quad(fa, lo, hi, epsabs=1e-14, epsrel=1e-11, limit=200)
        B[j], errB = quad(fb, lo, hi, epsabs=1e-14, epsrel=1e-11, limit=200)
        M[j], _ = quad(fm, lo, hi, epsabs=1e-14, epsrel=1e-11, limit=200)
        if max(errA, errB) > 1e-9 * max(abs(A[j]), abs(B[j]), 1e-9) + 1e-12:
            raise QuadratureError(
                f"kernel moment cell {j} error estimate {max(errA, errB):.2e}")
    if n > n_adaptive:
        t0 = times[n_adaptive:-1]
        mid = t0 + 0.5 * h
        nodes = mid[:, None] + 0.5 * h * _GAUSS_NODES[None, :]
        kern = nodes ** (eta - 1.0) * ml_neg(
            eta, eta, -c * nodes.ravel() ** eta, rtol=1e-10).reshape(nodes.shape)
        wa = (times[n_adaptive + 1:, None] - nodes) / h
        vals = kern * 0.5 * h
        A[n_adaptive:] = (vals * wa) @ _GAUSS_WEIGHTS
        B[n_adaptive:] = (vals * (1.0 - wa)) @ _GAUSS_WEIGHTS
        # fractional end moment via Gauss-Jacobi (weight absorbs (t_{j+1}-tau)^p)
        xj, wj = _jacobi_rule(p)
        nodes_j = times[n_adaptive + 1:, None] - 0.5 * h * (1.0 - xj[None, :])
        kern_j = nodes_j ** (eta - 1.0) * ml_neg(
            eta, eta, -c * nodes_j.ravel() ** eta, rtol=1e-10).reshape(nodes_j.shape)
        M[n_adaptive:] = (kern_j @ wj) * (0.5 * h) ** (1.0 + p)
    return _KernelWeights(A=A, B=B, layer_corr=M - h ** p * A, layer_exp=p, h=h)


@lru_cache(maxsize=64)
def _jacobi_rule(p: float, n: int = 10):
    """Gauss-Jacobi nodes/weights for weight (1-x)^p on [-1, 1]."""
    return roots_jacobi(n, p, 0.0)


def _convolve_linear(kw: _KernelWeights, W):
    """Convolution of the tabulated kernel against the piecewise-linear
    interpolant of samples W, with the end-cell layer correction; entry i
    approximates int_0^{t_i} k(tau) W(t_i - tau) dtau."""
    n = kw.A.size
    out = np.zeros(n + 1)
    out[1:] = fftconvolve(kw.A, W[1:])[:n] + fftconvolve(kw.B, W[:-1])[:n]
    # replace the linear rule on the moving-end cell by the layer model
    # W(s) ~ W(0) + c0 s^p: out[i] gains c0 * (M[i-1] - h^p A[i-1])
    c0 = (W[1] - W[0]) / kw.h ** kw.layer_exp
    out[1:] += c0 * kw.layer_corr
    return out


def picard_solve(spec: OdeSpec, T: float, n_steps: int, tol: float = 1e-12,
                 max_iter: int = 200, record_iterates: bool = False) -> OdePath:
    """Fixed point of the Volterra integral map on a uniform grid over [0, T].

    Starts from the zero pair, so with nonnegative data the recorded iterates
    increase monotonically toward the solution.  Non-convergence within
    max_iter returns the last iterate with converged=False.
    """
    if not T > 0.0:
        raise DomainError(f"horizon must be positive, got {T}")
    if n_steps < 16:
        raise DomainError(f"n_steps must be >= 16, got {n_steps}")
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    times = np.linspace(0.0, T, n_steps + 1)
    tpos = times[1:]

    EA1 = np.empty(n_steps + 1)
    EA1[0] = 1.0
    EA1[1:] = ml_neg(spec.alpha, 1.0, -spec.eta1 * tpos ** spec.alpha, rtol=1e-10)
    EB1 = np.empty(n_steps + 1)
    EB1[0] = 1.0
    EB1[1:] = ml_neg(spec.beta, 1.0, -spec.eta2 * tpos ** spec.beta, rtol=1e-10)

    # kernel-alpha convolves V (initial layer t^beta) and vice versa
    kA = _kernel_moments(spec.alpha, spec.eta1, times, layer_exp=spec.beta)
    kB = _kernel_moments(spec.beta, spec.eta2, times, layer_exp=spec.alpha)

    Fs = _sample_source(spec.F, times)
    Gs = _sample_source(spec.G, times)
    U1 = spec.a * EA1
    if Fs is not None:
        U1 = U1 + _convolve_linear(kA, Fs)
    V1 = spec.b * EB1
    if Gs is not None:
        V1 = V1 + _convolve_linear(kB, Gs)

    U = np.zeros(n_steps + 1)
    V = np.zeros(n_steps + 1)
    iterates = [(U.copy(), V.copy())] if record_iterates else None
    converged = False
    sweeps = 0
    for m in range(max_iter):
        Unew = U1 + spec.mu1 * _convolve_linear(kA, V)
        Vnew = V1 + spec.mu2 * _convolve_linear(kB, U)
        diff = max(np.max(np.abs(Unew - U)), np.max(np.abs(Vnew - V)))
        U, V = Unew, Vnew
        sweeps = m + 1
        if record_iterates:
            iterates.append((U.copy(), V.copy()))
        if diff < tol:
            converged = True
            break
    return OdePath(times=times, U=U, V=V, iterations=sweeps,
                   converged=converged, iterates=iterates)


def picard_monotonicity(iterates, rtol: float = 1e-12) -> bool:
    """True iff the recorded iterate pairs are pointwise non-decreasing.

    Valid only for runs with nonnegative data, where successive differences
    are convolutions of nonnegative kernels against nonnegative differences.
    A small floating-point slack proportional to the iterate scale is allowed.
    """
    for (U0, V0), (U1, V1) in zip(iterates, iterates[1:]):
        slack_u = rtol * max(1.0, float(np.max(np.abs(U1))))
        slack_v = rtol * max(1.0, float(np.max(np.abs(V1))))
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
    """Constant-coefficient symbol with c1 > c2 > 0 (the validated decay set)."""

    c1: float
    c2: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.c1 > self.c2 > 0.0):
            raise DomainError(
                f"need c1 > c2 > 0, got c1={self.c1}, c2={self.c2}")
        if not (0.0 < self.beta <= self.alpha <= 1.0):
            raise DomainError(
                f"orders must satisfy 0 < beta <= alpha <= 1, got "
                f"alpha={self.alpha}, beta={self.beta}")


def q_of_r(sym: LaplaceSymbol, r):
    """Denominator along the upper side of the cut, s = r e^{i pi}, in the
    closed form grouping real and imaginary parts."""
    r = np.asarray(r, dtype=float)
    a, b, c1, c2 = sym.alpha, sym.beta, sym.c1, sym.c2
    ra = r ** a
    rb = r ** b
    rab = r ** (a + b)
    re = (c1 * c1 - c2 * c2) + c1 * (ra * math.cos(a * math.pi) + rb * math.cos(b * math.pi)) \
        + rab * math.cos((a + b) * math.pi)
    im = c1 * (ra * math.sin(a * math.pi) + rb * math.sin(b * math.pi)) \
        + rab * math.sin((a + b) * math.pi)
    out = re + 1j * im
    return complex(out) if out.ndim == 0 else out


def im_parts(sym: LaplaceSymbol, r):
    """Closed forms of Im(e^{i alpha pi} conj(q)) and Im(p conj(q)).

    These are the only symbol combinations the branch-cut integrands need;
    each equals the directly computed complex expression to ~1e-12 relative.
    """
    r = np.asarray(r, dtype=float)
    a, b, c1, c2 = sym.alpha, sym.beta, sym.c1, sym.c2
    gap = c1 * c1 - c2 * c2
    rb = r ** b
    im_exp = gap * math.sin(a * math.pi) + c1 * rb * math.sin((a - b) * math.pi) \
        - r ** (a + b) * math.sin(b * math.pi)
    im_p = c1 * gap * math.sin(a * math.pi) \
        + (c1 * c1 * math.sin((a - b) * math.pi) + gap * math.sin((a + b) * math.pi)) * rb \
        + c1 * math.sin(a * math.pi) * rb * rb
    if im_exp.ndim == 0:
        return float(im_exp), float(im_p)
    return im_exp, im_p


def _denominator(sym: LaplaceSymbol, s):
    return (s ** sym.alpha + sym.c1) * (s ** sym.beta + sym.c1) - sym.c2 ** 2


def _denominator_prime(sym: LaplaceSymbol, s):
    return sym.alpha * s ** (sym.alpha - 1.0) * (s ** sym.beta + sym.c1) \
        + sym.beta * s ** (sym.beta - 1.0) * (s ** sym.alpha + sym.c1)


def default_search_radius(sym: LaplaceSymbol) -> float:
    """Root magnitudes scale like c^{1/order}; factor 4 is the safety margin."""
    return 4.0 * max(sym.c1, sym.c2) ** (1.0 / min(sym.alpha, sym.beta))


def _winding(sym: LaplaceSymbol, corners, samples: int) -> int:
    """Winding number of D(s) around 0 along the rectangle boundary."""
    x0, x1, y0, y1 = corners
    edges = [
        np.linspace(x0 + 1j * y0, x1 + 1j * y0, samples),
        np.linspace(x1 + 1j * y0, x1 + 1j * y1, samples),
        np.linspace(x1 + 1j * y1, x0 + 1j * y1, samples),
        np.linspace(x0 + 1j * y1, x0 + 1j * y0, samples),
    ]
    pts = np.concatenate(edges)
    vals = _denominator(sym, pts)
    if np.min(np.abs(vals)) < 1e-12 * np.max(np.abs(vals)):
        raise ConsistencyError("pole search contour passes through a zero")
    ang = np.angle(vals)
    dang = np.diff(np.concatenate([ang, ang[:1]]))
    dang = (dang + math.pi) % (2.0 * math.pi) - math.pi
    if np.max(np.abs(dang)) > 0.5 * math.pi:
        if samples >= 2 ** 15:
            raise ConsistencyError("winding sampling did not stabilize")
        return _winding(sym, corners, samples * 2)
    total = float(np.sum(dang)) / (2.0 * math.pi)
    count = int(round(total))
    if abs(total - count) > 0.05:
        if samples >= 2 ** 15:
            raise ConsistencyError(f"non-integer winding {total:.3f}")
        return _winding(sym, corners, samples * 2)
    return count


def _newton_polish(sym: LaplaceSymbol, z0: complex) -> complex | None:
    z = z0
    for _ in range(80):
        d = _denominator(sym, z)
        dp = _denominator_prime(sym, z)
        if dp == 0:
            return None
        step = d / dp
        z = z - step
        if z.real != z.real or abs(z) > 1e12 or z.imag == 0.0:
            return None
        if abs(step) < 1e-14 * (1.0 + abs(z)):
            return z
    return None


def find_poles(sym: LaplaceSymbol, search_radius: float | None = None,
               samples: int = 512) -> list[complex]:
    """Zeros of the symbol denominator on the principal branch.

    Counts zeros in the upper-half search box by the argument principle,
    isolates them by rectangle subdivision, polishes with Newton and mirrors
    the conjugates.  Located poles must have negative real part and nonzero
    imaginary part; a violation raises ConsistencyError.  An empty list is a
    valid result.  The classical case alpha = beta = 1 is excluded (its poles
    sit on the cut itself).
    """
    if sym.alpha == 1.0 and sym.beta == 1.0:
        raise DomainError("alpha = beta = 1 puts the poles on the cut; "
                          "need alpha < 1 or beta < 1")
    R = float(search_radius) if search_radius is not None else default_search_radius(sym)
    eps_im = 1e-9 * R
    top = (-R, R * 1e-9, eps_im, R)
    total = _winding(sym, top, samples)
    found: list[complex] = []
    stack = [(top, total)]
    while stack:
        box, count = stack.pop()
        if count == 0:
            continue
        x0, x1, y0, y1 = box
        if count == 1 or max(x1 - x0, y1 - y0) < 1e-6 * R:
            z = _newton_polish(sym, complex(0.5 * (x0 + x1), 0.5 * (y0 + y1)))
            if z is None or not (x0 - 0.05 * R <= z.real <= x1 + 0.05 * R
                                 and y0 - 0.05 * R <= z.imag <= y1 + 0.05 * R):
                if max(x1 - x0, y1 - y0) < 1e-6 * R:
                    raise ConsistencyError(
                        f"could not resolve a counted zero inside {box}")
                # split further and retry
                count_children = _split_and_count(sym, box, samples, stack)
                if count_children != count:
                    raise ConsistencyError("zero count changed under subdivision")
                continue
            found.append(z)
            continue
        count_children = _split_and_count(sym, box, samples, stack)
        if count_children != count:
            raise ConsistencyError("zero count changed under subdivision")

    poles: list[complex] = []
    for z in found:
        if all(abs(z - p) > 1e-8 * (1.0 + abs(z)) for p in poles):
            poles.append(z)
    if len(poles) != total:
        raise ConsistencyError(
            f"located {len(poles)} distinct zeros but winding says {total}")
    for z in poles:
        if z.real >= 0.0 or abs(z.imag) <= eps_im:
            raise ConsistencyError(
                f"pole {z} violates the negative-real-part / nonzero-imaginary "
                f"condition")
    mirrored = poles + [z.conjugate() for z in poles]
    return sorted(mirrored, key=lambda z: (z.real, z.imag))


def _split_and_count(sym, box, samples, stack) -> int:
    x0, x1, y0, y1 = box
    xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    children = [(x0, xm, y0, ym), (xm, x1, y0, ym), (x0, xm, ym, y1), (xm, x1, ym, y1)]
    total = 0
    for child in children:
        c = _winding(sym, child, samples)
        total += c
        if c:
            stack.append((child, c))
    return total


def _branch_integral(sym: LaplaceSymbol, t: float, numerator) -> float:
    """(1/pi) int_0^inf e^{-rt} r^{alpha-1} numerator(r)/|q(r)|^2 dr.

    The r^{alpha-1} endpoint singularity is handled by the algebraic-weight
    adaptive rule; the exponential factor confines the mass to r <= ~45/t, and
    the neglected tail is bounded and checked against the result.
    """
    A = 45.0 / t

    def f(r):
        q = q_of_r(sym, r)
        return math.exp(-r * t) * numerator(r) / abs(q) ** 2

    val, err = quad(f, 0.0, A, weight="alg", wvar=(sym.alpha - 1.0, 0.0),
                    epsabs=1e-300, epsrel=1e-11, limit=400)
    scale = max(abs(val), 1e-280)
    if err > 1e-8 * scale:
        val2, err2 = quad(f, 0.0, A, weight="alg", wvar=(sym.alpha - 1.0, 0.0),
                          epsabs=1e-13 * scale, epsrel=1e-11, limit=800)
        if err2 > 1e-8 * max(abs(val2), 1e-280):
            raise QuadratureError(
                f"branch-cut quadrature error {err2:.3e} at t={t:g} "
                f"(value {val2:.6e})")
        val = val2
    # crude tail bound: |integrand| decays at least like e^{-rt} past A
    tail = abs(f(A)) * math.gamma(sym.alpha) * max(A, 1.0) ** (sym.alpha - 1.0) / t
    if tail > 1e-9 * scale:
        raise QuadratureError(f"branch-cut tail bound {tail:.3e} not negligible")
    return val / math.pi


def branch_cut_invert(sym: LaplaceSymbol, t):
    """(U(t), V(t)) by residues plus branch-cut integrals, valid for t >= 1.

    The cut contribution enters with the orientation that reproduces the
    classical completely monotone representation in the decoupled limit;
    residues of the conjugate pole pairs are summed explicitly.
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    if np.any(t_arr < 1.0):
        raise DomainError("branch-cut inversion is validated for t >= 1 only; "
                          "use picard_solve below t = 1")
    poles = find_poles(sym)
    c1, c2 = sym.c1, sym.c2

    U = np.empty_like(t_arr)
    V = np.empty_like(t_arr)
    for i, tv in enumerate(t_arr):
        res_u = 0.0
        res_v = 0.0
        for z in poles:
            dp = _denominator_prime(sym, z)
            e_zt = cmath.exp(z * tv)
            res_u += (z ** (sym.alpha - 1.0) * (z ** sym.beta + c1) / dp * e_zt).real
            res_v += (c2 * z ** (sym.alpha - 1.0) / dp * e_zt).real
        bu = _branch_integral(sym, float(tv), lambda r: im_parts(sym, r)[1])
        bv = c2 * _branch_integral(sym, float(tv), lambda r: im_parts(sym, r)[0])
        U[i] = res_u + bu
        V[i] = res_v + bv
    if scalar:
        return float(U[0]), float(V[0])
    return U, V
