"""Shared test oracles, all independent of the library's evaluation paths,
and the Picard iterates the monotonicity checks read, swept by the
library's own discrete map."""

import math
from dataclasses import replace
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from identities import im_parts, q_of_r
from subdecay.frac_ode import (LaplaceSymbol, _convolve_linear, _kernel_moments,
                               branch_cut_invert, picard_solve)


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


def kernel_gauss_nodes(times: np.ndarray) -> np.ndarray:
    """The 12 Gauss-Legendre nodes of each kernel cell 1..n-1 of a Picard
    kernel table on the grid times, shaped (cells, 12): every point at which
    a direct sampling evaluates the kernel."""
    h = times[1] - times[0]
    x = np.polynomial.legendre.leggauss(12)[0]
    return (times[1:-1] + 0.5 * h)[:, None] + 0.5 * h * x


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


def band_to_dense(matrix) -> np.ndarray:
    """The dense n x n matrix of a BandedMatrix, ab[upper + i - j, j] =
    A[i, j]: the band's oracle, entry by entry, with no BLAS."""
    n = matrix.n
    dense = np.zeros((n, n))
    band, j = np.indices(matrix.ab.shape)
    i = band - matrix.upper + j
    inside = (i >= 0) & (i < n)
    dense[i[inside], j[inside]] = matrix.ab[inside]
    return dense


def system_matrix(spec, grid, n: int) -> np.ndarray:
    """The dense matrix of the fully implicit L1 system at level n, from the
    scheme's formula, entry by entry: unknown (i, k) of interior node i at
    row i K + k, with r_k = d_k Gamma(2 - a_k) dt^{a_k} / dx^2 and
    fac_k = dx^2 r_k / d_k; 1 + 2 r_k + fac_k c_kk(x_i, t_n) on the
    diagonal, -r_k between neighbouring nodes of component k, and
    fac_k c_kl(x_i, t_n) between components k and l at node i.  Callable
    couplings are called on the interior nodes.  The oracle for the band
    the stepper writes and factors."""
    K, x, t = spec.K, grid.x[1:-1], float(grid.times[n])
    m = x.size
    A = np.zeros((K * m, K * m))
    for k, (a, d) in enumerate(zip(spec.orders, spec.diffusivities)):
        r = d * math.gamma(2.0 - a) * grid.dt ** a / grid.dx ** 2
        fac = grid.dx ** 2 * r / d
        rows = np.arange(m) * K + k
        A[rows, rows] = 1.0 + 2.0 * r
        A[rows[1:], rows[:-1]] = A[rows[:-1], rows[1:]] = -r
        for l, c in enumerate(spec.couplings[k]):
            A[rows, rows - k + l] += fac * (c(x, t) if callable(c) else float(c))
    return A


def gershgorin_gap(dense: np.ndarray) -> float:
    """min over rows of |centre| - radius of a dense matrix's Gershgorin
    disks: centre a_ii, radius sum_{j != i} |a_ij|."""
    dense = np.abs(dense)
    centres = np.diag(dense)
    return float(np.min(centres - (dense.sum(axis=1) - centres)))


def branch_cut_quad_reference(sym, t: float, numerator: str) -> float:
    """(1/pi) int_0^{45/t} e^{-rt} r^{alpha-1} n(r)/|q(r)|^2 dr by scalar
    QUADPACK (the algebraic-weight rule qawse, epsrel 1e-11), n = im_p for
    numerator "p" and n = im_exp for "exp", with its own error and tail
    checks: U and V/c2 along the cut, a second oracle for branch_cut_invert
    where the cut density has a narrow dip.  The closed forms q_of_r and
    im_parts are held to complex arithmetic in test_frac_ode."""
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


def branch_cut_talbot_reference(sym, t: float, dps: int = 30) -> tuple[float, float]:
    """(U(t), V(t)) by mpmath's Talbot inversion at dps digits of
    U^ = s^{alpha-1}(s^beta + c1)/D and V^ = c2 s^{alpha-1}/D,
    D = (s^alpha + c1)(s^beta + c1) - c2^2: the oracle for
    branch_cut_invert, with no rule in common with it."""
    with mpmath.workdps(dps):
        a, b, c1, c2 = (mpmath.mpf(v) for v in (sym.alpha, sym.beta, sym.c1, sym.c2))
        D = lambda s: (s ** a + c1) * (s ** b + c1) - c2 * c2
        transforms = (lambda s: s ** (a - 1) * (s ** b + c1) / D(s),
                      lambda s: c2 * s ** (a - 1) / D(s))
        return tuple(float(mpmath.invertlaplace(F, mpmath.mpf(t), method="talbot"))
                     for F in transforms)


def picard_iterates(spec, T: float, n_steps: int):
    """The path of picard_solve and the Picard iterates (U, V) of sweeps of
    its discrete map from the zero pair, up to the first within 1e-12
    max(1, |U|, |V|) of the path, in at most 200 sweeps.  The data U1, V1
    are picard_solve's with the couplings zeroed, and a sweep updates U
    from V, then V from the new U, by the map's own kernel moments and
    convolution."""
    path = picard_solve(spec, T, n_steps)
    data = picard_solve(replace(spec, mu1=0.0, mu2=0.0), T, n_steps)
    U1, V1 = data.U, data.V
    kA = (_kernel_moments(spec.alpha, spec.eta1, path.times, layer_exp=spec.beta)
          if spec.mu1 != 0.0 else None)
    kB = (_kernel_moments(spec.beta, spec.eta2, path.times, layer_exp=spec.alpha)
          if spec.mu2 != 0.0 else None)

    def sweep(V):
        U = U1 if kA is None else U1 + spec.mu1 * _convolve_linear(kA, V)
        return U, (V1 if kB is None else V1 + spec.mu2 * _convolve_linear(kB, U))

    scale = max(1.0, float(np.max(np.abs((path.U, path.V)))))
    iterates = [(np.zeros(n_steps + 1), np.zeros(n_steps + 1))]
    while np.max(np.abs(np.subtract(iterates[-1], (path.U, path.V)))) > 1e-12 * scale:
        if len(iterates) > 200:
            raise ValueError("Picard iterates miss the solution after 200 sweeps")
        iterates.append(sweep(iterates[-1][1]))
    return path, iterates


def picard_monotonicity(iterates) -> bool:
    """True iff the recorded Picard iterate pairs are pointwise
    non-decreasing, as they are for nonnegative data, with a slack of 1e-12
    of the iterate scale (see picard_iterates)."""
    for (U0, V0), (U1, V1) in zip(iterates, iterates[1:]):
        slack_u = 1e-12 * max(1.0, float(np.max(np.abs(U1))))
        slack_v = 1e-12 * max(1.0, float(np.max(np.abs(V1))))
        if np.any(U1 - U0 < -slack_u) or np.any(V1 - V0 < -slack_v):
            return False
    return True


def mode_one_norms(alpha: float, beta: float, dx: float, times) -> np.ndarray:
    """The exact time-continuous L2 norms, shape (2, times), of the K = 2
    space-discrete system on (0, pi) with unit diffusivities, couplings
    [[1, -1], [-1, 1]] and case (ii) data u0 = sin x, v0 = 0, for t >= 1.
    sin x is discrete sine mode 1 on every grid, with eigenvalue
    lam = (4/dx^2) sin^2(dx/2), so the solution stays (U(t), V(t)) sin x,
    with (U, V) the coupled ODE pair of c1 = lam + 1, c2 = 1, by branch-cut
    inversion: it shares no numerics with the L1 stepper.  The trapezoid norm
    of sin x on any grid of (0, pi) is sqrt(pi/2)."""
    lam = 4.0 / dx ** 2 * math.sin(0.5 * dx) ** 2
    U, V = branch_cut_invert(LaplaceSymbol(c1=lam + 1.0, c2=1.0, alpha=alpha, beta=beta),
                             np.asarray(times, dtype=float))
    return math.sqrt(0.5 * math.pi) * np.abs([U, V])


def principal_zero_count(sym) -> int:
    """Zeros of D(s) = (s^alpha + c1)(s^beta + c1) - c2^2 in the box
    |Re s| < R, 1e-9 R < Im s < R of the upper half plane, R = 4 c1^(1/beta)
    (zeros have |s^order| of order c1), by the argument principle: the
    winding number of D along the box boundary, resampled until no step
    turns by more than pi/2.  Conjugation covers the lower half plane, and
    D >= c1^2 - c2^2 > 0 on the positive axis.  Where D nearly vanishes next
    to the cut (orders 1.0/0.2, c1 = 1.9, c2 = 0.02) the sampling does not
    settle and ValueError is raised."""
    R = 4.0 * sym.c1 ** (1.0 / sym.beta)
    corners = [complex(-R, 1e-9 * R), complex(R, 1e-9 * R), complex(R, R), complex(-R, R)]
    samples = 512
    while samples <= 2 ** 15:
        s = np.concatenate([np.linspace(a, b, samples, endpoint=False)
                            for a, b in zip(corners, corners[1:] + corners[:1])])
        d = (s ** sym.alpha + sym.c1) * (s ** sym.beta + sym.c1) - sym.c2 ** 2
        turn = np.angle(np.roll(d, -1) / d)
        if np.max(np.abs(turn)) < 0.5 * math.pi:
            winding = float(np.sum(turn)) / (2.0 * math.pi)
            if abs(winding - round(winding)) > 0.05:
                raise ValueError(f"non-integer winding {winding:.3f}")
            return round(winding)
        samples *= 2
    raise ValueError("winding sampling did not stabilize")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
