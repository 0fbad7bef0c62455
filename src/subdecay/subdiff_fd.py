"""L1 finite-difference solver for weakly coupled subdiffusion systems on an
interval, with semi-implicit and fully implicit time stepping.

The K-component system on (0, L) with homogeneous Dirichlet walls is

    d^{a_k}(u_k - u_k(0)) - d_k u_k'' + sum_l c_kl(x,t) u_l = F_k(x,t),

with Caputo orders 1 >= a_1 >= ... >= a_K > 0.  Time discretization is the
classical L1 rule with weights b^j = (j+1)^{1-a} - j^{1-a} (backward Euler
falls out at a = 1); space is the second-order central difference.

One stepper per run carries the L1 memory as a sum of exponentials (after
Jiang, Zhang, Zhang & Zhang, Commun. Comput. Phys. 21 (2017) 650-678), so
every step costs the same and ``levels``, which yields each level as it is
made, holds O(modes) floats per node.  Its modes are a log-s trapezoid rule
for the fast part and, for the slow modes with s N <= 1/2, the 8-node Gauss
rule of their own measure: 29-66 modes per order for N from 2 to 16,000.
The states are carried scaled by e^{lag s_q}, as columns of one array
beside u^0 and the current level, so a step reads its whole right-hand side
out with one matrix product against a table of its phase: the weights b^n,
b^0 - b^1 and w_q e^{-lag s_q} and, for the semi-implicit scheme with
constant couplings, the lagged coupling load.  Each order then folds the new
level in with one BLAS rank-1 update, from tables of exact-rate
exponentials; each mode is renormalised at least every 64 steps, often
enough that no scale factor leaves 2^+-20 and data near either end of the
float range steps finitely.
Each step makes one banded solve of the K components together, in
node-interleaved ordering (bandwidth K each side): LAPACK gbtrf factors,
and two BLAS band sweeps (tbsv) solve, or gbtrs where pivoting interchanged
rows.  The stepper keeps one band and one factor of it, with its gbtrf
buffer, per run; one writer fills the band's 2K - 1 coupling diagonals.
The semi-implicit scheme lags the couplings and sources one level, so its
band holds no coupling and is factored once per run.  The fully implicit
scheme keeps them at the new level: its band is factored once per run when
the couplings are constant, and otherwise has its coupling diagonals
rewritten in place and is factored again, in the same buffer, at every
step.  SystemSpec's one sampler gives all couplings and sources at a time
level as two arrays, calling each callable once, so a step samples at most
once (at t_n for the semi-implicit scheme, at t_{n+1} for the fully
implicit one) and a run with constant couplings and no sources samples
nothing, neither per step nor to build its band.
The stepper certifies the factor it keeps for the run once, right after
making it: a bound on A - L U and on the sweeps' rounding, from its bands
and independent of n, that implies the 1e-12 residual bound for every
finite x, so its solves check only that x is finite.  All solves of a
per-step factor, of one with row interchanges and of one the certificate
refuses check the residual itself, with A x from BLAS gbmv and the bound's
scale formed only past 1e-12.
The stability check c_kk >= sum_{l != k} |c_kl|
(stability_margin) reads the couplings directly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg.blas import ddot, dgbmv, dger, dtbsv
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .errors import DomainError, SolverError
from .mittag_leffler import _rgamma

# relative size of the neglected parts of the L1 memory's exponential sum
_SOE_TOL = 1e-15
# nodes of the Gauss rule that stands in for the memory's slowest modes
_GAUSS_NODES = 8
# longest renormalisation period of the memory's scaled states, in steps,
# and the largest exponent lag * s_q a scale factor may reach (2^20)
_PERIOD = 64
_SCALE_LOG = 20.0 * math.log(2.0)
# the time steppers, by the name a run config gives them
SCHEMES = ("semi-implicit", "fully-implicit")


# ---------------------------------------------------------------------------
# grids, weights, system description


@dataclass(frozen=True)
class Grid:
    """Uniform space-time grid: I cells on (0, L), N steps to horizon T."""

    L: float
    I: int
    T: float
    N: int

    def __post_init__(self):
        """DomainError listing every problem, each named by its config key."""
        problems = [f"{name} must be finite and positive, got {value}"
                    for name, value in (("L", self.L), ("T", self.T))
                    if not 0.0 < value < math.inf]
        if self.I < 2 or self.N < 2:
            problems.append(f"need n_space >= 2 cells and n_time >= 2 steps, "
                            f"got I = {self.I} and N = {self.N}")
        if problems:
            raise DomainError("; ".join(problems))

    @property
    def dx(self) -> float:
        return self.L / self.I

    @property
    def dt(self) -> float:
        return self.T / self.N

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, self.L, self.I + 1)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.N + 1)


def l1_weights(gamma: float, n: int) -> np.ndarray:
    """L1 weights b^j = (j+1)^{1-gamma} - j^{1-gamma} for j = 0..n.

    b^0 = 1, the sequence is positive and strictly decreasing, and it
    telescopes: sum_{j<=n} b^j = (n+1)^{1-gamma}.  gamma = 1 degenerates to
    (1, 0, 0, ...), i.e. backward Euler.  Formed as
    j^{1-gamma} expm1((1-gamma) log1p(1/j)), a few ulps from exact, where
    the plain difference loses log10(j) digits.
    """
    if not 0.0 < gamma <= 1.0:
        raise DomainError(f"order must lie in (0, 1], got {gamma}")
    j = np.arange(1, n + 1, dtype=float)
    return np.concatenate(
        ([1.0], j ** (1.0 - gamma) * np.expm1((1.0 - gamma) * np.log1p(1.0 / j))))


CouplingEntry = float | Callable[[np.ndarray, float], np.ndarray]
SourceEntry = Callable[[np.ndarray, float], np.ndarray] | None
InitialEntry = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SystemSpec:
    """Coefficients of the coupled system: orders, diffusivities, the coupling
    matrix c[k][l] (constants or callables of (x, t)), per-component sources
    (None means zero) and initial profiles (callables of x).
    K = 2 and 3 are the validated component counts; K = 1 is the degenerate
    single-equation case used by convergence studies."""

    orders: tuple
    diffusivities: tuple
    couplings: Sequence[Sequence[CouplingEntry]]
    initials: Sequence[InitialEntry]
    sources: Sequence[SourceEntry] | None = None

    def __post_init__(self):
        """Lists as tuples of floats, then DomainError listing every problem,
        each named by its config key."""
        K = len(self.orders)
        object.__setattr__(self, "orders", tuple(float(a) for a in self.orders))
        object.__setattr__(self, "diffusivities",
                           tuple(float(d) for d in self.diffusivities))
        problems = [f"orders must lie in (0, 1], got {a}"
                    for a in self.orders if not 0.0 < a <= 1.0]
        if K < 1:
            problems.append("need at least one component")
        if any(x > y for x, y in zip(self.orders[1:], self.orders)):
            problems.append("orders must be non-increasing")
        if len(self.diffusivities) != K:
            problems.append("diffusivities length disagrees with orders")
        problems += [f"diffusivities must be finite and positive, got {d}"
                     for d in self.diffusivities if not 0.0 < d < math.inf]
        constants, calls = np.zeros((K * K + K, 1)), []  # _sample's table
        if len(self.couplings) != K or any(len(row) != K for row in self.couplings):
            problems.append("couplings must be a K x K matrix")
        else:
            for k, row in enumerate(self.couplings):
                for l, c in enumerate(row):
                    if callable(c):  # checked where _sample samples it
                        calls.append((k * K + l, f"coupling c[{k}][{l}]", c))
                    elif not math.isfinite(float(c)):
                        problems.append(f"couplings must be finite, got c[{k}][{l}] = {c}")
                    elif k == l and float(c) < 0.0:
                        problems.append(f"couplings need c[{k}][{k}] >= 0, got {c}")
        if len(self.initials) != K or not all(map(callable, self.initials)):
            problems.append("initials must be K callables of x")
        if self.sources is not None and len(self.sources) != K:
            problems.append("sources length disagrees with component count")
        if problems:
            raise DomainError("; ".join(problems))
        constants[:K * K, 0] = [0.0 if callable(c) else c for row in self.couplings for c in row]
        calls += [(K * K + k, f"source[{k}]", f)
                  for k, f in enumerate(self.sources or ()) if f is not None]
        object.__setattr__(self, "_constants", constants)
        object.__setattr__(self, "_calls", calls)

    @property
    def K(self) -> int:
        return len(self.orders)

    def _sample(self, x: np.ndarray, t: float):
        """The couplings, shape (K, K, m), and sources, shape (K, m), at the m
        nodes x and time t.  Row k K + l of one (K^2 + K, m) array holds
        c_kl, row K^2 + k source k: constants and absent sources are copied
        from the column built at construction, and each callable writes its
        row, called once.  One finiteness check covers every entry and one
        sign check the diagonal couplings; only where one fails is the first
        bad coefficient, in the order c[0][0], c[0][1], ..., source[0], ...,
        looked for.
        DomainError, naming the coefficient and t, where a sample does not
        broadcast to the nodes, is NaN or infinite, or c_kk < 0."""
        K = self.K
        values = np.repeat(self._constants, x.size, axis=1)
        for row, name, f in self._calls:
            value = np.asarray(f(x, t), dtype=float)
            try:
                values[row] = value
            except ValueError:
                raise DomainError(f"{name} of shape {value.shape} does not broadcast "
                                  f"to the {x.size} nodes at t={t:g}") from None
        if np.count_nonzero(np.isfinite(values)) < values.size or values[:K * K:K + 1].min() < 0:
            for row, name, _ in self._calls:
                if not np.isfinite(values[row]).all():
                    raise DomainError(f"{name} not finite at t={t:g}")
                if row < K * K and row % (K + 1) == 0 and values[row].min() < 0.0:
                    raise DomainError(f"diagonal {name} negative at t={t:g}")
        return values[:K * K].reshape(K, K, -1), values[K * K:]

    def couplings_constant(self) -> bool:
        return all(not callable(c) for row in self.couplings for c in row)


@dataclass
class History:
    """Full space-time solution: values[n, k, i] at time level n, component k,
    node i.  Level 0 is the sampled initial data; boundary nodes are 0."""

    grid: Grid
    values: np.ndarray


# ---------------------------------------------------------------------------
# banded matrices


@dataclass
class BandedMatrix:
    """Band storage in LAPACK layout: ab[u + i - j, j] = A[i, j].  BLAS reads
    a Fortran-ordered ab in place and copies any other, once per product."""

    lower: int
    upper: int
    ab: np.ndarray

    @property
    def n(self) -> int:
        return self.ab.shape[1]


def _band_product(matrix: BandedMatrix, ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x by BLAS gbmv for the band ab, laid out and shaped as matrix.ab.
    scipy's wrapper refuses fewer than lower + upper + 1 rows, so A is
    taken with at least that many: the rows past n read only the band's
    unused corner, and are dropped."""
    n = matrix.n
    rows = max(n, matrix.lower + matrix.upper + 1)
    return dgbmv(rows, n, matrix.lower, matrix.upper, 1.0, ab, x)[:n]


class _BandedLU:
    """LU factors of a banded matrix by LAPACK gbtrf (partial pivoting), kept
    with the matrix for the residual check.  Built once per run, and made
    again by factor() wherever the matrix's band changes in place.  gbtrf
    factors in place, in a flat buffer allocated once, with kl + ku spare
    entries at its end; from entry kl + ku on, at gbtrf's leading
    dimension, it is L's band.  Factors without row interchanges solve by
    two BLAS band sweeps (tbsv), the arithmetic of gbtrs without its call
    per column.

    Every solve checks its residual, except those of a factor that holds a
    certificate.  certify() puts the factor to it, and a passing factor
    holds it until factor() makes another; the stepper certifies the factor
    it keeps for a run, and no per-step factor.  With gamma_k = k u / (1 -
    k u), u = 2^-53, a factor without interchanges passes when

        ||A - L U||_inf + gamma_{2 kl + ku + 1} || |L| |U| ||_inf <= 1e-12 max|A|.

    The sweeps return an x with (L U + dA) x = b and |dA| <= gamma_{2 kl +
    ku + 1} |L| |U| (see certify), so max|b - A x| is at most that sum times
    max|x|: every finite x meets the residual bound, and a certified solve
    checks only that x is finite.  BLAS ddot of x with zeros is NaN exactly
    where x holds NaN or inf, cannot overflow on finite data near the float
    limit, and unlike numpy's product it warns of no inf * 0."""

    def __init__(self, matrix: BandedMatrix):
        kl, ku, n = matrix.lower, matrix.upper, matrix.n
        rows = 2 * kl + ku + 1
        buf = np.zeros(rows * n + kl + ku)
        # gbtrf wants kl spare rows above the band for the fill-in of pivoting
        self.ab = buf[:rows * n].reshape((rows, n), order="F")
        self._l_view = buf[kl + ku:].reshape((rows, n), order="F")
        self.matrix = matrix
        self.factor()

    def factor(self):
        """Factor the band the matrix holds now, in place of any earlier
        factor, and drop that factor's certificate: the new factor's solves
        check their residual until certify() passes it.  gbtrf zeroes the
        spare rows itself where it needs them.  SolverError where gbtrf
        fails."""
        kl, n = self.matrix.lower, self.matrix.n
        self.ab[kl:] = self.matrix.ab
        self.lu, self.piv, info = dgbtrf(self.ab, kl, self.matrix.upper, overwrite_ab=True)
        if info != 0:
            raise SolverError(f"banded solve failed: gbtrf info {info}"
                              + (" (singular matrix)" if info > 0 else ""))
        # gbtrf's piv[i] >= i, so piv is the identity iff it sums to n(n-1)/2
        self.l_band = self._l_view if self.piv.sum() == n * (n - 1) // 2 else None
        self.zeros = None

    def certify(self) -> bool:
        """Put the factor to the certificate of the class docstring: hold it
        (self.zeros) where it passes, drop it where it fails, and return the
        verdict.  A factor with row interchanges fails it.

        The bound counts the band, not n.  Row i of the L sweep (unit
        diagonal) forms at most kl products, and row i of the U sweep, over
        the kl + ku superdiagonals gbtrf keeps, at most kl + ku products and
        one division.  Higham, Accuracy and Stability of Numerical
        Algorithms, 2nd ed., Lemma 8.4 and Thm 8.5, applied row by row to
        the band storage, which is all the sweeps read, in whatever order
        they sum: the sweeps' y and x satisfy (L + dL) y = b and (U + dU) x
        = y with |dL| <= gamma_kl |L| and |dU| <= gamma_{kl + ku + 1} |U|.
        So b = (L U + dL U + L dU + dL dU) x, and by Lemma 3.3, gamma_kl +
        gamma_{kl + ku + 1} + gamma_kl gamma_{kl + ku + 1} <= gamma_{2 kl +
        ku + 1}, which bounds dA = dL U + L dU + dL dU by that gamma times
        |L| |U|; the term A - L U is computed, not bounded.

        A - L U is formed in the layout of lu, over U's kl + ku
        superdiagonals, from the products L[k + p, k] U[k, k + q], k < n -
        max(p, q), and its row sums are taken by gbmv, which skips the
        band's unused corners as the solve does.  A NaN anywhere fails it."""
        kl, uu, n = self.matrix.lower, self.matrix.lower + self.matrix.upper, self.matrix.n
        if self.l_band is None:  # interchanges: factor() dropped the certificate
            return False
        diff = np.vstack((np.zeros((kl, n)), self.matrix.ab))
        size = np.zeros(n)  # the row sums of |L| |U|
        for p in range(min(kl, n - 1) + 1):
            for q in range(min(uu, n - 1) + 1):
                count = n - max(p, q)
                term = (self.lu[uu + p, :count] if p else 1.0) * self.lu[uu - q, q:q + count]
                diff[uu + p - q, q:q + count] -= term
                size[p:p + count] += np.abs(term)
        gamma = (kl + uu + 1) * 2.0 ** -53 / (1.0 - (kl + uu + 1) * 2.0 ** -53)  # 2 kl + ku + 1
        error = _band_product(BandedMatrix(kl, uu, diff), np.abs(diff), np.ones(n)).max()
        passed = bool(error + gamma * size.max() <= 1e-12 * np.abs(self.matrix.ab).max())
        self.zeros = np.zeros(n) if passed else None
        return passed

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with A x = rhs, for rhs a float vector of length n; SolverError
        where the check below refuses x: a residual above 1e-12 max(1, max|A|
        max(|x|, 1) + max|rhs|), which a certified factor meets for every
        finite x, or an x that is not finite."""
        matrix = self.matrix
        if self.l_band is not None:
            x = dtbsv(matrix.lower + matrix.upper, self.lu,
                      dtbsv(matrix.lower, self.l_band, rhs, lower=1, diag=1), overwrite_x=1)
        else:
            x, info = dgbtrs(self.lu, matrix.lower, matrix.upper, rhs, self.piv)
            if info != 0:
                raise SolverError(f"banded solve failed: gbtrs info {info}")
        if self.zeros is None:
            resid = np.abs(_band_product(matrix, matrix.ab, x) - rhs).max()
            # the bound is never below 1e-12, so its scale is formed only past that
            if not resid <= 1e-12 and not resid <= 1e-12 * max(
                    np.abs(matrix.ab).max() * max(np.abs(x).max(), 1.0) + np.abs(rhs).max(), 1.0):
                raise SolverError(f"banded solve residual {resid:.2e} exceeds tolerance")
        elif math.isnan(ddot(x, self.zeros)):
            raise SolverError("banded solve residual not finite: x holds NaN or inf")
        return x


# ---------------------------------------------------------------------------
# scheme ingredients


def _r_coeffs(spec: SystemSpec, grid: Grid) -> np.ndarray:
    """r_k = d_k Gamma(2-a_k) dt^{a_k} / dx^2."""
    return np.array([
        d * math.gamma(2.0 - a) * grid.dt ** a / grid.dx ** 2
        for a, d in zip(spec.orders, spec.diffusivities)])


def stability_margin(spec: SystemSpec) -> float:
    """min over rows of c_kk - sum_{l != k} |c_kl| for constant couplings;
    the couplings are row-dominant (the stability condition) iff it is >= 0,
    and a zero margin means the Gershgorin disks touch the unit circle
    (still stable)."""
    if not spec.couplings_constant():
        raise DomainError("the stability margin needs constant couplings")
    c = spec._constants[:spec.K ** 2].reshape(spec.K, spec.K)
    return float(np.min(np.diag(c) - np.abs(c - np.diag(np.diag(c))).sum(axis=1)))


def _band(r: np.ndarray, m: int) -> BandedMatrix:
    """The system matrix of zero couplings on m interior nodes, in
    node-interleaved ordering (unknown (i, k) at row i*K + k), bandwidth K:
    1 + 2 r_k on the diagonal, -r_k on the spatial neighbours.  The
    couplings c_kl at the same node add fac_k c_kl, fac_k = dx^2 r_k / d_k
    (_write_couplings)."""
    K = r.size
    ab = np.zeros((2 * K + 1, m * K), order="F")
    for k in range(K):
        ab[K, k::K] = 1.0 + 2.0 * r[k]
        ab[0, K + k::K] = -r[k]          # A[i, i+K] stored at ab[0, i+K]
        ab[2 * K, k:-K:K] = -r[k]        # A[i, i-K] stored at ab[2K, i-K]
    return BandedMatrix(lower=K, upper=K, ab=ab)


def _write_couplings(band: BandedMatrix, r, fac, couplings: np.ndarray):
    """Rewrite in place the 2K - 1 coupling diagonals of a _band from
    couplings of shape (K, K, m), or (K, K, 1) for the same couplings at
    every node: A[i*K + k, i*K + l] = fac_k c_kl(x_i), plus 1 + 2 r_k where
    l = k.  The neighbours stay."""
    K = r.size
    for k, l in itertools.product(range(K), repeat=2):
        # A[i*K + k, i*K + l] is stored at ab[K + k - l, i*K + l]
        entry = fac[k] * couplings[k, l]
        band.ab[K + k - l, l::K] = entry + (1.0 + 2.0 * r[k]) if k == l else entry


def _gauss_rule(s: np.ndarray, w: np.ndarray, n: int):
    """Nodes and weights of the n-node Gauss rule of the discrete measure
    sum_q w_q delta(s_q), w_q > 0, n < len(s): Lanczos with full
    reorthogonalisation on diag(s) from sqrt(w), then the eigenpairs of the
    n x n Jacobi matrix.  The nodes lie inside [min s, max s] and the
    weights, total times the squared first eigenvector entries, are >= 0."""
    total = w.sum()
    basis = np.zeros((n, s.size))
    jacobi = np.zeros((n, n))
    v = np.sqrt(w / total)
    for j in range(n):
        basis[j] = v
        v = s * v
        jacobi[j, j] = basis[j] @ v
        for _ in range(2):
            v -= basis[:j + 1].T @ (basis[:j + 1] @ v)
        if j + 1 < n:
            jacobi[j, j + 1] = jacobi[j + 1, j] = np.linalg.norm(v)
            v /= jacobi[j, j + 1]
    nodes, vectors = np.linalg.eigh(jacobi)
    return nodes, total * vectors[0] ** 2


def _soe_modes(gamma: float, N: int):
    """Rates s_q and weights w_q with b^m - b^{m+1} = sum_q w_q e^{-m s_q}
    to ~1e-15 relative for 1 <= m <= N.

    The exact form is b^m - b^{m+1} = int_0^inf e^{-ms} (1-gamma)/Gamma(gamma)
    (1-e^{-s})^2 s^{gamma-2} ds.  The trapezoid rule, step 1/4 in log s, cut
    where the small-s part of the m = N term, or e^{-s}, drops below 1e-15,
    gives about 95-190 modes for N from 10 to 16,000, most of them at
    s N <= 1/2, where they span 15-27 decades.  Those are replaced by the
    8-node Gauss rule of their own measure sum_q w_q delta(s_q): it
    integrates e^{-ms} with ms <= 1/2 to a relative 0.5^16/16! ~ 7e-19, and
    29-66 modes remain for N from 2 to 16,000.  The low modes stay as they
    are when at most 8 of them have positive weight (tiny orders underflow
    every weight).  gamma = 1 (backward Euler) has no modes."""
    if gamma == 1.0:
        return np.empty(0), np.empty(0)
    h = 0.25
    lo = math.log(1.0 / N) + math.log(_SOE_TOL) / (1.0 + gamma)
    hi = math.log(-math.log(_SOE_TOL)) + 0.5
    s = np.exp(np.arange(lo, hi, h))
    w = h * (1.0 - gamma) * _rgamma(gamma) * np.expm1(-s) ** 2 * s ** (gamma - 1.0)
    low = (s * N <= 0.5) & (w > 0.0)
    if np.count_nonzero(low) > _GAUSS_NODES:
        nodes, weights = _gauss_rule(s[low], w[low], _GAUSS_NODES)
        s = np.concatenate((nodes, s[~low]))
        w = np.concatenate((weights, w[~low]))
    return s, w


class _Stepper:
    """The L1 time stepper of one run, built once by ``levels``.

    The memory of step n -> n+1 is b^n u^0 + sum_{m=0}^{n-1} (b^m - b^{m+1})
    u^{n-m}.  The u^0 and m = 0 terms are direct; the tail m >= 1 is a sum
    of exponentials over the states z_q = sum_{m>=1} e^{-m s_q} u^{n-m},
    which advance by z_q <- e^{-s_q} (z_q + u^n), so a step costs O(modes),
    not O(n).

    One Fortran-ordered (I-1, 2K + sum_k Q_k) array S holds u^0, u^n and
    every order's states as its columns, each order's Q_k states one block.
    The states are scaled: z_q = e^{-lag s_q} y_q, where lag counts the
    steps since mode q was last renormalised.  A step copies u^n into S and
    reads its right-hand side out as one matrix product of S with the table
    of its phase, whose column k holds b^n_k on u^0_k's row (written at each
    step), d0_k = b^0_k - b^1_k on u^n_k's row and w e^{-lag s} on order k's
    mode rows.  The semi-implicit scheme with constant couplings lags the
    coupling load -fac_k sum_l c_kl u^n_l in the same product: the u^n rows
    hold diag(d0) - diag(fac) C.  Step n = 0 has a table of its own, with
    neither d0 nor modes.  Both schemes take S @ table, (I-1, K): row i
    holds node i's K components, the node-interleaved order of the solve.

    Each order then folds u^n in by one in-place rank-1 update y += u^n
    (e^{lag s})^T on its block, from 64 x Q tables built here from the
    exact rates, and defers the decay.  Every R_q = min(64, 2^floor(log2(L
    / s_q))) steps (at least 1; 64 for a zero rate), with L = 20 ln 2, mode
    q is renormalised, y_q <- e^{-R_q s_q} y_q, and its lag restarts at 0.
    With the modes sorted by rate, R_q falls as s_q grows, so the modes due
    at one phase are a suffix.  The bound keeps every table factor within
    2^+-20, so data near either end of the float range steps finitely:
    with factors up to e^300, states of data of size 1e300 overflow.
    Rounding enters at each renormalisation instead of each step, so the
    memory's error does not grow with the lag as powers of a rounded
    e^{-s_q} would.

    The band and its one _BandedLU are built here: the band with no
    coupling for the semi-implicit scheme, whose coupling load is on the
    right-hand side, and with the couplings for the fully implicit one,
    written from the constants where they are constant, with no sample.
    A constant band, which the semi-implicit scheme's always is, is factored
    here, once, and its factor certified here, once; a factor made per step
    solves once and is never certified.  Where a coefficient is a callable,
    a step samples them all once, and from that sample takes the lagged load
    (C u summed over l, for callable couplings), or rewrites the fully
    implicit band's coupling diagonals in place and factors it again, and
    adds the sources in one product.
    """

    def __init__(self, spec: SystemSpec, grid: Grid, scheme: str, u0: np.ndarray):
        K, m = spec.K, grid.I - 1
        self.spec = spec
        self.x = grid.x[1:-1]
        self.times = grid.times
        self.b = np.array([l1_weights(a, grid.N) for a in spec.orders])
        self.r = _r_coeffs(spec, grid)
        self.fac = grid.dx ** 2 * self.r / np.asarray(spec.diffusivities)
        constant = spec.couplings_constant()
        self.lagged = scheme == "semi-implicit"
        # callable couplings: a lagged load, or a band refactored each step
        self.coupling_load = self.lagged and not constant
        self.refactor = not (constant or self.lagged)
        modes = [_soe_modes(a, grid.N) for a in spec.orders]
        state = np.zeros((m, 2 * K + sum(s.size for s, _ in modes)), order="F")
        state[:, :K] = np.transpose(u0)
        self.state, self.level = state, state[:, K:2 * K]
        # tables[p] serves the step at phase p = (n-1) mod 64, tables[64] step
        # n = 0; diagonals[p] is its u^0 rows' b^n, and folds[p] the updates
        # and renormalisations then, as views of the state and of its factors
        self.tables = tables = np.zeros((_PERIOD + 1, state.shape[1], K))
        self.diagonals = tables[:, :K].reshape(_PERIOD + 1, K * K)[:, ::K + 1]
        d0 = -2.0 * np.expm1(-math.log(2.0) * np.array(spec.orders))  # b^0 - b^1
        load = (-self.fac[:, None] * spec._constants[:K * K].reshape(K, K)
                if constant and self.lagged else np.zeros((K, K)))
        tables[:_PERIOD, K:2 * K] = (np.diag(d0) + load).T
        tables[_PERIOD, K:2 * K] = load.T
        self.folds = [[] for _ in range(_PERIOD + 1)]
        phase = np.arange(_PERIOD)
        due = (phase + 1) & -(phase + 1)  # largest power of 2 dividing p+1
        col = 2 * K
        for k, (s, w) in enumerate(modes):
            if s.size == 0:
                continue
            by_rate = np.argsort(s)
            s, w = s[by_rate], w[by_rate]
            _, e = np.frexp(_SCALE_LOG / np.maximum(s, _SCALE_LOG / _PERIOD))
            period = 2 ** np.maximum(e - 1, 0)
            lag = phase[:, None] % period * s
            y = state[:, col:col + s.size]
            tables[:_PERIOD, col:col + s.size, k] = w * np.exp(-lag)
            grow = np.exp(lag)
            # the factors are laid out as y, so a multiply is one contiguous pass
            renorm = np.asfortranarray(np.broadcast_to(np.exp(-period * s), y.shape))
            start = np.count_nonzero(period > due[:, None], axis=1)
            for p, q in enumerate(start):
                self.folds[p].append((state[:, K + k], grow[p], y, y[:, q:], renorm[:, q:]))
            col += s.size
        self.band = _band(self.r, m)
        if constant and not self.lagged:
            _write_couplings(self.band, self.r, self.fac,
                             spec._constants[:K * K].reshape(K, K, 1))
        self.lu = _BandedLU(self.band)
        if not self.refactor:  # one factor solves every step: certify it once
            self.lu.certify()

    def memory(self, n: int, u: np.ndarray) -> np.ndarray:
        """The L1 memory of step n -> n+1, shape (K, I-1), given level n,
        as a view of the node-interleaved product; for the semi-implicit
        scheme with constant couplings, the lagged coupling load is in it.

        Call once per step with n = 0, 1, 2, ...: it folds u^n into the
        exponential states for the steps that follow.
        """
        p = (n - 1) % _PERIOD if n else _PERIOD
        table = self.tables[p]
        self.level[...] = u.T
        self.diagonals[p] = self.b[:, n]
        out = (self.state @ table).T
        for level, grow, y, states, renorm in self.folds[p]:
            dger(1.0, level, grow, a=y, overwrite_a=True)
            np.multiply(states, renorm, out=states)
        return out

    def step(self, n: int, u: np.ndarray) -> np.ndarray:
        """Level n+1 on the interior nodes, shape (K, I-1), from level n."""
        rhs = self.memory(n, u)
        if self.spec._calls:  # one sample a step, a level late if the scheme lags it
            couplings, sources = self.spec._sample(self.x, float(self.times[n + 1 - self.lagged]))
            if self.coupling_load:  # -fac_k sum_l c_kl(x, t) u_l
                rhs -= self.fac[:, None] * (couplings * u).sum(axis=1)
            elif self.refactor:
                _write_couplings(self.band, self.r, self.fac, couplings)
                self.lu.factor()
            rhs += self.fac[:, None] * sources
        # node-interleaved ordering, unknown (i, k) at row i*K + k: rhs.T is
        # the product as memory made it, so the flattening copies nothing
        rhs = rhs.T.reshape(-1)
        return self.lu.solve(rhs).reshape(u.shape[::-1]).T


def levels(spec: SystemSpec, grid: Grid, scheme: str = "semi-implicit"):
    """An iterator over the interior of every time level, shape (K, I-1),
    n = 0..N: the initial profiles sampled with zero walls (homogeneous
    Dirichlet), then one stepper's levels.  The scheme is checked and the
    stepper built when it is called.  A consumer may keep a level but must
    not write to it, as the stepper reads it to make the next."""
    if scheme not in SCHEMES:
        raise DomainError(f"unknown scheme {scheme!r}")
    u = np.zeros((spec.K, grid.I + 1))
    for k, initial in enumerate(spec.initials):
        u[k] = initial(grid.x)
    u = u[:, 1:-1]
    stepper = _Stepper(spec, grid, scheme, u)
    return itertools.accumulate(range(grid.N), lambda u, n: stepper.step(n, u), initial=u)


def simulate(spec: SystemSpec, grid: Grid, scheme: str = "semi-implicit") -> History:
    """Every level of ``levels``, with its zero walls, as a History."""
    values = np.zeros((grid.N + 1, spec.K, grid.I + 1))
    for n, u in enumerate(levels(spec, grid, scheme)):
        values[n, :, 1:-1] = u
    return History(grid=grid, values=values)
