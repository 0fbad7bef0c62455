"""L1 finite-difference solver for weakly coupled subdiffusion systems on an
interval, with semi-implicit and fully implicit time stepping.

The K-component system on (0, L) with homogeneous Dirichlet walls is

    d^{a_k}(u_k - u_k(0)) - d_k u_k'' + sum_l c_kl(x,t) u_l = F_k(x,t),

with Caputo orders 1 >= a_1 >= ... >= a_K > 0.  Time discretization is the
classical L1 rule with weights b^j = (j+1)^{1-a} - j^{1-a} (backward Euler
falls out at a = 1); space is the second-order central difference.

One stepper per run carries the L1 memory as a sum of exponentials (after
Jiang, Zhang, Zhang & Zhang, Commun. Comput. Phys. 21 (2017) 650-678), so
every step costs the same.  Its modes are a log-s trapezoid rule for the
fast part and, for the slow modes with s N <= 1/2, the 8-node Gauss rule of
their own discrete measure: 29-66 modes per order for N from 2 to 16,000.
Each order's states are carried scaled by e^{lag s_q}, so a step reads them
out with one matrix-vector product and folds the new level in with one BLAS
rank-1 update, from tables of exact-rate exponentials; each mode is
renormalised at least every 64 steps, often enough that no scale factor
leaves 2^+-20 and data near either end of the float range steps finitely.
Each step makes one banded solve: LAPACK gbtrf factors, and two BLAS band
sweeps (tbsv) solve, or gbtrs where pivoting interchanged rows.  Its 1e-12
residual check takes A x from BLAS gbmv and forms its scale only past 1e-12.
The semi-implicit scheme lags the coupling and source one level, so the K
components decouple into one block-diagonal tridiagonal system, factored
once per run.  The fully implicit scheme keeps the couplings at the new
level and solves one banded system in node-interleaved ordering (bandwidth
K each side), factored once per run when the couplings are constant and at
every step otherwise; Gershgorin disks of that matrix drive the stability
check c_kk >= sum_{l != k} |c_kl|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg.blas import dgbmv, dger, dtbsv
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.special import rgamma

from .decay import l2_norm
from .errors import DomainError, SolverError

# relative size of the neglected parts of the L1 memory's exponential sum
_SOE_TOL = 1e-15
# nodes of the Gauss rule that stands in for the memory's slowest modes
_GAUSS_NODES = 8
# longest renormalisation period of the memory's scaled states, in steps,
# and the largest exponent lag * s_q a scale factor may reach (2^20)
_PERIOD = 64
_SCALE_LOG = 20.0 * math.log(2.0)


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
        if not (0.0 < self.L < math.inf and 0.0 < self.T < math.inf):
            raise DomainError(f"L and T must be positive and finite, got L={self.L}, T={self.T}")
        if self.I < 2 or self.N < 2:
            raise DomainError("need I >= 2 space cells and N >= 2 time steps")

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


def _at_nodes(values, x: np.ndarray, name: str, t: float) -> np.ndarray:
    """A coefficient callable's return as floats of the nodes' shape: node
    arrays as they are, scalars broadcast.  DomainError, naming the
    coefficient and t, where a sample is NaN or infinite."""
    values = np.asarray(values, dtype=float)
    if values.shape != x.shape:
        values = values * np.ones_like(x)
    # count_nonzero is the cheapest full reduction of the mask
    if np.count_nonzero(np.isfinite(values)) < values.size:
        raise DomainError(f"{name} not finite at t={t:g}")
    return values


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
        K = len(self.orders)
        object.__setattr__(self, "orders", tuple(float(a) for a in self.orders))
        object.__setattr__(self, "diffusivities",
                           tuple(float(d) for d in self.diffusivities))
        problems = []
        if K < 1:
            problems.append("need at least one component")
        if len(self.diffusivities) != K or len(self.couplings) != K \
                or len(self.initials) != K:
            problems.append("orders/diffusivities/couplings/initials lengths disagree")
        for a in self.orders:
            if not 0.0 < a <= 1.0:
                problems.append(f"order {a} outside (0, 1]")
        if any(x > y + 1e-15 for x, y in zip(self.orders[1:], self.orders[:-1])):
            problems.append("orders must be non-increasing")
        for d in self.diffusivities:
            if not 0.0 < d < math.inf:
                problems.append(f"diffusivity {d} must be positive and finite")
        if not problems:
            for k in range(K):
                if len(self.couplings[k]) != K:
                    problems.append(f"coupling row {k} has wrong length")
                    continue
                for l, c in enumerate(self.couplings[k]):
                    if not callable(c) and not math.isfinite(float(c)):
                        problems.append(f"coupling c[{k}][{l}] = {c} must be finite")
                ckk = self.couplings[k][k]
                if not callable(ckk) and float(ckk) < 0.0:
                    problems.append(f"diagonal coupling c[{k}][{k}] = {ckk} < 0")
                if not callable(self.initials[k]):
                    problems.append(f"initial profile {k} must be a callable of x")
        if self.sources is not None and len(self.sources) != K:
            problems.append("sources length disagrees with component count")
        if problems:
            raise DomainError("; ".join(problems))

    @property
    def K(self) -> int:
        return len(self.orders)

    def coupling_at(self, k: int, l: int, x: np.ndarray, t: float) -> np.ndarray:
        """c_kl at the nodes x and time t; DomainError where a sample is not
        finite or c_kk < 0."""
        c = self.couplings[k][l]
        if not callable(c):
            return np.full_like(x, float(c))
        vals = _at_nodes(c(x, t), x, f"coupling c[{k}][{l}]", t)
        if k == l and vals.min() < 0.0:
            raise DomainError(f"diagonal coupling c[{k}][{k}] negative at t={t:g}")
        return vals

    def source_at(self, k: int, x: np.ndarray, t: float) -> np.ndarray:
        """Source k at the nodes x and time t; DomainError where a sample is
        not finite."""
        if self.sources is None or self.sources[k] is None:
            return np.zeros_like(x)
        return _at_nodes(self.sources[k](x, t), x, f"source[{k}]", t)

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
    with the matrix for the residual check of every solve.  Built once per
    run for a constant matrix, once per step for a time-varying one.  gbtrf
    factors in place, in a flat buffer with kl + ku spare entries at its end;
    from entry kl + ku on, at gbtrf's leading dimension, it is L's band.
    Factors without row interchanges solve by two BLAS band sweeps (tbsv),
    the arithmetic of gbtrs without its call per column."""

    def __init__(self, matrix: BandedMatrix):
        kl, ku, n = matrix.lower, matrix.upper, matrix.n
        rows = 2 * kl + ku + 1
        buf = np.zeros(rows * n + kl + ku)
        # gbtrf wants kl spare rows above the band for the fill-in of pivoting
        ab = buf[:rows * n].reshape((rows, n), order="F")
        ab[kl:] = matrix.ab
        self.lu, self.piv, info = dgbtrf(ab, kl, ku, overwrite_ab=True)
        if info != 0:
            raise SolverError(f"banded solve failed: gbtrf info {info}"
                              + (" (singular matrix)" if info > 0 else ""))
        self.l_band = (buf[kl + ku:].reshape((rows, n), order="F")
                      if np.array_equal(self.piv, np.arange(n)) else None)
        self.matrix = matrix

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        matrix = self.matrix
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (matrix.n,):
            raise DomainError(f"rhs shape {rhs.shape} does not match n={matrix.n}")
        if self.l_band is not None:
            x = dtbsv(matrix.lower + matrix.upper, self.lu,
                      dtbsv(matrix.lower, self.l_band, rhs, lower=1, diag=1), overwrite_x=1)
        else:
            x, info = dgbtrs(self.lu, matrix.lower, matrix.upper, rhs, self.piv)
            if info != 0:
                raise SolverError(f"banded solve failed: gbtrs info {info}")
        resid = np.abs(_band_product(matrix, matrix.ab, x) - rhs).max()
        # the bound is never below 1e-12, so its scale is formed only past that
        if not resid <= 1e-12 and not resid <= 1e-12 * max(
                np.abs(matrix.ab).max() * max(np.abs(x).max(), 1.0) + np.abs(rhs).max(), 1.0):
            raise SolverError(f"banded solve residual {resid:.2e} exceeds tolerance")
        return x


def banded_solve(matrix: BandedMatrix | _BandedLU, rhs: np.ndarray) -> np.ndarray:
    """Solve a banded system by LAPACK banded LU with partial pivoting (gbtrf,
    then two BLAS band sweeps, or gbtrs after row interchanges); an already
    factored matrix skips the factoring.  A singular system, or a residual
    above 1e-12 max(1, max|A| max(|x|, 1) + max|b|), raises SolverError, as
    non-finite input always does; the scale is formed only past 1e-12."""
    lu = matrix if isinstance(matrix, _BandedLU) else _BandedLU(matrix)
    return lu.solve(rhs)


def gershgorin_disks(matrix: BandedMatrix):
    """One (center, radius) pair per row: center the diagonal entry, radius
    the absolute off-diagonal row sum, |A| times ones less |center|."""
    centers = matrix.ab[matrix.upper]
    radii = _band_product(matrix, np.abs(matrix.ab), np.ones(matrix.n)) - np.abs(centers)
    return [(float(c), float(r)) for c, r in zip(centers, radii)]


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
    K = spec.K
    margins = []
    for k in range(K):
        row = [float(spec.couplings[k][l]) for l in range(K)]
        margins.append(row[k] - sum(abs(row[l]) for l in range(K) if l != k))
    return float(min(margins))


def assemble_block_matrix(spec: SystemSpec, grid: Grid, time_index: int) -> BandedMatrix:
    """Fully implicit system matrix at the given time level, in
    node-interleaved ordering (unknown (i, k) at row i*K + k), bandwidth K.

    Diagonal: 1 + 2 r_k + (dx^2 r_k / d_k) c_kk; spatial neighbours: -r_k;
    cross-component couplings at the same node: (dx^2 r_k / d_k) c_kl.
    """
    K = spec.K
    n = (grid.I - 1) * K
    # grid.x[1:-1] and grid.times[time_index], bit for bit, without
    # building every node and all N+1 levels
    x = np.arange(1, grid.I) * grid.dx
    t = grid.T if time_index == grid.N else time_index * (grid.T / grid.N)
    r = _r_coeffs(spec, grid)
    fac = grid.dx ** 2 * r / np.asarray(spec.diffusivities)
    ab = np.zeros((2 * K + 1, n), order="F")
    for k in range(K):
        for l in range(K):
            # A[i*K + k, i*K + l] is stored at ab[K + k - l, i*K + l]
            entry = fac[k] * spec.coupling_at(k, l, x, float(t))
            ab[K + k - l, l::K] = entry + (1.0 + 2.0 * r[k]) if k == l else entry
        # spatial neighbours: columns shifted by +-K
        ab[0, K + k::K] = -r[k]          # A[i, i+K] stored at ab[0, i+K]
        ab[2 * K, k:n - K:K] = -r[k]     # A[i, i-K] stored at ab[2K, i-K]
    return BandedMatrix(lower=K, upper=K, ab=ab)


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
    w = h * (1.0 - gamma) * rgamma(gamma) * np.expm1(-s) ** 2 * s ** (gamma - 1.0)
    low = (s * N <= 0.5) & (w > 0.0)
    if np.count_nonzero(low) > _GAUSS_NODES:
        nodes, weights = _gauss_rule(s[low], w[low], _GAUSS_NODES)
        s = np.concatenate((nodes, s[~low]))
        w = np.concatenate((weights, w[~low]))
    return s, w


class _Stepper:
    """The L1 time stepper of one run, built once by ``simulate``.

    The memory of step n -> n+1 is b^n u^0 + sum_{m=0}^{n-1} (b^m - b^{m+1})
    u^{n-m}.  The u^0 and m = 0 terms are direct; the tail m >= 1 is a sum
    of exponentials over the states z_q = sum_{m>=1} e^{-m s_q} u^{n-m},
    which advance by z_q <- e^{-s_q} (z_q + u^n), so a step costs O(modes),
    not O(n).

    Each order keeps its states scaled, as the columns of one (I-1, Q)
    array y with z_q = e^{-lag s_q} y_q, where lag counts the steps since
    mode q was last renormalised.  A step reads the memory out as
    y @ (w e^{-lag s}) and folds u^n in by one in-place rank-1 update
    y += u^n (e^{lag s})^T, from 64 x Q tables built here from the exact
    rates, and defers the decay.  Every R_q = min(64, 2^floor(log2(L/s_q)))
    steps (at least 1; 64 for a zero rate), with L = 20 ln 2, mode q is
    renormalised, y_q <- e^{-R_q s_q} y_q, and its lag restarts at 0.  With
    the modes sorted by rate, R_q falls as s_q grows, so the modes due at
    one phase are a suffix.  The bound keeps every table factor within
    2^+-20, so data near either end of the float range steps finitely:
    with factors up to e^300, states of data of size 1e300 overflow.
    Rounding enters at each renormalisation instead of each step, so the
    memory's error does not grow with the lag as powers of a rounded
    e^{-s_q} would.  A constant system matrix is factored here, once.
    """

    def __init__(self, spec: SystemSpec, grid: Grid, scheme: str, u0: np.ndarray):
        K, m = spec.K, grid.I - 1
        self.spec, self.grid, self.scheme = spec, grid, scheme
        self.x = grid.x[1:-1]
        self.times = grid.times
        self.u0 = np.array(u0, dtype=float)
        self.b = np.array([l1_weights(a, grid.N) for a in spec.orders])
        self.d0 = -2.0 * np.expm1(-math.log(2.0) * np.array(spec.orders))  # b^0 - b^1
        # per order with modes: (k, y, readout, grow, renorms); row p of the
        # tables serves the step at phase p = (n-1) mod 64, and renorms[p] is
        # the modes renormalised then, as views of y and of its factors
        self.memories = []
        phase = np.arange(_PERIOD)
        due = (phase + 1) & -(phase + 1)  # largest power of 2 dividing p+1
        for k, a in enumerate(spec.orders):
            s, w = _soe_modes(a, grid.N)
            if s.size == 0:
                continue
            by_rate = np.argsort(s)
            s, w = s[by_rate], w[by_rate]
            _, e = np.frexp(_SCALE_LOG / np.maximum(s, _SCALE_LOG / _PERIOD))
            period = 2 ** np.maximum(e - 1, 0)
            lag = phase[:, None] % period * s
            # the factors are laid out as y, so a multiply is one contiguous pass
            y = np.zeros((m, s.size), order="F")
            renorm = np.asfortranarray(np.broadcast_to(np.exp(-period * s), y.shape))
            start = np.count_nonzero(period > due[:, None], axis=1)
            self.memories.append((k, y, w * np.exp(-lag), np.exp(lag),
                                  [(y[:, q:], renorm[:, q:]) for q in start]))
        r = _r_coeffs(spec, grid)
        self.fac = grid.dx ** 2 * r / np.asarray(spec.diffusivities)
        self.couplings = (np.array(spec.couplings, dtype=float)
                          if spec.couplings_constant() else None)
        self.sourced = [k for k in range(K)
                        if spec.sources is not None and spec.sources[k] is not None]
        if scheme == "semi-implicit":
            ab = np.zeros((3, K * m), order="F")
            ab[0] = ab[2] = -np.repeat(r, m)
            ab[1] = 1.0 + 2.0 * np.repeat(r, m)
            ab[0, ::m] = 0.0          # A[j, j+1] at ab[0, j+1]: none across blocks
            ab[2, m - 1::m] = 0.0     # A[j+1, j] at ab[2, j]
            self.lu = _BandedLU(BandedMatrix(lower=1, upper=1, ab=ab))
        else:
            self.lu = (_BandedLU(assemble_block_matrix(spec, grid, 0))
                       if self.couplings is not None else None)

    def memory(self, n: int, u: np.ndarray) -> np.ndarray:
        """The L1 memory of step n -> n+1, shape (K, I-1), given level n.

        Call once per step with n = 0, 1, 2, ...: it folds u^n into the
        exponential states for the steps that follow.
        """
        out = self.b[:, n, None] * self.u0
        if n == 0:
            return out
        out += self.d0[:, None] * u
        p = (n - 1) % _PERIOD
        for k, y, readout, grow, renorms in self.memories:
            out[k] += y @ readout[p]
            dger(1.0, u[k], grow[p], a=y, overwrite_a=True)
            states, renorm = renorms[p]
            np.multiply(states, renorm, out=states)
        return out

    def _coupled(self, t: float, u: np.ndarray) -> np.ndarray:
        """sum_l c_kl(x, t) u_l for every k."""
        if self.couplings is not None:
            return self.couplings @ u
        K = self.spec.K
        return np.array([sum(self.spec.coupling_at(k, l, self.x, t) * u[l] for l in range(K))
                         for k in range(K)])

    def step(self, n: int, u: np.ndarray) -> np.ndarray:
        """Level n+1 on the interior nodes, shape (K, I-1), from level n."""
        rhs = self.memory(n, u)
        K, m = rhs.shape
        if self.scheme == "semi-implicit":
            t = float(self.times[n])
            load = -self._coupled(t, u)
            for k in self.sourced:
                load[k] += self.spec.source_at(k, self.x, t)
            rhs += self.fac[:, None] * load
            return banded_solve(self.lu, rhs.reshape(-1)).reshape(K, m)
        t = float(self.times[n + 1])
        for k in self.sourced:
            rhs[k] += self.fac[k] * self.spec.source_at(k, self.x, t)
        matrix = self.lu if self.lu is not None else \
            assemble_block_matrix(self.spec, self.grid, n + 1)
        # node-interleaved ordering: unknown (i, k) at row i*K + k
        return banded_solve(matrix, rhs.T.reshape(-1)).reshape(m, K).T


def simulate(spec: SystemSpec, grid: Grid, scheme: str = "semi-implicit") -> History:
    """Run the chosen scheme over the whole grid and return the History.

    Initial profiles are sampled at the nodes with boundary values forced to
    zero (homogeneous Dirichlet).  For coefficient functions, the diagonal
    couplings are checked for nonnegativity as they are sampled.
    """
    if scheme not in ("semi-implicit", "fully-implicit"):
        raise DomainError(f"unknown scheme {scheme!r}")
    K = spec.K
    values = np.zeros((grid.N + 1, K, grid.I + 1))
    x = grid.x
    for k in range(K):
        values[0, k, :] = spec.initials[k](x)
    values[0, :, 0] = 0.0
    values[0, :, -1] = 0.0
    stepper = _Stepper(spec, grid, scheme, values[0, :, 1:-1])
    for n in range(grid.N):
        values[n + 1, :, 1:-1] = stepper.step(n, values[n, :, 1:-1])
    return History(grid=grid, values=values)


def norm_history(history: History, stride: int = 1):
    """Times and discrete L2 norms (trapezoid) of every component, strided."""
    grid = history.grid
    sel = np.arange(0, grid.N + 1, stride)
    return grid.times[sel], l2_norm(history.values[sel], grid.dx)
