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
their own discrete measure: 29-66 modes per order for N from 2 to 16,000,
all components' states in one array.  Each step makes one LAPACK banded solve
(gbtrf/gbtrs, with a 1e-12 residual check).  The semi-implicit scheme lags
the coupling and source one level, so the K components decouple into one
block-diagonal tridiagonal system, factored once per run.  The fully
implicit scheme keeps the couplings at the new level and solves one banded
system in node-interleaved ordering (bandwidth K each side), factored once
per run when the couplings are constant and at every step otherwise;
Gershgorin disks of that matrix drive the stability check
c_kk >= sum_{l != k} |c_kl|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.special import rgamma

from .decay import l2_norm
from .errors import DomainError, SolverError

# relative size of the neglected parts of the L1 memory's exponential sum
_SOE_TOL = 1e-15
# nodes of the Gauss rule that stands in for the memory's slowest modes
_GAUSS_NODES = 8


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
InitialEntry = Callable[[np.ndarray], np.ndarray] | np.ndarray


@dataclass(frozen=True)
class SystemSpec:
    """Coefficients of the coupled system: orders, diffusivities, the coupling
    matrix c[k][l] (constants or callables of (x, t)), per-component sources
    (None means zero) and initial profiles (callables of x or sampled arrays).
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
        if self.sources is not None and len(self.sources) != K:
            problems.append("sources length disagrees with component count")
        if problems:
            raise DomainError("; ".join(problems))

    @property
    def K(self) -> int:
        return len(self.orders)

    def coupling_at(self, k: int, l: int, x: np.ndarray, t: float) -> np.ndarray:
        """c_kl at the nodes x and time t; DomainError where c_kk < 0."""
        c = self.couplings[k][l]
        if not callable(c):
            return np.full_like(x, float(c))
        vals = np.asarray(c(x, t), dtype=float) * np.ones_like(x)
        if k == l and np.any(vals < 0.0):
            raise DomainError(f"diagonal coupling c[{k}][{k}] negative at t={t:g}")
        return vals

    def source_at(self, k: int, x: np.ndarray, t: float) -> np.ndarray:
        if self.sources is None or self.sources[k] is None:
            return np.zeros_like(x)
        return np.asarray(self.sources[k](x, t), dtype=float) * np.ones_like(x)

    def initial_profile(self, k: int, x: np.ndarray) -> np.ndarray:
        u0 = self.initials[k]
        if callable(u0):
            vals = np.asarray(u0(x), dtype=float)
        else:
            vals = np.asarray(u0, dtype=float)
            if vals.shape != x.shape:
                raise DomainError(
                    f"initial profile {k} has {vals.shape}, grid has {x.shape}")
        return vals

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
    """Band storage in LAPACK layout: ab[u + i - j, j] = A[i, j]."""

    lower: int
    upper: int
    ab: np.ndarray

    @property
    def n(self) -> int:
        return self.ab.shape[1]

    def to_dense(self) -> np.ndarray:
        n = self.n
        dense = np.zeros((n, n))
        band, j = np.indices(self.ab.shape)
        i = band - self.upper + j
        inside = (i >= 0) & (i < n)
        dense[i[inside], j[inside]] = self.ab[inside]
        return dense

    def matvec(self, x: np.ndarray) -> np.ndarray:
        n = self.n
        y = np.zeros(n)
        for d in range(-self.lower, self.upper + 1):
            # diagonal d holds A[i, i+d] = ab[upper-d, i+d]
            i0 = max(0, -d)
            i1 = n - max(0, d)
            if i1 > i0:
                y[i0:i1] += self.ab[self.upper - d, i0 + d:i1 + d] * x[i0 + d:i1 + d]
        return y


def banded_from_dense(dense: np.ndarray) -> BandedMatrix:
    dense = np.asarray(dense, dtype=float)
    n = dense.shape[0]
    if dense.shape != (n, n):
        raise DomainError("matrix must be square")
    nz = np.nonzero(dense)
    lower = int(np.max(nz[0] - nz[1], initial=0))
    upper = int(np.max(nz[1] - nz[0], initial=0))
    ab = np.zeros((lower + upper + 1, n))
    ab[upper + nz[0] - nz[1], nz[1]] = dense[nz]
    return BandedMatrix(lower=lower, upper=upper, ab=ab)


class _BandedLU:
    """LU factors of a banded matrix by LAPACK gbtrf (partial pivoting), kept
    with the matrix for the residual check of every solve.  Built once per
    run for a constant matrix, once per step for a time-varying one."""

    def __init__(self, matrix: BandedMatrix):
        kl, ku = matrix.lower, matrix.upper
        # gbtrf wants kl spare rows above the band for the fill-in of pivoting
        ab = np.zeros((2 * kl + ku + 1, matrix.n), order="F")
        ab[kl:] = matrix.ab
        self.lu, self.piv, info = dgbtrf(ab, kl, ku, overwrite_ab=True)
        if info != 0:
            raise SolverError(f"banded solve failed: gbtrf info {info}"
                              + (" (singular matrix)" if info > 0 else ""))
        self.matrix = matrix
        self.ab_max = np.abs(matrix.ab).max()

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        matrix = self.matrix
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (matrix.n,):
            raise DomainError(f"rhs shape {rhs.shape} does not match n={matrix.n}")
        x, info = dgbtrs(self.lu, matrix.lower, matrix.upper, rhs, self.piv)
        if info != 0:
            raise SolverError(f"banded solve failed: gbtrs info {info}")
        scale = self.ab_max * max(np.abs(x).max(), 1.0) + np.abs(rhs).max()
        resid = np.abs(matrix.matvec(x) - rhs).max()
        if not resid <= 1e-12 * max(scale, 1.0):
            raise SolverError(f"banded solve residual {resid:.2e} exceeds tolerance")
        return x


def banded_solve(matrix: BandedMatrix | np.ndarray | _BandedLU,
                 rhs: np.ndarray) -> np.ndarray:
    """Solve a banded system by LAPACK banded LU with partial pivoting
    (gbtrf, then gbtrs); an already factored matrix skips the factoring.
    The relative residual is checked against 1e-12, which also catches
    non-finite input; a singular or unusable system raises SolverError."""
    if isinstance(matrix, np.ndarray):
        matrix = banded_from_dense(matrix)
    lu = matrix if isinstance(matrix, _BandedLU) else _BandedLU(matrix)
    return lu.solve(rhs)


def gershgorin_disks(matrix: BandedMatrix | np.ndarray):
    """One (center, radius) pair per row: center the diagonal entry, radius
    the absolute off-diagonal row sum."""
    dense = matrix.to_dense() if isinstance(matrix, BandedMatrix) else np.asarray(matrix, float)
    n = dense.shape[0]
    if dense.shape != (n, n):
        raise DomainError("matrix must be square")
    centers = np.diag(dense)
    radii = np.sum(np.abs(dense), axis=1) - np.abs(centers)
    return [(float(c), float(r)) for c, r in zip(centers, radii)]


# ---------------------------------------------------------------------------
# scheme ingredients


def _r_coeffs(spec: SystemSpec, grid: Grid) -> np.ndarray:
    """r_k = d_k Gamma(2-a_k) dt^{a_k} / dx^2."""
    return np.array([
        d * math.gamma(2.0 - a) * grid.dt ** a / grid.dx ** 2
        for a, d in zip(spec.orders, spec.diffusivities)])


def stability_condition(spec: SystemSpec, grid: Grid | None = None) -> bool:
    """Row-dominance of the couplings: c_kk >= sum_{l != k} |c_kl| pointwise.

    Constant couplings are checked directly; coefficient functions need a
    grid to sample at its nodes and time levels.
    """
    return stability_margin(spec, grid) >= 0.0


def stability_margin(spec: SystemSpec, grid: Grid | None = None) -> float:
    """min over rows/space/time of c_kk - sum_{l != k} |c_kl|; zero margin
    means the Gershgorin disks touch the unit circle (still stable)."""
    K = spec.K
    if spec.couplings_constant():
        margins = []
        for k in range(K):
            row = [float(spec.couplings[k][l]) for l in range(K)]
            margins.append(row[k] - sum(abs(row[l]) for l in range(K) if l != k))
        return float(min(margins))
    if grid is None:
        raise DomainError("time/space-dependent couplings need a grid to sample")
    x = grid.x[1:-1]
    worst = math.inf
    for t in grid.times:
        for k in range(K):
            diag = spec.coupling_at(k, k, x, float(t))
            off = np.zeros_like(x)
            for l in range(K):
                if l != k:
                    off += np.abs(spec.coupling_at(k, l, x, float(t)))
            worst = min(worst, float(np.min(diag - off)))
    return worst


def assemble_block_matrix(spec: SystemSpec, grid: Grid, time_index: int) -> BandedMatrix:
    """Fully implicit system matrix at the given time level, in
    node-interleaved ordering (unknown (i, k) at row i*K + k), bandwidth K.

    Diagonal: 1 + 2 r_k + (dx^2 r_k / d_k) c_kk; spatial neighbours: -r_k;
    cross-component couplings at the same node: (dx^2 r_k / d_k) c_kl.
    """
    K = spec.K
    m = grid.I - 1
    x = grid.x[1:-1]
    # grid.times[time_index], bit for bit, without building all N+1 levels
    t = grid.T if time_index == grid.N else time_index * (grid.T / grid.N)
    r = _r_coeffs(spec, grid)
    fac = grid.dx ** 2 * r / np.asarray(spec.diffusivities)
    n = m * K
    ab = np.zeros((2 * K + 1, n))
    upper = K
    for k in range(K):
        rows = np.arange(m) * K + k
        for l in range(K):
            c = spec.coupling_at(k, l, x, float(t))
            if l == k:
                ab[upper, rows] = 1.0 + 2.0 * r[k] + fac[k] * c
            else:
                cols = rows + (l - k)
                ab[upper + (k - l), cols] = fac[k] * c
        # spatial neighbours: columns shifted by +-K
        ab[0, rows[1:]] = -r[k]          # A[i, i+K] stored at ab[u - K, j]
        ab[2 * K, rows[:-1]] = -r[k]     # A[i, i-K]
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
    """Decay factors e^{-s_q} and weights w_q with b^m - b^{m+1} =
    sum_q w_q e^{-m s_q} to ~1e-15 relative for 1 <= m <= N.

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
    return np.exp(-s), w


class _Stepper:
    """The L1 time stepper of one run, built once by ``simulate``.

    The memory of step n -> n+1 is b^n u^0 + sum_{m=0}^{n-1} (b^m - b^{m+1})
    u^{n-m}.  The u^0 and m = 0 terms are direct; the tail m >= 1 is a sum
    of exponentials whose states z_q = sum_{m>=1} e^{-m s_q} u^{n-m} advance
    by z_q <- e^{-s_q} (z_q + u^n), so a step costs O(modes), not O(n).  The
    modes of all components share one state array, read through one block
    weight matrix.  A constant system matrix is factored here, once.
    """

    def __init__(self, spec: SystemSpec, grid: Grid, scheme: str, u0: np.ndarray):
        K, m = spec.K, grid.I - 1
        self.spec, self.grid, self.scheme = spec, grid, scheme
        self.x = grid.x[1:-1]
        self.times = grid.times
        self.u0 = np.array(u0, dtype=float)
        self.b = np.array([l1_weights(a, grid.N) for a in spec.orders])
        self.d0 = -2.0 * np.expm1(-math.log(2.0) * np.array(spec.orders))  # b^0 - b^1
        modes = [_soe_modes(a, grid.N) for a in spec.orders]
        self.decay = np.concatenate([decay for decay, _ in modes])[:, None]
        self.owner = np.repeat(np.arange(K), [decay.size for decay, _ in modes])
        self.weights = np.zeros((K, self.owner.size))
        self.weights[self.owner, np.arange(self.owner.size)] = \
            np.concatenate([weight for _, weight in modes])
        self.states = np.zeros((self.owner.size, m))
        r = _r_coeffs(spec, grid)
        self.fac = grid.dx ** 2 * r / np.asarray(spec.diffusivities)
        self.couplings = (np.array(spec.couplings, dtype=float)
                          if spec.couplings_constant() else None)
        self.sourced = [k for k in range(K)
                        if spec.sources is not None and spec.sources[k] is not None]
        if scheme == "semi-implicit":
            ab = np.zeros((3, K * m))
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
        out += self.weights @ self.states
        self.states += u[self.owner]
        self.states *= self.decay
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
        prof = spec.initial_profile(k, x)
        values[0, k, :] = prof
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
