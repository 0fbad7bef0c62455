"""Independent references and the correctness checks built on them.

Nothing here imports subdecay.  Each check compares a program output with a
closed form, the benchmark's own quadrature of a closed form, or a property
the method must have, and returns a list of problems: empty means it passed.
No check compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import erfcx

SQRT_PI = math.sqrt(math.pi)


def exponent_within(label: str, exponent: float, target: float, tol: float) -> list[str]:
    """A fitted decay exponent lies within tol of the paper's rate."""
    if not abs(exponent - target) <= tol:
        return [f"{label}: exponent {exponent:+.4f} outside {target:+.2f} +- {tol}"]
    return []


def norms_bounded(norms: np.ndarray, factor: float = 10.0) -> bool:
    """Every summed norm is finite and below factor times the initial one.

    The systems decay, so a norm series that climbs past its start by an
    order of magnitude is an instability, whatever exponent is fitted to it.
    """
    total = np.sum(norms, axis=1)
    return bool(np.all(np.isfinite(total)) and np.max(total) <= factor * total[0])


def max_error_within(label: str, values: np.ndarray, exact: np.ndarray,
                     bound: float) -> list[str]:
    """Largest nodal error against an exact solution stays below bound."""
    err = float(np.max(np.abs(values - exact)))
    if not err <= bound:
        return [f"{label}: max error {err:.3e} exceeds {bound:.3e}"]
    return []


def manufactured_u(x, t):
    """Exact u of the wide PDE run (before scaling): (1 + t^2) sin x."""
    return (1.0 + t * t) * np.sin(x)


def manufactured_v(x, t):
    """Exact v of the wide PDE run (before scaling): (1 + t) sin x."""
    return (1.0 + t) * np.sin(x)


def manufactured_within(values: np.ndarray, x, times, scale: float, dt: float,
                        dx: float, order: float) -> list[str]:
    """values[n, k, i] against the exact solution on the whole grid.

    L1 in time and central differences in space err by O(dt^(2-a) + dx^2),
    a the largest order; the bound takes that with constant 1 at the data
    scale, about four times the error the scheme makes.
    """
    x = np.asarray(x)[None, :]
    t = np.asarray(times)[:, None]
    bound = scale * (dt ** (2.0 - order) + dx ** 2)
    return (max_error_within("wide run u", values[:, 0, :], scale * manufactured_u(x, t), bound)
            + max_error_within("wide run v", values[:, 1, :], scale * manufactured_v(x, t), bound))


def relative_within(label: str, got, ref, rtol: float) -> list[str]:
    """Pointwise relative agreement of two solvers' outputs."""
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    rel = np.abs(got - ref) / np.abs(ref)
    worst = float(np.max(rel)) if rel.size else math.inf
    if not worst <= rtol:
        return [f"{label}: relative disagreement {worst:.3e} exceeds {rtol:.0e}"]
    return []


def picard_agrees(label: str, times, U, V, converged: bool, compare_times,
                  reference, scale: float, rtol: float = 1e-4) -> list[str]:
    """Picard on its grid against the independent branch-cut inversion
    (U, V) = reference at compare_times, for initial data (scale, 0)."""
    times = np.asarray(times)
    idx = np.minimum(np.searchsorted(times, compare_times), times.size - 1)
    if not np.allclose(times[idx], compare_times, rtol=0.0, atol=1e-9):
        return [f"{label}: comparison times are not grid points"]
    problems = [] if converged else [f"{label}: Picard did not converge"]
    Ub, Vb = reference
    return (problems
            + relative_within(f"{label} U", np.asarray(U)[idx] / scale, Ub, rtol)
            + relative_within(f"{label} V", np.asarray(V)[idx] / scale, Vb, rtol))


def decoupled_half_order(times, U, V, scale: float, atol: float = 1e-6) -> list[str]:
    """d^{1/2}(U - a) + U = 0 has U = a erfcx(sqrt t); V stays zero."""
    ref = erfcx(np.sqrt(np.asarray(times, dtype=float)))
    problems = max_error_within("decoupled U/a vs erfcx(sqrt t)",
                                np.asarray(U) / scale, ref, atol)
    if not float(np.max(np.abs(V))) <= atol * scale:
        problems.append("decoupled V is not zero")
    return problems


def log_slope(times, values) -> float:
    """Least-squares slope of log(values) against log(times)."""
    return float(np.polyfit(np.log(times), np.log(values), 1)[0])


def slope_within(label: str, times, values, target: float, tol: float) -> list[str]:
    return exponent_within(label, log_slope(times, values), target, tol)


def ml_half(x):
    """E_{1/2,1/2}(-x) = 1/sqrt(pi) - x erfcx(x) for x >= 0.

    Past x = 50 the difference cancels badly, so the sum is replaced by its
    large-x expansion (1/sqrt(pi)) sum_k (-1)^(k+1) (2k-1)!! / (2x^2)^k,
    whose first omitted term is below 1e-16 relative there.
    """
    x = np.asarray(x, dtype=float)
    small = 1.0 / SQRT_PI - x * erfcx(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = 1.0 / (2.0 * x * x)
        large = w * (1.0 - w * (3.0 - w * (15.0 - w * (105.0 - w * 945.0)))) / SQRT_PI
    return np.where(x < 50.0, small, large)


def mode_reference(lam: float, t: float) -> float:
    """int_0^t tau^{-1/2} E_{1/2,1/2}(-lam tau^{1/2}) e^{-lam (t-tau)} dtau.

    Split at tau = t/2.  On the left tau = s^2 removes the singularity; on
    the right u = t - tau resolves the e^{-lam u} spike, which is cut at
    u = 60/lam (the rest is below e^{-60} of the value).
    """
    def left(s):
        return 2.0 * float(ml_half(lam * s)) * math.exp(-lam * (t - s * s))

    def right(u):
        tau = t - u
        return float(ml_half(lam * math.sqrt(tau))) * math.exp(-lam * u) / math.sqrt(tau)

    total = 0.0
    if lam * t / 2.0 < 60.0:
        total += quad(left, 0.0, math.sqrt(t / 2.0), epsabs=0.0, epsrel=1e-12, limit=200)[0]
    total += quad(right, 0.0, min(t / 2.0, 60.0 / lam), epsabs=0.0, epsrel=1e-12,
                  limit=200)[0]
    return total


def hat_coefficients(n_modes: int, scale: float) -> np.ndarray:
    """(scale * hat, phi_n) = scale sqrt(2/pi) 2 sin(n pi/2) / n^2 exactly."""
    n = np.arange(1, n_modes + 1)
    return scale * math.sqrt(2.0 / math.pi) * 2.0 * np.sin(n * math.pi / 2.0).round() / n ** 2


def projection_within(label: str, coeffs, exact, rtol: float = 1e-5) -> list[str]:
    """Projected initial data: nonzero modes agree, the others are zero.

    A composite trapezoid rule with h = pi/16384 errs by about (n h)^2 / 12
    relative on mode n, 3e-6 at n = 31; rtol leaves a factor of three.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    nonzero = exact != 0.0
    problems = relative_within(label, coeffs[nonzero], exact[nonzero], rtol)
    if np.any(coeffs[~nonzero] != 0.0):
        problems.append(f"{label}: modes that vanish exactly are nonzero")
    return problems


def modes_within(label: str, v_coeffs, u0_coeffs, t: float, rtol: float = 1e-7) -> list[str]:
    """Slow-component modes v_n(t) = (u0, phi_n) * mode_reference(n^2, t)."""
    v_coeffs = np.asarray(v_coeffs, dtype=float)
    ref = np.array([c * mode_reference(float(n * n), t) if c != 0.0 else 0.0
                    for n, c in enumerate(u0_coeffs, start=1)])
    nonzero = ref != 0.0
    problems = relative_within(f"{label} t={t:g}", v_coeffs[nonzero], ref[nonzero], rtol)
    if np.any(v_coeffs[~nonzero] != 0.0):
        problems.append(f"{label} t={t:g}: modes with zero data are nonzero")
    return problems


def ratios_approach_one(label: str, ratios, final_tol: float = 0.01) -> list[str]:
    """|asymptotic/exact - 1| shrinks as t grows and ends below final_tol."""
    dev = np.abs(np.asarray(ratios, dtype=float) - 1.0)
    if not (np.all(np.diff(dev) < 0.0) and dev[-1] <= final_tol):
        return [f"{label}: asymptotic/exact ratios {list(ratios)} do not approach 1"]
    return []


def sin_coefficient_within(c1: float, t: float, scale: float, beta: float = 0.5,
                           rtol: float = 0.02) -> list[str]:
    """For u0 = scale sin x the first v mode tends to
    scale sqrt(pi/2) t^-(1+beta) / (-Gamma(-beta)); at beta = 1/2 the
    constant -Gamma(-1/2) is 2 sqrt(pi)."""
    got = c1 * t ** (1.0 + beta) * (-math.gamma(-beta)) / scale
    want = math.sqrt(math.pi / 2.0)
    if not abs(got / want - 1.0) <= rtol:
        return [f"sin mode: t^1.5 * 2 sqrt(pi) * v_1 = {got:.6f}, want {want:.6f} +- 2%"]
    return []
