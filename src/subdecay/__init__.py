"""Numerical toolkit for weakly coupled time-fractional subdiffusion systems:
the Mittag-Leffler function, a coupled fractional ODE solver (Picard and
branch-cut Laplace inversion), L1 finite-difference schemes, a spectral
oracle for the decoupled mixed-order system, and long-time decay-rate
estimation."""

from .decay import (DecayFit, NormSeries, fit_exponent, l2_norm,
                    pointwise_exponent)
from .frac_ode import LaplaceSymbol, OdePath, OdeSpec, branch_cut_invert, picard_solve
from .mittag_leffler import ml_eval
from .spectral import SpectralSolution, asymptotic_v, decoupled_solve, mode_convolution

# subdiff_fd loads scipy's BLAS and LAPACK, which only the PDE solver needs:
# its names are looked up on first use (PEP 562); every other export is
# bound above, so an unbound name in __all__ is one of subdiff_fd's


def __getattr__(name):
    if name in __all__:
        from . import subdiff_fd
        return getattr(subdiff_fd, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ml_eval",
    "OdeSpec", "OdePath", "LaplaceSymbol", "picard_solve", "branch_cut_invert",
    "Grid", "SystemSpec", "History", "BandedMatrix", "l1_weights", "levels", "simulate",
    "NormSeries", "DecayFit", "pointwise_exponent", "fit_exponent", "l2_norm",
    "SpectralSolution", "decoupled_solve", "mode_convolution", "asymptotic_v",
]
