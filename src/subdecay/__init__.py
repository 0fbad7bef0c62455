"""Numerical toolkit for weakly coupled time-fractional subdiffusion systems:
special functions, a coupled fractional ODE solver (Picard and branch-cut
Laplace inversion), L1 finite-difference schemes, a spectral oracle for the
decoupled mixed-order system, and long-time decay-rate estimation."""

from .decay import (DecayFit, NormSeries, fit_exponent, l2_norm,
                    pointwise_exponent)
from .frac_ode import (LaplaceSymbol, OdePath, OdeSpec, branch_cut_invert,
                       check_decay_assumption, find_poles, im_parts,
                       picard_monotonicity, picard_solve, poincare_constant,
                       q_of_r)
from .mittag_leffler import MLQuery, gamma_fn, ml_eval, relaxation_kernel
from .spectral import (ModeConvolution, SpectralSolution, asymptotic_v,
                       decoupled_solve, mode_convolution, q_integral,
                       r_series_identity)
from .subdiff_fd import (BandedMatrix, Grid, History, SystemSpec,
                         assemble_block_matrix, banded_solve, gershgorin_disks,
                         l1_weights, norm_history, simulate,
                         stability_condition)

__all__ = [
    "MLQuery", "gamma_fn", "ml_eval", "relaxation_kernel",
    "OdeSpec", "OdePath", "LaplaceSymbol", "picard_solve",
    "picard_monotonicity", "q_of_r", "im_parts", "find_poles",
    "branch_cut_invert", "check_decay_assumption", "poincare_constant",
    "Grid", "SystemSpec", "History", "BandedMatrix", "l1_weights",
    "assemble_block_matrix", "banded_solve", "gershgorin_disks",
    "stability_condition", "simulate", "norm_history",
    "NormSeries", "DecayFit", "pointwise_exponent", "fit_exponent", "l2_norm",
    "SpectralSolution", "ModeConvolution", "decoupled_solve",
    "mode_convolution", "q_integral", "r_series_identity", "asymptotic_v",
]
