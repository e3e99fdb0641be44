"""Sparse piecewise-constant signal denoising via the fused lasso with
convexity-preserving non-convex penalties."""

from .penalties import KINDS, PenaltySpec
from .prox import (
    diff,
    diff_adjoint,
    fused_lasso_l1,
    fused_lasso_optimality_residual,
    soft_threshold,
    tvd,
    tvd_optimality_residual,
)
from .cnc import (
    CncConfig,
    ConvexityError,
    SolveResult,
    convexity_margin,
    convexity_margin_params,
    majorized_input,
    objective,
    select_a1,
    solve,
)
from .signalgen import (
    DEFAULT_LENGTH,
    DEFAULT_PULSES,
    NoiseSpec,
    PulseSpec,
    add_awgn,
    default_pulse_spec,
    generate_pulses,
    lambda0_grid,
    lambda1_heuristic,
    rmse,
    standard_normal,
)

__version__ = "0.1.0"

__all__ = [
    "KINDS",
    "PenaltySpec",
    "soft_threshold",
    "diff",
    "diff_adjoint",
    "tvd",
    "tvd_optimality_residual",
    "fused_lasso_l1",
    "fused_lasso_optimality_residual",
    "CncConfig",
    "SolveResult",
    "ConvexityError",
    "convexity_margin",
    "convexity_margin_params",
    "select_a1",
    "objective",
    "majorized_input",
    "solve",
    "PulseSpec",
    "NoiseSpec",
    "generate_pulses",
    "add_awgn",
    "standard_normal",
    "lambda1_heuristic",
    "lambda0_grid",
    "rmse",
    "default_pulse_spec",
    "DEFAULT_LENGTH",
    "DEFAULT_PULSES",
]
