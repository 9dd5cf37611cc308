"""Threshold-waiting solver and Monte Carlo validator for multi-process
remote estimation over a shared queue and an erasure channel.

Two scheduling regimes are covered: stalest-first with delivery feedback
(retry the same process until it gets through) and blind round robin. For
each, the package computes the optimal threshold waiting policy and the
minimum long-term average sum MSE, and cross-checks every analytic quantity
against a discrete-event simulation of the full system.
"""

from .cli import (
    Axis,
    ConfigFormatError,
    SweepRow,
    SweepSpec,
    read_config,
    run_sweep,
    write_config,
    write_csv,
)
from .ou import inst_mse, mse_integral, ou_step
from .series import (
    MixtureSpec,
    TruncationWarning,
    cycle_transform,
    expected_wait,
    laplace_exp_service,
    mixture_weights,
)
from .sim import merge_sim_stats, round_arrays, simulate
from .threshold import epoch_mean, mse_at_tau, solve, solve_maf, solve_rr
from .types import (
    ConvergenceError,
    InvalidConfig,
    ProcessParams,
    Scheme,
    SimStats,
    SolveResult,
    SystemConfig,
    ThresholdPolicy,
)

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "ConfigFormatError",
    "ConvergenceError",
    "InvalidConfig",
    "MixtureSpec",
    "ProcessParams",
    "Scheme",
    "SimStats",
    "SolveResult",
    "SweepRow",
    "SweepSpec",
    "SystemConfig",
    "ThresholdPolicy",
    "TruncationWarning",
    "cycle_transform",
    "epoch_mean",
    "expected_wait",
    "inst_mse",
    "laplace_exp_service",
    "merge_sim_stats",
    "mixture_weights",
    "mse_at_tau",
    "mse_integral",
    "ou_step",
    "read_config",
    "round_arrays",
    "run_sweep",
    "simulate",
    "solve",
    "solve_maf",
    "solve_rr",
    "write_config",
    "write_csv",
]
