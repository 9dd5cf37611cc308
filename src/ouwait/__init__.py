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
from .sim import simulate
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
    "ProcessParams",
    "Scheme",
    "SimStats",
    "SolveResult",
    "SweepRow",
    "SweepSpec",
    "SystemConfig",
    "ThresholdPolicy",
    "epoch_mean",
    "inst_mse",
    "mse_at_tau",
    "mse_integral",
    "ou_step",
    "read_config",
    "run_sweep",
    "simulate",
    "solve",
    "solve_maf",
    "solve_rr",
    "write_config",
    "write_csv",
]
