"""Threshold-waiting solver and Monte Carlo validator for multi-process
remote estimation over a shared queue and an erasure channel.

Two scheduling regimes are covered: stalest-first with delivery feedback
(retry the same process until it gets through) and blind round robin. For
each, the package computes the optimal threshold waiting policy and the
minimum long-term average sum MSE, and cross-checks every analytic quantity
against a discrete-event simulation of the full system.

``import ouwait`` loads the solver alone: the types, the series and the
threshold search. The simulator (``simulate``), the OU helpers (``inst_mse``,
``mse_integral``, ``ou_step``) and the sweep names of :mod:`ouwait.cli` load
on first use (PEP 562), so a process that only solves never compiles them.
Each is then bound here, so later uses are plain attribute reads.
"""

import importlib

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

# Each name that loads on first use, by the submodule that defines it.
_LAZY = {
    "Axis": "cli",
    "ConfigFormatError": "cli",
    "SweepRow": "cli",
    "SweepSpec": "cli",
    "read_config": "cli",
    "run_sweep": "cli",
    "write_config": "cli",
    "write_csv": "cli",
    "inst_mse": "ou",
    "mse_integral": "ou",
    "ou_step": "ou",
    "simulate": "sim",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


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
