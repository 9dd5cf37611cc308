"""Core domain types and exceptions shared across the package."""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


class InvalidConfig(ValueError):
    """Raised when a parameter set violates its domain constraints."""


class ConvergenceError(RuntimeError):
    """Raised when an iterative routine exhausts its iteration budget or loses monotonicity."""


# The ranges of the real inputs, as ``lo <= x < hi`` and in words. A positive range
# starts at the least positive float. 2 * theta, the decay rate of the error law,
# must be finite too, which it is exactly below 2 ** 1023.
_POSITIVE = (math.ulp(0.0), math.inf, "be positive and finite")
_NONNEGATIVE = (0.0, math.inf, "be nonnegative and finite")
_FRACTION = (0.0, 1.0, "lie in [0, 1)")
_RATE = (math.ulp(0.0), 2.0**1023, "be positive with 2 * {} finite")
# The largest process count, so that no Poisson table grows past
# MAX_SERIES_TERMS + 1 entries.
MAX_SERIES_TERMS = 10**6


def _real(name: str, x, within: tuple = _POSITIVE) -> float:
    """``x`` as a Python float, if it is a real number, not a bool, in the range
    ``within``; anything else raises InvalidConfig naming ``name``."""
    lo, hi, words = within
    y = x
    if type(x) is not float:
        try:
            y = float(x) if isinstance(x, numbers.Real) and not isinstance(x, bool) else math.nan
        except OverflowError:  # an integer past the float range
            y = math.nan
    if not lo <= y < hi:  # a nan fails the comparison
        raise InvalidConfig(f"{name} must {words.format(name)}, got {x!r}")
    return y


def _count(name: str, x, lo: int, hi: float = math.inf) -> int:
    """``x`` as a Python int, if it is an integer, not a bool, with ``lo <= x < hi``;
    anything else raises InvalidConfig naming ``name``."""
    y = x
    if type(x) is not int:
        y = int(x) if isinstance(x, numbers.Integral) and not isinstance(x, bool) else math.nan
    if not lo <= y < hi:
        want = f"an integer with {lo} <= {name} < {hi}" if hi < math.inf else (
            "a non-negative integer" if lo == 0 else f"an integer >= {lo}")
        raise InvalidConfig(f"{name} must be {want}, got {x!r}")
    return y


def _flag(name: str, x) -> bool:
    """``x`` as a Python bool, if it is a bool or a numpy bool; anything else
    raises InvalidConfig naming ``name``."""
    if not isinstance(x, (bool, np.bool_)):
        raise InvalidConfig(f"{name} must be a bool, got {x!r}")
    return bool(x)


def _systemconfig(name: str, x) -> "SystemConfig":
    """``x``, if it is a SystemConfig; anything else raises InvalidConfig naming ``name``."""
    if not isinstance(x, SystemConfig):
        raise InvalidConfig(f"{name} must be a SystemConfig, got {x!r}")
    return x


def _reals(name: str, x) -> np.ndarray:
    """``x`` as a float64 array, if numpy reads it as integers or floats; a
    bool, text, object or complex array raises InvalidConfig naming ``name``."""
    a = np.asarray(x)
    if a.dtype.kind not in "iuf":
        got = repr(x) if a.ndim == 0 else f"{a.dtype.type.__name__} entries"
        raise InvalidConfig(f"{name} must hold real numbers, got {got}")
    return a.astype(float, copy=False)


@dataclass(frozen=True)
class ProcessParams:
    """Mean-reversion rate and squared diffusion amplitude of one process.

    The stationary variance of the process is ``sigma_sq / (2 * theta)``.
    """

    theta: float
    sigma_sq: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", _real("theta", self.theta, _RATE))
        object.__setattr__(self, "sigma_sq", _real("sigma_sq", self.sigma_sq))
        if not (0 < self.stationary_variance < math.inf):
            raise InvalidConfig(
                f"sigma_sq / (2 * theta) must be positive and finite, got "
                f"{self.stationary_variance} (sigma_sq={self.sigma_sq}, theta={self.theta})"
            )

    @property
    def stationary_variance(self) -> float:
        return self.sigma_sq / (2.0 * self.theta)


class Scheme(enum.Enum):
    """Scheduling discipline: retry-same-process with feedback, or blind round robin."""

    MAF_FEEDBACK = "maf"
    RR_NO_FEEDBACK = "rr"


@dataclass(frozen=True)
class SystemConfig:
    """Full problem instance: process set, service rate, erasure rate, sampling budget."""

    k: int
    f_max: float
    mu: float
    eps: float
    processes: Tuple[ProcessParams, ...]

    def __post_init__(self) -> None:
        # A float k would reach numpy only as a table length, and fail there.
        object.__setattr__(self, "k", _count("k", self.k, 1, MAX_SERIES_TERMS + 1))
        if len(self.processes) != self.k:
            raise InvalidConfig(
                f"process list length {len(self.processes)} does not match k={self.k}"
            )
        object.__setattr__(self, "f_max", _real("f_max", self.f_max))
        object.__setattr__(self, "mu", _real("mu", self.mu))
        object.__setattr__(self, "eps", _real("eps", self.eps, _FRACTION))
        object.__setattr__(self, "processes", tuple(self.processes))

    @property
    def total_stationary_variance(self) -> float:
        """Upper bound on any achievable long-term average sum MSE."""
        return sum(p.stationary_variance for p in self.processes)


@dataclass(frozen=True)
class ThresholdPolicy:
    """A waiting policy w(z) = max(tau - z, 0) under the given scheme."""

    scheme: Scheme
    tau: float

    def __post_init__(self) -> None:
        if not isinstance(self.scheme, Scheme):
            raise InvalidConfig(f"scheme must be a Scheme, got {self.scheme!r}")
        object.__setattr__(self, "tau", _real("tau", self.tau, _NONNEGATIVE))


@dataclass(frozen=True)
class SolveResult:
    """Optimal threshold and minimum sum MSE, with solver diagnostics.

    ``beta_star`` is the long-term average sum MSE that ``tau_star`` achieves,
    and ``binding`` says whether the sampling budget fixed the threshold: the
    budget threshold is positive and the threshold response there already
    meets the optimal ratio, so ``tau_star`` is the budget threshold itself.
    ``outer_iters`` counts the thresholds whose ratio the solve evaluated,
    and ``achieved_tol`` is the first-order residual ``|response(tau_star) -
    beta_star|`` at an optimum above the budget threshold, or 0 where the
    solve stops at the budget threshold (binding, or zero wait); neither costs
    a table. The solve raises instead when ``beta_star`` exceeds the ratio at
    the budget threshold by more than both the requested tolerance and the
    ratio's rounding bound: ``TOL_ULPS * k`` float spacings of
    ``sum(var * mu / ((mu + 2 theta) * 2 theta))`` over all processes,
    divided by the epoch mean at ``tau_star``.
    """

    tau_star: float
    beta_star: float
    binding: bool
    outer_iters: int
    achieved_tol: float


@dataclass(frozen=True)
class SimStats:
    """Estimates from one simulation run, with batch-means standard errors.

    ``epochs`` counts the post-burn-in epochs that entered the statistics.
    ``per_process_inter_sample_mean`` is each process's time per sample drawn,
    and ``per_process_inter_sample_se`` its standard error from the same
    batches, which counts the variance of the samples per epoch as well as
    that of the epoch lengths. The OU probe fields are set only when path
    co-simulation is on, and are taken at the same deliveries:
    ``ou_probe_mse`` is the summed per-process mean of the realized squared
    estimation error at each delivery, ``ou_probe_ref`` the summed mean of
    the closed-form error at the same ages, and ``ou_probe_diff_se`` the
    batch-means standard error of their difference, which is zero in
    expectation.
    """

    scheme: Scheme
    sum_mse: float
    sum_mse_se: float
    per_process_mse: Tuple[float, ...]
    per_process_mse_se: Tuple[float, ...]
    mean_epoch_len: float
    mean_epoch_len_se: float
    per_process_inter_sample_mean: Tuple[float, ...]
    per_process_inter_sample_se: Tuple[float, ...]
    epochs: int
    ou_probe_mse: Optional[float] = None
    ou_probe_ref: Optional[float] = None
    ou_probe_diff_se: Optional[float] = None
