"""Core domain types and exceptions shared across the package."""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Tuple


class InvalidConfig(ValueError):
    """Raised when a parameter set violates its domain constraints."""


class ConvergenceError(RuntimeError):
    """Raised when an iterative routine exhausts its iteration budget or loses monotonicity."""


@dataclass(frozen=True)
class ProcessParams:
    """Mean-reversion rate and squared diffusion amplitude of one process.

    The stationary variance of the process is ``sigma_sq / (2 * theta)``.
    """

    theta: float
    sigma_sq: float

    def __post_init__(self) -> None:
        # 2 theta is the decay rate of the error law, so it must be finite too.
        if not (self.theta > 0 and math.isfinite(2.0 * self.theta)):
            raise InvalidConfig(
                f"theta must be positive with 2 * theta finite, got {self.theta}"
            )
        if not (self.sigma_sq > 0 and math.isfinite(self.sigma_sq)):
            raise InvalidConfig(f"sigma_sq must be positive and finite, got {self.sigma_sq}")
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
        if not isinstance(self.k, numbers.Integral) or self.k < 1:
            raise InvalidConfig(f"k must be an integer >= 1, got {self.k!r}")
        if len(self.processes) != self.k:
            raise InvalidConfig(
                f"process list length {len(self.processes)} does not match k={self.k}"
            )
        if not (self.f_max > 0 and math.isfinite(self.f_max)):
            raise InvalidConfig(f"f_max must be positive, got {self.f_max}")
        if not (self.mu > 0 and math.isfinite(self.mu)):
            raise InvalidConfig(f"mu must be positive, got {self.mu}")
        if not (0.0 <= self.eps < 1.0):
            raise InvalidConfig(f"eps must lie in [0, 1), got {self.eps}")
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
        if not (self.tau >= 0 and math.isfinite(self.tau)):
            raise InvalidConfig(f"tau must be nonnegative and finite, got {self.tau}")


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
