"""Event-level reference engine of both schemes, one epoch or round at a time.

Tests compare the vectorized round engine of :mod:`ouwait.sim` against these
scalar loops, which draw every service and erasure outcome in event order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ouwait import ConvergenceError, InvalidConfig, Scheme, SystemConfig
from ouwait.sim import ATTEMPT_CAP


@dataclass(frozen=True)
class EpochTrace:
    """Full record of one feedback-scheme epoch.

    ``services[k]`` lists the service time of every attempt for process k,
    the successful one last. ``gamma`` equals the wait plus all services.
    """

    scheme: Scheme
    wait: float
    services: Tuple[Tuple[float, ...], ...]
    attempts: Tuple[int, ...]
    gamma: float
    service_total: float
    deliveries: Tuple[float, ...]
    stamps: Tuple[float, ...]

    def __post_init__(self) -> None:
        if any(m < 1 for m in self.attempts):
            raise InvalidConfig("every process needs at least one attempt")


@dataclass(frozen=True)
class RoundTrace:
    """Record of one blind transmission round.

    ``deliveries[k]`` / ``stamps[k]`` are None when process k's sample was
    erased this round. ``length`` is the round's wall-clock extent.
    """

    wait: float
    services: Tuple[float, ...]
    erased: Tuple[bool, ...]
    round_total: float
    length: float
    deliveries: Tuple[Optional[float], ...]
    stamps: Tuple[Optional[float], ...]


def run_epoch_maf(
    rng: np.random.Generator,
    cfg: SystemConfig,
    tau: float,
    prev_total_service: float,
    start_time: float = 0.0,
) -> EpochTrace:
    """Simulate one feedback epoch event by event.

    Applies the wait conditioned on the previous epoch's total service, then
    retries each process until its sample survives the channel. The returned
    ``service_total`` is what conditions the next epoch's wait.
    """
    if prev_total_service < 0:
        raise InvalidConfig("prev_total_service must be nonnegative")
    if tau < 0:
        raise InvalidConfig("tau must be nonnegative")
    wait = max(tau - prev_total_service, 0.0)
    t = start_time + wait
    services = []
    attempts = []
    deliveries = []
    stamps = []
    for _ in range(cfg.k):
        burst = []
        while True:
            if len(burst) >= ATTEMPT_CAP:
                raise ConvergenceError(f"attempt cap {ATTEMPT_CAP} exceeded in one burst")
            stamp = t
            y = rng.exponential(1.0 / cfg.mu)
            t += y
            burst.append(y)
            if rng.random() >= cfg.eps:
                deliveries.append(t)
                stamps.append(stamp)
                break
        services.append(tuple(burst))
        attempts.append(len(burst))
    service_total = sum(sum(b) for b in services)
    return EpochTrace(
        scheme=Scheme.MAF_FEEDBACK,
        wait=wait,
        services=tuple(services),
        attempts=tuple(attempts),
        gamma=wait + service_total,
        service_total=service_total,
        deliveries=tuple(deliveries),
        stamps=tuple(stamps),
    )


def run_round_rr(
    rng: np.random.Generator,
    cfg: SystemConfig,
    tau: float,
    prev_round_service: float,
    start_time: float = 0.0,
) -> RoundTrace:
    """Simulate one blind transmission round: wait, then one sample per process."""
    if prev_round_service < 0:
        raise InvalidConfig("prev_round_service must be nonnegative")
    if tau < 0:
        raise InvalidConfig("tau must be nonnegative")
    wait = max(tau - prev_round_service, 0.0)
    t = start_time + wait
    services = []
    erased = []
    deliveries: list = []
    stamps: list = []
    for _ in range(cfg.k):
        stamp = t
        y = rng.exponential(1.0 / cfg.mu)
        t += y
        gone = rng.random() < cfg.eps
        services.append(y)
        erased.append(gone)
        deliveries.append(None if gone else t)
        stamps.append(None if gone else stamp)
    total = float(sum(services))
    return RoundTrace(
        wait=wait,
        services=tuple(services),
        erased=tuple(erased),
        round_total=total,
        length=wait + total,
        deliveries=tuple(deliveries),
        stamps=tuple(stamps),
    )
