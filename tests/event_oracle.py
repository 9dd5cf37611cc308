"""Event-level reference engines, one epoch, round or delivery at a time.

Tests compare the vectorized round engine of :mod:`ouwait.sim` against these
scalar loops, which draw every service and erasure outcome in event order,
and the simulator's array-form OU probe against a loop that steps the true
process from event to event and, bit for bit, against three whole-array
``ou_step`` calls. :func:`round_arrays` joins the engine's chunks into one run
for tests that look at whole runs of rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ouwait import ConvergenceError, InvalidConfig, ProcessParams, Scheme, SystemConfig
from ouwait import ThresholdPolicy, inst_mse, ou_step
from ouwait.sim import RoundArrays, _rounds, _streams

ATTEMPT_CAP = 10**7  # attempts one burst of the event loop may take


def round_arrays(
    cfg: SystemConfig,
    scheme: Scheme,
    tau: float,
    n_rounds: int,
    seed: int,
    wait_split: Optional[Sequence[float]] = None,
) -> RoundArrays:
    """The first ``n_rounds`` rounds of the streaming engine as one run.

    The engine is asked for the rounds still wanted, and its chunks are
    joined and cut at ``n_rounds``: every substream is drawn in the same order
    whatever the chunk size, so these are the rounds of any run. The threshold
    reaches the engine as :func:`ouwait.simulate` passes it, through a
    ``ThresholdPolicy``, which rejects a negative or non-finite one.
    """
    if n_rounds < 1:
        raise InvalidConfig("n_rounds must be >= 1")
    tau = ThresholdPolicy(scheme, tau).tau
    chunks: List[RoundArrays] = []
    for rounds in _rounds(cfg, scheme, tau, _streams(seed), wait_split,
                          lambda: n_rounds - sum(len(c.wait) for c in chunks)):
        chunks.append(rounds)
    return RoundArrays(*(np.concatenate([getattr(c, f.name) for c in chunks])[:n_rounds]
                         for f in fields(RoundArrays)))


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


def ou_probe_loop(
    deliveries: np.ndarray,
    stamps: np.ndarray,
    p: ProcessParams,
    rng: np.random.Generator,
) -> Tuple[List[float], List[float]]:
    """Step the true process through each stamp and delivery, in event order.

    Starts from a stationary value at the first stamp and, at every later
    delivery, compares the previous sample's decayed value with the process
    there. Returns the squared errors and the closed-form errors at the same
    ages; draws one start normal, then two normals per delivery.
    """
    n = len(deliveries)
    x_stamp = math.sqrt(p.stationary_variance) * rng.standard_normal()
    z = rng.standard_normal(size=2 * n)
    x_delivery = ou_step(x_stamp, deliveries[0] - stamps[0], p, z[0])
    errs, refs = [], []
    for i in range(1, n):
        prev_value, prev_stamp = x_stamp, float(stamps[i - 1])
        x_stamp = ou_step(x_delivery, max(stamps[i] - deliveries[i - 1], 0.0), p, z[2 * i])
        x_delivery = ou_step(x_stamp, deliveries[i] - stamps[i], p, z[2 * i + 1])
        estimate = prev_value * math.exp(-p.theta * (deliveries[i] - prev_stamp))
        errs.append((x_delivery - estimate) ** 2)
        refs.append(inst_mse(deliveries[i] - prev_stamp, p))
    return errs, refs


def ou_probe_steps(
    deliveries: np.ndarray,
    stamps: np.ndarray,
    p: ProcessParams,
    rng: np.random.Generator,
    carry: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """The simulator's OU probe as three exact ``ou_step`` calls over whole
    arrays, with the same draws, arguments and results as
    :func:`ouwait.sim._ou_probe`: over the previous sample's service, the idle
    gap up to the new stamp, and the new sample's service.
    """
    serve = deliveries[1:] - stamps[1:]
    if carry is None:
        rng.standard_normal()
        z = rng.standard_normal(size=2 * len(deliveries))
        carry = ou_step(0.0, deliveries[0] - stamps[0], p, z[0])
        z = z[2:]
    else:
        z = rng.standard_normal(size=2 * len(serve))
    carried = np.concatenate(([carry], ou_step(0.0, serve, p, z[1::2])))
    idle = np.maximum(stamps[1:] - deliveries[:-1], 0.0)
    at_stamp = ou_step(carried[:-1], idle, p, z[0::2])
    errs = ou_step(at_stamp, serve, p, z[1::2]) ** 2
    return errs, inst_mse(deliveries[1:] - stamps[:-1], p), carried[-1]
