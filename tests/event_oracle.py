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
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ouwait import ConvergenceError, InvalidConfig, ProcessParams, Scheme, SystemConfig
from ouwait import ThresholdPolicy, inst_mse, ou_step
from ouwait.sim import _rounds, _streams

ATTEMPT_CAP = 10**7  # attempts one burst of the event loop may take


@dataclass(frozen=True)
class Run:
    """Consecutive rounds of the engine with their slots' instants on the clock."""

    wait: np.ndarray           # (r,)
    service_total: np.ndarray  # (r,)
    samples: np.ndarray        # (r, k) samples drawn in each slot
    delivered: np.ndarray      # (r, k) bool, the slot's last sample got through
    ends: np.ndarray           # (r, k) slot end instants, deliveries where delivered
    stamps: np.ndarray         # (r, k) generation instants of each slot's last sample


def round_arrays(
    cfg: SystemConfig,
    scheme: Scheme,
    tau: float,
    n_rounds: int,
    seed: int,
    wait_split: Optional[Sequence[float]] = None,
) -> Run:
    """The first ``n_rounds`` rounds of the streaming engine as one run.

    The engine is asked for the rounds still wanted, with the clock, and its
    chunks are joined and cut at ``n_rounds``: every substream is drawn in the
    same order whatever the chunk size, so these are the rounds of any run.
    Each chunk's slot ends are its ``instants`` at every slot, and the stamps
    are those less the last samples' services, the engine's own operations.
    The threshold reaches the engine as :func:`ouwait.simulate` passes it,
    through a ``ThresholdPolicy``, which rejects a negative or non-finite one.
    """
    if n_rounds < 1:
        raise InvalidConfig("n_rounds must be >= 1")
    tau = ThresholdPolicy(scheme, tau).tau
    chunks: List[Tuple[np.ndarray, ...]] = []
    for rounds in _rounds(cfg, scheme, tau, _streams(seed), wait_split,
                          lambda: n_rounds - sum(len(c[0]) for c in chunks), True):
        ends, serve = rounds.instants(np.arange(len(rounds.wait))[:, None], np.arange(cfg.k))
        chunks.append((rounds.wait, rounds.service_total, rounds.samples, rounds.delivered,
                       ends, ends - serve))
    return Run(*(np.concatenate(field)[:n_rounds] for field in zip(*chunks)))


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
    age: np.ndarray,
    length: np.ndarray,
    serve: np.ndarray,
    p: ProcessParams,
    rng: np.random.Generator,
) -> Tuple[List[float], List[float]]:
    """Step the true process through each stamp and delivery, in event order,
    along one process's spans: ``age`` is each span's age at its start,
    ``length`` its length and ``serve`` the service of the sample delivered
    at its end.

    Starts from a stationary value at the first stamp and, at every span's
    end, compares the previous sample's decayed value with the process
    there. Returns the squared errors and the closed-form errors at the same
    ages; draws one start normal, then two normals per delivery.
    """
    n = len(age)
    x_stamp = math.sqrt(p.stationary_variance) * rng.standard_normal()
    z = rng.standard_normal(size=2 * n + 2)
    x_delivery = ou_step(x_stamp, age[0], p, z[0])
    errs, refs = [], []
    for i in range(n):
        prev_value = x_stamp
        x_stamp = ou_step(x_delivery, max(length[i] - serve[i], 0.0), p, z[2 * i + 2])
        x_delivery = ou_step(x_stamp, serve[i], p, z[2 * i + 3])
        estimate = prev_value * math.exp(-p.theta * (age[i] + length[i]))
        errs.append((x_delivery - estimate) ** 2)
        refs.append(inst_mse(age[i] + length[i], p))
    return errs, refs


def ou_probe_steps(
    age: np.ndarray,
    length: np.ndarray,
    serve: np.ndarray,
    p: ProcessParams,
    rng: np.random.Generator,
    carry: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """The simulator's OU probe as three exact ``ou_step`` calls over whole
    arrays, with the same draws, arguments and results as
    :func:`ouwait.sim._ou_probe`: over the previous sample's service, the idle
    gap up to the new stamp, and the new sample's service.
    """
    if carry is None:
        rng.standard_normal()
        z = rng.standard_normal(size=2 * len(age) + 2)
        carry = ou_step(0.0, age[0], p, z[0])
        z = z[2:]
    else:
        z = rng.standard_normal(size=2 * len(age))
    carried = np.concatenate(([carry], ou_step(0.0, serve, p, z[1::2])))
    idle = np.maximum(length - serve, 0.0)
    at_stamp = ou_step(carried[:-1], idle, p, z[0::2])
    errs = ou_step(at_stamp, serve, p, z[1::2]) ** 2
    return errs, inst_mse(age + length, p), carried[-1]
