"""Discrete-event Monte Carlo of the full sampling system, both schemes.

The simulator is the independent check on every analytic quantity: it draws
actual service times and erasure outcomes, applies the threshold waiting rule
to the realized service totals, tracks each process's information age on the
shared timeline, and accumulates estimation error exactly between events with
the closed-form integral from :mod:`ouwait.ou`.

Event mechanics
---------------
Both schemes run in rounds. A round opens with a single wait
``max(tau - Z, 0)``, where ``Z`` is the previous round's total service time,
then serves one slot per process, 1 through K, back to back. The schemes
differ only in what a slot is, which :func:`_draw_slots` alone decides:

- Feedback: a slot is a retry burst that redraws a fresh sample on every
  erased attempt until one gets through, so a feedback epoch is one round of
  K retry bursts.
- Blind round robin: a slot is one fresh sample; erasures are discovered only
  at the receiver, so a process's epoch spans a geometric number of rounds.

At zero erasure rate both draws consume the service stream identically, so
the two schemes simulate the same system sample for sample.

A process's age resets at each of its deliveries to the delivering attempt's
own service time (samples are stamped when generated). The first wait's
conditioning value is drawn as one unmeasured round, and ``burn_in``
initial epochs are discarded on top of that. Standard errors come from batch
means over epochs (100 batches).

Randomness is split into named substreams (service, erasure, OU noise) from
one seed, so identical seeds give bit-identical statistics and both schemes
can be compared on matched draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import ou
from .types import (
    ConvergenceError,
    InvalidConfig,
    Scheme,
    SimStats,
    SystemConfig,
    ThresholdPolicy,
)

ATTEMPT_CAP = 10**7
BATCH_COUNT = 100
TRACE_BLOCK = 1024


def _streams(seed: int) -> Tuple[np.random.Generator, np.random.Generator, np.random.Generator]:
    service_ss, erasure_ss, ou_ss = np.random.SeedSequence(seed).spawn(3)
    return (
        np.random.default_rng(service_ss),
        np.random.default_rng(erasure_ss),
        np.random.default_rng(ou_ss),
    )


def _wait_fractions(cfg: SystemConfig, wait_split: Optional[Sequence[float]]) -> np.ndarray:
    if wait_split is None:
        f = np.zeros(cfg.k)
        f[0] = 1.0
        return f
    f = np.asarray(wait_split, dtype=float)
    # Written so that a nan fails every comparison and is rejected.
    if f.shape != (cfg.k,) or not (np.all(f >= 0) and abs(f.sum() - 1.0) <= 1e-9):
        raise InvalidConfig("wait_split must be k nonnegative fractions summing to 1")
    return f / f.sum()


@dataclass(frozen=True)
class RoundArrays:
    """Per-round aggregates of a run of either scheme (vectorized engine output).

    A round is one wait followed by one service slot per process, in order.
    With feedback a slot is a retry burst that ends in a delivery, so a round
    is one epoch; without feedback a slot is one sample the channel may erase.
    """

    wait: np.ndarray           # (r,)
    service_total: np.ndarray  # (r,)
    samples: np.ndarray        # (r, k) samples drawn in each slot
    m: np.ndarray              # (r,) the round's count in the trace's m_total
    delivered: np.ndarray      # (r, k) bool, the slot's last sample got through
    ends: np.ndarray           # (r, k) slot end instants, deliveries where delivered
    stamps: np.ndarray         # (r, k) generation instants of each slot's last sample

    @property
    def gamma(self) -> np.ndarray:
        """(r,) round lengths: wait plus service."""
        return self.wait + self.service_total


def _draw_slots(
    cfg: SystemConfig,
    scheme: Scheme,
    r: int,
    service_rng: np.random.Generator,
    erasure_rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Service of ``r`` rounds of k slots: the only place the scheme enters.

    Returns each slot's service, the service of its last sample, whether that
    sample was delivered, the samples drawn per slot, and each round's count
    in the trace's ``m_total``: transmissions with feedback, one without.
    """
    shape = (r, cfg.k)
    if scheme is Scheme.RR_NO_FEEDBACK:
        services = service_rng.exponential(1.0 / cfg.mu, size=shape)
        delivered = erasure_rng.random(size=shape) >= cfg.eps
        one = np.int64(1)
        return services, services, delivered, np.broadcast_to(one, shape), np.broadcast_to(one, r)
    if cfg.eps > 0.0:
        attempts = erasure_rng.geometric(1.0 - cfg.eps, size=shape)
    else:
        attempts = np.ones(shape, dtype=np.int64)
    if attempts.max() > ATTEMPT_CAP:
        raise ConvergenceError(f"attempt cap {ATTEMPT_CAP} exceeded in one burst")
    flat = attempts.ravel()
    services = service_rng.exponential(1.0 / cfg.mu, size=int(flat.sum()))
    drawn = np.cumsum(flat)
    bursts = np.add.reduceat(services, drawn - flat).reshape(shape)
    last = services[drawn - 1].reshape(shape)
    # A product with ones sums each round's attempts several times faster
    # than a reduction along the short process axis.
    m = attempts @ np.ones(cfg.k, dtype=np.int64)
    return bursts, last, np.broadcast_to(True, shape), attempts, m


def round_arrays(
    cfg: SystemConfig,
    scheme: Scheme,
    tau: float,
    n_rounds: int,
    seed: int,
    wait_split: Optional[Sequence[float]] = None,
) -> RoundArrays:
    """Run ``n_rounds`` chained rounds of ``scheme``, vectorized across rounds.

    One extra unmeasured round is drawn first to initialize the wait's
    conditioning value; it is not part of the returned arrays.
    """
    if not 0 <= tau < math.inf:
        raise InvalidConfig("tau must be nonnegative and finite")
    if n_rounds < 1:
        raise InvalidConfig("n_rounds must be >= 1")
    service_rng, erasure_rng, _ = _streams(seed)
    fracs = np.cumsum(_wait_fractions(cfg, wait_split))
    r = n_rounds + 1
    slot, last, delivered, samples, m = _draw_slots(cfg, scheme, r, service_rng, erasure_rng)
    totals = slot.sum(axis=1)
    waits = np.empty(r)
    waits[0] = 0.0
    np.maximum(tau - totals[:-1], 0.0, out=waits[1:])
    starts = np.concatenate(([0.0], np.cumsum(waits + totals)[:-1]))
    # Slot k ends after the round start, the wait fractions released so far,
    # and the service of slots 1..k.
    ends = starts[:, None] + fracs[None, :] * waits[:, None] + np.cumsum(slot, axis=1)
    stamps = ends - last
    return RoundArrays(
        wait=waits[1:],
        service_total=totals[1:],
        samples=samples[1:],
        m=m[1:],
        delivered=delivered[1:],
        ends=ends[1:],
        stamps=stamps[1:],
    )


def _batch_edges(count: int) -> np.ndarray:
    nb = min(BATCH_COUNT, count)
    return np.linspace(0, count, nb + 1).astype(np.int64)


def _ratio_batches(values: np.ndarray, spans: np.ndarray, edges: np.ndarray) -> np.ndarray:
    sums_v = np.add.reduceat(values, edges[:-1])
    sums_s = np.add.reduceat(spans, edges[:-1])
    return sums_v / sums_s


def _se(batch_vals: np.ndarray) -> float:
    return float(np.std(batch_vals, ddof=1) / math.sqrt(len(batch_vals)))


def _ou_probe(
    deliveries: np.ndarray,
    stamps: np.ndarray,
    p,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Co-simulate the true process along one delivery sequence.

    At each delivery after the first, returns the realized squared error of
    the previous sample's extrapolation and the closed-form error at that
    age. The error ``X(d_i) - X(s_{i-1}) e^{-theta (d_i - s_{i-1})}`` sums the
    OU innovations over (s_{i-1}, d_{i-1}], (d_{i-1}, s_i] and (s_i, d_i], so
    three exact steps over whole arrays give every error; the stationary
    start cancels but is still drawn, which keeps the substream's order: one
    start normal, then z[0] and z[2i+1] for (s_i, d_i] and z[2i] for
    (d_{i-1}, s_i].
    """
    rng.standard_normal()
    z = rng.standard_normal(size=2 * len(deliveries))
    z_serve = np.concatenate((z[:1], z[3::2]))
    carried = ou.ou_step(0.0, deliveries - stamps, p, z_serve)
    # Gaps that are exactly zero in event order can round a hair negative in
    # the cumulative time arithmetic; clamp them.
    idle = np.maximum(stamps[1:] - deliveries[:-1], 0.0)
    at_stamp = ou.ou_step(carried[:-1], idle, p, z[2::2])
    errs = ou.ou_step(at_stamp, deliveries[1:] - stamps[1:], p, z_serve[1:]) ** 2
    return errs, ou.inst_mse(deliveries[1:] - stamps[:-1], p)


def simulate(
    cfg: SystemConfig,
    policy: ThresholdPolicy,
    n_epochs: int,
    seed: int,
    burn_in: int = 1000,
    wait_split: Optional[Sequence[float]] = None,
    track_ou: bool = False,
    trace_path: Optional[str] = None,
) -> SimStats:
    """Run one full replication and return time-average statistics.

    ``n_epochs`` counts per-process delivery epochs including the ``burn_in``
    initial ones that are discarded; the statistics window covers the
    remaining ``n_epochs - burn_in - 1`` inter-delivery spans of each process,
    which must be at least two for a standard error.

    ``wait_split`` optionally spreads each wait across the k service slots in
    fixed fractions (default: all of it up front). ``track_ou`` co-simulates
    each process's path from the OU noise substream and fills the
    ``ou_probe_*`` fields: the realized squared estimation error at every
    delivery in the window against the closed-form error at the same age,
    with a standard error from the same batches as the MSE. ``trace_path``
    writes one tab-separated record per epoch of the last process (see
    :func:`_write_trace`). Identical arguments give bit-identical results.
    """
    if not isinstance(policy, ThresholdPolicy) or policy.scheme not in Scheme:
        raise InvalidConfig("policy must be a ThresholdPolicy with a known scheme")
    if n_epochs < 1:
        raise InvalidConfig("n_epochs must be >= 1")
    if not (0 <= burn_in < n_epochs):
        raise InvalidConfig("burn_in must satisfy 0 <= burn_in < n_epochs")
    if n_epochs - burn_in < 3:
        raise InvalidConfig(
            "need at least three post-burn-in epochs (two spans) for a standard error"
        )

    if policy.scheme is Scheme.MAF_FEEDBACK:
        n_rounds = n_epochs
    else:
        # A process delivers in a round with probability 1 - eps: draw enough
        # rounds for n_epochs deliveries of each, with an 8-sigma margin.
        margin = int(math.ceil(8.0 * math.sqrt(n_epochs * max(cfg.eps, 1e-12)))) + 64
        n_rounds = int(math.ceil((n_epochs + margin) / (1.0 - cfg.eps)))
    rounds = round_arrays(cfg, policy.scheme, policy.tau, n_rounds, seed, wait_split)

    lo = burn_in
    window = n_epochs - burn_in - 1
    edges = _batch_edges(window)
    nb = len(edges) - 1

    per_mse = []
    per_mse_se = []
    inter_sample = []
    sum_batches = np.zeros(nb)
    epoch_len_batches = np.zeros(nb)
    mean_epoch_len = 0.0
    if track_ou:
        _, _, ou_rng = _streams(seed)
        ou_err = ou_ref = 0.0
        diff_batches = np.zeros(nb)

    for k in range(cfg.k):
        hits = np.flatnonzero(rounds.delivered[:, k])[:n_epochs]
        if len(hits) < n_epochs:
            raise ConvergenceError(
                f"only {len(hits)} deliveries for process {k}, need {n_epochs}"
            )
        hits = hits[lo:]
        d = rounds.ends[hits, k]
        s = rounds.stamps[hits, k]
        ages0 = d - s
        gaps = np.diff(d)
        ints = ou.mse_integral(ages0[:-1], gaps, cfg.processes[k])
        span = d[-1] - d[0]
        per_mse.append(float(ints.sum() / span))
        batches_k = _ratio_batches(ints, gaps, edges)
        per_mse_se.append(_se(batches_k))
        sum_batches += batches_k
        epoch_len_batches += _ratio_batches(gaps, np.ones_like(gaps), edges) / cfg.k
        mean_epoch_len += float(gaps.mean()) / cfg.k
        n_samples = int(rounds.samples[hits[0] + 1 : hits[-1] + 1, k].sum())
        inter_sample.append(float(span / n_samples))
        if track_ou:
            errs, refs = _ou_probe(d, s, cfg.processes[k], ou_rng)
            ou_err += float(errs.mean())
            ou_ref += float(refs.mean())
            diff_batches += _ratio_batches(errs - refs, np.ones_like(errs), edges)

    if trace_path is not None:
        _write_trace(trace_path, policy.scheme, cfg, rounds)

    return SimStats(
        scheme=policy.scheme,
        sum_mse=float(sum(per_mse)),
        sum_mse_se=_se(sum_batches),
        per_process_mse=tuple(per_mse),
        per_process_mse_se=tuple(per_mse_se),
        mean_epoch_len=mean_epoch_len,
        mean_epoch_len_se=_se(epoch_len_batches),
        per_process_inter_sample_mean=tuple(inter_sample),
        epochs=window,
        ou_probe_mse=ou_err if track_ou else None,
        ou_probe_ref=ou_ref if track_ou else None,
        ou_probe_diff_se=_se(diff_batches) if track_ou else None,
    )


def _write_trace(path: str, scheme: Scheme, cfg: SystemConfig, rounds: RoundArrays) -> None:
    """Dump one delimited record per epoch of the last process.

    The last process's deliveries partition the rounds into epochs (one round
    each with feedback). A record sums its rounds' waits, services and ``m``
    counts, and gives each process's last delivery and stamp within the
    epoch, or empty cells where that process delivered none. The sums are
    taken in blocks of ``TRACE_BLOCK`` epochs and the records formatted one
    at a time, which bounds memory.
    """
    cols = ["epoch_index", "scheme", "w_total", "service_total", "m_total", "gamma"]
    cols += [f"d_{k + 1}" for k in range(cfg.k)] + [f"stamp_{k + 1}" for k in range(cfg.k)]
    bounds = np.flatnonzero(rounds.delivered[:, cfg.k - 1])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(cols) + "\n")
        for b0 in range(0, len(bounds), TRACE_BLOCK):
            last = bounds[b0 : b0 + TRACE_BLOCK]
            lo = bounds[b0 - 1] + 1 if b0 else 0
            first = np.concatenate(([lo], last[:-1] + 1))
            block = slice(lo, last[-1] + 1)
            w = np.add.reduceat(rounds.wait[block], first - lo)
            svc = np.add.reduceat(rounds.service_total[block], first - lo)
            m = np.add.reduceat(rounds.m[block], first - lo)
            columns = [w.tolist(), svc.tolist(), m.tolist(), (w + svc).tolist()]
            in_block = np.arange(lo, last[-1] + 1)
            hits = []
            for k in range(cfg.k):
                # Latest delivered round of process k up to each epoch's end.
                latest = np.maximum.accumulate(np.where(rounds.delivered[block, k], in_block, -1))
                hits.append(latest[last - lo])
            for times in (rounds.ends, rounds.stamps):
                for k, hit in enumerate(hits):
                    inside = (hit >= first).tolist()
                    values = times[hit, k].tolist()
                    columns.append([t if ok else None for t, ok in zip(values, inside)])
            for i, (wi, si, mi, gi, *ts) in enumerate(zip(*columns), start=b0):
                cells = "\t".join("" if t is None else f"{t:.12g}" for t in ts)
                fh.write(f"{i}\t{scheme.value}\t{wi:.12g}\t{si:.12g}\t{mi}\t{gi:.12g}\t{cells}\n")
