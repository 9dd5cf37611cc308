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
  K retry bursts. A burst is drawn whole, not attempt by attempt: its
  attempt count, the service of its failed attempts and that of its
  delivering attempt, from the same joint law.
- Blind round robin: a slot is one fresh sample; erasures are discovered only
  at the receiver, so a process's epoch spans a geometric number of rounds.

At zero erasure rate every slot is one sample that gets through, and both
schemes take the same single draw of the service stream, so they simulate
the same system sample for sample. The erasure substream is drawn only when
the erasure rate is positive.

A process's age resets at each of its deliveries to the delivering attempt's
own service time (samples are stamped when generated). The first wait's
conditioning value is drawn as one unmeasured round, and ``burn_in``
initial epochs are discarded on top of that. Standard errors come from batch
means over epochs (100 batches).

Streaming
---------
The round engine :func:`_rounds` yields its rounds in chunks of at most
``CHUNK_ROUNDS``, whose arrays have one entry per slot whatever the erasure
rate; :func:`simulate` folds each chunk into its statistics before the next
one is drawn, and the engine stops once every process has
``n_epochs`` deliveries. Memory grows with the run length only through the
one open batch per process. Between chunks the engine carries two values,
the last round's service total (which sets the next wait) and the clock.
Each process carries its last delivery and stamp, its delivery count, the
samples drawn since its last delivery, the batch it has not yet closed and,
with the OU probe, the error innovation at its last delivery. Every
substream is drawn in the same order whatever the chunk size, and a batch is
summed once, when it closes, so every statistic and the trace file are
bit-identical for any ``CHUNK_ROUNDS``.

The statistics are read off one table of the processes' batch sums, a
(k, batches) array for each of the error integral, the span length and, with
the probe, the realized and closed-form errors. A row is summed pairwise, as
numpy sums a 1-D array; sums across processes, arrays or scalars
(:func:`_in_order`), add one process after the other.

Randomness is split into four named substreams from one seed, so identical
seeds give bit-identical statistics and both schemes can be compared on
matched draws:

- service: the service time of each slot's last sample, its only one
  without feedback;
- erasure: one uniform per slot, which erases a sample without feedback and
  gives the failed attempts of a burst with feedback;
- OU noise: split again into one substream per process, so each process's
  probe draws its normals in its own delivery order, independent of how the
  chunks interleave the processes;
- failed service: the total service of a burst's failed attempts, drawn only
  for the bursts that have any.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, fields
from typing import IO, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import ou
from .types import InvalidConfig, ProcessParams, Scheme, SimStats, SystemConfig, ThresholdPolicy
from .types import _count, _flag, _reals, _systemconfig

BATCH_COUNT = 100
CHUNK_ROUNDS = 16384


def _streams(seed: int) -> List[np.random.SeedSequence]:
    """The service, erasure, OU-noise and failed-service substreams of one
    seed. The first three are the children of ``spawn(3)``."""
    return np.random.SeedSequence(seed).spawn(4)


def _wait_fractions(cfg: SystemConfig, wait_split: Sequence[float]) -> np.ndarray:
    f = _reals("wait_split", wait_split)
    # Written so that a nan fails every comparison and is rejected.
    if f.shape != (cfg.k,) or not (np.all(f >= 0) and abs(f.sum() - 1.0) <= 1e-9):
        raise InvalidConfig("wait_split must be k nonnegative fractions summing to 1")
    return f / f.sum()


@dataclass(frozen=True)
class RoundArrays:
    """Per-round aggregates of a run of consecutive rounds of either scheme.

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

    def __getitem__(self, rows: slice) -> "RoundArrays":
        return RoundArrays(*(getattr(self, f.name)[rows] for f in fields(self)))

    @staticmethod
    def concat(parts: Sequence["RoundArrays"]) -> "RoundArrays":
        """Consecutive runs of rounds joined into one."""
        return RoundArrays(
            *(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(RoundArrays))
        )


def _draw_slots(
    cfg: SystemConfig,
    scheme: Scheme,
    r: int,
    service_rng: np.random.Generator,
    erasure_rng: np.random.Generator,
    failed_rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Service of ``r`` rounds of k slots: the only place the scheme enters.

    Returns each slot's service, the service of its last sample, whether that
    sample was delivered, the samples drawn per slot, and each round's count
    in the trace's ``m_total``: transmissions with feedback, one without.

    Without feedback, and with feedback at zero erasure rate, a slot is one
    sample: one draw of ``(r, k)`` services gives every slot, and the erasure
    substream is drawn only when the erasure rate is positive. A feedback
    burst of one attempt would draw the same services in the same order.

    Otherwise a feedback slot is a burst of a geometric(1 - eps) count n of
    Exp(mu) attempts, of which only the last is delivered, drawn per slot
    rather than per attempt. The service substream draws the delivering
    attempt's service for every slot, and one uniform ``u`` per slot from the
    erasure substream says whether an attempt failed (``u < eps``). Given
    that, ``w = (eps - u) / eps`` is uniform on (0, 1] (``u / eps`` could
    round to 1), so the failed count ``n - 1`` is
    ``1 + floor(log w / log eps)`` by inversion, and the failed-service
    substream draws their total service, Gamma(n - 1, mu), on those slots
    only. Each substream is drawn in slot order, one quantity each, so the
    draws do not depend on how the rounds are cut into chunks.
    """
    shape = (r, cfg.k)
    if scheme is Scheme.RR_NO_FEEDBACK or cfg.eps == 0.0:
        services = service_rng.exponential(1.0 / cfg.mu, size=shape)
        if cfg.eps > 0.0:
            delivered = erasure_rng.random(size=shape) >= cfg.eps
        else:
            delivered = np.broadcast_to(True, shape)
        one = np.int64(1)
        m = one if scheme is Scheme.RR_NO_FEEDBACK else np.int64(cfg.k)
        return services, services, delivered, np.broadcast_to(one, shape), np.broadcast_to(m, r)
    last = service_rng.exponential(1.0 / cfg.mu, size=shape)
    u = erasure_rng.random(size=shape).reshape(-1)
    # Integer indices: three boolean-mask updates cost about twice as much.
    hit = np.flatnonzero(u < cfg.eps)
    w = cfg.eps - u[hit]
    w /= cfg.eps
    np.log(w, out=w)
    w /= math.log(cfg.eps)
    failed = np.floor(w, out=w).astype(np.int64)
    failed += 1
    samples = np.ones(shape, np.int64)
    samples.reshape(-1)[hit] += failed
    bursts = last.copy()
    bursts.reshape(-1)[hit] += failed_rng.standard_gamma(failed) / cfg.mu
    # A product with ones sums each round's attempts several times faster
    # than a reduction along the short process axis.
    m = samples @ np.ones(cfg.k, dtype=np.int64)
    return bursts, last, np.broadcast_to(True, shape), samples, m


def _rounds(
    cfg: SystemConfig,
    scheme: Scheme,
    tau: float,
    seed: int,
    wait_split: Optional[Sequence[float]],
    n_deliveries: int,
) -> Iterator[RoundArrays]:
    """Chained rounds of ``scheme`` until every process has ``n_deliveries``
    deliveries, in chunks of at most ``CHUNK_ROUNDS``.

    A chunk holds no more rounds than the process furthest behind is likely
    to need, so that a short run draws few rounds it does not use.

    The first chunk draws one extra unmeasured round ahead of its rounds to
    set the first wait's conditioning value, and drops it. A chunk takes only
    the last round's service total and the clock from the chunk before it.
    """
    service_ss, erasure_ss, _, failed_ss = _streams(seed)
    rngs = [np.random.default_rng(ss) for ss in (service_ss, erasure_ss, failed_ss)]
    # Cumulative wait fractions; None puts the whole wait ahead of slot 1.
    fracs = None if wait_split is None else np.cumsum(_wait_fractions(cfg, wait_split))
    short = np.full(cfg.k, n_deliveries)  # deliveries still wanted
    # An infinite previous service total gives the unmeasured round no wait.
    prev_total, clock, skip = math.inf, 0.0, 1
    while short.max() > 0:
        need = int(short.max())
        if scheme is Scheme.RR_NO_FEEDBACK:
            # A process delivers in a round with probability 1 - eps: take the
            # mean count of rounds for its deliveries plus three standard
            # deviations, so that a run seldom ends in a string of tiny chunks.
            need = math.ceil((need + 3.0 * math.sqrt(need * cfg.eps)) / (1.0 - cfg.eps))
        r = min(CHUNK_ROUNDS, need) + skip
        slot, last, delivered, samples, m = _draw_slots(cfg, scheme, r, *rngs)
        # Service elapsed by the end of each slot of its round. Adding one
        # column at a time follows a row cumsum's order and is several times
        # faster than a reduction along the short process axis.
        served = np.array(slot)
        for j in range(1, cfg.k):
            served[:, j] += served[:, j - 1]
        totals = served[:, -1]
        waits = np.maximum(tau - np.concatenate(([prev_total], totals[:-1])), 0.0)
        starts = np.cumsum(np.concatenate(([clock], waits + totals)))
        # Slot k ends after the round start, the wait fractions released so
        # far, and the service of slots 1..k. With the whole wait up front
        # every fraction would be 1.0: the sum is the same without the product.
        if fracs is None:
            ends = (starts[:-1] + waits)[:, None] + served
        else:
            ends = starts[:-1, None] + fracs[None, :] * waits[:, None] + served
        prev_total, clock = totals[-1], starts[-1]
        # Column by column: a reduction down the long axis of a (rounds, k)
        # array is an order of magnitude slower.
        short -= [np.count_nonzero(delivered[skip:, j]) for j in range(cfg.k)]
        yield RoundArrays(
            wait=waits[skip:],
            service_total=totals[skip:],
            samples=samples[skip:],
            m=m[skip:],
            delivered=delivered[skip:],
            ends=ends[skip:],
            stamps=(ends - last)[skip:],
        )
        skip = 0


def _batch_edges(count: int) -> np.ndarray:
    nb = min(BATCH_COUNT, count)
    return np.linspace(0, count, nb + 1).astype(np.int64)


def _se(batch_vals: np.ndarray) -> np.ndarray:
    """The batch-means standard error of each row of ``batch_vals``."""
    return np.std(batch_vals, axis=-1, ddof=1) / math.sqrt(batch_vals.shape[-1])


def _in_order(values: np.ndarray) -> float:
    """The sum of ``values`` added one at a time in order, as ``+=`` in a loop
    would: a cumsum's last entry, where a 1-D sum would be pairwise."""
    return float(values.cumsum()[-1])


class _Batches:
    """Per-batch sums of rows of per-span values that arrive in pieces, and
    of one integer count per span.

    The batches are the index ranges between consecutive ``edges``. Only the
    pieces of the open batch are kept; complete batches are joined and summed
    with ``reduceat``, which sums a segment in the same order wherever it
    starts: the sums do not depend on how the values were split. Integer sums
    are exact in any order, so each piece's counts are summed at once.
    """

    def __init__(self, rows: int, edges: np.ndarray) -> None:
        self.edges = edges
        self.sums = np.empty((rows, len(edges) - 1))
        self.counts = np.zeros(len(edges) - 1, np.int64)
        self.open: List[np.ndarray] = []  # the open batch's values so far
        self.closed = 0  # batches summed
        self.spans = 0  # spans added

    def add(self, values: np.ndarray, counts: np.ndarray) -> None:
        """The next spans: ``values`` holds a column per span, ``counts``
        an integer per span."""
        lo, start = self.closed, self.edges[self.closed]
        first = self.spans
        self.spans += values.shape[1]
        # The edges inside this piece split its counts between its batches.
        cuts = self.edges[lo + 1 : np.searchsorted(self.edges, self.spans)] - first
        sums = np.add.reduceat(counts, np.concatenate(([0], cuts)))
        self.counts[lo : lo + len(sums)] += sums
        self.open.append(values)
        hi = int(np.searchsorted(self.edges, self.spans, side="right")) - 1
        if hi > lo:
            keep = values.shape[1] - (self.spans - self.edges[hi])  # values in batches lo..hi-1
            joined = np.concatenate(self.open[:-1] + [values[:, :keep]], axis=1)
            self.sums[:, lo:hi] = np.add.reduceat(joined, self.edges[lo:hi] - start, axis=1)
            self.open = [values[:, keep:]]
            self.closed = hi


def _ou_probe(
    deliveries: np.ndarray,
    stamps: np.ndarray,
    p: ProcessParams,
    rng: np.random.Generator,
    carry: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Co-simulate the true process along one delivery sequence.

    At each delivery after the first, returns the realized squared error of
    the previous sample's extrapolation and the closed-form error at that
    age. The error ``X(d_i) - X(s_{i-1}) e^{-theta (d_i - s_{i-1})}`` sums the
    OU innovations over (s_{i-1}, d_{i-1}], (d_{i-1}, s_i] and (s_i, d_i], so
    three exact steps over whole arrays give every error. Each delivery after
    the first draws two normals, for (d_{i-1}, s_i] and then (s_i, d_i]. A
    fresh sequence first draws a stationary start, which cancels but keeps
    the order of a loop that steps the process itself, and the pair of its
    first delivery, of which only the second is used.

    ``carry`` continues a sequence over several calls: it is the innovation
    the previous call returned third, at its last delivery, which
    ``deliveries[0]`` and ``stamps[0]`` must then repeat; that delivery's
    innovation is taken from it rather than drawn.
    """
    serve = deliveries[1:] - stamps[1:]
    if carry is None:
        rng.standard_normal()
        z = rng.standard_normal(size=2 * len(deliveries))
        carry = ou.ou_step(0.0, deliveries[0] - stamps[0], p, z[0])
        z = z[2:]
    else:
        z = rng.standard_normal(size=2 * len(serve))
    carried = np.concatenate(([carry], ou.ou_step(0.0, serve, p, z[1::2])))
    # Gaps that are exactly zero in event order can round a hair negative in
    # the cumulative time arithmetic; clamp them.
    idle = np.maximum(stamps[1:] - deliveries[:-1], 0.0)
    at_stamp = ou.ou_step(carried[:-1], idle, p, z[0::2])
    errs = ou.ou_step(at_stamp, serve, p, z[1::2]) ** 2
    return errs, ou.inst_mse(deliveries[1:] - stamps[:-1], p), carried[-1]


class _Window:
    """One process's statistics window, fed one chunk of rounds at a time.

    The process's deliveries are counted up to ``n_epochs``. From delivery
    ``burn_in`` on, every span to the next delivery enters the batches: its
    error integral, length and sample count, and with the probe the realized
    and closed-form errors at its end. The last delivery and stamp carry over,
    so a span that straddles two chunks is measured like any other.
    """

    def __init__(
        self,
        k: int,
        p: ProcessParams,
        n_epochs: int,
        burn_in: int,
        edges: np.ndarray,
        ou_rng: Optional[np.random.Generator],
    ) -> None:
        self.k, self.p = k, p
        self.n_epochs, self.burn_in = n_epochs, burn_in
        self.ou_rng = ou_rng
        self.ou: Optional[float] = None  # probe innovation at the latest delivery
        self.batches = _Batches(2 if ou_rng is None else 4, edges)
        self.seen = 0  # deliveries so far
        self.pending = 0  # samples drawn since the latest delivery
        self.first: Optional[float] = None  # first delivery in the window
        self.last: Tuple[float, float] = (0.0, 0.0)  # latest delivery and its stamp

    @property
    def done(self) -> bool:
        return self.seen == self.n_epochs

    def feed(self, rounds: RoundArrays) -> None:
        if self.done:
            return
        k = self.k
        hits = np.flatnonzero(rounds.delivered[:, k])[: self.n_epochs - self.seen]
        opens = max(self.burn_in - self.seen, 0)
        self.seen += len(hits)
        if self.seen <= self.burn_in:
            return
        # The samples of the epoch that ends at each delivery, the first one
        # with those drawn since the latest delivery before this chunk.
        col = rounds.samples[:, k]
        if len(hits) == 0 or hits[-1] == len(hits) - 1:
            # Every row from the first delivers (always with feedback): the
            # window's rows are a slice, and each epoch is its round.
            win = slice(opens, len(hits))
            epochs = col[: len(hits)]
            if self.pending:
                epochs = np.concatenate((epochs[:1] + self.pending, epochs[1:]))
        else:
            # Without feedback a slot is one sample: an epoch's samples are
            # its rounds, which costs less to count than to sum.
            win = hits[opens:]
            epochs = hits - np.concatenate(([-1 - self.pending], hits[:-1]))
        if len(hits):
            self.pending = int(col[hits[-1] + 1 :].sum())
        else:
            self.pending += int(col.sum())
        # A span's samples are those of the rounds after its first delivery
        # through its last.
        d, s = rounds.ends[win, k], rounds.stamps[win, k]
        if self.first is None:
            self.first = d[0]
            spans = epochs[opens + 1 :]
        else:
            d = np.concatenate(([self.last[0]], d))
            s = np.concatenate(([self.last[1]], s))
            spans = epochs
        self.last = (d[-1], s[-1])
        if len(d) > 1:
            gaps = np.diff(d)
            rows = [ou.mse_integral(d[:-1] - s[:-1], gaps, self.p), gaps]
            if self.ou_rng is not None:
                errs, refs, self.ou = _ou_probe(d, s, self.p, self.ou_rng, self.ou)
                rows += [errs, refs]
            self.batches.add(np.stack(rows), spans)


def simulate(
    cfg: SystemConfig,
    policy: ThresholdPolicy,
    n_epochs: int,
    seed: int,
    burn_in: Optional[int] = None,
    wait_split: Optional[Sequence[float]] = None,
    track_ou: bool = False,
    trace_path: Optional[str] = None,
) -> SimStats:
    """Run one full replication and return time-average statistics.

    ``n_epochs`` counts per-process delivery epochs including the ``burn_in``
    initial ones that are discarded; the statistics window covers the
    remaining ``n_epochs - burn_in - 1`` inter-delivery spans of each process,
    which must be at least two for a standard error. ``burn_in`` defaults to
    1000, or to ``n_epochs - 3`` where that is less, so that any run of at
    least three epochs has a window. ``n_epochs``, ``burn_in`` and ``seed`` are
    integers, never a bool or a float, and ``seed`` is non-negative.

    ``wait_split`` optionally spreads each wait across the k service slots in
    fixed fractions, integers or floats (default: all of it up front).
    ``track_ou``, a bool, co-simulates each process's path from its own OU
    noise substream and fills the ``ou_probe_*`` fields: the realized squared
    estimation error at every delivery in the window against the closed-form
    error at the same age, with a standard error from the same batches as the
    MSE. ``trace_path`` writes one tab-separated record per epoch of the last
    process, for its first ``n_epochs`` epochs (see :func:`_write_trace`).
    Identical arguments give bit-identical results.
    """
    cfg = _systemconfig("cfg", cfg)
    if not isinstance(policy, ThresholdPolicy):
        raise InvalidConfig(f"policy must be a ThresholdPolicy, got {policy!r}")
    seed = _count("seed", seed, 0)
    n_epochs = _count("n_epochs", n_epochs, 1)
    track_ou = _flag("track_ou", track_ou)
    if burn_in is None:
        burn_in = max(0, min(1000, n_epochs - 3))
    burn_in = _count("burn_in", burn_in, 0, n_epochs)
    if n_epochs - burn_in < 3:
        raise InvalidConfig(
            "need at least three post-burn-in epochs (two spans) for a standard error"
        )

    window = n_epochs - burn_in - 1
    edges = _batch_edges(window)
    if track_ou:
        ou_rngs = [np.random.default_rng(ss) for ss in _streams(seed)[2].spawn(cfg.k)]
    else:
        ou_rngs = [None] * cfg.k
    windows = [
        _Window(k, p, n_epochs, burn_in, edges, rng)
        for k, (p, rng) in enumerate(zip(cfg.processes, ou_rngs))
    ]
    with contextlib.ExitStack() as stack:
        chunks = _rounds(cfg, policy.scheme, policy.tau, seed, wait_split, n_epochs)
        if trace_path is not None:
            fh = stack.enter_context(open(trace_path, "w", encoding="utf-8"))
            chunks = _write_trace(fh, policy.scheme, cfg, n_epochs, chunks)
        for rounds in chunks:
            for w in windows:
                w.feed(rounds)

    counts = np.diff(edges).astype(float)
    # One table of batch sums, each row (k, batches): see Streaming for the sums' order.
    ints, gaps, *probe = np.stack([w.batches.sums for w in windows], axis=1)
    errs, refs = probe or (None, None)
    samples = np.stack([w.batches.counts for w in windows])
    span = np.array([w.last[0] - w.first for w in windows])
    per_mse, batch_mse = ints.sum(axis=1) / span, ints / gaps
    return SimStats(
        scheme=policy.scheme,
        sum_mse=_in_order(per_mse),
        sum_mse_se=float(_se(batch_mse.sum(axis=0))),
        per_process_mse=tuple(per_mse.tolist()),
        per_process_mse_se=tuple(_se(batch_mse).tolist()),
        mean_epoch_len=_in_order(gaps.sum(axis=1) / window / cfg.k),
        mean_epoch_len_se=float(_se((gaps / counts / cfg.k).sum(axis=0))),
        per_process_inter_sample_mean=tuple((span / samples.sum(axis=1)).tolist()),
        per_process_inter_sample_se=tuple(_se(gaps / samples).tolist()),
        epochs=window,
        ou_probe_mse=_in_order(errs.sum(axis=1) / window) if probe else None,
        ou_probe_ref=_in_order(refs.sum(axis=1) / window) if probe else None,
        ou_probe_diff_se=float(_se(((errs - refs) / counts).sum(axis=0))) if probe else None,
    )


def _write_trace(
    fh: IO[str],
    scheme: Scheme,
    cfg: SystemConfig,
    n_epochs: int,
    chunks: Iterator[RoundArrays],
) -> Iterator[RoundArrays]:
    """Write one delimited record per epoch of the last process, passing each
    chunk of rounds on once its records are written.

    The last process's deliveries partition the rounds into epochs (one round
    each with feedback), and its first ``n_epochs`` epochs are written. A
    record sums its rounds' waits, services and ``m`` counts, and gives each
    process's last delivery and stamp within the epoch, or empty cells where
    that process delivered none. A copy of the rounds of the epoch still open
    at a chunk's end carries into the next chunk, where it is joined with the
    rest of that epoch's rounds only, so each record is summed over its whole
    epoch at once. The records are printed in blocks by
    :func:`_print_cells` (see :func:`_write_records`).
    """
    cols = ["epoch_index", "scheme", "w_total", "service_total", "m_total", "gamma"]
    cols += [f"d_{k + 1}" for k in range(cfg.k)] + [f"stamp_{k + 1}" for k in range(cfg.k)]
    fh.write("\t".join(cols) + "\n")
    written = 0
    formats = ("%d", "%.11e", "%.11e", "%d") + ("%.11e",) * (1 + 2 * cfg.k)
    carry: Optional[RoundArrays] = None  # a copy of the open epoch's rounds
    for rounds in chunks:
        if written < n_epochs:
            last = np.flatnonzero(rounds.delivered[:, cfg.k - 1])[: n_epochs - written]
            start = 0  # the chunk's first round not yet written or carried
            if carry is not None:
                # Only the rounds of the epoch that straddles the chunk edge
                # are joined to the carried ones.
                start = last[0] + 1 if len(last) else len(rounds.wait)
                carry = RoundArrays.concat((carry, rounds[:start]))
                if len(last):
                    _write_records(fh, formats, scheme, cfg, carry,
                                   np.array([len(carry.wait) - 1]), written)
                    written += 1
                    last, carry = last[1:], None
            if len(last):
                _write_records(fh, formats, scheme, cfg, rounds[start : last[-1] + 1],
                               last - start, written)
                written += len(last)
                start = last[-1] + 1
            if carry is None and start < len(rounds.wait) and written < n_epochs:
                # A copy, so that the chunk is not kept alive with its tail.
                carry = RoundArrays.concat((rounds[start:],))
        yield rounds


def _write_records(
    fh: IO[str],
    formats: Sequence[str],
    scheme: Scheme,
    cfg: SystemConfig,
    block: RoundArrays,
    last: np.ndarray,
    index: int,
) -> None:
    """The records of the epochs that end at rows ``last`` of ``block``, which
    starts with the first of them; the first is numbered ``index``.

    ``_TRACE_BLOCK`` records at a time are gathered into a float table in
    file order, less the scheme, with the integer columns as exact floats and
    nan for the empty cells, printed with ``formats``, and written as one
    string. The scheme name follows the epoch index in its slot, in the bytes
    of the exponent, which an integer's text never uses. Tables or text for a
    whole chunk at once would raise the peak RSS.
    """
    first = np.concatenate(([0], last[:-1] + 1))
    rows = np.arange(len(block.wait))
    # Latest delivered round of each process up to each epoch's end.
    hits = [np.maximum.accumulate(np.where(block.delivered[:, k], rows, -1))[last]
            for k in range(cfg.k)]
    name = np.frombuffer(b"\t" + scheme.value.encode("ascii"), np.uint8)
    after_index = slice(16, 16 + len(name))
    for lo in range(0, len(last), _TRACE_BLOCK):
        hi = min(lo + _TRACE_BLOCK, len(last))
        opens = first[lo:hi]
        epochs, starts = slice(opens[0], last[hi - 1] + 1), opens - opens[0]
        cells = np.empty((hi - lo, len(formats)))
        cells[:, 0] = np.arange(index + lo, index + hi)
        np.add.reduceat(block.wait[epochs], starts, out=cells[:, 1])
        np.add.reduceat(block.service_total[epochs], starts, out=cells[:, 2])
        cells[:, 3] = np.add.reduceat(block.m[epochs], starts)
        np.add(cells[:, 1], cells[:, 2], out=cells[:, 4])
        for k, hit in enumerate(hits):
            hit = hit[lo:hi]
            inside = hit >= opens
            cells[:, 5 + k] = np.where(inside, block.ends[hit, k], np.nan)
            cells[:, 5 + cfg.k + k] = np.where(inside, block.stamps[hit, k], np.nan)
        text, keep = _print_cells(cells, formats)
        text[:, 0, after_index] = name
        keep[:, 0, after_index] = True
        # Decoding the picked bytes in place, with no bytes copy between,
        # keeps the traced runs' peak RSS lower.
        fh.write(str(memoryview(text[keep]), "ascii"))


# Records printed per block: larger blocks raise the peak RSS of a traced run.
_TRACE_BLOCK = 256
# Each cell is printed into a slot of six 4-byte words: the first 4-digit
# group of its 12-digit mantissa, the same group with a point for its first
# digit, the other two groups, its exponent and its separator, in the last
# byte. Text that Python printed starts at the slot's first byte.
_SLOT = 24
# The decimal exponents of the fast path, and their exact powers 10**(11 - e).
_EXPONENTS = range(-3, 12)
_TO_MANTISSA = np.array([float(10 ** (11 - e)) for e in _EXPONENTS])


@functools.lru_cache(maxsize=None)
def _print_tables() -> Tuple[np.ndarray, ...]:
    """The read-only tables of :func:`_print_cells`, built on first use so
    that runs without a trace take no memory for them: the 4-digit groups
    0000..9999 as little-endian words of ASCII text, the same with a point for
    the first digit, each of ``_EXPONENTS`` as a word, and the masks of a slot:
    row 0 picks a float's bytes, 0 and 4-19, row n in 1..12 the last n of an
    integer's 12 digits, row 13 + n the first n bytes, and each the separator."""
    digits = np.frombuffer(b"".join(b"%04d" % g for g in range(10**4)), "<u4")
    point = np.frombuffer(b"".join(b".%03d" % (g % 1000) for g in range(10**4)), "<u4")
    exponents = np.frombuffer(b"".join(b"e%+03d" % e for e in _EXPONENTS), "<u4")
    runs = [[0, *range(4, 20)]] + [[*range(4), *range(8, 16)][-n:] for n in range(1, 13)]
    masks = np.zeros((len(runs) + _SLOT, _SLOT), bool)
    for row, picked in zip(masks, runs + [[*range(n)] for n in range(_SLOT)]):
        row[picked + [_SLOT - 1]] = True
    masks.flags.writeable = False
    return digits, point, exponents, masks


def _print_cells(cells: np.ndarray, formats: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
    """The text of a float table, one column per entry of ``formats``, each
    ``"%.11e"`` or ``"%d"``, as ``(rows, columns, _SLOT)`` byte slots and a
    mask of the same shape that picks each cell's text and the tab or newline
    after it, a nan's text being empty.

    A cell ``x`` in [1e-3, 1e12) with decimal exponent ``e`` has the 12-digit
    mantissa ``y = x 10**(11 - e)``. The power is exact, so the product is
    rounded once and lies within 1.2e-4 of the exact one: where ``y`` is more
    than 0.499 from its nearest integer, that integer is the correctly
    rounded mantissa. The fast path prints such cells, whose ``y`` is in
    [1e11, 1e12) and rounds below 1e12, a ``"%d"`` column's whole numbers in
    [0, 1e12), their own mantissas, and +0.0 and nan. Python's ``%`` prints
    the rest (near-ties, values out of range, negatives, -0.0 and
    infinities), about one cell in a thousand of a trace.
    """
    digits, point, exponents, masks = _print_tables()
    whole = np.array([f == "%d" for f in formats])
    # Logarithms of nan, zero and negative cells, and the out-of-range
    # products, only send their cells to the slow path below.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.fmin(np.fmax(np.floor(np.log10(cells)), -3), 11).astype(np.int64)
        e[:, whole] = 11
        y = cells * _TO_MANTISSA[e + 3]
        mantissa = np.rint(y)
        fast = (y >= np.where(whole, 0.0, 1e11)) & (mantissa < 1e12)
        fast &= np.abs(y - mantissa) < 0.499
    slow = np.flatnonzero(~fast)
    # The slow cells print as +0.0 until they are emptied or overwritten.
    mantissa.reshape(-1)[slow] = 0.0
    e.reshape(-1)[slow] = 0
    high, low = np.divmod(mantissa.astype(np.int64), 10**8)
    mid, low = np.divmod(low, 10**4)
    text = np.empty(cells.shape + (_SLOT,), np.uint8)
    words = text.view("<u4")
    words[..., 0], words[..., 1] = digits[high], point[high]
    words[..., 2], words[..., 3] = digits[mid], digits[low]
    words[..., 4] = exponents[e + 3]
    words[..., 5] = ord("\t") << 24
    words[:, -1, 5] = ord("\n") << 24
    row = np.zeros(cells.shape, np.int64)  # each cell's mask row
    row[:, whole] = 1 + np.searchsorted(10 ** np.arange(1, 12), mantissa[:, whole], "right")
    flat, values = row.reshape(-1), cells.reshape(-1)[slow]
    nan = np.isnan(values)
    flat[slow[nan]] = 13
    python = ((values != 0.0) | np.signbit(values)) & ~nan
    slots = text.reshape(-1, _SLOT)
    for i, v in zip(slow[python].tolist(), values[python].tolist()):
        cell = (formats[i % len(formats)] % v).encode("ascii")
        slots[i, : len(cell)] = np.frombuffer(cell, np.uint8)
        flat[i] = 13 + len(cell)
    return text, masks[row]
