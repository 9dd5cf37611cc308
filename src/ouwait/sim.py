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
``CHUNK_ROUNDS`` (with feedback, of at most ``2 (1 - eps) CHUNK_ROUNDS``,
so that a chunk draws about ``2 k CHUNK_ROUNDS`` samples at most whatever the
erasure rate); :func:`simulate` folds each chunk into its statistics before
the next one is drawn, and the engine stops once every process has
``n_epochs`` deliveries. Memory grows with the run length only through the
one open batch per process. Between chunks the engine carries two values,
the last round's service total (which sets the next wait) and the clock.
Each process carries its last delivery and stamp, its delivery and sample
counts, the batch it has not yet closed and, with the OU probe, the error
innovation at its last delivery. Every substream is drawn in the same order
whatever the chunk size, and a batch is summed once, when it closes, so
every statistic and the trace file are bit-identical for any
``CHUNK_ROUNDS``.

Randomness is split into named substreams (service, erasure, OU noise) from
one seed, so identical seeds give bit-identical statistics and both schemes
can be compared on matched draws. The OU noise is split again into one
substream per process, so each process's probe draws its normals in its own
delivery order, independent of how the chunks interleave the processes.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, fields
from typing import IO, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import ou
from .types import (
    ConvergenceError,
    InvalidConfig,
    ProcessParams,
    Scheme,
    SimStats,
    SystemConfig,
    ThresholdPolicy,
)

ATTEMPT_CAP = 10**7
BATCH_COUNT = 100
CHUNK_ROUNDS = 16384


def _streams(seed: int) -> List[np.random.SeedSequence]:
    """The service, erasure and OU-noise substreams of one seed."""
    return np.random.SeedSequence(seed).spawn(3)


def _wait_fractions(cfg: SystemConfig, wait_split: Sequence[float]) -> np.ndarray:
    f = np.asarray(wait_split, dtype=float)
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

    @property
    def gamma(self) -> np.ndarray:
        """(r,) round lengths: wait plus service."""
        return self.wait + self.service_total

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
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Service of ``r`` rounds of k slots: the only place the scheme enters.

    Returns each slot's service, the service of its last sample, whether that
    sample was delivered, the samples drawn per slot, and each round's count
    in the trace's ``m_total``: transmissions with feedback, one without.

    Without feedback, and with feedback at zero erasure rate, a slot is one
    sample: one draw of ``(r, k)`` services gives every slot, and the erasure
    substream is drawn only when the erasure rate is positive. A feedback
    burst of one attempt would draw the same services in the same order.
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
    attempts = erasure_rng.geometric(1.0 - cfg.eps, size=shape)
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
    if not 0 <= tau < math.inf:
        raise InvalidConfig("tau must be nonnegative and finite")
    service_ss, erasure_ss, _ = _streams(seed)
    service_rng = np.random.default_rng(service_ss)
    erasure_rng = np.random.default_rng(erasure_ss)
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
        else:
            # A feedback round draws k / (1 - eps) samples on average: keep a
            # chunk's expected count at most 2 k CHUNK_ROUNDS, so that memory
            # does not grow with 1 / (1 - eps). At eps <= 0.5 this never binds.
            need = min(need, max(1, int(2.0 * CHUNK_ROUNDS * (1.0 - cfg.eps))))
        r = min(CHUNK_ROUNDS, need) + skip
        slot, last, delivered, samples, m = _draw_slots(cfg, scheme, r, service_rng, erasure_rng)
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


def _se(batch_vals: np.ndarray) -> float:
    return float(np.std(batch_vals, ddof=1) / math.sqrt(len(batch_vals)))


class _Batches:
    """Per-batch sums of rows of per-span values that arrive in pieces.

    The batches are the index ranges between consecutive ``edges``. Only the
    pieces of the open batch are kept; complete batches are joined and summed
    with ``reduceat``, which sums a segment in the same order wherever it
    starts: the sums do not depend on how the values were split.
    """

    def __init__(self, rows: int, edges: np.ndarray) -> None:
        self.edges = edges
        self.sums = np.empty((rows, len(edges) - 1))
        self.open: List[np.ndarray] = []  # the open batch's values so far
        self.closed = 0  # batches summed

    def add(self, values: np.ndarray) -> None:
        self.open.append(values)
        lo, start = self.closed, self.edges[self.closed]
        end = start + sum(piece.shape[1] for piece in self.open)
        hi = int(np.searchsorted(self.edges, end, side="right")) - 1
        if hi > lo:
            keep = values.shape[1] - (end - self.edges[hi])  # values in batches lo..hi-1
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
    error integral and length, and with the probe the realized and
    closed-form errors at its end. The last delivery and stamp carry over,
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
        self.samples = 0  # samples drawn over the measured spans
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
        # A span's samples are those of the rounds after its first delivery
        # through its last.
        lo = hits[opens] + 1 if self.first is None else 0
        hi = hits[-1] + 1 if self.done else len(rounds.wait)
        self.samples += int(rounds.samples[lo:hi, k].sum())
        # Where every row from the first delivers (always with feedback), the
        # window's rows are a slice.
        if len(hits) == 0 or hits[-1] == len(hits) - 1:
            win = slice(opens, len(hits))
        else:
            win = hits[opens:]
        d, s = rounds.ends[win, k], rounds.stamps[win, k]
        if self.first is None:
            self.first = d[0]
        else:
            d = np.concatenate(([self.last[0]], d))
            s = np.concatenate(([self.last[1]], s))
        self.last = (d[-1], s[-1])
        if len(d) > 1:
            gaps = np.diff(d)
            rows = [ou.mse_integral(d[:-1] - s[:-1], gaps, self.p), gaps]
            if self.ou_rng is not None:
                errs, refs, self.ou = _ou_probe(d, s, self.p, self.ou_rng, self.ou)
                rows += [errs, refs]
            self.batches.add(np.stack(rows))


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
    least three epochs has a window. ``seed`` is a non-negative integer.

    ``wait_split`` optionally spreads each wait across the k service slots in
    fixed fractions (default: all of it up front). ``track_ou`` co-simulates
    each process's path from its own OU noise substream and fills the
    ``ou_probe_*`` fields: the realized squared estimation error at every
    delivery in the window against the closed-form error at the same age,
    with a standard error from the same batches as the MSE. ``trace_path``
    writes one tab-separated record per epoch of the last process, for its
    first ``n_epochs`` epochs (see :func:`_write_trace`). Identical arguments
    give bit-identical results.
    """
    if not isinstance(policy, ThresholdPolicy):
        raise InvalidConfig(f"policy must be a ThresholdPolicy, got {policy!r}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidConfig(f"seed must be a non-negative integer, got {seed!r}")
    if n_epochs < 1:
        raise InvalidConfig("n_epochs must be >= 1")
    if burn_in is None:
        burn_in = max(0, min(1000, n_epochs - 3))
    if not (0 <= burn_in < n_epochs):
        raise InvalidConfig("burn_in must satisfy 0 <= burn_in < n_epochs")
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
    per_mse = []
    per_mse_se = []
    inter_sample = []
    sum_batches = np.zeros(len(counts))
    epoch_len_batches = np.zeros(len(counts))
    mean_epoch_len = 0.0
    ou_err = ou_ref = 0.0
    diff_batches = np.zeros(len(counts))
    for w in windows:
        ints, gaps = w.batches.sums[:2]
        span = w.last[0] - w.first
        per_mse.append(float(ints.sum() / span))
        batches_k = ints / gaps
        per_mse_se.append(_se(batches_k))
        sum_batches += batches_k
        epoch_len_batches += gaps / counts / cfg.k
        mean_epoch_len += float(gaps.sum() / window) / cfg.k
        inter_sample.append(float(span / w.samples))
        if track_ou:
            errs, refs = w.batches.sums[2:]
            ou_err += float(errs.sum() / window)
            ou_ref += float(refs.sum() / window)
            diff_batches += (errs - refs) / counts

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
    that process delivered none. The rounds of the epoch still open at a
    chunk's end carry into the next chunk, so each record is summed over its
    whole epoch at once. Each record is one ``%`` format of a line built once
    per chunk, written on its own (see :func:`_write_records`).
    """
    cols = ["epoch_index", "scheme", "w_total", "service_total", "m_total", "gamma"]
    cols += [f"d_{k + 1}" for k in range(cfg.k)] + [f"stamp_{k + 1}" for k in range(cfg.k)]
    fh.write("\t".join(cols) + "\n")
    written = 0
    open_epoch: Optional[RoundArrays] = None
    for rounds in chunks:
        if written < n_epochs:
            block = rounds
            if open_epoch is not None and len(open_epoch.wait):
                block = RoundArrays.concat((open_epoch, rounds))
            last = np.flatnonzero(block.delivered[:, cfg.k - 1])[: n_epochs - written]
            if len(last):
                _write_records(fh, scheme, cfg, block[: last[-1] + 1], last, written)
                written += len(last)
            open_epoch = block[last[-1] + 1 :] if len(last) else block
        yield rounds


def _write_records(
    fh: IO[str],
    scheme: Scheme,
    cfg: SystemConfig,
    block: RoundArrays,
    last: np.ndarray,
    index: int,
) -> None:
    """The records of the epochs that end at rows ``last`` of ``block``, which
    starts with the first of them; the first is numbered ``index``.

    The cells are gathered into one float table, with nan for the empty
    ones. Every record is one ``%`` format of a line built once per call,
    with ``%.12g`` for each float cell; only a nan cell prints "nan", so
    deleting that text empties exactly the empty cells. Rows go to Python 64
    at a time and each record is written on its own: the float lists of a
    whole chunk, or strings of many joined records, raise the peak RSS.
    """
    first = np.concatenate(([0], last[:-1] + 1))
    table = np.empty((len(last), 3 + 2 * cfg.k))
    np.add.reduceat(block.wait, first, out=table[:, 0])
    np.add.reduceat(block.service_total, first, out=table[:, 1])
    np.add(table[:, 0], table[:, 1], out=table[:, 2])
    rows = np.arange(len(block.wait))
    for k in range(cfg.k):
        # Latest delivered round of process k up to each epoch's end.
        hit = np.maximum.accumulate(np.where(block.delivered[:, k], rows, -1))[last]
        inside = hit >= first
        table[:, 3 + k] = np.where(inside, block.ends[hit, k], np.nan)
        table[:, 3 + cfg.k + k] = np.where(inside, block.stamps[hit, k], np.nan)
    m = np.add.reduceat(block.m, first).tolist()
    line = "%d\t" + scheme.value + "\t%.12g\t%.12g\t%d\t%.12g" + "\t%.12g" * (2 * cfg.k) + "\n"
    for lo in range(0, len(last), 64):
        w, s, g, *cells = table[lo : lo + 64].T.tolist()
        for record in zip(range(index + lo, index + len(last)), w, s, m[lo : lo + 64], g, *cells):
            fh.write((line % record).replace("nan", ""))
