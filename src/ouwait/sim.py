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

A span runs from one of a process's deliveries to its next. Its age at the
start is the delivered sample's service, exactly. Where every slot delivers,
a span runs from a slot's end to the same slot's end in the next round, and
its length is measured in round time: the rest of the round after the slot
plus the next round's lead up to the slot's end, each summed from that
round's wait, wait fractions and services alone. Without feedback at a
positive erasure rate, a span covers a random number of rounds, and its
length is measured between its deliveries' instants on the clock, whose
round starts sum every wait and service total since time 0. A process's
whole window is the sum of its span lengths.

Streaming
---------
The round engine :func:`_rounds` yields its rounds in chunks of at most
``CHUNK_ROUNDS``, whose arrays have one entry per slot whatever the erasure
rate. :func:`simulate` is one loop, which feeds each chunk to each of its
consumers before the next one is drawn: the statistics windows
(:class:`_Window`) and, with a trace file, the epoch trace
(:class:`_Trace`). The windows count each process's deliveries up to
``n_epochs``. Before each chunk the engine asks how many the process
furthest behind still wants, which :func:`simulate` reads off those counts;
it sizes the chunk from the answer and stops at 0. The trace, of the last
process's first ``n_epochs`` epochs, wants no more. Where every slot
delivers, the k processes deliver in the same rounds and share one window,
which folds a chunk's (rounds, k) columns at once; otherwise each process
has its own. The conditioning round is drawn alone ahead of the chunks, so
every chunk is measured whole.

Between chunks the engine carries the last round's service total (which
sets the next wait) and, where a consumer reads instants on the clock, the
clock. A window carries its delivery count, the pieces of the batch it has
not yet closed, and each process's latest delivery: its age; the rest of
its round where every slot delivers, and its instant otherwise; and, with
the OU probe, the error innovation there. Without feedback it also carries
its process's last delivering round, from which the next epoch's samples
are counted. The trace carries the waits and services of the epoch still
open and each process's latest delivery in it. So memory
grows with the run length only through one open batch per window, and with
an epoch's length only through the trace's two floats a round. Every
substream is drawn in the same order whatever the chunk size, and a batch
or a trace record is summed once, when it closes, so every statistic and
the trace file are bit-identical for any ``CHUNK_ROUNDS``. A chunk holds
only what the statistics read, so a run without a trace does no work for one.

A chunk is assembled in place: the slot services are summed into the array
of the slots' ends in round time, and the last samples' services are kept as
drawn. Its round starts are summed only for the consumers that read instants
on the clock: the windows of single processes, which measure multi-round
spans, and the trace. Each computes the slot ends it reads, and the trace
their stamps, at those rows only (:meth:`RoundArrays.instants`), with the
operations of a whole chunk in their order, so no (rounds, k) array of
instants is built and each instant has the bits it would have in one. Each
window writes a chunk's spans into one (rows, processes, spans) table,
straight from the round-time arrays where every slot delivers; the OU probe
reads its age and length rows, and then its age rows become the error
integrals in place (:func:`ouwait.ou._error_integral`). Every operation
keeps its operands and order, so the bits are those of the out-of-place
forms; with fewer temporaries per chunk, fewer heap pages are returned to
the system and faulted in again. A yielded chunk is its consumers': the
engine draws the next chunk into new arrays, no consumer writes to a chunk,
and what one carries to the next chunk is a copy. One chunk is alive at a
time: the engine and :func:`simulate` each drop their references to a chunk
once it has passed, before the next is drawn.

The statistics are read off one table of the processes' batch sums, a
(k, batches) array for each of the error integral, the span length, the
sample count and, with the probe, the realized and closed-form errors; a
process's whole window is the sum of its span lengths' batch sums. The
counts are summed as floats, exactly, since they are whole numbers below
2**53. A process's row is summed pairwise, as numpy sums a 1-D array; sums
across processes, arrays or scalars (:func:`_in_order`), add one process
after the other.

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
from dataclasses import dataclass
from typing import IO, Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import ou
from .types import InvalidConfig, ProcessParams, Scheme, SimStats, SystemConfig, ThresholdPolicy
from .types import _count, _flag, _reals, _systemconfig

BATCH_COUNT = 100
CHUNK_ROUNDS = 16384
# The largest tau, 1 / mu and stationary variance a run takes. The batch
# standard errors square deviations of the size of a span, about tau + k / mu,
# or of the variance, which overflow from 1e154; below this limit, even spans
# 1e20 times longer, and clocks 1e20 times later, stay finite.
_LIMIT = 1e100
# The most rounds a run may expect to draw, n_epochs / (1 - miss) for a miss
# rate miss per slot: 50-150 s at k = 2 on one x86-64 (AVX-512) core.
_MAX_ROUNDS = 1e9


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

    A slot's end is kept in round time: the service elapsed in its round by
    then, and the wait released by then, which is the whole wait unless it is
    split. The rounds' start instants are summed only for a run that reads
    instants on the clock (:meth:`instants`).
    """

    wait: np.ndarray           # (r,)
    service_total: np.ndarray  # (r,)
    samples: np.ndarray        # (r, k) samples drawn in each slot
    delivered: np.ndarray      # (r, k) bool, the slot's last sample got through
    cum: np.ndarray            # (r, k) service elapsed in the round by each slot's end
    last: np.ndarray           # (r, k) service of each slot's last sample
    released: Optional[np.ndarray]  # (r, k) wait released by each slot's end; None: all of it
    starts: Optional[np.ndarray]    # (r,) round start instants; None: not summed

    def instants(self, rows, cols) -> Tuple[np.ndarray, np.ndarray]:
        """The end instants of the slots ``[rows, cols]``, deliveries where
        delivered, and the services of their last samples, for a chunk with
        its round starts: the end is the slot's service in its round plus its
        round's start and released wait, and the last sample's generation
        instant (stamp) is the end less its service. ``rows`` and ``cols``
        index as a pair, as numpy does; an int ``cols`` is one process's column."""

        def pick(a: np.ndarray) -> np.ndarray:
            # The column first: gathering from a 1-D view costs about a third
            # of a 2-D fancy index.
            return a[:, cols][rows] if isinstance(cols, int) else a[rows, cols]

        released = self.wait[rows] if self.released is None else pick(self.released)
        return pick(self.cum) + (self.starts[rows] + released), pick(self.last)

    def lead(self, rows: slice, out: np.ndarray) -> np.ndarray:
        """The time from the start of each of the rounds ``rows`` to the end
        of each of its slots, the wait released by then and the service,
        written to ``out``, a (k, rounds) array."""
        released = self.wait[rows] if self.released is None else self.released[rows].T
        # Operands laid out as `out`: numpy then loops along the rounds, where
        # a (rounds, k) form of the same sum loops along k, several times slower.
        return np.add(released, self.cum[rows].T, out=out)

    def rest(self, rows: slice, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The time from the end of each slot of the rounds ``rows`` to the end
        of its round, the service after it and the wait not yet released, as
        a (k, rounds) array."""
        out = np.subtract(self.service_total[rows], self.cum[rows].T, out=out)
        if self.released is not None:
            out += self.wait[rows] - self.released[rows].T
        return out


def _draw_slots(
    cfg: SystemConfig,
    scheme: Scheme,
    r: int,
    service_rng: np.random.Generator,
    erasure_rng: np.random.Generator,
    failed_rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Service of ``r`` rounds of k slots: the only place the scheme enters.

    Returns each slot's service, the service of its last sample, whether that
    sample was delivered, and the samples drawn per slot. The two service
    arrays are the caller's to write over; where a slot is one sample they
    are the same array.

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
        # numpy draws exponential(1 / mu) as (1 / mu) * standard_exponential
        # element by element: scaling the filled array gives the same bits at
        # a lower cost per draw.
        services = service_rng.standard_exponential(size=shape)
        services *= 1.0 / cfg.mu
        if cfg.eps > 0.0:
            delivered = erasure_rng.random(size=shape) >= cfg.eps
        else:
            delivered = np.broadcast_to(True, shape)
        return services, services, delivered, np.broadcast_to(np.int64(1), shape)
    last = service_rng.standard_exponential(size=shape)
    last *= 1.0 / cfg.mu
    u = erasure_rng.random(size=shape).reshape(-1)
    # Integer indices: three boolean-mask updates cost about twice as much.
    hit = np.flatnonzero(u < cfg.eps)
    w = cfg.eps - u[hit]
    # Each temporary is dropped once used: the fewer arrays a chunk holds at
    # once, the fewer heap pages are returned to the system and faulted in
    # again by the next chunk.
    del u
    w /= cfg.eps
    np.log(w, out=w)
    w /= math.log(cfg.eps)
    failed = np.floor(w, out=w).astype(np.int64)
    del w
    failed += 1
    samples = np.ones(shape, np.int64)
    samples.reshape(-1)[hit] += failed
    bursts = last.copy()
    gamma = failed_rng.standard_gamma(failed)
    del failed
    gamma /= cfg.mu
    bursts.reshape(-1)[hit] += gamma
    del hit, gamma
    return bursts, last, np.broadcast_to(True, shape), samples


def _every_slot_delivers(cfg: SystemConfig, scheme: Scheme) -> bool:
    """Whether every slot ends in a delivery: with feedback, or without erasures."""
    return scheme is Scheme.MAF_FEEDBACK or cfg.eps == 0.0

def _rounds(
    cfg: SystemConfig,
    scheme: Scheme,
    tau: float,
    streams: Sequence[np.random.SeedSequence],
    wait_split: Optional[Sequence[float]],
    need: Callable[[], int],
    clock: bool,
) -> Iterator[RoundArrays]:
    """Chained rounds of ``scheme`` in chunks of at most ``CHUNK_ROUNDS``,
    drawn from a seed's ``streams`` (see :func:`_streams`), for as long as
    ``need()``, the deliveries that the process furthest behind still wants,
    is positive. It is asked before each chunk is drawn, once the chunk
    before has been consumed.

    A chunk holds no more rounds than that process is likely to need, so that
    a short run draws few rounds it does not use.

    The conditioning round, whose service total sets the first wait, is drawn
    ahead of the chunks as one unmeasured round; it starts at time 0 with no
    wait. A chunk takes only the last round's service total and, with
    ``clock``, the clock from the round before it, from which its rounds'
    starts are summed; without ``clock`` they are not.
    """
    service_ss, erasure_ss, _, failed_ss = streams
    rngs = [np.random.default_rng(ss) for ss in (service_ss, erasure_ss, failed_ss)]
    # Cumulative wait fractions; None puts the whole wait ahead of slot 1.
    fracs = None if wait_split is None else np.cumsum(_wait_fractions(cfg, wait_split))
    # The chance that a slot delivers nothing.
    miss = 0.0 if _every_slot_delivers(cfg, scheme) else cfg.eps
    # The conditioning round ends at its service total, which sets the first wait.
    prev_total = now = _in_order(_draw_slots(cfg, scheme, 1, *rngs)[0][0])
    while (want := need()) > 0:
        # A process delivers in a round with probability 1 - miss: take the
        # mean count of rounds for its deliveries plus three standard
        # deviations, so that a run seldom ends in a string of tiny chunks.
        r = min(CHUNK_ROUNDS, math.ceil((want + 3.0 * math.sqrt(want * miss)) / (1.0 - miss)))
        slot, last, delivered, samples = _draw_slots(cfg, scheme, r, *rngs)
        # Service elapsed by the end of each slot of its round, summed in the
        # slot array, or in a copy where that is also `last`, which is kept; at
        # k = 1 the sum is the slot array itself. Adding one column at a time
        # follows a row cumsum's order and is several times faster than a
        # reduction along the short process axis.
        cum = slot.copy() if slot is last and cfg.k > 1 else slot
        for j in range(1, cfg.k):
            cum[:, j] += cum[:, j - 1]
        totals = cum[:, -1].copy()
        waits = np.empty(r)
        waits[0], waits[1:] = prev_total, totals[:-1]
        np.subtract(tau, waits, out=waits)
        np.maximum(waits, 0.0, out=waits)
        released = None if fracs is None else fracs[None, :] * waits[:, None]
        starts = None
        if clock:
            starts = np.empty(r + 1)
            starts[0] = now
            np.add(waits, totals, out=starts[1:])
            np.cumsum(starts, out=starts)
            now, starts = starts[-1], starts[:-1]
        prev_total = totals[-1]
        yield RoundArrays(waits, totals, samples, delivered, cum, last, released, starts)
        # The chunk is its consumers' now: drop it before the next is drawn.
        del slot, last, delivered, samples, cum, totals, waits, released, starts


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
    """Per-batch sums of tables of per-span values that arrive in pieces.

    The batches are the ranges between consecutive ``edges`` along the last
    axis; ``lead`` is the shape of the others. Only the pieces of the open
    batch are kept from one piece to the next. A batch is summed with
    ``reduceat`` when its last piece arrives, which sums a segment in the same
    order wherever it starts: the sums do not depend on how the values were
    split. Only the batch that was open when a piece arrived is joined, its
    earlier pieces with the head of this one; the batches that lie wholly
    inside a piece are summed straight off it. A row of whole numbers below
    2**53, such as a count, sums exactly in any order.
    """

    def __init__(self, lead: Tuple[int, ...], edges: np.ndarray) -> None:
        self.edges = edges
        self.sums = np.empty(lead + (len(edges) - 1,))
        self.open: List[np.ndarray] = []  # the open batch's pieces so far
        self.closed = 0  # batches summed
        self.spans = 0  # spans added

    def add(self, values: np.ndarray) -> None:
        """The next spans: ``values`` holds one entry per span along its last axis."""
        lo, first = self.closed, self.spans
        self.spans += values.shape[-1]
        hi = int(np.searchsorted(self.edges, self.spans, side="right")) - 1
        if hi == lo:
            self.open.append(values)
            return
        keep = self.edges[hi] - first  # values in batches lo..hi-1
        if self.open:
            # A one-segment reduceat, as the batch's sum over the whole
            # array would be: a 2-D ``sum`` adds in another order.
            head = np.concatenate(self.open + [values[..., : self.edges[lo + 1] - first]], axis=-1)
            self.sums[..., lo : lo + 1] = np.add.reduceat(head, [0], axis=-1)
            lo += 1
        if hi > lo:
            self.sums[..., lo:hi] = np.add.reduceat(
                values[..., :keep], self.edges[lo:hi] - first, axis=-1
            )
        self.open = [values[..., keep:]] if keep < values.shape[-1] else []
        self.closed = hi


def _ou_probe(
    age: np.ndarray,
    length: np.ndarray,
    serve: np.ndarray,
    p: ProcessParams,
    rng: np.random.Generator,
    carry: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Co-simulate the true process along one process's spans.

    A span runs from a delivery to the next: ``age`` is its age at the start,
    ``length`` its length and ``serve`` the service of the sample delivered
    at its end (the next span's age). At each span's end, returns the
    realized squared error of the previous sample's extrapolation and the
    closed-form error at its age ``age + length``. The error sums the OU
    innovations over the previous sample's service, the idle gap
    ``length - serve`` and the new sample's service, so three exact steps
    over whole arrays give every error; the first and the third span the
    same services with the same normals, so one transition
    (:func:`ouwait.ou._transition`) serves both. Each span draws two
    normals, for the idle gap and then the service. A fresh sequence first
    draws a stationary start, which cancels but keeps the order of a loop
    that steps the process itself, and the pair of its first delivery, of
    which only the first is used, over ``age[0]``.

    ``carry`` continues a sequence over several calls: it is the innovation
    the previous call returned third, at the delivery where this call's
    first span starts, whose innovation is then not drawn.
    """
    if carry is None:
        rng.standard_normal()
        z = rng.standard_normal(size=2 * len(age) + 2)
        carry = ou.ou_step(0.0, age[0], p, z[0])
        z = z[2:]
    else:
        z = rng.standard_normal(size=2 * len(age))
    decay, innovation = ou._transition(serve, p, z[1::2])
    carried = np.empty(len(age) + 1)
    carried[0] = carry
    # A step from 0.0 is 0.0 * decay + innovation, which turns -0.0 into +0.0.
    np.add(innovation, 0.0, out=carried[1:])
    # A gap that is zero can round a hair negative where the span's length
    # is the difference of two instants on the clock; clamp it.
    idle = np.maximum(length - serve, 0.0)
    idle_decay, errs = ou._transition(idle, p, z[0::2])
    errs += carried[:-1] * idle_decay  # the process at each stamp
    errs *= decay
    errs += innovation
    np.square(errs, out=errs)
    return errs, ou._inst_mse(age + length, p), carried[-1]


class _Window:
    """The statistics window of a group of processes that deliver in the same
    rounds, columns ``cols`` of a chunk's arrays, fed one chunk at a time: all
    k processes where every slot delivers, otherwise one.

    The group's deliveries are counted up to ``n_epochs``. From delivery
    ``burn_in`` on, every span to a process's next delivery enters the batches
    as one entry of its row of a (rows, processes, spans) float table: its
    error integral, length and sample count, and with the probe the realized
    and closed-form errors at its end. Each process's latest delivery carries
    over, so a span that straddles two chunks is measured like any other.

    A span's age at its start is the service delivered there, the chunk's
    ``last``. Where every slot delivers, a span runs from a slot's end to
    the same slot's end in the next round, and its length is measured in
    round time: the rest of its first round (:meth:`RoundArrays.rest`) and
    the lead of the next (:meth:`RoundArrays.lead`). Otherwise a span may
    cover many rounds, and its length is measured between its deliveries'
    instants on the clock (:meth:`RoundArrays.instants`). The probe reads
    the same ages and lengths.
    """

    def __init__(
        self,
        cols: slice,
        processes: Sequence[ProcessParams],
        n_epochs: int,
        burn_in: int,
        edges: np.ndarray,
        ou_rngs: Optional[Sequence[np.random.Generator]],
        every: bool,
    ) -> None:
        self.cols, self.processes = cols, processes
        self.theta = np.array([[p.theta] for p in processes])  # a column per process
        self.var = np.array([[p.stationary_variance] for p in processes])
        self.every = every  # every slot delivers: see _every_slot_delivers
        self.n_epochs, self.burn_in = n_epochs, burn_in
        self.ou_rngs = ou_rngs
        self.ou: List[Optional[float]] = [None] * len(processes)  # each probe's carry
        self.batches = _Batches((3 if ou_rngs is None else 5, len(processes)), edges)
        self.seen = 0  # deliveries so far, of each process
        self.prev = -1  # without feedback, the latest delivery's row, from the next chunk's first
        self.open = False  # whether the window has had its first delivery
        # Each process's latest delivery: its age and, where every slot
        # delivers, the rest of its round; otherwise its instant.
        self.age: np.ndarray
        self.rest: np.ndarray
        self.end: float

    def feed(self, rounds: RoundArrays) -> None:
        if self.seen == self.n_epochs:
            return
        opens = max(self.burn_in - self.seen, 0)  # the chunk's first delivery in the window
        if self.every:
            # The first n rows deliver, and each epoch is its round.
            n = min(len(rounds.wait), self.n_epochs - self.seen)
            self.seen += n
            if self.seen > self.burn_in:
                self._round_time(rounds, opens, n)
            return
        j = self.cols.start  # the group's one process
        hits = np.flatnonzero(rounds.delivered[:, j])[: self.n_epochs - self.seen]
        # Without feedback a slot is one sample: an epoch's samples are its
        # rounds, which cost less to count than to sum, the first one's from
        # the row of the latest delivery.
        epochs = np.diff(hits, prepend=self.prev)
        if len(hits):
            self.prev = int(hits[-1])
        self.prev -= len(rounds.wait)
        self.seen += len(hits)
        if self.seen > self.burn_in:
            self._clock_time(rounds, hits[opens:], epochs[opens:])

    def _round_time(self, rounds: RoundArrays, a: int, n: int) -> None:
        """The spans to the deliveries at rows ``a:n``, where every slot delivers."""
        if not self.open:
            # The window opens at its first delivery, from then on the latest.
            self.age, self.rest = rounds.last[a].copy(), rounds.rest(slice(a, a + 1))[:, 0]
            self.open, a = True, a + 1
        if a == n:
            return
        table = np.empty(self.batches.sums.shape[:2] + (n - a,))
        # Each span's length is the rest of its first round and the lead of
        # the next, summed in place: the leads go into the age row first.
        age, length = table[0], table[1]
        rounds.lead(slice(a, n), out=age)
        length[:, 0] = self.rest
        rounds.rest(slice(a, n - 1), out=length[:, 1:])
        length += age
        age[:, 0] = self.age
        age[:, 1:] = rounds.last[a : n - 1].T
        table[2] = rounds.samples[a:n].T
        self._fold(table, rounds.last[a:n].T)
        self.age, self.rest = rounds.last[n - 1].copy(), rounds.rest(slice(n - 1, n))[:, 0]

    def _clock_time(self, rounds: RoundArrays, hits: np.ndarray, epochs: np.ndarray) -> None:
        """The spans to the deliveries at rows ``hits``, the samples of whose
        epochs are ``epochs``, of the group's one process."""
        d, serve = rounds.instants(hits, self.cols.start)
        if not self.open:
            self.end, self.age, self.open = d[0], serve[0], True
            d, serve, epochs = d[1:], serve[1:], epochs[1:]
        if not len(d):
            return
        table = np.empty(self.batches.sums.shape[:2] + d.shape)
        age, length = table[0, 0], table[1, 0]
        age[0], length[0] = self.age, d[0] - self.end
        age[1:] = serve[:-1]
        np.subtract(d[1:], d[:-1], out=length[1:])
        table[2, 0] = epochs
        self._fold(table, serve[None])
        self.end, self.age = d[-1], serve[-1]

    def _fold(self, table: np.ndarray, serve: np.ndarray) -> None:
        """Probe a table's spans, whose ends deliver the services ``serve`` (a
        row per process), integrate the error over them in place of the age
        row, and add them to the batches."""
        if self.ou_rngs is not None:
            for i, (p, rng) in enumerate(zip(self.processes, self.ou_rngs)):
                table[3, i], table[4, i], self.ou[i] = _ou_probe(
                    table[0, i], table[1, i], serve[i], p, rng, self.ou[i])
        ou._error_integral(table[0], table[1], self.theta, self.var)
        self.batches.add(table)


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
    integers, never a bool or a float, and ``seed`` is non-negative. The
    clock and the squared errors must stay finite: ``policy.tau`` and every
    stationary variance are at most 1e100, ``cfg.mu`` at least 1e-100, and
    every theta at least about 2.8e-309 (see :func:`ouwait.mse_integral`).
    A run may expect to draw at most ``_MAX_ROUNDS`` = 1e9 rounds: ``n_epochs``
    where every slot delivers, ``n_epochs / (1 - eps)`` without feedback.

    ``wait_split`` optionally spreads each wait across the k service slots in
    fixed fractions, integers or floats (default: all of it up front).
    ``track_ou``, a bool, co-simulates each process's path from its own OU
    noise substream and fills the ``ou_probe_*`` fields: the realized squared
    estimation error at every delivery in the window against the closed-form
    error at the same age, with a standard error from the same batches as the
    MSE. ``trace_path`` writes one tab-separated record per epoch of the last
    process, for its first ``n_epochs`` epochs (see :class:`_Trace`).
    Identical arguments give bit-identical results.
    """
    cfg = _systemconfig("cfg", cfg)
    if not isinstance(policy, ThresholdPolicy):
        raise InvalidConfig(f"policy must be a ThresholdPolicy, got {policy!r}")
    var = max(p.stationary_variance for p in cfg.processes)
    if not (policy.tau <= _LIMIT and cfg.mu >= 1.0 / _LIMIT and var <= _LIMIT):
        raise InvalidConfig(
            f"simulate needs tau <= {_LIMIT:g} and mu >= {1.0 / _LIMIT:g}, so that its clock "
            f"stays finite, and every stationary variance <= {_LIMIT:g}, so that its squared "
            f"errors do, got tau={policy.tau!r}, mu={cfg.mu!r}, variance={var!r}"
        )
    ou._check_theta(min(p.theta for p in cfg.processes))
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
    every = _every_slot_delivers(cfg, policy.scheme)
    expected = n_epochs / (1.0 - (0.0 if every else cfg.eps))
    if expected > _MAX_ROUNDS:
        raise InvalidConfig(
            f"simulate draws at most {_MAX_ROUNDS:g} rounds in expectation, and n_epochs="
            f"{n_epochs} of {policy.scheme.value} at eps={cfg.eps!r} expects {expected:.3g}"
        )

    window = n_epochs - burn_in - 1
    edges = _batch_edges(window)
    streams = _streams(seed)
    ou_rngs = None
    if track_ou:
        ou_rngs = [np.random.default_rng(ss) for ss in streams[2].spawn(cfg.k)]
    # One window for all k processes where they deliver in the same rounds.
    groups = [slice(0, cfg.k)] if every else [slice(j, j + 1) for j in range(cfg.k)]
    windows = [
        _Window(g, cfg.processes[g], n_epochs, burn_in, edges, ou_rngs and ou_rngs[g], every)
        for g in groups
    ]
    with open(trace_path, "wb") if trace_path is not None else contextlib.nullcontext() as fh:
        consumers = windows + ([] if fh is None else [_Trace(fh, policy.scheme, cfg, n_epochs)])
        # The engine draws while the process furthest behind wants deliveries.
        # It sums the clock only for the consumers that read instants on it.
        clock = not every or fh is not None
        for rounds in _rounds(cfg, policy.scheme, policy.tau, streams, wait_split,
                              lambda: n_epochs - min(w.seen for w in windows), clock):
            for c in consumers:
                c.feed(rounds)
            del rounds

    counts = np.diff(edges).astype(float)
    # One table of batch sums, each row (k, batches): see Streaming for the sums' order.
    ints, gaps, samples, *probe = np.concatenate([w.batches.sums for w in windows], axis=1)
    errs, refs = probe or (None, None)
    span = gaps.sum(axis=1)  # each process's whole window
    per_mse, batch_mse = ints.sum(axis=1) / span, ints / gaps
    return SimStats(
        scheme=policy.scheme,
        sum_mse=_in_order(per_mse),
        sum_mse_se=float(_se(batch_mse.sum(axis=0))),
        per_process_mse=tuple(per_mse.tolist()),
        per_process_mse_se=tuple(_se(batch_mse).tolist()),
        mean_epoch_len=_in_order(span / window / cfg.k),
        mean_epoch_len_se=float(_se((gaps / counts / cfg.k).sum(axis=0))),
        per_process_inter_sample_mean=tuple((span / samples.sum(axis=1)).tolist()),
        per_process_inter_sample_se=tuple(_se(gaps / samples).tolist()),
        epochs=window,
        ou_probe_mse=_in_order(errs.sum(axis=1) / window) if probe else None,
        ou_probe_ref=_in_order(refs.sum(axis=1) / window) if probe else None,
        ou_probe_diff_se=float(_se(((errs - refs) / counts).sum(axis=0))) if probe else None,
    )


class _Trace:
    """The epoch trace: one delimited record per epoch of the last process,
    written as the chunks of rounds are fed to it.

    The last process's deliveries partition the rounds into epochs (one round
    each with feedback), and its first ``n_epochs`` epochs are written. A
    record sums its rounds' waits and services, counts in ``m_total`` the
    samples of its one round with feedback and its rounds without, and gives
    each process's last delivery and stamp within the epoch, or empty cells
    where that process delivered none. ``fh`` is a binary file: the header
    and the records are written as ASCII bytes.

    An epoch still open at a chunk's end spans several rounds, so it is one
    without feedback. It keeps copies of its rounds' waits and services,
    piece by piece, which are joined and summed once, when it closes, in the
    order of a sum over one chunk, and each process's latest delivery and
    stamp, updated piece by piece, which is exact in any order. So a chunk's
    rounds are copied once, and a long epoch costs time linear in its length.
    """

    def __init__(self, fh: IO[bytes], scheme: Scheme, cfg: SystemConfig, n_epochs: int) -> None:
        cols = ["epoch_index", "scheme", "w_total", "service_total", "m_total", "gamma"]
        cols += [f"d_{k + 1}" for k in range(cfg.k)] + [f"stamp_{k + 1}" for k in range(cfg.k)]
        fh.write(("\t".join(cols) + "\n").encode("ascii"))
        self.fh, self.scheme, self.k, self.n_epochs = fh, scheme, cfg.k, n_epochs
        self.formats = ("%d", "%.11e", "%.11e", "%d") + ("%.11e",) * (1 + 2 * cfg.k)
        self.name = np.frombuffer((b"\t" + scheme.value.encode("ascii")).ljust(7, b"\0") + b"\t",
                                  "<u8")
        self.written = 0
        # The open epoch's waits and services, piece by piece, and each
        # process's latest delivery and stamp in it (nan for none).
        self.waits: List[np.ndarray] = []
        self.services: List[np.ndarray] = []
        self.latest = np.full((2, cfg.k), np.nan)

    def feed(self, rounds: RoundArrays) -> None:
        if self.written == self.n_epochs:
            return
        last = np.flatnonzero(rounds.delivered[:, -1])[: self.n_epochs - self.written]
        start = 0  # the chunk's first round not yet written or carried
        if self.waits:
            start = last[0] + 1 if len(last) else len(rounds.wait)
            self._carry(rounds, 0, start)
            if len(last):
                self._close()
                last = last[1:]
        if len(last):
            self._records(rounds, last, start)
            start = last[-1] + 1
        if not self.waits and start < len(rounds.wait) and self.written < self.n_epochs:
            self._carry(rounds, start, len(rounds.wait))

    def _carry(self, rounds: RoundArrays, lo: int, hi: int) -> None:
        """Add rounds ``lo:hi`` of a chunk to the open epoch, as copies, so
        that the chunk is not kept alive with them."""
        self.waits.append(rounds.wait[lo:hi].copy())
        self.services.append(rounds.service_total[lo:hi].copy())
        hit = rounds.delivered[lo:hi]
        seen = np.flatnonzero(hit.any(axis=0))
        at = hi - 1 - np.argmax(hit[::-1, seen], axis=0)  # each one's latest delivering round
        d, serve = rounds.instants(at, seen)
        self.latest[:, seen] = d, d - serve

    def _close(self) -> None:
        """Write the record of the open epoch, whose rounds are all carried."""
        cells = np.empty((1, len(self.formats)))
        cells[0, 0], cells[0, 3] = self.written, sum(map(len, self.waits))  # m_total: rounds
        for col, pieces in ((1, self.waits), (2, self.services)):
            # A one-segment reduceat, as a record summed off one chunk is. The
            # pieces go as soon as they are joined, so that the epoch is held
            # at most one and a half times.
            cells[0, col] = np.add.reduceat(np.concatenate(pieces), [0])[0]
            pieces.clear()
        cells[0, 4] = cells[0, 1] + cells[0, 2]
        cells[0, 5:] = self.latest.reshape(-1)
        self._print(cells)
        self.latest.fill(np.nan)

    def _records(self, block: RoundArrays, last: np.ndarray, start: int) -> None:
        """The records of the epochs that end at rows ``last`` of ``block``,
        the first of which opens at row ``start``.

        The records are printed in blocks of ``_TRACE_CELLS // len(formats)``
        records (at least one), so that a block holds about the same number
        of cells at any k. Each process's last delivery up to each epoch's end
        is read off one (rows, k) table of the block's rounds for all
        processes at once. Every array is a block's own, rows included, so
        that the writer holds nothing the size of a chunk.
        """
        size = max(1, _TRACE_CELLS // len(self.formats))
        k = self.k
        procs = np.arange(k)
        for lo in range(0, len(last), size):
            ends = last[lo : lo + size]
            rows = slice(last[lo - 1] + 1 if lo else start, ends[-1] + 1)
            ends = ends - rows.start
            opens = np.concatenate(([0], ends[:-1] + 1))
            cells = np.empty((len(ends), len(self.formats)))
            cells[:, 0] = np.arange(self.written, self.written + len(ends))
            np.add.reduceat(block.wait[rows], opens, out=cells[:, 1])
            np.add.reduceat(block.service_total[rows], opens, out=cells[:, 2])
            if self.scheme is Scheme.MAF_FEEDBACK:
                # A feedback epoch is one round: m_total counts its samples.
                cells[:, 3] = block.samples[rows][ends].sum(axis=1)
            else:
                # Without feedback m_total counts the epoch's rounds.
                cells[:, 3] = ends - opens + 1
            np.add(cells[:, 1], cells[:, 2], out=cells[:, 4])
            # Latest delivered round of each process up to each epoch's end; a
            # -1 (none yet) reads the block's last row, which np.where discards.
            steps = np.arange(rows.start, rows.stop)
            hit = np.where(block.delivered[rows], steps[:, None], -1)
            hit = np.maximum.accumulate(hit, axis=0, out=hit)[ends]
            inside = hit >= (opens + rows.start)[:, None]
            d, serve = block.instants(hit, procs)
            cells[:, 5 : 5 + k] = np.where(inside, d, np.nan)
            cells[:, 5 + k :] = np.where(inside, d - serve, np.nan)
            self._print(cells)

    def _print(self, cells: np.ndarray) -> None:
        """Write a float table of records in file order, less the scheme, with
        the integer columns as exact floats and nan for the empty cells.

        It is printed by :func:`_print_cells` into a buffer of ``_SLOT`` bytes
        a cell. The scheme name follows the epoch index in its slot, in the
        bytes of the exponent, which an integer's text never uses. What
        remains of the buffer once its zero bytes are deleted is written.
        """
        text = bytearray(cells.size * _SLOT)
        slots = np.frombuffer(text, "<u8").reshape(cells.shape + (3,))
        _print_cells(cells, self.formats, slots)
        slots[:, 0, 2] = self.name
        self.fh.write(text.translate(None, b"\0"))
        self.written += len(cells)


# Cells printed per block: 2048 records at k = 2. A block's fixed numpy
# overhead favours large blocks, and peak RSS small ones. Sized in cells, a
# block's buffers do not grow with k. At k = 2, blocks of 1024 records made
# sim_probe about 10% faster than blocks of 512, but raised its peak RSS by
# 0.8 MB while each chunk was still alive during the next one's draw; with
# one chunk alive at a time, blocks of 2048 raise the throughput and not the
# peak RSS (BENCH_cell_blocks.json).
_TRACE_CELLS = 9 * 2048
# Each cell is printed into a slot of three 8-byte words, with zero bytes
# wherever no text goes: the first 4-digit group of its 12-digit mantissa (a
# float's lead digit in byte 0, then the point and the group's other digits),
# the other two groups, and its exponent and separator, in the last byte.
# Text that Python printed starts at the slot's first byte.
_SLOT = 24
# The decimal exponents of the fast path, and their exact powers 10**(11 - e).
_EXPONENTS = range(-3, 12)
_TO_MANTISSA = np.array([float(10 ** (11 - e)) for e in _EXPONENTS])
# Entries of the tables of _print_tables: the 4-digit groups without their
# leading zeros start at _SHORT, and _EMPTY holds no text; the tail with no
# exponent, and the tails with a newline for a separator.
_SHORT, _EMPTY = 10**4, 2 * 10**4
_BARE, _NEWLINE = len(_EXPONENTS), len(_EXPONENTS) + 1


@functools.lru_cache(maxsize=None)
def _print_tables() -> Tuple[np.ndarray, ...]:
    """The read-only tables of :func:`_print_cells`, built on first use so
    that runs without a trace take no memory for them. Each entry is ASCII
    text padded with zero bytes: ``head``, a slot's first word, for a float's
    first 4-digit group 0000..9999 (its lead digit, three zero bytes, the
    point and the other three digits); ``group``, a 4-byte word, for every
    group with its leading zeros, then from ``_SHORT`` on without them (0 as
    0), and at ``_EMPTY`` none; and ``tail``, a slot's last word, for each of
    ``_EXPONENTS`` and then none, each followed by a tab, then the same with
    a newline from ``_NEWLINE`` on."""
    # Built digit by digit in small integers: Python lists of 10**4 strings,
    # or int64 tables, would raise a traced run's peak RSS by more than a
    # block does.
    g = np.arange(10**4, dtype=np.uint16)
    chars = np.zeros((2 * 10**4 + 1, 4), np.uint8)
    plain, short = chars[:_SHORT], chars[_SHORT:_EMPTY]
    for i, power in enumerate((1000, 100, 10, 1)):
        plain[:, i] = g // power % 10 + ord("0")
        np.copyto(short[:, i], plain[:, i], where=g >= (power if power > 1 else 0))
    head = np.zeros((10**4, 8), np.uint8)
    head[:, 0] = plain[:, 0]
    head[:, 4] = ord(".")
    head[:, 5:] = plain[:, 1:]
    tails = [b"e%+03d" % e for e in _EXPONENTS] + [b""]
    tail = np.frombuffer(b"".join(
        t.ljust(7, b"\0") + sep for sep in (b"\t", b"\n") for t in tails), "<u8")
    head, group = head.view("<u8").reshape(-1), chars.view("<u4").reshape(-1)
    head.flags.writeable = group.flags.writeable = False
    return head, group, tail


def _print_cells(cells: np.ndarray, formats: Sequence[str], slots: np.ndarray) -> None:
    """Print a float table, one column per entry of ``formats``, each
    ``"%.11e"`` or ``"%d"``, into ``slots``, a ``(rows, columns, 3)`` array of
    little-endian 8-byte words: each cell's slot gets its text and the tab or
    newline after it, a nan's text being empty, and zero bytes wherever no
    text goes, so that deleting the zero bytes leaves the lines.

    A cell ``x`` in [1e-3, 1e12) with decimal exponent ``e`` has the 12-digit
    mantissa ``y = x 10**(11 - e)``. The power is exact, so the product is
    rounded once and lies within 1.2e-4 of the exact one: where ``y`` is at
    most 0.499 from its nearest integer, that integer is the correctly
    rounded mantissa. The fast path prints such cells, whose ``y`` is in
    [1e11, 1e12) and rounds below 1e12, a ``"%d"`` column's whole numbers in
    [0, 1e12), their own mantissas, and +0.0 and nan. Python's ``%`` prints
    the rest (near-ties, values out of range, negatives, -0.0, infinities
    and a ``"%d"`` column's fractions, which it truncates), about one cell in
    a thousand of a trace, into slots that
    are cleared first, as a nan's is. A mantissa ``m`` below 1e12 splits into
    4-digit groups as ``floor((m + 0.5) 1e-8)`` and then the same by 1e-4 of
    the rest: each exact quotient is at least 5e-9 from an integer, and each
    product within 3e-12 of it. An integer's groups ahead of its first digit
    print empty, and the group with its first digit without leading zeros.
    """
    head, group, tail = _print_tables()
    whole = np.flatnonzero([f == "%d" for f in formats])
    floor = np.full(len(formats), 1e11)
    floor[whole] = 0.0
    # How far a cell's y may be from its mantissa: a "%d" cell must be whole,
    # since Python's "%d" truncates where the mantissa would round.
    near = np.full(len(formats), 0.499)
    near[whole] = 0.0
    # Logarithms of nan, zero and negative cells, and the out-of-range
    # products, only send their cells to the slow path below.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        y = np.log10(cells)
        np.floor(y, out=y)
        np.fmax(y, -3, out=y)
        np.fmin(y, 11, out=y)
        y -= _EXPONENTS[0]
        e = y.astype(np.intp)  # each cell's entry of _EXPONENTS
        e[:, whole] = len(_EXPONENTS) - 1
        np.take(_TO_MANTISSA, e, out=y)
        y *= cells
        mantissa = np.rint(y)
        fast = mantissa < 1e12
        fast &= y >= floor
        y -= mantissa
        np.abs(y, out=y)
        fast &= y <= near
    slow = np.flatnonzero(~fast)
    values = cells.reshape(-1)[slow]
    # The slow cells print as +0.0 until they are emptied or overwritten.
    mantissa.reshape(-1)[slow] = 0.0
    e.reshape(-1)[slow] = -_EXPONENTS[0]
    blank = slow[(values != 0.0) | np.signbit(values)]
    e[:, whole] = _BARE
    e.reshape(-1)[blank] = _BARE
    e[:, -1] += _NEWLINE
    slots[..., 2] = tail[e]
    # Each group's index is used as soon as it is made, so that a block holds
    # few temporaries at once.
    del fast, e
    small = cells[:, whole]
    below = (small < 1e8) * _SHORT, (small < 1e4) * _SHORT
    words = slots.view("<u4")
    np.add(mantissa, 0.5, out=y)
    y *= 1e-8
    np.floor(y, out=y)
    index = y.astype(np.intp)
    slots[..., 0] = head[index]
    words[:, whole, 0] = group[index[:, whole] + _SHORT + below[0]]
    words[:, whole, 1] = 0
    y *= 1e8
    mantissa -= y
    np.add(mantissa, 0.5, out=y)
    y *= 1e-4
    np.floor(y, out=y)
    index = y.astype(np.intp)
    index[:, whole] += below[0] + below[1]
    words[..., 2] = group[index]
    y *= 1e4
    mantissa -= y
    index = mantissa.astype(np.intp)
    index[:, whole] += below[1]
    words[..., 3] = group[index]
    flat = slots.reshape(-1, 3)
    flat[blank, :2] = 0
    python = blank[~np.isnan(cells.reshape(-1)[blank])]
    text = flat.view(np.uint8)
    for i, v in zip(python.tolist(), cells.reshape(-1)[python].tolist()):
        cell = (formats[i % len(formats)] % v).encode("ascii")
        text[i, : len(cell)] = np.frombuffer(cell, np.uint8)
