"""Analytic building blocks: incomplete-gamma sums, and the expected wait and
the transform of an Erlang(k, rate) service round (:class:`ErlangRound`).
Nothing here knows the scheduling scheme; ``threshold`` maps each scheme onto
a shape k and a rate.

The regularized incomplete gamma functions P(k, x) and Q(k, x) = 1 - P(k, x)
at integer shape k are finite Poisson sums, ``Q(k, x) = sum_{j<k} p_j(x)``
with ``p_j(x) = e^-x x^j / j!``. Their terms are read from one table of log
factorials (:func:`_counts`), each entry ``math.lgamma(j + 1)``, so the module
needs numpy alone. The table is extended by appending, so each entry is
computed once per process. A law of shape k needs the terms of counts 0..k,
whatever its rate. ``lgamma`` is within 3.3 ulp of log(j!) below j = 128 and
within 2 ulp from there to 2e4 (against 200-bit values); the table up to the
largest k a ``SystemConfig`` accepts, 1e6, builds in about 0.3 s.

One Poisson table at ``x = rate tau`` (:func:`_wait_table`) serves a
threshold: the wait, its slope ``P(k, x)`` and the transform at every decay
rate, which is the positive-term sum ``exp(-2 theta tau) (P(k, x) +
sum_{j<k} lambda^(k-j) p_j(x))`` with ``lambda = rate / (rate + 2 theta)``.
Only ``P(k, x) = 1 - sum_{j<k} p_j(x)`` cancels. :class:`ErlangRound` owns
that table: it keeps each threshold's wait and transform, so a solve builds
one table per threshold it visits.

The names here are internal, and they check none of their inputs:
``threshold`` passes a shape and a rate taken from a validated
``SystemConfig``, and thresholds in ``[0, search_ceiling]``.
"""

from __future__ import annotations

import math
import sys
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

# The smallest and largest positive floats. A Poisson mean is held between
# them before its log is taken, so that a mean of 0 gives probabilities 1,
# 5e-324 and then exact zeros, without the warnings of log 0, and an infinite
# mean exact zeros, its limit, without those of 0 * log inf.
_TINY, _HUGE = math.ulp(0.0), sys.float_info.max


# Counts 0..n and their log factorials for the largest n asked for so far,
# read-only since they are shared.
_count_table: Tuple[np.ndarray, np.ndarray] = (np.empty(0), np.empty(0))


def _counts(n_max: int) -> Tuple[np.ndarray, np.ndarray]:
    """Counts 0..n_max and their log factorials, as read-only slices of one table.

    The counts are floats: :func:`_poisson_pmf` multiplies them by a float log
    mean, and an integer operand would cost a cast on every call. log(j!) is
    ``math.lgamma(j + 1)``, computed once per count: a longer request extends
    the table by the entries past its end. An entry depends on its count
    alone, so a slice equals a table built at its own length.
    """
    global _count_table
    j, log_fact = _count_table
    if len(j) <= n_max:
        new = [math.lgamma(i + 1.0) for i in range(len(j), n_max + 1)]
        j, log_fact = np.arange(n_max + 1.0), np.concatenate((log_fact, new))
        j.flags.writeable = log_fact.flags.writeable = False
        _count_table = j, log_fact
    return j[: n_max + 1], log_fact[: n_max + 1]


def _poisson_pmf(x: float, n_max: int) -> np.ndarray:
    """Poisson(x) probabilities for counts 0..n_max, computed in log space.

    A zero mean, which only an underflowed ``rate * tau`` gives, has its mass
    at 0 up to 5e-324 at 1; an infinite one, which only an overflowed
    ``rate * tau`` gives, has none anywhere.
    """
    j, log_fact = _counts(n_max)
    # The mean stays in math: numpy calls on one float cost microseconds.
    return np.exp(j * math.log(min(max(x, _TINY), _HUGE)) - x - log_fact)


def _wait_table(tau: float, k: int, rate: float) -> Tuple[float, float, Optional[np.ndarray]]:
    """The wait E[(tau - Y)+] for an Erlang(k, rate) service Y, its slope
    ``P(k, x) = P(Y < tau)`` at ``x = rate tau``, and the probabilities p_j(x)
    of counts 0..k-1 that the round transform reads (None at tau = 0).

    The wait is ``tau P(k, x) - (k / rate) P(k + 1, x)``, both entries read
    off one running sum, ``P(i, x) = 1 - sum_{j<i} p_j(x)``, whose absolute
    error grows with the shape: it is within 2e-13 of ``scipy.special.gammainc``
    below shape 400, so a small entry loses relative precision.
    """
    if tau == 0.0:
        return 0.0, 0.0, None
    pmf = _poisson_pmf(rate * tau, k)
    upper = pmf.cumsum()
    p_k = max(1.0 - float(upper[k - 1]), 0.0)
    p_next = max(1.0 - float(upper[k]), 0.0)
    return max(tau * p_k - (k / rate) * p_next, 0.0), p_k, pmf[:k]


class ErlangRound:
    """One round's Erlang(k, rate) service Y, seen by processes of decay rates
    ``two_theta``: the wait and each process's transform, once per threshold.

    Processes that share a decay rate share one row of the threshold-free
    powers ``lambda^(k-j)``, j = 0..k-1, with ``lambda = rate / (rate + 2
    theta)``: k copies of a process hold k powers, not k^2.
    """

    def __init__(self, k: int, rate: float, two_theta: Sequence[float]) -> None:
        self.k, self.rate = k, rate
        index: Dict[float, int] = {}
        self._rows = np.array([index.setdefault(a, len(index)) for a in two_theta])
        self._a = np.array(tuple(index))
        self._top = float(max(index, default=0.0))  # the largest decay rate
        # An underflowed lambda's log is -inf, and its powers are exact zeros.
        with np.errstate(divide="ignore"):
            log_lam = np.log(rate / (self._a + rate))[:, None]
        self._powers = np.exp(np.arange(k, 0, -1.0) * log_lam)
        self._waits: Dict[float, Tuple[float, float]] = {}
        # Each threshold's Poisson table, until its transform has read it.
        self._tables: Dict[float, Optional[np.ndarray]] = {}
        self._transforms: Dict[float, np.ndarray] = {}

    def wait(self, tau: float) -> Tuple[float, float]:
        """The wait E[(tau - Y)+] and its slope P(k, rate tau) (:func:`_wait_table`)."""
        if tau not in self._waits:
            wait, p, self._tables[tau] = _wait_table(tau, self.k, self.rate)
            self._waits[tau] = wait, p
        return self._waits[tau]

    def transform(self, tau: float) -> np.ndarray:
        """Each process's transform E[exp(-2 theta max(tau, Y))].

        With ``x = rate tau`` and the wait's Poisson probabilities ``p_j(x)``,
        it is ``exp(-2 theta tau) (P(k, x) + sum_{j<k} lambda^(k-j) p_j(x))``:
        the term ``lambda^k Q(k, (rate + 2 theta) tau)`` of the direct form
        equals ``exp(-2 theta tau) sum_{j<k} lambda^(k-j) p_j(x)``, so one
        table serves every decay rate.
        """
        if tau not in self._transforms:
            p = self.wait(tau)[1]
            pmf = self._tables.pop(tau)
            if pmf is None:
                # No wait: the Laplace transform of the service alone, lambda^k.
                L = self._powers[:, 0]
            else:
                # A rate times tau past 1e300 only gives an exp of exactly 0:
                # such rates are capped at 1e300 / tau, which gives the same 0
                # where their product could overflow.
                a = self._a if self._top * tau <= 1e300 else np.minimum(self._a, 1e300 / tau)
                L = np.exp(-a * tau) * (p + (self._powers * pmf).sum(axis=-1))
            self._transforms[tau] = L[self._rows]
        return self._transforms[tau]
