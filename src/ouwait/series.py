"""Analytic building blocks: incomplete-gamma sums, and the expected wait and
the transform of an Erlang(k, rate) service round (:class:`ErlangRound`).
Nothing here knows the scheduling scheme; ``threshold`` maps each scheme onto
a shape k and a rate.

The regularized incomplete gamma functions P(k, x) and Q(k, x) = 1 - P(k, x)
at integer shape k are finite Poisson sums, ``Q(k, x) = sum_{j<k} p_j(x)``
with ``p_j(x) = e^-x x^j / j!``. Their terms are read from one table of log
factorials (:func:`_counts`), built with ``math.lgamma`` and the Stirling
series, so the module needs numpy alone. A law of shape k needs the terms of
counts 0..k, whatever its rate.

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
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

# The smallest positive float. A Poisson mean is raised to it before its log
# is taken, so that a mean of 0 gives probabilities 1, 5e-324 and then exact
# zeros, without the warnings of log 0.
_TINY = math.ulp(0.0)


def _log_factorial_table(n_max: int) -> Tuple[np.ndarray, np.ndarray]:
    """Counts 0..n_max and their log factorials, read-only since they are shared.

    The counts are floats: :func:`_poisson_pmf` multiplies them by a float log
    mean, and an integer operand would cost a cast on every call.

    log(j!) is ``math.lgamma(j + 1)`` below j = 128 and the Stirling series
    ``(n + 1/2) log n - n + log(2 pi)/2 + 1/(12n) - 1/(360n^3) + 1/(1260n^5)``
    from there on, where the first dropped term, 1/(1680 n^7), is at most
    1.1e-18. The series is summed as ``n (log n - 1)`` plus the small terms:
    ``log n - 1`` is exact, which keeps these entries within 2 ulp of log(j!)
    (checked against 200-bit values up to j = 2e4) and within 4 ulp of
    ``scipy.special.gammaln`` up to j = 1e6.
    """
    j = np.arange(n_max + 1.0)
    small = min(n_max + 1, 128)
    log_fact = np.empty(n_max + 1)
    log_fact[:small] = [math.lgamma(i + 1.0) for i in range(small)]
    n = j[small:]
    log_n = np.log(n)
    inv = 1.0 / n
    inv2 = inv * inv
    log_fact[small:] = n * (log_n - 1.0) + (
        0.5 * log_n
        + 0.5 * math.log(2.0 * math.pi)
        + inv * (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 / 1260.0))
    )
    j.flags.writeable = log_fact.flags.writeable = False
    return j, log_fact


# The table of :func:`_log_factorial_table` at the largest length asked for so far.
_count_table: Tuple[np.ndarray, np.ndarray] = (np.empty(0), np.empty(0))


def _counts(n_max: int) -> Tuple[np.ndarray, np.ndarray]:
    """Counts 0..n_max and their log factorials, as read-only slices of one table.

    The table is rebuilt only when a longer one is asked for. An entry depends
    on its count alone, so a slice equals a table built at its own length.
    """
    global _count_table
    if len(_count_table[0]) <= n_max:
        _count_table = _log_factorial_table(n_max)
    j, log_fact = _count_table
    return j[: n_max + 1], log_fact[: n_max + 1]


def _poisson_pmf(x: float, n_max: int) -> np.ndarray:
    """Poisson(x) probabilities for counts 0..n_max, computed in log space.

    A zero mean, which only an underflowed ``rate * tau`` gives, has its mass
    at 0 up to 5e-324 at 1.
    """
    j, log_fact = _counts(n_max)
    # The mean stays in math: numpy calls on one float cost microseconds.
    return np.exp(j * math.log(max(x, _TINY)) - x - log_fact)


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
                L = np.exp(-self._a * tau) * (p + (self._powers * pmf).sum(axis=-1))
            self._transforms[tau] = L[self._rows]
        return self._transforms[tau]
