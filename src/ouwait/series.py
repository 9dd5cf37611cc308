"""Analytic building blocks: incomplete-gamma sums, attempt-count mixture weights,
the expected wait and the cycle transform of a mixture service law. Nothing
here knows the scheduling scheme; ``threshold`` maps each scheme onto a
:class:`MixtureSpec`.

Everything rests on one table of log factorials (:func:`_counts`), built
with ``math.lgamma`` and the Stirling series: the Poisson probabilities behind
the incomplete-gamma sums and the binomial coefficients of the mixture weights
both read it, so the module needs numpy alone.

Series over the total attempt count rho are truncated once the cumulative
mixture weight reaches ``1 - 1e-12``; the dropped tail bounds the absolute
truncation error of every bounded integrand used here. The truncation index is
capped at ``(10 * k + 30) / (1 - eps)`` with a warning when the cap binds, and
a cap above ``MAX_SERIES_TERMS`` is refused by ``threshold`` before any series
is built, since its tables would not fit in memory.

Apart from :class:`TruncationWarning` the names here are internal, and they
check none of their inputs: ``threshold`` builds every :class:`MixtureSpec`
from a validated ``SystemConfig`` and passes thresholds in ``[0, search_ceiling]``.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from numpy.typing import ArrayLike

WEIGHT_TAIL = 1e-12
MAX_SERIES_TERMS = 10**6
# The smallest positive float. A Poisson mean is raised to it before its log
# is taken, so that a mean of 0 gives probabilities 1, 5e-324 and then exact
# zeros, without the warnings of log 0.
_TINY = math.ulp(0.0)


class TruncationWarning(UserWarning):
    """Emitted when the attempt-count series hits its hard truncation cap."""


@dataclass(frozen=True)
class MixtureSpec:
    """Process count, service rate, and erasure probability of the shared queue.

    Determines the law of the total service time accumulated over one
    delivery cycle: an Erlang(rho, mu) mixture over the total attempt count
    rho, which is a sum of k independent geometric(1 - eps) variables.
    """

    k: int
    mu: float
    eps: float

    @property
    def mean_total_service(self) -> float:
        """Expected total service time per cycle, k / (mu * (1 - eps))."""
        return self.k / (self.mu * (1.0 - self.eps))

    @property
    def series_cap(self) -> int:
        """Hard cap on the attempt count rho of the truncated series."""
        # 10k/(1-eps) tracks the mixture mean; the +30 headroom keeps the 1e-12
        # tail target reachable for erasure rates into the high nineties.
        return max(self.k + 1, math.ceil((10.0 * self.k + 30.0) / (1.0 - self.eps)))


def _log_factorial_table(n_max: int) -> Tuple[np.ndarray, np.ndarray]:
    """Counts 0..n_max and their log factorials, read-only since they are shared.

    The counts are floats, like the attempt counts of :func:`mixture_weights`:
    the series multiply them by float arrays, and an integer operand would
    cost a cast on every call.

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


def _poisson_pmf(x: ArrayLike, n_max: int) -> np.ndarray:
    """Poisson(x) probabilities for counts 0..n_max, computed in log space.

    ``x`` is a scalar or a column of means (shape ``(..., 1)``); counts run
    along the last axis. A zero mean, which only an underflowed ``mu * tau``
    gives, has its mass at 0 up to 5e-324 at 1.
    """
    j, log_fact = _counts(n_max)
    # A scalar mean stays in math: numpy calls on one float cost microseconds.
    if isinstance(x, np.ndarray):
        log_x = np.log(np.maximum(x, _TINY))
    else:
        log_x = math.log(max(x, _TINY))
    return np.exp(j * log_x - x - log_fact)


def _gamma_lower_table(x: float, y_max: int) -> np.ndarray:
    """Regularized lower incomplete gamma at integer shapes 1..y_max, one pass.

    Entry ``i`` holds ``(1/i!) * integral_0^x t^i e^(-t) dt``, the value for
    shape ``i + 1``, through the finite Poisson-sum identity
    ``1 - exp(-x) * sum_{j<=i} x^j / j!``. Terms are formed in log space (no
    overflow for any x) and accumulated by one running sum, so the absolute
    error grows with the number of terms: against ``scipy.special.gammainc``
    it stays below 2e-13 for shapes up to 400 and 2e-11 up to 1e4. Values
    near zero lose relative precision to the final cancellation but stay
    within the same absolute bound.
    """
    upper = _poisson_pmf(x, y_max - 1).cumsum()
    return np.maximum(1.0 - upper, 0.0)


@functools.lru_cache(maxsize=256)
def mixture_weights(m: MixtureSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Attempt counts rho >= k, as floats, and their probabilities, truncated
    per the module rule.

    The weight of rho is ``C(rho-1, k-1) * eps^(rho-k) * (1-eps)^k``, with the
    binomial coefficient taken in log space, from the log-factorial table, to
    avoid overflow.
    """
    if m.eps == 0.0:
        return np.array([float(m.k)]), np.array([1.0])
    cap = m.series_cap
    rhos = np.arange(m.k, cap + 1.0)
    _, log_fact = _counts(cap)
    # log C(rho-1, k-1) = log (rho-1)! - log (k-1)! - log (rho-k)!
    log_binom = log_fact[m.k - 1 : cap] - log_fact[m.k - 1] - log_fact[: cap - m.k + 1]
    w = np.exp(log_binom + (rhos - m.k) * math.log(m.eps) + m.k * math.log1p(-m.eps))
    cum = np.cumsum(w)
    idx = int(np.searchsorted(cum, 1.0 - WEIGHT_TAIL))
    if idx >= len(rhos):
        warnings.warn(
            f"attempt-count series capped at rho={cap} with tail weight "
            f"{1.0 - cum[-1]:.3e} (k={m.k}, eps={m.eps})",
            TruncationWarning,
            stacklevel=2,
        )
        idx = len(rhos) - 1
    return rhos[: idx + 1], w[: idx + 1]


def expected_wait(tau: float, m: MixtureSpec) -> float:
    """Expected threshold wait E[(tau - Ytot)+] over a cycle's total service Ytot."""
    if tau == 0.0:
        return 0.0
    rhos, wts = mixture_weights(m)
    g = _gamma_lower_table(m.mu * tau, int(rhos[-1]) + 1)
    # The counts rhos run from k without gaps, so g[rhos - 1] is a slice.
    terms = tau * g[m.k - 1 : -1] - (rhos / m.mu) * g[m.k :]
    return float((wts * np.maximum(terms, 0.0)).sum())


def cycle_transform(tau: float, thetas: ArrayLike, m: MixtureSpec) -> np.ndarray:
    """Cycle transform E[exp(-2 theta max(tau, Ytot))] at every rate in ``thetas``.

    Ytot is a cycle's total service. One Poisson table over (theta, count)
    serves all rates at once; the result has the shape of ``thetas``.
    """
    rhos, wts = mixture_weights(m)
    a = 2.0 * np.asarray(thetas, dtype=float)[..., None]
    shifted = a + m.mu
    lap_pow = np.exp(rhos * np.log(m.mu / shifted))
    if tau == 0.0:
        # No wait: the Laplace transform of the service alone.
        return (wts * lap_pow).sum(axis=-1)
    n_max = int(rhos[-1])
    g_mu = _gamma_lower_table(m.mu * tau, n_max)
    # Upper tail of the shifted-rate gamma is the Poisson cumulative itself:
    # evaluating it directly avoids the 1 - (1 - tiny) cancellation.
    q_shift = np.minimum(_poisson_pmf(shifted * tau, n_max - 1).cumsum(axis=-1), 1.0)
    terms = np.exp(-a * tau) * g_mu[m.k - 1 :] + lap_pow * q_shift[..., m.k - 1 :]
    return (wts * terms).sum(axis=-1)
