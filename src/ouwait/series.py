"""Analytic building blocks: incomplete-gamma sums, attempt-count mixture weights,
the expected wait and the cycle transform of a mixture service law. Nothing
here knows the scheduling scheme; ``threshold`` maps each scheme onto a
:class:`MixtureSpec`.

Series over the total attempt count rho are truncated once the cumulative
mixture weight reaches ``1 - 1e-12``; the dropped tail bounds the absolute
truncation error of every bounded integrand used here. The truncation index is
capped at ``(10 * k + 30) / (1 - eps)`` with a warning when the cap binds, and
a cap above ``MAX_SERIES_TERMS`` is refused by ``threshold`` before any series
is built, since its tables would not fit in memory.

Apart from :class:`TruncationWarning` the names here are internal, and they
check none of their inputs: ``threshold`` builds every :class:`MixtureSpec`
from a validated ``SystemConfig`` and passes thresholds in ``[0, tau_max]``.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from numpy.typing import ArrayLike
from scipy.special import gammaln, xlogy

WEIGHT_TAIL = 1e-12
MAX_SERIES_TERMS = 10**6


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


@functools.lru_cache(maxsize=64)
def _counts(n_max: int) -> Tuple[np.ndarray, np.ndarray]:
    """Counts 0..n_max and their log factorials, read-only since they are shared."""
    j = np.arange(n_max + 1)
    log_fact = gammaln(j + 1.0)
    j.flags.writeable = log_fact.flags.writeable = False
    return j, log_fact


def _poisson_pmf(x: ArrayLike, n_max: int) -> np.ndarray:
    """Poisson(x) probabilities for counts 0..n_max, computed in log space.

    ``x`` is a scalar or a column of means (shape ``(..., 1)``); counts run
    along the last axis. ``xlogy`` gives a zero mean its point mass at 0.
    """
    j, log_fact = _counts(n_max)
    return np.exp(xlogy(j, x) - x - log_fact)


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
    """Attempt counts rho >= k and their probabilities, truncated per the module rule.

    The weight of rho is ``C(rho-1, k-1) * eps^(rho-k) * (1-eps)^k``, with the
    binomial coefficient taken in log space to avoid overflow.
    """
    if m.eps == 0.0:
        return np.array([m.k]), np.array([1.0])
    cap = m.series_cap
    rhos = np.arange(m.k, cap + 1)
    log_binom = gammaln(rhos) - gammaln(m.k) - gammaln(rhos - m.k + 1)
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
