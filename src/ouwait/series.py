"""Analytic building blocks: incomplete-gamma sums, attempt-count mixture weights,
expected-wait and epoch-transform functions for both schemes, and monotone inversion.

Series over the total attempt count rho are truncated once the cumulative
mixture weight reaches ``1 - 1e-12``; the dropped tail bounds the absolute
truncation error of every bounded integrand used here. The truncation index is
capped at ``10 * k / (1 - eps)`` with a warning when the cap binds.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np
from scipy.special import gammaln

from .types import BracketError, ConvergenceError, InvalidConfig, ProcessParams

WEIGHT_TAIL = 1e-12

__all__ = [
    "MixtureSpec",
    "TruncationWarning",
    "mixture_weights",
    "laplace_exp_service",
    "H_maf",
    "F_maf",
    "G_maf",
    "H_rr",
    "L_rr",
    "F_rr",
    "G_rr",
    "invert_monotone",
    "default_tau_max",
]


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

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InvalidConfig(f"k must be >= 1, got {self.k}")
        if not (self.mu > 0 and math.isfinite(self.mu)):
            raise InvalidConfig(f"mu must be positive, got {self.mu}")
        if not (0.0 <= self.eps < 1.0):
            raise InvalidConfig(f"eps must lie in [0, 1), got {self.eps}")

    @property
    def mean_total_service(self) -> float:
        """Expected total service time per cycle, k / (mu * (1 - eps))."""
        return self.k / (self.mu * (1.0 - self.eps))


def _poisson_pmf(x: float, n_max: int) -> np.ndarray:
    """Poisson(x) probabilities for counts 0..n_max, computed in log space."""
    if x == 0.0:
        out = np.zeros(n_max + 1)
        out[0] = 1.0
        return out
    j = np.arange(n_max + 1)
    return np.exp(j * math.log(x) - x - gammaln(j + 1.0))


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
    upper = np.cumsum(_poisson_pmf(x, y_max - 1))
    return np.clip(1.0 - upper, 0.0, 1.0)


@functools.lru_cache(maxsize=256)
def mixture_weights(m: MixtureSpec) -> Tuple[np.ndarray, np.ndarray]:
    """Attempt counts rho >= k and their probabilities, truncated per the module rule.

    The weight of rho is ``C(rho-1, k-1) * eps^(rho-k) * (1-eps)^k``, with the
    binomial coefficient taken in log space to avoid overflow.
    """
    if m.eps == 0.0:
        return np.array([m.k]), np.array([1.0])
    # 10k/(1-eps) tracks the mixture mean; the +30 headroom keeps the 1e-12
    # tail target reachable for erasure rates into the high nineties.
    cap = max(m.k + 1, int(math.ceil((10.0 * m.k + 30.0) / (1.0 - m.eps))))
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


def laplace_exp_service(theta: float, mu: float) -> float:
    """Laplace transform of one exponential service time at rate 2*theta."""
    if theta <= 0 or mu <= 0:
        raise InvalidConfig("theta and mu must be positive")
    return mu / (mu + 2.0 * theta)


def H_maf(tau: float, m: MixtureSpec) -> float:
    """Expected threshold wait E[(tau - Ytot)+] under the retry-same scheme.

    Ytot is the Erlang-over-attempt-count mixture of one cycle's total service.
    """
    if tau < 0:
        raise InvalidConfig(f"tau must be nonnegative, got {tau}")
    if tau == 0.0:
        return 0.0
    rhos, wts = mixture_weights(m)
    g = _gamma_lower_table(m.mu * tau, int(rhos[-1]) + 1)
    terms = tau * g[rhos - 1] - (rhos / m.mu) * g[rhos]
    return float(np.sum(wts * np.maximum(terms, 0.0)))


def F_maf(tau: float, theta: float, m: MixtureSpec) -> float:
    """Epoch transform E[exp(-2 theta max(tau, Ytot))] under the retry-same scheme."""
    if tau < 0:
        raise InvalidConfig(f"tau must be nonnegative, got {tau}")
    rhos, wts = mixture_weights(m)
    a = 2.0 * theta
    n_max = int(rhos[-1])
    g_mu = _gamma_lower_table(m.mu * tau, n_max)
    # Upper tail of the shifted-rate gamma is the Poisson cumulative itself:
    # evaluating it directly avoids the 1 - (1 - tiny) cancellation.
    q_shift = np.minimum(np.cumsum(_poisson_pmf((a + m.mu) * tau, n_max - 1)), 1.0)
    lap_pow = np.exp(rhos * math.log(m.mu / (a + m.mu)))
    terms = math.exp(-a * tau) * g_mu[rhos - 1] + lap_pow * q_shift[rhos - 1]
    return float(np.sum(wts * terms))


def G_maf(x: float, processes: Sequence[ProcessParams], mu: float) -> float:
    """Threshold response: marginal MSE level reached by waiting until total age x.

    Strictly increasing in x; its inverse gives the unconstrained threshold.
    """
    if x < 0:
        raise InvalidConfig(f"x must be nonnegative, got {x}")
    total = 0.0
    for p in processes:
        total += p.stationary_variance * (
            1.0 - laplace_exp_service(p.theta, mu) * math.exp(-2.0 * p.theta * x)
        )
    return total


def H_rr(tau: float, k: int, mu: float) -> float:
    """Expected threshold wait E[(tau - Yround)+] with Yround ~ Erlang(k, mu)."""
    if tau < 0:
        raise InvalidConfig(f"tau must be nonnegative, got {tau}")
    if tau == 0.0:
        return 0.0
    g = _gamma_lower_table(mu * tau, k + 1)
    return max(0.0, tau * g[k - 1] - (k / mu) * g[k])


def L_rr(tau: float, theta: float, k: int, mu: float) -> float:
    """Round transform E[exp(-2 theta max(tau, Yround))], Yround ~ Erlang(k, mu)."""
    if tau < 0:
        raise InvalidConfig(f"tau must be nonnegative, got {tau}")
    a = 2.0 * theta
    g = _gamma_lower_table(mu * tau, k)[k - 1]
    q = min(1.0, float(np.sum(_poisson_pmf((a + mu) * tau, k - 1))))
    return math.exp(-a * tau) * g + (mu / (mu + a)) ** k * q


def F_rr(tau: float, theta: float, k: int, mu: float, eps: float) -> float:
    """Epoch transform over a geometric number of rounds, (1-eps)L / (1 - eps L)."""
    if not (0.0 <= eps < 1.0):
        raise InvalidConfig(f"eps must lie in [0, 1), got {eps}")
    L = L_rr(tau, theta, k, mu)
    return (1.0 - eps) * L / (1.0 - eps * L)


def G_rr(x: float, processes: Sequence[ProcessParams], k: int, mu: float, eps: float) -> float:
    """Threshold response for the blind round-robin scheme.

    The per-process factor carries the squared geometric-round correction
    ``(1-eps)^2 / (1 - eps L(x))^2`` with L evaluated at the same argument.
    Monotone increasing in x, so direct bisection inverts it.
    """
    if x < 0:
        raise InvalidConfig(f"x must be nonnegative, got {x}")
    if not (0.0 <= eps < 1.0):
        raise InvalidConfig(f"eps must lie in [0, 1), got {eps}")
    total = 0.0
    for p in processes:
        L = L_rr(x, p.theta, k, mu)
        total += p.stationary_variance * (
            1.0
            - laplace_exp_service(p.theta, mu)
            * (1.0 - eps) ** 2
            * math.exp(-2.0 * p.theta * x)
            / (1.0 - eps * L) ** 2
        )
    return total


def invert_monotone(
    f: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
    tol: float = 1e-9,
    max_iter: int = 200,
) -> float:
    """Invert a nondecreasing scalar function by bisection.

    The bracket must straddle the target: ``f(lo) <= target <= f(hi)``.
    Returns the bracket's midpoint once the bracket is at most ``tol`` wide,
    or once it is one float spacing wide (the midpoint rounds to an endpoint),
    since a ``tol`` below the root's float spacing cannot be met.
    Raises :class:`BracketError` when the bracket does not straddle the
    target, and :class:`ConvergenceError` when it fails to shrink that far
    within ``max_iter`` halvings.
    """
    if not (tol > 0):
        raise InvalidConfig(f"tol must be positive, got {tol}")
    if hi < lo:
        raise BracketError(f"empty bracket [{lo}, {hi}]")
    flo, fhi = f(lo), f(hi)
    if flo > target or fhi < target:
        raise BracketError(
            f"bracket [{lo}, {hi}] with values [{flo}, {fhi}] does not straddle {target}"
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol or mid == lo or mid == hi:
            return mid
        if f(mid) > target:
            hi = mid
        else:
            lo = mid
    raise ConvergenceError(
        f"bisection did not reach width {tol} in {max_iter} iterations (width {hi - lo})"
    )


def default_tau_max(processes: Sequence[ProcessParams], k: int, mu: float, eps: float) -> float:
    """Search ceiling for threshold inversions.

    Beyond ``50 / min(2 theta) + k / (mu (1 - eps))`` every transform in this
    module is numerically saturated.
    """
    slowest = min(2.0 * p.theta for p in processes)
    return 50.0 / slowest + k / (mu * (1.0 - eps))
