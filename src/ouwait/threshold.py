"""Optimal threshold and minimum sum MSE for both scheduling schemes.

Both schemes pose one ratio problem: choose the threshold tau of the waiting
rule ``w(z) = max(tau - z, 0)`` to minimise E[integrated sum MSE over an
epoch] / E[epoch length] subject to the sampling budget f_max. The schemes
differ only in the law of an epoch's service, which enters through three
functions keyed by :class:`Scheme`: the epoch mean, the per-process epoch
transform and the threshold response.

- Feedback (``maf``): the scheduler retries the stalest process until its
  sample gets through, so one epoch serves every process once with a
  geometric number of attempts each, and the wait happens once per epoch.
- No feedback (``rr``): the scheduler cycles through the processes blindly,
  one sample each per round, so a process's epoch spans a geometric number of
  rounds, each with its own wait.

Either way an epoch draws k/(1-eps) samples on average, so the budget reads
``epoch_mean(tau) >= k / ((1-eps) f_max)``; it is vacuous when f_max >= mu.

The solver bisects the candidate value beta on ``[0, sum of stationary
variances]``, driving the residual
``p(beta) = numerator(tau(beta)) - beta * epoch_mean(tau(beta))`` to zero.
``tau(beta)`` inverts the threshold response at beta and is raised to the
budget threshold where it falls short of it. ``p`` is strictly decreasing
over the bracket, and its sign change is asserted before bisecting.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Tuple

from . import series
from .series import MixtureSpec, invert_monotone
from .types import ConvergenceError, InvalidConfig, Scheme, SolveResult, SystemConfig

# The outer bisection cannot narrow its bracket below one float spacing of
# beta; a tolerance under a few spacings of the bracket's top would stall.
TOL_ULPS = 4


def _mixture(cfg: SystemConfig) -> MixtureSpec:
    return MixtureSpec(k=cfg.k, mu=cfg.mu, eps=cfg.eps)


def epoch_mean(tau: float, cfg: SystemConfig, scheme: Scheme) -> float:
    """Expected epoch length: the wait plus the service it spans, per delivery."""
    if scheme is Scheme.MAF_FEEDBACK:
        return series.H_maf(tau, _mixture(cfg)) + cfg.k / (cfg.mu * (1.0 - cfg.eps))
    return (series.H_rr(tau, cfg.k, cfg.mu) + cfg.k / cfg.mu) / (1.0 - cfg.eps)


def _transform(tau: float, theta: float, cfg: SystemConfig, scheme: Scheme) -> float:
    """Epoch transform E[exp(-2 theta * epoch length)] of one process."""
    if scheme is Scheme.MAF_FEEDBACK:
        return series.F_maf(tau, theta, _mixture(cfg))
    return series.F_rr(tau, theta, cfg.k, cfg.mu, cfg.eps)


def _response(x: float, cfg: SystemConfig, scheme: Scheme) -> float:
    """Threshold response, increasing in x; its inverse at beta is tau(beta)."""
    if scheme is Scheme.MAF_FEEDBACK:
        return series.G_maf(x, cfg.processes, cfg.mu)
    return series.G_rr(x, cfg.processes, cfg.k, cfg.mu, cfg.eps)


def _ratio_terms(tau: float, cfg: SystemConfig, scheme: Scheme) -> Tuple[float, float]:
    """Expected integrated sum MSE over an epoch, and the expected epoch length."""
    eg = epoch_mean(tau, cfg, scheme)
    total = 0.0
    for p in cfg.processes:
        lap = series.laplace_exp_service(p.theta, cfg.mu)
        fk = _transform(tau, p.theta, cfg, scheme)
        total += p.stationary_variance * (eg - (lap / (2.0 * p.theta)) * (1.0 - fk))
    return total, eg


def mse_at_tau(tau: float, cfg: SystemConfig, scheme: Scheme) -> float:
    """Long-term average sum MSE achieved by threshold ``tau``."""
    numerator, eg = _ratio_terms(tau, cfg, scheme)
    return numerator / eg


def _budget(cfg: SystemConfig) -> float:
    """Least admissible expected epoch length, k / ((1-eps) f_max)."""
    return cfg.k / ((1.0 - cfg.eps) * cfg.f_max)


def search_ceiling(cfg: SystemConfig) -> float:
    """Default threshold ceiling: past every transform's saturation and the budget.

    ``epoch_mean(tau) >= tau`` for both schemes, so the budget threshold lies
    below ``_budget(cfg) + 1``.
    """
    saturated = series.default_tau_max(cfg.processes, cfg.k, cfg.mu, cfg.eps)
    return max(saturated, _budget(cfg) + 1.0)


def _invert_clamped(
    f: Callable[[float], float], target: float, hi: float, tol: float
) -> float:
    # Zero-threshold clamp: a target at or below f(0) realizes the zero-wait
    # regime; a target at or above f(hi) returns the ceiling itself, which
    # the caller rejects if it survives to the optimum.
    if f(0.0) >= target:
        return 0.0
    if f(hi) <= target:
        return hi
    return invert_monotone(f, target, 0.0, hi, tol)


def solve(
    cfg: SystemConfig, scheme: Scheme, tol: float = 1e-9, tau_max: Optional[float] = None
) -> SolveResult:
    """Optimal threshold and minimum sum MSE of ``scheme`` by nested bisection.

    ``tol`` is the width of the final beta bracket; the threshold inversions
    run at ``tol / 10`` so the outer residual is not noise-limited.
    ``tau_max`` caps the threshold search (default :func:`search_ceiling`).
    Raises :class:`InvalidConfig` for a tolerance below float resolution and
    when the budget threshold or the optimum reaches ``tau_max``.
    """
    beta_hi = cfg.total_stationary_variance
    min_tol = TOL_ULPS * math.ulp(beta_hi)
    if not (math.isfinite(tol) and tol >= min_tol):
        raise InvalidConfig(
            f"tol must be finite and at least {min_tol:.3g}, {TOL_ULPS} float spacings "
            f"of the variance bound {beta_hi:.6g}; got {tol}"
        )
    if tau_max is None:
        tau_max = search_ceiling(cfg)
    elif not (tau_max > 0 and math.isfinite(tau_max)):
        raise InvalidConfig(f"tau_max must be positive, got {tau_max}")
    inner_tol = tol / 10.0

    if cfg.f_max >= cfg.mu:
        tau_b = 0.0
    else:
        budget = _budget(cfg)
        tau_b = _invert_clamped(lambda t: epoch_mean(t, cfg, scheme), budget, tau_max, inner_tol)
        if tau_b >= tau_max:
            raise InvalidConfig(
                f"tau_max={tau_max} cannot meet the sampling budget (expected epoch "
                f"{epoch_mean(tau_max, cfg, scheme)} < {budget})"
            )

    def residual(beta: float) -> Tuple[float, float, bool]:
        tau0 = _invert_clamped(lambda x: _response(x, cfg, scheme), beta, tau_max, inner_tol)
        tau = max(tau0, tau_b)
        numerator, eg = _ratio_terms(tau, cfg, scheme)
        return numerator - beta * eg, tau, tau0 < tau_b

    p_lo, _, _ = residual(0.0)
    p_hi, _, _ = residual(beta_hi)
    if not (p_lo > 0 >= p_hi):
        raise ConvergenceError(
            f"auxiliary residual lacks a sign change: p(0)={p_lo}, p({beta_hi})={p_hi}"
        )

    lo, hi = 0.0, beta_hi
    iters = 0
    max_iters = int(math.ceil(math.log2(max(beta_hi / tol, 2.0)))) + 8
    while hi - lo > tol and iters < max_iters:
        mid = 0.5 * (lo + hi)
        p_mid, _, _ = residual(mid)
        if p_mid > 0:
            lo = mid
        else:
            hi = mid
        iters += 1
    if hi - lo > tol:
        raise ConvergenceError(f"outer bisection stalled at width {hi - lo}")

    beta_star = 0.5 * (lo + hi)
    _, tau_star, binding = residual(beta_star)
    if tau_star >= tau_max:
        raise InvalidConfig(
            f"optimal threshold reached the search ceiling tau_max={tau_max}; raise tau_max"
        )
    return SolveResult(
        tau_star=tau_star,
        beta_star=beta_star,
        binding=binding,
        outer_iters=iters,
        achieved_tol=hi - lo,
    )


def solve_maf(
    cfg: SystemConfig, tol: float = 1e-9, tau_max: Optional[float] = None
) -> SolveResult:
    """:func:`solve` for the feedback scheme."""
    return solve(cfg, Scheme.MAF_FEEDBACK, tol, tau_max)


def solve_rr(
    cfg: SystemConfig, tol: float = 1e-9, tau_max: Optional[float] = None
) -> SolveResult:
    """:func:`solve` for the no-feedback scheme."""
    return solve(cfg, Scheme.RR_NO_FEEDBACK, tol, tau_max)
