"""Optimal threshold and minimum sum MSE for both scheduling schemes.

Both schemes pose one ratio problem: choose the threshold tau of the waiting
rule ``w(z) = max(tau - z, 0)`` to minimise E[integrated sum MSE over an
epoch] / E[epoch length] subject to the sampling budget f_max. The schemes
differ only in the law of an epoch's service, and :func:`_law` is the one
place that reads the scheme. An epoch is a geometric(1 - r) number of rounds,
each with its own wait and served by an Erlang(k, rate) law:

- Feedback (``maf``): the scheduler retries the stalest process until its
  sample gets through, so one round serves every process once. A
  geometric(1 - eps) number of Exp(mu) attempts is one Exp(mu (1 - eps))
  draw, so the round is Erlang(k, mu (1 - eps)), and it always delivers
  (r = 0).
- No feedback (``rr``): the scheduler cycles through the processes blindly,
  one sample each per round, so a round is Erlang(k, mu) and delivers a
  given process's sample with probability 1 - eps (r = eps).

The epoch mean, the epoch transform and the threshold response are each one
formula over that law.

Either way an epoch draws k/(1-eps) samples on average, so the budget reads
``epoch_mean(tau) >= k / ((1-eps) f_max)``; it is vacuous when f_max >= mu.

The solver runs Dinkelbach's iteration on the ratio (Dinkelbach, "On
nonlinear fractional programming", Management Science 1967). For a value beta,
the threshold minimising ``numerator - beta * epoch_mean`` over the admissible
thresholds is ``tau(beta)``: the inverse of the threshold response at beta,
raised to the budget threshold where it falls short of it. Starting from the
ratio at the budget threshold, each step sets ``beta`` to the ratio at
``tau(beta)``; beta never increases, and the iteration stops once a step moves
it by at most ``tol``, or raises it by no more than the ratio's rounding. Each
inversion runs on a bracket the solve already holds, and returns a point
within ``tol / 10`` of the crossing, or within one float spacing of it when
that spacing is wider:

- the epoch mean at the budget ``B``, on ``[max(0, B(1-r) - k/rate), B(1-r)]``,
  since ``E[max(tau, Y)]`` lies in ``[tau, tau + k/rate]`` for a round Y, by
  Newton's method (:func:`_newton`). The epoch mean is convex and increasing
  in tau, with slope ``P(k, rate tau) / (1 - r)``, so the iterates started at
  the upper end fall monotonically onto the crossing. A halving step toward
  the lower end replaces any step that would leave the bracket or that a
  slope underflowed to 0 would make infinite, and the iteration stops once a
  step is at most ``tol / 10`` or one float spacing;
- the response at beta, on ``[tau_b, hi]``, by Brent's method, where ``hi``
  is the search ceiling at the first step and then the threshold the
  previous step returned: beta never rises, so neither does tau(beta). A
  binding solve stops after one response evaluation, at ``tau_b``.

One Poisson table per threshold serves the epoch mean, its slope and the
``P(k, rate tau)`` term of the round transform: the law keeps each
threshold's wait, round transform and ratio, so no threshold is evaluated
twice in one solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import series
from .types import ConvergenceError, InvalidConfig, Scheme, SolveResult, SystemConfig

# A step of beta cannot be resolved below one float spacing of beta, which is
# at most the variance bound; a tolerance under a few spacings of that bound
# could never be met by the stopping rule.
TOL_ULPS = 4
# Steps of a threshold inversion, past any float bracket's one-spacing stop.
MAX_STEPS = 200
# Dinkelbach steps; the iteration converges superlinearly and needs a handful.
MAX_ITERS = 50


@dataclass(frozen=True)
class _Law:
    """An epoch's service law and the per-process constants the solver reuses.

    The fields after ``lap`` follow from those before it, so laws compare by
    the first six alone.
    """

    k: int  # shape of one round's Erlang service
    rate: float  # rate of one round's Erlang service
    r: float  # probability that a round ends without a delivery
    var: Tuple[float, ...]  # stationary variances
    two_theta: Tuple[float, ...]
    lap: Tuple[float, ...]  # mu / (mu + 2 theta)
    laplace: series._LaplaceTerms = field(compare=False)  # the round transform's tau-free columns
    # Each threshold's round wait and its slope P(k, rate tau), from one table.
    waits: Dict[float, Tuple[float, float]] = field(default_factory=dict, compare=False)
    rounds: Dict[float, np.ndarray] = field(default_factory=dict, compare=False)  # L by threshold
    ratios: Dict[float, float] = field(default_factory=dict, compare=False)  # sum MSE by threshold


def _law(
    cfg: SystemConfig, scheme: Scheme, var: Optional[Tuple[float, ...]] = None
) -> _Law:
    """The only place the scheme enters: the law of one epoch's service.

    An epoch is a geometric(1 - r) number of rounds, each served by an
    Erlang(k, rate) law. With feedback the retries absorb the erasures into
    the rate, mu (1 - eps), so the one round always delivers (r = 0); without
    feedback every round is Erlang(k, mu) and delivers with probability 1 - eps.
    ``var`` passes in the stationary variances where the caller already has them.
    """
    if not isinstance(scheme, Scheme):
        raise InvalidConfig(f"scheme must be a Scheme, got {scheme!r}")
    if scheme is Scheme.MAF_FEEDBACK:
        rate, r = cfg.mu * (1.0 - cfg.eps), 0.0
    else:
        rate, r = cfg.mu, cfg.eps
    procs = cfg.processes
    thetas = tuple(p.theta for p in procs)
    return _Law(
        k=cfg.k,
        rate=rate,
        r=r,
        var=tuple(p.stationary_variance for p in procs) if var is None else var,
        two_theta=tuple(2.0 * t for t in thetas),
        lap=tuple(cfg.mu / (cfg.mu + 2.0 * t) for t in thetas),
        laplace=series._laplace_terms(thetas, cfg.k, rate),
    )


def _wait(tau: float, law: _Law) -> Tuple[float, float]:
    """A round's wait E[(tau - Y)+] and its slope P(Y < tau), computed once per
    threshold and law: the epoch mean, its slope and the round transform share them."""
    if tau not in law.waits:
        law.waits[tau] = series._wait_terms(tau, law.k, law.rate)
    return law.waits[tau]


def _epoch_mean(tau: float, law: _Law) -> float:
    return (_wait(tau, law)[0] + law.k / law.rate) / (1.0 - law.r)


def _check_tau(tau: float) -> None:
    # Written so that a nan fails the comparison and is rejected.
    if not 0.0 <= tau < math.inf:
        raise InvalidConfig(f"tau must be nonnegative and finite, got {tau}")


def epoch_mean(tau: float, cfg: SystemConfig, scheme: Scheme) -> float:
    """Expected epoch length: the wait plus the service it spans, per delivery."""
    _check_tau(tau)
    return _epoch_mean(tau, _law(cfg, scheme))


def _round_transform(tau: float, law: _Law) -> np.ndarray:
    """Transform L of one round at every rate, computed once per threshold and law:
    a solve revisits each inversion's bracket ends, and the ratio where one stopped."""
    if tau not in law.rounds:
        law.rounds[tau] = series._transform_terms(tau, _wait(tau, law)[1], law.laplace, law.k)
    return law.rounds[tau]


def _transform(tau: float, law: _Law) -> List[float]:
    """Epoch transform E[exp(-2 theta * epoch length)] of every process.

    Over a geometric(1 - r) number of rounds it is ``(1-r) L / (1 - r L)``,
    with L the transform of one round.
    """
    L = _round_transform(tau, law)
    return ((1.0 - law.r) * L / (1.0 - law.r * L)).tolist()


def _response(x: float, law: _Law) -> float:
    """Threshold response, increasing in x; its inverse at beta is tau(beta).

    Each process's term carries the squared geometric-round correction
    ``((1-r) / (1 - r L(x)))^2``, which is exactly 1 when every round delivers.
    """
    if law.r > 0.0:
        L = _round_transform(x, law)
        rounds = (((1.0 - law.r) / (1.0 - law.r * L)) ** 2).tolist()
    else:
        rounds = (1.0,) * len(law.var)
    return sum(
        v * (1.0 - lap * math.exp(-a * x) * c)
        for v, lap, a, c in zip(law.var, law.lap, law.two_theta, rounds)
    )


def _ratio_terms(tau: float, law: _Law) -> Tuple[float, float]:
    """Expected integrated sum MSE over an epoch, and the expected epoch length."""
    eg = _epoch_mean(tau, law)
    numerator = sum(
        v * (eg - (lap / a) * (1.0 - f))
        for v, lap, a, f in zip(law.var, law.lap, law.two_theta, _transform(tau, law))
    )
    return numerator, eg


def _mse(tau: float, law: _Law) -> float:
    """The ratio at ``tau``, computed once per threshold and law: a binding
    solve returns the threshold its first ratio took, and a sweep's zero-wait
    column reads the ratio at 0 from the solve's law."""
    if tau not in law.ratios:
        numerator, eg = _ratio_terms(tau, law)
        law.ratios[tau] = numerator / eg
    return law.ratios[tau]


def mse_at_tau(tau: float, cfg: SystemConfig, scheme: Scheme) -> float:
    """Long-term average sum MSE achieved by threshold ``tau``."""
    _check_tau(tau)
    return _mse(tau, _law(cfg, scheme))


def _transient(law: _Law) -> float:
    """The numerator's largest possible drop below ``var * epoch_mean``:
    sum of var lap / (2 theta), reached when every epoch transform is 0."""
    return sum(v * lap / a for v, lap, a in zip(law.var, law.lap, law.two_theta))


def _budget(cfg: SystemConfig) -> float:
    """Least admissible expected epoch length, k / ((1-eps) f_max)."""
    return cfg.k / ((1.0 - cfg.eps) * cfg.f_max)


def search_ceiling(cfg: SystemConfig) -> float:
    """Threshold search ceiling: past every transform's saturation and the budget.

    Beyond ``50 / min(2 theta) + k / (mu (1 - eps))`` every transform is
    numerically saturated, and ``epoch_mean(tau) >= tau`` for both schemes,
    so the budget threshold lies at or below ``_budget(cfg)``. Doubling it
    keeps a margin that no rounding absorbs, however large the budget.
    """
    slowest = min(2.0 * p.theta for p in cfg.processes)
    saturated = 50.0 / slowest + cfg.k / (cfg.mu * (1.0 - cfg.eps))
    return max(saturated, 2.0 * _budget(cfg))


def _invert(
    f: Callable[[float], float], target: float, hi: float, tol: float, *, lo: float = 0.0
) -> float:
    """Invert the nondecreasing ``f`` at ``target`` on ``[lo, hi]`` by Brent's method.

    A target at or below f(lo) returns ``lo``: the zero-wait regime when
    ``lo`` is 0, the budget threshold when it binds. A target at or above
    f(hi) returns ``hi``, which the caller rejects if it is the search ceiling
    and survives to the optimum. Otherwise this is Brent's zeroin (Brent,
    "Algorithms for Minimization without Derivatives", 1973, ch. 4) on
    ``f - target``: inverse quadratic or secant steps, replaced by a halving
    step whenever they would leave the bracket or fail to shrink it fast
    enough. The returned point is an end of a bracket of the crossing that is
    at most ``tol`` wide, or one float spacing wide, since a ``tol`` below the
    root's float spacing cannot be met. Each end of ``[lo, hi]`` is evaluated
    at most once.
    """
    fa = f(lo) - target
    if fa >= 0.0:
        return lo
    fb = f(hi) - target
    if fb <= 0.0:
        return hi
    # b is the best point so far, c the other end of the bracket, a the
    # previous b; d is the last step and e the one before.
    a, b = lo, hi
    c, fc = a, fa
    d = e = b - a
    step_min = 0.5 * tol
    for _ in range(MAX_STEPS):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        m = 0.5 * (c - b)
        if fb == 0.0 or abs(c - b) <= tol or b + m in (b, c):
            return b
        if abs(e) >= step_min and abs(fa) > abs(fb):
            # Inverse quadratic interpolation through a, b and c, or the
            # secant through a and b when a is c, as the step p / q.
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            # Accept it only inside the bracket and under half the step
            # before last; otherwise halve.
            if 2.0 * p < min(3.0 * m * q - abs(step_min * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > step_min else math.copysign(step_min, m)
        if b in (a, c):
            # A step below the float spacing: halve instead.
            b = a + m
        fb = f(b) - target
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
    raise ConvergenceError(
        f"Brent's method did not reach width {tol} in {MAX_STEPS} steps (width {abs(c - b)})"
    )


def _newton(
    f: Callable[[float], Tuple[float, float]], target: float, hi: float, tol: float, *, lo: float
) -> float:
    """Invert the convex nondecreasing ``f`` at ``target`` on ``[lo, hi]`` by
    Newton's method from ``hi``; ``f`` returns its value and its slope.

    The tangent of a convex function lies below it, so from above the
    crossing each Newton step lands at or above the crossing again, and the
    iterates fall monotonically onto it. Every evaluation moves an end of the
    bracket ``[lo, hi]`` to the point evaluated. A step that would leave that
    bracket, or that a slope underflowed to 0 would make infinite, is
    replaced by a halving step. The iteration stops once a step is at most
    ``tol`` or one float spacing and returns the point it reached: a halving
    step that short leaves the crossing within it, and so does a Newton step,
    whose error after the step is quadratic in its length.
    """
    t = hi
    for _ in range(MAX_STEPS):
        value, slope = f(t)
        excess = value - target
        if excess == 0.0:
            return t
        if excess > 0.0:
            hi = t
        else:
            lo = t
        nxt = t - excess / slope if slope > 0.0 else hi
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - t) <= max(tol, math.ulp(t)):
            return nxt
        t = nxt
    raise ConvergenceError(f"Newton's method did not settle within {tol} in {MAX_STEPS} steps")


def _budget_threshold(cfg: SystemConfig, law: _Law, tol: float) -> float:
    """The threshold whose epoch mean meets the budget, within ``tol``: Newton's
    method on the bracket and with the slope the module docstring gives."""
    budget = _budget(cfg)
    top = budget * (1.0 - law.r)
    lo = max(0.0, top - law.k / law.rate)
    if lo == 0.0 and _epoch_mean(0.0, law) >= budget:
        # An f_max within rounding of mu: zero wait already meets the budget,
        # and at tau = 0 the epoch mean costs no table.
        return 0.0
    return _newton(
        lambda t: (_epoch_mean(t, law), _wait(t, law)[1] / (1.0 - law.r)), budget, top, tol, lo=lo
    )


def solve(cfg: SystemConfig, scheme: Scheme, tol: float = 1e-9) -> SolveResult:
    """Optimal threshold and minimum sum MSE of ``scheme`` by Dinkelbach's iteration.

    The iteration stops once a step changes beta by at most ``tol``; the
    threshold inversions run at ``tol / 10``. Each response inversion after
    the first is capped at the previous step's threshold. That point may sit
    up to ``tol / 10`` below its own crossing, but the new crossing lies at or
    below the old one, so a capped inversion still returns a point within
    ``tol / 10`` of its crossing and the stopping rule keeps its meaning. The
    returned beta is the ratio at the returned threshold. Raises
    :class:`InvalidConfig` for a tolerance below float resolution, or when the
    optimum reaches the search ceiling because no threshold lowers the ratio
    by ``TOL_ULPS`` float spacings of the variance bound (as at eps = 1 - 1e-15
    with k = 64); and :class:`ConvergenceError` when beta rises by more than
    both ``tol`` and the ratio's rounding bound (see :class:`SolveResult`),
    ``MAX_ITERS`` steps do not meet the stopping rule, or the optimum
    otherwise reaches the search ceiling.
    """
    return _solve(cfg, scheme, tol)[0]


def _solve(cfg: SystemConfig, scheme: Scheme, tol: float = 1e-9) -> Tuple[SolveResult, _Law]:
    """:func:`solve`, and the law it evaluated, whose memos later ratios reuse."""
    # Each variance once, for the tol guard ahead of any series work and for the law.
    var = tuple(p.stationary_variance for p in cfg.processes)
    beta_hi = sum(var)
    min_tol = TOL_ULPS * math.ulp(beta_hi)
    if not (math.isfinite(tol) and tol >= min_tol):
        raise InvalidConfig(
            f"tol must be finite and at least {min_tol:.3g}, {TOL_ULPS} float spacings "
            f"of the variance bound {beta_hi:.6g}; got {tol}"
        )
    law = _law(cfg, scheme, var)
    ceiling = search_ceiling(cfg)
    inner_tol = tol / 10.0

    tau_b = _budget_threshold(cfg, law, inner_tol) if cfg.f_max < cfg.mu else 0.0

    beta = _mse(tau_b, law)
    tau = ceiling
    for iters in range(1, MAX_ITERS + 1):
        tau = _invert(lambda x: _response(x, law), beta, tau, inner_tol, lo=tau_b)
        ratio = _mse(tau, law)
        step = ratio - beta
        beta = ratio
        if step > tol:
            # A rise within the ratio's own rounding is noise at the optimum:
            # a few float spacings of the numerator's largest term per process,
            # over the epoch mean.
            noise = TOL_ULPS * law.k * math.ulp(_transient(law)) / _epoch_mean(tau, law)
            if step > noise:
                raise ConvergenceError(
                    f"Dinkelbach step raised beta by {step} at iteration {iters}"
                )
            break
        if abs(step) <= tol:
            break
    else:
        raise ConvergenceError(f"Dinkelbach iteration did not settle in {MAX_ITERS} steps")
    if tau >= ceiling:
        # No threshold lowers the ratio by more than this below the variance
        # bound; under a few of its float spacings, beta is rounding noise.
        gain = _transient(law) / _epoch_mean(0.0, law)
        if gain < min_tol:
            raise InvalidConfig(
                f"eps = {cfg.eps!r} leaves the sum MSE flat: no threshold lowers it more "
                f"than {gain:.3g} below its bound {beta_hi:.6g}, under {TOL_ULPS} float spacings"
            )
        raise ConvergenceError(f"optimal threshold reached the search ceiling {ceiling}")
    return SolveResult(
        tau_star=tau,
        beta_star=beta,
        binding=tau_b > 0.0 and tau == tau_b,
        outer_iters=iters,
        achieved_tol=abs(step),
    ), law


def solve_maf(cfg: SystemConfig, tol: float = 1e-9) -> SolveResult:
    """:func:`solve` for the feedback scheme."""
    return solve(cfg, Scheme.MAF_FEEDBACK, tol)


def solve_rr(cfg: SystemConfig, tol: float = 1e-9) -> SolveResult:
    """:func:`solve` for the no-feedback scheme."""
    return solve(cfg, Scheme.RR_NO_FEEDBACK, tol)
