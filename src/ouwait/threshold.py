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

The solver finds the optimum from the ratio's first-order condition (Sun et
al., "Update or Wait: How to Keep Your Data Fresh", IEEE Trans. Inf. Theory
2017; Ornee and Sun, IEEE/ACM Trans. Netw. 2021). With N the numerator and D
the epoch mean, ``N' = D' * response``, so the ratio's slope is ``(D'/D) h``
with ``h = response - ratio`` and ``D' = P(k, rate tau) / (1 - r) > 0``: the
ratio falls while h is negative and rises once it is positive. h changes sign
once on ``[tau_b, search_ceiling]``, where tau_b is the budget threshold (0
when the budget is vacuous), and each root is found by Newton's method
(:func:`_newton`), within ``tol / 10`` of the crossing, or within one float
spacing of it when that spacing is wider:

- the budget threshold: the epoch mean at the budget ``B``, on
  ``[max(0, B(1-r) - k/rate), B(1-r)]``, since ``E[max(tau, Y)]`` lies in
  ``[tau, tau + k/rate]`` for a round Y. The epoch mean is convex and
  increasing in tau, with slope ``P(k, rate tau) / (1 - r)``, so the iterates
  started at the upper end fall monotonically onto the crossing;
- the optimum: where ``h(tau_b) >= 0`` the ratio rises from tau_b on, so tau_b
  is the optimum, and a binding solve makes one response evaluation.
  Otherwise it is the root of h on ``[tau_b, search_ceiling]``, started where
  the delivering response ``sum v (1 - lap exp(-2 theta tau))`` meets the
  ratio at tau_b. That response needs no table and lies at or below the
  response, so its crossing, itself a Newton root from tau_b, lies at or above
  the optimum. Where it stays below that ratio up to the search ceiling, the
  iteration starts at the ceiling, and a root there is an error.

In both, a halving step replaces any step that would leave the bracket or
that a slope of 0 or less would make.

One Poisson table per threshold serves the epoch mean, its slope and the
round transform: the law's round (``series.ErlangRound``) keeps each
threshold's wait and transform, and the law keeps its ratio, so no threshold
is evaluated twice in one solve. The response and its slope are one formula
(:func:`_response`), which reads no table with feedback; h and its slope
(:func:`_first_order`) are read off it and the ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from . import series
from .types import _NONNEGATIVE, ConvergenceError, InvalidConfig, Scheme, SolveResult
from .types import SystemConfig, _real, _systemconfig

# A step of beta cannot be resolved below one float spacing of beta, which is
# at most the variance bound; a tolerance under a few spacings of that bound
# could never be met by the stopping rule.
TOL_ULPS = 4
# Steps of a Newton iteration, past any float bracket's one-spacing stop.
MAX_STEPS = 200


@dataclass
class _Law:
    """An epoch's service law and the per-process constants the solver reuses.

    The fields after ``lap`` follow from those before it, so laws compare by
    the first six alone. Every solve builds one, so it is not frozen, which
    would set each field through ``object.__setattr__``.
    """

    k: int  # shape of one round's Erlang service
    rate: float  # rate of one round's Erlang service
    r: float  # probability that a round ends without a delivery
    var: Tuple[float, ...]  # stationary variances
    two_theta: Tuple[float, ...]
    lap: Tuple[float, ...]  # mu / (mu + 2 theta)
    round: series.ErlangRound = field(compare=False)  # wait and transform L by threshold
    ratios: Dict[float, float] = field(default_factory=dict, compare=False)  # sum MSE by threshold


def _law(
    cfg: SystemConfig, scheme: Scheme, var: Optional[Tuple[float, ...]] = None
) -> _Law:
    """The only place the scheme enters: the law of one epoch's service.

    An epoch is a geometric(1 - r) number of rounds, each served by an
    Erlang(k, rate) law. With feedback the retries absorb the erasures into
    the rate, mu (1 - eps), so the one round always delivers (r = 0); without
    feedback every round is Erlang(k, mu) and delivers with probability 1 - eps.
    Raises :class:`InvalidConfig` where ``mu + 2 theta`` overflows, which would
    read that process's transforms as 0. ``var`` passes in the stationary
    variances where the caller already has them.
    """
    if not isinstance(scheme, Scheme):
        raise InvalidConfig(f"scheme must be a Scheme, got {scheme!r}")
    if scheme is Scheme.MAF_FEEDBACK:
        rate, r = cfg.mu * (1.0 - cfg.eps), 0.0
    else:
        rate, r = cfg.mu, cfg.eps
    procs, mu = cfg.processes, cfg.mu
    # List comprehensions, which build these tuples faster than generators.
    two_theta = tuple([2.0 * p.theta for p in procs])
    if mu + max(two_theta) == math.inf:
        theta = max([p.theta for p in procs])
        raise InvalidConfig(f"mu={mu!r} plus twice the largest theta {theta!r} is past the float range")
    return _Law(
        k=cfg.k,
        rate=rate,
        r=r,
        var=tuple(p.stationary_variance for p in procs) if var is None else var,
        two_theta=two_theta,
        lap=tuple([mu / (mu + a) for a in two_theta]),
        round=series.ErlangRound(cfg.k, rate, two_theta),
    )


def _epoch_mean(tau: float, law: _Law) -> float:
    return (law.round.wait(tau)[0] + law.k / law.rate) / (1.0 - law.r)


def epoch_mean(tau: float, cfg: SystemConfig, scheme: Scheme) -> float:
    """Expected epoch length: the wait plus the service it spans, per delivery."""
    return _epoch_mean(_real("tau", tau, _NONNEGATIVE), _law(_systemconfig("cfg", cfg), scheme))


def _transform(tau: float, law: _Law) -> List[float]:
    """Epoch transform E[exp(-2 theta * epoch length)] of every process.

    Over a geometric(1 - r) number of rounds it is ``(1-r) L / (1 - r L)``,
    with L the transform of one round: L itself when every round delivers.
    """
    L = law.round.transform(tau)
    if law.r > 0.0:
        return ((1.0 - law.r) * L / (1.0 - law.r * L)).tolist()
    return L.tolist()


def _round_factors(x: float, law: _Law) -> List[float]:
    """Each process's geometric-round factor ``q = (1-r) / (1 - r L(x))``,
    exactly 1 when every round delivers."""
    if law.r > 0.0:
        return ((1.0 - law.r) / (1.0 - law.r * law.round.transform(x))).tolist()
    return [1.0] * len(law.var)


def _response(x: float, law: _Law) -> Tuple[float, float]:
    """Threshold response ``sum v (1 - lap exp(-2 theta x) q^2)``, increasing
    in x, and its slope; the response meets the ratio at the optimum.

    A process's term has slope ``v lap e a q^2 (1 + 2 q r e P(k, rate x) / (1-r))``
    with ``e = exp(-a x)``, ``a = 2 theta``, since L falls with slope
    ``-a e P(k, rate x)``. With feedback r = 0, so no table is read.
    """
    s = 2.0 * law.r * law.round.wait(x)[1] / (1.0 - law.r) if law.r > 0.0 else 0.0
    value = slope = 0.0
    for v, lap, a, q in zip(law.var, law.lap, law.two_theta, _round_factors(x, law)):
        e = math.exp(-a * x)
        term = lap * e * (q * q)
        value += v * (1.0 - term)
        slope += v * term * a * (1.0 + q * e * s)
    return value, slope


def _first_order(x: float, law: _Law) -> Tuple[float, float]:
    """The first-order residual ``h = response - ratio`` at x, and its slope.

    With D the epoch mean, the ratio's slope is ``(D'/D) h``, and ``D'/D`` is
    ``P(k, rate x)`` over the round's wait plus mean service. Everything comes
    from the threshold's memoised wait and round transform.
    """
    response, slope = _response(x, law)
    wait, p = law.round.wait(x)
    h = response - _mse(x, law)
    return h, slope - h * p / (wait + law.k / law.rate)


def _delivering_response(x: float, law: _Law) -> Tuple[float, float]:
    """The response with every round delivering, ``sum v (1 - lap exp(-2 theta x))``,
    and its slope. It needs no table, and it lies at or below the response
    since every ``q`` is at most 1."""
    value = slope = 0.0
    for v, lap, a in zip(law.var, law.lap, law.two_theta):
        d = v * lap * math.exp(-a * x)
        value += v - d
        slope += a * d
    return value, slope


def _ratio_terms(tau: float, law: _Law) -> Tuple[float, float]:
    """Expected integrated sum MSE over an epoch, and the expected epoch length."""
    eg = _epoch_mean(tau, law)
    numerator = 0.0
    for v, lap, a, f in zip(law.var, law.lap, law.two_theta, _transform(tau, law)):
        numerator += v * (eg - (lap / a) * (1.0 - f))
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
    return _mse(_real("tau", tau, _NONNEGATIVE), _law(_systemconfig("cfg", cfg), scheme))


def _transient(law: _Law) -> float:
    """The numerator's largest possible drop below ``var * epoch_mean``:
    sum of var lap / (2 theta), reached when every epoch transform is 0."""
    return sum(v * lap / a for v, lap, a in zip(law.var, law.lap, law.two_theta))


def _per(k: int, rate: float) -> float:
    """``k / rate``, or inf where the rate underflowed to 0."""
    return k / rate if rate > 0.0 else math.inf


def _budget(cfg: SystemConfig) -> float:
    """Least admissible expected epoch length, k / ((1-eps) f_max)."""
    return _per(cfg.k, (1.0 - cfg.eps) * cfg.f_max)


def search_ceiling(cfg: SystemConfig) -> float:
    """Threshold search ceiling: past every transform's saturation and the budget.

    Beyond ``50 / min(2 theta) + k / (mu (1 - eps))`` every transform is
    numerically saturated, and ``epoch_mean(tau) >= tau`` for both schemes,
    so the budget threshold lies at or below ``_budget(cfg)``. Doubling it
    keeps a margin that no rounding absorbs, however large the budget. It is
    inf where a term overflows, or where ``mu (1 - eps)`` or ``(1 - eps) f_max``
    underflows to 0; :func:`solve` refuses such a system.
    """
    slowest = 2.0 * min([p.theta for p in cfg.processes])
    saturated = 50.0 / slowest + _per(cfg.k, cfg.mu * (1.0 - cfg.eps))
    return max(saturated, 2.0 * _budget(cfg))


def _newton(
    f: Callable[[float], Tuple[float, float]],
    target: float,
    hi: float,
    tol: float,
    *,
    lo: float,
    start: Optional[float] = None,
) -> float:
    """Find where ``f`` crosses ``target`` on ``[lo, hi]`` by Newton's method
    from ``start``, which defaults to ``hi``. ``f`` returns its value and its
    slope, and lies below ``target`` before the crossing and above it after.

    Every evaluation moves an end of the bracket ``[lo, hi]`` to the point
    evaluated, by the sign of its excess. A step that would leave that
    bracket, or that a slope of 0 or less would make, is replaced by a halving
    step. The iteration stops once a step is at most ``tol`` or one float
    spacing and returns the point it reached: a halving step that short
    leaves the crossing within it, and at a simple root so does a Newton step,
    whose error is quadratic in its length. At a flat zero it is not: for
    ``f = x^3`` on ``[0, 1]``, target 1e-12 and tol 1e-3 it returns 1.7e-3 from
    ``lo`` and 1.5e-3 from ``hi``, against a root at 1e-4. h has a simple root
    at the optimum; the budget threshold meets a flat zero only when f_max is
    within rounding of mu. For a convex ``f`` the tangent lies below it, so
    from above the crossing each Newton step lands at or above the crossing
    again, and the iterates fall monotonically onto it.
    """
    t = hi if start is None else start
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
            # Halved apart: 0.5 * (lo + hi) overflows past half the float
            # range, and has these bits wherever it does not and no half is
            # subnormal.
            nxt = 0.5 * lo + 0.5 * hi
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
        lambda t: (_epoch_mean(t, law), law.round.wait(t)[1] / (1.0 - law.r)),
        budget, top, tol, lo=lo,
    )


def solve(cfg: SystemConfig, scheme: Scheme, tol: float = 1e-9) -> SolveResult:
    """Optimal threshold and minimum sum MSE of ``scheme``: the budget threshold,
    or the sign change of ``h = response - ratio`` above it (see the module
    docstring).

    The threshold lies within ``tol / 10`` of the crossing, or within one float
    spacing of it when that spacing is wider, and the returned beta is the ratio
    at the returned threshold. Raises :class:`InvalidConfig` for a tolerance
    that is not a real number at or above float resolution, for a system whose
    search ceiling (:func:`search_ceiling`) or ``mu + 2 theta`` is not a finite
    float, or when the optimum reaches the search ceiling because no threshold
    lowers the ratio by ``TOL_ULPS`` float spacings of the variance bound (as
    at eps = 1 - 1e-15 with k = 64), or when the ratio at the returned
    threshold is not finite, as where the variance bound times the epoch mean
    overflows; and :class:`ConvergenceError` when beta exceeds the ratio at
    the budget threshold by more than both ``tol`` and the ratio's rounding
    bound (see :class:`SolveResult`), a Newton iteration does not settle in
    ``MAX_STEPS`` steps, or the optimum otherwise reaches the search ceiling.
    """
    return _solve(cfg, scheme, tol)[0]


def _solve(cfg: SystemConfig, scheme: Scheme, tol: float = 1e-9) -> Tuple[SolveResult, _Law]:
    """:func:`solve`, and the law it evaluated, whose memos later ratios reuse."""
    cfg, tol = _systemconfig("cfg", cfg), _real("tol", tol)
    # Each variance once, for the tol guard ahead of any series work and for the law.
    var = tuple([p.stationary_variance for p in cfg.processes])
    beta_hi = sum(var)
    min_tol = TOL_ULPS * math.ulp(beta_hi)
    if not tol >= min_tol:
        raise InvalidConfig(
            f"tol must be finite and at least {min_tol:.3g}, {TOL_ULPS} float spacings "
            f"of the variance bound {beta_hi:.6g}; got {tol}"
        )
    law = _law(cfg, scheme, var)
    ceiling = search_ceiling(cfg)
    if ceiling == math.inf:
        raise InvalidConfig(
            f"k={cfg.k}, mu={cfg.mu!r}, eps={cfg.eps!r}, f_max={cfg.f_max!r} and smallest "
            f"theta {min([p.theta for p in cfg.processes])!r} put the threshold search "
            f"ceiling past the float range"
        )
    inner_tol = tol / 10.0

    tau_b = _budget_threshold(cfg, law, inner_tol) if cfg.f_max < cfg.mu else 0.0

    beta_b = _mse(tau_b, law)
    if _response(tau_b, law)[0] >= beta_b:
        # The ratio rises from tau_b on: the budget threshold, or zero wait.
        tau = tau_b
    else:
        start = ceiling
        if _delivering_response(ceiling, law)[0] >= beta_b:
            start = _newton(
                lambda x: _delivering_response(x, law), beta_b, ceiling, inner_tol,
                lo=tau_b, start=tau_b,
            )
        tau = _newton(
            lambda x: _first_order(x, law), 0.0, ceiling, inner_tol, lo=tau_b, start=start
        )
    beta = _mse(tau, law)
    rise = beta - beta_b
    # No threshold above tau_b has a larger ratio, up to the ratio's own
    # rounding: a few float spacings of the numerator's largest term per
    # process, over the epoch mean.
    if rise > tol and rise > TOL_ULPS * law.k * math.ulp(_transient(law)) / _epoch_mean(tau, law):
        raise ConvergenceError(f"the solve raised beta by {rise} above its budget-threshold value")
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
    if not math.isfinite(beta):
        raise InvalidConfig(
            f"the sum MSE at the threshold tau={tau!r} is {beta!r}: its integral over an "
            f"epoch, up to the variance bound {beta_hi:.6g} times the epoch's length, overflows"
        )
    return SolveResult(
        tau_star=tau,
        beta_star=beta,
        binding=tau_b > 0.0 and tau == tau_b,
        outer_iters=len(law.ratios),
        achieved_tol=0.0 if tau == tau_b else abs(_response(tau, law)[0] - beta),
    ), law


def solve_maf(cfg: SystemConfig, tol: float = 1e-9) -> SolveResult:
    """:func:`solve` for the feedback scheme."""
    return solve(cfg, Scheme.MAF_FEEDBACK, tol)


def solve_rr(cfg: SystemConfig, tol: float = 1e-9) -> SolveResult:
    """:func:`solve` for the no-feedback scheme."""
    return solve(cfg, Scheme.RR_NO_FEEDBACK, tol)
