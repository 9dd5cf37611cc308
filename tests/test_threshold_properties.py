"""Solver invariants over randomly drawn systems, for both schemes."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ouwait import ProcessParams, Scheme, SystemConfig, epoch_mean, mse_at_tau, solve
import ouwait.threshold as threshold
from ouwait.threshold import _newton, search_ceiling

TOL = 1e-9
# Deterministic draws keep the suite reproducible; few examples keep it quick.
PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def systems(draw) -> SystemConfig:
    k = draw(st.integers(1, 4))
    processes = tuple(
        ProcessParams(theta=draw(st.floats(0.05, 2.0)), sigma_sq=draw(st.floats(0.5, 2.0)))
        for _ in range(k)
    )
    return SystemConfig(
        k=k,
        f_max=draw(st.floats(0.2, 2.0)),
        mu=draw(st.floats(0.5, 2.0)),
        eps=draw(st.floats(0.0, 0.8)),
        processes=processes,
    )


@PROPERTY_SETTINGS
@given(cfg=systems())
@pytest.mark.parametrize("scheme", list(Scheme))
def test_solution_invariants(cfg, scheme):
    res = solve(cfg, scheme, tol=TOL)
    assert 0.0 <= res.tau_star < search_ceiling(cfg)
    assert res.beta_star <= cfg.total_stationary_variance
    assert res.beta_star == mse_at_tau(res.tau_star, cfg, scheme)
    if not res.binding:
        assert res.beta_star <= mse_at_tau(0.0, cfg, scheme) + 10 * TOL


@settings(PROPERTY_SETTINGS, max_examples=10)
@given(cfg=systems())
@pytest.mark.parametrize("scheme", list(Scheme))
def test_budget_at_service_rate_never_binds(cfg, scheme):
    assert not solve(replace(cfg, f_max=cfg.mu), scheme, tol=TOL).binding


@PROPERTY_SETTINGS
@given(cfg=systems())
@pytest.mark.parametrize("scheme", list(Scheme))
def test_search_ceiling_meets_the_budget(cfg, scheme):
    # So the budget inversion always has its crossing inside [0, search_ceiling].
    budget = cfg.k / ((1.0 - cfg.eps) * cfg.f_max)
    assert epoch_mean(search_ceiling(cfg), cfg, scheme) > budget


@settings(PROPERTY_SETTINGS, max_examples=10)
@given(cfg=systems())
def test_schemes_agree_without_erasures(cfg):
    cfg = replace(cfg, eps=0.0)
    assert solve(cfg, Scheme.MAF_FEEDBACK, tol=TOL) == solve(cfg, Scheme.RR_NO_FEEDBACK, tol=TOL)


@settings(PROPERTY_SETTINGS, max_examples=50)
@given(cfg=systems())
@pytest.mark.parametrize("scheme", list(Scheme))
def test_optimum_is_the_sign_change_of_the_first_order_residual(cfg, scheme):
    # h = response - ratio changes sign at tau*, and the solve binds exactly
    # when h is already nonnegative at a positive budget threshold.
    res, law = threshold._solve(cfg, scheme, TOL)
    tau_b = threshold._budget_threshold(cfg, law, TOL / 10) if cfg.f_max < cfg.mu else 0.0

    def h(x):
        return threshold._response(x, law)[0] - threshold._mse(x, law)

    assert res.binding == (tau_b > 0.0 and h(tau_b) >= 0.0)
    if res.tau_star > tau_b:
        # The ratio's rounding bound, as the solve's own guard reads it.
        noise = (threshold.TOL_ULPS * cfg.k * math.ulp(threshold._transient(law))
                 / threshold._epoch_mean(res.tau_star, law))
        assert h(max(0.0, res.tau_star - TOL / 10)) <= noise
        assert h(res.tau_star + TOL / 10) >= -noise


SLOPE_PROCS = (ProcessParams(0.1, 1.0), ProcessParams(0.5, 2.0), ProcessParams(1.3, 0.5))


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("eps", [0.0, 0.3, 0.7])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_response_and_first_order_slopes_match_central_differences(scheme, eps, k):
    # The slopes Newton's method steps on, against the five-point central
    # difference of the values they belong to; its error is O(d^4), about 1e-9
    # relative at this step, where h' passes near 0 past the optimum.
    cfg = SystemConfig(k=k, f_max=1.5, mu=1.0, eps=eps, processes=SLOPE_PROCS[:k])
    law = threshold._law(cfg, scheme)
    for x in np.linspace(0.05, 6.0, 60):
        d = 1e-3 * x
        for f in (threshold._response, threshold._first_order):
            g = [f(x + i * d, law)[0] for i in (-2, -1, 1, 2)]
            central = (8.0 * (g[2] - g[1]) - (g[3] - g[0])) / (12.0 * d)
            assert f(x, law)[1] == pytest.approx(central, rel=1e-6), (f.__name__, x)


@st.composite
def inversions(draw):
    """A nondecreasing function on [0, hi] that returns its slope, a target it
    crosses, and a tolerance."""
    kind = draw(st.sampled_from(["linear", "cubic", "saturating", "plateau"]))
    hi = draw(st.floats(0.1, 1000.0))
    root = hi * draw(st.floats(1e-4, 1.0, exclude_max=True))
    tol = hi * 10.0 ** draw(st.floats(-15.0, -3.0))
    scale = draw(st.floats(0.01, 100.0))
    if kind == "linear":
        f = lambda x: (scale * x, scale)
    elif kind == "cubic":
        f = lambda x: (scale * x**3, 3.0 * scale * x * x)
    elif kind == "saturating":
        # Saturated over most of a bracket 100 times wider than the root.
        root = hi / 100.0
        rate = draw(st.floats(0.1, 10.0)) / root
        f = lambda x: (scale * (1.0 - math.exp(-rate * x)), scale * rate * math.exp(-rate * x))
    else:
        start = hi * draw(st.floats(0.0, 0.9))
        width = hi * draw(st.floats(0.0, 0.5))
        f = lambda x: (
            scale * (min(x, start) + max(x - start - width, 0.0)),
            0.0 if start <= x <= start + width else scale,
        )
    return f, f(root)[0], hi, tol


@settings(PROPERTY_SETTINGS, max_examples=400)
@given(case=inversions())
def test_inversion_meets_its_stopping_rule_in_few_evaluations(case):
    f, target, hi, tol = case
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    x = _newton(counted, target, hi, tol, lo=0.0)
    # The crossing lies within tol of x, or within x's own float spacing.
    lo = max(0.0, math.nextafter(x - tol, -math.inf))
    up = min(hi, math.nextafter(x + tol, math.inf))
    assert f(lo)[0] <= target <= f(up)[0]
    halvings = math.ceil(math.log2(hi / tol)) + 2
    assert len(calls) <= 2 * halvings


@settings(PROPERTY_SETTINGS, max_examples=400)
@given(case=inversions(), frac=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
def test_inversion_from_a_lower_bracket_end(case, frac):
    f, target, hi, tol = case
    lo = hi * frac
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    x = _newton(counted, target, hi, tol, lo=lo, start=lo)
    assert calls.count(lo) <= 1 and calls.count(hi) <= 1
    # The crossing lies within tol of x, or within x's own float spacing.
    down = max(lo, math.nextafter(x - tol, -math.inf))
    up = min(hi, math.nextafter(x + tol, math.inf))
    if f(lo)[0] >= target or lo == hi:
        assert x == lo
    elif f(hi)[0] < target:
        assert x <= hi == up
    else:
        assert lo <= x <= hi and f(down)[0] <= target <= f(up)[0]
    halvings = math.ceil(math.log2(hi / tol)) + 2
    assert len(calls) <= 2 * halvings
