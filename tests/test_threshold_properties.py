"""Solver invariants over randomly drawn systems, for both schemes."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ouwait import ProcessParams, Scheme, SystemConfig, epoch_mean, mse_at_tau, solve
from ouwait.threshold import _invert, search_ceiling

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


@st.composite
def inversions(draw):
    """A nondecreasing function on [0, hi], a target it crosses, and a tolerance."""
    kind = draw(st.sampled_from(["linear", "cubic", "saturating", "plateau"]))
    hi = draw(st.floats(0.1, 1000.0))
    root = hi * draw(st.floats(1e-4, 1.0, exclude_max=True))
    tol = hi * 10.0 ** draw(st.floats(-15.0, -3.0))
    scale = draw(st.floats(0.01, 100.0))
    if kind == "linear":
        f = lambda x: scale * x
    elif kind == "cubic":
        f = lambda x: scale * x**3
    elif kind == "saturating":
        # Saturated over most of a bracket 100 times wider than the root.
        root = hi / 100.0
        rate = draw(st.floats(0.1, 10.0)) / root
        f = lambda x: scale * (1.0 - math.exp(-rate * x))
    else:
        start = hi * draw(st.floats(0.0, 0.9))
        width = hi * draw(st.floats(0.0, 0.5))
        f = lambda x: scale * (min(x, start) + max(x - start - width, 0.0))
    return f, f(root), hi, tol


@settings(PROPERTY_SETTINGS, max_examples=400)
@given(case=inversions())
def test_inversion_meets_its_stopping_rule_in_few_evaluations(case):
    f, target, hi, tol = case
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    x = _invert(counted, target, hi, tol)
    # The crossing lies within tol of x, or within x's own float spacing.
    lo = max(0.0, math.nextafter(x - tol, -math.inf))
    up = min(hi, math.nextafter(x + tol, math.inf))
    assert f(lo) <= target <= f(up)
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

    x = _invert(counted, target, hi, tol, lo=lo)
    assert calls.count(lo) <= 1 and calls.count(hi) <= 1
    if f(lo) >= target or lo == hi:
        assert x == lo
    elif f(hi) <= target:
        assert x == hi
    else:
        # The crossing lies within tol of x, or within x's own float spacing.
        down = max(lo, math.nextafter(x - tol, -math.inf))
        up = min(hi, math.nextafter(x + tol, math.inf))
        assert lo <= x <= hi and f(down) <= target <= f(up)
    halvings = math.ceil(math.log2(hi / tol)) + 2
    assert len(calls) <= 2 * halvings
