"""Solver invariants over randomly drawn systems, for both schemes."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ouwait import ProcessParams, Scheme, SystemConfig, mse_at_tau, solve
from ouwait.threshold import search_ceiling

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


@settings(PROPERTY_SETTINGS, max_examples=10)
@given(cfg=systems())
def test_schemes_agree_without_erasures(cfg):
    cfg = replace(cfg, eps=0.0)
    assert solve(cfg, Scheme.MAF_FEEDBACK, tol=TOL) == solve(cfg, Scheme.RR_NO_FEEDBACK, tol=TOL)
