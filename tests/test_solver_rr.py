"""No-feedback solver: fixed points, constant binding branch, erasure behavior."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

import ouwait.threshold as threshold
from ouwait import (
    ConvergenceError,
    InvalidConfig,
    ProcessParams,
    Scheme,
    SystemConfig,
    mse_at_tau,
    solve,
    solve_maf,
    solve_rr,
)

from round_terms import expected_wait

TOL = 1e-9
MAF, RR = Scheme.MAF_FEEDBACK, Scheme.RR_NO_FEEDBACK


def test_zero_threshold_anchor(single_process_cfg):
    assert mse_at_tau(0.0, single_process_cfg, RR) == pytest.approx(0.75, abs=1e-12)


def test_matches_feedback_scheme_without_erasures(two_process_cfg):
    cfg = replace(two_process_cfg, eps=0.0)
    for tau in (0.0, 0.4, 1.1, 3.0):
        assert mse_at_tau(tau, cfg, RR) == mse_at_tau(tau, cfg, MAF)


def test_mse_saturates(two_process_cfg):
    sat = two_process_cfg.total_stationary_variance
    assert mse_at_tau(1e7, two_process_cfg, RR) == pytest.approx(sat, rel=1e-6)


def test_self_consistency_first_order_local_opt(two_process_cfg):
    res = solve_rr(two_process_cfg, tol=TOL)
    assert res.beta_star == pytest.approx(mse_at_tau(res.tau_star, two_process_cfg, RR),
                                          abs=10 * TOL)
    assert not res.binding
    law = threshold._law(two_process_cfg, RR)
    assert threshold._response(res.tau_star, law)[0] == pytest.approx(res.beta_star, abs=10 * TOL)
    for delta in (1e-3, 1e-2):
        for tau in (res.tau_star - delta, res.tau_star + delta):
            assert mse_at_tau(tau, two_process_cfg, RR) >= res.beta_star - 10 * TOL


def test_binding_threshold_constant_in_erasure_rate(two_process_cfg):
    taus = []
    for eps in (0.0, 0.1, 0.3, 0.5, 0.7):
        cfg = replace(two_process_cfg, f_max=0.5, eps=eps)
        res = solve_rr(cfg, tol=TOL)
        assert res.binding
        taus.append(res.tau_star)
    assert max(taus) - min(taus) <= 1e-9
    target = two_process_cfg.k / 0.5 - two_process_cfg.k / two_process_cfg.mu
    ref = brentq(
        lambda t: expected_wait(t, two_process_cfg.k, two_process_cfg.mu) - target, 0.0, 200.0,
        xtol=1e-11,
    )
    assert taus[0] == pytest.approx(ref, abs=1e-6)


def test_threshold_nonincreasing_in_erasure_rate(two_process_cfg):
    taus = [
        solve_rr(replace(two_process_cfg, eps=e)).tau_star
        for e in np.arange(0.0, 0.901, 0.05)
    ]
    assert all(b <= a + 1e-9 for a, b in zip(taus, taus[1:]))


def test_zero_wait_regime_at_high_erasure(two_process_cfg):
    res = solve_rr(replace(two_process_cfg, eps=0.8))
    assert res.tau_star <= 1e-6
    assert res.beta_star == pytest.approx(
        mse_at_tau(0.0, replace(two_process_cfg, eps=0.8), RR), abs=1e-7
    )


def test_saturation_onset_near_unit_budget(two_process_cfg):
    # With the budget just under the service rate the unconstrained threshold
    # decays with the erasure rate until the constraint pins it.
    cfg95 = replace(two_process_cfg, f_max=0.95)
    onset = None
    for eps in np.arange(0.0, 0.51, 0.05):
        res = solve_rr(replace(cfg95, eps=eps))
        if res.binding:
            onset = eps
            break
    assert onset is not None and 0.1 <= onset <= 0.3
    target = 2 / 0.95 - 2.0
    ref = brentq(lambda t: expected_wait(t, 2, 1.0) - target, 0.0, 100.0, xtol=1e-11)
    assert solve_rr(replace(cfg95, eps=0.5)).tau_star == pytest.approx(ref, abs=1e-6)


def test_coincides_with_feedback_solver_without_erasures(two_process_cfg):
    rng = np.random.default_rng(1234)
    for _ in range(20):
        k = int(rng.integers(1, 5))
        procs = tuple(
            ProcessParams(theta=float(rng.uniform(0.1, 1.0)),
                          sigma_sq=float(rng.uniform(0.5, 2.0)))
            for _ in range(k)
        )
        cfg = SystemConfig(
            k=k,
            f_max=float(rng.uniform(0.3, 2.0)),
            mu=float(rng.uniform(0.5, 2.0)),
            eps=0.0,
            processes=procs,
        )
        assert solve_maf(cfg, tol=TOL) == solve_rr(cfg, tol=TOL)


@pytest.mark.parametrize("f_max", [1.5, 0.5], ids=["interior", "binding"])
@pytest.mark.parametrize("scheme", [MAF, RR])
def test_optimum_at_search_ceiling_is_an_error(two_process_cfg, monkeypatch, scheme, f_max):
    # Both optima (tau* 1.6317 and 0.694) and both budget thresholds lie above
    # this ceiling, which must not clamp silently.
    monkeypatch.setattr(threshold, "search_ceiling", lambda cfg: 0.5)
    with pytest.raises(ConvergenceError, match="search ceiling 0.5"):
        solve(replace(two_process_cfg, f_max=f_max), scheme)


def test_tolerance_below_float_resolution_rejected_up_front(two_process_cfg, monkeypatch):
    cfg = replace(two_process_cfg, f_max=0.5)
    # A tolerance a few float spacings above the variance bound still solves.
    assert solve_rr(cfg, tol=1e-14).binding
    # Any series evaluation would raise AttributeError instead.
    monkeypatch.setattr(threshold, "series", None)
    with pytest.raises(InvalidConfig, match="tol"):
        solve_rr(cfg, tol=1e-20)


@pytest.mark.parametrize("scheme", [MAF, RR])
@pytest.mark.parametrize("f_max, eps", [(1.5, 0.3), (0.5, 0.3), (1.5, 0.7)],
                         ids=["interior", "binding", "zero-wait"])
def test_beta_is_the_value_of_the_returned_threshold(two_process_cfg, scheme, f_max, eps):
    cfg = replace(two_process_cfg, f_max=f_max, eps=eps)
    res = solve(cfg, scheme, tol=TOL)
    assert res.beta_star == mse_at_tau(res.tau_star, cfg, scheme)


@pytest.mark.parametrize("f_max, max_calls", [(0.5, 1), (1.5, 20)])
def test_brent_inversions_pin_cycle_transform_calls(two_process_cfg, rounds, f_max, max_calls):
    # Halving the threshold bracket took 46 and 136 calls here, Brent's
    # method on [0, search_ceiling] 14 and 29, and Newton's method on the
    # first-order residual takes 1 and 8. The binding solve stops at the
    # budget threshold, whose transform the first ratio has already taken.
    solve_rr(replace(two_process_cfg, f_max=f_max), tol=TOL)
    (law_round,) = rounds
    calls = law_round.computed
    assert 0 < len(calls) <= max_calls
    # Each threshold's round transform is computed once per solve.
    assert len(set(calls)) == len(calls)


def test_optimum_within_the_ratios_rounding_of_the_exact_one():
    # The variance bound is 4e4, so the ratio carries rounding of a few 1e-9,
    # more than tol. The optimum of the 50-digit ratio (mpmath, k = 1, one
    # exponential round) is tau* = 2.2177882827038765e-4 with beta* =
    # 79.875733087418991: beta must lie within the ratio's rounding bound of
    # it, tau within that bound over the response's slope there (about 80),
    # and the first-order residual within the bound.
    cfg = SystemConfig(k=1, f_max=20.0, mu=3.0, eps=0.5, processes=(ProcessParams(0.001, 80.0),))
    res = solve_rr(cfg)
    assert not res.binding
    law = threshold._law(cfg, RR)
    noise = (threshold.TOL_ULPS * cfg.k * np.spacing(threshold._transient(law))
             / threshold._epoch_mean(res.tau_star, law))
    assert abs(res.beta_star - 79.875733087418991) <= noise
    assert abs(res.tau_star - 2.2177882827038765e-4) <= noise / 80.0
    assert res.achieved_tol <= noise
