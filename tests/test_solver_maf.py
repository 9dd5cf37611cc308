"""Feedback-scheme solver: fixed points, constraint branch, monotonicity."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import brentq

import ouwait
import ouwait.threshold as threshold
from ouwait import (
    ConvergenceError,
    InvalidConfig,
    ProcessParams,
    SystemConfig,
    Scheme,
    epoch_mean,
    mse_at_tau,
    solve_maf,
)

from event_oracle import run_epoch_maf
from round_terms import expected_wait

TOL = 1e-9
MAF = Scheme.MAF_FEEDBACK


def test_zero_threshold_anchor(single_process_cfg):
    # Hand evaluation: unit stationary variance, E[epoch]=1, both transforms 1/2.
    assert mse_at_tau(0.0, single_process_cfg, MAF) == pytest.approx(0.75, abs=1e-12)


def test_mse_saturates(two_process_cfg):
    # Saturation is O(1/tau): probe far out and check the gap shrinks.
    sat = two_process_cfg.total_stationary_variance
    assert mse_at_tau(1e7, two_process_cfg, MAF) == pytest.approx(sat, rel=1e-6)
    assert (sat - mse_at_tau(2000.0, two_process_cfg, MAF)
            > sat - mse_at_tau(1e7, two_process_cfg, MAF))


def test_self_consistency_and_first_order(two_process_cfg):
    res = solve_maf(two_process_cfg, tol=TOL)
    assert res.beta_star == pytest.approx(mse_at_tau(res.tau_star, two_process_cfg, MAF),
                                          abs=10 * TOL)
    assert not res.binding
    # Unconstrained optimum sits where the threshold response meets the value.
    law = threshold._law(two_process_cfg, MAF)
    assert threshold._response(res.tau_star, law)[0] == pytest.approx(res.beta_star, abs=10 * TOL)
    assert res.achieved_tol <= TOL
    assert 0 <= res.beta_star <= two_process_cfg.total_stationary_variance


def test_local_optimality(two_process_cfg):
    res = solve_maf(two_process_cfg, tol=TOL)
    for delta in (1e-3, 1e-2):
        for tau in (res.tau_star - delta, res.tau_star + delta):
            assert mse_at_tau(tau, two_process_cfg, MAF) >= res.beta_star - 10 * TOL


def test_constraint_inactive_when_budget_exceeds_service_rate(two_process_cfg):
    from dataclasses import replace

    for eps in (0.0, 0.2, 0.5, 0.8):
        cfg = replace(two_process_cfg, f_max=1.2, eps=eps)
        assert not solve_maf(cfg).binding


def test_budget_within_rounding_of_service_rate_is_met_at_zero_wait(monkeypatch):
    # One float spacing under mu, the budget is one that zero wait already
    # meets: the budget threshold is 0, found with no Newton step, and the
    # solve is the one at f_max = mu.
    from dataclasses import replace

    procs = (ProcessParams(0.5, 1.0),) * 5
    cfg = SystemConfig(k=5, f_max=math.nextafter(1.3, 0.0), mu=1.3, eps=0.3, processes=procs)
    with monkeypatch.context() as patch:
        patch.setattr(threshold, "_newton", None)
        assert threshold._budget_threshold(cfg, threshold._law(cfg, MAF), TOL) == 0.0
    assert solve_maf(cfg) == solve_maf(replace(cfg, f_max=1.3))


def test_binding_threshold_solves_wait_equation(two_process_cfg):
    from dataclasses import replace

    for eps in (0.0, 0.3, 0.6):
        cfg = replace(two_process_cfg, f_max=0.5, eps=eps)
        res = solve_maf(cfg, tol=TOL)
        assert res.binding
        target = (cfg.k / cfg.f_max - cfg.k / cfg.mu) / (1 - eps)
        rate = cfg.mu * (1 - eps)
        ref = brentq(lambda t: expected_wait(t, cfg.k, rate) - target, 0.0, 400.0, xtol=1e-11)
        assert res.tau_star == pytest.approx(ref, abs=1e-6)
        # At the binding threshold the realized sampling rate meets the budget.
        eg = epoch_mean(res.tau_star, cfg, MAF)
        assert eg * (1 - eps) == pytest.approx(cfg.k / cfg.f_max, abs=1e-6)


def test_threshold_nondecreasing_in_erasure_rate(two_process_cfg):
    from dataclasses import replace

    for fmax in (0.5, 0.95, 1.5):
        taus = [
            solve_maf(replace(two_process_cfg, f_max=fmax, eps=e)).tau_star
            for e in np.arange(0.0, 0.901, 0.05)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(taus, taus[1:]))


def test_beta_increases_with_erasure_rate(two_process_cfg):
    from dataclasses import replace

    betas = [
        solve_maf(replace(two_process_cfg, eps=e)).beta_star for e in (0.0, 0.2, 0.4, 0.6)
    ]
    assert all(b > a for a, b in zip(betas, betas[1:]))


def test_optimal_wait_rule(two_process_cfg):
    rng = np.random.default_rng(0)

    def optimal_wait(z, tau):
        return run_epoch_maf(rng, two_process_cfg, tau=tau, prev_total_service=z).wait

    assert optimal_wait(5.0, 2.0) == 0.0
    assert optimal_wait(0.0, 2.0) == 2.0
    assert optimal_wait(1.0, 2.0) == 1.0
    with pytest.raises(InvalidConfig):
        optimal_wait(-0.1, 2.0)


def test_degenerate_configs_rejected():
    with pytest.raises(InvalidConfig):
        SystemConfig(k=0, f_max=1.0, mu=1.0, eps=0.0, processes=())
    with pytest.raises(InvalidConfig):
        SystemConfig(k=1, f_max=1.0, mu=1.0, eps=1.0,
                     processes=(ProcessParams(0.5, 1.0),))
    with pytest.raises(InvalidConfig):
        SystemConfig(k=2, f_max=1.0, mu=1.0, eps=0.0,
                     processes=(ProcessParams(0.5, 1.0),))


@pytest.mark.parametrize("k", [2.0, 1.5, "2"])
def test_non_integer_k_rejected(k):
    # A float k once passed, and the solve failed inside numpy.
    with pytest.raises(InvalidConfig, match="k must be an integer"):
        SystemConfig(k=k, f_max=1.5, mu=1.0, eps=0.3, processes=(ProcessParams(0.5, 1.0),) * 2)


def test_invalid_tolerances(two_process_cfg):
    with pytest.raises(InvalidConfig):
        solve_maf(two_process_cfg, tol=0.0)


@pytest.mark.parametrize("bad", ["maf", "rr", None])
@pytest.mark.parametrize(
    "call",
    [
        lambda cfg, s: ouwait.solve(cfg, s),
        lambda cfg, s: mse_at_tau(1.0, cfg, s),
        lambda cfg, s: epoch_mean(1.0, cfg, s),
        lambda cfg, s: ouwait.ThresholdPolicy(s, 0.7),
    ],
    ids=["solve", "mse_at_tau", "epoch_mean", "ThresholdPolicy"],
)
def test_scheme_must_be_a_scheme(two_process_cfg, call, bad):
    # A scheme's value is rejected, neither coerced nor read as the other scheme.
    with pytest.raises(InvalidConfig, match="scheme must be a Scheme"):
        call(two_process_cfg, bad)


def test_tolerance_below_float_resolution_rejected_up_front(two_process_cfg, monkeypatch):
    # Any series evaluation would raise AttributeError instead.
    monkeypatch.setattr(threshold, "series", None)
    with pytest.raises(InvalidConfig, match="tol"):
        solve_maf(two_process_cfg, tol=1e-20)


def test_convergence_guards(two_process_cfg, monkeypatch):
    # The interior optimum takes several Newton steps, so one is too few.
    monkeypatch.setattr(threshold, "MAX_STEPS", 1)
    with pytest.raises(ConvergenceError, match="settle"):
        solve_maf(two_process_cfg, tol=TOL)
    monkeypatch.undo()
    # Each ratio evaluation sits 0.5 above the last one's offset: beta rises.
    real, calls = threshold._ratio_terms, []

    def rising(tau, law):
        calls.append(tau)
        numerator, eg = real(tau, law)
        return numerator + 0.5 * len(calls) * eg, eg

    monkeypatch.setattr(threshold, "_ratio_terms", rising)
    with pytest.raises(ConvergenceError, match="raised beta"):
        solve_maf(two_process_cfg, tol=TOL)


def test_import_and_solve_load_no_root_finder():
    # scipy.optimize adds about 0.2 s to a fresh process's import and first solve.
    src = os.path.dirname(os.path.dirname(ouwait.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import ouwait as w; "
        "cfg = w.SystemConfig(k=2, f_max=0.5, mu=1.0, eps=0.3, processes="
        "(w.ProcessParams(0.1, 1.0), w.ProcessParams(0.5, 2.0))); "
        "w.solve_maf(cfg); w.solve_rr(cfg); "
        "sys.exit('scipy.optimize' in sys.modules)"
    )
    assert subprocess.run([sys.executable, "-c", code], timeout=120).returncode == 0


def test_runtime_loads_no_scipy(tmp_path):
    # Importing scipy.special alone took about two thirds of a fresh process's
    # import and first solve; the package needs numpy only.
    src = os.path.dirname(os.path.dirname(ouwait.__file__))
    trace = os.fspath(tmp_path / "trace.tsv")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import ouwait as w; "
        "from ouwait import cli; "
        "cfg = w.SystemConfig(k=2, f_max=0.5, mu=1.0, eps=0.3, processes="
        "(w.ProcessParams(0.1, 1.0), w.ProcessParams(0.5, 2.0))); "
        "w.solve_maf(cfg); w.solve_rr(cfg); "
        "w.simulate(cfg, w.ThresholdPolicy(w.Scheme.MAF_FEEDBACK, 1.0), n_epochs=2000, "
        f"seed=1, burn_in=100, track_ou=True, trace_path={trace!r}); "
        "rc = cli.main(['solve', '--scheme', 'maf', '--k', '2', '--mu', '1.0', '--eps', "
        "'0.3', '--fmax', '1.5', '--theta', '0.1,0.5', '--sigma-sq', '1.0,2.0']); "
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')); "
        "sys.exit(rc or (f'{len(loaded)} scipy modules loaded, first {loaded[:3]}' if loaded else 0))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "tau_star=" in out.stdout and os.path.getsize(trace) > 0
