"""Acceptance gate: every exit criterion at its pinned tolerance.

Each test prints one pass/fail line. Run with ``pytest -s tests/test_acceptance.py``
to see the lines; the assertions enforce the same conditions either way.

Tolerance notes pinned here:
  - Criterion 2 allows 1% relative plus 3 batch-means standard errors at 1e6
    epochs. The simulator realizes the waiting rule on the physical timeline,
    where the age at a delivery is correlated with the next wait through the
    shared service total; the analytic optimum prices epochs with that
    boundary correlation dropped, which costs up to about one percent at the
    hardest (binding, high-erasure, feedback) corner and far less elsewhere.
  - The wait-splitting equivalence in criterion 10 carries the same
    percent-scale allowance for the same reason.
"""

import math
import numpy as np
from scipy.optimize import brentq

from ouwait import (
    ProcessParams,
    Scheme,
    SystemConfig,
    ThresholdPolicy,
    epoch_mean,
    mse_at_tau,
    simulate,
    solve,
    solve_maf,
    solve_rr,
)
from ouwait.threshold import _law, _response, _transform

from event_oracle import round_arrays
from round_terms import cycle_transform, expected_wait

REF_PROCS = (ProcessParams(0.1, 1.0), ProcessParams(0.5, 2.0))
EPS_GRID = np.arange(0.0, 0.901, 0.05)


def ref_cfg(eps: float, f_max: float) -> SystemConfig:
    return SystemConfig(k=2, f_max=f_max, mu=1.0, eps=eps, processes=REF_PROCS)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_closed_form_anchor(single_process_cfg):
    maf0 = mse_at_tau(0.0, single_process_cfg, Scheme.MAF_FEEDBACK)
    rr0 = mse_at_tau(0.0, single_process_cfg, Scheme.RR_NO_FEEDBACK)
    st = simulate(
        single_process_cfg, ThresholdPolicy(Scheme.MAF_FEEDBACK, 0.0),
        n_epochs=10**6, seed=1001,
    )
    rel = abs(st.sum_mse - 0.75) / 0.75
    ok = abs(maf0 - 0.75) <= 1e-9 and abs(rr0 - 0.75) <= 1e-9 and rel <= 0.005
    report(1, ok, f"mse(0)={maf0:.12f}/{rr0:.12f}, sim={st.sum_mse:.5f} (rel {rel:.2e})")


def test_criterion_02_solver_simulator_agreement():
    worst = 0.0
    worst_tag = ""
    row = 0
    for scheme in Scheme:
        for f_max in (0.5, 0.95, 1.5):
            for eps in (0.0, 0.1, 0.3, 0.5):
                cfg = ref_cfg(eps, f_max)
                res = solve(cfg, scheme)
                st = simulate(
                    cfg, ThresholdPolicy(scheme, res.tau_star),
                    n_epochs=10**6, seed=2000 + row,
                )
                row += 1
                diff = abs(st.sum_mse - res.beta_star)
                tol = 0.01 * res.beta_star + 3 * st.sum_mse_se
                ratio = diff / tol
                if ratio > worst:
                    worst, worst_tag = ratio, f"{scheme.value} f={f_max} eps={eps}"
                assert diff <= tol, (
                    f"{scheme.value} f={f_max} eps={eps}: sim {st.sum_mse:.5f} vs "
                    f"beta* {res.beta_star:.5f} (diff {diff:.5f} > tol {tol:.5f})"
                )
    report(2, True, f"24 configs agree; worst margin ratio {worst:.2f} at {worst_tag}")


def test_criterion_03_zero_erasure_coincidence():
    rng = np.random.default_rng(3003)
    worst_tau = worst_beta = 0.0
    for _ in range(20):
        k = int(rng.integers(1, 5))
        cfg = SystemConfig(
            k=k,
            f_max=float(rng.uniform(0.3, 2.0)),
            mu=float(rng.uniform(0.5, 2.0)),
            eps=0.0,
            processes=tuple(
                ProcessParams(float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.5, 2.0)))
                for _ in range(k)
            ),
        )
        a, b = solve_maf(cfg), solve_rr(cfg)
        worst_tau = max(worst_tau, abs(a.tau_star - b.tau_star))
        worst_beta = max(worst_beta, abs(a.beta_star - b.beta_star))
    ok = worst_tau <= 1e-6 and worst_beta <= 1e-6
    report(3, ok, f"20 random configs: max |dtau|={worst_tau:.2e}, max |dbeta|={worst_beta:.2e}")


def test_criterion_04_erasure_monotonicity():
    maf = [solve_maf(ref_cfg(e, 1.5)).tau_star for e in EPS_GRID]
    rr = [solve_rr(ref_cfg(e, 1.5)).tau_star for e in EPS_GRID]
    ok_maf = all(b >= a - 1e-9 for a, b in zip(maf, maf[1:]))
    ok_rr = all(b <= a + 1e-9 for a, b in zip(rr, rr[1:]))
    report(4, ok_maf and ok_rr,
           f"feedback threshold {maf[0]:.3f}->{maf[-1]:.3f} nondecreasing={ok_maf}; "
           f"blind threshold {rr[0]:.3f}->{rr[-1]:.3f} nonincreasing={ok_rr}")


def test_criterion_05_binding_branch_identities():
    eps_set = np.arange(0.0, 0.801, 0.1)
    worst = 0.0
    rr_taus = []
    for eps in eps_set:
        cfg = ref_cfg(eps, 0.5)
        res = solve_maf(cfg)
        ref = brentq(
            lambda t: expected_wait(t, 2, 1.0 - eps) - 2.0 / (1.0 - eps), 0.0, 500.0, xtol=1e-11
        )
        worst = max(worst, abs(res.tau_star - ref))
        rr_taus.append(solve_rr(cfg).tau_star)
    spread = max(rr_taus) - min(rr_taus)
    ok = worst <= 1e-6 and spread <= 1e-6
    report(5, ok, f"feedback binding |tau - inverse|<={worst:.2e}; "
                  f"blind tau spread {spread:.2e} over eps grid")


def test_criterion_06_feedback_crossover():
    onset = None
    for eps in EPS_GRID:
        if solve_maf(ref_cfg(float(eps), 0.95)).binding:
            onset = float(eps)
            break
    ok = onset is not None and 0.6 <= onset <= 0.8
    report(6, ok, f"constraint becomes binding at eps={onset}")


def test_criterion_07_blind_zero_wait_onset():
    onset = None
    for eps in EPS_GRID:
        if solve_rr(ref_cfg(float(eps), 1.5)).tau_star <= 1e-6:
            onset = float(eps)
            break
    ok = onset is not None and 0.5 <= onset <= 0.7
    report(7, ok, f"zero-wait regime starts at eps={onset}")


def test_criterion_08_dominance_and_crossover():
    # Zero wait is only an admissible competitor where it meets the sampling
    # constraint: always at f_max >= mu, and at any point where the solver's
    # constraint is slack. At binding points the threshold is forced above
    # the unconstrained optimum precisely because zero wait is infeasible.
    worst_gap = -math.inf
    checked = 0
    for f_max in (0.5, 0.95, 1.5):
        for eps in EPS_GRID:
            cfg = ref_cfg(float(eps), f_max)
            for scheme in Scheme:
                res = solve(cfg, scheme)
                if f_max >= cfg.mu or not res.binding:
                    worst_gap = max(worst_gap, res.beta_star - mse_at_tau(0.0, cfg, scheme))
                    checked += 1
    dominance_ok = checked > 0 and worst_gap <= 1e-9

    crossover = None
    prev = None
    for eps in np.arange(0.0, 0.2001, 0.01):
        cfg = ref_cfg(float(eps), 1.5)
        d = solve_rr(cfg).beta_star - mse_at_tau(0.0, cfg, Scheme.MAF_FEEDBACK)
        if prev is not None and prev < 0 <= d:
            crossover = float(eps)
            break
        prev = d
    crossover_ok = crossover is not None and 0.02 <= crossover <= 0.15
    report(8, dominance_ok and crossover_ok,
           f"optimal wait dominates zero wait (max gap {worst_gap:.2e}); "
           f"blind-optimal vs feedback-zero-wait crossover at eps={crossover}")


def test_criterion_09_process_count_monotonicity():
    rises = {}
    ok = True
    for f_max in (0.5, 1.5):
        for scheme in Scheme:
            taus = []
            for k in range(1, 9):
                cfg = SystemConfig(
                    k=k, f_max=f_max, mu=1.0, eps=0.3,
                    processes=(ProcessParams(0.5, 1.0),) * k,
                )
                taus.append(solve(cfg, scheme).tau_star)
            ok = ok and all(b >= a - 1e-9 for a, b in zip(taus, taus[1:]))
            rises[(scheme.value, f_max)] = taus[-1] - taus[0]
    slope_ok = rises[("maf", 0.5)] >= rises[("rr", 0.5)]
    report(9, ok and slope_ok,
           f"thresholds nondecreasing in k; binding rises: feedback "
           f"{rises[('maf', 0.5)]:.2f} >= blind {rises[('rr', 0.5)]:.2f}")


def test_criterion_10_property_suites(two_process_cfg):
    notes = []

    # Series functions against Monte Carlo draws of their defining variables.
    rng = np.random.default_rng(1010)
    counts = rng.geometric(0.7, size=(10**6, 2)).sum(axis=1)
    totals = rng.standard_gamma(counts)
    tau = 1.3
    w = np.maximum(tau - totals, 0.0)
    se = w.std(ddof=1) / 1000
    assert abs(expected_wait(tau, 2, 0.7) - w.mean()) <= 3 * se
    for th in (0.1, 0.5):
        v = np.exp(-2 * th * np.maximum(tau, totals))
        assert abs(cycle_transform(tau, th, 2, 0.7) - v.mean()) <= 3 * v.std(ddof=1) / 1000
    rounds = rng.standard_gamma(2, size=10**6)
    v = np.exp(-1.0 * np.maximum(tau, rounds))
    assert abs(cycle_transform(tau, 0.5, 2, 1.0) - v.mean()) <= 3 * v.std(ddof=1) / 1000
    notes.append("series-vs-MC 3se")

    # Family coincidences at zero erasure rate: both schemes map onto one law.
    cfg0 = ref_cfg(0.0, 1.5)
    maf0, rr0 = _law(cfg0, Scheme.MAF_FEEDBACK), _law(cfg0, Scheme.RR_NO_FEEDBACK)
    for t in np.linspace(0, 12, 100):
        assert epoch_mean(t, cfg0, Scheme.MAF_FEEDBACK) == epoch_mean(
            t, cfg0, Scheme.RR_NO_FEEDBACK
        )
        assert _transform(t, maf0) == _transform(t, rr0)
        assert _response(t, maf0) == _response(t, rr0)
    notes.append("eps=0 coincidence exact")

    # Renewal and transform identities in the simulator.
    arrays = round_arrays(two_process_cfg, Scheme.MAF_FEEDBACK, 1.6, n_rounds=4 * 10**5, seed=1011)
    gamma = arrays.wait + arrays.service_total
    se = gamma.std(ddof=1) / math.sqrt(len(gamma))
    ref = epoch_mean(1.6, two_process_cfg, Scheme.MAF_FEEDBACK)
    assert abs(gamma.mean() - ref) <= 3 * se
    paired = np.maximum(1.6, arrays.service_total)
    for p in two_process_cfg.processes:
        v = np.exp(-2 * p.theta * paired)
        ref = cycle_transform(1.6, p.theta, 2, 0.7)
        assert abs(v.mean() - ref) <= 3 * v.std(ddof=1) / math.sqrt(len(v))
    rounds = round_arrays(
        two_process_cfg, Scheme.RR_NO_FEEDBACK, 0.7, n_rounds=4 * 10**5, seed=1012
    )
    hits = np.flatnonzero(rounds.delivered[:, 1])
    gaps = np.diff(rounds.ends[hits, 1])
    se = gaps.std(ddof=1) / math.sqrt(len(gaps))
    ref = epoch_mean(0.7, two_process_cfg, Scheme.RR_NO_FEEDBACK)
    assert abs(gaps.mean() - ref) <= 3 * se
    paired_rr = np.maximum(0.7, rounds.service_total)
    refs = _transform(0.7, _law(two_process_cfg, Scheme.RR_NO_FEEDBACK))
    for k, p in enumerate(two_process_cfg.processes):
        h = np.flatnonzero(rounds.delivered[:, k])
        gam = np.add.reduceat(paired_rr, np.concatenate(([0], h[:-1] + 1)))
        v = np.exp(-2 * p.theta * gam)
        ref = refs[k]
        assert abs(v.mean() - ref) <= 3 * v.std(ddof=1) / math.sqrt(len(v))
    notes.append("renewal+transform identities 3se")

    # Wait repositioning: epoch lengths unchanged, error within the allowance.
    pol = ThresholdPolicy(Scheme.MAF_FEEDBACK, 1.6)
    base = simulate(two_process_cfg, pol, n_epochs=4 * 10**5, seed=1013, burn_in=1000)
    split = simulate(two_process_cfg, pol, n_epochs=4 * 10**5, seed=1013, burn_in=1000,
                     wait_split=(0.5, 0.5))
    se = math.hypot(base.mean_epoch_len_se, split.mean_epoch_len_se)
    assert abs(base.mean_epoch_len - split.mean_epoch_len) <= 3 * se
    tol = max(3 * math.hypot(base.sum_mse_se, split.sum_mse_se), 0.01 * base.sum_mse)
    assert abs(base.sum_mse - split.sum_mse) <= tol
    pol_rr = ThresholdPolicy(Scheme.RR_NO_FEEDBACK, 0.7)
    base_rr = simulate(two_process_cfg, pol_rr, n_epochs=3 * 10**5, seed=1014, burn_in=1000)
    split_rr = simulate(two_process_cfg, pol_rr, n_epochs=3 * 10**5, seed=1014,
                        burn_in=1000, wait_split=(0.5, 0.5))
    tol = max(
        3 * math.hypot(base_rr.sum_mse_se, split_rr.sum_mse_se), 0.01 * base_rr.sum_mse
    )
    assert abs(base_rr.sum_mse - split_rr.sum_mse) <= tol
    notes.append("wait-splitting equivalence")

    report(10, True, "; ".join(notes))
