"""Discrete-event simulator: event mechanics, renewal identities, determinism."""

import hashlib
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ouwait import (
    InvalidConfig,
    ProcessParams,
    Scheme,
    SystemConfig,
    ThresholdPolicy,
    epoch_mean,
    simulate,
)
import ouwait.sim as sim
from ouwait.sim import _ou_probe
from ouwait.threshold import _law, _transform

from event_oracle import ou_probe_loop, round_arrays, run_epoch_maf, run_round_rr
from round_terms import cycle_transform

MAF = Scheme.MAF_FEEDBACK
RR = Scheme.RR_NO_FEEDBACK


class TestSingleEpoch:
    def test_no_erasures_one_attempt_each(self, two_process_cfg):
        cfg = replace(two_process_cfg, eps=0.0)
        rng = np.random.default_rng(1)
        tr = run_epoch_maf(rng, cfg, tau=1.0, prev_total_service=0.3)
        assert tr.attempts == (1, 1)
        assert tr.wait == pytest.approx(0.7)
        assert tr.gamma == pytest.approx(tr.wait + tr.service_total, abs=1e-12)

    def test_trace_geometry(self, two_process_cfg):
        rng = np.random.default_rng(2)
        tr = run_epoch_maf(rng, two_process_cfg, tau=2.0, prev_total_service=0.0)
        assert tr.service_total == pytest.approx(
            sum(sum(b) for b in tr.services), abs=1e-12
        )
        # Deliveries are ordered; each stamp precedes its delivery by exactly
        # the delivering attempt's service time.
        assert list(tr.deliveries) == sorted(tr.deliveries)
        for k in range(two_process_cfg.k):
            assert tr.deliveries[k] - tr.stamps[k] == pytest.approx(
                tr.services[k][-1], abs=1e-12
            )
        assert tr.deliveries[-1] == pytest.approx(tr.wait + tr.service_total, abs=1e-12)

    def test_wait_clamped_at_zero(self, two_process_cfg):
        rng = np.random.default_rng(3)
        tr = run_epoch_maf(rng, two_process_cfg, tau=0.5, prev_total_service=3.0)
        assert tr.wait == 0.0

    def test_negative_conditioning_rejected(self, two_process_cfg):
        rng = np.random.default_rng(4)
        with pytest.raises(InvalidConfig):
            run_epoch_maf(rng, two_process_cfg, tau=1.0, prev_total_service=-0.1)


class TestSingleRound:
    def test_round_length_is_wait_plus_services(self, two_process_cfg):
        rng = np.random.default_rng(5)
        tr = run_round_rr(rng, two_process_cfg, tau=1.5, prev_round_service=0.4)
        assert tr.length == pytest.approx(tr.wait + sum(tr.services), abs=1e-12)
        assert tr.wait == pytest.approx(1.1)

    def test_erasures_suppress_deliveries(self, two_process_cfg):
        rng = np.random.default_rng(6)
        seen_both = False
        for _ in range(50):
            tr = run_round_rr(rng, two_process_cfg, tau=0.0, prev_round_service=1.0)
            for k in range(two_process_cfg.k):
                if tr.erased[k]:
                    assert tr.deliveries[k] is None and tr.stamps[k] is None
                else:
                    assert tr.deliveries[k] - tr.stamps[k] == pytest.approx(
                        tr.services[k], abs=1e-12
                    )
            seen_both = seen_both or (any(tr.erased) and not all(tr.erased))
        assert seen_both

    def test_success_rate_matches_channel(self, two_process_cfg):
        arrays = round_arrays(two_process_cfg, RR, tau=0.7, n_rounds=10**6, seed=77)
        rate = arrays.delivered.mean()
        se = math.sqrt(0.3 * 0.7 / arrays.delivered.size)
        assert abs(rate - 0.7) <= 3 * se

    def test_rounds_per_delivery_geometric(self, two_process_cfg):
        arrays = round_arrays(two_process_cfg, RR, tau=0.7, n_rounds=10**6, seed=78)
        hits = np.flatnonzero(arrays.delivered[:, 0])
        gaps = np.diff(hits)
        se = gaps.std(ddof=1) / math.sqrt(len(gaps))
        assert abs(gaps.mean() - 1 / 0.7) <= 3 * se


class TestBatchEngine:
    def test_matches_single_epoch_chain(self, two_process_cfg):
        # The vectorized engine must agree with the event-by-event reference
        # in distribution; compare epoch-length and attempt-count moments.
        n = 20000
        arrays = round_arrays(two_process_cfg, MAF, tau=1.6, n_rounds=n, seed=11)
        rng = np.random.default_rng(12)
        init = run_epoch_maf(rng, two_process_cfg, 1.6, prev_total_service=0.0)
        prev = init.service_total
        gammas = np.empty(n)
        attempts = np.empty(n)
        for i in range(n):
            tr = run_epoch_maf(rng, two_process_cfg, 1.6, prev_total_service=prev)
            gammas[i] = tr.gamma
            attempts[i] = sum(tr.attempts)
            prev = tr.service_total
        gamma = arrays.wait + arrays.service_total
        se = math.hypot(
            gammas.std(ddof=1) / math.sqrt(n),
            gamma.std(ddof=1) / math.sqrt(n),
        )
        assert abs(gammas.mean() - gamma.mean()) <= 3 * se
        se_m = math.hypot(
            attempts.std(ddof=1) / math.sqrt(n),
            arrays.samples.sum(axis=1).std(ddof=1) / math.sqrt(n),
        )
        assert abs(attempts.mean() - arrays.samples.sum(axis=1).mean()) <= 3 * se_m

    def test_attempt_total_mean(self, two_process_cfg):
        arrays = round_arrays(two_process_cfg, MAF, tau=0.8, n_rounds=10**6, seed=13)
        totals = arrays.samples.sum(axis=1)
        se = totals.std(ddof=1) / 1000
        assert abs(totals.mean() - 2 / 0.7) <= 3 * se

    def test_renewal_identity_maf(self, two_process_cfg):
        for tau in (0.0, 0.8, 1.6, 4.0):
            arrays = round_arrays(two_process_cfg, MAF, tau, n_rounds=4 * 10**5, seed=14)
            gamma = arrays.wait + arrays.service_total
            se = gamma.std(ddof=1) / math.sqrt(len(gamma))
            ref = epoch_mean(tau, two_process_cfg, Scheme.MAF_FEEDBACK)
            assert abs(gamma.mean() - ref) <= 3 * se

    def test_renewal_identity_rr(self, two_process_cfg):
        for tau in (0.0, 0.7, 2.0):
            arrays = round_arrays(two_process_cfg, RR, tau, n_rounds=4 * 10**5, seed=15)
            hits = np.flatnonzero(arrays.delivered[:, 1])
            starts = arrays.ends[hits, 1]
            gaps = np.diff(starts)
            se = gaps.std(ddof=1) / math.sqrt(len(gaps))
            ref = epoch_mean(tau, two_process_cfg, Scheme.RR_NO_FEEDBACK)
            assert abs(gaps.mean() - ref) <= 3 * se

    def test_transform_identity_maf(self, two_process_cfg):
        # The epoch transform pairs each cycle's service total with the wait
        # that total induces, i.e. exp(-2 theta max(tau, total)).
        tau = 1.6
        arrays = round_arrays(two_process_cfg, MAF, tau, n_rounds=10**6, seed=16)
        paired = np.maximum(tau, arrays.service_total)
        for p in two_process_cfg.processes:
            vals = np.exp(-2 * p.theta * paired)
            se = vals.std(ddof=1) / 1000
            assert abs(vals.mean() - cycle_transform(tau, p.theta, 2, 0.7)) <= 3 * se

    def test_transform_identity_rr(self, two_process_cfg):
        # Per-epoch transform: sum of max(tau, round total) over the epoch's
        # rounds, each round paired with the wait it induces.
        tau = 0.7
        arrays = round_arrays(two_process_cfg, RR, tau, n_rounds=10**6, seed=17)
        paired = np.maximum(tau, arrays.service_total)
        refs = _transform(tau, _law(two_process_cfg, RR))
        for k, p in enumerate(two_process_cfg.processes):
            hits = np.flatnonzero(arrays.delivered[:, k])
            gam = np.add.reduceat(paired, np.concatenate(([0], hits[:-1] + 1)))
            vals = np.exp(-2 * p.theta * gam)
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            assert abs(vals.mean() - refs[k]) <= 3 * se

    @pytest.mark.parametrize("eps", [0.5, 0.97])
    def test_feedback_slot_law(self, two_process_cfg, eps):
        # A feedback slot is a geometric(1 - eps) count n of Exp(mu) attempts,
        # so its service is Exp(mu (1 - eps)), and Erlang(n, mu) given n. The
        # last check fails for a draw that makes n and the service of the
        # failed attempts independent.
        cfg = replace(two_process_cfg, eps=eps)
        rngs = [np.random.default_rng(ss) for ss in np.random.SeedSequence(71).spawn(3)]
        burst, last, delivered, n, m = sim._draw_slots(cfg, MAF, 4 * 10**5, *rngs)
        assert np.all(delivered) and np.array_equal(m, n.sum(axis=1))
        burst, last, n = burst.ravel(), last.ravel(), n.ravel()

        def assert_mean(values, mean):
            se = values.std(ddof=1) / math.sqrt(len(values))
            assert abs(values.mean() - mean) <= 4 * se

        rate = cfg.mu * (1 - eps)
        assert_mean(burst, 1 / rate)
        assert_mean((burst - burst.mean()) ** 2, 1 / rate**2)
        assert_mean(last, 1 / cfg.mu)
        assert_mean(n, 1 / (1 - eps))
        assert_mean(n == 1, 1 - eps)
        assert_mean(burst[n == 3], 3 / cfg.mu)

    def test_chained_pairing_skews_the_transform(self):
        # Pairing a cycle's wait with the next cycle's services (the physical
        # inter-delivery window) yields a strictly larger transform than the
        # within-cycle pairing; this is why the identity above is stated on
        # max(tau, total). Documented here to pin the distinction.
        from ouwait import ProcessParams, SystemConfig

        cfg = SystemConfig(k=1, f_max=2.0, mu=1.0, eps=0.5,
                           processes=(ProcessParams(0.5, 1.0),))
        tau = 1.0
        arrays = round_arrays(cfg, MAF, tau, n_rounds=10**6, seed=18)
        physical = np.exp(-(arrays.wait + arrays.service_total))
        paired = np.exp(-np.maximum(tau, arrays.service_total))
        se = physical.std(ddof=1) / 1000
        ref = cycle_transform(tau, 0.5, 1, 0.5)
        assert physical.mean() > ref + 10 * se
        assert abs(paired.mean() - ref) <= 3 * se


class TestSimulate:
    def test_deterministic_given_seed(self, two_process_cfg):
        pol = ThresholdPolicy(Scheme.MAF_FEEDBACK, 1.2)
        a = simulate(two_process_cfg, pol, n_epochs=20000, seed=99, burn_in=100)
        b = simulate(two_process_cfg, pol, n_epochs=20000, seed=99, burn_in=100)
        assert a == b
        c = simulate(two_process_cfg, pol, n_epochs=20000, seed=100, burn_in=100)
        assert c != a

    def test_single_process_zero_wait_anchor(self, single_process_cfg):
        pol = ThresholdPolicy(Scheme.MAF_FEEDBACK, 0.0)
        st = simulate(single_process_cfg, pol, n_epochs=10**6, seed=21)
        assert abs(st.sum_mse - 0.75) / 0.75 <= 0.005

    def test_epoch_length_estimate_matches_formula(self, two_process_cfg):
        pol = ThresholdPolicy(Scheme.RR_NO_FEEDBACK, 0.7)
        st = simulate(two_process_cfg, pol, n_epochs=2 * 10**5, seed=22, burn_in=500)
        ref = epoch_mean(0.7, two_process_cfg, Scheme.RR_NO_FEEDBACK)
        assert abs(st.mean_epoch_len - ref) <= 3 * st.mean_epoch_len_se

    def test_sampling_rate_respects_budget_when_binding(self, two_process_cfg):
        from ouwait import solve_maf

        cfg = replace(two_process_cfg, f_max=0.5)
        res = solve_maf(cfg)
        assert res.binding
        pol = ThresholdPolicy(Scheme.MAF_FEEDBACK, res.tau_star)
        st = simulate(cfg, pol, n_epochs=2 * 10**5, seed=23, burn_in=500)
        floor = cfg.k / cfg.f_max
        for mean_gap, se in zip(st.per_process_inter_sample_mean,
                                st.per_process_inter_sample_se):
            # Budget met with equality at the binding threshold; allow noise.
            assert mean_gap >= floor - 3 * se
            assert mean_gap == pytest.approx(floor, rel=0.02)

    def test_wait_split_preserves_epoch_lengths_and_mse(self, two_process_cfg):
        # Repositioning the wait inside the cycle in any fixed split leaves
        # the per-process mean epoch length unchanged and moves the measured
        # sum MSE by at most a percent-scale boundary effect.
        pol = ThresholdPolicy(Scheme.MAF_FEEDBACK, 1.6)
        base = simulate(two_process_cfg, pol, n_epochs=4 * 10**5, seed=24, burn_in=1000)
        split = simulate(
            two_process_cfg, pol, n_epochs=4 * 10**5, seed=24, burn_in=1000,
            wait_split=(0.5, 0.5),
        )
        se = math.hypot(base.mean_epoch_len_se, split.mean_epoch_len_se)
        assert abs(base.mean_epoch_len - split.mean_epoch_len) <= 3 * se
        tol = max(
            3 * math.hypot(base.sum_mse_se, split.sum_mse_se), 0.01 * base.sum_mse
        )
        assert abs(base.sum_mse - split.sum_mse) <= tol

    def test_wait_split_rr(self, two_process_cfg):
        pol = ThresholdPolicy(Scheme.RR_NO_FEEDBACK, 0.7)
        base = simulate(two_process_cfg, pol, n_epochs=3 * 10**5, seed=25, burn_in=1000)
        split = simulate(
            two_process_cfg, pol, n_epochs=3 * 10**5, seed=25, burn_in=1000,
            wait_split=(0.25, 0.75),
        )
        se = math.hypot(base.mean_epoch_len_se, split.mean_epoch_len_se)
        assert abs(base.mean_epoch_len - split.mean_epoch_len) <= 3 * se
        tol = max(
            3 * math.hypot(base.sum_mse_se, split.sum_mse_se), 0.01 * base.sum_mse
        )
        assert abs(base.sum_mse - split.sum_mse) <= tol

    def test_invalid_combinations_rejected(self, two_process_cfg):
        pol = ThresholdPolicy(Scheme.MAF_FEEDBACK, 1.0)
        with pytest.raises(InvalidConfig):
            simulate(two_process_cfg, pol, n_epochs=100, seed=1, burn_in=100)
        with pytest.raises(InvalidConfig):
            simulate(two_process_cfg, pol, n_epochs=100, seed=1, burn_in=10,
                     wait_split=(0.5, 0.4))
        with pytest.raises(InvalidConfig):
            simulate(two_process_cfg, pol, n_epochs=100, seed=1, burn_in=10,
                     wait_split=(1.0,))

    @pytest.mark.parametrize("n_epochs, burn_in", [(3, 0), (50, 47), (1500, 1000)])
    def test_default_burn_in_fits_the_run(self, two_process_cfg, n_epochs, burn_in):
        pol = ThresholdPolicy(Scheme.MAF_FEEDBACK, 1.0)
        default = simulate(two_process_cfg, pol, n_epochs=n_epochs, seed=31)
        assert default == simulate(two_process_cfg, pol, n_epochs=n_epochs, seed=31,
                                   burn_in=burn_in)
        assert default.epochs == n_epochs - burn_in - 1

    def test_non_finite_inputs_rejected(self, two_process_cfg):
        pol = ThresholdPolicy(Scheme.MAF_FEEDBACK, 1.0)
        for split in ((math.nan, 1.0), (math.inf, 1.0), (0.5, math.nan)):
            with pytest.raises(InvalidConfig):
                simulate(two_process_cfg, pol, n_epochs=100, seed=1, burn_in=10,
                         wait_split=split)
        for scheme in (MAF, RR):
            for tau in (math.nan, math.inf):
                with pytest.raises(InvalidConfig):
                    round_arrays(two_process_cfg, scheme, tau, n_rounds=10, seed=1)

    def test_ou_probe_validates_estimator_path(self, two_process_cfg):
        pol = ThresholdPolicy(Scheme.MAF_FEEDBACK, 1.6)
        st = simulate(two_process_cfg, pol, n_epochs=3 * 10**4, seed=26, burn_in=200,
                      track_ou=True)
        assert st.ou_probe_mse is not None
        # Paired comparison: realized squared error at deliveries against the
        # closed-form error at the same ages, exact in expectation.
        assert abs(st.ou_probe_mse - st.ou_probe_ref) <= 3.5 * st.ou_probe_diff_se

    def test_trace_dump(self, two_process_cfg, tmp_path):
        path = os.fspath(tmp_path / "trace.tsv")
        pol = ThresholdPolicy(Scheme.MAF_FEEDBACK, 1.0)
        simulate(two_process_cfg, pol, n_epochs=50, seed=27, burn_in=5, trace_path=path)
        lines = open(path).read().strip().split("\n")
        header = lines[0].split("\t")
        assert header == [
            "epoch_index", "scheme", "w_total", "service_total", "m_total", "gamma",
            "d_1", "d_2", "stamp_1", "stamp_2",
        ]
        assert len(lines) == 51
        first = lines[1].split("\t")
        assert first[1] == "maf"
        # Epoch length decomposes into wait plus services.
        assert float(first[5]) == pytest.approx(
            float(first[2]) + float(first[3]), abs=1e-9
        )

    def test_trace_dump_rr(self, two_process_cfg, tmp_path):
        path = os.fspath(tmp_path / "trace_rr.tsv")
        pol = ThresholdPolicy(Scheme.RR_NO_FEEDBACK, 0.7)
        simulate(two_process_cfg, pol, n_epochs=200, seed=28, burn_in=5, trace_path=path)
        lines = open(path).read().strip().split("\n")
        assert lines[0].count("\t") == 9
        row = lines[1].split("\t")
        assert row[1] == "rr"
        assert int(row[4]) >= 1

    def test_aoi_resets_to_delivering_service_time(self, two_process_cfg):
        arrays = round_arrays(two_process_cfg, MAF, tau=1.2, n_rounds=2000, seed=29)
        ages_at_delivery = arrays.ends - arrays.stamps
        assert np.all(ages_at_delivery > 0)
        # Between consecutive deliveries the age grows by exactly the elapsed
        # time: the reset value plus the gap reproduces the age just before
        # the next delivery.
        for k in range(two_process_cfg.k):
            gaps = np.diff(arrays.ends[:, k])
            pre_reset_age = ages_at_delivery[:-1, k] + gaps
            next_stamp_age = arrays.ends[1:, k] - arrays.stamps[:-1, k]
            assert np.allclose(pre_reset_age, next_stamp_age, atol=1e-9)


class TestOuProbe:
    @pytest.mark.parametrize("scheme", [MAF, RR], ids=["maf", "rr"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("eps", [0.0, 0.3, 0.7])
    def test_errors_match_event_loop(self, scheme, k, eps):
        # On identical draws, the three array-wide exact steps give the same
        # error at every delivery as stepping the process event by event.
        procs = (ProcessParams(0.1, 1.0), ProcessParams(0.5, 2.0), ProcessParams(1.0, 0.5))
        cfg = SystemConfig(k=k, f_max=1.0, mu=1.0, eps=eps, processes=procs[:k])
        rounds = round_arrays(cfg, scheme, 1.3, n_rounds=400, seed=61)
        for j, p in enumerate(cfg.processes):
            hits = np.flatnonzero(rounds.delivered[:, j])
            d, s = rounds.ends[hits, j], rounds.stamps[hits, j]
            errs, refs, _ = _ou_probe(d, s, p, np.random.default_rng(62 + j))
            loop_errs, loop_refs = ou_probe_loop(d, s, p, np.random.default_rng(62 + j))
            assert len(errs) == len(hits) - 1
            assert np.max(np.abs(errs - loop_errs)) <= 1e-12
            assert np.array_equal(refs, loop_refs)

    @pytest.mark.parametrize("scheme, tau", [(MAF, 1.6), (RR, 0.7)], ids=["maf", "rr"])
    def test_standard_error_calibrated(self, two_process_cfg, scheme, tau):
        # The paired gap is zero in expectation, so over many seeds the gap in
        # units of its own standard error must spread with unit SD. Adjacent
        # errors share a segment; the batch-means SE allows for that.
        gaps = []
        for seed in range(1000, 1100):
            st = simulate(two_process_cfg, ThresholdPolicy(scheme, tau), n_epochs=2000,
                          seed=seed, burn_in=100, track_ou=True)
            gaps.append((st.ou_probe_mse - st.ou_probe_ref) / st.ou_probe_diff_se)
        assert 0.8 <= np.std(gaps, ddof=1) <= 1.2


def _rss_growth_mb(body: str) -> float:
    """Growth of peak RSS, in MB, that ``body`` causes in a fresh process after
    the import; ``body`` may call ``cfg(eps)``, the two-process system at f_max 0.5.

    The peak is read from ``VmHWM`` where there is one: a process spawned by a
    large one starts with that one's ``ru_maxrss`` on Linux, which would hide
    the growth.
    """
    code = textwrap.dedent(
        """
        import resource
        from ouwait import ProcessParams, Scheme, SystemConfig, ThresholdPolicy, simulate
        def cfg(eps):
            return SystemConfig(k=2, f_max=0.5, mu=1.0, eps=eps,
                                processes=(ProcessParams(0.1, 1.0), ProcessParams(0.5, 2.0)))
        def peak_kb():
            try:
                with open("/proc/self/status") as f:
                    return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
            except (OSError, StopIteration):
                return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        before = peak_kb()
        """
    ) + textwrap.dedent(body) + "print((peak_kb() - before) / 1024)\n"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    return float(out.stdout)


class TestStreaming:
    @pytest.mark.parametrize(
        "scheme, tau, split, eps",
        [
            (MAF, 1.6, (0.5, 0.5), 0.3),
            (RR, 0.7, (0.25, 0.75), 0.3),
            (MAF, 1.6, (0.5, 0.5), 0.9),
            (MAF, 1.6, None, 0.0),
            (RR, 0.7, None, 0.3),
        ],
        ids=["maf", "rr", "maf-eps-0.9", "maf-eps-0-nosplit", "rr-nosplit"],
    )
    def test_statistics_and_trace_invariant_to_chunk_size(
        self, two_process_cfg, tmp_path, monkeypatch, scheme, tau, split, eps
    ):
        # Chunks of 5 rounds split every batch, burn-in, OU step and trace
        # epoch; the results must not change in any bit. At eps = 0.9 most
        # feedback slots draw a failed-service gamma, from its own substream
        # in slot order. Without a split, slot ends skip the fraction
        # product, and where every row delivers (feedback) the window reads
        # its deliveries by slice, cut at burn-in and batch edges.
        # The trace is also printed in blocks of 1 and 7 records.
        cfg = replace(two_process_cfg, eps=eps)
        runs = []
        for chunk, block in ((5, 1), (1000, 7), (sim.CHUNK_ROUNDS, sim._TRACE_BLOCK)):
            monkeypatch.setattr(sim, "CHUNK_ROUNDS", chunk)
            monkeypatch.setattr(sim, "_TRACE_BLOCK", block)
            path = tmp_path / f"trace-{chunk}.tsv"
            st = simulate(cfg, ThresholdPolicy(scheme, tau), n_epochs=3000, seed=91,
                          burn_in=150, wait_split=split, track_ou=True, trace_path=os.fspath(path))
            runs.append((st, path.read_bytes()))
        (st, trace), *others = runs
        assert st.ou_probe_mse is not None and trace.count(b"\n") == 3001
        for other in others:
            assert other == (st, trace)

    def test_memory_bounded_in_run_length(self):
        # 4e6 epochs of each scheme at k=2: an engine that holds the whole
        # run grows by more than 500 MB on these runs, a streaming one by a
        # few chunks and one open batch per process.
        grown = _rss_growth_mb(
            """
            for scheme, tau in ((Scheme.MAF_FEEDBACK, 7.76), (Scheme.RR_NO_FEEDBACK, 3.88)):
                simulate(cfg(0.5), ThresholdPolicy(scheme, tau), n_epochs=4 * 10**6, seed=5)
            """
        )
        assert grown < 64.0

    def test_memory_bounded_in_erasure_rate(self):
        # With feedback a round draws k / (1 - eps) samples, but each retry
        # burst is drawn per slot, so a chunk of a fixed round count holds one
        # entry per slot at any eps: this run grows by about 9.3 MB. Drawing
        # every attempt grew it by about 52 MB, and by 2.6 GB at eps = 0.9999.
        grown = _rss_growth_mb(
            """
            simulate(cfg(0.995), ThresholdPolicy(Scheme.MAF_FEEDBACK, 1.0),
                     n_epochs=2 * 10**4, seed=1)
            """
        )
        assert grown < 16.0

    def test_trace_memory_bounded(self):
        # Traced 2e5-epoch runs of each scheme, after the same runs untraced
        # in the same process: the growth counts from the untraced runs' peak.
        # The writer that printed one record at a time with `%` grew it by
        # about 2.0 MB (k = 2, Linux x86-64, numpy 2.4); the block printer
        # may add at most 0.5 MB to that.
        runs = textwrap.dedent(
            """
            for scheme, tau in ((Scheme.MAF_FEEDBACK, 1.6), (Scheme.RR_NO_FEEDBACK, 0.7)):
                simulate(cfg(0.3), ThresholdPolicy(scheme, tau), n_epochs=2 * 10**5, seed=7,
                         trace_path=path)
            """
        )
        grown = _rss_growth_mb(
            "path = None\n" + runs + "before = peak_kb()\nimport os, tempfile\n"
            "with tempfile.TemporaryDirectory() as tmp:\n"
            "    path = os.path.join(tmp, 'trace.tsv')\n" + textwrap.indent(runs, "    ")
        )
        assert grown <= 2.0 + 0.5

    def test_high_erasure_rate_without_feedback(self, two_process_cfg):
        # Ten rounds per delivery: the run draws until every process has its
        # epochs, with no guess at the round count.
        cfg = replace(two_process_cfg, eps=0.9)
        st = simulate(cfg, ThresholdPolicy(RR, 0.7), n_epochs=20000, seed=92, burn_in=100)
        assert st.epochs == 20000 - 100 - 1
        ref = epoch_mean(0.7, cfg, RR)
        assert abs(st.mean_epoch_len - ref) <= 4 * st.mean_epoch_len_se

    @pytest.mark.parametrize("seed", [-1, 1.5, "3"])
    def test_seed_must_be_non_negative_integer(self, two_process_cfg, seed):
        with pytest.raises(InvalidConfig, match="seed must be a non-negative integer"):
            simulate(two_process_cfg, ThresholdPolicy(MAF, 1.0), n_epochs=100, seed=seed,
                     burn_in=10)

    @pytest.mark.parametrize("n_epochs, burn_in", [(1e4, None), (100.0, 10), (100, 10.0)],
                             ids=["float-epochs", "float-epochs-and-burn-in", "float-burn-in"])
    def test_epoch_counts_must_be_integers(self, two_process_cfg, n_epochs, burn_in):
        # A float count once reached the statistics window as a slice index.
        with pytest.raises(InvalidConfig, match="must be an integer"):
            simulate(two_process_cfg, ThresholdPolicy(MAF, 1.0), n_epochs=n_epochs, seed=1,
                     burn_in=burn_in)


def _near(x: float, ulps: int) -> float:
    """``x`` moved by ``ulps`` units in the last place."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


# Deterministic draws keep the suite reproducible.
PRINTER_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)
# Zeros, infinities, nan, subnormals and negatives; values near the ends of
# the printer's fast path and of %.12g's fixed notation, which the trace once
# printed; 12-digit decimal ties (m + 0.5) / 10**j; and values whose 12-digit
# mantissa rounds up to 10**12.
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1e-3, -1.0]),
    st.builds(_near, st.sampled_from([1e-5, 1e-4, 1e-3, 1.0, 10.0, 1e11, 1e12, 1e13]),
              st.integers(-3, 3)),
    st.builds(lambda m, j: (m + 0.5) / 10**j, st.integers(10**11, 10**12 - 1), st.integers(0, 16)),
    st.builds(lambda d, e: (10**12 - d) * 10.0 ** (e - 11), st.floats(0.0, 0.6),
              st.integers(-5, 13)),
)


def _printed(cells, formats):
    """The lines that the trace printer makes of a table, cells split at tabs."""
    cells = np.array(cells, dtype=float).reshape(len(cells), len(formats))
    text, keep = sim._print_cells(cells, formats)
    return [line.split("\t") for line in text[keep].tobytes().decode("ascii").split("\n")[:-1]]


def _same_value_as_percent_g(cells, values):
    """Each printed cell reads back as the float that ``%.12g`` printed."""
    for cell, v in zip(cells, values):
        if not math.isnan(v):
            assert float(cell) == float("%.12g" % v)


class TestTracePrinter:
    # The trace printer must print every cell as Python's `%` would, byte for
    # byte, with nan as an empty cell. A float cell has the 12 significant
    # digits that %.12g printed, so it reads back as the same float.
    @PRINTER_SETTINGS
    @given(st.lists(st.one_of(st.floats(), EDGE_FLOATS), min_size=1, max_size=64))
    def test_floats_print_as_percent_e(self, values):
        expected = [["" if math.isnan(v) else "%.11e" % v] for v in values]
        printed = _printed(values, ("%.11e",))
        assert printed == expected
        _same_value_as_percent_g([cell for cell, in printed], values)

    @PRINTER_SETTINGS
    @given(st.lists(st.tuples(st.integers(0, 2**53), st.floats(), st.integers(0, 2**53)),
                    min_size=1, max_size=64))
    def test_integer_columns_print_as_percent_d(self, rows):
        # The epoch_index and m_total columns hold integers below 2**53, exact
        # in the float table; past 10**12 Python prints them.
        expected = [["%d" % i, "" if math.isnan(v) else "%.11e" % v, "%d" % m] for i, v, m in rows]
        printed = _printed(rows, ("%d", "%.11e", "%d"))
        assert printed == expected
        _same_value_as_percent_g([cell for _, cell, _ in printed], [v for _, v, _ in rows])


class TestPinnedEngine:
    # Golden values computed with the separate per-scheme engines that the
    # round engine replaced, the feedback ones again when its bursts came to
    # be drawn per slot rather than per attempt; any change in the order the
    # RNG substreams are consumed moves them far beyond rel 1e-12. Trace
    # cells are printed to 12 significant digits, so they are compared at
    # rel 1e-11.
    GOLDEN = {
        MAF: (
            1.6, (0.5, 0.5), 41,
            (3.8410202219178706, 0.009214053437070513, 3.0577411439282045),
            ["0", "maf", "0", "4.48637666657", "2", "4.48637666657",
             "10.2622694757", "10.4322061483", "5.94582948173", "10.2622694757"],
        ),
        RR: (
            0.7, (0.25, 0.75), 42,
            (3.910181736798609, 0.009967001478134311, 2.9243675760171906),
            ["0", "rr", "0", "4.17044942644", "2", "4.17044942644",
             "6.79745729527", "6.96752425126", "3.53181909696", "6.79745729527"],
        ),
    }

    @pytest.mark.parametrize("scheme", [MAF, RR], ids=["maf", "rr"])
    def test_golden_statistics_and_first_trace_row(self, two_process_cfg, tmp_path, scheme):
        tau, split, seed, stats, row = self.GOLDEN[scheme]
        path = os.fspath(tmp_path / "trace.tsv")
        st = simulate(two_process_cfg, ThresholdPolicy(scheme, tau), n_epochs=20000,
                      seed=seed, burn_in=1000, wait_split=split, trace_path=path)
        assert (st.sum_mse, st.sum_mse_se, st.mean_epoch_len) == pytest.approx(stats, rel=1e-12)
        first = open(path).read().split("\n")[1].split("\t")
        assert first[:2] == row[:2] and first[4] == row[4]
        floats = [float(c) for i, c in enumerate(first) if i not in (0, 1, 4)]
        golden = [float(c) for i, c in enumerate(row) if i not in (0, 1, 4)]
        assert floats == pytest.approx(golden, rel=1e-11)

    # Every field of the statistics at k = 8 distinct processes, so that a
    # process's row moved to another process's place in the statistics shows:
    # taken before the statistics came to be read off one stacked table.
    GOLDEN_K8 = {
        MAF: dict(
            sum_mse=17.175167867248003,
            sum_mse_se=0.04066407805843396,
            per_process_mse=(
                5.631025585815073, 4.216004900778822, 2.9074981356403646,
                1.8826763404341291, 1.1647824401468134, 0.7038620390134734,
                0.4200899821531319, 0.2492284432661924,
            ),
            per_process_mse_se=(
                0.0239679803427574, 0.012111448179855546, 0.005532265817821158,
                0.0019792135721761143, 0.0007470236633979105, 0.0002389123908998777,
                7.693152239117876e-05, 2.5314287834412235e-05,
            ),
            mean_epoch_len=15.972464045511439,
            mean_epoch_len_se=0.12497873008592475,
            per_process_inter_sample_mean=(
                8.101494464468047, 7.831501469467018, 8.118697586471109,
                8.469154683370869, 7.772398821602023, 8.106864869380718,
                8.106361457366187, 8.156137277450773,
            ),
            per_process_inter_sample_se=(
                0.15102733415261207, 0.11506481151015538, 0.13639833631064013,
                0.13574925127290643, 0.1339571389086773, 0.13271552243620147,
                0.15063561886702884, 0.12259156625179106,
            ),
            epochs=1899,
            ou_probe_mse=21.37843780934428,
            ou_probe_ref=21.35098527706942,
            ou_probe_diff_se=0.39954343606702436,
        ),
        RR: dict(
            sum_mse=17.640326538972207,
            sum_mse_se=0.057920632895714655,
            per_process_mse=(
                5.9782214203417405, 4.333495940368008, 2.914385317167056,
                1.8759132925801592, 1.1651807397432579, 0.7039045484976707,
                0.42003509879718265, 0.2491901814771336,
            ),
            per_process_mse_se=(
                0.04877299899019695, 0.021177459160672728, 0.00973989806216303,
                0.0036623289186995334, 0.0011685960179225418, 0.0003765956400414132,
                8.869585499858299e-05, 2.8514383977515052e-05,
            ),
            mean_epoch_len=15.798859019152397,
            mean_epoch_len_se=0.10524125986885591,
            per_process_inter_sample_mean=(
                7.955661570086433, 7.961408520604234, 7.953370966378549,
                7.9655935856967455, 7.969436643403159, 7.956133839450575,
                7.9648868247108675, 7.963241148765287,
            ),
            per_process_inter_sample_se=(
                0.04705307209801077, 0.042715021954292304, 0.04631846434522561,
                0.04328810265854907, 0.04438487564624831, 0.043852935912095485,
                0.04070399333824868, 0.0439831690907101,
            ),
            epochs=1899,
            ou_probe_mse=20.311339894167737,
            ou_probe_ref=20.156650445978137,
            ou_probe_diff_se=0.3643567823625452,
        ),
    }

    @pytest.mark.parametrize("scheme", [MAF, RR], ids=["maf", "rr"])
    def test_every_field_at_eight_processes(self, scheme):
        procs = tuple(ProcessParams(theta, 1.0) for theta in np.geomspace(0.05, 2, 8))
        cfg = SystemConfig(k=8, f_max=1.5, mu=1.0, eps=0.5, processes=procs)
        st = simulate(cfg, ThresholdPolicy(scheme, 0.9), n_epochs=2000, seed=88, burn_in=100,
                      track_ou=True)
        golden = self.GOLDEN_K8[scheme]
        assert {"scheme", *golden} == {f.name for f in fields(st)}
        assert st.scheme is scheme
        for name, value in golden.items():
            assert getattr(st, name) == pytest.approx(value, rel=1e-12), name
        # Summed in process order on every Python, whose builtin sum is
        # compensated from 3.12 on.
        assert st.sum_mse == np.cumsum(st.per_process_mse)[-1]

    # sha256 of whole 5000-epoch trace files. The k=3 rr case has empty
    # cells; the chunk5 case is it again in chunks of 5 rounds. The eps = 0
    # feedback pair's explicit split puts the whole wait up front like the
    # default, through the general slot-end formula. The tau = 0 case has
    # every wait cell exactly 0, and the k=4 rr case at eps = 0.9 many empty
    # cells and long epochs. All eight were taken again when the float cells
    # went from %.12g to %.11e, after every cell of the new files read back as
    # the float of the old ones and the empty and integer cells matched.
    TRACE_SHA256 = {
        "maf-k2": (2, 0.3, MAF, 1.6, None, 61, None,
                   "cecb17c3fbd3cce7e4daefe96c95c804dc3ae3fb218b1522e324d3326118958d"),
        "rr-k3-split": (3, 0.7, RR, 0.7, (1 / 3, 1 / 3, 1 / 3), 62, None,
                        "d6463d23b71e96c5b6e918026c4c958930a11653dae7f5e08344485c7e7d87bc"),
        "rr-k1-eps0": (1, 0.0, RR, 1.3, None, 63, None,
                       "ab8fc4961f47c893e10c6ed1c1ed45ea44b967c8cbe318bd41e7befa567fcfec"),
        "maf-k2-eps0": (2, 0.0, MAF, 1.6, None, 64, None,
                        "dd7da793f87c300b110c14a33296585f2cd5a94d310cc07d3d5e8ce26f93bdce"),
        "maf-k2-eps0-split": (2, 0.0, MAF, 1.6, (1.0, 0.0), 64, None,
                              "dd7da793f87c300b110c14a33296585f2cd5a94d310cc07d3d5e8ce26f93bdce"),
        "rr-k3-split-chunk5": (3, 0.7, RR, 0.7, (1 / 3, 1 / 3, 1 / 3), 62, 5,
                               "d6463d23b71e96c5b6e918026c4c958930a11653dae7f5e08344485c7e7d87bc"),
        "maf-k2-tau0": (2, 0.3, MAF, 0.0, None, 65, None,
                        "f9a0c8746bcc90ad4e8bcf54ce35cea420841bbe1841f8d711f6378bd3673ef1"),
        "rr-k4-eps0.9": (4, 0.9, RR, 0.7, None, 66, None,
                         "d99d62a5664b12a799cdf75a2f65f2aa5134b04252682b1d532416f6dcb64cb7"),
    }

    @pytest.mark.parametrize("case", list(TRACE_SHA256))
    def test_trace_file_bytes(self, tmp_path, monkeypatch, case):
        k, eps, scheme, tau, split, seed, chunk, digest = self.TRACE_SHA256[case]
        if chunk is not None:
            monkeypatch.setattr(sim, "CHUNK_ROUNDS", chunk)
        procs = (ProcessParams(0.1, 1.0), ProcessParams(0.5, 2.0), ProcessParams(1.0, 0.5),
                 ProcessParams(2.0, 4.0))
        cfg = SystemConfig(k=k, f_max=1.5, mu=1.0, eps=eps, processes=procs[:k])
        path = tmp_path / "trace.tsv"
        simulate(cfg, ThresholdPolicy(scheme, tau), n_epochs=5000, seed=seed, wait_split=split,
                 trace_path=os.fspath(path))
        data = path.read_bytes()
        assert data.count(b"\n") == 5001
        if k >= 3:
            assert b"\t\t" in data
        if tau == 0.0:
            assert {line.split(b"\t")[2] for line in data.splitlines()[1:]} == {b"%.11e" % 0.0}
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_schemes_coincide_without_erasures(self, k):
        # At eps=0 a retry burst is one sample that always gets through: both
        # schemes are one system and must give the same statistics, OU probe
        # included, from the same seed.
        procs = (ProcessParams(0.1, 1.0), ProcessParams(0.5, 2.0), ProcessParams(1.0, 0.5))
        cfg = SystemConfig(k=k, f_max=1.0, mu=1.0, eps=0.0, processes=procs[:k])
        maf, rr = (
            simulate(cfg, ThresholdPolicy(scheme, 1.3), n_epochs=2000, seed=51, burn_in=100,
                     track_ou=True)
            for scheme in (MAF, RR)
        )
        assert maf.ou_probe_mse is not None
        assert replace(rr, scheme=MAF) == maf

