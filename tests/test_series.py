"""Analytic building blocks against independent oracles.

Every function with a probabilistic definition is checked three ways where it
matters: frozen hand values, quadrature over the defining density, and Monte
Carlo over the defining random variable (3 standard errors, >= 1e6 draws).

A feedback round is served by Erlang(k, mu (1 - eps)). The reference for that
law is the one it replaces: a negative-binomial mixture of Erlang(rho, mu)
laws over the round's total attempt count rho, built here from scipy's
log-gamma and incomplete gamma functions, and the attempt-by-attempt draws of
:func:`draw_cycle_totals`.
"""

import importlib.util
import math
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gammainc, gammaincc, gammaln

import ouwait.series as series
import ouwait.threshold as threshold
from ouwait import (
    ConvergenceError,
    InvalidConfig,
    ProcessParams,
    Scheme,
    SystemConfig,
    epoch_mean,
    mse_at_tau,
)
from ouwait.series import _counts, _poisson_pmf, _wait_table
from ouwait.threshold import _law, _newton, _response, _transform, search_ceiling

from round_terms import cycle_transform, expected_wait

# A feedback round as attempts: process count, attempt rate and erasure rate.
ATTEMPTS2 = (2, 1.0, 0.3)
# Service laws as (shape, rate): one Exp(1) service, and the feedback round of
# ATTEMPTS2, Erlang(2, 0.7).
M1 = (1, 1.0)
M2 = (2, 1.0 * (1.0 - 0.3))
PROCS = (ProcessParams(0.1, 1.0), ProcessParams(0.5, 2.0))
MAF, RR = Scheme.MAF_FEEDBACK, Scheme.RR_NO_FEEDBACK


def system(procs, eps: float, mu: float = 1.0) -> SystemConfig:
    return SystemConfig(k=len(procs), f_max=1.5, mu=mu, eps=eps, processes=tuple(procs))


def round_transform(tau: float, theta: float, k: int, mu: float) -> float:
    """Transform E[exp(-2 theta max(tau, Y))] of one Erlang(k, mu) round."""
    return float(cycle_transform(tau, theta, k, mu))


def rr_epoch_transform(tau: float, theta: float, k: int, mu: float, eps: float) -> float:
    """The solver's no-feedback epoch transform for k processes of rate theta."""
    cfg = system((ProcessParams(theta, 1.0),) * k, eps, mu)
    return _transform(tau, _law(cfg, RR))[0]


def response(x: float, procs, scheme: Scheme, eps: float) -> float:
    """The solver's threshold response of ``scheme`` for ``procs`` at unit mu."""
    return _response(x, _law(system(procs, eps), scheme))[0]


def mixture_weights(k: int, eps: float):
    """Attempt counts rho >= k of a feedback round and their probabilities.

    rho is a sum of k independent geometric(1 - eps) counts, so its weight is
    ``C(rho-1, k-1) * eps^(rho-k) * (1-eps)^k``. The counts stop once the
    cumulative weight reaches ``1 - 1e-12``, searched for up to
    ``(10 k + 30) / (1 - eps)``, which is far enough for every k and eps these
    tests use.
    """
    if eps == 0.0:
        return np.array([float(k)]), np.array([1.0])
    rhos = np.arange(k, math.ceil((10.0 * k + 30.0) / (1.0 - eps)) + 1.0)
    log_binom = gammaln(rhos) - gammaln(k) - gammaln(rhos - k + 1)
    wts = np.exp(log_binom + (rhos - k) * math.log(eps) + k * math.log1p(-eps))
    n = int(np.searchsorted(np.cumsum(wts), 1.0 - 1e-12)) + 1
    assert n <= len(rhos), "tail weight above 1e-12 at the end of the counts"
    return rhos[:n], wts[:n]


def mixture_expected_wait(tau: float, k: int, mu: float, eps: float) -> float:
    """E[(tau - Y)+] over the mixture: Erlang(rho, mu) terms weighted by rho."""
    rhos, wts = mixture_weights(k, eps)
    terms = tau * gammainc(rhos, mu * tau) - (rhos / mu) * gammainc(rhos + 1, mu * tau)
    return float((wts * terms).sum())


def mixture_cycle_transform(tau: float, thetas, k: int, mu: float, eps: float) -> np.ndarray:
    """E[exp(-2 theta max(tau, Y))] over the mixture, at every rate in ``thetas``."""
    rhos, wts = mixture_weights(k, eps)
    a = 2.0 * np.asarray(thetas, dtype=float)[:, None]
    terms = np.exp(-a * tau) * gammainc(rhos, mu * tau) + (mu / (mu + a)) ** rhos * gammaincc(
        rhos, (mu + a) * tau
    )
    return (wts * terms).sum(axis=-1)


def mixture_pdf(z: float, k: int, mu: float, eps: float) -> float:
    """Independent density oracle for the cycle's total service time."""
    rhos, wts = mixture_weights(k, eps)
    log_terms = (
        rhos * math.log(mu)
        + (rhos - 1) * math.log(max(z, 1e-300))
        - mu * z
        - gammaln(rhos)
    )
    return float((wts * np.exp(log_terms)).sum())


def draw_cycle_totals(k: int, mu: float, eps: float, n, rng):
    """Monte Carlo oracle: total service time of n delivery cycles, drawn as
    geometric(1 - eps) attempt counts of Exp(mu) attempts."""
    if eps > 0:
        counts = rng.geometric(1 - eps, size=(n, k)).sum(axis=1)
    else:
        counts = np.full(n, k)
    return rng.standard_gamma(counts) / mu


def reg_inc_gamma(x: float, y: int) -> float:
    """P(y, x), as the solver's wait reads it off its Poisson table."""
    return _wait_table(x, y, 1.0)[1]


def nb_weight(rho: int, k: int, eps: float) -> float:
    """The mixture's weight of attempt count ``rho``, zero off its support."""
    rhos, wts = mixture_weights(k, eps)
    return float(wts[rhos == rho].sum())


class TestRegIncGamma:
    def test_zero_argument(self):
        # At tau = 5e-324 and rate 0.5 the mean rate * tau underflows to 0 while
        # tau stays positive, so the table is built and summed at a mean of 0.
        waits = [_wait_table(5e-324, y, 0.5) for y in range(1, 6)]
        assert [w[1] for w in waits] == [0.0] * 5
        assert all(w[2] is not None for w in waits)

    def test_exponential_cdf(self):
        assert reg_inc_gamma(1.0, 1) == pytest.approx(1 - math.exp(-1), abs=1e-14)

    def test_shape_three(self):
        assert reg_inc_gamma(2.0, 3) == pytest.approx(1 - 5 * math.exp(-2), abs=1e-14)

    def test_against_scipy_wide_range(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            y = int(rng.integers(1, 400))
            x = rng.uniform(0, 500)
            table = [reg_inc_gamma(x, i) for i in range(1, y + 1)]
            assert table == pytest.approx(gammainc(np.arange(1, y + 1), x), abs=2e-13)

    def test_against_quadrature(self):
        for x, y in ((0.7, 2), (3.0, 4), (12.0, 9)):
            ref, _ = quad(
                lambda t: t ** (y - 1) * math.exp(-t) / math.factorial(y - 1), 0, x
            )
            assert reg_inc_gamma(x, y) == pytest.approx(ref, rel=1e-10)

    def test_monotone_in_x_and_bounded(self):
        xs = np.linspace(0, 40, 300)
        vals = [reg_inc_gamma(x, 7) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_domain_errors(self):
        # The table is private; the public entries reject a negative or
        # non-finite threshold, and a shape below one cannot arise because
        # SystemConfig rejects k < 1.
        cfg = system(PROCS, 0.3)
        for scheme in (MAF, RR):
            for tau in (-1.0, math.nan, math.inf):
                with pytest.raises(InvalidConfig, match="tau"):
                    epoch_mean(tau, cfg, scheme)
                with pytest.raises(InvalidConfig, match="tau"):
                    mse_at_tau(tau, cfg, scheme)
        with pytest.raises(InvalidConfig):
            SystemConfig(k=0, f_max=1.5, mu=1.0, eps=0.3, processes=())


class TestLogFactorials:
    def test_table_against_gammaln_up_to_a_million(self):
        j, log_fact = _counts(10**6)
        ref = gammaln(j + 1.0)
        assert np.all(np.abs(log_fact - ref) <= 4 * np.spacing(ref))
        assert not log_fact.flags.writeable

    def test_slices_of_the_grown_table_equal_tables_built_short(self, monkeypatch):
        # The table grows at 50, 300 and 5000; 200 and 127 are slices of a
        # longer table. Every entry is lgamma's, whatever the request order.
        monkeypatch.setattr(series, "_count_table", (np.empty(0), np.empty(0)))
        for n_max in (50, 300, 200, 5000, 127):
            j, log_fact = _counts(n_max)
            assert j.tobytes() == np.arange(n_max + 1.0).tobytes()
            built = np.array([math.lgamma(i + 1.0) for i in range(n_max + 1)])
            assert log_fact.tobytes() == built.tobytes()
            assert not j.flags.writeable and not log_fact.flags.writeable
        assert len(series._count_table[0]) == 5001

    def test_growing_table_computes_each_entry_once(self, monkeypatch):
        monkeypatch.setattr(series, "_count_table", (np.empty(0), np.empty(0)))
        calls = []
        lgamma = math.lgamma

        def counted(x):
            calls.append(x)
            return lgamma(x)

        monkeypatch.setattr(series.math, "lgamma", counted)
        for n_max in (50, 300, 200, 5000, 127):
            _counts(n_max)
        assert len(calls) == 5001
        assert sorted(calls) == [i + 1.0 for i in range(5001)]

    @pytest.mark.parametrize("k", [1, 2, 4, 16])
    @pytest.mark.parametrize("eps", [0.05, 0.3, 0.7, 0.95])
    def test_mixture_weights_against_gammaln_binomials(self, k, eps):
        # The reference weights against the same closed form with the
        # binomial from this module's log-factorial table; the largest
        # relative gap, about 3e-12, sits in the far tail of k=16, eps=0.95.
        rhos, wts = mixture_weights(k, eps)
        n = int(rhos[-1])
        _, log_fact = _counts(n)
        log_binom = log_fact[k - 1 : n] - log_fact[k - 1] - log_fact[: n - k + 1]
        ref = np.exp(log_binom + (rhos - k) * math.log(eps) + k * math.log1p(-eps))
        np.testing.assert_allclose(wts, ref, rtol=1e-11, atol=0)


class TestPoissonPmf:
    def test_matches_direct_formula(self):
        for x in (1e-3, 0.7, 12.5, 240.0):
            direct = [math.exp(-x) * x**j / math.factorial(j) for j in range(30)]
            assert _poisson_pmf(x, 29) == pytest.approx(direct, rel=1e-12, abs=1e-300)

    def test_zero_mean_is_point_mass_without_warnings(self):
        # A mean of 0 arises only when mu * tau underflows. It is raised to
        # the smallest float, which leaves 5e-324 at count 1 and sums to 1.
        point_mass = [1.0, 5e-324, 0.0, 0.0, 0.0, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalar = _poisson_pmf(0.0, 5)
            # rate * tau underflows to 0 at a positive tau, as in test_zero_argument.
            tables = [_wait_table(5e-324, y, 0.5) for y in range(1, 7)]
        assert scalar.tolist() == point_mass and scalar.sum() == 1.0
        assert [t[1] for t in tables] == [0.0] * 6
        assert [t[2].tolist() for t in tables] == [point_mass[:y] for y in range(1, 7)]

    def test_underflowed_threshold_is_the_zero_wait_limit(self):
        # mu * tau underflows to 0, and so does (mu + 2 theta) * tau for the
        # first rate but not for the second.
        m = (2, 0.2 * (1.0 - 0.3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            near = cycle_transform(5e-324, [0.05, 1.0], *m)
            assert expected_wait(5e-324, *m) == 0.0
        assert near == pytest.approx(cycle_transform(0.0, [0.05, 1.0], *m), rel=1e-14)


class TestMixtureWeights:
    def test_all_success_case(self):
        assert nb_weight(3, 3, 0.25) == pytest.approx(0.75**3, abs=1e-14)

    def test_hand_value(self):
        assert nb_weight(3, 2, 0.5) == pytest.approx(0.25, abs=1e-14)

    def test_normalization_under_truncation(self):
        for eps in (0.0, 0.2, 0.5, 0.7):
            rhos, wts = mixture_weights(2, eps)
            assert wts.sum() == pytest.approx(1.0, abs=1e-10)
            assert rhos[0] == 2

    def test_rho_below_k_rejected(self):
        rhos, _ = mixture_weights(2, 0.3)
        assert rhos.min() == 2
        assert nb_weight(1, 2, 0.3) == 0.0

    def test_mean_matches_wald(self):
        rhos, wts = mixture_weights(2, 0.3)
        assert float((rhos * wts).sum()) == pytest.approx(2 / 0.7, rel=1e-9)

    @pytest.mark.parametrize("k", [1, 2, 4, 16, 64])
    @pytest.mark.parametrize("eps", [0.05, 0.3, 0.7, 0.95])
    def test_feedback_round_is_erlang_at_the_delivery_rate(self, k, eps):
        # A geometric(1 - eps) sum of Exp(mu) draws is Exp(mu (1 - eps)), so
        # a feedback round's service is Erlang(k, mu (1 - eps)): the solver's
        # closed forms at that rate equal the attempt-count mixture.
        mu, thetas = 1.3, [0.05, 0.5, 2.0]
        rate = mu * (1.0 - eps)
        for tau in (0.0, 0.4, 2.5, 10.0, 40.0):
            np.testing.assert_allclose(
                cycle_transform(tau, thetas, k, rate),
                mixture_cycle_transform(tau, thetas, k, mu, eps), rtol=0, atol=1e-12,
            )
            assert expected_wait(tau, k, rate) == pytest.approx(
                mixture_expected_wait(tau, k, mu, eps), rel=0, abs=1e-12 * max(1.0, tau)
            )


def delivery_root() -> float:
    """The root x of x + exp(-x) = 2: the budget threshold of one Exp(1) service
    at f_max = mu / 2, in units of the mean service."""
    return brentq(lambda x: x + math.exp(-x) - 2.0, 1.0, 3.0, xtol=1e-15, rtol=1e-15)


NEAR_ONE = 0.999999


@pytest.mark.parametrize("scheme, scale", [(MAF, 1.0 - NEAR_ONE), (RR, 1.0)], ids=["maf", "rr"])
def test_erasure_rate_near_one_solves_at_the_delivery_rate(scheme, scale):
    # With feedback one round is Exp(1 - eps), so the budget threshold is
    # x / (1 - eps); without feedback a round is Exp(1), and the threshold is
    # x itself. Neither law grows a table with eps.
    cfg = SystemConfig(
        k=1, f_max=0.5, mu=1.0, eps=NEAR_ONE, processes=(ProcessParams(0.5, 1.0),)
    )
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = threshold.solve(cfg, scheme)
        mse_at_tau(1.0, cfg, scheme)
        epoch_mean(1.0, cfg, scheme)
    assert time.perf_counter() - start < 1.0
    assert res.binding
    assert res.tau_star * scale == pytest.approx(delivery_root(), rel=1e-9)


EPS_FLAT = 1.0 - 1e-15


@pytest.mark.parametrize("scheme", [MAF, RR], ids=["maf", "rr"])
@pytest.mark.parametrize("f_max", [0.5, 1.5])
@pytest.mark.parametrize("k", [1, 4, 64])
def test_erasure_rate_within_float_resolution_of_one(k, f_max, scheme):
    # An epoch of at least k / (1 - eps) lets no threshold lower the sum MSE
    # by more than about V / (2 theta k / (1 - eps)): 23 and 3.6 float
    # spacings of its bound V at k = 1 and 4, which still solve, and 0.13 at
    # k = 64, where the optimum is rounding noise and the solve is refused.
    procs = tuple(ProcessParams(float(t), 1.0) for t in np.linspace(0.1, 0.5, k))
    cfg = SystemConfig(k=k, f_max=f_max, mu=1.0, eps=EPS_FLAT, processes=procs)
    if k == 64:
        with pytest.raises(InvalidConfig, match=f"eps = {EPS_FLAT!r} leaves the sum MSE flat"):
            threshold.solve(cfg, scheme)
        return
    res = threshold.solve(cfg, scheme)
    assert 0.0 <= res.tau_star < search_ceiling(cfg)
    assert res.beta_star <= cfg.total_stationary_variance
    assert res.binding == (f_max < cfg.mu)


@pytest.mark.parametrize("scheme", [MAF, RR], ids=["maf", "rr"])
def test_budget_threshold_beyond_unit_float_spacing_solves(scheme):
    # At f_max = 1e-16 the budget threshold rounds to 1e16, where a margin
    # of 1 above the budget vanished and the solve blamed the search ceiling.
    cfg = SystemConfig(k=1, f_max=1e-16, mu=1.0, eps=0.0, processes=(ProcessParams(0.5, 1.0),))
    res = threshold.solve(cfg, scheme)
    assert res.binding
    assert res.tau_star == pytest.approx(1e16, rel=1e-15)
    assert res.tau_star < search_ceiling(cfg)


@pytest.mark.parametrize("k, eps", [(2, 0.9), (64, 0.7)])
def test_feedback_solve_tables_stay_within_shape(monkeypatch, k, eps):
    # An Erlang(k) law needs Poisson terms 0..k and no more; a series over the
    # attempt count would ask for hundreds here.
    lengths = []
    real = series._poisson_pmf

    def recording(x, n_max):
        lengths.append(n_max + 1)
        return real(x, n_max)

    monkeypatch.setattr(series, "_poisson_pmf", recording)
    procs = tuple(ProcessParams(0.1 * (1 + i % 5), 1.0 + 0.5 * (i % 3)) for i in range(k))
    cfg = SystemConfig(k=k, f_max=0.5, mu=1.0, eps=eps, processes=procs)
    threshold.solve(cfg, MAF)
    mse_at_tau(0.0, cfg, MAF)
    assert lengths and max(lengths) <= k + 1


def test_round_powers_of_an_underflowed_lambda():
    # lambda = rate / (2 theta + rate) underflows to 0 at rate 1e-200 and the
    # largest finite 2 theta; its powers are exact zeros, and a warning would
    # fail the test.
    powers = series.ErlangRound(3, 1e-200, (sys.float_info.max, 1.0))._powers
    assert (powers[0] == 0.0).all() and powers[1, -1] == pytest.approx(1e-200, rel=1e-12)


def test_shared_theta_transform_memory_is_linear_in_k():
    # Processes of one theta share one row of the round transform's k-column
    # powers; a row per process would make 2000 x 2000 of them, a 64.6 MB peak.
    # In a mix of shared and distinct thetas each process reads its own rate's row.
    mix = system([ProcessParams(t, s) for t, s in ((0.1, 1.0), (0.5, 2.0), (0.1, 3.0))], 0.3)
    law = _law(mix, RR)
    assert law.round._powers.shape == (2, 3)
    for tau in (0.0, 0.7, 4.0):
        L = law.round.transform(tau)
        assert np.array_equal(L, cycle_transform(tau, [0.1, 0.5, 0.1], 3, law.rate))
    k = 2000
    cfg = system((ProcessParams(0.5, 1.0),) * k, 0.3)
    tracemalloc.start()
    try:
        res, law = threshold._solve(cfg, RR)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    # Every process's transform is the one-rate series formula, bit for bit,
    # at every threshold the solve evaluated.
    assert len(law.round._transforms) > 2
    for tau, L in law.round._transforms.items():
        assert L.tolist() == cycle_transform(tau, [0.5], k, law.rate).tolist() * k
    # The optimum that a row per process gives (tau* 7.24422751548402, beta*
    # 1999.6499999999523), to within the rounding of a sum over 2000 processes.
    assert res.tau_star == pytest.approx(7.24422751548402, rel=1e-9)
    assert res.beta_star == pytest.approx(1999.6499999999523, rel=1e-12)
    assert not res.binding and res.achieved_tol <= 1e-9


def benchmark_workloads():
    """The benchmark's workload module, for its configurations and checks."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name while it executes.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def reference_cases():
    """Every solve the benchmark stores: (key, configuration, scheme)."""
    wl = benchmark_workloads()
    cases = [
        (wl.sweep_key(name, f_max, eps), wl.system(wl.REF_PROCS, f_max, eps), scheme)
        for f_max in wl.FULL.fmax_grid
        for eps in wl.FULL.eps_grid
        for name, scheme in wl.SCHEMES.items()
    ]
    cases += [
        (wl.wide_key(name, k), wl.system(wl.wide_procs(k), **wl.WIDE_SYSTEM), scheme)
        for k in wl.FULL.wide_ks
        for name, scheme in wl.SCHEMES.items()
    ]
    cases += [
        (f"{label}/{name}", wl.system(wl.REF_PROCS, **system), scheme)
        for label, system in (("corner", wl.CORNER), ("probe", wl.PROBE_SYSTEM))
        for name, scheme in wl.SCHEMES.items()
    ]
    return wl, cases


BENCH, REFERENCE_CASES = reference_cases()


def test_reference_cases_cover_every_stored_solve():
    keys = [key for key, _, _ in REFERENCE_CASES]
    assert sorted(keys) == sorted(BENCH.load_reference()) and len(keys) == 124


@pytest.mark.parametrize("key, cfg, scheme", REFERENCE_CASES, ids=[c[0] for c in REFERENCE_CASES])
def test_benchmark_reference_solve(key, cfg, scheme):
    # The benchmark's own tolerances, so a numerical regression shows here
    # without running it.
    ref = BENCH.load_reference()[key]
    res = threshold.solve(cfg, scheme)
    got = {"tau_star": res.tau_star, "beta_star": res.beta_star}
    if "zero_wait_mse" in ref:
        got["zero_wait_mse"] = mse_at_tau(0.0, cfg, scheme)
    for name, value in got.items():
        assert math.isclose(value, ref[name], rel_tol=BENCH.REL_TOL, abs_tol=BENCH.ABS_TOL), name
    assert res.binding == ref["binding"]


@pytest.mark.parametrize("k", BENCH.FULL.wide_ks)
@pytest.mark.parametrize("scheme", [MAF, RR], ids=["maf", "rr"])
def test_binding_solve_evaluates_the_response_once(monkeypatch, rounds, k, scheme):
    # The inversion starts at the budget threshold and stops there: one
    # response evaluation, on the round transform the first ratio has taken.
    responses = []
    real_response = threshold._response

    def counting_response(*args):
        responses.append(args[0])
        return real_response(*args)

    monkeypatch.setattr(threshold, "_response", counting_response)
    res = threshold.solve(BENCH.system(BENCH.wide_procs(k), **BENCH.WIDE_SYSTEM), scheme)
    assert res.binding
    assert responses == [res.tau_star]
    (law_round,) = rounds
    assert len(law_round.computed) <= 1


# Poisson tables of the six wide binding solves by (k, scheme): Brent's method
# on the budget bracket, with the wait and the round transform each building
# their own table, took 10, 9 and 8 for k = 4, 16 and 64 under both schemes;
# Newton's method with a second table at the shifted rates took 5/5, 5/4, 3/3.
WIDE_TABLES = {(4, MAF): 4, (4, RR): 4, (16, MAF): 4, (16, RR): 3, (64, MAF): 2, (64, RR): 2}


@pytest.mark.parametrize("k", BENCH.FULL.wide_ks)
@pytest.mark.parametrize("scheme", [MAF, RR], ids=["maf", "rr"])
def test_wide_binding_solve_poisson_tables(monkeypatch, k, scheme):
    # One table per threshold serves the epoch mean, its slope and the round
    # transform, which reads that table's probabilities: there is no other.
    calls = []
    real = series._poisson_pmf

    def counting(x, n_max):
        calls.append(n_max)
        return real(x, n_max)

    monkeypatch.setattr(series, "_poisson_pmf", counting)
    assert threshold.solve(BENCH.system(BENCH.wide_procs(k), **BENCH.WIDE_SYSTEM), scheme).binding
    assert len(calls) == WIDE_TABLES[k, scheme]


@pytest.mark.parametrize("scheme", [MAF, RR], ids=["maf", "rr"])
def test_solver_round_terms_equal_the_series_formulas(scheme):
    # The law's memoized wait and round transform are those of a fresh round
    # at its shape and rate, bit for bit, on a grid of thresholds.
    cfg = system(PROCS, 0.3)
    law = _law(cfg, scheme)
    thetas = [p.theta for p in PROCS]
    for tau in [0.0, 5e-324, 1e-9, *np.linspace(0.01, 40.0, 57)]:
        tau = float(tau)
        L = law.round.transform(tau)
        assert np.array_equal(L, cycle_transform(tau, thetas, law.k, law.rate))
        assert law.round.wait(tau)[0] == expected_wait(tau, law.k, law.rate)
        assert epoch_mean(tau, cfg, scheme) == threshold._epoch_mean(tau, law)


# The budget-threshold grid: shapes, erasure rates and budgets from the
# unbinding edge (f_max just under mu) to a budget threshold near 1e24.
NEWTON_KS = (1, 4, 64)
NEWTON_EPS = (0.0, 0.5, 0.999999)
NEWTON_FMAX = (1e-16, 0.5, 0.95, 1.0 - 1e-9)


class TestNewtonBudgetThreshold:
    @pytest.mark.parametrize("f_max", NEWTON_FMAX)
    @pytest.mark.parametrize("eps", NEWTON_EPS)
    @pytest.mark.parametrize("k", NEWTON_KS)
    @pytest.mark.parametrize("scheme", [MAF, RR], ids=["maf", "rr"])
    def test_against_brentq(self, scheme, k, eps, f_max):
        tol = 1e-10  # the inversions' tolerance at the default solve tolerance
        procs = tuple(ProcessParams(float(t), 1.0) for t in np.linspace(0.1, 0.5, k))
        cfg = SystemConfig(k=k, f_max=f_max, mu=1.0, eps=eps, processes=procs)
        law = _law(cfg, scheme)
        budget = threshold._budget(cfg)
        top = budget * (1.0 - law.r)
        lo = max(0.0, top - law.k / law.rate)
        tau_b = threshold._budget_threshold(cfg, law, tol)

        def excess(t):
            return epoch_mean(t, cfg, scheme) - budget

        if excess(top) <= 0.0:
            root = top
        elif excess(lo) >= 0.0:
            root = lo
        else:
            root = brentq(excess, lo, top, xtol=1e-14, rtol=4 * np.finfo(float).eps)
        assert lo <= tau_b <= top
        if abs(tau_b - root) > max(tol, math.ulp(tau_b)):
            # Where the slope P(k, rate tau) is small, as at f_max = 1 - 1e-9,
            # the computed epoch mean stays within its rounding error of the
            # budget over an interval wider than tol: each of its k + 1
            # Poisson terms is good to about one float spacing of 1, scaled
            # by at most tau + k/rate. That interval is the crossing, and both
            # roots must lie in it.
            noise = (k + 1) * np.finfo(float).eps * (top + law.k / law.rate) / (1.0 - law.r)
            between = np.linspace(min(tau_b, root), max(tau_b, root), 41)
            assert max(abs(excess(float(t))) for t in between) <= noise

    def test_zero_slope_takes_halving_steps(self):
        # Convex and flat at 1 on [0, 1]: the target 1/2 lies below the whole
        # bracket, so the Newton steps overshoot the lower end and then meet
        # a slope of 0. Each must halve the bracket instead of stepping to inf.
        points = []

        def f(t):
            points.append(t)
            excess = max(t - 1.0, 0.0)
            return 1.0 + excess * excess, 2.0 * excess

        tol = 1e-10
        t = threshold._newton(f, 0.5, 3.0, tol, lo=0.0)
        assert 0.0 <= t <= tol
        assert all(0.0 <= x <= 3.0 for x in points)
        flat = [i for i, x in enumerate(points) if x < 1.0]
        assert flat and flat == list(range(flat[0], len(points)))
        # The first flat point halves the bracket [0, 1.15...] the overshooting
        # step would have left; every later one halves its predecessor.
        assert all(points[i + 1] == 0.5 * points[i] for i in flat[:-1])

    def test_quadratic_convergence_from_above(self):
        points = []

        def f(t):
            points.append(t)
            return math.exp(t), math.exp(t)

        t = threshold._newton(f, math.e, 3.0, 1e-12, lo=0.0)
        assert t == pytest.approx(1.0, abs=1e-12)
        assert all(b < a for a, b in zip(points, points[1:]))
        assert len(points) <= 8

    def test_step_limit_is_a_convergence_error(self, monkeypatch):
        monkeypatch.setattr(threshold, "MAX_STEPS", 2)
        with pytest.raises(ConvergenceError, match="Newton"):
            threshold._newton(lambda t: (math.exp(t), math.exp(t)), math.e, 3.0, 1e-12, lo=0.0)


def laplace_exp_service(theta: float, mu: float) -> float:
    """The solver's Laplace transform of one exponential service at rate 2 theta."""
    return _law(system((ProcessParams(theta, 1.0),), 0.0, mu), MAF).lap[0]


class TestLaplaceExpService:
    def test_degenerate_limit(self):
        assert laplace_exp_service(1e-12, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_direct_value(self):
        assert laplace_exp_service(0.5, 1.0) == 0.5

    def test_monte_carlo(self):
        rng = np.random.default_rng(21)
        y = rng.exponential(1.0, size=10**6)
        vals = np.exp(-2 * 0.7 * y)
        assert laplace_exp_service(0.7, 1.0) == pytest.approx(
            float(vals.mean()), abs=3 * float(vals.std()) / 1000
        )


class TestHMaf:
    def test_zero_threshold(self):
        assert expected_wait(0.0, *M2) == 0.0

    def test_single_exponential_hand_value(self):
        ref, _ = quad(lambda y: (1 - y) * math.exp(-y), 0, 1)
        assert expected_wait(1.0, *M1) == pytest.approx(ref, rel=1e-10)
        assert expected_wait(1.0, *M1) == pytest.approx(math.exp(-1), abs=1e-12)

    def test_large_threshold_asymptote(self):
        tau = 200.0
        assert expected_wait(tau, *M2) == pytest.approx(tau - 2 / 0.7, abs=1e-8)

    def test_against_mixture_quadrature(self):
        for tau in (0.5, 1.7, 4.0):
            ref, _ = quad(lambda z: (tau - z) * mixture_pdf(z, *ATTEMPTS2), 0, tau, limit=200)
            assert expected_wait(tau, *M2) == pytest.approx(ref, rel=1e-8)

    def test_monte_carlo(self):
        rng = np.random.default_rng(31)
        totals = draw_cycle_totals(*ATTEMPTS2, 10**6, rng)
        for tau in (1.0, 3.0):
            w = np.maximum(tau - totals, 0.0)
            assert expected_wait(tau, *M2) == pytest.approx(
                float(w.mean()), abs=3 * float(w.std()) / 1000
            )

    def test_nondecreasing_and_convex(self):
        taus = np.linspace(0, 12, 240)
        vals = np.array([expected_wait(t, *M2) for t in taus])
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all(np.diff(vals, 2) >= -1e-9)


class TestFMaf:
    def test_zero_threshold_single(self):
        assert cycle_transform(0.0, 0.5, *M1) == pytest.approx(0.5, abs=1e-12)

    def test_vanishes_at_large_threshold(self):
        assert cycle_transform(80.0, 0.5, *M2) == pytest.approx(0.0, abs=1e-12)

    def test_against_mixture_quadrature(self):
        for tau, th in ((0.8, 0.1), (1.6, 0.5)):
            a = 2 * th
            inner, _ = quad(lambda z: mixture_pdf(z, *ATTEMPTS2), 0, tau, limit=200)
            outer, _ = quad(
                lambda z: math.exp(-a * z) * mixture_pdf(z, *ATTEMPTS2), tau, 120, limit=200
            )
            assert cycle_transform(tau, th, *M2) == pytest.approx(
                math.exp(-a * tau) * inner + outer, rel=1e-7
            )

    def test_monte_carlo_epoch_construction(self):
        rng = np.random.default_rng(41)
        totals = draw_cycle_totals(*ATTEMPTS2, 10**6, rng)
        for tau, th in ((1.0, 0.5), (2.5, 0.1)):
            vals = np.exp(-2 * th * np.maximum(tau, totals))
            assert cycle_transform(tau, th, *M2) == pytest.approx(
                float(vals.mean()), abs=3 * float(vals.std()) / 1000
            )

    def test_against_incomplete_gamma_reference(self):
        # The direct form exp(-2 theta tau) P(k, rate tau) + lambda^k Q(k,
        # (rate + 2 theta) tau), with lambda^k = exp(-k log1p(2 theta / rate)),
        # from scipy's incomplete gamma functions; against 40-digit mpmath it
        # is within 7e-16 on this grid. The sum over the wait's own table stays
        # within 1e-14 absolute everywhere; a second table at the shifted rates
        # did not (1.25e-14 here).
        rng = np.random.default_rng(2303)
        n = 2100
        ks = rng.choice([1, 2, 3, 4, 8, 16, 64], n)
        rates = 10 ** rng.uniform(-2, 2, n)
        thetas = 10 ** rng.uniform(-3, 1.5, n)
        taus = ks * 10 ** rng.uniform(-3, 1.5, n) / rates
        a = 2 * thetas
        ref = np.exp(-a * taus) * gammainc(ks, rates * taus) + np.exp(
            -ks * np.log1p(a / rates)
        ) * gammaincc(ks, (rates + a) * taus)
        got = [float(cycle_transform(*point)) for point in zip(taus, thetas, ks.tolist(), rates)]
        assert np.max(np.abs(np.array(got) - ref)) <= 1e-14

    def test_rates_at_once_match_one_rate_each(self):
        # tau = 0 puts a zero mean into the Poisson table (log 0).
        thetas = np.geomspace(1e-3, 10.0, 9)
        for m in (M1, M2, (3, 1.3), (4, 0.7 * (1.0 - 0.8))):
            for tau in (0.0, 1e-9, 0.7, 3.0, 40.0):
                vals = cycle_transform(tau, thetas, *m)
                assert vals.shape == thetas.shape
                assert np.all(np.isfinite(vals))
                singles = [float(cycle_transform(tau, th, *m)) for th in thetas]
                assert vals.tolist() == singles

    def test_in_unit_interval_and_nonincreasing(self):
        taus = np.linspace(0, 10, 100)
        vals = np.array([cycle_transform(t, 0.5, *M2) for t in taus])
        assert np.all((vals > 0) & (vals <= 1))
        assert np.all(np.diff(vals) <= 1e-12)


class TestGMaf:
    def test_saturation(self):
        total = sum(p.stationary_variance for p in PROCS)
        assert response(300.0, PROCS, MAF, 0.3) == pytest.approx(total, abs=1e-10)

    def test_hand_value_at_zero(self):
        single = (ProcessParams(0.5, 1.0),)
        assert response(0.0, single, MAF, 0.3) == pytest.approx(0.5, abs=1e-14)

    def test_strictly_increasing(self):
        xs = np.linspace(0, 40, 500)
        vals = np.array([response(x, PROCS, MAF, 0.3) for x in xs])
        assert np.all(np.diff(vals) > 0)


class TestRoundFunctions:
    def test_h_rr_zero_and_hand_value(self):
        assert expected_wait(0.0, 2, 1.0) == 0.0
        assert expected_wait(1.0, 1, 1.0) == pytest.approx(math.exp(-1), abs=1e-12)

    def test_h_rr_equals_h_maf_without_erasures(self):
        # The Erlang round's E[(tau - Y)+] against scipy's incomplete gamma.
        for tau in np.linspace(0, 8, 60):
            ref = tau * gammainc(3, 1.3 * tau) - (3 / 1.3) * gammainc(4, 1.3 * tau)
            assert abs(expected_wait(tau, 3, 1.3) - ref) <= 1e-10

    def test_h_rr_convex(self):
        taus = np.linspace(0, 10, 200)
        vals = np.array([expected_wait(t, 2, 1.0) for t in taus])
        assert np.all(np.diff(vals, 2) >= -1e-9)

    def test_l_rr_boundaries(self):
        assert round_transform(0.0, 0.5, 2, 1.0) == pytest.approx(0.25, abs=1e-12)
        assert round_transform(100.0, 0.5, 2, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_l_rr_against_erlang_quadrature(self):
        tau, th, k, mu = 1.0, 0.5, 2, 1.0
        a = 2 * th
        pdf = lambda y: mu**k * y ** (k - 1) * math.exp(-mu * y) / math.factorial(k - 1)
        lo, _ = quad(lambda y: math.exp(-a * tau) * pdf(y), 0, tau)
        hi, _ = quad(lambda y: math.exp(-a * y) * pdf(y), tau, 80)
        assert round_transform(tau, th, k, mu) == pytest.approx(lo + hi, abs=1e-8)

    def test_l_rr_monte_carlo(self):
        rng = np.random.default_rng(51)
        rounds = rng.standard_gamma(2, size=10**6)
        vals = np.exp(-1.0 * np.maximum(1.0, rounds))
        assert round_transform(1.0, 0.5, 2, 1.0) == pytest.approx(
            float(vals.mean()), abs=3 * float(vals.std()) / 1000
        )

    def test_f_rr_reduces_to_l_without_erasures(self):
        for tau in (0.0, 0.7, 2.0):
            assert rr_epoch_transform(tau, 0.5, 2, 1.0, 0.0) == round_transform(
                tau, 0.5, 2, 1.0
            )

    def test_f_rr_hand_value(self):
        assert rr_epoch_transform(0.0, 0.5, 1, 1.0, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_f_rr_geometric_round_monte_carlo(self):
        rng = np.random.default_rng(61)
        eps, tau, th, k = 0.3, 1.0, 0.5, 2
        n_rounds = 3 * 10**6
        totals = rng.standard_gamma(k, size=n_rounds)
        counts = rng.geometric(1 - eps, size=6 * 10**5)
        stops = np.cumsum(counts)
        stops = stops[stops < n_rounds]
        gam = np.add.reduceat(np.maximum(tau, totals), np.concatenate(([0], stops))[:-1])
        vals = np.exp(-2 * th * gam)
        assert rr_epoch_transform(tau, th, k, 1.0, eps) == pytest.approx(
            float(vals.mean()), abs=3 * float(vals.std()) / math.sqrt(len(vals))
        )

    def test_f_l_in_range_and_nonincreasing(self):
        taus = np.linspace(0, 8, 80)
        for fn in (
            lambda t: round_transform(t, 0.5, 2, 1.0),
            lambda t: rr_epoch_transform(t, 0.5, 2, 1.0, 0.3),
        ):
            vals = np.array([fn(t) for t in taus])
            assert np.all((vals > 0) & (vals <= 1))
            assert np.all(np.diff(vals) <= 1e-12)


class TestGRr:
    def test_matches_g_maf_without_erasures(self):
        for x in np.linspace(0, 20, 50):
            assert response(x, PROCS, RR, 0.0) == response(x, PROCS, MAF, 0.0)

    def test_saturation(self):
        total = sum(p.stationary_variance for p in PROCS)
        assert response(300.0, PROCS, RR, 0.3) == pytest.approx(total, abs=1e-10)

    def test_strictly_increasing_fine_grid(self):
        xs = np.linspace(0.0, 25.0, 1000)
        vals = np.array([response(x, PROCS, RR, 0.3) for x in xs])
        assert np.all(np.diff(vals) > 0)


class TestEpsZeroFamilyCoincidence:
    def test_pointwise_identities(self):
        # Without erasures both schemes map onto one law, so the epoch mean,
        # the epoch transforms and the threshold response agree exactly.
        cfg0 = system(PROCS, 0.0)
        maf, rr = _law(cfg0, MAF), _law(cfg0, RR)
        assert maf == rr
        for tau in np.linspace(0, 15, 120):
            assert epoch_mean(tau, cfg0, MAF) == epoch_mean(tau, cfg0, RR)
            assert _transform(tau, maf) == _transform(tau, rr)
            assert _response(tau, maf) == _response(tau, rr)


class TestInvertMonotone:
    # Newton's method on nondecreasing functions that return their slope,
    # started at either end of the bracket or inside it.
    def test_identity(self):
        assert _newton(lambda x: (x, 1.0), 0.7, 1.0, 1e-9, lo=0.0) == pytest.approx(0.7, abs=1e-9)

    def test_inverts_expected_wait(self):
        # The wait's slope is P(k, rate t), the second of its terms; the slope
        # of 0 at the start takes a halving step.
        root = _newton(lambda t: _wait_table(t, *M1)[:2], math.exp(-1), 10.0, 1e-10,
                       lo=0.0, start=0.0)
        assert root == pytest.approx(1.0, abs=1e-9)

    def test_bracket_error_is_distinct(self, monkeypatch):
        monkeypatch.setattr(threshold, "MAX_STEPS", 3)
        with pytest.raises(ConvergenceError):
            _newton(lambda x: (x**3, 3.0 * x * x), 0.5, 1.0, 1e-9, lo=0.0)

    def test_clamped_inversion_evaluates_each_end_once(self):
        for start in (0.0, 1.0):
            calls = []

            def f(x):
                calls.append(x)
                return x**3, 3.0 * x * x

            root = _newton(f, 0.3, 1.0, 1e-9, lo=0.0, start=start)
            assert calls.count(start) == 1 and calls.count(1.0 - start) <= 1
            cube_root = brentq(lambda x: x**3 - 0.3, 0.0, 1.0, xtol=1e-12)
            assert root == pytest.approx(cube_root, abs=1e-9)

    def test_randomized_monotone_functions(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            a, b = rng.uniform(0.1, 3.0, size=2)
            f = lambda x: (a * x + b * x**3, a + 3.0 * b * x * x)
            target = f(rng.uniform(0, 2))[0]
            root = _newton(f, target, 2.0, 1e-11, lo=0.0, start=rng.uniform(0, 2))
            assert f(root)[0] == pytest.approx(target, abs=1e-8)


def test_default_tau_max_saturates_transforms():
    tmax = search_ceiling(system(PROCS, 0.3))
    assert cycle_transform(tmax, min(p.theta for p in PROCS), *M2) < 1e-12
    sat = sum(p.stationary_variance for p in PROCS)
    assert response(tmax, PROCS, MAF, 0.3) == pytest.approx(sat, abs=1e-12)
    assert response(tmax, PROCS, RR, 0.3) == pytest.approx(sat, abs=1e-12)
