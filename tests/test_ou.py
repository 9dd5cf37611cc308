"""Process-dynamics layer: exact transition and error formulas."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ouwait import (
    InvalidConfig,
    ProcessParams,
    inst_mse,
    mse_integral,
    ou_step,
)
from ouwait.ou import _error_integral, _inst_mse

P = ProcessParams(theta=0.5, sigma_sq=1.0)
# Zeros, tiny and huge values, and ordinary ones: ages and gaps of a run.
NONNEGATIVE = st.one_of(st.just(0.0), st.floats(0.0, 1e-300), st.floats(0.0, 50.0),
                        st.floats(0.0, 1e300))


class TestOuStep:
    def test_zero_horizon_is_identity(self):
        assert ou_step(3.2, 0.0, P, 1.7) == 3.2

    def test_conditional_mean_decay(self):
        assert ou_step(1.0, 2.0, P, 0.0) == pytest.approx(math.exp(-1.0), abs=1e-12)

    @pytest.mark.parametrize("dt", [-0.1, math.nan])
    def test_negative_horizon_rejected(self, dt):
        with pytest.raises(InvalidConfig):
            ou_step(0.0, dt, P, 0.0)

    def test_long_horizon_reaches_stationary_variance(self):
        rng = np.random.default_rng(101)
        x = ou_step(np.zeros(10**6), 50.0, P, rng.standard_normal(10**6))
        assert np.var(x) == pytest.approx(P.stationary_variance, rel=0.01)

    def test_two_substeps_match_one_step_moments(self):
        # Exact law: splitting the horizon must preserve conditional mean and
        # variance. Checked on first and second moments of many draws.
        rng = np.random.default_rng(202)
        n = 2 * 10**5
        x0, dt1, dt2 = 1.3, 0.4, 0.9
        mid = ou_step(np.full(n, x0), dt1, P, rng.standard_normal(n))
        end = ou_step(mid, dt2, P, rng.standard_normal(n))
        mean_exact = x0 * math.exp(-P.theta * (dt1 + dt2))
        var_exact = P.stationary_variance * (1 - math.exp(-2 * P.theta * (dt1 + dt2)))
        assert np.mean(end) == pytest.approx(mean_exact, abs=4 * math.sqrt(var_exact / n))
        assert np.var(end) == pytest.approx(var_exact, rel=0.02)


class TestInstMse:
    def test_fresh_sample(self):
        assert inst_mse(0.0, P) == 0.0

    def test_saturates_at_stationary_variance(self):
        assert inst_mse(1e9, P) == pytest.approx(1.0, abs=1e-12)

    def test_unit_age(self):
        assert inst_mse(1.0, P) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_strictly_increasing_and_bounded(self):
        ages = np.linspace(0, 30, 400)
        vals = inst_mse(ages, P)
        assert np.all(np.diff(vals) > 0)
        assert np.all(vals <= P.stationary_variance)

    @pytest.mark.parametrize("age", [-1e-9, math.nan])
    def test_negative_age_rejected(self, age):
        with pytest.raises(InvalidConfig):
            inst_mse(age, P)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(NONNEGATIVE, min_size=1, max_size=32),
           st.floats(0.01, 10.0), st.floats(0.01, 10.0))
    def test_in_place_kernel_keeps_every_bit(self, ages, theta, sigma_sq):
        # The OU probe takes the closed-form error at each delivery's age from
        # the unchecked kernel, written over the age array; its operations are
        # those of the formula, so the bits are those of the formula written
        # out and of the public function.
        p = ProcessParams(theta, sigma_sq)
        age = np.array(ages)
        formula = p.stationary_variance * -np.expm1(-2.0 * p.theta * age)
        buffer = age.copy()
        kernel = _inst_mse(buffer, p)
        assert kernel is buffer
        scalar = np.array([inst_mse(float(age[-1]), p)])
        for got, want in ((kernel, formula), (inst_mse(age, p), formula),
                          (scalar, formula[-1:])):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_public_function_leaves_its_argument(self):
        ages = np.array([0.0, 0.5, 2.0])
        inst_mse(ages, P)
        assert ages.tolist() == [0.0, 0.5, 2.0]


class TestMseIntegral:
    def test_empty_interval(self):
        assert mse_integral(2.7, 0.0, P) == 0.0

    def test_saturated_age(self):
        assert mse_integral(1e9, 5.0, P) == pytest.approx(5.0, abs=1e-9)

    def test_fresh_start_unit_interval(self):
        assert mse_integral(0.0, 1.0, P) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(303)
        for _ in range(25):
            p = ProcessParams(theta=rng.uniform(0.05, 3.0), sigma_sq=rng.uniform(0.2, 4.0))
            a0, dt = rng.uniform(0, 5), rng.uniform(0, 8)
            ref, err = quad(lambda u: inst_mse(a0 + u, p), 0, dt, epsabs=1e-13, epsrel=1e-12)
            assert mse_integral(a0, dt, p) == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_additive_over_subintervals(self):
        rng = np.random.default_rng(404)
        for _ in range(50):
            a, d1, d2 = rng.uniform(0, 10, size=3)
            whole = mse_integral(a, d1 + d2, P)
            split = mse_integral(a, d1, P) + mse_integral(a + d1, d2, P)
            assert abs(whole - split) < 1e-12

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(NONNEGATIVE, NONNEGATIVE), min_size=1, max_size=32),
           st.floats(0.01, 10.0), st.floats(0.01, 10.0))
    def test_in_place_kernel_keeps_every_bit(self, pairs, theta, sigma_sq):
        # The simulator integrates a chunk's errors in place over its age row;
        # each operation keeps the operands of the closed form, so the bits
        # are those of the formula written out and of the public function.
        p = ProcessParams(theta, sigma_sq)
        age0, dt = np.array(pairs).T.copy()
        two_theta = 2.0 * p.theta
        formula = p.stationary_variance * (
            dt + (1.0 / two_theta) * np.exp(-two_theta * age0) * np.expm1(-two_theta * dt)
        )
        buffer = age0.copy()
        kernel = _error_integral(buffer, dt, p.theta, p.stationary_variance)
        assert kernel is buffer
        scalar = np.array([mse_integral(float(age0[-1]), float(dt[-1]), p)])
        for got, want in ((kernel, formula), (mse_integral(age0, dt, p), formula),
                          (scalar, formula[-1:])):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # A window of several processes passes a (k, m) table with a (k, 1)
        # column of each parameter: each row must be that row's own call.
        ps = [ProcessParams(theta * f, sigma_sq * g) for f, g in ((1, 1), (0.5, 2), (3, 0.25))]
        ages, dts = (np.stack([np.roll(a, i) for i in range(len(ps))]) for a in (age0, dt))
        table = _error_integral(ages.copy(), dts, np.array([[q.theta] for q in ps]),
                                np.array([[q.stationary_variance] for q in ps]))
        for row, a, d, q in zip(table, ages, dts, ps):
            want = _error_integral(a.copy(), d, q.theta, q.stationary_variance)
            assert np.array_equal(row.view(np.int64), want.view(np.int64))

    def test_theta_whose_reciprocal_overflows_rejected(self):
        # The least theta with 1 / (2 theta) finite is accepted and gives a
        # finite integral; the float below it made -inf, and is refused.
        least = 2.781342323134007e-309
        assert math.isfinite(mse_integral(0.5, 1.0, ProcessParams(least, 1e-300)))
        below = ProcessParams(math.nextafter(least, 0.0), 1e-300)
        with pytest.raises(InvalidConfig, match="theta=2.781342323134e-309"):
            mse_integral(0.5, 1.0, below)

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    def test_negative_inputs_rejected(self, bad):
        with pytest.raises(InvalidConfig):
            mse_integral(bad, 1.0, P)
        with pytest.raises(InvalidConfig):
            mse_integral(1.0, bad, P)


def test_process_params_validation():
    with pytest.raises(InvalidConfig):
        ProcessParams(theta=0.0, sigma_sq=1.0)
    with pytest.raises(InvalidConfig):
        ProcessParams(theta=1.0, sigma_sq=-1.0)


@pytest.mark.parametrize(
    "theta, sigma_sq, names",
    [(1e308, 1.0, "2 * theta"), (1e-300, 1e300, "sigma_sq / (2 * theta)"),
     (1e300, 1e-300, "sigma_sq / (2 * theta)")],
    ids=["two-theta-overflows", "variance-overflows", "variance-underflows"],
)
def test_process_params_with_unusable_error_law_rejected(theta, sigma_sq, names):
    # Each input is finite and positive, but the error law built from it is not.
    with pytest.raises(InvalidConfig, match=re.escape(names)):
        ProcessParams(theta=theta, sigma_sq=sigma_sq)
