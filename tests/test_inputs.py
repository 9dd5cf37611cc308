"""The input contract of every public entry.

A real parameter is a real number and an epoch count or seed is an integer,
never a bool. A bad value raises ``InvalidConfig`` with a one-line message
that names the field, and no ``TypeError`` reaches the caller. A numpy
``float32`` or ``int64`` is stored as the Python ``float`` or ``int`` of the
same value, so it gives the answer of that Python number. The ``ou``
functions take arrays, which numpy converts to float64, and reject a nan or
negative entry.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ouwait import (
    Axis,
    InvalidConfig,
    ProcessParams,
    Scheme,
    SweepSpec,
    SystemConfig,
    ThresholdPolicy,
    epoch_mean,
    inst_mse,
    mse_at_tau,
    mse_integral,
    ou_step,
    simulate,
    solve,
)

INPUT_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

PROCS = (ProcessParams(0.1, 1.0), ProcessParams(0.5, 2.0))
CFG = SystemConfig(k=2, f_max=1.5, mu=1.0, eps=0.3, processes=PROCS)
SCHEMES = st.sampled_from(list(Scheme))

# No kind of number: text, flags, None, a complex number, containers, objects.
NOT_NUMBERS = st.sampled_from(
    ["1", "0.5", "nan", "", b"1", True, False, np.bool_(True), None, 1j, [1.0], (), object()]
)
NON_FINITE = st.sampled_from(
    [math.nan, math.inf, -math.inf, np.float64("nan"), np.float32("inf"), -np.inf]
)
NEGATIVE = st.one_of(
    st.floats(max_value=-5e-324, allow_infinity=False),
    st.integers(max_value=-1),
    st.sampled_from([np.float32(-0.5), np.int64(-3)]),
)
NONPOSITIVE = st.one_of(NEGATIVE, st.sampled_from([0.0, -0.0, 0, np.float64(0.0)]))
# Python integers past the float range.
HUGE = st.integers(min_value=2**1024, max_value=2**1100)
NOT_POSITIVE = st.one_of(NOT_NUMBERS, NON_FINITE, NONPOSITIVE, HUGE)
NOT_NONNEGATIVE = st.one_of(NOT_NUMBERS, NON_FINITE, NEGATIVE, HUGE)


def not_counts(lo: int):
    """Values that no count at or above ``lo`` accepts, floats of whole values among them."""
    return st.one_of(
        NOT_NUMBERS, NON_FINITE, st.integers(max_value=lo - 1),
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([2.0, 5000.0, np.float64(3.0), np.float32(1.0)]),
    )


# Valid values, as numpy scalars of the types a numpy user would pass.
F32 = st.floats(0.05, 5.0).map(np.float32)


def rejects(field: str, call, *args, **kwargs) -> None:
    """``call`` raises InvalidConfig with a one-line message that names ``field``."""
    with pytest.raises(InvalidConfig) as info:
        call(*args, **kwargs)
    message = str(info.value)
    assert "\n" not in message and field in message, message


def exact_python(value, like) -> None:
    """``value`` is a Python float or int equal to ``like``, itself one."""
    assert type(value) is type(like) and type(like) in (float, int)
    assert value == like


@INPUT_SETTINGS
@given(st.data())
def test_process_params(data):
    field = data.draw(st.sampled_from(["theta", "sigma_sq"]))
    rate_too_large = st.floats(min_value=2.0**1023, allow_infinity=False)
    bad = data.draw(st.one_of(NOT_POSITIVE, rate_too_large) if field == "theta" else NOT_POSITIVE)
    rejects(field, ProcessParams, **{"theta": 0.5, "sigma_sq": 1.0, field: bad})

    theta, sigma_sq = data.draw(F32), data.draw(F32)
    p = ProcessParams(theta, sigma_sq)
    exact_python(p.theta, float(theta))
    exact_python(p.sigma_sq, float(sigma_sq))


@INPUT_SETTINGS
@given(st.data())
def test_system_config(data):
    field = data.draw(st.sampled_from(["k", "f_max", "mu", "eps"]))
    at_least_one = st.one_of(st.floats(min_value=1.0, allow_infinity=False), st.integers(1))
    bad = data.draw({
        "k": not_counts(1),
        "f_max": NOT_POSITIVE,
        "mu": NOT_POSITIVE,
        "eps": st.one_of(NOT_NONNEGATIVE, at_least_one),
    }[field])
    values = dict(k=2, f_max=1.5, mu=1.0, eps=0.3, processes=PROCS)
    rejects(field, SystemConfig, **{**values, field: bad})

    f_max, mu = data.draw(F32), data.draw(F32)
    eps = np.float32(data.draw(st.floats(0.0, 0.9)))
    cfg = SystemConfig(k=np.int64(2), f_max=f_max, mu=mu, eps=eps, processes=PROCS)
    plain = SystemConfig(k=2, f_max=float(f_max), mu=float(mu), eps=float(eps), processes=PROCS)
    for name in ("k", "f_max", "mu", "eps"):
        exact_python(getattr(cfg, name), getattr(plain, name))
    assert cfg == plain


@INPUT_SETTINGS
@given(SCHEMES, NOT_NONNEGATIVE, F32)
def test_threshold_policy(scheme, bad, tau):
    rejects("tau", ThresholdPolicy, scheme, bad)
    exact_python(ThresholdPolicy(scheme, tau).tau, float(tau))


@settings(INPUT_SETTINGS, max_examples=30)
@given(st.data())
def test_solve(data):
    scheme = data.draw(SCHEMES)
    below_floor = st.floats(5e-324, 1e-16)
    rejects("tol", solve, CFG, scheme, data.draw(st.one_of(NOT_POSITIVE, below_floor)))

    tol = np.float32(data.draw(st.floats(1e-12, 1e-4)))
    eps = np.float32(data.draw(st.floats(0.0, 0.9)))
    cfg = SystemConfig(k=np.int64(2), f_max=np.float32(1.5), mu=np.float64(1.0), eps=eps,
                       processes=PROCS)
    plain = SystemConfig(k=2, f_max=1.5, mu=1.0, eps=float(eps), processes=PROCS)
    got, want = solve(cfg, scheme, tol), solve(plain, scheme, float(tol))
    for name in ("tau_star", "beta_star", "outer_iters", "achieved_tol"):
        exact_python(getattr(got, name), getattr(want, name))
    assert got == want


@pytest.mark.parametrize("entry", [epoch_mean, mse_at_tau], ids=["epoch_mean", "mse_at_tau"])
@INPUT_SETTINGS
@given(scheme=SCHEMES, bad=NOT_NONNEGATIVE, tau=F32)
def test_threshold_functions(entry, scheme, bad, tau):
    rejects("tau", entry, bad, CFG, scheme)
    exact_python(entry(tau, CFG, scheme), entry(float(tau), CFG, scheme))


@settings(INPUT_SETTINGS, max_examples=30)
@given(st.data())
def test_simulate(data):
    policy = ThresholdPolicy(data.draw(SCHEMES), 1.0)
    field = data.draw(st.sampled_from(["n_epochs", "burn_in", "seed"]))
    bad = data.draw({
        "n_epochs": not_counts(1),
        "burn_in": st.one_of(not_counts(0), st.integers(min_value=50)),
        "seed": not_counts(0),
    }[field])
    values = dict(n_epochs=50, burn_in=10, seed=1)
    rejects(field, simulate, CFG, policy, **{**values, field: bad})

    seed = data.draw(st.integers(0, 2**32 - 1))
    got = simulate(CFG, policy, n_epochs=np.int64(50), seed=np.uint32(seed), burn_in=np.int16(10))
    want = simulate(CFG, policy, n_epochs=50, seed=seed, burn_in=10)
    exact_python(got.epochs, want.epochs)
    assert got == want


@INPUT_SETTINGS
@given(st.data())
def test_sweep_spec(data):
    field = data.draw(st.sampled_from(["grid", "n_epochs", "seed"]))
    bad = data.draw({"grid": NOT_NONNEGATIVE, "n_epochs": not_counts(1), "seed": not_counts(0)}[field])
    values = dict(grid=(0.1,), n_epochs=500, seed=0)
    values[field] = (0.05, bad) if field == "grid" else bad
    rejects(field, SweepSpec, base=CFG, axis=Axis.EPS, schemes=(Scheme.RR_NO_FEEDBACK,), **values)

    eps = np.float32(data.draw(st.floats(0.0, 0.9)))
    spec = SweepSpec(base=CFG, axis=Axis.EPS, grid=(eps,), schemes=(Scheme.RR_NO_FEEDBACK,),
                     n_epochs=np.int64(500), seed=np.int32(2))
    plain = SweepSpec(base=CFG, axis=Axis.EPS, grid=(float(eps),),
                      schemes=(Scheme.RR_NO_FEEDBACK,), n_epochs=500, seed=2)
    exact_python(spec.grid[0], plain.grid[0])
    exact_python(spec.n_epochs, plain.n_epochs)
    exact_python(spec.seed, plain.seed)
    assert spec == plain


# nan, a negative infinity and negatives, alone or as one entry of an array.
NOT_NONNEGATIVE_ARRAYS = st.one_of(
    st.sampled_from([math.nan, -math.inf]), NEGATIVE,
    st.one_of(st.sampled_from([math.nan, -math.inf]), NEGATIVE).map(
        lambda bad: np.array([0.0, 1.0, float(bad), 2.0])
    ),
)


@INPUT_SETTINGS
@given(NOT_NONNEGATIVE_ARRAYS, F32)
def test_ou_step(bad, dt):
    rejects("dt", ou_step, 0.0, bad, PROCS[0], 0.0)
    exact_python(ou_step(np.float32(1.0), dt, PROCS[0], np.float32(0.5)),
                 ou_step(1.0, float(dt), PROCS[0], float(np.float32(0.5))))


@INPUT_SETTINGS
@given(NOT_NONNEGATIVE_ARRAYS, F32)
def test_inst_mse(bad, age):
    rejects("age", inst_mse, bad, PROCS[0])
    exact_python(inst_mse(age, PROCS[0]), inst_mse(float(age), PROCS[0]))


@INPUT_SETTINGS
@given(st.sampled_from(["age0", "dt"]), NOT_NONNEGATIVE_ARRAYS, F32, F32)
def test_mse_integral(field, bad, age0, dt):
    args = {"age0": 1.0, "dt": 1.0, field: bad}
    rejects(field, mse_integral, args["age0"], args["dt"], PROCS[0])
    exact_python(mse_integral(age0, dt, PROCS[0]), mse_integral(float(age0), float(dt), PROCS[0]))
