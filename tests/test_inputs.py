"""The input contract of every public entry.

A real parameter is a real number and an epoch count or seed is an integer,
never a bool, and a flag is a bool. A bad value raises ``InvalidConfig``
with a one-line message that names the field, and no ``TypeError`` reaches
the caller. A numpy ``float32``, ``int64`` or ``bool_`` is stored as the
Python ``float``, ``int`` or ``bool`` of the same value, so it gives the
answer of that Python value. The ``ou`` functions and ``simulate``'s
``wait_split`` take arrays of integers or floats, which they convert to
float64; a bool, text, complex or object array is refused, as is a nan or
negative entry where one is not allowed.
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
    solve_maf,
    solve_rr,
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
# Anything but a bool: numbers, text, None, containers of bools.
NOT_FLAGS = st.one_of(
    st.sampled_from(["no", "true", "", 0, 1, 1.0, np.int64(1), None, [True], (False,)]),
    st.integers(), st.floats(),
)
# Arrays that numpy reads as something other than integers or floats.
NOT_REAL_ARRAYS = st.sampled_from([
    True, False, np.bool_(True), "0.5", "1", b"1", None, 1j, object(),
    [True, False], np.array([True]), ["0.5", "0.5"], np.array([0.5, 0.5], dtype=object),
    [0.5, "x"], np.array([1j]),
])


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
    field = data.draw(st.sampled_from(["n_epochs", "burn_in", "seed", "track_ou", "wait_split"]))
    bad = data.draw({
        "n_epochs": not_counts(1),
        "burn_in": st.one_of(not_counts(0), st.integers(min_value=50)),
        "seed": not_counts(0),
        "track_ou": NOT_FLAGS,
        "wait_split": st.one_of(NOT_REAL_ARRAYS, st.just((True, False))),
    }[field])
    values = dict(n_epochs=50, burn_in=10, seed=1)
    rejects(field, simulate, CFG, policy, **{**values, field: bad})

    seed = data.draw(st.integers(0, 2**32 - 1))
    got = simulate(CFG, policy, n_epochs=np.int64(50), seed=np.uint32(seed), burn_in=np.int16(10),
                   track_ou=np.bool_(True), wait_split=np.array([1, 3], dtype=np.int8) / 4)
    want = simulate(CFG, policy, n_epochs=50, seed=seed, burn_in=10, track_ou=True,
                    wait_split=(0.25, 0.75))
    exact_python(got.epochs, want.epochs)
    exact_python(got.ou_probe_mse, want.ou_probe_mse)
    assert got == want


@INPUT_SETTINGS
@given(st.data())
def test_sweep_spec(data):
    field = data.draw(st.sampled_from(
        ["axis", "schemes", "grid", "include_zero_wait", "sim_validate", "n_epochs", "seed"]
    ))
    # An axis or scheme named by its text, or a member of the other enum.
    bad = data.draw({
        "axis": st.sampled_from(["eps", "k", 0, None, Scheme.RR_NO_FEEDBACK]),
        "schemes": st.sampled_from(["maf", "rr", 0, None, Axis.EPS]),
        "grid": NOT_NONNEGATIVE,
        "include_zero_wait": NOT_FLAGS,
        "sim_validate": NOT_FLAGS,
        "n_epochs": not_counts(1),
        "seed": not_counts(0),
    }[field])
    values = dict(axis=Axis.EPS, grid=(0.1,), schemes=(Scheme.RR_NO_FEEDBACK,), n_epochs=500,
                  seed=0)
    values[field] = (values[field][0], bad) if field in ("grid", "schemes") else bad
    rejects(field, SweepSpec, base=CFG, **values)

    eps = np.float32(data.draw(st.floats(0.0, 0.9)))
    spec = SweepSpec(base=CFG, axis=Axis.EPS, grid=(eps,), schemes=[Scheme.RR_NO_FEEDBACK],
                     include_zero_wait=np.bool_(True), sim_validate=np.bool_(False),
                     n_epochs=np.int64(500), seed=np.int32(2))
    plain = SweepSpec(base=CFG, axis=Axis.EPS, grid=(float(eps),),
                      schemes=(Scheme.RR_NO_FEEDBACK,), include_zero_wait=True,
                      sim_validate=False, n_epochs=500, seed=2)
    exact_python(spec.grid[0], plain.grid[0])
    exact_python(spec.n_epochs, plain.n_epochs)
    exact_python(spec.seed, plain.seed)
    assert type(spec.include_zero_wait) is bool and type(spec.sim_validate) is bool
    assert spec == plain


# Things that are not a system: nothing, text, a process list, a policy.
NOT_SYSTEMS = [None, "x", PROCS, ThresholdPolicy(Scheme.MAF_FEEDBACK, 1.0)]


@pytest.mark.parametrize("bad", NOT_SYSTEMS, ids=repr)
@pytest.mark.parametrize("field, call", [
    ("cfg", lambda bad: solve(bad, Scheme.RR_NO_FEEDBACK)),
    ("cfg", lambda bad: solve_maf(bad)),
    ("cfg", lambda bad: solve_rr(bad)),
    ("cfg", lambda bad: epoch_mean(1.0, bad, Scheme.MAF_FEEDBACK)),
    ("cfg", lambda bad: mse_at_tau(1.0, bad, Scheme.RR_NO_FEEDBACK)),
    ("cfg", lambda bad: simulate(bad, ThresholdPolicy(Scheme.MAF_FEEDBACK, 1.0), 50, 1)),
    ("base", lambda bad: SweepSpec(base=bad, axis=Axis.EPS, grid=(0.1,),
                                   schemes=(Scheme.RR_NO_FEEDBACK,))),
], ids=["solve", "solve_maf", "solve_rr", "epoch_mean", "mse_at_tau", "simulate", "SweepSpec"])
def test_system_argument(field, call, bad):
    # Each once raised a bare AttributeError or TypeError.
    rejects(f"{field} must be a SystemConfig", call, bad)


def test_process_count_capped():
    # No Poisson table grows past MAX_SERIES_TERMS + 1 entries: a larger k is
    # refused by the system itself, not only by a k-axis sweep.
    values = dict(f_max=1.5, mu=1.0, eps=0.3)
    assert SystemConfig(k=10**6, processes=PROCS[:1] * 10**6, **values).k == 10**6
    with pytest.raises(InvalidConfig, match=r"k must be an integer with 1 <= k < 1000001"):
        SystemConfig(k=10**6 + 1, processes=PROCS[:1] * (10**6 + 1), **values)


# nan, a negative infinity and negatives, alone or as one entry of an array.
NOT_NONNEGATIVE_ARRAYS = st.one_of(
    st.sampled_from([math.nan, -math.inf]), NEGATIVE,
    st.one_of(st.sampled_from([math.nan, -math.inf]), NEGATIVE).map(
        lambda bad: np.array([0.0, 1.0, float(bad), 2.0])
    ),
)
NOT_NONNEGATIVE_REAL_ARRAYS = st.one_of(NOT_NONNEGATIVE_ARRAYS, NOT_REAL_ARRAYS)


@INPUT_SETTINGS
@given(st.data(), F32)
def test_ou_step(data, dt):
    field = data.draw(st.sampled_from(["x", "dt", "z"]))
    bad = data.draw(NOT_NONNEGATIVE_REAL_ARRAYS if field == "dt" else NOT_REAL_ARRAYS)
    args = {"x": 0.0, "dt": 1.0, "z": 0.0, field: bad}
    rejects(field, ou_step, args["x"], args["dt"], PROCS[0], args["z"])
    exact_python(ou_step(np.float32(1.0), dt, PROCS[0], np.float32(0.5)),
                 ou_step(1.0, float(dt), PROCS[0], float(np.float32(0.5))))
    exact_python(ou_step(np.int64(1), np.int8(2), PROCS[0], np.uint16(1)),
                 ou_step(1.0, 2.0, PROCS[0], 1.0))


@INPUT_SETTINGS
@given(NOT_NONNEGATIVE_REAL_ARRAYS, F32)
def test_inst_mse(bad, age):
    rejects("age", inst_mse, bad, PROCS[0])
    exact_python(inst_mse(age, PROCS[0]), inst_mse(float(age), PROCS[0]))


@INPUT_SETTINGS
@given(st.sampled_from(["age0", "dt"]), NOT_NONNEGATIVE_REAL_ARRAYS, F32, F32)
def test_mse_integral(field, bad, age0, dt):
    args = {"age0": 1.0, "dt": 1.0, field: bad}
    rejects(field, mse_integral, args["age0"], args["dt"], PROCS[0])
    exact_python(mse_integral(age0, dt, PROCS[0]), mse_integral(float(age0), float(dt), PROCS[0]))


SWEEP = dict(base=CFG, axis=Axis.EPS, grid=(0.2,), schemes=(Scheme.RR_NO_FEEDBACK,), n_epochs=2000)
POLICY = ThresholdPolicy(Scheme.RR_NO_FEEDBACK, 1.0)


@pytest.mark.parametrize("field, call", [
    ("sim_validate", lambda: SweepSpec(**SWEEP, sim_validate="no")),
    ("include_zero_wait", lambda: SweepSpec(**SWEEP, include_zero_wait="no")),
    ("axis", lambda: SweepSpec(**{**SWEEP, "axis": "eps"})),
    ("schemes", lambda: SweepSpec(**{**SWEEP, "schemes": ("maf",)})),
    ("track_ou", lambda: simulate(CFG, POLICY, 50, 1, track_ou="no")),
    ("wait_split", lambda: simulate(CFG, POLICY, 50, 1, wait_split=("0.5", "0.5"))),
    ("wait_split", lambda: simulate(CFG, POLICY, 50, 1, wait_split=(True, False))),
    ("age", lambda: inst_mse(True, PROCS[1])),
    ("age", lambda: inst_mse("0.5", PROCS[1])),
    ("dt", lambda: ou_step(0.0, True, PROCS[1], 0.0)),
], ids=["sim_validate", "include_zero_wait", "axis", "schemes", "track_ou", "wait_split-text",
        "wait_split-bools", "age-bool", "age-text", "dt-bool"])
def test_values_numpy_or_truthiness_would_accept(field, call):
    # numpy's float conversion reads each array here as numbers, and a truth
    # test reads each flag as on; a text axis or scheme must fail before the
    # sweep solves a row.
    rejects(field, call)
