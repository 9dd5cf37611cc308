"""The simulator's exact invariances under a change of time or variance unit.

- Time scale ``s``: ``mu``, ``f_max`` and every ``theta`` and ``sigma_sq``
  are multiplied by ``s``, and ``tau`` is divided by it. Every mean squared
  error stays the same, and every length is divided by ``s``.
- Variance scale ``b``: every ``sigma_sq`` is multiplied by ``b``. Every mean
  squared error is multiplied by ``b``; every length, and so the trace file,
  stays the same.

With ``s`` a power of two and ``b`` a power of four (so that the OU probe's
noise, which scales by the square root of ``b``, scales by a power of two
too), every product in the simulator scales exactly, so each relation holds
bit for bit, with no tolerance to tune. At ``b`` = 8 the probe's
``ou_probe_mse`` and ``ou_probe_diff_se`` differ in their last bits.
"""

import hashlib
import os
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ouwait import ProcessParams, Scheme, SimStats, SystemConfig, ThresholdPolicy, simulate

MAF = Scheme.MAF_FEEDBACK
RR = Scheme.RR_NO_FEEDBACK
REF_PROCS = (ProcessParams(0.1, 1.0), ProcessParams(0.5, 2.0))
TAU = {MAF: 1.6, RR: 0.7}

# Each SimStats field is a mean squared error, a length, or neither.
ERRORS = ("sum_mse", "sum_mse_se", "per_process_mse", "per_process_mse_se",
          "ou_probe_mse", "ou_probe_ref", "ou_probe_diff_se")
LENGTHS = ("mean_epoch_len", "mean_epoch_len_se", "per_process_inter_sample_mean",
           "per_process_inter_sample_se")


def _in_units(stats: SimStats, error: float = 1.0, length: float = 1.0) -> dict:
    """The fields of ``stats`` by name, errors times ``error`` and lengths
    times ``length``, each a power of two, so that the products are exact."""
    out = {}
    for f in fields(stats):
        value = getattr(stats, f.name)
        factor = error if f.name in ERRORS else length if f.name in LENGTHS else None
        if factor is not None and isinstance(value, tuple):
            value = tuple(v * factor for v in value)
        elif factor is not None and value is not None:
            value = value * factor
        out[f.name] = value
    return out


def _time_scaled(cfg: SystemConfig, tau: float, s: float):
    procs = tuple(ProcessParams(p.theta * s, p.sigma_sq * s) for p in cfg.processes)
    return replace(cfg, mu=cfg.mu * s, f_max=cfg.f_max * s, processes=procs), tau / s


def _variance_scaled(cfg: SystemConfig, b: float) -> SystemConfig:
    return replace(cfg, processes=tuple(replace(p, sigma_sq=p.sigma_sq * b) for p in cfg.processes))


def _run(cfg, scheme, tau, split, n_epochs, seed, trace_path=None):
    return simulate(cfg, ThresholdPolicy(scheme, tau), n_epochs=n_epochs, seed=seed,
                    wait_split=split, track_ou=True, trace_path=trace_path)


def _digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("scheme", [MAF, RR], ids=["maf", "rr"])
@pytest.mark.parametrize("eps", [0.0, 0.3])
@pytest.mark.parametrize("split", [None, (0.5, 0.5)], ids=["nosplit", "split"])
def test_statistics_and_trace_scale_exactly(tmp_path, scheme, eps, split):
    cfg = SystemConfig(k=2, f_max=1.5, mu=1.0, eps=eps, processes=REF_PROCS)
    tau, n, seed = TAU[scheme], 2 * 10**4, 5
    traces = [os.fspath(tmp_path / name) for name in ("base.tsv", "variance.tsv")]
    base = _run(cfg, scheme, tau, split, n, seed, traces[0])
    for s in (2.0, 0.25):
        fast_cfg, fast_tau = _time_scaled(cfg, tau, s)
        scaled = _run(fast_cfg, scheme, fast_tau, split, n, seed)
        assert _in_units(scaled, length=s) == _in_units(base), f"time scale {s}"
    b = 4.0
    louder = _run(_variance_scaled(cfg, b), scheme, tau, split, n, seed, traces[1])
    assert _in_units(louder) == _in_units(base, error=b)
    assert _digest(traces[1]) == _digest(traces[0])


@st.composite
def runs(draw):
    k = draw(st.integers(1, 4))
    procs = tuple(ProcessParams(draw(st.floats(0.05, 2.0)), draw(st.floats(0.5, 4.0)))
                  for _ in range(k))
    cfg = SystemConfig(k=k, f_max=1.5, mu=draw(st.floats(0.5, 2.0)),
                       eps=draw(st.floats(0.0, 0.9)), processes=procs)
    weights = draw(st.one_of(st.none(), st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)
                             .filter(lambda w: sum(w) > 0)))
    split = None if weights is None else tuple(w / sum(weights) for w in weights)
    scheme = draw(st.sampled_from([MAF, RR]))
    return cfg, scheme, draw(st.floats(0.0, 4.0)), split, draw(st.integers(0, 2**31))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(runs(), st.sampled_from([-3, -1, 1, 4]), st.sampled_from([-2, 2, 4]))
def test_random_systems_scale_exactly(run, time_power, variance_power):
    cfg, scheme, tau, split, seed = run
    s, b = 2.0**time_power, 2.0**variance_power
    base = _run(cfg, scheme, tau, split, 1000, seed)
    fast_cfg, fast_tau = _time_scaled(cfg, tau, s)
    scaled = _run(fast_cfg, scheme, fast_tau, split, 1000, seed)
    assert _in_units(scaled, length=s) == _in_units(base)
    louder = _run(_variance_scaled(cfg, b), scheme, tau, split, 1000, seed)
    assert _in_units(louder) == _in_units(base, error=b)
