"""The benchmark's workloads, each a list of closed-loop operations with checks.

One pass of a workload is a fixed set of operations. The seed fixes their
order, the order of the processes handed to each solve, and every simulation
seed. Each operation's output is checked: solves against ``reference.json``
(stored with the benchmark, produced by ``make_reference.py``), simulations
for finite statistics, the k=1 erasure-free anchor against its closed form,
and written files for their row counts. A check that fails counts the
operation as failed.

The package is imported from the checkout's ``src`` directory by ``run.py``.
Operations bind package functions when a pass is built, so a pass built while
the tracer is installed calls the traced functions.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import ouwait

REL_TOL = 1e-6  # acceptance criteria 3 and 5
ABS_TOL = 1e-9  # the solver's default tolerance; covers thresholds clamped at zero
ANCHOR_MSE = 0.75  # k=1, eps=0, theta=0.5, sigma_sq=1 at zero wait (criterion 1)
ANCHOR_TOL = 0.005

REF_PROCS = ((0.1, 1.0), (0.5, 2.0))
ANCHOR_PROCS = ((0.5, 1.0),)
CORNER = {"f_max": 0.5, "eps": 0.5}  # hardest corner of acceptance criterion 2
PROBE_SYSTEM = {"f_max": 1.5, "eps": 0.3}
WIDE_SYSTEM = {"f_max": 0.5, "eps": 0.3}  # the budget binds at every k below
SCHEMES = {"maf": ouwait.Scheme.MAF_FEEDBACK, "rr": ouwait.Scheme.RR_NO_FEEDBACK}
SOLVERS = {"maf": "solve_maf", "rr": "solve_rr"}
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


@dataclass(frozen=True)
class Sizes:
    eps_grid: Tuple[float, ...]
    fmax_grid: Tuple[float, ...]
    wide_ks: Tuple[int, ...]
    sim_epochs: int
    anchor_epochs: int
    probe_epochs: int
    trace_epochs: int


FULL = Sizes(
    eps_grid=tuple(round(0.05 * i, 2) for i in range(19)),
    fmax_grid=(0.5, 0.95, 1.5),
    wide_ks=(4, 16, 64),
    sim_epochs=10**6,
    anchor_epochs=10**6,
    probe_epochs=10**4,
    trace_epochs=3 * 10**4,
)
# Smoke sizes: every operation kind still runs; the anchor keeps its full
# length so its 0.5% check is not noise-limited.
TINY = Sizes(
    eps_grid=(0.0, 0.5),
    fmax_grid=(0.5, 1.5),
    wide_ks=(4,),
    sim_epochs=10**5,
    anchor_epochs=10**6,
    probe_epochs=2000,
    trace_epochs=2000,
)


@dataclass
class Op:
    """One closed-loop operation: ``run`` is timed, ``check`` is not.

    ``key`` names the operation's inputs apart from the seed, so the same key
    recurs once in every pass. ``check`` returns a description of what is
    wrong, or None. ``beta`` is the value a simulation's sum MSE is compared
    with for ``max_rel_gap``. ``plain`` runs the same simulation without the
    probe or the trace dump.
    Operations with ``counted`` false take time in a pass but are not counted
    in its throughput or latency samples.
    """

    kind: str  # solve | write | sim | probe | trace
    key: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    counted: bool = True
    epochs: int = 0
    beta: Optional[float] = None
    plain: Optional[Callable[[], object]] = None
    info: Dict[str, float] = field(default_factory=dict)


def load_reference(path: str = REFERENCE_PATH) -> Dict[str, dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["solves"]


def system(procs: Sequence[Tuple[float, float]], f_max: float, eps: float) -> "ouwait.SystemConfig":
    return ouwait.SystemConfig(
        k=len(procs),
        f_max=f_max,
        mu=1.0,
        eps=eps,
        processes=tuple(ouwait.ProcessParams(theta=t, sigma_sq=s) for t, s in procs),
    )


def wide_procs(k: int) -> List[Tuple[float, float]]:
    """Heterogeneous processes: log-spaced thetas, alternating sigma_sq."""
    thetas = np.geomspace(0.05, 2.0, k)
    return [(float(t), 1.0 if i % 2 == 0 else 2.0) for i, t in enumerate(thetas)]


def sweep_key(scheme: str, f_max: float, eps: float) -> str:
    return f"sweep/{scheme}/fmax={f_max}/eps={eps}"


def wide_key(scheme: str, k: int) -> str:
    return f"wide/{scheme}/k={k}"


# ---------------------------------------------------------------- checks


def _close(value: Optional[float], expected: float) -> bool:
    return value is not None and math.isclose(value, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def check_solution(res, ref: dict) -> Optional[str]:
    """Compare a SolveResult or SweepRow with its stored reference."""
    fields = ["tau_star", "beta_star"] + (["zero_wait_mse"] if "zero_wait_mse" in ref else [])
    for name in fields:
        if not _close(getattr(res, name), ref[name]):
            return f"{name}={getattr(res, name)!r}, reference {ref[name]!r}"
    if res.binding is None or bool(res.binding) != ref["binding"]:
        return f"binding={res.binding!r}, reference {ref['binding']!r}"
    return None


def check_rows(rows, ref: dict) -> Optional[str]:
    if len(rows) != 1:
        return f"{len(rows)} sweep rows, expected 1"
    if rows[0].status != "ok":
        return f"sweep row status {rows[0].status!r}"
    return check_solution(rows[0], ref)


def check_csv(path: str, rows: list) -> Optional[str]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    os.remove(path)
    if len(lines) != len(rows) + 1:
        return f"CSV has {len(lines)} lines for {len(rows)} rows"
    width = lines[0].count(",")
    if any(line.count(",") != width for line in lines):
        return "CSV rows differ in field count"
    return None


def check_finite(stats, probe: bool = False) -> Optional[str]:
    """Every numeric statistic must be finite; probe fields must be present."""
    for f in dataclasses.fields(stats):
        value = getattr(stats, f.name)
        if value is None:
            if probe and f.name.startswith("ou_probe"):
                return f"{f.name} missing"
            continue
        values = value if isinstance(value, tuple) else (value,)
        for v in values:
            if isinstance(v, (int, float)) and not math.isfinite(v):
                return f"{f.name}={value!r} is not finite"
    return None


def check_anchor(stats) -> Optional[str]:
    problem = check_finite(stats)
    if problem is None and abs(stats.sum_mse - ANCHOR_MSE) > ANCHOR_TOL * ANCHOR_MSE:
        problem = f"anchor sum_mse={stats.sum_mse!r}, expected {ANCHOR_MSE} within 0.5%"
    return problem


def check_trace(stats, path: str, epochs: int, info: Dict[str, float]) -> Optional[str]:
    problem = check_finite(stats)
    info["trace_bytes"] = float(os.path.getsize(path))
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        lines = 1 + sum(1 for _ in fh)
    os.remove(path)
    if problem is None and not header.startswith("epoch_index"):
        problem = f"trace header {header[:40]!r}"
    if problem is None and lines < epochs + 1:
        problem = f"trace has {lines} lines for {epochs} epochs"
    return problem


# ---------------------------------------------------------------- workloads


def solve(scheme: str, cfg):
    return getattr(ouwait, SOLVERS[scheme])(cfg)


def _sweep_point(spec, rows: list):
    out = ouwait.run_sweep(spec)
    rows.extend(out)
    return out


def sweep_eps(rng: np.random.Generator, sizes: Sizes, ref: dict, tmpdir: str) -> List[Op]:
    """The acceptance grid as one-point sweeps, then one CSV write of all rows."""
    procs = REF_PROCS if rng.random() < 0.5 else REF_PROCS[::-1]
    points = [(f, e, s) for f in sizes.fmax_grid for e in sizes.eps_grid for s in SCHEMES]
    rows: list = []
    ops = []
    for i in rng.permutation(len(points)):
        f_max, eps, scheme = points[i]
        spec = ouwait.SweepSpec(
            base=system(procs, f_max, eps),
            axis=ouwait.Axis.EPS,
            grid=(eps,),
            schemes=(SCHEMES[scheme],),
            include_zero_wait=True,
        )
        key = sweep_key(scheme, f_max, eps)
        ops.append(Op("solve", key, partial(_sweep_point, spec, rows),
                      partial(check_rows, ref=ref[key])))
    path = os.path.join(tmpdir, "sweep.csv")
    ops.append(Op("write", "csv", partial(ouwait.write_csv, rows, path),
                  lambda _: check_csv(path, rows), counted=False))
    return ops


def solve_wide(rng: np.random.Generator, sizes: Sizes, ref: dict, tmpdir: str) -> List[Op]:
    """Both solvers on k heterogeneous processes, in a seeded process order."""
    ops = []
    for k in sizes.wide_ks:
        procs = wide_procs(k)
        for scheme in SCHEMES:
            cfg = system([procs[j] for j in rng.permutation(k)], **WIDE_SYSTEM)
            key = wide_key(scheme, k)
            ops.append(Op("solve", key, partial(solve, scheme, cfg),
                          partial(check_solution, ref=ref[key])))
    return [ops[i] for i in rng.permutation(len(ops))]


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def sim_long(rng: np.random.Generator, sizes: Sizes, ref: dict, tmpdir: str) -> List[Op]:
    """Long simulations at stored optimal thresholds; the solver does no work."""
    corner = system(REF_PROCS, **CORNER)
    ops = []
    for scheme in SCHEMES:
        key = f"corner/{scheme}"
        policy = ouwait.ThresholdPolicy(SCHEMES[scheme], ref[key]["tau_star"])
        run = partial(ouwait.simulate, corner, policy, n_epochs=sizes.sim_epochs, seed=_seed(rng))
        ops.append(Op("sim", key, run, check_finite, epochs=sizes.sim_epochs,
                      beta=ref[key]["beta_star"]))
    anchor = system(ANCHOR_PROCS, f_max=2.0, eps=0.0)
    policy = ouwait.ThresholdPolicy(ouwait.Scheme.MAF_FEEDBACK, 0.0)
    run = partial(ouwait.simulate, anchor, policy, n_epochs=sizes.anchor_epochs, seed=_seed(rng))
    ops.append(Op("sim", "anchor", run, check_anchor, epochs=sizes.anchor_epochs,
                  beta=ANCHOR_MSE))
    return [ops[i] for i in rng.permutation(len(ops))]


def sim_probe(rng: np.random.Generator, sizes: Sizes, ref: dict, tmpdir: str) -> List[Op]:
    """The OU path probe and the epoch trace dump, each with a plain twin run."""
    cfg = system(REF_PROCS, **PROBE_SYSTEM)
    ops = []
    for scheme in SCHEMES:
        policy = ouwait.ThresholdPolicy(SCHEMES[scheme], ref[f"probe/{scheme}"]["tau_star"])
        probe = partial(ouwait.simulate, cfg, policy, n_epochs=sizes.probe_epochs, seed=_seed(rng))
        ops.append(Op("probe", f"probe/{scheme}", partial(probe, track_ou=True),
                      partial(check_finite, probe=True), epochs=sizes.probe_epochs, plain=probe))
        path = os.path.join(tmpdir, f"trace-{scheme}.tsv")
        dump = partial(ouwait.simulate, cfg, policy, n_epochs=sizes.trace_epochs, seed=_seed(rng))
        info: Dict[str, float] = {}
        check = partial(check_trace, path=path, epochs=sizes.trace_epochs, info=info)
        ops.append(Op("trace", f"trace/{scheme}", partial(dump, trace_path=path), check,
                      epochs=sizes.trace_epochs, plain=dump, info=info))
    return [ops[i] for i in rng.permutation(len(ops))]


BUILDERS = {
    "sweep_eps": sweep_eps,
    "solve_wide": solve_wide,
    "sim_long": sim_long,
    "sim_probe": sim_probe,
}


def build(name: str, seed: int, pass_index: int, sizes: Sizes, ref: dict, tmpdir: str) -> List[Op]:
    """The operations of one pass; the same arguments give the same inputs."""
    rng = np.random.default_rng([seed, pass_index])
    return BUILDERS[name](rng, sizes, ref, tmpdir)
