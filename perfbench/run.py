"""Benchmark of the ouwait solver and simulator, one workload per process.

    python3 perfbench/run.py --workload sweep_eps --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root or anywhere else: the package is imported from
the ``src`` directory next to this one. Each workload is a closed loop: one
caller issues the next operation only after the previous one returns. Whole
passes of the workload's operations run until ``--seconds`` have elapsed.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; the lines before it record the environment and print the
workload's own metrics by name, with units and sample counts. With
``--trace 1`` the run makes a warm-up pass, then an untraced and a traced pass over the same
inputs and reports per-layer metrics from the traced pass, with the tracing
overhead as the difference of the two.

``--workload all`` runs every workload in its own process; ``--smoke`` runs
every workload at a tiny size in both modes and checks that each metric named
in BENCHMARK.json is emitted with its unit.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported, here or in a child.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "ouwait"
WORKLOADS = ("sweep_eps", "solve_wide", "sim_long", "sim_probe")
SETUP_REPEATS = 7

END_TO_END = {
    "setup_s": "s",
    "ops_per_s_gmean": "1/s",
    "peak_rss_mb": "MB",
}

SERIES_FNS = ("H_maf", "F_maf", "G_maf", "H_rr", "L_rr", "F_rr", "G_rr", "mixture_weights")
TRACE_TARGETS = (
    [f"series.{fn}" for fn in SERIES_FNS]
    + ["dinkelbach.solve_threshold", "dinkelbach.invert_monotone"]
    + ["maf.solve_maf", "maf.mse_at_tau_maf", "rr.solve_rr", "rr.mse_at_tau_rr"]
    + ["sim.simulate", "sim.maf_epoch_arrays", "sim.rr_round_arrays"]
    + ["ou.ou_step", "ou.mmse_estimate", "ou.inst_mse", "ou.mse_integral"]
    + ["cli.run_sweep", "cli.write_csv"]
)
SOLVE_TARGETS = ("maf.solve_maf", "rr.solve_rr")

PER_LAYER = {}
for _fn in SERIES_FNS:
    PER_LAYER[f"series.{_fn}.calls"] = "count"
    PER_LAYER[f"series.{_fn}.self_us"] = "us"
PER_LAYER.update({
    "series.calls_per_solve": "calls/solve",
    "dinkelbach.outer_iters_per_solve": "iters/solve",
    "dinkelbach.invert_calls_per_solve": "calls/solve",
    "dinkelbach.solve_threshold.self_ms": "ms",
    "dinkelbach.invert_monotone.self_ms": "ms",
    "maf.solve_maf.ms_p50": "ms",
    "rr.solve_rr.ms_p50": "ms",
    "maf.mse_at_tau_maf.self_us": "us",
    "rr.mse_at_tau_rr.self_us": "us",
    "sim.maf_epoch_arrays.ms": "ms",
    "sim.rr_round_arrays.ms": "ms",
    "ou.mse_integral.ms": "ms",
    "sim.simulate.self_ms": "ms",
    "sim.arrays_mb": "MB",
    "ou.ou_step.calls": "count",
    "ou.mmse_estimate.calls": "count",
    "ou.inst_mse.calls": "count",
    "sim.probe_ms": "ms",
    "sim.trace_ms": "ms",
    "sim.trace_bytes": "bytes",
    "cli.run_sweep.self_ms": "ms",
    "cli.write_csv.ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.missing_names": "count",
})

# Times import plus the first solve, then samples the calibration kernel in
# the same process, so that the set-up is scaled by the speed of its own core.
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ouwait
procs = (ouwait.ProcessParams(0.1, 1.0), ouwait.ProcessParams(0.5, 2.0))
ouwait.solve_maf(ouwait.SystemConfig(k=2, f_max=1.5, mu=1.0, eps=0.3, processes=procs))
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
from run import Calibrator
cal = Calibrator()
print(elapsed, cal.scale(elapsed, cal.sample(), cal.sample()))
"""


def bootstrap() -> None:
    """Import the package from this checkout's ``src``, or exit with code 2."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import ouwait

    if Path(ouwait.__file__).resolve().parent != SRC / PACKAGE:
        sys.exit(f"perfbench: {PACKAGE} imported from {ouwait.__file__}, not from {SRC}")


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
    }


def _setup_seconds() -> float:
    """Import plus the first solve in a fresh process, scaled to reference speed."""
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
        capture_output=True, text=True, timeout=120, check=True, cwd=str(ROOT),
    )
    return float(out.stdout.split()[-1])


class Calibrator:
    """Machine speed from a fixed kernel that runs none of the package's code.

    On a shared machine the speed of one core drifts by tens of percent over
    seconds, for Python and numpy work alike. Timing this kernel between
    operations and scaling each operation's time by ``REFERENCE_S`` over the
    kernel's time around it reports the operation at a fixed machine speed, so
    runs made minutes apart compare. The kernel is a run of small numpy calls,
    the call-overhead-bound mix that dominates the solvers; of the kernels
    tried (interpreter loops, small arrays, an 8 MB stream, and mixes) it
    tracked the drift of all four workloads best. Each sample is the fastest
    of three repetitions, which drops interruptions.
    """

    REFERENCE_S = 1e-3

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(12345)
        self._np = np
        self._a = rng.random(512)
        self._b = rng.random(512)

    def _kernel(self) -> None:
        np = self._np
        for _ in range(160):
            np.cumsum(np.exp(-self._a) * self._b)

    def sample(self) -> float:
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - start)
        return best

    def scale(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` at the reference speed, given kernel samples around it."""
        return seconds * 2.0 * self.REFERENCE_S / (before + after)

    def time(self, fn) -> float:
        """Scaled duration of one call of ``fn``."""
        before = self.sample()
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        return self.scale(elapsed, before, self.sample())


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class Tally:
    """Attempted and failed operations, with the scaled duration of each success.

    ``samples`` holds, per operation key, the scaled durations of the
    successful operations that count toward throughput and latency; ``kinds``
    and ``epochs`` describe each key. ``busy_s`` sums the scaled durations of
    all successful operations and ``raw_busy_s`` the measured ones; checks
    and calibration are not included.
    """

    def __init__(self, cal: Calibrator) -> None:
        self.cal = cal
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0
        self.raw_busy_s = 0.0
        self.samples: Dict[str, List[float]] = {}
        self.kinds: Dict[str, str] = {}
        self.epochs: Dict[str, int] = {}
        self.gaps: List[float] = []

    def run(self, ops, record_gaps: bool = False) -> float:
        """Run ``ops`` in order; return their summed scaled duration."""
        busy = self.busy_s
        before = self.cal.sample()
        for op in ops:
            self.attempted += 1
            start = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                before = self.cal.sample()
                self._fail(op.kind, f"{type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - start
            after = self.cal.sample()
            op.info["seconds"] = self.cal.scale(elapsed, before, after)
            before = after
            problem = op.check(out)
            if problem is not None:
                self._fail(op.kind, problem)
                continue
            self.busy_s += op.info["seconds"]
            self.raw_busy_s += elapsed
            if op.counted:
                self.samples.setdefault(op.key, []).append(op.info["seconds"])
                self.kinds[op.key] = op.kind
                self.epochs[op.key] = op.epochs
            if record_gaps and op.beta is not None:
                self.gaps.append(abs(out.sum_mse - op.beta) / op.beta)
        return self.busy_s - busy

    def _fail(self, kind: str, problem: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"perfbench: {kind} failed: {problem}", file=sys.stderr)

    def durations(self, kinds) -> List[float]:
        return [s for key, xs in self.samples.items() if self.kinds[key] in kinds for s in xs]

    def rates(self, kinds) -> Tuple[float, float]:
        """Operations and epochs per second over one pass's ``kinds`` operations.

        Each operation key contributes its mean duration across passes, so a
        key that failed in some pass is not under-weighted.
        """
        keys = [key for key in self.samples if self.kinds[key] in kinds]
        busy = sum(statistics.fmean(self.samples[key]) for key in keys)
        return len(keys) / busy, sum(self.epochs[key] for key in keys) / busy

    def gmean_rate(self) -> float:
        """One over the geometric mean of each operation key's mean duration.

        Every distinct operation weighs the same, so the longest one does not
        set the figure alone, and the noise of each averages out over all.
        """
        return 1.0 / statistics.geometric_mean(map(statistics.fmean, self.samples.values()))

    def result(self, metrics: Dict[str, float], units: Dict[str, str]) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }


def _show(name: str, value: float, unit: str, n: Optional[int] = None) -> None:
    count = "" if n is None else f"  (n={n})"
    print(f"metric {name:<22} {value:.6g} {unit}{count}")


def measure(name: str, seed: int, seconds: float, sizes, ref, tmpdir: str) -> dict:
    """Untraced run: end-to-end metrics, and the workload's own metrics printed."""
    import workloads

    setups = [_setup_seconds() for _ in range(SETUP_REPEATS if sizes is workloads.FULL else 1)]
    tally = Tally(Calibrator())
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        tally.run(workloads.build(name, seed, passes, sizes, ref, tmpdir), record_gaps=passes == 0)
        passes += 1
    wall = time.perf_counter() - start
    kinds = set(tally.kinds.values())
    if not kinds:
        sys.exit(f"perfbench: every operation of {name} failed")

    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s_gmean": tally.gmean_rate(),
        "peak_rss_mb": _peak_rss_mb(),
    }
    print(f"passes {passes} wall_s {wall:.3f} busy_s {tally.raw_busy_s:.3f} "
          f"scaled_busy_s {tally.busy_s:.3f} (times below are scaled to reference speed)")
    _show("setup_s", metrics["setup_s"], "s", len(setups))
    if "solve" in kinds:
        solves = tally.durations({"solve"})
        _show("solves_per_s", tally.rates({"solve"})[0], "1/s", len(solves))
        _show("solve_ms_p50", statistics.median(solves) * 1e3, "ms", len(solves))
        p90 = _percentile(solves, 0.9)
        beyond = sum(s > p90 for s in solves)
        if beyond >= 10:
            _show("solve_ms_p90", p90 * 1e3, "ms", len(solves))
        else:
            print(f"metric solve_ms_p90           not reported: {beyond} samples beyond it")
    for kind, label, scale, unit in (
        ("sim", "sim_mepochs_per_s", 1e6, "Mepochs/s"),
        ("probe", "probe_kepochs_per_s", 1e3, "kepochs/s"),
        ("trace", "trace_kepochs_per_s", 1e3, "kepochs/s"),
    ):
        if kind in kinds:
            _show(label, tally.rates({kind})[1] / scale, unit, len(tally.durations({kind})))
    if tally.gaps:
        _show("max_rel_gap", max(tally.gaps), "1", len(tally.gaps))
    timed = tally.durations(kinds)
    _show("op_ms_p50", statistics.median(timed) * 1e3, "ms", len(timed))
    _show("ops_per_s", tally.rates(kinds)[0], "1/s", len(timed))
    _show("ops_per_s_gmean", metrics["ops_per_s_gmean"], "1/s", len(timed))
    _show("peak_rss_mb", metrics["peak_rss_mb"], "MB")
    _show("error_rate", tally.failed / tally.attempted, "1", tally.attempted)
    return tally.result(metrics, END_TO_END)


def _differential_ms(cal: Calibrator, ops, kind: str) -> float:
    """Summed scaled time of ``kind`` operations minus their plain twins, in ms."""
    return 1e3 * sum(
        op.info["seconds"] - cal.time(op.plain)
        for op in ops if op.kind == kind and "seconds" in op.info
    )


def trace(name: str, seed: int, sizes, ref, tmpdir: str) -> dict:
    """Untraced and traced passes over the same inputs: per-layer metrics."""
    import workloads
    from tracer import Tracer

    cal = Calibrator()
    tally = Tally(cal)
    # A first pass warms allocator arenas and caches, so that the untraced
    # and traced passes compared below both run warm.
    tally.run(workloads.build(name, seed, 0, sizes, ref, tmpdir))
    ops = workloads.build(name, seed, 0, sizes, ref, tmpdir)
    untraced = tally.run(ops)
    probe_ms = _differential_ms(cal, ops, "probe")
    trace_ms = _differential_ms(cal, ops, "trace")
    trace_bytes = sum(op.info.get("trace_bytes", 0.0) for op in ops)

    with Tracer(PACKAGE, TRACE_TARGETS) as tr:
        traced = tally.run(workloads.build(name, seed, 0, sizes, ref, tmpdir))

    st = tr.stats
    n_solves = sum(st[t].calls for t in SOLVE_TARGETS)

    def per_solve(count: float) -> float:
        return count / n_solves if n_solves else 0.0

    iters = [i for t in SOLVE_TARGETS for i in st[t].outer_iters]
    m: Dict[str, float] = {}
    for fn in SERIES_FNS:
        m[f"series.{fn}.calls"] = st[f"series.{fn}"].calls
        m[f"series.{fn}.self_us"] = st[f"series.{fn}"].self_s * 1e6
    m["series.calls_per_solve"] = per_solve(sum(st[f"series.{fn}"].calls for fn in SERIES_FNS))
    m["dinkelbach.outer_iters_per_solve"] = statistics.fmean(iters) if iters else 0.0
    m["dinkelbach.invert_calls_per_solve"] = per_solve(st["dinkelbach.invert_monotone"].calls)
    m["dinkelbach.solve_threshold.self_ms"] = st["dinkelbach.solve_threshold"].self_s * 1e3
    m["dinkelbach.invert_monotone.self_ms"] = st["dinkelbach.invert_monotone"].self_s * 1e3
    m["maf.solve_maf.ms_p50"] = st["maf.solve_maf"].p50_s() * 1e3
    m["rr.solve_rr.ms_p50"] = st["rr.solve_rr"].p50_s() * 1e3
    m["maf.mse_at_tau_maf.self_us"] = st["maf.mse_at_tau_maf"].self_s * 1e6
    m["rr.mse_at_tau_rr.self_us"] = st["rr.mse_at_tau_rr"].self_s * 1e6
    m["sim.maf_epoch_arrays.ms"] = st["sim.maf_epoch_arrays"].total_s * 1e3
    m["sim.rr_round_arrays.ms"] = st["sim.rr_round_arrays"].total_s * 1e3
    m["ou.mse_integral.ms"] = st["ou.mse_integral"].total_s * 1e3
    m["sim.simulate.self_ms"] = st["sim.simulate"].self_s * 1e3
    engines = (st["sim.maf_epoch_arrays"], st["sim.rr_round_arrays"])
    m["sim.arrays_mb"] = max(e.max_array_bytes for e in engines) / 1e6
    for fn in ("ou_step", "mmse_estimate", "inst_mse"):
        m[f"ou.{fn}.calls"] = st[f"ou.{fn}"].calls
    m["sim.probe_ms"] = probe_ms
    m["sim.trace_ms"] = trace_ms
    m["sim.trace_bytes"] = trace_bytes
    m["cli.run_sweep.self_ms"] = st["cli.run_sweep"].self_s * 1e3
    m["cli.write_csv.ms"] = st["cli.write_csv"].total_s * 1e3
    m["trace.overhead_ms"] = (traced - untraced) * 1e3
    m["trace.overhead_pct"] = (traced - untraced) / untraced * 100.0
    m["trace.missing_names"] = len(tr.missing)

    print(f"untraced_s {untraced:.3f} traced_s {traced:.3f} (scaled to reference speed)")
    print("missing " + json.dumps(tr.missing))
    print("note sim.arrays_mb is computed from the engine outputs' array shapes")
    return tally.result(m, PER_LAYER)


def run_one(args) -> dict:
    bootstrap()
    import workloads

    sizes = workloads.TINY if args.tiny else workloads.FULL
    ref = workloads.load_reference()
    print("env " + json.dumps(dict(
        environment(), workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, sizes="tiny" if args.tiny else "full",
    )))
    with tempfile.TemporaryDirectory(dir=str(ROOT), prefix=".bench_tmp-") as tmpdir:
        if args.trace:
            return trace(args.workload, args.seed, sizes, ref, tmpdir)
        return measure(args.workload, args.seed, args.seconds, sizes, ref, tmpdir)


def _child(workload: str, seed: int, seconds: float, trace_on: int, tiny: bool):
    """Run one workload in its own process; return its output lines and result."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace_on)]
    if tiny:
        cmd.append("--tiny")
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return lines, None
    return lines[:-1], json.loads(lines[-1])


def run_all(args) -> dict:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        print(f"== {workload}")
        lines, result = _child(workload, args.seed, args.seconds, args.trace, args.tiny)
        print("\n".join(lines))
        if result is None:
            sys.exit(f"perfbench: {workload} produced no result")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    return combined


def smoke() -> int:
    """Every workload at a tiny size, both modes: each declared metric present."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    problems = []
    for workload in (w["name"] for w in declared["workloads"]):
        for trace_on, key in ((0, "end_to_end"), (1, "per_layer")):
            _, result = _child(workload, 1, 1, trace_on, tiny=True)
            tag = f"{workload} trace={trace_on}"
            if result is None:
                problems.append(f"{tag}: no result")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: {result['failed']}/{result['attempted']} failed")
            got = result["metrics"]
            for metric in declared[key]:
                entry = got.get(metric["name"])
                if entry is None:
                    problems.append(f"{tag}: {metric['name']} missing")
                elif entry["unit"] != metric["unit"] or not math.isfinite(entry["value"]):
                    problems.append(f"{tag}: {metric['name']} = {entry}")
            extra = set(got) - {metric["name"] for metric in declared[key]}
            if extra:
                problems.append(f"{tag}: undeclared metrics {sorted(extra)}")
            print(f"smoke {tag}: {len(got)} metrics")
    for p in problems:
        print(f"smoke FAIL {p}")
    print("smoke " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    ap.add_argument("--smoke", action="store_true", help="run the benchmark's own smoke test")
    args = ap.parse_args(argv)
    if args.smoke:
        bootstrap()
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
