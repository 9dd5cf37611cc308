"""Measure the benchmark's baseline: several seeds per workload, with spreads.

    python3 perfbench/baseline.py --seeds 10 --out perfbench/baseline.json
    python3 perfbench/baseline.py --seeds 5 --workloads sweep_eps

Runs ``run.py`` once per (workload, seed) with tracing off, then once per
workload with tracing on. For every end-to-end metric it reports the median,
the quartiles from ``statistics.quantiles(values, n=4)``, and the spread
(interquartile distance over the median), next to the metric's bound in
BENCHMARK.json. Each run's values are kept in the output file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import run


def summarize(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": spread < bound / 3, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--out")
    args = ap.parse_args()

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    run.bootstrap()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    doc = {"environment": run.environment(), "run_seconds": bench["run_seconds"],
           "seeds": seeds, "workloads": {}}
    ok = True
    for name in names:
        runs = []
        for seed in seeds:
            lines, result = run._child(name, seed, bench["run_seconds"], 0, tiny=False)
            if result is None or not result["correct"]:
                print(f"{name} seed {seed}: failed run", file=sys.stderr)
                ok = False
                continue
            runs.append({"seed": seed, "attempted": result["attempted"],
                         "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                         "summary": [line for line in lines if line.startswith("metric ")]})
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v:.5g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        entry = {"runs": runs, "end_to_end": {}}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric] for r in runs]
            if len(values) >= 2:
                entry["end_to_end"][metric] = s = summarize(values, bound)
                print(f"{name} {metric}: median {s['median']:.5g} spread {s['spread']:.4f} "
                      f"(bound {bound}, steady {s['steady']})", flush=True)
                ok &= s["steady"] or metric == "setup_s"
        _, traced = run._child(name, seeds[0], bench["run_seconds"], 1, tiny=False)
        entry["per_layer"] = None if traced is None else {
            k: v["value"] for k, v in traced["metrics"].items()}
        doc["workloads"][name] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
