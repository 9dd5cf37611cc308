"""Write ``reference.json``: the solver's answers that the benchmark checks against.

Run from the repository root, only when the model is meant to change:

    python3 perfbench/make_reference.py

Every solve is taken on the canonical process order; the workloads permute
that order, which leaves tau*, beta* and the binding flag unchanged.
"""

from __future__ import annotations

import json

import run

run.bootstrap()

import ouwait  # noqa: E402
import workloads as wl  # noqa: E402


def _entry(res) -> dict:
    return {"tau_star": res.tau_star, "beta_star": res.beta_star, "binding": bool(res.binding)}


def main() -> None:
    solves = {}
    for f_max in wl.FULL.fmax_grid:
        for eps in wl.FULL.eps_grid:
            for scheme, enum in wl.SCHEMES.items():
                spec = ouwait.SweepSpec(
                    base=wl.system(wl.REF_PROCS, f_max, eps),
                    axis=ouwait.Axis.EPS,
                    grid=(eps,),
                    schemes=(enum,),
                    include_zero_wait=True,
                )
                (row,) = ouwait.run_sweep(spec)
                if row.status != "ok":
                    raise SystemExit(f"reference solve failed: {row}")
                solves[wl.sweep_key(scheme, f_max, eps)] = dict(
                    _entry(row), zero_wait_mse=row.zero_wait_mse
                )
    for k in wl.FULL.wide_ks:
        cfg = wl.system(wl.wide_procs(k), **wl.WIDE_SYSTEM)
        for scheme in wl.SCHEMES:
            solves[wl.wide_key(scheme, k)] = _entry(wl.solve(scheme, cfg))
    for label, params in (("corner", wl.CORNER), ("probe", wl.PROBE_SYSTEM)):
        cfg = wl.system(wl.REF_PROCS, **params)
        for scheme in wl.SCHEMES:
            solves[f"{label}/{scheme}"] = _entry(wl.solve(scheme, cfg))
    doc = {"produced_at": run.environment(), "solves": solves}
    with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(solves)} reference solves to {wl.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
