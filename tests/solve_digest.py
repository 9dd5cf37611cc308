"""One sha256 over the solver's output on a fixed grid of solves.

A change meant to keep every analytic bit prints the same digest as its
parent. The script uses only the public ``solve``, so it runs unedited
against any checkout:

    PYTHONPATH=src python tests/solve_digest.py
    PYTHONPATH=<other checkout>/src python tests/solve_digest.py

It prints the digest, then exits with status 1 where the digest is not the
stored ``DIGEST``, so that CI fails on a change to any solved bit. A change
that moves the bits on purpose stores its new digest here.

The grid is k = 1, 2, 4, 16, 64 × eps 0, 0.3, 0.9, 1 - 1e-6, 1 - 1e-9 ×
f_max 0.5, 0.95, 1.5, 1 - 1e-9 at mu = 1 × both schemes, with reversion
rates geometrically spaced from 0.05 to 2 and sigma_sq alternating 1 and 2;
then points that every version refuses, such as eps = 1 - 1e-15 at k = 64.
Each solve adds its ``SolveResult`` repr, whose floats print exactly, to the
digest, or the class name of the error it raised.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np

from ouwait import ConvergenceError, InvalidConfig, ProcessParams, Scheme, SystemConfig, solve

MU = 1.0
GRID = (
    (1, 2, 4, 16, 64),
    (0.0, 0.3, 0.9, 1.0 - 1e-6, 1.0 - 1e-9),
    (0.5, 0.95, 1.5, 1.0 - 1e-9),
    tuple(Scheme),
)
# 64 processes whose sum MSE no threshold moves by a float spacing at
# eps = 1 - 1e-15, so that every solve of them is refused.
FLAT = tuple(ProcessParams(t, 1.0) for t in np.linspace(0.1, 0.5, 64).tolist())
REFUSED = tuple(
    SystemConfig(k=64, f_max=f_max, mu=MU, eps=1.0 - 1e-15, processes=FLAT)
    for f_max in (0.5, 1.5)
)
DIGEST = "c1fc8894292973665b2e142764660aabe235fe375b48934719b276eeb96ec2f8"


def config(k: int, eps: float, f_max: float) -> SystemConfig:
    thetas = np.geomspace(0.05, 2.0, k).tolist()
    processes = tuple(ProcessParams(t, 1.0 + i % 2) for i, t in enumerate(thetas))
    return SystemConfig(k=k, f_max=f_max, mu=MU, eps=eps, processes=processes)


def grid_digest() -> tuple[str, dict]:
    """The hex digest over every solve, and how many were binding, slack and refused."""
    digest = hashlib.sha256()
    counts = {"binding": 0, "slack": 0, "refused": 0}
    points = itertools.chain(
        ((config(k, eps, f_max), scheme) for k, eps, f_max, scheme in itertools.product(*GRID)),
        itertools.product(REFUSED, Scheme),
    )
    for cfg, scheme in points:
        try:
            res = solve(cfg, scheme)
        except (ConvergenceError, InvalidConfig) as exc:
            digest.update(type(exc).__name__.encode("ascii"))
            counts["refused"] += 1
            continue
        digest.update(repr(res).encode("ascii"))
        counts["binding" if res.binding else "slack"] += 1
    return digest.hexdigest(), counts


if __name__ == "__main__":
    hexdigest, counts = grid_digest()
    print(f"{hexdigest}  " + ", ".join(f"{n} {name}" for name, n in counts.items()))
    if hexdigest != DIGEST:
        raise SystemExit(f"the digest is not the stored {DIGEST}")
