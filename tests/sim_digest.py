"""One sha256 over the simulator's output on a fixed grid of runs.

A change meant to keep every simulated bit prints the same digest as its
parent. The script uses only the public ``simulate`` and the engine's
``CHUNK_ROUNDS``, so it runs unedited against any checkout:

    PYTHONPATH=src python tests/sim_digest.py
    PYTHONPATH=<other checkout>/src python tests/sim_digest.py

It prints the digest, then exits with status 1 where the digest is not the
stored ``DIGEST``, so that CI fails on a change to any simulated bit. A
change that moves the bits on purpose stores its new digest here.

The grid is k = 1, 2, 3 × eps 0, 0.3, 0.9 × both schemes × the wait all up
front or split evenly × chunks of 16384 and 7 rounds, then k = 8 × eps 0 and
0.3 × both schemes × the same two chunk sizes with the wait up front, so that
runs where all k processes share one statistics window, and runs where each
has its own, are pinned at a k past the first three. Each run is made with
the OU probe and the trace on, and adds its ``SimStats`` repr, whose floats
print exactly, and its trace file's bytes to the digest. The service rate is
not 1, so that a slip in how services are scaled shows.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import tempfile

import numpy as np

import ouwait
import ouwait.sim
from ouwait import ProcessParams, Scheme, SystemConfig, ThresholdPolicy

PROCESSES = (ProcessParams(0.1, 1.0), ProcessParams(0.5, 2.0), ProcessParams(1.0, 0.5))
WIDE = tuple(ProcessParams(float(theta), 1.0 + i % 2)
             for i, theta in enumerate(np.geomspace(0.05, 2.0, 8)))
N_EPOCHS = 2000
TAU = 1.3
MU = 1.3
SEED = 4242
DIGEST = "660284907c6bb9eec4a3b4606e7237ffe7cd78186fb6139cbe167cc0f725671d"


def grid_digest(folder: str) -> tuple[str, int]:
    """The hex digest over every run of the grid, and the number of runs."""
    digest = hashlib.sha256()
    runs = 0
    path = os.path.join(folder, "trace.tsv")
    grid = itertools.chain(
        itertools.product((PROCESSES[:1], PROCESSES[:2], PROCESSES), (0.0, 0.3, 0.9),
                          tuple(Scheme), (False, True), (16384, 7)),
        itertools.product((WIDE,), (0.0, 0.3), tuple(Scheme), (False,), (16384, 7)),
    )
    for processes, eps, scheme, split, chunk in grid:
        k = len(processes)
        cfg = SystemConfig(k=k, f_max=1.5, mu=MU, eps=eps, processes=processes)
        ouwait.sim.CHUNK_ROUNDS = chunk
        stats = ouwait.simulate(
            cfg, ThresholdPolicy(scheme, TAU), n_epochs=N_EPOCHS, seed=SEED + runs,
            wait_split=(1.0 / k,) * k if split else None, track_ou=True, trace_path=path,
        )
        digest.update(repr(stats).encode("ascii"))
        with open(path, "rb") as fh:
            digest.update(fh.read())
        runs += 1
    return digest.hexdigest(), runs


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as folder:
        hexdigest, runs = grid_digest(folder)
    print(f"{hexdigest}  {runs} runs")
    if hexdigest != DIGEST:
        raise SystemExit(f"the digest is not the stored {DIGEST}")
