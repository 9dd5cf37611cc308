"""The benchmark's own test: every workload at a tiny size emits every declared metric.

    python -m pytest perfbench/test_smoke.py

Kept out of the package's test suite, which collects only ``tests/``.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_emits_every_declared_metric():
    out = subprocess.run(
        [sys.executable, str(RUN), "--smoke"], capture_output=True, text=True, timeout=600
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.strip().splitlines()[-1] == "smoke ok"


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    (bench / "run.py").write_text(RUN.read_text())
    out = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "sim_long", "--seconds", "1"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert out.returncode != 0
    assert out.stdout == ""
