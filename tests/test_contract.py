"""The input contract over the whole CLI: every ``solve`` and ``simulate``
command line either exits 0 with every printed number finite, or exits 1
with exactly one ``error:`` line on stderr; no exception leaves ``main``.

The system's values are drawn from a list of extremes and from wide ranges:
k from 1 to 64; the service rate, the budget and each process's theta and
sigma squared from the extremes below or log-uniform on 1e-12..1e12 (each
list from the latter alone half the time); the
erasure rate from its extremes or uniform on [0, 1]. ``simulate`` runs at
most 200 epochs, at a drawn threshold or the solver's, and writes a trace
when asked. Warnings are errors under the suite's settings, so a numpy
warning from a valid input breaks the contract too.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import sys

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from ouwait.cli import main

# Zeros, the least subnormal, powers of ten across the float range, and the
# largest float, written out in full: 1.8e308 parses as inf.
EXTREMES = (0.0, -0.0, 5e-324, 1e-300, 1e-200, 1e-100, 1e-30, 1e30, 1e100, 1e200, 1e300,
            sys.float_info.max)
ERASURES = (0.0, 0.3, 0.9, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12, 1 - 2.0**-52, 1 - 2.0**-53, 5e-324)
# A printed number, nan and inf included, in any of the CLI's formats.
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:nan|inf|\d+(?:\.\d*)?(?:e[-+]?\d+)?)", re.IGNORECASE)

wide = st.floats(-12.0, 12.0).map(lambda e: 10.0**e)
positives = st.one_of(st.sampled_from(EXTREMES), wide)
erasures = st.one_of(st.sampled_from(ERASURES), st.floats(0.0, 1.0))


@st.composite
def command_lines(draw, tmp_path):
    command = draw(st.sampled_from(("solve", "simulate")))
    k = draw(st.integers(1, 64))
    # Values follow their flags after "=", so that one led by "-0.0" is not
    # read as a flag.
    argv = [command, f"--scheme={draw(st.sampled_from(('maf', 'rr')))}", f"--k={k}"]
    for flag, values in (("--mu", positives), ("--eps", erasures), ("--fmax", positives)):
        argv.append(f"{flag}={draw(values)!r}")
    for flag in ("--theta", "--sigma-sq"):
        # A list of k entries that may each be extreme is seldom valid, so
        # half the lists are drawn from the wide range alone.
        entries = draw(st.lists(draw(st.sampled_from((wide, positives))), min_size=k, max_size=k))
        argv.append(f"{flag}={','.join(map(repr, entries))}")
    if command == "simulate":
        argv += [f"--epochs={draw(st.integers(3, 200))}", f"--seed={draw(st.integers(0, 9))}"]
        if draw(st.booleans()):
            argv.append(f"--tau={draw(positives)!r}")
        if draw(st.booleans()):
            argv.append(f"--trace={tmp_path / 'trace.tsv'}")
    return argv


# The trace file of one example is written over by the next, so the
# function-scoped tmp_path serves every example.
@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_every_command_line_exits_cleanly(tmp_path, data):
    argv = data.draw(command_lines(tmp_path), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    event(f"{argv[0]} exit {rc}")
    if rc == 0:
        assert err.getvalue() == "" and out.getvalue()
        numbers = NUMBER.findall(out.getvalue())
        assert numbers and all(math.isfinite(float(n)) for n in numbers), out.getvalue()
    else:
        assert rc == 1, (rc, err.getvalue())
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert out.getvalue() == ""
