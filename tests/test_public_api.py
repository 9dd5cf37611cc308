"""The package surface: exactly the names that users, the CLI and the benchmark call,
and exactly the options each command-line subcommand registers.

The benchmark under ``perfbench/`` reaches the package only through
``ouwait.<name>``; reading its sources as text keeps a later cut of the
surface from breaking it unnoticed.
"""

import argparse
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ouwait
import ouwait.sim
from ouwait.cli import build_parser

PUBLIC = {
    "Axis", "ConfigFormatError", "ConvergenceError", "InvalidConfig", "ProcessParams",
    "Scheme", "SimStats", "SolveResult", "SweepRow", "SweepSpec", "SystemConfig",
    "ThresholdPolicy", "epoch_mean", "inst_mse", "mse_at_tau", "mse_integral", "ou_step",
    "read_config", "run_sweep", "simulate", "solve", "solve_maf", "solve_rr",
    "write_config", "write_csv",
}
SYSTEM_FLAGS = ["--scheme", "--k", "--mu", "--eps", "--fmax", "--theta", "--sigma-sq"]
SOLVE_FLAGS = ["-h", "--help"] + SYSTEM_FLAGS + ["--tol"]
COMMAND_LINE = {
    "solve": SOLVE_FLAGS,
    "simulate": SOLVE_FLAGS + ["--tau", "--epochs", "--seed", "--burn-in", "--trace"],
    "sweep": ["-h", "--help", "config", "--out"],
}
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_all_is_the_public_surface():
    assert len(ouwait.__all__) == len(PUBLIC) == 25
    assert set(ouwait.__all__) == PUBLIC
    for name in ouwait.__all__:
        assert getattr(ouwait, name) is not None


SRC = os.path.dirname(os.path.dirname(ouwait.__file__))
SOLVE = (
    "procs = (ouwait.ProcessParams(0.1, 1.0), ouwait.ProcessParams(0.5, 2.0)); "
    "cfg = ouwait.SystemConfig(k=2, f_max=0.5, mu=1.0, eps=0.3, processes=procs); "
    "ouwait.solve_maf(cfg); ouwait.solve_rr(cfg)"
)
CLI_SOLVE = (
    "from ouwait import cli; "
    "rc = cli.main(['solve', '--scheme', 'rr', '--k', '2', '--mu', '1.0', '--eps', '0.3', "
    "'--fmax', '1.5', '--theta', '0.1,0.5', '--sigma-sq', '1.0,2.0']); "
    "assert rc == 0, rc"
)


@pytest.mark.parametrize("code, unloaded", [
    (SOLVE, ["argparse", "ouwait.cli", "ouwait.ou", "ouwait.sim"]),
    (CLI_SOLVE, ["ouwait.ou", "ouwait.sim"]),
], ids=["solve", "cli-solve"])
def test_a_solve_loads_no_simulator(code, unloaded):
    # A process that only solves never compiles the simulator, the OU helpers
    # or, through the library, the command line and argparse.
    check = (
        f"import sys; sys.path.insert(0, {SRC!r}); import ouwait; {code}; "
        f"print(sorted(set({unloaded!r}) & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"


def test_lazy_names_are_listed_bound_and_cached():
    code = (
        f"import sys; sys.path.insert(0, {SRC!r}); import ouwait; "
        "listed = set(ouwait.__all__) <= set(dir(ouwait)); "
        "from ouwait import *; "
        "bound = all(name in globals() for name in ouwait.__all__); "
        "cached = 'simulate' in vars(ouwait); "
        "print(listed, bound, cached, 'ouwait.sim' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True", "True", "True", "True"]


def test_lazy_names_are_the_defining_modules_objects():
    assert ouwait.simulate is ouwait.sim.simulate
    assert ouwait.simulate is vars(ouwait)["simulate"]
    with pytest.raises(AttributeError, match="'no_such_name'"):
        ouwait.no_such_name


def benchmark_names() -> set:
    """Every ``ouwait.<name>`` in the benchmark's sources, and its solver table."""
    names = set()
    for fname in ("workloads.py", "run.py"):
        text = (PERFBENCH / fname).read_text(encoding="utf-8")
        names.update(re.findall(r"\bouwait\.(\w+)", text))
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SOLVERS" for t in node.targets
            ):
                names.update(ast.literal_eval(node.value).values())
    return names


def test_benchmark_names_resolve():
    names = benchmark_names()
    assert {"SystemConfig", "simulate", "solve_maf", "solve_rr"} <= names
    assert sorted(n for n in names if not hasattr(ouwait, n)) == []


def test_command_line_is_the_registered_options():
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    registered = {
        name: [opt for a in p._actions for opt in (a.option_strings or [a.dest])]
        for name, p in commands.choices.items()
    }
    assert registered == COMMAND_LINE


def test_every_private_definition_has_a_caller_in_the_package():
    # A module-level function or class outside ``__all__``, private or not,
    # that only the tests call is a test engine kept in the package. Names are
    # read from the code alone, so a mention in a docstring or a comment is no
    # caller.
    trees = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(ouwait.__file__).resolve().parent.glob("*.py"))
    ]
    private = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in ouwait.__all__
        and not node.name.startswith("__")
    }
    referenced = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert sorted(private - referenced) == []
