"""The package surface: exactly the names that users, the CLI and the benchmark call,
and exactly the options each command-line subcommand registers.

The benchmark under ``perfbench/`` reaches the package only through
``ouwait.<name>``; reading its sources as text keeps a later cut of the
surface from breaking it unnoticed.
"""

import argparse
import ast
import re
from pathlib import Path

import ouwait
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
