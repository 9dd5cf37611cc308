"""Command-line front end: single solves, simulations, and parameter sweeps.

Sweeps reproduce the threshold and MSE curves against erasure probability,
process count, per-process reversion rate, or sampling budget, emitting one
CSV row per (axis value, scheme). Solver or simulator trouble at a grid point
is recorded in that row's status column instead of aborting the sweep.

Config file grammar (one ``key = value`` per line, ``#`` comments, arrays
comma-separated)::

    k = 2
    mu = 1.0
    eps = 0.3
    fmax = 1.5
    theta = 0.1, 0.5
    sigma_sq = 1.0, 2.0
    axis = eps
    grid = 0.0, 0.1, 0.2, 0.3
    schemes = maf, rr
    include_zero_wait = true
    sim_validate = false
    n_epochs = 100000
    seed = 1

The file alone sets a sweep. Every key must be known and appear once, and
every grid point must make a valid system, or the sweep stops before its
first solve. Axis ``theta_j`` varies the last process's
reversion rate; axis ``k`` requires all processes identical and replicates
the first one. Simulation seeds are derived per row as ``seed + row index``.
"""

from __future__ import annotations

import argparse
import enum
import errno
import inspect
import os
import sys
import tempfile
from dataclasses import MISSING, dataclass, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .sim import simulate
from .threshold import _mse, _solve, solve
from .types import ConvergenceError, InvalidConfig, ProcessParams, Scheme, SystemConfig
from .types import _NONNEGATIVE, MAX_SERIES_TERMS, ThresholdPolicy, _count, _flag, _real
from .types import _systemconfig


class ConfigFormatError(ValueError):
    """Raised on malformed config files, and on per-process lists not of length k."""


class Axis(enum.Enum):
    EPS = "eps"
    K = "k"
    THETA_J = "theta_j"
    FMAX = "fmax"


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a base instance, an axis with its grid, and output options."""

    base: SystemConfig
    axis: Axis
    grid: Tuple[float, ...]
    schemes: Tuple[Scheme, ...]
    include_zero_wait: bool = False
    sim_validate: bool = False
    n_epochs: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        _systemconfig("base", self.base)
        if not isinstance(self.axis, Axis):
            raise InvalidConfig(f"axis must be an Axis, got {self.axis!r}")
        object.__setattr__(self, "schemes", tuple(self.schemes))
        for scheme in self.schemes:
            if not isinstance(scheme, Scheme):
                raise InvalidConfig(f"schemes must hold Schemes, got {scheme!r}")
        for flag in ("include_zero_wait", "sim_validate"):
            object.__setattr__(self, flag, _flag(flag, getattr(self, flag)))
        object.__setattr__(self, "n_epochs", _count("n_epochs", self.n_epochs, 1))
        object.__setattr__(self, "seed", _count("seed", self.seed, 0))
        # Every axis value is nonnegative; config_at checks each axis's own range.
        name = f"{self.axis.value} grid value"
        object.__setattr__(self, "grid", tuple(_real(name, v, _NONNEGATIVE) for v in self.grid))
        if not self.grid:
            raise InvalidConfig("grid must be nonempty")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise InvalidConfig("grid must be strictly increasing")
        if not self.schemes:
            raise InvalidConfig("at least one scheme required")
        for v in self.grid:
            try:
                config_at(self.base, self.axis, v)
            except InvalidConfig as exc:
                raise InvalidConfig(f"{self.axis.value} grid value {v}: {exc}")


@dataclass(frozen=True)
class SweepRow:
    axis: Axis
    value: float
    scheme: Scheme
    tau_star: Optional[float]
    beta_star: Optional[float]
    binding: Optional[bool]
    zero_wait_mse: Optional[float]
    sim_mse: Optional[float]
    sim_stderr: Optional[float]
    status: str = "ok"


# One CSV column per SweepRow field, in field order.
CSV_HEADER = ",".join(f.name for f in fields(SweepRow))


def config_at(base: SystemConfig, axis: Axis, value: float) -> SystemConfig:
    """Instantiate the base config at one axis value."""
    if axis is Axis.EPS:
        return replace(base, eps=value)
    if axis is Axis.FMAX:
        return replace(base, f_max=value)
    if axis is Axis.THETA_J:
        procs = list(base.processes)
        procs[-1] = replace(procs[-1], theta=value)
        return replace(base, processes=tuple(procs))
    if len(set(base.processes)) != 1:
        raise InvalidConfig("k-axis sweeps need identical processes in the base config")
    if not float(value).is_integer():
        raise InvalidConfig(f"k must be a whole number, got {value}")
    # A round of k slots needs k + 1 series terms: refuse a larger k
    # before its k-tuple of processes is built.
    if value > MAX_SERIES_TERMS:
        raise InvalidConfig(f"k must be at most {MAX_SERIES_TERMS}, got {value}")
    k = int(value)
    return replace(base, k=k, processes=(base.processes[0],) * k)


def _solve_row(spec: SweepSpec, scheme: Scheme, value: float, row_index: int) -> SweepRow:
    cfg = config_at(spec.base, spec.axis, value)
    try:
        res, law = _solve(cfg, scheme)
    except (ConvergenceError, InvalidConfig) as exc:
        return SweepRow(
            spec.axis, value, scheme, None, None, None, None, None, None,
            status=f"solver_failed:{type(exc).__name__}",
        )
    # The solve's own law already holds the zero-wait round transform.
    zero_wait = _mse(0.0, law) if spec.include_zero_wait else None
    sim_mse = sim_se = None
    status = "ok"
    if spec.sim_validate:
        try:
            stats = simulate(
                cfg,
                ThresholdPolicy(scheme, res.tau_star),
                n_epochs=spec.n_epochs,
                seed=spec.seed + row_index,
            )
        except (ConvergenceError, InvalidConfig) as exc:
            status = f"sim_failed:{type(exc).__name__}"
        else:
            sim_mse, sim_se = stats.sum_mse, stats.sum_mse_se
    return SweepRow(
        spec.axis, value, scheme, res.tau_star, res.beta_star, res.binding,
        zero_wait, sim_mse, sim_se, status,
    )


def run_sweep(spec: SweepSpec) -> List[SweepRow]:
    """Evaluate every (axis value, scheme) pair, in grid order."""
    rows = []
    for value in spec.grid:
        for scheme in spec.schemes:
            rows.append(_solve_row(spec, scheme, value, len(rows)))
    return rows


def _fmt(x) -> str:
    """One CSV cell: None empty, a flag 1 or 0, an enum its value, text as is, a number .12g."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, enum.Enum):
        return x.value
    if isinstance(x, str):
        return x
    return f"{x:.12g}"


def format_csv(rows: Sequence[SweepRow]) -> str:
    """Sweep rows as CSV text: the header, then one line per row."""
    names = [f.name for f in fields(SweepRow)]
    lines = [CSV_HEADER] + [",".join(_fmt(getattr(r, n)) for n in names) for r in rows]
    return "\n".join(lines) + "\n"


def write_csv(rows: Sequence[SweepRow], path: str) -> None:
    """Write sweep rows atomically (write then rename, same directory)."""
    payload = format_csv(rows)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sweep-", suffix=".csv")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _BadValue(argparse.ArgumentTypeError, ValueError):
    """A value a parser refuses: argparse reports it under its flag, and
    :func:`read_config` under its line and key."""


def _parser(cast, what: str):
    """A config key's or flag's value parser: ``cast``, failing with ``what`` and the value."""

    def parse(raw: str):
        try:
            return cast(raw)
        except (KeyError, ValueError):
            raise _BadValue(f"{what} {raw!r}")

    return parse


_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_floats = _parser(lambda raw: tuple(float(t) for t in raw.split(",") if t.strip()),
                  "not a number list:")
_scheme = _parser(Scheme, "unknown scheme")
_boolean = _parser(lambda raw: _BOOL_WORDS[raw.lower()], "not a boolean:")
_int = _parser(int, "bad value")
_float = _parser(float, "bad value")

# Config keys in file order, with their parsers. The first six give the system
# (see _system); each other key sets the SweepSpec field of its name, and may
# be left out where that field has a default.
_CONFIG_KEYS = {
    "k": _int,
    "mu": _float,
    "eps": _float,
    "fmax": _float,
    "theta": _floats,
    "sigma_sq": _floats,
    "axis": _parser(lambda raw: Axis(raw.lower()), "unknown axis"),
    "grid": _floats,
    "schemes": lambda raw: tuple(_scheme(t.strip().lower()) for t in raw.split(",") if t.strip()),
    "include_zero_wait": _boolean,
    "sim_validate": _boolean,
    "n_epochs": _int,
    "seed": _int,
}
_SYSTEM_KEYS = ("k", "mu", "eps", "fmax", "theta", "sigma_sq")
_OPTIONAL_KEYS = {f.name for f in fields(SweepSpec) if f.default is not MISSING}


def _system(k: int, mu: float, eps: float, fmax: float, thetas, sigmas) -> SystemConfig:
    """The system of the six system keys, given one theta and sigma_sq per process."""
    if len(thetas) != k or len(sigmas) != k:
        raise ConfigFormatError(f"theta/sigma_sq arrays must each have k={k} entries")
    processes = tuple(map(ProcessParams, thetas, sigmas))
    return SystemConfig(k=k, f_max=fmax, mu=mu, eps=eps, processes=processes)


def read_config(path: str) -> SweepSpec:
    """Parse a sweep config file; malformed lines report line and field."""
    entries: Dict[str, Tuple[str, int]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigFormatError(f"line {lineno}: expected 'key = value', got {line!r}")
            key, _, value = body.partition("=")
            key = key.strip().lower()
            if key not in _CONFIG_KEYS:
                raise ConfigFormatError(f"line {lineno}: unknown key '{key}'")
            if key in entries:
                raise ConfigFormatError(
                    f"line {lineno}: key '{key}' already set on line {entries[key][1]}"
                )
            entries[key] = (value.strip(), lineno)

    values = {}
    for key, parse in _CONFIG_KEYS.items():
        if key not in entries:
            if key in _OPTIONAL_KEYS:
                continue
            raise ConfigFormatError(f"missing required field '{key}'")
        raw, lineno = entries[key]
        try:
            values[key] = parse(raw)
        except ValueError as exc:
            raise ConfigFormatError(f"line {lineno}: field '{key}': {exc}")
    try:
        base = _system(*(values.pop(key) for key in _SYSTEM_KEYS))
    except ConfigFormatError as exc:
        raise ConfigFormatError(f"line {entries['theta'][1]}: {exc}")
    except InvalidConfig as exc:
        raise ConfigFormatError(f"invalid system parameters: {exc}")
    try:
        return SweepSpec(base=base, **values)
    except InvalidConfig as exc:
        raise ConfigFormatError(f"invalid sweep spec: {exc}")


def _config_text(value) -> str:
    """A config value as written: lists comma-separated, flags true or false,
    enums by value, floats by repr, so that they read back equal."""
    if isinstance(value, (tuple, list)):
        return ", ".join(map(_config_text, value))
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, enum.Enum):
        return value.value
    return repr(value) if isinstance(value, float) else str(value)


def write_config(spec: SweepSpec, path: str) -> None:
    """Emit a config file that reads back to an equal SweepSpec."""
    b = spec.base
    values = {f.name: getattr(spec, f.name) for f in fields(spec)}
    values.update(zip(_SYSTEM_KEYS, (
        b.k, b.mu, b.eps, b.f_max,
        tuple(p.theta for p in b.processes), tuple(p.sigma_sq for p in b.processes),
    )))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{key} = {_config_text(values[key])}\n" for key in _CONFIG_KEYS))


# Every option, by flag. A subcommand registers only the flags it reads, so a
# flag it ignores is a usage error; the system flags parse as their config keys.
_FLAGS = {
    "--scheme": dict(type=_scheme, required=True, help="maf (feedback) or rr (no feedback)"),
    "--k": dict(type=_int, required=True, help="number of processes"),
    "--mu": dict(type=_float, required=True, help="service rate"),
    "--eps": dict(type=_float, required=True, help="erasure probability"),
    "--fmax": dict(type=_float, required=True, help="total sampling frequency budget"),
    "--theta": dict(type=_floats, required=True, help="comma-separated reversion rates"),
    "--sigma-sq": dict(type=_floats, required=True, help="comma-separated squared amplitudes"),
    "--tol": dict(type=_float, default=inspect.signature(solve).parameters["tol"].default,
                  help="solver tolerance (default %(default)g)"),
    "--tau": dict(type=_float, default=None, help="threshold (defaults to the solver's optimum)"),
    "--epochs": dict(type=_int, default=100_000, help="simulation epochs (default %(default)d)"),
    "--seed": dict(type=_int, default=0, help="RNG seed (default %(default)d)"),
    "--burn-in": dict(type=_int, default=None,
                      help="discarded initial epochs (default 1000, or epochs - 3 if less)"),
    "--trace": dict(type=str, default=None, help="epoch trace dump path"),
    "config": dict(help="sweep config file"),
    "--out": dict(type=str, default=None, help="output CSV path"),
}


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error, so that ``main`` reports it as one line with rc 1."""

    def error(self, message: str):
        raise InvalidConfig(f"{self.prog}: {message}")


def _system_from_args(args: argparse.Namespace) -> SystemConfig:
    return _system(*(getattr(args, key) for key in _SYSTEM_KEYS))


def _cmd_solve(args: argparse.Namespace) -> int:
    res = solve(_system_from_args(args), args.scheme, args.tol)
    print(
        f"scheme={args.scheme.value} tau_star={res.tau_star:.9g} beta_star={res.beta_star:.9g} "
        f"binding={int(res.binding)} outer_iters={res.outer_iters} "
        f"achieved_tol={res.achieved_tol:.3g}"
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _system_from_args(args)
    tau = solve(cfg, args.scheme, args.tol).tau_star if args.tau is None else args.tau
    stats = simulate(
        cfg, ThresholdPolicy(args.scheme, tau), n_epochs=args.epochs, seed=args.seed,
        burn_in=args.burn_in, trace_path=args.trace,
    )
    print(
        f"scheme={args.scheme.value} tau={tau:.9g} sum_mse={stats.sum_mse:.6g} "
        f"(se {stats.sum_mse_se:.2g}) mean_epoch={stats.mean_epoch_len:.6g} "
        f"epochs={stats.epochs}"
    )
    for i, (m, s) in enumerate(zip(stats.per_process_mse, stats.per_process_mse_se)):
        print(f"  process {i + 1}: mse={m:.6g} (se {s:.2g}) "
              f"inter_sample={stats.per_process_inter_sample_mean[i]:.6g}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    # The CSV is written only after every row: find a missing directory now.
    if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out)
    rows = run_sweep(read_config(args.config))
    if args.out:
        write_csv(rows, args.out)
    else:
        sys.stdout.write(format_csv(rows))
    return 0 if all(r.status == "ok" for r in rows) else 2


_SYSTEM_FLAGS = ("--scheme", "--k", "--mu", "--eps", "--fmax", "--theta", "--sigma-sq")

# Each subcommand: its name, handler, help and flags. A tuple of flags is a
# mutually exclusive group: --tol steers the solver that --tau bypasses.
_COMMANDS = (
    ("solve", _cmd_solve, "optimal threshold and minimum sum MSE of one scheme",
     _SYSTEM_FLAGS + ("--tol",)),
    ("simulate", _cmd_simulate, "Monte Carlo run at a given or optimal threshold",
     _SYSTEM_FLAGS + (("--tol", "--tau"), "--epochs", "--seed", "--burn-in", "--trace")),
    ("sweep", _cmd_sweep, "evaluate a config-file sweep, write CSV", ("config", "--out")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ouwait",
        description="Threshold-waiting solver and simulator for shared-queue remote estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, flags in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        for flag in flags:
            group = p.add_mutually_exclusive_group() if isinstance(flag, tuple) else p
            for one in flag if isinstance(flag, tuple) else (flag,):
                group.add_argument(one, **_FLAGS[one])
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (InvalidConfig, ConfigFormatError, ConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
