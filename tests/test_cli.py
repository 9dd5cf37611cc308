"""Config ingestion, sweep execution, CSV output, and the command line."""

import math
import os
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

import ouwait.cli as cli
import ouwait.series as series
from ouwait import (
    Axis,
    ConfigFormatError,
    ConvergenceError,
    InvalidConfig,
    ProcessParams,
    Scheme,
    SweepSpec,
    SystemConfig,
    mse_at_tau,
    read_config,
    run_sweep,
    write_config,
    write_csv,
)

BASE = SystemConfig(
    k=2, f_max=1.5, mu=1.0, eps=0.3,
    processes=(ProcessParams(0.1, 1.0), ProcessParams(0.5, 2.0)),
)


def spec_eps(**kw):
    defaults = dict(
        base=BASE, axis=Axis.EPS, grid=(0.0, 0.1, 0.2), schemes=(Scheme.MAF_FEEDBACK,),
    )
    defaults.update(kw)
    return SweepSpec(**defaults)


class TestSweepSpec:
    def test_grid_must_increase(self):
        with pytest.raises(InvalidConfig):
            spec_eps(grid=(0.1, 0.1))
        with pytest.raises(InvalidConfig):
            spec_eps(grid=())

    def test_axis_domains(self):
        with pytest.raises(InvalidConfig):
            spec_eps(grid=(0.0, 1.0))
        with pytest.raises(InvalidConfig):
            spec_eps(axis=Axis.K, grid=(1.0, 2.5))
        with pytest.raises(InvalidConfig):
            spec_eps(axis=Axis.FMAX, grid=(-1.0, 1.0))

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    @pytest.mark.parametrize(
        "axis, first", [("eps", 0.1), ("k", 1.0), ("theta_j", 0.2), ("fmax", 0.5)]
    )
    def test_non_finite_grid_rejected_before_any_solve(self, tmp_path, capsys, axis, first, bad):
        with pytest.raises(InvalidConfig, match="finite"):
            spec_eps(axis=Axis(axis), grid=(first, float(bad)))
        path = tmp_path / "sweep.cfg"
        path.write_text(
            "k = 2\nmu = 1.0\neps = 0.3\nfmax = 1.5\ntheta = 0.5, 0.5\nsigma_sq = 1, 1\n"
            f"axis = {axis}\ngrid = {first}, {bad}\nschemes = maf\n"
        )
        assert cli.main(["sweep", os.fspath(path)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: invalid sweep spec") and out.err.count("\n") == 1

    @pytest.mark.parametrize(
        "theta, axis, grid",
        [("0.5, 0.5", "theta_j", "0.5, 1e308"), ("0.1, 0.5", "k", "1, 2"),
         ("0.5, 0.5", "k", "1, 2.5"), ("0.5, 0.5", "k", "1, 1e9"), ("0.5, 0.5", "k", "1, 1e300")],
        ids=["theta-overflows", "k-over-unlike-processes", "k-not-whole", "k-above-series-cap",
             "k-tuple-overflows"],
    )
    def test_grid_point_the_system_rejects_fails_before_any_solve(
        self, tmp_path, capsys, monkeypatch, theta, axis, grid
    ):
        thetas = [float(t) for t in theta.split(",")]
        base = replace(BASE, processes=tuple(ProcessParams(t, 1.0) for t in thetas))
        with pytest.raises(InvalidConfig, match=f"{axis} grid value"):
            spec_eps(base=base, axis=Axis(axis), grid=tuple(float(v) for v in grid.split(",")))
        calls = []
        monkeypatch.setattr(cli, "_solve", lambda *a, **kw: calls.append(a))
        path = tmp_path / "sweep.cfg"
        path.write_text(
            "k = 2\nmu = 1.0\neps = 0.3\nfmax = 1.5\n"
            f"theta = {theta}\nsigma_sq = 1, 1\naxis = {axis}\ngrid = {grid}\nschemes = maf\n"
        )
        assert cli.main(["sweep", os.fspath(path)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: invalid sweep spec") and out.err.count("\n") == 1
        assert calls == []

    def test_negative_seed_rejected_before_any_row(self, tmp_path, capsys):
        with pytest.raises(InvalidConfig, match="seed"):
            spec_eps(seed=-1)
        path = tmp_path / "sweep.cfg"
        path.write_text(
            "k = 2\nmu = 1.0\neps = 0.3\nfmax = 1.5\ntheta = 0.5, 0.5\nsigma_sq = 1, 1\n"
            "axis = eps\ngrid = 0.1, 0.2\nschemes = maf\nsim_validate = true\n"
            "n_epochs = 2000\nseed = -1\n"
        )
        with pytest.raises(ConfigFormatError, match="invalid sweep spec: seed"):
            read_config(os.fspath(path))
        assert cli.main(["sweep", os.fspath(path)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: invalid sweep spec: seed") and out.err.count("\n") == 1

    @pytest.mark.parametrize("field, value", [("n_epochs", 5000.0), ("seed", 1.0)])
    def test_float_count_rejected_before_any_row(self, monkeypatch, field, value):
        # A float n_epochs was once accepted, and then every row's simulation failed.
        calls = []
        monkeypatch.setattr(cli, "_solve", lambda *a, **kw: calls.append(a))
        with pytest.raises(InvalidConfig, match=f"{field} must be"):
            run_sweep(spec_eps(sim_validate=True, **{field: value}))
        assert calls == []

    def test_k_axis_needs_symmetric_base(self):
        with pytest.raises(InvalidConfig):
            cli.config_at(BASE, Axis.K, 3)
        sym = replace(BASE, processes=(ProcessParams(0.5, 1.0),) * 2)
        out = cli.config_at(sym, Axis.K, 5)
        assert out.k == 5 and len(out.processes) == 5

    def test_theta_axis_varies_last_process(self):
        out = cli.config_at(BASE, Axis.THETA_J, 0.9)
        assert out.processes[-1].theta == 0.9
        assert out.processes[0] == BASE.processes[0]


class TestRunSweep:
    def test_cardinality_and_order(self):
        spec = spec_eps(
            grid=tuple(i / 10 for i in range(10)),
            schemes=(Scheme.MAF_FEEDBACK, Scheme.RR_NO_FEEDBACK),
        )
        rows = run_sweep(spec)
        assert len(rows) == 20
        assert [r.value for r in rows[:4]] == [0.0, 0.0, 0.1, 0.1]
        assert all(r.status == "ok" for r in rows)

    def test_coincident_schemes_at_zero_erasure(self):
        spec = spec_eps(grid=(0.0,), schemes=(Scheme.MAF_FEEDBACK, Scheme.RR_NO_FEEDBACK))
        rows = run_sweep(spec)
        assert abs(rows[0].tau_star - rows[1].tau_star) <= 1e-6
        assert abs(rows[0].beta_star - rows[1].beta_star) <= 1e-6

    def test_zero_wait_and_sim_columns(self):
        spec = spec_eps(grid=(0.2,), include_zero_wait=True, sim_validate=True,
                        n_epochs=5000, seed=7)
        row = run_sweep(spec)[0]
        assert row.zero_wait_mse is not None and row.zero_wait_mse >= row.beta_star - 1e-9
        assert row.sim_mse is not None and row.sim_stderr is not None

    @pytest.mark.parametrize("f_max", [1.5, 0.5], ids=["slack", "binding"])
    def test_zero_wait_column_reuses_the_solve_law(self, monkeypatch, rounds, f_max):
        # The zero-wait ratio reads the round transform at tau = 0 from the
        # law the solve built: it adds no Poisson table and no round.
        # Rebuilding the law took 300 round transforms against 262 at f_max 1.5.
        tables = []
        real = series._poisson_pmf

        def counting(*args):
            tables.append(args)
            return real(*args)

        monkeypatch.setattr(series, "_poisson_pmf", counting)
        grid = tuple(round(0.05 * i, 2) for i in range(19))
        counts = []
        for include in (False, True):
            tables.clear()
            rounds.clear()
            spec = spec_eps(base=replace(BASE, f_max=f_max), grid=grid,
                            schemes=(Scheme.MAF_FEEDBACK, Scheme.RR_NO_FEEDBACK),
                            include_zero_wait=include)
            rows = run_sweep(spec)
            counts.append({"tables": len(tables), "rounds": len(rounds),
                           "transforms": sum(len(r.computed) for r in rounds)})
        assert counts[1]["tables"] == counts[0]["tables"]
        assert counts[1]["rounds"] == counts[0]["rounds"] == len(rows)
        if f_max >= BASE.mu:
            # tau_b = 0: the solve's first ratio took the transform at 0 already.
            assert counts[1]["transforms"] == counts[0]["transforms"]
        for row in rows:
            cfg = cli.config_at(spec.base, spec.axis, row.value)
            assert row.zero_wait_mse == mse_at_tau(0.0, cfg, row.scheme)

    def test_solver_failure_is_row_local(self, monkeypatch):
        calls = {"n": 0}
        real = cli._solve

        def flaky(cfg, *a, **kw):
            calls["n"] += 1
            if calls["n"] == 2:
                raise ConvergenceError("forced")
            return real(cfg, *a, **kw)

        monkeypatch.setattr(cli, "_solve", flaky)
        rows = run_sweep(spec_eps())
        assert [r.status for r in rows] == ["ok", "solver_failed:ConvergenceError", "ok"]
        assert rows[1].tau_star is None

    def test_simulator_failure_is_row_local(self):
        # One epoch leaves no post-burn-in epochs to average: every row keeps
        # its solve and records the simulator's failure in its status.
        spec = spec_eps(schemes=(Scheme.MAF_FEEDBACK, Scheme.RR_NO_FEEDBACK),
                        sim_validate=True, n_epochs=1)
        rows = run_sweep(spec)
        assert len(rows) == 6
        assert all(r.status == "sim_failed:InvalidConfig" for r in rows)
        assert all(r.tau_star is not None and r.sim_mse is None for r in rows)


class TestCsv:
    def test_header_only_for_empty_rows(self, tmp_path):
        path = os.fspath(tmp_path / "empty.csv")
        write_csv([], path)
        assert Path(path).read_text() == cli.CSV_HEADER + "\n"

    def test_header_is_the_documented_column_list(self):
        # The columns follow SweepRow's fields; reordering them changes the file.
        assert cli.CSV_HEADER == (
            "axis,value,scheme,tau_star,beta_star,binding,zero_wait_mse,sim_mse,sim_stderr,status"
        )

    def test_byte_identical_reruns(self, tmp_path):
        spec = spec_eps(sim_validate=True, n_epochs=4000, seed=5)
        p1 = os.fspath(tmp_path / "a.csv")
        p2 = os.fspath(tmp_path / "b.csv")
        write_csv(run_sweep(spec), p1)
        write_csv(run_sweep(spec), p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_no_nan_cells_and_sentinel_status(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            cli, "_solve", lambda *a, **kw: (_ for _ in ()).throw(ConvergenceError("x"))
        )
        path = os.fspath(tmp_path / "fail.csv")
        write_csv(run_sweep(spec_eps(grid=(0.1,))), path)
        lines = Path(path).read_text().strip().split("\n")
        cells = lines[1].split(",")
        assert cells[-1].startswith("solver_failed")
        assert "nan" not in lines[1].lower()

    def test_failed_write_deletes_its_temp_file(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(cli.os, "replace", fail)
        with pytest.raises(OSError, match="rename refused"):
            write_csv([], os.fspath(tmp_path / "out.csv"))
        assert os.listdir(tmp_path) == []

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = os.fspath(tmp_path / "out.csv")
        write_csv(run_sweep(spec_eps(grid=(0.1,))), path)
        assert sorted(os.listdir(tmp_path)) == ["out.csv"]


VALID_CONFIG = (
    "k = 2\nmu = 1.0\neps = 0.3\nfmax = 1.5\ntheta = 0.1, 0.5\nsigma_sq = 1, 2\n"
    "axis = eps\ngrid = 0.0, 0.1\nschemes = maf\n"
)


def with_value(key: str, value: str) -> str:
    """VALID_CONFIG with ``key`` set to ``value`` on its own line."""
    return "".join(
        f"{key} = {value}\n" if row.split(" =")[0] == key else row + "\n"
        for row in VALID_CONFIG.splitlines()
    )


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        spec = spec_eps(
            grid=(0.0, 0.1, 0.3),
            schemes=(Scheme.MAF_FEEDBACK, Scheme.RR_NO_FEEDBACK),
            include_zero_wait=True,
            n_epochs=12345,
            seed=9,
        )
        path = os.fspath(tmp_path / "sweep.cfg")
        write_config(spec, path)
        assert read_config(path) == spec

    def test_written_text_is_pinned(self, tmp_path):
        spec = SweepSpec(
            base=SystemConfig(
                k=3, f_max=0.8, mu=2.0, eps=0.25,
                processes=(ProcessParams(0.1, 1.0), ProcessParams(0.5, 2.0),
                           ProcessParams(1.5, 0.25)),
            ),
            axis=Axis.THETA_J,
            grid=(0.05, 0.5, 3.0),
            schemes=(Scheme.RR_NO_FEEDBACK, Scheme.MAF_FEEDBACK),
            include_zero_wait=True,
            sim_validate=True,
            n_epochs=12345,
            seed=9,
        )
        path = os.fspath(tmp_path / "sweep.cfg")
        write_config(spec, path)
        assert Path(path).read_text(encoding="utf-8") == (
            "k = 3\nmu = 2.0\neps = 0.25\nfmax = 0.8\ntheta = 0.1, 0.5, 1.5\n"
            "sigma_sq = 1.0, 2.0, 0.25\naxis = theta_j\ngrid = 0.05, 0.5, 3.0\n"
            "schemes = rr, maf\ninclude_zero_wait = true\nsim_validate = true\n"
            "n_epochs = 12345\nseed = 9\n"
        )
        assert read_config(path) == spec

    def test_malformed_reports_line_and_field(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(
            "k = 2\nmu = 1.0\neps = oops\nfmax = 1.5\n"
            "theta = 0.1, 0.5\nsigma_sq = 1, 2\naxis = eps\ngrid = 0.0, 0.1\n"
            "schemes = maf\n"
        )
        with pytest.raises(ConfigFormatError, match="line 3.*eps"):
            read_config(os.fspath(path))

    def test_missing_field(self, tmp_path):
        path = tmp_path / "missing.cfg"
        path.write_text("k = 2\nmu = 1.0\n")
        with pytest.raises(ConfigFormatError, match="missing required field"):
            read_config(os.fspath(path))

    def test_unknown_key_names_its_line(self, tmp_path):
        path = tmp_path / "typo.cfg"
        path.write_text(VALID_CONFIG + "tau_max = 5\nsim_valdate = true\n")
        with pytest.raises(ConfigFormatError, match="line 10: unknown key 'tau_max'"):
            read_config(os.fspath(path))

    def test_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "twice.cfg"
        path.write_text(VALID_CONFIG + "eps = 0.1\n")
        with pytest.raises(ConfigFormatError, match="line 10: key 'eps' already set on line 3"):
            read_config(os.fspath(path))

    def test_line_without_equals_names_its_line(self, tmp_path):
        path = tmp_path / "bare.cfg"
        path.write_text(VALID_CONFIG + "sim_validate true\n")
        with pytest.raises(ConfigFormatError,
                           match=r"line 10: expected 'key = value', got 'sim_validate true\\n'"):
            read_config(os.fspath(path))

    @pytest.mark.parametrize("key, value", [("theta", "0.1"), ("sigma_sq", "1, 2, 3")])
    def test_list_not_of_length_k_names_the_theta_line(self, tmp_path, key, value):
        path = tmp_path / "short.cfg"
        path.write_text(with_value(key, value))
        with pytest.raises(ConfigFormatError,
                           match="line 5: theta/sigma_sq arrays must each have k=2 entries"):
            read_config(os.fspath(path))

    def test_system_the_config_refuses(self, tmp_path):
        path = tmp_path / "system.cfg"
        path.write_text(with_value("eps", "1.5"))
        with pytest.raises(ConfigFormatError,
                           match=r"invalid system parameters: eps must lie in \[0, 1\)"):
            read_config(os.fspath(path))

    @pytest.mark.parametrize("key, value", [
        ("theta", "0.1,, 0.5"), ("sigma_sq", "1, 2,"), ("grid", "0.0,, 0.1,"), ("grid", ""),
        ("schemes", "maf,, rr,"), ("schemes", ""),
    ])
    def test_empty_list_entry_names_line_and_key(self, tmp_path, key, value):
        # Every entry is parsed: an empty one is an error, not dropped.
        path = tmp_path / "empty.cfg"
        path.write_text(with_value(key, value))
        line = 1 + [row.split(" =")[0] for row in VALID_CONFIG.splitlines()].index(key)
        with pytest.raises(ConfigFormatError, match=f"line {line}: field '{key}': "):
            read_config(os.fspath(path))

    def test_comments_and_unknown_scheme(self, tmp_path):
        path = tmp_path / "scheme.cfg"
        path.write_text(
            "# comment line\nk = 1\nmu = 1.0\neps = 0.0\nfmax = 1.0\n"
            "theta = 0.5\nsigma_sq = 1.0\naxis = eps\ngrid = 0.0\nschemes = bogus\n"
        )
        with pytest.raises(ConfigFormatError, match="unknown scheme"):
            read_config(os.fspath(path))


SOLVE_ARGS = [
    "--k", "2", "--mu", "1.0", "--eps", "0.3", "--fmax", "1.5",
    "--theta", "0.1,0.5", "--sigma-sq", "1.0,2.0",
]


SIM_ARGS = [
    "--k", "1", "--mu", "1.0", "--eps", "0.0", "--fmax", "2.0",
    "--theta", "0.5", "--sigma-sq", "1.0", "--tau", "0.0", "--seed", "3",
]


def one_line_error(capsys) -> str:
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


class TestMain:
    def test_solve_subcommands(self, capsys):
        args = SOLVE_ARGS
        assert cli.main(["solve", "--scheme", "maf"] + args) == 0
        out = capsys.readouterr().out
        assert "tau_star=1.63169" in out
        assert cli.main(["solve", "--scheme", "rr"] + args) == 0
        assert "tau_star=0.693995" in capsys.readouterr().out

    def test_simulate_subcommand(self, capsys):
        rc = cli.main([
            "simulate", "--scheme", "rr", "--k", "1", "--mu", "1.0", "--eps", "0.0",
            "--fmax", "2.0", "--theta", "0.5", "--sigma-sq", "1.0", "--tau", "0.0",
            "--epochs", "20000", "--seed", "3", "--burn-in", "100",
        ])
        assert rc == 0
        assert "sum_mse=0.7" in capsys.readouterr().out

    def test_simulate_prints_a_negative_zero_threshold_as_zero(self, capsys):
        args = ["simulate", "--scheme", "rr"] + SIM_ARGS + ["--eps", "-0", "--tau", "-0",
                                                         "--epochs", "200"]
        assert cli.main(args) == 0
        assert " tau=0 " in capsys.readouterr().out

    def test_simulate_without_tau_runs_at_the_solved_threshold(self, capsys):
        args = ["simulate", "--scheme", "maf"] + SOLVE_ARGS + ["--epochs", "2000", "--seed", "1"]
        assert cli.main(args) == 0
        # The threshold that solve prints as tau_star.
        assert "tau=1.63169363 " in capsys.readouterr().out

    def test_python_dash_m_runs_the_command_line(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        out = subprocess.run(
            [sys.executable, "-m", "ouwait", "solve", "--scheme", "rr"] + SOLVE_ARGS,
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.returncode == 0, out.stderr
        assert "tau_star=0.693995" in out.stdout

    def test_sweep_subcommand_and_exit_codes(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        write_config(spec_eps(), os.fspath(cfg))
        out = tmp_path / "rows.csv"
        rc = cli.main(["sweep", os.fspath(cfg), "--out", os.fspath(out)])
        assert rc == 0
        lines = Path(out).read_text().strip().split("\n")
        assert lines[0] == cli.CSV_HEADER
        assert len(lines) == 4

    def test_sweep_at_zero_erasure_reproduces_known_threshold(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        write_config(spec_eps(base=replace(BASE, eps=0.0), axis=Axis.FMAX, grid=(0.5, 1.5)),
                     os.fspath(cfg))
        out = tmp_path / "rows.csv"
        rc = cli.main(["sweep", os.fspath(cfg), "--out", os.fspath(out)])
        assert rc == 0
        # At zero erasures with fmax=1.5 the solver reproduces the known value.
        row = Path(out).read_text().strip().split("\n")[2].split(",")
        assert float(row[3]) == pytest.approx(1.1913, abs=1e-3)

    def test_failed_grid_point_sets_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            cli, "_solve", lambda *a, **kw: (_ for _ in ()).throw(ConvergenceError("x"))
        )
        cfg = tmp_path / "s.cfg"
        write_config(spec_eps(grid=(0.1,)), os.fspath(cfg))
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep", os.fspath(cfg), "--out", os.fspath(out)]) == 2

    def test_missing_flags_fail_cleanly(self, capsys):
        assert cli.main(["solve", "--scheme", "maf", "--k", "2"]) == 1
        # The error names the flags as they are typed.
        assert one_line_error(capsys) == (
            "error: ouwait solve: the following arguments are required: "
            "--mu, --eps, --fmax, --theta, --sigma-sq"
        )

    @pytest.mark.parametrize("command", ["solve", "simulate"])
    def test_unknown_scheme_is_one_line_error(self, capsys, command):
        assert cli.main([command, "--scheme", "fifo"] + SOLVE_ARGS) == 1
        assert one_line_error(capsys) == (
            f"error: ouwait {command}: argument --scheme: unknown scheme 'fifo'"
        )

    def test_sweep_requires_config(self, capsys):
        assert cli.main(["sweep"]) == 1
        assert "config" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--theta", "--sigma-sq"])
    @pytest.mark.parametrize("value", ["0.1,abc", "0.1,,0.5", "1,2,", ",0.1,0.5", ""])
    def test_malformed_number_list_is_one_line_error(self, capsys, flag, value):
        # Every entry is parsed: an empty one is an error, not dropped, so
        # "0.1,,0.5" does not give a list of two.
        args = list(SOLVE_ARGS)
        args[args.index(flag) + 1] = value
        assert cli.main(["solve", "--scheme", "maf"] + args) == 1
        assert one_line_error(capsys) == (
            f"error: ouwait solve: argument {flag}: not a number list: {value!r}"
        )

    @pytest.mark.parametrize("flag", ["--theta", "--sigma-sq"])
    def test_list_not_of_length_k_is_one_line_error(self, capsys, flag):
        args = list(SOLVE_ARGS)
        args[args.index(flag) + 1] = "0.5"
        assert cli.main(["solve", "--scheme", "maf"] + args) == 1
        assert one_line_error(capsys) == "error: theta/sigma_sq arrays must each have k=2 entries"

    @pytest.mark.parametrize("flag, value", [("--tau", "1e308"), ("--mu", "1e-300")])
    def test_clock_past_the_float_range_is_one_line_error(self, tmp_path, capsys, flag, value):
        # Refused before the trace is opened, with no numpy overflow warning.
        trace = tmp_path / "t.tsv"
        args = list(SIM_ARGS) + ["--trace", os.fspath(trace)]
        args[args.index(flag) + 1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["simulate", "--scheme", "maf"] + args) == 1
        err = one_line_error(capsys)
        assert "tau <= 1e+100 and mu >= 1e-100" in err and f"{flag[2:]}={float(value)!r}" in err
        assert not trace.exists()

    @pytest.mark.parametrize("tol", ["1.7976931348623157e308", "1e190"])
    def test_overflowing_sum_mse_is_one_line_error(self, capsys, tol):
        # The ratio's numerator, the variance bound 2e189 times an epoch of
        # about 1e201, overflows at the threshold the search returns: refused,
        # where it printed beta_star=inf and exited 0.
        argv = ["solve", "--scheme", "maf", "--k", "2", "--mu", "0.115", "--eps",
                "0.999999999999999", "--fmax", "1.9", "--theta", "1e-200,2.93", "--sigma-sq",
                "3.95e-11,1e-12", "--tol", tol]
        assert cli.main(argv) == 1
        err = one_line_error(capsys)
        assert " is inf" in err and "variance bound 1.975e+189" in err

    def test_run_past_the_round_limit_is_one_line_error(self, tmp_path, capsys):
        # About 5e13 rounds, refused before any is drawn or the trace opened,
        # where the run went on with no end in sight.
        trace = tmp_path / "t.tsv"
        argv = ["simulate", "--scheme", "rr", "--k", "1", "--mu", "1", "--eps", "0.999999999999",
                "--fmax", "0.5", "--theta", "0.5", "--sigma-sq", "1", "--epochs", "50",
                "--tau", "0.5", "--trace", os.fspath(trace)]
        start = time.perf_counter()
        assert cli.main(argv) == 1
        assert time.perf_counter() - start < 1.0
        assert "expects 5e+13" in one_line_error(capsys)
        assert not trace.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "{cfg}", "--tol", "1e-2"],
            ["solve", "--scheme", "maf"] + SOLVE_ARGS + ["--out", "x"],
            ["simulate"] + SIM_ARGS,
            ["solve", "--scheme", "rr"] + SOLVE_ARGS + ["--bogus"],
            ["simulate", "--scheme", "rr"] + SIM_ARGS + ["--tol", "1e-30"],
            ["simulate", "--scheme", "rr"] + SIM_ARGS + ["--tau-max", "-5"],
            ["sweep", "{cfg}", "--eps", "0.9"],
            ["sweep", "{fmax_cfg}", "--fmax", "0.9"],
        ],
        ids=["sweep-ignores-tol", "solve-ignores-out", "simulate-without-scheme", "unknown-flag",
             "simulate-tau-ignores-tol", "simulate-tau-ignores-tau-max",
             "sweep-eps-axis-ignores-eps", "sweep-fmax-axis-ignores-fmax"],
    )
    def test_usage_errors_are_one_line_errors(self, tmp_path, capsys, argv):
        cfg = tmp_path / "s.cfg"
        write_config(spec_eps(), os.fspath(cfg))
        fmax_cfg = tmp_path / "f.cfg"
        write_config(spec_eps(axis=Axis.FMAX, grid=(0.5, 1.5)), os.fspath(fmax_cfg))
        assert cli.main([a.format(cfg=cfg, fmax_cfg=fmax_cfg) for a in argv]) == 1
        one_line_error(capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "{tmp}/missing.cfg"],
            ["sweep", "{cfg}", "--out", "{tmp}/no-dir/rows.csv"],
            ["simulate", "--scheme", "rr"] + SIM_ARGS + ["--trace", "{tmp}/no-dir/epochs.tsv"],
        ],
        ids=["missing-config", "out-in-missing-dir", "trace-in-missing-dir"],
    )
    def test_file_system_errors_are_one_line_errors(self, tmp_path, capsys, argv):
        cfg = tmp_path / "s.cfg"
        write_config(spec_eps(grid=(0.1,)), os.fspath(cfg))
        assert cli.main([a.format(tmp=tmp_path, cfg=cfg) for a in argv]) == 1
        assert "No such file or directory" in one_line_error(capsys)

    def test_out_in_missing_directory_fails_before_any_solve(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_solve", lambda *a, **kw: calls.append(a))
        cfg = tmp_path / "s.cfg"
        write_config(spec_eps(), os.fspath(cfg))
        out = os.fspath(tmp_path / "no-dir" / "rows.csv")
        assert cli.main(["sweep", os.fspath(cfg), "--out", out]) == 1
        err = one_line_error(capsys)
        assert out in err and ".sweep-" not in err
        assert calls == []

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--help"])
        assert exc.value.code == 0
        assert "--scheme" in capsys.readouterr().out

    @pytest.mark.parametrize("scheme", ["maf", "rr"], ids=["solve-maf", "solve-rr"])
    def test_solver_guards_are_one_line_errors(self, capsys, scheme):
        command = ["solve", "--scheme", scheme]
        # The search ceiling is worked out from the system, not set.
        assert cli.main(command + SOLVE_ARGS + ["--tau-max", "0.5"]) == 1
        assert "unrecognized arguments: --tau-max" in one_line_error(capsys)
        assert cli.main(command + SOLVE_ARGS + ["--tol", "1e-20"]) == 1
        assert "tol" in one_line_error(capsys)

    @pytest.mark.parametrize("scheme", ["maf", "rr"], ids=["solve-maf", "solve-rr"])
    def test_flat_sum_mse_near_unit_erasure_is_one_line_error(self, capsys, scheme):
        command = ["solve", "--scheme", scheme]
        # At k = 64 and eps = 1 - 1e-15 no threshold moves the sum MSE by a
        # float spacing, so the solve is refused and the error names eps.
        k = 64
        thetas = ",".join(repr(0.1 + 0.4 * i / (k - 1)) for i in range(k))
        args = ["--k", str(k), "--mu", "1", "--eps", repr(1.0 - 1e-15), "--fmax", "1.5",
                "--theta", thetas, "--sigma-sq", ",".join(["1"] * k)]
        assert cli.main(command + args) == 1
        assert "eps = 0.999999999999999 leaves the sum MSE flat" in one_line_error(capsys)

    @pytest.mark.parametrize("args", [
        # (1 - eps) f_max underflows to 0, which divided by zero.
        ["--scheme", "rr", "--mu", "0.2877", "--eps", "0.999999", "--fmax", "5e-324"],
        # The doubled budget overflows: the ceiling was inf, and numpy warned.
        ["--scheme", "maf", "--mu", "1", "--eps", "0", "--fmax", "2e-308"],
        # The mean round service, k / mu, overflows.
        ["--scheme", "rr", "--mu", "1e-310", "--eps", "0", "--fmax", "1e-310"],
    ], ids=["budget-underflow", "budget-overflow", "service-overflow"])
    def test_search_ceiling_past_the_float_range_is_one_line_error(self, capsys, args):
        args = ["solve", "--k", "2", "--theta", "2.04,2.19", "--sigma-sq", "2.76,0.18"] + args
        assert cli.main(args) == 1
        error = one_line_error(capsys)
        assert "put the threshold search ceiling past the float range" in error
        for name in ("k=2", "mu=", "eps=", "f_max=", "smallest theta 2.04"):
            assert name in error

    def test_infinite_poisson_mean_solves(self, capsys):
        # rate * tau overflows at the search ceiling 2e307, which took 0 * log
        # inf: the Poisson probabilities are exact zeros, their limit. beta*
        # is the sum of the variances, 2.76 / 4.08 + 0.18 / 4.38.
        args = ["solve", "--scheme", "maf", "--k", "2", "--mu", "10", "--eps", "0",
                "--fmax", "1e-307", "--theta", "2.04,2.19", "--sigma-sq", "2.76,0.18"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(args) == 0
        assert "tau_star=2e+307 beta_star=0.717566479 binding=1" in capsys.readouterr().out

    def test_variance_past_the_float_range_is_one_line_error(self, tmp_path, capsys):
        # A stationary variance of 4.2e307 overflowed the error integrals, and
        # the run printed sum_mse=inf: it is refused before the trace is opened.
        trace = tmp_path / "t.tsv"
        args = ["simulate", "--scheme", "maf", "--k", "1", "--mu", "1e-9", "--eps", "0.9",
                "--fmax", "1e30", "--theta", "2.12", "--sigma-sq", "1.7976931348623157e308",
                "--tau", "0.5", "--epochs", "2000", "--trace", os.fspath(trace)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(args) == 1
        err = one_line_error(capsys)
        assert "every stationary variance <= 1e+100" in err and "variance=4.2398" in err
        assert not trace.exists()

    def test_solver_failure_past_the_float_range_stays_in_its_row(self, tmp_path, capsys):
        base = replace(BASE, eps=0.999999)
        cfg = tmp_path / "s.cfg"
        write_config(spec_eps(base=base, axis=Axis.FMAX, grid=(5e-324, 0.1)), os.fspath(cfg))
        assert cli.main(["sweep", os.fspath(cfg)]) == 2
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert [row.split(",")[-1] for row in rows] == ["solver_failed:InvalidConfig", "ok"]

    @pytest.mark.parametrize("scheme", ["maf", "rr"])
    def test_round_rate_past_the_float_range_is_one_line_error(self, capsys, scheme):
        # mu + 2 theta overflows, which read lambda = mu / (mu + 2 theta),
        # about 0.38, as 0.
        args = ["solve", "--scheme", scheme, "--k", "2", "--mu", "1e308", "--eps", "0",
                "--fmax", "1.5", "--theta", "8e307,1", "--sigma-sq", "1,1"]
        assert cli.main(args) == 1
        error = one_line_error(capsys)
        assert "mu=1e+308 plus twice the largest theta 8e+307 is past the float range" in error

    def test_underflowing_round_transform_solves(self, capsys):
        # lambda = rate / (2 theta + rate) underflows to 0 at theta 1e300, and
        # its log, -inf, gives exact zero powers. beta* is the sum of the
        # variances, 1 / 2e300 + 1 / 53.8.
        args = ["solve", "--scheme", "maf", "--k", "2", "--mu", "1e-200", "--eps", "0.3",
                "--fmax", "1.5", "--theta", "1e300,26.9", "--sigma-sq", "1,1"]
        assert cli.main(args) == 0
        assert "tau_star=0 beta_star=0.0185873606 " in capsys.readouterr().out

    @pytest.mark.parametrize("scheme", ["maf", "rr"], ids=["solve-maf", "solve-rr"])
    def test_tolerance_below_threshold_spacing_solves(self, capsys, scheme):
        command = ["solve", "--scheme", scheme]
        # The binding threshold sits near 10 or above, where one float spacing
        # exceeds the inner inversions' tol / 10 = 1e-15.
        args = ["--k", "2", "--mu", "1", "--eps", "0.3", "--fmax", "0.2",
                "--theta", "0.1,0.5", "--sigma-sq", "1,2", "--tol", "1e-14"]
        assert cli.main(command + args) == 0
        out = capsys.readouterr().out
        assert "binding=1" in out
        assert float(out.split("achieved_tol=")[1]) <= 1e-14

    def test_short_run_has_finite_standard_error(self, capsys):
        assert cli.main(["simulate", "--scheme", "maf"] + SIM_ARGS + ["--epochs", "3"]) == 0
        out = capsys.readouterr().out
        assert "epochs=2" in out
        se = float(out.split("(se ")[1].split(")")[0])
        assert math.isfinite(se)

    @pytest.mark.parametrize(
        "extra", [["--epochs", "2"], ["--epochs", "1000", "--burn-in", "5000"]],
        ids=["too-short", "burn-in-too-large"],
    )
    def test_unusable_run_length_is_one_line_error(self, capsys, extra):
        assert cli.main(["simulate", "--scheme", "rr"] + SIM_ARGS + extra) == 1
        assert "burn" in one_line_error(capsys)

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize("flag, field", [("--mu", "mu"), ("--eps", "eps"), ("--fmax", "f_max"),
                                             ("--theta", "theta"), ("--tol", "tol"), ("--tau", "tau")])
    def test_non_finite_number_is_one_line_error(self, capsys, flag, field, bad):
        if flag == "--tau":
            args = ["simulate", "--scheme", "rr"] + SIM_ARGS
        else:
            args = ["solve", "--scheme", "maf"] + SOLVE_ARGS + ["--tol", "1e-9"]
        i = args.index(flag) + 1
        args[i] = ",".join([bad] + args[i].split(",")[1:])  # the first of a list
        assert cli.main(args) == 1
        assert f"error: {field} must" in one_line_error(capsys)

    def test_negative_seed_is_one_line_error(self, capsys):
        args = list(SIM_ARGS)
        args[args.index("--seed") + 1] = "-1"
        assert cli.main(["simulate", "--scheme", "maf"] + args + ["--epochs", "2000"]) == 1
        assert one_line_error(capsys) == "error: seed must be a non-negative integer, got -1"

    def test_huge_theta_is_one_line_error(self, capsys):
        # 2 * theta overflows: the input is refused, with no numpy warning and
        # no blame on the search ceiling.
        args = ["--k", "1", "--mu", "1", "--eps", "0", "--fmax", "0.5",
                "--theta", "1e308", "--sigma-sq", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["solve", "--scheme", "maf"] + args) == 1
        err = one_line_error(capsys)
        assert "theta" in err and "tau_max" not in err

    def test_erasure_rate_near_one_solves_fast(self, capsys):
        # With feedback a round is Exp(1 - eps), so the binding threshold is
        # x / (1 - eps) with x + exp(-x) = 2, about 1.84140566e6 here.
        args = ["--k", "1", "--mu", "1", "--eps", "0.999999", "--fmax", "0.5",
                "--theta", "0.5", "--sigma-sq", "1"]
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["solve", "--scheme", "maf"] + args) == 0
        assert time.perf_counter() - start < 1.0
        assert "tau_star=1841405.66 " in capsys.readouterr().out

    def test_simulator_failure_exit_code_keeps_every_row(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        write_config(spec_eps(sim_validate=True, n_epochs=1), os.fspath(cfg))
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep", os.fspath(cfg), "--out", os.fspath(out)]) == 2
        lines = Path(out).read_text().strip().split("\n")
        assert len(lines) == 4
        assert all(line.endswith(",sim_failed:InvalidConfig") for line in lines[1:])

    def test_sweep_stdout_matches_out_file(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        write_config(
            spec_eps(schemes=(Scheme.MAF_FEEDBACK, Scheme.RR_NO_FEEDBACK),
                     include_zero_wait=True),
            os.fspath(cfg),
        )
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep", os.fspath(cfg), "--out", os.fspath(out)]) == 0
        capsys.readouterr()
        assert cli.main(["sweep", os.fspath(cfg)]) == 0
        assert capsys.readouterr().out == Path(out).read_text(encoding="utf-8")
