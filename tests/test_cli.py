import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import sgtorus
from sgtorus import acceptance, cli, dynamics, polar, presets
from sgtorus.grid import TorusGrid, field_from_binary, field_to_binary


def run_cli(*argv):
    return cli.main(list(argv))


class TestParsing:
    def test_unknown_flag_is_config_error(self, tmp_path, capsys):
        assert run_cli("ma-solve", "--bogus") == 1
        assert "config error" in capsys.readouterr().err

    def test_unknown_preset(self, tmp_path, capsys):
        code = run_cli("ma-solve", "--preset", "nope",
                       "--out", str(tmp_path / "o"))
        assert code == 1
        assert "unknown density" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["lma-dirichlet", "green-report",
                                         "sections-report",
                                         "regularity-report"])
    def test_unknown_potential_names_potential_presets(self, command,
                                                       tmp_path, capsys):
        code = run_cli(command, "--preset", "nope",
                       "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown potential 'nope'" in err
        assert ", ".join(cli.POTENTIAL_PRESETS) in err
        assert ", ".join(presets.DENSITY_PRESETS) in err

    def test_nonpositive_parameter(self, tmp_path, capsys):
        assert run_cli("ma-solve", "--n", "-8",
                       "--out", str(tmp_path / "o")) == 1

    @pytest.mark.parametrize(
        "command", [c for c, (_, flags) in cli.COMMANDS.items()
                    if "--n" in flags])
    def test_grid_below_four_cells_is_config_error(self, command, tmp_path,
                                                   capsys):
        out = tmp_path / "o"
        assert run_cli(command, "--n", "3", "--out", str(out)) == 1
        assert "n must be at least 4" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", ["lma-dirichlet", "green-report", "regularity-report"])
    def test_nonfinite_center_is_config_error(self, command, tmp_path,
                                              capsys):
        # a NaN centre would land on an arbitrary cell and leave NaN,
        # which is no JSON, in the report
        for center in ("nan,0.5", "0.5,inf"):
            out = tmp_path / center
            assert run_cli(command, "--n", "16", "--center", center,
                           "--out", str(out)) == 1
            assert "both finite" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("command, flag", [
        ("sg-run", "--lambda"), ("sg-run", "--Lambda"), ("sg-run", "--tol"),
        ("polar-run", "--lambda"), ("polar-run", "--Lambda"),
        ("ma-solve", "--tol")])
    def test_nonfinite_bound_or_tolerance_is_config_error(
            self, command, flag, value, tmp_path, capsys):
        # an infinite Lambda or tol would end the Monge-Ampere solve
        # before its first Newton step, and a NaN fail only after it
        out = tmp_path / "o"
        assert run_cli(command, "--n", "16", flag, value,
                       "--out", str(out)) == 1
        assert "must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("by", ["flag", "config"])
    @pytest.mark.parametrize(
        "command", ["lma-dirichlet", "sections-report", "polar-run"])
    def test_negative_seed_is_config_error(self, command, by, tmp_path,
                                           capsys):
        # numpy's default_rng rejects a negative seed with a ValueError
        out = tmp_path / "o"
        if by == "flag":
            seed = ["--seed", "-1"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("seed = -1\n")
            seed = ["--config", str(cfg)]
        assert run_cli(command, "--n", "16", *seed, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "config error: seed must be a non-negative integer, got -1" in err
        assert not out.exists()

    def test_malformed_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n 64\n")
        assert run_cli("ma-solve", "--config", str(cfg)) == 1
        assert "expected key=value" in capsys.readouterr().err

    def test_config_supplies_and_flag_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 24  # comment\ndt = 1e-3\nt_end = 0.004\n"
                       "rho0 = two-mode\n")
        out = tmp_path / "o"
        assert run_cli("sg-run", "--config", str(cfg), "--n", "32",
                       "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n"] == 32  # flag wins
        assert summary["steps"] == 4  # config dt and t_end


# a flag each command does not read
FOREIGN_FLAGS = {
    "ma-solve": ("--dt", "1e-3"),
    "sg-run": ("--h0", "0.1"),
    "lma-dirichlet": ("--rungs", "3"),
    "green-report": ("--dt", "1"),
    "sections-report": ("--center", "0.5,0.5"),
    "regularity-report": ("--seed", "1"),
    "polar-run": ("--preset", "two-mode"),
    "verify": ("--n", "32"),
}


class TestFlagTables:
    # verify --quick: verify has one configuration and no such flag;
    # verify --config: verify reads no config, and run.cfg exists and is
    # valid, so only the flag itself can be the error
    @pytest.mark.parametrize(
        "command, flags",
        list(FOREIGN_FLAGS.items()) + [("verify", ("--quick",)),
                                       ("verify", ("--config", "run.cfg"))],
        ids=list(FOREIGN_FLAGS) + ["verify-quick", "verify-config"])
    def test_foreign_flag_is_config_error(self, command, flags, tmp_path,
                                          capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text("# no keys\n")
        out = tmp_path / "o"
        assert run_cli(command, *flags, "--out", str(out)) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value",
                             [("--lambda", "0.75"), ("--Lambda", "1.25")])
    def test_sg_run_density_bounds_reach_solver(self, flag, value, tmp_path,
                                                capsys):
        # two-mode spans [0.7, 1.3], outside either declared bound
        code = run_cli("sg-run", "--n", "16", "--preset", "two-mode",
                       flag, value, "--out", str(tmp_path / "o"))
        assert code == 2
        assert "BadDensity" in capsys.readouterr().err


UNIFORM_4X4_CSV = b"i,j,value\n" + b"".join(
    f"{i},{j},1.0\n".encode() for i in range(4) for j in range(4))


class TestMaSolve:
    def test_writes_solution_files(self, tmp_path):
        out = tmp_path / "ma"
        assert run_cli("ma-solve", "--n", "32", "--preset", "perturbed",
                       "--out", str(out)) == 0
        q = field_from_binary(out / "q.bin")
        det = field_from_binary(out / "det.bin")
        assert q.shape == det.shape == (32, 32)
        head = json.loads((out / "solution.json").read_text())
        assert head["n"] == 32
        assert head["residual"] < 1e-7
        assert (out / "metadata.json").exists()

    def test_density_from_file(self, tmp_path):
        grid = TorusGrid(24)
        rho, _, _ = presets.two_mode_density(grid)
        path = tmp_path / "rho.bin"
        field_to_binary(rho.values, path)
        out = tmp_path / "o"
        assert run_cli("ma-solve", "--n", "24", "--preset", str(path),
                       "--out", str(out)) == 0

    def test_density_file_grid_mismatch(self, tmp_path, capsys):
        grid = TorusGrid(24)
        rho, _, _ = presets.two_mode_density(grid)
        path = tmp_path / "rho.bin"
        field_to_binary(rho.values, path)
        assert run_cli("ma-solve", "--n", "32", "--preset", str(path),
                       "--out", str(tmp_path / "o")) == 1

    def test_fractional_size_header_is_config_error(self, tmp_path, capsys):
        # int(4.5) is 4, and 16 values would make a 4x4 field of it
        path = tmp_path / "half.bin"
        path.write_bytes(np.array([4.5] + [1.0] * 16).astype("<f8").tobytes())
        assert run_cli("ma-solve", "--n", "4", "--preset", str(path),
                       "--out", str(tmp_path / "o")) == 1
        assert "no whole grid size" in capsys.readouterr().err

    def test_negative_size_header_is_config_error(self, tmp_path, capsys):
        # (-2)^2 is 4, and 4 values would make the header look consistent
        path = tmp_path / "negative.bin"
        path.write_bytes(np.array([-2.0] + [1.0] * 4).astype("<f8").tobytes())
        assert run_cli("ma-solve", "--n", "4", "--preset", str(path),
                       "--out", str(tmp_path / "o")) == 1
        assert "no whole grid size" in capsys.readouterr().err

    def test_negative_density_file_is_solver_error(self, tmp_path, capsys):
        vals = np.ones((16, 16))
        vals[3, 4] = -0.2
        path = tmp_path / "rho.bin"
        field_to_binary(vals, path)
        code = run_cli("ma-solve", "--n", "16", "--preset", str(path),
                       "--out", str(tmp_path / "o"))
        assert code == 2
        assert "BadDensity" in capsys.readouterr().err

    @pytest.mark.parametrize("name, content", [
        ("bad.bin", np.array([16.0, 1.0, 1.0]).astype("<f8").tobytes()),
        ("bad.csv", b"x,y,rho\n0,0,1.0\n"),
        ("empty.csv", b""),
        ("inf.bin", np.array([np.inf, 1.0]).astype("<f8").tobytes()),
        ("cells.csv", UNIFORM_4X4_CSV.replace(b"3,3,", b"3,7,")),
        ("cells.csv", UNIFORM_4X4_CSV.replace(b"3,3,", b"3,2,")),
        ("cells.csv", UNIFORM_4X4_CSV.replace(b"3,3,", b"100000,3,")),
    ], ids=["truncated-bin", "foreign-header-csv", "empty-csv",
            "infinite-size-bin", "out-of-range-cell-csv", "repeated-cell-csv",
            "huge-index-csv"])
    def test_malformed_density_file_is_config_error(self, name, content,
                                                    tmp_path, capsys):
        path = tmp_path / name
        path.write_bytes(content)
        code = run_cli("ma-solve", "--n", "16", "--preset", str(path),
                       "--out", str(tmp_path / "o"))
        assert code == 1
        assert "config error: bad density file" in capsys.readouterr().err


class TestSgRun:
    def test_certificates_and_summary(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("sg-run", "--n", "32", "--dt", "2e-3",
                       "--t-end", "0.01", "--preset", "two-mode",
                       "--out", str(out)) == 0
        with open(out / "certificates.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert float(rows[0]["t"]) == 0.0
        assert float(rows[-1]["mass"]) == pytest.approx(1.0, abs=1e-10)
        assert all(int(row["krylov_iters"]) >= 1 for row in rows)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final"]["krylov_iters"] == int(rows[-1]["krylov_iters"])
        assert summary["violations"] == []
        assert summary["lma_residual_max"] > 0.0
        final = field_from_binary(out / "final_rho.bin")
        assert final.mean() == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def _short_run_csv(out):
        # the arguments of the shared short_run fixture
        assert run_cli("sg-run", "--n", "32", "--dt", "2e-3",
                       "--t-end", "0.05", "--preset", "two-mode",
                       "--out", str(out)) == 0
        return (out / "certificates.csv").read_bytes()

    def test_certificates_csv_layout(self, tmp_path, short_run):
        lines = self._short_run_csv(tmp_path / "run").decode().splitlines()
        assert lines[0] == ",".join(dynamics.CERTIFICATE_COLUMNS)
        assert len(lines) == 1 + 26
        row = [float(v) for v in lines[1].split(",")]
        assert row[0] == 0.0
        assert row[1] == pytest.approx(1.0)
        # floats as their repr; the solver counter is an integer, the cold
        # solve's Krylov total
        assert lines[1:] == [
            ",".join(str(c[col]) if col == "krylov_iters"
                     else repr(float(c[col]))
                     for col in dynamics.CERTIFICATE_COLUMNS)
            for c in short_run.certificates]
        krylov = [line.rsplit(",", 1)[1] for line in lines[1:]]
        assert int(krylov[0]) > int(krylov[1]) >= 1

    def test_certificates_csv_byte_identical(self, tmp_path):
        assert (self._short_run_csv(tmp_path / "a")
                == self._short_run_csv(tmp_path / "b"))

    def test_run_of_no_step_is_config_error(self, tmp_path, capsys):
        # t_end / dt rounds to 0: nothing to certify, and NaN is no JSON
        out = tmp_path / "run"
        assert run_cli("sg-run", "--n", "16", "--dt", "1", "--t-end", "0.1",
                       "--out", str(out)) == 1
        assert "no step" in capsys.readouterr().err
        assert not out.exists()

    def test_report_every_thins_rows(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("sg-run", "--n", "32", "--dt", "2e-3",
                       "--t-end", "0.01", "--preset", "two-mode",
                       "--report-every", "2", "--out", str(out)) == 0
        with open(out / "certificates.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3


class TestReports:
    def test_lma_dirichlet(self, tmp_path):
        out = tmp_path / "dir"
        assert run_cli("lma-dirichlet", "--n", "32", "--out", str(out)) == 0
        info = json.loads((out / "solve.json").read_text())
        assert info["relative_residual"] <= 1e-10
        assert field_from_binary(out / "u.bin").shape == (32, 32)

    def test_green_report_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("green-report", "--n", "48", "--preset",
                           "quadratic", "--out", str(out)) == 0
        assert (a / "green_rows.csv").read_bytes() == \
            (b / "green_rows.csv").read_bytes()
        assert (a / "green_summary.json").read_bytes() == \
            (b / "green_summary.json").read_bytes()
        summary = json.loads((a / "green_summary.json").read_text())
        assert summary["mass_slope"] == pytest.approx(1.0, abs=0.3)
        assert summary["symmetry_defect"] <= 1e-10

    def test_sections_report(self, tmp_path):
        out = tmp_path / "sec"
        assert run_cli("sections-report", "--n", "48", "--centers", "3",
                       "--preset", "perturbed", "--out", str(out)) == 0
        with open(out / "sections.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12  # 3 centers x 4 rungs
        assert all(float(r["area_over_h"]) > 0 for r in rows)
        summary = json.loads((out / "sections_summary.json").read_text())
        assert summary["spread"] >= 1.0

    def test_regularity_report(self, tmp_path):
        out = tmp_path / "reg"
        assert run_cli("regularity-report", "--n", "64",
                       "--out", str(out)) == 0
        summary = json.loads((out / "regularity_summary.json").read_text())
        assert summary["beta_hat_max"] < 1.0
        assert summary["gamma_hat"] > 0.0
        with open(out / "oscillation.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["ratio"]) < 1.0 for r in rows)

    def test_polar_run_with_series_dir(self, tmp_path):
        series = presets.cosine_family_series(TorusGrid(32),
                                              [0.1, 0.2, 0.3, 0.4])
        sdir = tmp_path / "series"
        polar.write_series(series, sdir)
        out = tmp_path / "polar"
        assert run_cli("polar-run", "--series", str(sdir),
                       "--out", str(out)) == 0
        rows = [json.loads(line) for line in
                (out / "polar_rows.jsonl").read_text().splitlines()]
        assert len(rows) == 2
        with open(out / "polar_summary.csv", newline="") as fh:
            summary = next(csv.DictReader(fh))
        assert int(summary["n_timestamps"]) == 4

    def write_bad_series(self, tmp_path, times=(0.1, 0.2, 0.3), drop=None):
        sdir = tmp_path / "series"
        series = presets.cosine_family_series(TorusGrid(16), list(times))
        polar.write_series(series, sdir)
        if drop is not None:
            manifest = json.loads((sdir / "manifest.json").read_text())
            del manifest["entries"][1][drop]
            (sdir / "manifest.json").write_text(json.dumps(manifest))
        return sdir

    @pytest.mark.parametrize("flag, value", [
        ("--n", "64"), ("--n", "2"), ("--steps", "6"), ("--t-end", "0.5"),
    ], ids=["n", "n-below-four", "steps", "t-end"])
    def test_polar_run_series_rejects_family_flags(self, flag, value,
                                                   tmp_path, capsys):
        # the series fixes its own grid and timestamps
        sdir = self.write_bad_series(tmp_path)
        out = tmp_path / "o"
        assert run_cli("polar-run", "--series", str(sdir), flag, value,
                       "--out", str(out)) == 1
        assert (f"config error: {flag} does not apply with --series"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_polar_run_missing_series_dir(self, tmp_path, capsys):
        assert run_cli("polar-run", "--series", str(tmp_path / "none"),
                       "--out", str(tmp_path / "o")) == 1
        assert "config error: bad series" in capsys.readouterr().err

    def test_polar_run_series_entry_without_d1(self, tmp_path, capsys):
        sdir = self.write_bad_series(tmp_path, drop="d1")
        assert run_cli("polar-run", "--series", str(sdir),
                       "--out", str(tmp_path / "o")) == 1
        assert "KeyError: 'd1'" in capsys.readouterr().err

    def test_polar_run_series_size_mismatch(self, tmp_path, capsys):
        sdir = self.write_bad_series(tmp_path)
        manifest = json.loads((sdir / "manifest.json").read_text())
        manifest["n"] = 32  # the .bin files hold 16x16 fields
        (sdir / "manifest.json").write_text(json.dumps(manifest))
        assert run_cli("polar-run", "--series", str(sdir),
                       "--out", str(tmp_path / "o")) == 1
        assert "config error: bad series" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, t", [(1, float("nan")),
                                          (3, float("inf"))],
                             ids=["nan", "infinity"])
    def test_polar_run_series_nonfinite_timestamp(self, entry, t, tmp_path,
                                                  capsys):
        # json writes them as NaN and Infinity, and reads them back
        sdir = self.write_bad_series(tmp_path, times=(0.1, 0.4, 0.7, 0.9))
        manifest = json.loads((sdir / "manifest.json").read_text())
        manifest["entries"][entry]["t"] = t
        (sdir / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "o"
        assert run_cli("polar-run", "--series", str(sdir),
                       "--out", str(out)) == 1
        assert "config error: bad series" in capsys.readouterr().err
        assert not out.exists()

    def test_polar_run_series_needs_three_timestamps(self, tmp_path, capsys):
        sdir = self.write_bad_series(tmp_path, times=(0.1, 0.2))
        assert run_cli("polar-run", "--series", str(sdir),
                       "--out", str(tmp_path / "o")) == 1
        assert ("config error: series needs at least 3 timestamps, got 2"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("flag, value, message", [
        ("--steps", "1", "steps must be at least 3"),
        ("--t-end", "0.05", "t_end must exceed 0.1"),
    ], ids=["steps", "t-end"])
    def test_polar_run_family_needs_three_increasing_times(
            self, flag, value, message, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli("polar-run", "--n", "16", flag, value,
                       "--out", str(out)) == 1
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("by", ["flag", "config"])
    @pytest.mark.parametrize("t_end", ["inf", "1e308"])
    def test_polar_run_nonfinite_timestamps_are_config_error(
            self, t_end, by, tmp_path, capsys):
        # 1e308 passes as a float, but k * (t_end - 0.1) overflows to inf
        out = tmp_path / "o"
        if by == "flag":
            source = ["--t-end", t_end]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"t_end = {t_end}\n")
            source = ["--config", str(cfg)]
        assert run_cli("polar-run", "--n", "16", *source,
                       "--out", str(out)) == 1
        assert ("timestamps that are not finite"
                in capsys.readouterr().err)
        assert not out.exists()


class TestVerify:
    def _fake(self, passed):
        return [acceptance.CheckResult("fake_check", passed,
                                       {"value": 1.0}, 0.01)]

    def test_failing_check_exits_three(self, tmp_path, capsys,
                                       monkeypatch):
        monkeypatch.setattr(cli.acceptance, "run_all",
                            lambda: self._fake(False))
        out = tmp_path / "v"
        assert run_cli("verify", "--out", str(out)) == 3
        captured = capsys.readouterr()
        assert "FAIL fake_check" in captured.out
        assert "fake_check" in captured.err
        suite = json.loads((out / "suite.json").read_text())
        assert suite["fake_check"]["passed"] is False

    def test_soft_downgrades_to_warning(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli.acceptance, "run_all",
                            lambda: self._fake(False))
        assert run_cli("verify", "--soft",
                       "--out", str(tmp_path / "v")) == 0
        assert "failed checks" in capsys.readouterr().err

    def test_passing_suite_exits_zero(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli.acceptance, "run_all",
                            lambda: self._fake(True))
        assert run_cli("verify", "--out", str(tmp_path / "v")) == 0
        assert "PASS fake_check" in capsys.readouterr().out

    def test_default_out_dir_gets_metadata(self, tmp_path, monkeypatch):
        # the suite report and its metadata land in the same directory
        monkeypatch.setattr(cli.acceptance, "run_all",
                            lambda: self._fake(True))
        monkeypatch.chdir(tmp_path)
        assert run_cli("verify") == 0
        out = tmp_path / "sgtorus_out"
        assert (out / "suite.json").exists()
        metadata = json.loads((out / "metadata.json").read_text())
        assert metadata["command"] == "verify"


class TestThreadIndependence:
    """The reports do not depend on the BLAS thread count: at N=128 a BLAS
    dot product sums in an order set by its threads, and no reduction
    that reaches a report may use one.  The section commands run masked
    solves through the multigrid cycle."""

    @staticmethod
    def _reports(command, threads, where):
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(sgtorus.__file__)))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        where.mkdir()
        subprocess.run([sys.executable, "-m", "sgtorus.cli", command,
                        "--n", "128", "--out", str(where)],
                       env=env, check=True, capture_output=True)
        # metadata.json holds wall-clock times
        return {p.name: p.read_bytes() for p in sorted(where.iterdir())
                if p.name != "metadata.json"}

    @pytest.mark.parametrize("command", ["sg-run", "polar-run", "green-report",
                                         "regularity-report", "lma-dirichlet"])
    def test_reports_byte_identical_across_blas_threads(self, command,
                                                        tmp_path):
        one = self._reports(command, 1, tmp_path / "one")
        two = self._reports(command, 2, tmp_path / "two")
        assert len(one) >= 2
        assert one.keys() == two.keys()
        for name in one:
            assert one[name] == two[name], name
