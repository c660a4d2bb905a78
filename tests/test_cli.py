import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from logent.cli import main
from logent.densities import read_density_csv
from logent.dynamics import read_trajectory_csv
from logent.wigner import read_wigner_csv


@pytest.fixture
def runner():
    return CliRunner()


class TestEntropy:
    def test_pure_negative_state(self, runner):
        res = runner.invoke(main, ["entropy", "--p", "0.666667,0.666667,-0.333333"])
        assert res.exit_code == 0
        assert "pure" in res.output

    def test_half_half(self, runner):
        res = runner.invoke(main, ["entropy", "--p", "0.5,0.5", "--json"])
        assert res.exit_code == 0
        rep = json.loads(res.output)
        assert rep["entropy"] == 0.5
        assert rep["class"] == "mixed"

    def test_inadmissible_exit_code(self, runner):
        res = runner.invoke(main, ["entropy", "--p", "1,1,-1"])
        assert res.exit_code == 1
        assert "inadmissible" in res.output

    def test_parse_failure_exit_code(self, runner):
        res = runner.invoke(main, ["entropy", "--p", "1,banana"])
        assert res.exit_code == 2

    def test_vector_file(self, runner, tmp_path):
        path = tmp_path / "vec.json"
        path.write_text("[0.2, 0.5, 0.3]")
        res = runner.invoke(main, ["entropy", "--file", str(path), "--json"])
        assert res.exit_code == 0
        assert json.loads(res.output)["class"] == "mixed"

    def test_requires_exactly_one_source(self, runner):
        res = runner.invoke(main, ["entropy"])
        assert res.exit_code == 2


class TestFeasibility:
    def test_n3(self, runner):
        res = runner.invoke(main, ["feasibility", "--n", "3", "--json"])
        rep = json.loads(res.output)
        assert rep["r_max"] == 1.0
        assert rep["r_pos"] == 1 / math.sqrt(2)
        assert rep["r_min"] == 1 / math.sqrt(3)

    def test_bad_n(self, runner):
        res = runner.invoke(main, ["feasibility", "--n", "1"])
        assert res.exit_code == 2


class TestMaxent:
    def test_find_max(self, runner):
        res = runner.invoke(main, ["maxent", "--x", "-1,0,1", "--find-max", "--json"])
        rep = json.loads(res.output)
        assert rep["m_max"] == pytest.approx(2 / math.sqrt(3), abs=1e-12)

    def test_find_max_nonnegative(self, runner):
        res = runner.invoke(
            main, ["maxent", "--x", "-1,0,1", "--find-max", "--nonnegative", "--json"]
        )
        rep = json.loads(res.output)
        assert rep["m_max"] == pytest.approx(2 / 3, abs=1e-12)

    def test_zero_mean_uniform(self, runner):
        res = runner.invoke(main, ["maxent", "--x", "-1,0,1", "--m", "0", "--json"])
        rep = json.loads(res.output)
        assert np.allclose(rep["p"], [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
        assert res.exit_code == 0

    def test_constant_observable_usage_error(self, runner):
        res = runner.invoke(main, ["maxent", "--x", "2,2,2", "--m", "0"])
        assert res.exit_code == 2

    def test_inadmissible_target_exit_code(self, runner):
        res = runner.invoke(main, ["maxent", "--x", "-1,0,1", "--m", "1.5"])
        assert res.exit_code == 1


class TestScenario:
    def test_marbles(self, runner):
        res = runner.invoke(main, ["scenario", "marbles", "--json"])
        rep = json.loads(res.output)
        assert rep["prob_q_RR"] == 1 / 9
        assert rep["prob_p_notR_notR"] == 5 / 9
        assert rep["p_dot_q"] == pytest.approx(0.0, abs=1e-15)
        assert not rep["consistent"]

    def test_die(self, runner):
        res = runner.invoke(main, ["scenario", "die", "--json"])
        rep = json.loads(res.output)
        assert rep["classical_information"] == pytest.approx(5 / 9, abs=1e-12)
        assert rep["signed_information"] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(rep["classical_p"], [0, 1 / 3, 2 / 3], atol=1e-12)

    def test_unknown_scenario(self, runner):
        res = runner.invoke(main, ["scenario", "coins"])
        assert res.exit_code == 2


class TestEvolveFd:
    def test_cyclic_run_writes_trajectory(self, runner, tmp_path):
        out = tmp_path / "traj.csv"
        res = runner.invoke(
            main,
            ["evolve", "fd", "--p0", "1,0,0", "--t-end", "10", "--dt", "0.1",
             "--output", str(out)],
        )
        assert res.exit_code == 0, res.output
        data = read_trajectory_csv(out)
        assert data["times"].shape[0] == 101
        assert data["probability_drift"].max() < 1e-10
        assert data["information_drift"].max() < 1e-10

    def test_config_file(self, runner, tmp_path):
        out = tmp_path / "traj.csv"
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            f"[fd]\ngenerator = random\nn = 5\nseed = 3\nt_end = 2.0\ndt = 0.5\n"
            f"p0 = 0.4,0.3,0.2,0.1,0.0\noutput = {out}\n"
        )
        res = runner.invoke(main, ["evolve", "fd", "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        assert out.exists()

    def test_unknown_config_key(self, runner, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[fd]\nbogus = 1\n")
        res = runner.invoke(main, ["evolve", "fd", "--config", str(cfg)])
        assert res.exit_code == 2
        assert "bogus" in res.output

    def test_missing_section(self, runner, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[continuum]\nn = 256\n")
        res = runner.invoke(main, ["evolve", "fd", "--config", str(cfg)])
        assert res.exit_code == 2

    def test_flag_overrides_config(self, runner, tmp_path):
        out = tmp_path / "traj.csv"
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[fd]\nt_end = 1.0\ndt = 0.5\noutput = {out}\n")
        res = runner.invoke(main, ["evolve", "fd", "--config", str(cfg), "--dt", "0.25"])
        assert res.exit_code == 0, res.output
        assert read_trajectory_csv(out)["times"].tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_flag_before_config_overrides_it(self, runner, tmp_path):
        out = tmp_path / "traj.csv"
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[fd]\nt_end = 1.0\ndt = 0.5\noutput = {out}\n")
        res = runner.invoke(main, ["evolve", "fd", "--dt", "0.25", "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        assert read_trajectory_csv(out)["times"].tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]


class TestConfigValues:
    @pytest.mark.parametrize(
        "engine, key, value",
        [
            ("wigner", "potential", "harmonc"),
            ("fd", "generator", "cyclc3"),
            ("continuum", "omega_family", "harmonc"),
            ("fd", "n", "five"),
        ],
    )
    def test_bad_value_rejected_and_named(self, runner, tmp_path, monkeypatch, engine, key, value):
        monkeypatch.chdir(tmp_path)  # a run that wrongly proceeds writes its default outputs here
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[{engine}]\n{key} = {value}\n")
        res = runner.invoke(main, ["evolve", engine, "--config", str(cfg)])
        assert res.exit_code == 2
        assert repr(key) in res.output

    @pytest.mark.parametrize("engine, output", [("fd", "--output"), ("continuum", "--output-grid")])
    @pytest.mark.parametrize("t_end", ["nan", "inf", "-inf"])
    def test_non_finite_t_end_is_a_usage_error(self, runner, tmp_path, engine, output, t_end):
        out = str(tmp_path / "out.csv")
        res = runner.invoke(main, ["evolve", engine, "--t-end", t_end, output, out])
        assert res.exit_code == 2


class TestMalformedConfig:
    """A config file configparser cannot read exits 2 naming the file."""

    @pytest.mark.parametrize(
        "content",
        [
            b"t_end = 1.0\n",  # no [section] header
            b"[fd]\nt_end = 1.0\nt_end = 2.0\n",  # repeated key
            b"[fd]\noutput = 50%.csv\n",  # % starts an interpolation
            b"[fd]\nt_end = 1.0\n# caf\xe9\n",  # not UTF-8
        ],
        ids=["no-header", "repeated-key", "percent", "not-utf8"],
    )
    def test_exit_code_two(self, runner, tmp_path, monkeypatch, content):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.ini"
        cfg.write_bytes(content)
        res = runner.invoke(main, ["evolve", "fd", "--config", str(cfg)])
        assert res.exit_code == 2, res.output
        assert "run.ini" in res.output
        assert list(tmp_path.iterdir()) == [cfg]


class TestEvolveContinuum:
    def test_run_and_cross_check(self, runner, tmp_path):
        grid_out = tmp_path / "f.csv"
        diag_out = tmp_path / "d.csv"
        res = runner.invoke(
            main,
            ["evolve", "continuum", "--n", "256", "--length", "8", "--t-end", "0.5",
             "--samples", "5", "--omega-family", "harmonic", "--coeff", "1.0",
             "--a", "0.5", "--output-grid", str(grid_out),
             "--output-diag", str(diag_out), "--cross-check"],
        )
        assert res.exit_code == 0, res.output
        assert "cross-check Linf" in res.output
        linf = float(res.output.split("cross-check Linf   =")[1].split()[0])
        assert linf < 1e-6
        back = read_density_csv(grid_out)
        assert abs(back.total - 1.0) < 1e-9
        lines = diag_out.read_text().strip().splitlines()
        assert lines[0] == "t,sum,I,max_mode_drift"
        assert len(lines) == 6

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_no_samples_is_a_usage_error(self, runner, tmp_path, samples):
        res = runner.invoke(
            main,
            ["evolve", "continuum", "--n", "64", "--samples", samples,
             "--output-grid", str(tmp_path / "f.csv"), "--output-diag", str(tmp_path / "d.csv")],
        )
        assert res.exit_code == 2
        assert "samples" in res.output

    def test_samples_above_the_step_cap_are_a_usage_error(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        res = runner.invoke(main, ["evolve", "continuum", "--samples", "100000000000"])
        assert res.exit_code == 2, res.output  # was a MemoryError, exit 1
        assert list(tmp_path.iterdir()) == []

    def test_diagnostics_bytes_match_per_row_format(self, runner, tmp_path):
        from logent import build_kernel, evolve_density, gaussian_density, omega_quartic

        diag_out = tmp_path / "d.csv"
        res = runner.invoke(
            main,
            ["evolve", "continuum", "--n", "128", "--t-end", "0.3", "--samples", "4",
             "--omega-family", "quartic", "--coeff", "0.5", "--a", "0.2",
             "--output-grid", str(tmp_path / "f.csv"), "--output-diag", str(diag_out)],
        )
        assert res.exit_code == 0, res.output
        f0 = gaussian_density(128, 8.0, 1.0, 1.0 / (2.0 * math.sqrt(math.pi)))
        kern = build_kernel(omega_quartic(0.5), 0.2, f0)
        spectrum0 = f0.dz * np.abs(np.fft.fft(f0.values))
        expected = "t,sum,I,max_mode_drift\n"
        for k in range(1, 5):
            t = 0.3 * k / 4
            state = evolve_density(f0, kern, t)
            drift = float(np.max(np.abs(state.dz * np.abs(np.fft.fft(state.values)) - spectrum0)))
            row = (t, state.total, state.information, drift)
            expected += ",".join(f"{v:.14e}" for v in row) + "\n"
        assert diag_out.read_text() == expected


class TestEvolveWigner:
    def test_run_writes_snapshot_and_diag(self, runner, tmp_path):
        snap = tmp_path / "w.csv"
        diag = tmp_path / "wd.csv"
        res = runner.invoke(
            main,
            ["evolve", "wigner", "--potential", "harmonic", "--omega", "1.0",
             "--nx", "64", "--npts", "64", "--t-end", "0.05", "--dt", "0.01",
             "--output-snapshot", str(snap), "--output-diag", str(diag)],
        )
        assert res.exit_code == 0, res.output
        back = read_wigner_csv(snap)
        assert abs(back.total - 1.0) < 1e-9
        lines = diag.read_text().strip().splitlines()
        assert lines[0] == "t,sum,I,moment3"
        assert len(lines) == 7  # t = 0 plus five steps
        # re-importing and re-formatting reproduces the rows byte for byte
        data = np.loadtxt(diag, delimiter=",", skiprows=1)
        rebuilt = [",".join(f"{v:.14e}" for v in row) for row in data]
        assert rebuilt == lines[1:]

    def test_rotation_check_reports_small_error(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["evolve", "wigner", "--potential", "harmonic", "--omega", "1.0",
             "--nx", "64", "--npts", "64", "--x-center", "0.8",
             "--t-end", str(math.pi / 2), "--dt", "0.002", "--rotation-check",
             "--output-snapshot", str(tmp_path / "w.csv"),
             "--output-diag", str(tmp_path / "wd.csv")],
        )
        assert res.exit_code == 0, res.output
        err = float(res.output.split("rotation-check L2 =")[1].split()[0])
        assert err < 1e-3

    def test_rotation_check_rejects_nonharmonic(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["evolve", "wigner", "--potential", "free", "--nx", "64", "--npts", "64",
             "--t-end", "0.01", "--dt", "0.01", "--rotation-check",
             "--output-snapshot", str(tmp_path / "w.csv"),
             "--output-diag", str(tmp_path / "wd.csv")],
        )
        assert res.exit_code == 2


README = Path(__file__).resolve().parents[1] / "README.md"
OUTPUT_FLAGS = {
    "fd": ["--output"],
    "continuum": ["--output-grid", "--output-diag"],
    "wigner": ["--output-snapshot", "--output-diag"],
}


def _readme_configs():
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
    return {re.match(r"\[(\w+)\]", block).group(1): block for block in blocks}


class TestReadmeConfigs:
    def test_every_engine_has_an_example(self):
        assert sorted(_readme_configs()) == sorted(OUTPUT_FLAGS)

    @pytest.mark.parametrize("engine", sorted(OUTPUT_FLAGS))
    def test_example_runs(self, runner, tmp_path, engine):
        cfg = tmp_path / "run.ini"
        cfg.write_text(_readme_configs()[engine])
        args = ["evolve", engine, "--config", str(cfg)]
        for i, flag in enumerate(OUTPUT_FLAGS[engine]):
            args += [flag, str(tmp_path / f"out{i}.csv")]
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        assert all((tmp_path / f"out{i}.csv").exists() for i in range(len(OUTPUT_FLAGS[engine])))


class TestIgnoredKeys:
    CASES = [
        ("fd", [], "n", "7"),
        ("fd", ["--generator", "cyclic3"], "seed", "3"),
        ("wigner", ["--potential", "quartic"], "omega", "2.0"),
        ("wigner", ["--potential", "free"], "omega", "1.0"),
        ("wigner", [], "beta", "0.2"),
        ("wigner", ["--potential", "free"], "beta", "0.1"),
    ]

    @pytest.mark.parametrize("engine, args, key, value", CASES)
    def test_flag_rejected_and_named(self, runner, tmp_path, monkeypatch, engine, args, key, value):
        monkeypatch.chdir(tmp_path)  # a run that wrongly proceeds writes its default outputs here
        res = runner.invoke(main, ["evolve", engine, *args, "--" + key, value])
        assert res.exit_code == 2
        assert repr(key) in res.output
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("engine, args, key, value", CASES)
    def test_config_rejected_and_named(self, runner, tmp_path, monkeypatch, engine, args, key, value):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[{engine}]\n{key} = {value}\n")
        res = runner.invoke(main, ["evolve", engine, "--config", str(cfg), *args])
        assert res.exit_code == 2
        assert repr(key) in res.output
        assert [p.name for p in tmp_path.iterdir()] == ["run.ini"]


class TestRotationCheckBeforeRun:
    @pytest.mark.parametrize(
        "args",
        [
            ["--potential", "quartic", "--beta", "0.1"],
            ["--potential", "free"],
            ["--potential", "harmonic", "--omega", "0"],
            ["--omega", "0.0"],
        ],
    )
    def test_rejected_before_any_output(self, runner, tmp_path, args):
        snap, diag = tmp_path / "w.csv", tmp_path / "wd.csv"
        res = runner.invoke(
            main,
            ["evolve", "wigner", *args, "--nx", "64", "--npts", "64", "--t-end", "0.05",
             "--dt", "0.01", "--rotation-check",
             "--output-snapshot", str(snap), "--output-diag", str(diag)],
        )
        assert res.exit_code == 2
        assert "rotation-check" in res.output
        assert not snap.exists() and not diag.exists()

    def test_zero_omega_from_config(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.ini"
        cfg.write_text("[wigner]\nomega = 0\nnx = 64\nnpts = 64\nt_end = 0.05\n")
        res = runner.invoke(main, ["evolve", "wigner", "--config", str(cfg), "--rotation-check"])
        assert res.exit_code == 2
        assert [p.name for p in tmp_path.iterdir()] == ["run.ini"]


class TestCrossCheckScaling:
    @pytest.mark.parametrize(
        "family, coeff",
        [("constant", "1.3"), ("linear", "0.9"), ("harmonic", "1.0"), ("quartic", "0.4"),
         ("harmonic", "-0.5")],
    )
    def test_cross_check_at_non_unit_h(self, runner, tmp_path, family, coeff):
        # at h = 1 a missing or doubled h / (2 pi) factor would go unseen
        res = runner.invoke(
            main,
            ["evolve", "continuum", "--n", "256", "--h", "0.7", "--t-end", "0.5",
             "--samples", "2", "--omega-family", family, "--coeff", coeff, "--a", "0.5",
             "--output-grid", str(tmp_path / "f.csv"),
             "--output-diag", str(tmp_path / "d.csv"), "--cross-check"],
        )
        assert res.exit_code == 0, res.output
        linf = float(res.output.split("cross-check Linf   =")[1].split()[0])
        assert linf < 1e-6


class TestBoundaryExitCodes:
    """Bad numeric input exits 2 with a usage error, never with a traceback."""

    @pytest.mark.parametrize(
        "args",
        [
            ["maxent", "--x", "-1,0,1", "--m", "nan"],
            ["maxent", "--x", "-1,0,1", "--m", "inf"],
            ["maxent", "--x", "-1,0,1", "--m", "1e12"],
            ["entropy", "--p", "0.5,0.5", "--tol", "nan"],
            ["entropy", "--p", "0.5,0.5", "--tol", "-1"],
            ["evolve", "continuum", "--n", "0"],
            ["evolve", "wigner", "--nx", "0"],
            ["evolve", "wigner", "--npts", "0"],
            ["evolve", "fd", "--generator", "random", "--seed", "-1"],
        ],
    )
    def test_exit_code_two(self, runner, tmp_path, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert "Error:" in res.output
        assert list(tmp_path.iterdir()) == []

    def test_zero_tol_is_valid(self, runner):
        res = runner.invoke(main, ["entropy", "--p", "0.5,0.5", "--tol", "0", "--json"])
        assert res.exit_code == 0
        assert json.loads(res.output)["class"] == "mixed"

    @pytest.mark.parametrize("content", ['{"a": 1}', "[{}]"])
    def test_json_file_of_objects_exits_two(self, runner, tmp_path, content):
        path = tmp_path / "vec.json"
        path.write_text(content)
        res = runner.invoke(main, ["entropy", "--file", str(path)])
        assert res.exit_code == 2
        assert "cannot read vector" in res.output

    def test_json_file_of_numeric_strings_exits_two(self, runner, tmp_path):
        # the strings were read as numbers without notice
        path = tmp_path / "vec.json"
        path.write_text('["0.5", "0.5"]')
        res = runner.invoke(main, ["entropy", "--file", str(path)])
        assert res.exit_code == 2
        assert "cannot read vector" in res.output


class TestCommandErrorBoundary:
    """A LogentError from any command exits 2 with its message."""

    def test_failing_cross_check_exits_two(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        res = runner.invoke(
            main,
            ["evolve", "continuum", "--n", "64", "--omega-family", "quartic", "--coeff", "1e6",
             "--a", "0.8", "--t-end", "10", "--cross-check"],
        )
        assert res.exit_code == 2, res.output
        assert "Error: quadrature sum" in res.output

    def test_step_count_over_the_cap_exits_two(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        res = runner.invoke(main, ["evolve", "fd", "--t-end", "1", "--dt", "1e-300"])
        assert res.exit_code == 2, res.output
        assert "steps" in res.output
        assert list(tmp_path.iterdir()) == []

    def test_every_command_converts(self):
        from logent.cli import _Command

        def leaves(group):
            for cmd in group.commands.values():
                yield from leaves(cmd) if hasattr(cmd, "commands") else [cmd]

        names = sorted(cmd.name for cmd in leaves(main))
        assert names == ["continuum", "entropy", "fd", "feasibility", "maxent", "scenario", "wigner"]
        assert all(isinstance(cmd, _Command) for cmd in leaves(main))


class TestUnwritableOutput:
    """An output path that cannot be written exits 2 with the OS message, not
    1, the inadmissible-state code."""

    @pytest.mark.parametrize(
        "args",
        [
            ["fd", "--output", "no_such_dir/x.csv"],
            ["continuum", "--n", "64", "--samples", "5", "--output-grid", "no_such_dir/g.csv"],
            ["continuum", "--n", "64", "--samples", "5", "--output-diag", "no_such_dir/d.csv"],
            ["wigner", "--nx", "32", "--npts", "32", "--t-end", "0.05",
             "--output-snapshot", "no_such_dir/s.csv"],
            ["wigner", "--nx", "32", "--npts", "32", "--t-end", "0.05",
             "--output-diag", "no_such_dir/d.csv"],
        ],
    )
    def test_exits_two(self, runner, tmp_path, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        res = runner.invoke(main, ["evolve", *args])
        assert res.exit_code == 2, res.output
        assert "Error: " in res.output
        assert "No such file or directory" in res.output and "no_such_dir" in res.output


class TestNoLeftoverOutput:
    """A run that fails to write one of its outputs exits 2 and leaves no file
    it created: neither the snapshot and its sidecar nor the other output."""

    SMALL = {
        "continuum": ["--n", "64", "--samples", "5"],
        "wigner": ["--nx", "32", "--npts", "32", "--t-end", "0.05"],
    }
    SNAPSHOT = {"continuum": "--output-grid", "wigner": "--output-snapshot"}

    @pytest.mark.parametrize("engine", ["continuum", "wigner"])
    def test_unwritable_diagnostics_leave_no_snapshot(self, runner, tmp_path, monkeypatch, engine):
        monkeypatch.chdir(tmp_path)
        args = ["evolve", engine, *self.SMALL[engine], "--output-diag", "no_such_dir/d.csv"]
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert "no_such_dir" in res.output
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("engine", ["continuum", "wigner"])
    def test_unwritable_sidecar_leaves_no_snapshot(self, runner, tmp_path, monkeypatch, engine):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s.csv.meta.json").mkdir()  # the sidecar path cannot be opened as a file
        args = ["evolve", engine, *self.SMALL[engine], self.SNAPSHOT[engine], "s.csv"]
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv.meta.json"]

    @pytest.mark.parametrize("engine", ["continuum", "wigner"])
    def test_files_that_existed_stay(self, runner, tmp_path, monkeypatch, engine):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s.csv").write_text("old\n")
        args = ["evolve", engine, *self.SMALL[engine], self.SNAPSHOT[engine], "s.csv",
                "--output-diag", "no_such_dir/d.csv"]
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv"]


class TestOverflowingSampleTime:
    """A finite --t-end whose sample times would overflow exits 2 naming
    t_end * samples, before any numpy warning."""

    def test_exits_two_without_warning(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            args = ["evolve", "continuum", "--t-end", "1e308", "--samples", "10"]
            res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert "Error: t_end * samples = 1e+308 * 10 is beyond the float range" in res.output
        assert "Warning" not in res.output and list(tmp_path.iterdir()) == []


NUM = r"(?:-?\d+(?:\.\d+)?(?:e[+-]\d+)?|nan)"


class TestSummaryLayout:
    """Each engine prints `label = value` lines with its own label column."""

    def _run(self, runner, tmp_path, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        return res.output

    def test_fd(self, runner, tmp_path, monkeypatch):
        out = self._run(runner, tmp_path, monkeypatch, ["evolve", "fd", "--t-end", "1"])
        assert re.fullmatch(
            rf"samples        = \d+\n"
            rf"max \|sum-1\|    = {NUM}\n"
            rf"max \|I-I\(0\)\|   = {NUM}\n"
            rf"trajectory written to fd_trajectory\.csv\n",
            out,
        ), out

    def test_continuum(self, runner, tmp_path, monkeypatch):
        args = ["evolve", "continuum", "--n", "64", "--samples", "3", "--cross-check"]
        out = self._run(runner, tmp_path, monkeypatch, args)
        assert re.fullmatch(
            rf"samples            = 3\n"
            rf"max \|sum-1\|        = {NUM}\n"
            rf"max \|I-I\(0\)\|       = {NUM}\n"
            rf"max mode drift     = {NUM}\n"
            rf"grid written to continuum_final\.csv, diagnostics to continuum_diag\.csv\n"
            rf"cross-check Linf   = {NUM}\n",
            out,
        ), out

    def test_wigner(self, runner, tmp_path, monkeypatch):
        args = ["evolve", "wigner", "--nx", "32", "--npts", "32", "--t-end", "0.1",
                "--rotation-check"]
        out = self._run(runner, tmp_path, monkeypatch, args)
        assert re.fullmatch(
            rf"steps            = \d+\n"
            rf"max \|sum-1\|      = {NUM}\n"
            rf"max \|I-I\(0\)\|     = {NUM}\n"
            rf"moment3 change   = {NUM}\n"
            rf"min w            = {NUM}\n"
            rf"snapshot written to wigner_final\.csv, diagnostics to wigner_diag\.csv\n"
            rf"rotation-check L2 = {NUM}\n",
            out,
        ), out


class TestCrossCheckRunsFirst:
    """A failing --cross-check oracle stops the run before any output."""

    def test_failing_oracle_leaves_no_file_and_names_the_check(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        res = runner.invoke(
            main,
            ["evolve", "continuum", "--n", "64", "--omega-family", "quartic", "--coeff", "1e6",
             "--a", "0.8", "--t-end", "10", "--cross-check"],
        )
        assert res.exit_code == 2, res.output
        assert list(tmp_path.iterdir()) == []
        assert "samples" not in res.output
        assert "(--cross-check oracle)" in res.output


QUERY_OUTPUT = {
    ("entropy", "--p", "0.5,0.5"): (
        "n            = 2\n"
        "S_L          = 0.5\n"
        "I            = 0.5\n"
        "class        = mixed\n"
        "radii        = (r_max 1, r_pos 1, r_min 0.707106781186547)\n"
    ),
    ("entropy", "--p", "0.5,0.5", "--json"): (
        '{"n": 2, "entropy": 0.5, "information": 0.5, "class": "mixed", "r_max": 1.0, '
        '"r_pos": 1.0, "r_min": 0.7071067811865475, "negatives_possible": false}\n'
    ),
    ("feasibility", "--n", "3"): (
        "r_max = 1\n"
        "r_pos = 0.707106781186547\n"
        "r_min = 0.577350269189626\n"
        "negatives_possible = True\n"
    ),
    ("feasibility", "--n", "3", "--json"): (
        '{"n": 3, "r_max": 1.0, "r_pos": 0.7071067811865475, "r_min": 0.5773502691896258, '
        '"negatives_possible": true}\n'
    ),
    ("maxent", "--x", "-1,0,1", "--m", "0.5"): (
        "p      = (0.0833333333333333, 0.333333333333333, 0.583333333333333)\n"
        "lambda = 0.666666666666667\n"
        "mu     = -0.5\n"
        "I      = 0.458333333333333\n"
        "admissible = True\n"
    ),
    ("maxent", "--x", "-1,0,1", "--m", "0.5", "--json"): (
        '{"p": [0.08333333333333331, 0.3333333333333333, 0.5833333333333333], '
        '"lambda": 0.6666666666666666, "mu": -0.5, "information": 0.4583333333333332, '
        '"admissible": true}\n'
    ),
    ("maxent", "--x", "-1,0,1", "--find-max"): (
        "m_max = 1.15470053837925\n"
        "p     = (-0.244016935856293, 0.333333333333333, 0.910683602522959)\n"
        "I     = 1\n"
    ),
    ("maxent", "--x", "-1,0,1", "--find-max", "--json"): (
        '{"m_max": 1.1547005383792517, '
        '"p": [-0.24401693585629253, 0.3333333333333333, 0.9106836025229592], '
        '"information": 1.0000000000000002}\n'
    ),
}


@pytest.mark.parametrize("args", list(QUERY_OUTPUT), ids=" ".join)
def test_query_output_is_pinned(runner, args):
    """The full text and JSON reports of the query commands, byte for byte."""
    res = runner.invoke(main, list(args))
    assert res.exit_code == 0, res.output
    assert res.output == QUERY_OUTPUT[args]
