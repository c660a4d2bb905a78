import logging
import math

import numpy as np
import pytest
import scipy.linalg
from click.testing import CliRunner

from logent import (
    DimensionMismatchError,
    DomainError,
    GeneratorMatrix,
    GridError,
    SignedProbVector,
    cyclic_generator3,
    evolve,
    random_generator,
    trajectory,
)
from logent.cli import main
from logent.dynamics import read_trajectory_csv, write_trajectory_csv
from oracles import matrix_exp_taylor

E1 = SignedProbVector(np.array([1.0, 0.0, 0.0]))


def uniform(n):
    return SignedProbVector(np.full(n, 1.0 / n))


class TestGeneratorMatrix:
    def test_cyclic3_structure(self):
        g = cyclic_generator3()
        expected = np.array([[0, -1, 1], [1, 0, -1], [-1, 1, 0]], dtype=float)
        assert np.array_equal(g.matrix, expected)
        assert g.rate == pytest.approx(math.sqrt(3) / 3, abs=1e-16)
        assert np.all(g.matrix.sum(axis=0) == 0.0)
        assert np.all(g.matrix.sum(axis=1) == 0.0)
        assert np.array_equal(g.matrix, -g.matrix.T)

    def test_cyclic3_fixes_uniform(self):
        g = cyclic_generator3()
        assert np.allclose(g.matrix @ uniform(3).entries, 0.0, atol=1e-16)

    def test_from_dense_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            GeneratorMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_rejects_bad_row_sums(self):
        bad = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(DomainError):
            GeneratorMatrix.from_dense(bad)

    def test_storage_is_strict_upper(self):
        g = cyclic_generator3()
        assert np.all(np.tril(g.upper) == 0.0)
        with pytest.raises(DomainError):
            GeneratorMatrix(upper=np.array([[1.0, 0.0], [0.0, 0.0]]))


class TestRandomGenerator:
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
    def test_marginal_sums(self, n):
        g = random_generator(n, seed=4)
        assert np.max(np.abs(g.matrix.sum(axis=0))) < 1e-12
        assert np.max(np.abs(g.matrix.sum(axis=1))) < 1e-12

    def test_deterministic(self):
        a = random_generator(6, seed=123)
        b = random_generator(6, seed=123)
        assert np.array_equal(a.matrix, b.matrix)

    def test_n3_is_multiple_of_cyclic(self):
        g = random_generator(3, seed=9)
        ref = cyclic_generator3().matrix
        mask = ref != 0.0
        ratios = g.matrix[mask] / ref[mask]
        assert np.max(np.abs(ratios - ratios[0])) < 1e-13


class TestEvolve:
    def test_time_zero(self):
        out = evolve(E1, cyclic_generator3(), 0.0)
        assert np.array_equal(out.entries, E1.entries)

    def test_uniform_fixed_point(self):
        out = evolve(uniform(3), cyclic_generator3(), 7.3)
        assert np.allclose(out.entries, 1 / 3, atol=1e-13)

    def test_full_period_returns(self):
        # the cyclic generator rotates about the uniform axis at unit speed
        out = evolve(E1, cyclic_generator3(), 2 * math.pi, dt=2e-5)
        assert np.max(np.abs(out.entries - E1.entries)) < 1e-9

    def test_matches_exponential_oracle(self):
        cases = [(cyclic_generator3(), E1, 2 * math.pi)]
        rng = np.random.default_rng(31)
        for n in range(2, 7):
            g = random_generator(n, seed=n)
            x = rng.standard_normal(n)
            p0 = SignedProbVector(x / x.sum() if abs(x.sum()) > 0.3 else np.full(n, 1.0 / n))
            cases.append((g, p0, 3.7))
        for g, p0, t in cases:
            exact = matrix_exp_taylor(t * g.rate * g.matrix) @ p0.entries
            out = evolve(p0, g, t, dt=2e-5)
            rel = np.linalg.norm(out.entries - exact) / np.linalg.norm(exact)
            assert rel < 1e-9

    def test_taylor_oracle_agrees_with_scipy(self):
        g = random_generator(5, seed=2)
        m = 1.7 * g.rate * g.matrix
        assert np.max(np.abs(matrix_exp_taylor(m) - scipy.linalg.expm(m))) < 1e-12

    def test_composition(self):
        g = random_generator(4, seed=77)
        p0 = SignedProbVector(np.array([0.7, 0.3, 0.2, -0.2]))
        a = evolve(evolve(p0, g, 0.73, dt=2e-5), g, 1.31, dt=2e-5)
        b = evolve(p0, g, 0.73 + 1.31, dt=2e-5)
        assert np.max(np.abs(a.entries - b.entries)) < 1e-9

    def test_conserves_invariants_for_any_step(self):
        g = random_generator(6, seed=5)
        x = np.array([0.9, 0.3, -0.2, 0.1, -0.3, 0.2])
        p0 = SignedProbVector(x)
        for dt in (0.5, 0.05, None):
            out = evolve(p0, g, 12.0, dt=dt)
            assert abs(out.entries.sum() - 1.0) < 1e-12
            assert abs(out.information - p0.information) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            evolve(uniform(4), cyclic_generator3(), 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", ["t", "dt"])
    def test_non_finite_time_or_step_rejected(self, which, bad):
        args = {"t": 1.0, "dt": 0.1, which: bad}
        with pytest.raises(DomainError):
            evolve(E1, cyclic_generator3(), args["t"], dt=args["dt"])

    def test_tangency(self):
        g = random_generator(7, seed=13)
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.standard_normal(7)
            mp = g.matrix @ x
            assert abs(mp.sum()) < 1e-12 * max(1.0, np.abs(x).max())
            assert abs(x @ mp) < 1e-12 * max(1.0, x @ x)


class TestStepRuleLog:
    """The fd step decision is logged at DEBUG on the "logent" logger: the
    rule, the step count, the step and |G|_2 when the default computes it."""

    def test_default_and_caller_rules(self, caplog):
        g = cyclic_generator3()
        with caplog.at_level(logging.DEBUG, logger="logent"):
            evolve(E1, g, 1.0)
            evolve(E1, g, -1.0, dt=0.3)
        default, caller = [r for r in caplog.records if r.name == "logent"]
        assert default.levelno == caller.levelno == logging.DEBUG
        rule, n, step, norm = default.args
        assert rule.startswith("default") and "0.1 rad" in rule
        assert norm == pytest.approx(np.linalg.norm(g.rate * g.matrix, 2))
        assert (n, step) == (10, pytest.approx(0.1)) and step * norm <= 0.1
        assert caller.args == ("caller's dt", 4, -0.25, None)
        assert "fd step rule: caller's dt; 4 steps of -0.25" in caller.getMessage()

    def test_trajectory_logs_its_sample_propagator(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="logent"):
            trajectory(E1, cyclic_generator3(), 1.0, 0.5)
        (record,) = [r for r in caplog.records if r.name == "logent"]
        assert record.args[0].startswith("default") and record.args[1:3] == (5, 0.1)

    def test_nothing_logged_above_debug(self, caplog):
        with caplog.at_level(logging.INFO, logger="logent"):
            evolve(E1, cyclic_generator3(), 1.0)
        assert not [r for r in caplog.records if r.name == "logent"]

    def test_cli_output_unchanged_with_debug_logging(self, caplog, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        runner = CliRunner()
        quiet = runner.invoke(main, ["evolve", "fd", "--t-end", "1"])
        with caplog.at_level(logging.DEBUG, logger="logent"):
            loud = runner.invoke(main, ["evolve", "fd", "--t-end", "1"])
        assert quiet.exit_code == loud.exit_code == 0
        assert quiet.output == loud.output


class TestTrajectory:
    def test_single_step_consistency(self):
        g = cyclic_generator3()
        rec = trajectory(E1, g, 0.1, 0.1)
        direct = evolve(E1, g, 0.1)
        assert np.array_equal(rec.states[-1].entries, direct.entries)

    def test_long_run_conservation_n3(self):
        rec = trajectory(E1, cyclic_generator3(), 100.0, 0.1)
        assert rec.probability_drift.max() < 1e-12
        assert rec.information_drift.max() < 1e-10

    def test_long_run_conservation_n8(self):
        g = random_generator(8, seed=21)
        x = np.zeros(8)
        x[0] = 1.0
        rec = trajectory(SignedProbVector(x), g, 100.0, 0.5)
        assert rec.probability_drift.max() < 1e-12
        assert rec.information_drift.max() < 1e-10

    def test_pure_stays_pure(self):
        from logent import StateClass, classify

        rec = trajectory(E1, cyclic_generator3(), 5.0, 0.25)
        for state in rec.states:
            assert classify(state) is StateClass.PURE

    def test_rejects_bad_dt(self):
        with pytest.raises(DomainError):
            trajectory(E1, cyclic_generator3(), 1.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", ["t_end", "dt"])
    def test_non_finite_time_or_step_rejected(self, which, bad):
        args = {"t_end": 1.0, "dt": 0.1, which: bad}
        with pytest.raises(DomainError):
            trajectory(E1, cyclic_generator3(), args["t_end"], args["dt"])

    @pytest.mark.parametrize("n", [3, 200])
    def test_states_match_repeated_evolve_bit_for_bit(self, n):
        g = random_generator(n, seed=11)
        p0 = SignedProbVector(np.eye(n)[0])
        rec = trajectory(p0, g, 1.0, 0.1)
        state = p0
        for sample in rec.states[1:]:
            state = evolve(state, g, 0.1)
            assert np.array_equal(sample.entries, state.entries)
        assert len(rec.states) == 11

    def test_csv_round_trip(self, tmp_path):
        rec = trajectory(E1, cyclic_generator3(), 1.0, 0.1)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(rec, path)
        back = read_trajectory_csv(path)
        # values survive the 15-digit format exactly at that precision
        for orig, rebuilt in zip(rec.states, back["states"]):
            reformatted = [f"{v:.14e}" for v in rebuilt]
            assert reformatted == [f"{v:.14e}" for v in orig.entries]
        assert np.allclose(back["times"], rec.times, atol=1e-14)

    def test_csv_bytes_match_per_row_format(self, tmp_path):
        p0 = SignedProbVector(np.array([1.0, -0.0, 0.0]))
        rec = trajectory(p0, cyclic_generator3(), 1.0, 0.1)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(rec, path)
        rows = "".join(
            ",".join(f"{v:.14e}" for v in [t, *state.entries, pd, idr]) + "\n"
            for t, state, pd, idr in zip(
                rec.times, rec.states, rec.probability_drift, rec.information_drift
            )
        )
        assert path.read_text() == "t,p_0,p_1,p_2,sum_drift,info_drift\n" + rows
        assert "-0.00000000000000e+00" in rows

    @pytest.mark.parametrize(
        "body",
        [
            "0.0,1.0,0.0,0.0,0.0,oops\n",  # non-numeric cell
            "0.0,1.0,0.0,0.0,0.0,0.0\n0.1,0.9,0.1,0.0\n",  # short row
            "0.0,1.0,0.0,0.0,0.0\n0.1,0.9,0.1,0.0,0.0\n",  # every row short
        ],
    )
    def test_malformed_csv_raises_grid_error(self, tmp_path, body):
        path = tmp_path / "traj.csv"
        path.write_text("t,p_0,p_1,p_2,sum_drift,info_drift\n" + body)
        with pytest.raises(GridError):
            read_trajectory_csv(path)

    @pytest.mark.parametrize(
        "args, name",
        [
            (["wigner", "--nx", "32", "--npts", "32", "--t-end", "0.05"], "wigner_diag.csv"),
            (["continuum", "--n", "64", "--samples", "5"], "continuum_diag.csv"),
        ],
    )
    def test_diagnostics_csv_is_not_a_trajectory(self, tmp_path, monkeypatch, args, name):
        # t and three columns: these read back as one-outcome trajectories before
        monkeypatch.chdir(tmp_path)
        res = CliRunner().invoke(main, ["evolve", *args])
        assert res.exit_code == 0, res.output
        with pytest.raises(GridError, match="not a trajectory CSV"):
            read_trajectory_csv(tmp_path / name)

    @pytest.mark.parametrize(
        "header",
        [
            "t,p_0,sum_drift,info_drift",  # one outcome
            "t,p_0,p_2,sum_drift,info_drift",  # an outcome skipped
            "t,p_0,p_1,info_drift,sum_drift",  # drifts swapped
            "time,p_0,p_1,sum_drift,info_drift",
        ],
    )
    def test_header_other_than_the_writers_raises(self, tmp_path, header):
        path = tmp_path / "traj.csv"
        path.write_text(header + "\n" + ",".join(["0.5"] * len(header.split(","))) + "\n")
        with pytest.raises(GridError, match="not a trajectory CSV"):
            read_trajectory_csv(path)


class TestBoundaryValues:
    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_raises(self, rate):
        with pytest.raises(DomainError):
            GeneratorMatrix(cyclic_generator3().upper, rate=rate)

    def test_negative_seed_raises(self):
        with pytest.raises(DomainError):
            random_generator(4, -1)

    @pytest.mark.parametrize("n, seed", [(2.5, 0), (True, 0), (3, None), (3, 1.5), (3, "0")])
    def test_non_integer_size_or_seed_raises(self, n, seed):
        with pytest.raises(DomainError):
            random_generator(n, seed)
