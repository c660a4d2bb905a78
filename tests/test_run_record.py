"""One run record for the three engines, and the continuum run in the library."""

import math
import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest

from logent import (
    DomainError,
    GridError,
    NormalizationError,
    PotentialSpec,
    RunRecord,
    SignedProbVector,
    build_kernel,
    cyclic_generator3,
    density_run,
    evolve_density,
    gaussian_density,
    gaussian_pure_wigner,
    trajectory,
    wigner_run,
)
from logent.densities import _BLOCK_POINTS
from logent.dynamics import write_trajectory_csv
from logent.wigner import write_diagnostics_csv


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def density_case(family="harmonic", coeff=1.0, a=0.0, n=128):
    f0 = gaussian_density(n, 8.0, 1.0, 1.0 / (2.0 * math.sqrt(math.pi)))
    return f0, build_kernel(PotentialSpec(family, (coeff,)).evaluate, a, f0)


class TestRunRecord:
    def test_columns_read_as_attributes(self):
        rec = RunRecord(np.arange(3.0), np.arange(6.0).reshape(3, 2), ("a", "b"))
        np.testing.assert_array_equal(rec.a, [0.0, 2.0, 4.0])
        np.testing.assert_array_equal(rec.b, [1.0, 3.0, 5.0])
        assert rec.states is None
        with pytest.raises(AttributeError):
            rec.c

    @pytest.mark.parametrize("case", ["rows", "columns", "flat", "states"])
    def test_rows_that_do_not_line_up_are_refused(self, case):
        # refused when built, before a CSV writer reshapes or stacks the rows
        columns = ("total_probability", "information", "moment3", "min_value")
        times, diag, states = np.arange(3.0), np.ones((3, 4)), None
        if case == "rows":
            times = np.arange(2.0)
        elif case == "columns":
            diag = np.ones((3, 3))
        elif case == "flat":
            diag = np.ones(12)
        else:
            states = [SignedProbVector(np.array([1.0, 0.0, 0.0]))] * 2
        with pytest.raises(DomainError):
            RunRecord(times, diag, columns, states)

    def test_pickle_round_trip(self):
        rec = RunRecord(np.arange(2.0), np.ones((2, 1)), ("a",))
        back = pickle.loads(pickle.dumps(rec))
        assert same_bits(back.a, rec.a) and back.columns == rec.columns

    def test_every_engine_returns_one(self):
        p0 = SignedProbVector(np.array([1.0, 0.0, 0.0]))
        traj = trajectory(p0, cyclic_generator3(), 1.0, 0.5)
        w0 = gaussian_pure_wigner(16, 16, 8.0, 8.0, 0.4)
        wrec, _ = wigner_run(w0, PotentialSpec.harmonic(1.0), 0.2)
        drec, _ = density_run(*density_case(), 1.0, 3)
        expected = [
            (traj, ("probability_drift", "information_drift")),
            (wrec, ("total_probability", "information", "moment3", "min_value")),
            (drec, ("total_probability", "information", "mode_drift")),
        ]
        for rec, columns in expected:
            assert isinstance(rec, RunRecord)
            assert rec.columns == columns
            assert rec.diagnostics.shape == (len(rec.times), len(columns))
        assert traj.states[0].entries.tolist() == [1.0, 0.0, 0.0]
        assert len(traj.states) == len(traj.times) == 3
        assert wrec.states is None and drec.states is None

    # each writer refuses another engine's record before it creates a file
    def test_diagnostics_writer_refuses_a_trajectory(self, tmp_path):
        rec = trajectory(SignedProbVector(np.array([1.0, 0.0, 0.0])), cyclic_generator3(), 1.0, 0.5)
        with pytest.raises(DomainError, match="not a wigner run record"):
            write_diagnostics_csv(rec, tmp_path / "diag.csv")
        assert not list(tmp_path.iterdir())

    def test_diagnostics_writer_refuses_a_density_run(self, tmp_path):
        rec, _ = density_run(*density_case(), 1.0, 3)
        with pytest.raises(DomainError, match="not a wigner run record"):
            write_diagnostics_csv(rec, tmp_path / "diag.csv")
        assert not list(tmp_path.iterdir())

    def test_trajectory_writer_refuses_a_density_run(self, tmp_path):
        rec, _ = density_run(*density_case(), 1.0, 3)
        with pytest.raises(DomainError, match="not a trajectory run record"):
            write_trajectory_csv(rec, tmp_path / "traj.csv")
        assert not list(tmp_path.iterdir())


class TestDensityRun:
    @pytest.mark.parametrize(
        "family, coeff, a, t_end, samples",
        [
            ("harmonic", 1.0, 0.0, 1.0, 100),
            ("quartic", 0.5, 0.2, 1.0, 7),
            ("linear", 2.0, 0.0, -0.7, 3),
            ("constant", 1.0, 0.0, 0.3, 1),
        ],
    )
    def test_rows_match_the_per_sample_loop_bit_for_bit(self, family, coeff, a, t_end, samples):
        f0, kern = density_case(family, coeff, a)
        rec, final = density_run(f0, kern, t_end, samples)
        spectrum0 = f0.dz * np.abs(np.fft.rfft(f0.values))
        rows = []
        for j in range(1, samples + 1):
            t = t_end * j / samples
            state = evolve_density(f0, kern, t)
            drift = float(np.max(np.abs(state.dz * np.abs(np.fft.rfft(state.values)) - spectrum0)))
            rows.append((t, state.total, state.information, drift))
        assert same_bits(np.column_stack([rec.times, rec.diagnostics]), np.array(rows))
        assert same_bits(final.values, state.values)

    @pytest.mark.parametrize("samples", [0, -3, 2.5])
    def test_bad_sample_count_raises(self, samples):
        with pytest.raises(DomainError, match="samples"):
            density_run(*density_case(n=16), 1.0, samples)

    @pytest.mark.parametrize("t_end", [math.nan, math.inf])
    def test_non_finite_t_end_raises(self, t_end):
        with pytest.raises(DomainError):
            density_run(*density_case(n=16), t_end, 4)


def per_sample_error(f0, kern, times):
    """The message of the first sample at which evolve_density raises."""
    for t in times:
        try:
            evolve_density(f0, kern, t)
        except (GridError, NormalizationError) as exc:
            return type(exc), str(exc)
    raise AssertionError("no sample raised")


class TestBatchedDensityRun:
    """density_run evaluates its samples in blocks of at most _BLOCK_POINTS
    points; across blocks it matches the per-sample evolve_density loop."""

    ROWS = _BLOCK_POINTS // 16  # samples per block at N = 16

    @pytest.mark.parametrize("t_end", [2.0, -1.3])
    def test_rows_across_blocks_match_the_per_sample_loop(self, t_end):
        f0, kern = density_case("quartic", 0.7, 0.3, n=16)
        samples = 3 * self.ROWS + 5
        rec, final = density_run(f0, kern, t_end, samples)
        spectrum0 = f0.dz * np.abs(np.fft.rfft(f0.values))
        rows = np.empty((samples, 4))
        for j in range(1, samples + 1):
            t = t_end * j / samples
            state = evolve_density(f0, kern, t)
            drift = float(np.max(np.abs(state.dz * np.abs(np.fft.rfft(state.values)) - spectrum0)))
            rows[j - 1] = t, state.total, state.information, drift
        assert same_bits(np.column_stack([rec.times, rec.diagnostics]), rows)
        assert same_bits(final.values, state.values)
        assert np.max(np.abs(final.values - f0.values)) > 1e-3  # the state moved

    def test_non_unit_phases_cannot_be_built(self):
        _, kern = density_case(n=16)
        with pytest.raises(DomainError, match="^m_half must be finite and real$"):
            replace(kern, m_half=kern.m_half + 1e-8j)  # mode 0 would decay as exp(-1e-8 t)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the phases overflow to nan
    def test_non_finite_sample_raises_as_evolve_density(self):
        f0, kern = density_case("quartic", 0.7, 0.3, n=16)
        huge = replace(kern, m_half=kern.m_half * 1e300)  # m_half * t overflows
        error, message = per_sample_error(f0, huge, [1e10])
        assert error is GridError
        with pytest.raises(GridError) as info:
            density_run(f0, huge, 1e10, 3)
        assert str(info.value) == message

    def test_overflowing_sample_time_raises_before_numpy(self):
        f0, kern = density_case(n=16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"t_end \* samples = 1e\+308 \* 10 is beyond"):
                density_run(f0, kern, 1e308, 10)
            rec, _ = density_run(f0, kern, 1e307, 10)  # the last time is t_end itself
        assert rec.times[-1] == 1e307

    @pytest.mark.parametrize("t_end", ["1.0", 1j, None])
    def test_non_real_t_end_raises_domain_error(self, t_end):
        with pytest.raises(DomainError, match="t_end"):
            density_run(*density_case(n=16), t_end, 4)
