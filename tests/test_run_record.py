"""One run record for the three engines, and the continuum run in the library."""

import math
import pickle

import numpy as np
import pytest

from logent import (
    DomainError,
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
        spectrum0 = f0.dz * np.abs(np.fft.fft(f0.values))
        rows = []
        for j in range(1, samples + 1):
            t = t_end * j / samples
            state = evolve_density(f0, kern, t)
            drift = float(np.max(np.abs(state.dz * np.abs(np.fft.fft(state.values)) - spectrum0)))
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
