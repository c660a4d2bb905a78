import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from logent import (
    DomainError,
    GridError,
    PotentialSpec,
    RunRecord,
    WignerGrid,
    build_kernel,
    delta_localized_evolve,
    evolve_density,
    gaussian_density,
    gaussian_pure_wigner,
    higher_moment,
    wigner_evolve,
    wigner_run,
)
from logent import wigner
from logent._csv import _BLOCK_ROWS
from logent.wigner import (
    _generator, _quadrature_column, read_wigner_csv, write_diagnostics_csv, write_wigner_csv,
)
from oracles import (
    circulant_expm_longdouble, phase_rates, rotated_gaussian_wigner, wigner_moment_quad,
)

H = 1.0
MASS = 1.0
SIGMA = H / (2.0 * math.sqrt(math.pi))


def pure_state(nx=128, npts=128, x_center=0.0, p_center=0.0, h=H, mass=MASS):
    return gaussian_pure_wigner(
        nx, npts, 8.0, 8.0, SIGMA, h=h, mass=mass, x_center=x_center, p_center=p_center
    )


def rel_l2(a: np.ndarray, b: np.ndarray, dx: float, dp: float) -> float:
    num = math.sqrt(float(np.sum((a - b) ** 2)) * dx * dp)
    den = math.sqrt(float(np.sum(b**2)) * dx * dp)
    return num / den


class TestWignerGrid:
    def test_normalization_enforced(self):
        with pytest.raises(Exception):
            WignerGrid(
                values=np.ones((16, 16)), x0=0.0, dx=1.0, p0=0.0, dp=1.0, h=1.0, mass=1.0
            )

    def test_gaussian_is_pure(self):
        w = pure_state()
        assert abs(w.information - 1.0) < 1e-6
        assert w.is_admissible

    def test_gaussian_saturates_amplitude_bound(self):
        # peak on a grid point: max w = 2/h
        w = pure_state()
        assert np.max(w.values) * w.h / 2.0 == pytest.approx(1.0, abs=1e-9)
        assert w.amplitude_bound_satisfied

    def test_marginal_over_p(self):
        w = pure_state()
        marginal = w.values.sum(axis=1) * w.dp
        x = w.x
        expected = np.exp(-0.5 * (x / SIGMA) ** 2) / (math.sqrt(2 * math.pi) * SIGMA)
        assert np.max(np.abs(marginal - expected)) < 1e-8

    def test_too_small_domain_rejected(self):
        with pytest.raises(GridError):
            gaussian_pure_wigner(64, 64, 1.0, 8.0, SIGMA, h=H)

    @pytest.mark.parametrize("field", ["x0", "dx", "p0", "dp", "h", "mass"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, field, bad):
        kwargs = dict(
            values=np.full((4, 4), 1.0 / 16.0), x0=0.0, dx=1.0, p0=0.0, dp=1.0, h=1.0, mass=1.0
        )
        kwargs[field] = bad
        with pytest.raises(GridError):
            WignerGrid(**kwargs)

    def test_complex_values_raise_grid_error_without_warning(self):
        # the imaginary part was dropped with a ComplexWarning
        w = pure_state(8, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridError):
                WignerGrid(w.values.astype(complex), w.x0, w.dx, w.p0, w.dp, w.h, w.mass)


class TestHigherMoment:
    def test_purity_is_one(self):
        assert higher_moment(pure_state(), 2) == pytest.approx(1.0, abs=1e-6)

    def test_gaussian_closed_forms(self):
        # h^(r-1) integral(w^r) = 2^(r-1)/r for a minimum-uncertainty Gaussian
        w = pure_state()
        for r in (2, 3, 4):
            assert higher_moment(w, r) == pytest.approx(2 ** (r - 1) / r, abs=1e-6)
            assert higher_moment(w, r) == wigner_moment_quad(w.values, w.dx, w.dp, w.h, r)

    def test_rejects_low_order(self):
        with pytest.raises(DomainError):
            higher_moment(pure_state(), 1)

    @pytest.mark.parametrize("r", [5, 6, 7, 11])
    def test_higher_orders_by_repeated_squaring(self, r):
        w = pure_state()
        assert higher_moment(w, r) == pytest.approx(2 ** (r - 1) / r, abs=1e-6)
        quad = wigner_moment_quad(w.values, w.dx, w.dp, w.h, r)
        assert higher_moment(w, r) == pytest.approx(quad, rel=1e-13)

    @pytest.mark.parametrize("r", range(2, 8))
    def test_same_bits_as_the_inline_squaring_loop(self, r):
        # the loop higher_moment ran before it called int_power
        w = gaussian_pure_wigner(64, 64, 8.0, 8.0, 0.4, h=0.7, x_center=1.1, p_center=-0.3)
        power, square = 1.0, w.values
        for k in range(r.bit_length()):
            if k:
                square = square * square
            if r >> k & 1:
                power = power * square
        expected = float(np.float64(w.h) ** (r - 1.0) * np.sum(power) * w.dx * w.dp)
        assert higher_moment(w, r) == expected

    @pytest.mark.parametrize("r", [10**6, 10**400])
    def test_huge_order_raises_promptly(self, r):
        # h w peaks at 2, so w^(10^6) overflows; 10^400 is beyond the float range
        # and would take 10^400 products one at a time
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                higher_moment(pure_state(), r)


class TestTransportOnly:
    def test_free_streaming_matches_shift(self):
        w0 = pure_state(p_center=0.6)
        t = 0.8
        wt = wigner_evolve(w0, PotentialSpec.constant(0.0), t)
        sp = H / (4 * math.pi * SIGMA)
        x = wt.x[:, None]
        p = wt.p[None, :]
        x_back = (x - p * t / MASS - w0.x0) % (w0.nx * w0.dx) + w0.x0
        ref = np.exp(-0.5 * (x_back / SIGMA) ** 2 - 0.5 * ((p - 0.6) / sp) ** 2) / (
            2 * math.pi * SIGMA * sp
        )
        ref /= ref.sum() * wt.dx * wt.dp
        assert np.max(np.abs(wt.values - ref)) < 1e-10


class TestHarmonicOscillator:
    def test_quarter_period_rotation(self):
        omega = 1.0
        w0 = pure_state(x_center=0.8)
        t = math.pi / (2 * omega)
        wt = wigner_evolve(w0, PotentialSpec.harmonic(omega, mass=MASS), t)
        sp = H / (4 * math.pi * SIGMA)
        oracle = rotated_gaussian_wigner(
            wt.x, wt.p, SIGMA, sp, 0.8, 0.0, MASS, omega, t
        )
        assert rel_l2(wt.values, oracle, wt.dx, wt.dp) < 1e-3

    @pytest.mark.parametrize("t", [0.3, 1.1, 2.9])
    def test_arbitrary_times(self, t):
        omega = 1.3
        w0 = pure_state(x_center=0.6)
        wt = wigner_evolve(w0, PotentialSpec.harmonic(omega, mass=MASS), t)
        sp = H / (4 * math.pi * SIGMA)
        oracle = rotated_gaussian_wigner(wt.x, wt.p, SIGMA, sp, 0.6, 0.0, MASS, omega, t)
        assert rel_l2(wt.values, oracle, wt.dx, wt.dp) < 1e-3

    def test_nonunit_mass_and_h(self):
        h, mass, omega = 0.8, 2.0, 0.9
        sx = 0.25
        w0 = gaussian_pure_wigner(128, 128, 8.0, 8.0, sx, h=h, mass=mass, x_center=0.5)
        t = 1.7
        wt = wigner_evolve(w0, PotentialSpec.harmonic(omega, mass=mass), t)
        sp = h / (4 * math.pi * sx)
        oracle = rotated_gaussian_wigner(wt.x, wt.p, sx, sp, 0.5, 0.0, mass, omega, t)
        assert rel_l2(wt.values, oracle, wt.dx, wt.dp) < 1e-3

    def test_moment3_conserved_by_harmonic_flow(self):
        w0 = pure_state(x_center=0.8)
        rec, _ = wigner_run(w0, PotentialSpec.harmonic(1.0, mass=MASS), 1.0, dt=1e-3)
        rel = np.abs(rec.moment3 - rec.moment3[0]) / abs(rec.moment3[0])
        assert rel.max() < 1e-4


class TestConservation:
    def test_each_substep_conserves_individually(self):
        from oracles import apply_kick as _apply_kick, apply_transport as _apply_transport

        w0 = pure_state(nx=64, npts=64, x_center=0.7)
        kick_rate, transport_rate = phase_rates(w0, PotentialSpec.quartic(0.2))
        area = w0.dx * w0.dp
        for sub, rate in (
            (_apply_kick, kick_rate),
            (_apply_transport, transport_rate),
        ):
            out = sub(w0.values.astype(complex), np.exp(1j * rate * 0.05)).real
            assert abs(float(out.sum()) * area - 1.0) < 1e-13
            assert abs(w0.h * float(np.sum(out**2)) * area - w0.information) < 1e-12

    def test_kick_only_matches_line_density_evolution(self):
        # with transport switched off, each x column evolves exactly like a
        # line density with kernel offset a = x
        from logent import build_kernel, evolve_density
        from logent.densities import DensityGrid
        from oracles import apply_kick as _apply_kick

        w0 = pure_state(nx=64, npts=64, x_center=0.5)
        V = PotentialSpec.harmonic(1.0, mass=MASS)
        kick_rate, _ = phase_rates(w0, V)
        t = 0.4
        kicked = _apply_kick(w0.values.astype(complex), np.exp(1j * kick_rate * t)).real
        j = int(np.argmax(np.abs(w0.values).sum(axis=1)))
        column = w0.values[j]
        norm = column.sum() * w0.dp
        f0 = DensityGrid(values=column / norm, z0=w0.p0, dz=w0.dp, h=w0.h)
        kern = build_kernel(lambda y: 2 * math.pi * V.evaluate(y) / w0.h, w0.x[j], f0)
        expected = evolve_density(f0, kern, t).values * norm
        assert np.max(np.abs(kicked[j] - expected)) < 1e-12

    def test_substeps_conserve(self):
        # one full step conserves both invariants even at deliberately
        # coarse dt (the phase-wrap warning is expected there)
        w0 = pure_state(x_center=0.7)
        for dt in (1e-3, 1e-2, 0.1):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                wt = wigner_evolve(w0, PotentialSpec.quartic(0.1), dt, dt=dt)
            assert abs(wt.total - 1.0) < 1e-12
            assert abs(wt.information - w0.information) < 1e-10

    def test_thousand_step_drift(self):
        w0 = pure_state(x_center=0.9)
        rec, _ = wigner_run(w0, PotentialSpec.quartic(0.1), 1.0, dt=1e-3)
        assert np.max(np.abs(rec.total_probability - rec.total_probability[0])) < 1e-8
        assert np.max(np.abs(rec.information - rec.information[0])) < 1e-8

    def test_quartic_breaks_moment3(self):
        w0 = pure_state(x_center=0.9)
        rec, _ = wigner_run(w0, PotentialSpec.quartic(0.1), 1.0, dt=1e-3)
        rel = abs(rec.moment3[-1] - rec.moment3[0]) / abs(rec.moment3[0])
        assert rel > 1e-3

    def test_quartic_develops_negativity(self):
        w0 = pure_state(x_center=0.9)
        rec, wt = wigner_run(w0, PotentialSpec.quartic(0.1), 1.0, dt=1e-3)
        assert rec.min_value[0] > -1e-12
        assert rec.min_value[-1] < 0.0
        assert np.min(wt.values) < 0.0


class TestMomentumLadder:
    """The paper's central claim through the shipped solver: with transport
    off, each x column of wigner_evolve is the conserving line density of
    evolve_density at kernel offset a = x, with Omega = 2 pi V / h.

    A mass of 1e300 makes every transport phase 1 to the last bit, so the
    fused loop runs kicks only.  Largest measured differences over the three
    potentials (peak 1.92): 6.7e-16 for one Strang step, 1.0e-14 for 50,
    and for the default rule to t = +-0.3 6.1e-14 (the quartic's Yoshida
    steps; the harmonic and linear V take one exact piece, 6.7e-16).  Each
    gate is about ten times its measurement, rounded up to a power of ten.
    """

    @staticmethod
    def columns(w0, potential, t):
        from logent.densities import DensityGrid

        out = np.empty_like(w0.values)
        for j, a in enumerate(w0.x):
            norm = w0.values[j].sum() * w0.dp
            f0 = DensityGrid(values=w0.values[j] / norm, z0=w0.p0, dz=w0.dp, h=w0.h)
            kern = build_kernel(lambda y: 2 * math.pi * potential.evaluate(y) / w0.h, a, f0)
            out[j] = evolve_density(f0, kern, t).values * norm
        return out

    @pytest.mark.parametrize(
        "potential",
        [PotentialSpec.harmonic(1.0), PotentialSpec.quartic(0.1), PotentialSpec.linear(0.7)],
        ids=["harmonic", "quartic", "linear"],
    )
    @pytest.mark.parametrize(
        "t, dt, gate",
        [(1e-3, 1e-3, 1e-14), (0.05, 1e-3, 1e-13), (0.3, None, 1e-12), (-0.3, None, 1e-12)],
        ids=["one-strang", "fifty-strang", "yoshida", "yoshida-backward"],
    )
    def test_columns_match_line_density_evolution(self, potential, t, dt, gate):
        w0 = gaussian_pure_wigner(
            64, 64, 8.0, 8.0, 0.4, h=1.0, mass=1e300, x_center=0.3, p_center=0.2
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no aliasing warning
            wt = wigner_evolve(w0, potential, t, dt=dt)
        expected = self.columns(w0, potential, t)
        assert np.max(np.abs(wt.values - expected)) < gate
        # the kick moves the state, so the agreement is meaningful
        assert np.max(np.abs(expected - w0.values)) > 1e-4


class TestStepControl:
    def test_default_dt_runs(self):
        w0 = pure_state(nx=64, npts=64)
        wt = wigner_evolve(w0, PotentialSpec.harmonic(1.0, mass=MASS), 0.05)
        assert abs(wt.total - 1.0) < 1e-12

    def test_large_dt_warns(self):
        w0 = pure_state(nx=64, npts=64)
        with pytest.warns(UserWarning, match="rad per step"):
            wigner_evolve(w0, PotentialSpec.quartic(1.0), 0.5, dt=0.5)

    @pytest.mark.parametrize("evolve", [wigner_evolve, wigner_run])
    def test_aliasing_warning_points_at_caller(self, evolve):
        w0 = pure_state(nx=64, npts=64)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evolve(w0, PotentialSpec.quartic(1.0), 0.5, dt=0.5)
        assert [c.filename for c in caught] == [__file__]

    @pytest.mark.parametrize("evolve", [wigner_evolve, wigner_run])
    @pytest.mark.parametrize(
        "t, dt",
        [
            (math.nan, 1e-2),
            (math.nan, None),
            (math.inf, 1e-2),
            (-math.inf, None),
            (0.1, math.nan),
            (0.1, math.inf),
            (1.0, 5e-324),  # finite, but t / dt overflows
        ],
    )
    def test_non_finite_time_or_step_rejected(self, evolve, t, dt):
        w0 = pure_state(nx=32, npts=32)
        with pytest.raises(DomainError):
            evolve(w0, PotentialSpec.harmonic(1.0, mass=MASS), t, dt=dt)


class TestFusedLoop:
    """The fused real-FFT loop against an unfused complex K/2 T K/2 composition."""

    @staticmethod
    def unfused(w0, potential, t, n_steps):
        from oracles import apply_kick as _apply_kick, apply_transport as _apply_transport

        kick_rate, transport_rate = phase_rates(w0, potential)
        step = t / n_steps
        kick_half = np.exp(1j * kick_rate * step / 2.0)
        transport = np.exp(1j * transport_rate * step)
        values = w0.values
        for _ in range(n_steps):
            buf = _apply_kick(values.astype(complex), kick_half)
            buf = _apply_transport(buf, transport)
            values = _apply_kick(buf, kick_half).real
        return values

    @pytest.mark.parametrize("n_steps, sign", [(1, 1.0), (2, 1.0), (7, 1.0), (5, -1.0)])
    def test_matches_unfused_composition(self, n_steps, sign):
        w0 = pure_state(nx=64, npts=64, x_center=0.7, p_center=0.3)
        V = PotentialSpec.quartic(0.05)
        dt = 2e-3
        t = sign * n_steps * dt
        evolved = wigner_evolve(w0, V, t, dt=dt)
        rec, final = wigner_run(w0, V, t, dt=dt)
        assert len(rec.times) == n_steps + 1
        assert rec.times[-1] == pytest.approx(t, abs=1e-15)
        reference = self.unfused(w0, V, t, n_steps)
        assert np.max(np.abs(final.values - evolved.values)) < 1e-11
        assert np.max(np.abs(final.values - reference)) < 1e-11
        # the dynamics is nontrivial, so the agreement is meaningful
        assert np.max(np.abs(reference - w0.values)) > 1e-3

    def test_recorded_states_match_unfused_composition(self):
        w0 = pure_state(nx=64, npts=64, x_center=0.7)
        V = PotentialSpec.quartic(0.05)
        rec, _ = wigner_run(w0, V, 6e-3, dt=2e-3)
        for k in range(1, 4):
            ref = self.unfused(w0, V, 2e-3 * k, k)
            info = w0.h * float(np.sum(ref * ref)) * w0.dx * w0.dp
            m3 = w0.h**2 * float(np.sum(ref**3)) * w0.dx * w0.dp
            assert rec.information[k] == pytest.approx(info, abs=1e-12)
            assert rec.moment3[k] == pytest.approx(m3, abs=1e-11)
            assert rec.min_value[k] == pytest.approx(float(ref.min()), abs=1e-11)

    # Non-square grids: the loop's two transposed work arrays, (npts, nx/2+1)
    # and (nx, npts/2+1), coincide in shape only when nx == npts.
    NON_SQUARE = pytest.mark.parametrize("nx, npts, lp", [(64, 32, 8.0), (32, 96, 12.0)])

    @NON_SQUARE
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_non_square_matches_unfused_composition(self, nx, npts, lp, sign):
        w0 = gaussian_pure_wigner(nx, npts, 8.0, lp, SIGMA, x_center=0.7, p_center=0.3)
        V = PotentialSpec.quartic(0.05)
        t = sign * 5 * 2e-3
        evolved = wigner_evolve(w0, V, t, dt=2e-3)
        reference = self.unfused(w0, V, t, 5)
        assert evolved.values.shape == (nx, npts)
        assert np.max(np.abs(evolved.values - reference)) < 1e-11
        assert np.max(np.abs(reference - w0.values)) > 1e-3

    @NON_SQUARE
    def test_non_square_recorded_states_match_unfused_composition(self, nx, npts, lp):
        w0 = gaussian_pure_wigner(nx, npts, 8.0, lp, SIGMA, x_center=0.7)
        V = PotentialSpec.quartic(0.05)
        rec, _ = wigner_run(w0, V, 6e-3, dt=2e-3)
        for k in range(1, 4):
            ref = self.unfused(w0, V, 2e-3 * k, k)
            info = w0.h * float(np.sum(ref * ref)) * w0.dx * w0.dp
            m3 = w0.h**2 * float(np.sum(ref**3)) * w0.dx * w0.dp
            assert rec.total_probability[k] == pytest.approx(1.0, abs=1e-12)
            assert rec.information[k] == pytest.approx(info, abs=1e-12)
            assert rec.moment3[k] == pytest.approx(m3, abs=1e-11)
            assert rec.min_value[k] == pytest.approx(float(ref.min()), abs=1e-11)

    @NON_SQUARE
    @pytest.mark.parametrize(
        "potential, t, rows",
        # rows per nx: Yoshida steps as measured, or 3 pieces of the exact rule
        [(PotentialSpec.quartic(0.05), 0.05, {64: 6, 32: 12}),
         (PotentialSpec.harmonic(1.0, mass=MASS), 2.0, {64: 4, 32: 4})],
        ids=["yoshida", "exact"],
    )
    def test_non_square_run_is_evolve_bit_for_bit(self, nx, npts, lp, potential, t, rows):
        w0 = gaussian_pure_wigner(nx, npts, 8.0, lp, SIGMA, x_center=0.7, p_center=0.3)
        rec, final = wigner_run(w0, potential, t)
        assert len(rec.times) == rows[nx]
        assert final.values.tobytes() == wigner_evolve(w0, potential, t).values.tobytes()

    @pytest.mark.parametrize("nx, npts", [(128, 128), (64, 32), (96, 96)])
    @pytest.mark.parametrize(
        "potential, t, dt",
        [(PotentialSpec.harmonic(1.0, mass=MASS), 1.0, None),
         (PotentialSpec.quartic(0.05), 0.05, 1e-3)],
        ids=["yoshida", "strang"],
    )
    def test_last_record_is_the_final_grid_bit_for_bit(self, nx, npts, potential, t, dt):
        # the recorder integrates as Grid does: a lattice sum, or h times a
        # BLAS dot, times dx, then dp
        w0 = gaussian_pure_wigner(nx, npts, 8.0, 8.0, SIGMA, x_center=0.7, p_center=0.3)
        rec, final = wigner_run(w0, potential, t, dt)
        assert len(rec.times) > 2
        assert rec.total_probability[0] == w0.total and rec.information[0] == w0.information
        assert rec.total_probability[-1] == final.total
        assert rec.information[-1] == final.information

    @pytest.mark.parametrize("nx, npts", [(128, 128), (64, 32)])
    @pytest.mark.parametrize(
        "potential", [PotentialSpec.quartic(0.1), PotentialSpec.harmonic(1.0)],
        ids=["quartic", "harmonic"],
    )
    @pytest.mark.parametrize("x_center", [0.0, 0.7])
    def test_moment3_is_the_recorders_dot(self, nx, npts, potential, x_center):
        # h^2 vdot(v^2, v), then the cell as Grid._integrate applies it, to the
        # bit; higher_moment(., 3) sums v^3 pairwise, so it may differ in the last
        # bits: measured at most 2 ulp over these cases, gated at 4
        w0 = gaussian_pure_wigner(nx, npts, 8.0, 8.0, SIGMA, x_center=x_center)
        rec, final = wigner_run(w0, potential, 0.05, dt=1e-3)
        for row, state in ((0, w0), (-1, final)):
            v = state.values
            assert rec.moment3[row] == w0.h**2 * np.vdot(v * v, v) * w0.dx * w0.dp
            moment = higher_moment(state, 3)
            assert abs(rec.moment3[row] - moment) <= 4 * np.spacing(moment)

    @pytest.mark.parametrize(
        "dt, per_step", [(None, 12), (2e-3, 4)], ids=["yoshida", "strang"]
    )
    def test_real_transform_count(self, monkeypatch, dt, per_step):
        # four real transforms per substep, one into and one out of the p
        # spectrum per run, and for a record one more per recorded step
        calls = []
        for name in ("rfft", "irfft"):
            def counted(*args, _fft=getattr(np.fft, name), **kwargs):
                calls.append(None)
                return _fft(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        w0 = gaussian_pure_wigner(64, 32, 8.0, 8.0, SIGMA, x_center=0.7)
        V = PotentialSpec.quartic(0.05)
        rec, _ = wigner_run(w0, V, 0.1, dt=dt)
        n = len(rec.times) - 1
        assert n > 1
        assert len(calls) == (per_step + 1) * n + 1
        calls.clear()
        wigner_evolve(w0, V, 0.1, dt=dt)
        assert len(calls) == per_step * n + 2
        calls.clear()
        wigner_run(w0, V, 0.0, dt=dt)
        wigner_evolve(w0, V, 0.0, dt=dt)
        assert calls == []

    FAMILIES = pytest.mark.parametrize(
        "potential",
        [
            PotentialSpec.constant(1.3),
            PotentialSpec.linear(0.7),
            PotentialSpec.harmonic(1.1, mass=2.0),
            PotentialSpec.quartic(0.3),
            PotentialSpec.tabulated(np.linspace(-8.0, 8.0, 41), np.sin(np.linspace(-8.0, 8.0, 41))),
        ],
        ids=["constant", "linear", "harmonic", "quartic", "tabulated"],
    )
    SHAPES = pytest.mark.parametrize("nx, npts, lp", [(64, 64, 8.0), (64, 32, 8.0), (32, 96, 12.0)])

    @FAMILIES
    @SHAPES
    def test_oracle_phase_rates_are_exactly_odd(self, potential, nx, npts, lp):
        w0 = gaussian_pure_wigner(nx, npts, 8.0, lp, SIGMA, x_center=0.4)
        kick_rate, transport_rate = phase_rates(w0, potential)
        flip_p = (-np.arange(npts)) % npts
        flip_x = (-np.arange(nx)) % nx
        assert np.array_equal(kick_rate[:, flip_p], -kick_rate)
        assert np.array_equal(transport_rate[flip_x, :], -transport_rate)
        assert not kick_rate[:, npts // 2].any() and not transport_rate[nx // 2].any()

    @FAMILIES
    @SHAPES
    def test_phase_rates_are_the_oracle_halves(self, potential, nx, npts, lp):
        # the engine samples the nonnegative frequencies alone, kick in
        # (x, nu_p) and transport in (p, nu_x) layout, to the oracle's bits
        from logent.wigner import _phase_rates

        w0 = gaussian_pure_wigner(nx, npts, 8.0, lp, SIGMA, x_center=0.4)
        kick_rate, transport_rate = _phase_rates(w0, potential)
        kick_full, transport_full = phase_rates(w0, potential)
        halves = kick_full[:, : npts // 2 + 1], transport_full[: nx // 2 + 1].T
        for rate, half in zip((kick_rate, transport_rate), halves):
            assert rate.shape == half.shape and rate.tobytes() == half.tobytes()
        assert transport_rate.flags.c_contiguous

    def test_run_peak_memory_at_128_squared(self):
        # the rate tables hold half spectra and the record forms v^3 in place of
        # v^2: measured peak 1,583 KiB (one warm-up call first: a first run also
        # allocates the transforms' caches).  The bound leaves 81 KiB, less than
        # the 128 KiB of one more 128^2 float array; the full rate tables and a
        # second record temporary peaked at 1,821 KiB
        w0 = pure_state(x_center=0.7)
        V = PotentialSpec.quartic(0.1)
        wigner_run(w0, V, 0.2)
        tracemalloc.start()
        try:
            wigner_run(w0, V, 0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1664 * 2**10


class TestDeltaLocalized:
    def test_constant_potential_is_identity(self):
        f0 = gaussian_density(256, 8.0, H, SIGMA)
        out = delta_localized_evolve(f0, PotentialSpec.constant(2.2), 0.3, t=4.0)
        assert np.max(np.abs(out.values - f0.values)) < 1e-12

    def test_matches_spectral_path_harmonic(self):
        f0 = gaussian_density(256, 8.0, H, SIGMA)
        V = PotentialSpec.harmonic(1.0, mass=MASS)
        a, t = 0.5, 1.5
        omega = lambda x: 2 * math.pi * V.evaluate(x) / H
        kern = build_kernel(omega, a, f0)
        spectral = evolve_density(f0, kern, t)
        quadrature = delta_localized_evolve(f0, V, a, t)
        assert np.max(np.abs(spectral.values - quadrature.values)) < 1e-6

    def test_matches_spectral_path_nonunit_h(self):
        # pins the h dependence of the phase prefactors, which h = 1 masks
        h = 0.7
        f0 = gaussian_density(256, 8.0, h, h / (2 * math.sqrt(math.pi)))
        V = PotentialSpec.harmonic(1.2, mass=MASS)
        a, t = 0.4, 0.9
        kern = build_kernel(lambda x: 2 * math.pi * V.evaluate(x) / h, a, f0)
        spectral = evolve_density(f0, kern, t)
        quadrature = delta_localized_evolve(f0, V, a, t)
        assert np.max(np.abs(spectral.values - quadrature.values)) < 1e-8
        # the dynamics is nontrivial, so the agreement is meaningful
        assert np.max(np.abs(spectral.values - f0.values)) > 1e-3

    def test_conservation_over_repeated_steps(self):
        f0 = gaussian_density(64, 8.0, H, SIGMA)
        V = PotentialSpec.harmonic(1.0, mass=MASS)
        state = f0
        for _ in range(1000):
            state = delta_localized_evolve(state, V, 0.4, t=1e-3)
        assert abs(state.total - 1.0) < 1e-8
        assert abs(state.information - f0.information) < 1e-8

    def test_pinned_cross_check_round_off(self):
        # quartic Omega = 0.2 x^4 at a = -0.8, t = 7, N = 256: 5.7e-13, where a
        # dense expm of the generator, with each quadrature phase computed as
        # exp(2 pi i d l / N), reached 1.5e-11
        f0 = gaussian_density(256, 8.0, H, SIGMA)
        V = PotentialSpec.quartic(0.2 / (2 * math.pi))
        a, t = -0.8, 7.0
        kern = build_kernel(lambda x: 2 * math.pi * V.evaluate(x) / H, a, f0)
        spectral = evolve_density(f0, kern, t)
        quadrature = delta_localized_evolve(f0, V, a, t)
        assert np.max(np.abs(spectral.values - quadrature.values)) < 3e-12

    def test_refuses_a_product_beyond_its_digits(self):
        f0 = gaussian_density(64, 8.0, H, SIGMA)
        V = PotentialSpec.quartic(1e150 / (2 * math.pi))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = r"t \* \|c\|_1 = 1e\+150 \* \S+e\+151 exceeds 2\*\*53"
            with pytest.raises(DomainError, match=message):
                delta_localized_evolve(f0, V, 0.3, 1e150)


class TestCirculantExponential:
    """The oracle's exponential, taken in the algebra of circulants, against
    a dense expm of the same generator C(c)[i, j] = c[(i - j) % N]."""

    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize(
        "potential",
        [PotentialSpec.constant(2.2), PotentialSpec.linear(1.3), PotentialSpec.harmonic(1.0),
         PotentialSpec.quartic(0.2 / (2 * math.pi))],
        ids=["constant", "linear", "harmonic", "quartic"],
    )
    @pytest.mark.parametrize("a", [0.0, 0.5, -0.8])
    @pytest.mark.parametrize("t", [1.5, -1.5])
    def test_matches_dense_expm(self, n, potential, a, t):
        from logent.wigner import _quadrature_column

        f0 = gaussian_density(n, 8.0, H, SIGMA)
        c = _quadrature_column(f0, potential, a)
        offsets = np.arange(n)
        dense = scipy.linalg.expm(t * c[(offsets[:, None] - offsets[None, :]) % n]) @ f0.values
        out = delta_localized_evolve(f0, potential, a, t)
        # largest measured: 6.3e-13 (quartic, a = -0.8, t = 1.5, N = 256)
        assert np.max(np.abs(out.values - dense)) < 2e-12

    # the benchmark's three continuum families at N = 256 (V = coeff h x^k / (2 pi),
    # t = 1), a quartic at N = 1024, a harmonic run backward and a constant V.  Each
    # count is the degree-16 polynomial's 6 products, the squarings and the product
    # that applies the exponential to the state (a zero generator takes no squaring);
    # the term-by-term series scaled by |c|_1 took 21, 21, 26, 34, 18 and 3
    @pytest.mark.parametrize(
        "n, family, coeff, a, t, count",
        [(256, "linear", 1.0, 0.5, 1.0, 12), (256, "harmonic", 1.25, -0.6, 1.0, 12),
         (256, "quartic", 0.2, 0.8, 1.0, 17), (1024, "quartic", 1.0, 0.5, 1.0, 25),
         (64, "harmonic", 1.0, 0.3, -1.5, 10), (256, "constant", 1.0, 0.0, 1.0, 7)],
    )
    def test_cyclic_product_count(self, monkeypatch, n, family, coeff, a, t, count):
        calls = []
        product = wigner.cyclic
        monkeypatch.setattr(wigner, "cyclic", lambda x, y: calls.append(None) or product(x, y))
        f0 = gaussian_density(n, 8.0, H, SIGMA)
        delta_localized_evolve(f0, PotentialSpec(family, (coeff * H / (2 * math.pi),)), a, t)
        assert len(calls) == count

    @pytest.mark.parametrize("n", [16, 64, 256, 1024])
    @pytest.mark.parametrize(
        "potential",
        [PotentialSpec.constant(2.2), PotentialSpec.linear(1.3), PotentialSpec.harmonic(1.0),
         PotentialSpec.quartic(0.2 / (2 * math.pi)), PotentialSpec.quartic(1.0 / (2 * math.pi))],
        ids=["constant", "linear", "harmonic", "quartic", "quartic1"],
    )
    @pytest.mark.parametrize("a", [0.5, -0.8])
    @pytest.mark.parametrize("t", [1.5, -1.5])
    def test_matches_a_longdouble_exponential(self, n, potential, a, t):
        # the error in units of u |t| max|mhat| (the round-off of the squarings
        # grows with the radius they undo): largest measured 3.6 (N = 1024,
        # quartic1, a = -0.8, t = 1.5), against 11.4 for the term-by-term series
        # scaled by |c|_1; the gate of 8 leaves a margin of 2.2x
        f0 = gaussian_density(n, 8.0, H, SIGMA)
        c, radius = _generator(f0, potential, a)
        want = circulant_expm_longdouble(t * c, f0.values)
        out = delta_localized_evolve(f0, potential, a, t)
        assert np.max(np.abs(out.values - want)) <= 8 * 2.0**-53 * max(1.0, abs(t) * radius)

    @pytest.mark.parametrize("n", [16, 256, 2048])
    @pytest.mark.parametrize(
        "potential",
        [PotentialSpec.constant(2.2), PotentialSpec.linear(1.3), PotentialSpec.harmonic(1.0),
         PotentialSpec.quartic(1.0 / (2 * math.pi))],
        ids=["constant", "linear", "harmonic", "quartic"],
    )
    @pytest.mark.parametrize("a", [0.0, 0.5, -0.8])
    @pytest.mark.parametrize("h", [1.0, 0.7])
    def test_radius_is_the_largest_eigenvalue_modulus(self, n, potential, a, h):
        # C(c) is circulant, so its eigenvalues are the DFT of c, here i mhat_l
        # for 0 < l < N/2 and their conjugates: the oracle's radius bounds them
        # all with no transform.  Largest measured deviation 1.2e-15 of the radius
        f0 = gaussian_density(n, 8.0, h, h / (2.0 * math.sqrt(math.pi)))
        c, radius = _generator(f0, potential, a)
        lam = h * np.fft.rfftfreq(n, d=f0.dz)
        dv = potential.evaluate(a + lam / 2.0) - potential.evaluate(a - lam / 2.0)
        m_half = (2.0 * math.pi / h) * dv
        eig = np.fft.fft(c)
        assert radius == np.abs(m_half[1 : n // 2]).max(initial=0.0)
        assert np.max(np.abs(eig[1 : n // 2] - 1j * m_half[1 : n // 2])) <= 1e-14 * radius
        assert abs(np.abs(eig).max() - radius) <= 1e-14 * radius


class TestOneGenerator:
    """The two real-space oracles realise one generator: the momentum-only
    quadrature's column and the timestepped density oracle's kernel, scaled
    by dz / h, are the same odd sine sum of Omega = 2 pi V / h."""

    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize(
        "potential",
        [PotentialSpec.constant(2.2), PotentialSpec.linear(1.3), PotentialSpec.harmonic(1.0),
         PotentialSpec.quartic(0.2 / (2 * math.pi))],
        ids=["constant", "linear", "harmonic", "quartic"],
    )
    @pytest.mark.parametrize("a", [0.0, 0.5, -0.8])
    @pytest.mark.parametrize("h", [1.0, 0.7])
    def test_column_is_the_scaled_real_kernel(self, n, potential, a, h):
        f0 = gaussian_density(n, 8.0, h, h / (2.0 * math.sqrt(math.pi)))
        c = _quadrature_column(f0, potential, a)
        kern = build_kernel(lambda x: 2 * math.pi * potential.evaluate(x) / h, a, f0)
        kernel = (f0.dz / f0.h) * kern.real_kernel
        assert np.all(c + c[(-np.arange(n)) % n] == 0.0)
        assert c[0] == 0.0 and c[n // 2] == 0.0
        # largest measured: 2.2e-16 (linear, a = 0.5, N = 16, h = 0.7); a sum
        # over a table of the N complex roots of unity against np.sin of each
        # large argument 2 pi j l / N differed by up to 5.6e-15
        assert np.max(np.abs(c - kernel)) <= 1e-15 * np.max(np.abs(c))

    def test_column_peak_memory_at_n_2048(self):
        # measured peak 16.0 MiB: the (N/2 - 1)^2 gathered sines and their
        # index; an N x N complex gather of the roots of unity with its index
        # took 96.1 MiB
        f0 = gaussian_density(2048, 8.0, H, SIGMA)
        tracemalloc.start()
        try:
            _quadrature_column(f0, PotentialSpec.quartic(1.0), 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20


class TestSnapshotIo:
    def test_round_trip(self, tmp_path):
        w = pure_state(nx=32, npts=32)
        path = tmp_path / "snap.csv"
        write_wigner_csv(w, path)
        back = read_wigner_csv(path)
        assert np.array_equal(back.values, w.values)
        assert (back.x0, back.dx, back.p0, back.dp, back.h, back.mass) == (
            w.x0,
            w.dx,
            w.p0,
            w.dp,
            w.h,
            w.mass,
        )

    def test_diagnostics_csv(self, tmp_path):
        w0 = pure_state(nx=32, npts=32)
        rec, _ = wigner_run(w0, PotentialSpec.harmonic(1.0), 0.02, dt=1e-2)
        path = tmp_path / "diag.csv"
        write_diagnostics_csv(rec, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,sum,I,moment3"
        assert len(lines) == len(rec.times) + 1

    def test_snapshot_bytes_match_per_cell_format(self, tmp_path):
        # reference: the per-cell f"{v:.16e}" loop and indented sidecar, on a
        # grid with more rows than one write block and a negative zero
        w = gaussian_pure_wigner(128, 64, 8.0, 8.0, SIGMA, h=H)
        values = w.values.copy()
        values[0, 0] = -0.0
        w = WignerGrid(values=values, x0=w.x0, dx=w.dx, p0=w.p0, dp=w.dp, h=w.h, mass=w.mass)
        path = tmp_path / "snap.csv"
        write_wigner_csv(w, path)
        x, p = w.x, w.p
        rows = "".join(
            f"{x[i]:.16e},{p[j]:.16e},{w.values[i, j]:.16e}\n"
            for i in range(w.nx)
            for j in range(w.npts)
        )
        assert path.read_text() == "x,p,w\n" + rows
        meta = {"x0": w.x0, "dx": w.dx, "p0": w.p0, "dp": w.dp, "h": w.h, "mass": w.mass,
                "Nx": w.nx, "Np": w.npts}
        assert (tmp_path / "snap.csv.meta.json").read_text() == json.dumps(meta, indent=2) + "\n"
        back = read_wigner_csv(path)
        assert np.array_equal(back.values, w.values)
        assert math.copysign(1.0, back.values[0, 0]) == -1.0
        assert back.total == w.total and back.information == w.information

    def test_bytes_match_per_cell_rule_across_write_chunks(self, tmp_path):
        # reference: "%.16e" per cell over the repeated x, tiled p and values
        # columns; 4 x lines of 2 * _BLOCK_ROWS + 2 points, each written in
        # three pieces, holding negative values, -0.0, 1e-300 and values
        # that need all 17 digits (0.1, -1/3, and most of the coordinates)
        nx, npts = 4, 2 * _BLOCK_ROWS + 2
        values = np.random.default_rng(7).standard_normal((nx, npts)) + 1.0
        values[0, :4] = -0.0, 1e-300, 0.1, -1.0 / 3.0
        dp = 2.0 / float(values.sum())
        w = WignerGrid(values, x0=-1.0 / 3.0, dx=0.5, p0=-math.pi, dp=dp, h=0.7, mass=1.3)
        path = tmp_path / "snap.csv"
        write_wigner_csv(w, path)
        columns = np.column_stack([np.repeat(w.x, npts), np.tile(w.p, nx), values.ravel()])
        rows = "".join("%.16e,%.16e,%.16e\n" % tuple(row) for row in columns.tolist())
        assert path.read_text() == "x,p,w\n" + rows
        back = read_wigner_csv(path)
        assert np.array_equal(back.values, values)
        assert np.array_equal(np.signbit(back.values), np.signbit(values))
        assert (back.x0, back.dx, back.p0, back.dp, back.h, back.mass) == (
            w.x0, w.dx, w.p0, w.dp, w.h, w.mass
        )

    def test_diagnostics_bytes_match_per_row_format(self, tmp_path):
        w0 = pure_state(nx=32, npts=32)
        rec, _ = wigner_run(w0, PotentialSpec.harmonic(1.0), 0.05, dt=1e-2)
        path = tmp_path / "diag.csv"
        write_diagnostics_csv(rec, path)
        rows = "".join(
            ",".join(f"{v:.14e}" for v in row) + "\n"
            for row in zip(rec.times, rec.total_probability, rec.information, rec.moment3)
        )
        assert path.read_text() == "t,sum,I,moment3\n" + rows

    def test_diagnostics_of_no_samples_is_the_header_alone(self, tmp_path):
        columns = ("total_probability", "information", "moment3", "min_value")
        path = tmp_path / "diag.csv"
        write_diagnostics_csv(RunRecord(np.array([]), np.empty((0, 4)), columns), path)
        assert path.read_text() == "t,sum,I,moment3\n"

    @pytest.mark.parametrize(
        "csv, meta",
        [
            ("x,p,w\n0,0,0.25\n0,1,zero\n", None),  # non-numeric cell
            ("x,p,w\n0,0,0.25\n0,1\n", None),  # short row
            (None, '{"x0": 0.0, "dx": 1.0, "p0": 0.0, "dp": 1.0, "h": 1.0, "Nx": 4, "Np": 4}'),
            (None, "{"),  # non-JSON sidecar
            (None, '{"x0": 0, "dx": 1, "p0": 0, "dp": 1, "h": 1, "mass": 1, "Nx": -4, "Np": -4}'),
            ("z,f\n", None),  # wrong header
            ("x,p,w\n" + "9.9,-7.7,0.0625\n" * 16, None),  # x and p columns overwritten
            (  # the x column right, the p column overwritten
                "x,p,w\n" + "".join(f"{i},-7.7,0.0625\n" for i in range(4) for _ in range(4)),
                None,
            ),
        ],
    )
    def test_malformed_content_raises_grid_error(self, tmp_path, csv, meta):
        path = tmp_path / "snap.csv"
        uniform = np.full((4, 4), 1.0 / 16.0)
        write_wigner_csv(WignerGrid(uniform, x0=0.0, dx=1.0, p0=0.0, dp=1.0, h=1.0, mass=1.0), path)
        if csv is not None:
            path.write_text(csv)
        if meta is not None:
            (tmp_path / "snap.csv.meta.json").write_text(meta)
        with pytest.raises(GridError):
            read_wigner_csv(path)

    def test_missing_sidecar_raises_os_error(self, tmp_path):
        path = tmp_path / "snap.csv"
        path.write_text("x,p,w\n")
        with pytest.raises(OSError):
            read_wigner_csv(path)


class TestGridSize:
    @pytest.mark.parametrize("nx, npts", [(0, 8), (8, 0), (-2, 8)])
    def test_non_positive_size_raises_grid_error(self, nx, npts):
        with pytest.raises(GridError):
            gaussian_pure_wigner(nx, npts, 8.0, 8.0, SIGMA)

    @pytest.mark.parametrize("kwargs", [{"h": 0.0}, {"h": -math.inf}])
    def test_zero_momentum_width_raises_grid_error(self, kwargs):
        with pytest.raises(GridError):
            gaussian_pure_wigner(8, 8, 8.0, 8.0, SIGMA, **kwargs)


class TestDeltaLocalizedTime:
    class _CountingProfile:
        """A zero profile that counts its evaluations."""

        calls = 0

        def evaluate(self, x):
            self.calls += 1
            return np.zeros_like(np.asarray(x, dtype=float))

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_t_raises_before_any_work(self, t):
        f = gaussian_density(16, 8.0, H, 0.3)
        profile = self._CountingProfile()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="t must be finite"):
                delta_localized_evolve(f, profile, 0.5, t)
        assert profile.calls == 0

    def test_zero_time_still_returns_the_state(self):
        f = gaussian_density(16, 8.0, H, 0.3)
        out = delta_localized_evolve(f, PotentialSpec.harmonic(1.0), 0.5, 0.0)
        np.testing.assert_array_equal(out.values, f.values)


class TestMalformedGrid:
    @pytest.mark.parametrize("values", [np.full(16, 1.0 / 16), np.full((2, 2, 4), 1.0 / 16)])
    def test_wrong_rank(self, values):
        with pytest.raises(GridError, match="^values must be a 2-d array"):
            WignerGrid(values=values, x0=0.0, dx=1.0, p0=0.0, dp=1.0, h=1.0, mass=1.0)

    @pytest.mark.parametrize("shape", [(3, 4), (4, 3)])
    def test_odd_size(self, shape):
        values = np.full(shape, 1.0 / 12)
        with pytest.raises(GridError, match="^grid sizes must be even"):
            WignerGrid(values=values, x0=0.0, dx=1.0, p0=0.0, dp=1.0, h=1.0, mass=1.0)
