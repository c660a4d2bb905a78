"""The step rule, the Cayley propagator and the CSV reader shared by the engines."""

import math
import os
import stat
import tracemalloc
import warnings

import numpy as np
import pytest

from logent import (
    DomainError,
    GeneratorMatrix,
    GridError,
    PotentialSpec,
    SignedProbVector,
    WignerGrid,
    build_kernel,
    cyclic_generator3,
    density_run,
    evolve,
    evolve_density_timestepped,
    gaussian_density,
    gaussian_pure_wigner,
    omega_harmonic,
    random_generator,
    trajectory,
    wigner_evolve,
    wigner_run,
)
from logent import _csv, densities, dynamics, wigner
from logent._csv import _BLOCK_CELLS, _BLOCK_ROWS, _cells, read_csv, write_csv
from logent._grid import (
    DEFAULT_STEP_ANGLE, MAX_CAYLEY_REACH, cayley_power, cayley_power_circulant, circulant,
    int_power, odd_difference, odd_sine_sum, phase_table, steps,
)
from logent.densities import read_density_csv, write_density_csv
from logent.dynamics import read_trajectory_csv, write_trajectory_csv
from logent.wigner import read_wigner_csv, write_wigner_csv
from oracles import cayley_power_dense


class TestSteps:
    @pytest.mark.parametrize(
        "t, dt, n",
        [(1.0, 0.25, 4), (-1.0, 0.25, 4), (1.0, 0.3, 4), (0.3, 0.1, 3), (0.1, 1.0, 1)],
    )
    def test_count_is_the_ceiling_of_t_over_dt(self, t, dt, n):
        assert steps(t, dt) == (n, t / n)

    def test_default_dt_advances_the_fastest_phase_by_the_step_angle(self):
        n, step = steps(2.0, rate=7.0)
        assert n == math.ceil(2.0 * 7.0 / DEFAULT_STEP_ANGLE)
        assert abs(step) * 7.0 <= DEFAULT_STEP_ANGLE

    @pytest.mark.parametrize("t", [2.5, -2.5, 1e-300, -1e6])
    def test_zero_rate_takes_one_step(self, t):
        assert steps(t, rate=0.0) == (1, t)

    @pytest.mark.parametrize("t", [1.0, -2.0, 0.0])
    def test_missing_dt_without_a_rate_is_refused(self, t):
        with pytest.raises(DomainError, match="^dt must be finite and real, not None$"):
            steps(t)

    @pytest.mark.parametrize("dt, rate", [(None, 0.0), (None, 3.0), (0.1, 0.0)])
    def test_zero_span_takes_no_step(self, dt, rate):
        assert steps(0.0, dt, rate) == (0, 0.0)

    @pytest.mark.parametrize(
        "t, dt",
        [(math.nan, None), (math.inf, 0.1), (1.0, math.nan), (1.0, math.inf), (1.0, 0.0),
         (1.0, -0.1), (1e300, 1e-300)],
    )
    def test_bad_span_or_step_raises_domain_error(self, t, dt):
        with pytest.raises(DomainError):
            steps(t, dt)

    def test_default_dt_that_overflows_raises_domain_error(self):
        with pytest.raises(DomainError):
            steps(1.0, rate=1e-320)


class TestCayleyPower:
    def test_zero_steps_is_the_identity(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_array_equal(cayley_power(a, 0.3, 0), np.eye(2))

    def test_powers_compose(self):
        a = cyclic_generator3().matrix
        np.testing.assert_allclose(
            cayley_power(a, 0.1, 6), cayley_power(a, 0.1, 2) @ cayley_power(a, 0.1, 4),
            atol=1e-15,
        )

    def test_is_orthogonal_for_a_skew_generator(self):
        a = cyclic_generator3().matrix
        q = cayley_power(a, 0.7, 5)
        np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-14)

    @staticmethod
    def _timestepped(family, a, n):
        """The first column of the generator evolve_density_timestepped
        builds, at the step of t = 0.7 in steps of dt = 0.05."""
        f = gaussian_density(n, 8.0, 1.0, 1.0 / (2.0 * math.sqrt(math.pi)))
        coeff = {"constant": 1.0, "linear": 2.0, "harmonic": 1.0, "quartic": 0.3}[family]
        k = build_kernel(PotentialSpec(family, (coeff,)).evaluate, a, f)
        return (f.dz / f.h) * k.real_kernel, steps(0.7, 0.05)

    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("a", [0.0, 0.5, -0.8])
    @pytest.mark.parametrize("family", ["constant", "linear", "harmonic", "quartic"])
    def test_circulant_matches_the_dense_formula(self, family, a, n):
        # measured worst case 1.1e-14 (quartic, a = -0.8, N = 256, 14 steps);
        # the gate leaves a margin of 4.4x
        col, (n_steps, step) = self._timestepped(family, a, n)
        q = cayley_power_circulant(col, step, n_steps)
        assert np.abs(q - cayley_power_dense(circulant(col), step, n_steps)).max() < 5e-14

    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("a", [0.0, 0.5, -0.8])
    @pytest.mark.parametrize("family", ["constant", "linear", "harmonic", "quartic"])
    def test_read_only_circulant_view_gives_the_bits_of_its_copy(self, family, a, n):
        # neither form writes its input (_propagator hands over a generator's
        # read-only matrix): a read-only circulant view and its read-only first
        # column give the bits of the same calls on writable copies
        col, (n_steps, step) = self._timestepped(family, a, n)
        view = circulant(col)
        assert not view.flags.writeable and not view[:, 0].flags.writeable
        dense = cayley_power(view, step, n_steps)
        assert dense.tobytes() == cayley_power(view.copy(), step, n_steps).tobytes()
        q = cayley_power_circulant(view[:, 0], step, n_steps)
        assert q.tobytes() == cayley_power_circulant(col.copy(), step, n_steps).tobytes()

    def test_circulant_matches_the_dense_formula_for_cyclic3(self):
        # measured 6.9e-15 at 100 steps, under the gate above
        gen = cyclic_generator3().matrix
        diff = cayley_power_circulant(gen[:, 0], 0.1, 100) - cayley_power_dense(gen, 0.1, 100)
        assert np.abs(diff).max() < 5e-14

    @staticmethod
    def _spy(monkeypatch, name):
        """The calls of np.linalg.<name>, one entry each, as it goes on working."""
        calls, real = [], getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *args: calls.append(1) or real(*args))
        return calls

    def test_one_entry_off_circulant_takes_the_dense_formula(self, monkeypatch):
        # row 0 is circulant and one entry below it is not: the dense formula, as for any M
        col, _ = self._timestepped("quartic", 0.5, 16)
        gen = circulant(col).copy()
        gen[5, 3] = np.nextafter(gen[5, 3], math.inf)
        gen[3, 5] = -gen[5, 3]
        n_steps, step = steps(0.7, 0.05)
        powers = self._spy(monkeypatch, "matrix_power")
        q = dynamics._propagator(GeneratorMatrix.from_dense(gen), 0.7, 0.05)
        assert powers == [1]
        assert np.array_equal(q, cayley_power_dense(gen, step, n_steps))

    def test_dense_branch_gives_the_dense_formula_at_the_fd_job(self):
        # evolve fd --generator random --n 200 --seed 11 --dt 0.1: one sample
        # propagator, 12 default steps
        g = random_generator(200, 11)
        want = cayley_power_dense(g.rate * g.matrix, 0.1 / 12, 12)
        assert cayley_power(g.rate * g.matrix, 0.1 / 12, 12).tobytes() == want.tobytes()
        assert dynamics._propagator(g, 0.1, None).tobytes() == want.tobytes()

    @staticmethod
    def _signed_zeros():
        """A from_dense generator whose input holds -0.0 above and below the
        diagonal: two antisymmetric blocks among signed zeros."""
        m = np.where(np.random.default_rng(6).random((6, 6)) < 0.5, 0.0, -0.0)
        m[:3, :3] = random_generator(3, 1).matrix
        m[3:, 3:] = -random_generator(3, 2).matrix
        return GeneratorMatrix.from_dense(m, rate=-1.3)

    RATED = [
        *[pytest.param(lambda r=r: GeneratorMatrix(cyclic_generator3().upper, rate=r), 1.0,
                       id=f"cyclic3-{r:g}") for r in (math.sqrt(3.0) / 3.0, 2.0, -0.7, 1e-200)],
        pytest.param(lambda: random_generator(3, 8, 0.37), 1.0, id="random3-circulant-once-scaled"),
        *[pytest.param(lambda n=n, r=r: random_generator(n, 5, r), 0.1 if n == 200 else 1.0,
                       id=f"random{n}-{r:g}") for n in (4, 20, 200) for r in (1.0, 0.37, -1.3)],
        pytest.param(_signed_zeros, 1.0, id="from-dense-signed-zeros"),
    ]

    @pytest.mark.parametrize("make, t", RATED)
    def test_rate_folded_into_the_step_keeps_the_bits(self, make, t, monkeypatch):
        # _propagator hands every M, circulant or not, with the rate to
        # cayley_power.  The dense call on M and the rate has the bits of the
        # call on rate * M at rate 1 and of the dense formula, whose solve is
        # handed eye -/+ half with every signed zero
        g = make()
        calls, real = [], dynamics.cayley_power
        monkeypatch.setattr(dynamics, "cayley_power", lambda *args: calls.append(args) or real(*args))
        q = dynamics._propagator(g, t, None)
        ((_, step, n, *rate),) = calls
        assert n >= 1 and rate == [g.rate]
        powers, solved = self._spy(monkeypatch, "matrix_power"), []
        solve = np.linalg.solve
        monkeypatch.setattr(
            np.linalg, "solve", lambda *args: solved.append([x.tobytes() for x in args]) or solve(*args))
        dense = cayley_power(g.matrix, step, n, g.rate)
        assert powers == [1]
        eye, half = np.eye(g.n), (step / 2.0) * (g.rate * g.matrix)
        assert solved[0] == [(eye - half).tobytes(), (eye + half).tobytes()]
        want = cayley_power_dense(g.rate * g.matrix, step, n)
        assert dense.tobytes() == cayley_power(g.rate * g.matrix, step, n).tobytes() == want.tobytes()
        assert q.tobytes() == want.tobytes()

    def test_a_generator_circulant_only_once_scaled_takes_the_dense_formula(self, monkeypatch):
        # 0.37 M rounds to a circulant though M is not one: _propagator hands
        # M and the rate to the dense formula, as for any M
        g = random_generator(3, 8, 0.37)
        assert not np.array_equal(g.matrix, circulant(g.matrix[:, 0]))
        assert np.array_equal(g.rate * g.matrix, circulant(g.rate * g.matrix[:, 0]))
        powers = self._spy(monkeypatch, "matrix_power")
        q = dynamics._propagator(g, 1.0, 0.1)
        assert powers == [1]
        assert q.tobytes() == cayley_power_dense(g.rate * g.matrix, *steps(1.0, 0.1)[::-1]).tobytes()

    def test_circulant_takes_no_dense_matrix_power(self, monkeypatch):
        calls = self._spy(monkeypatch, "matrix_power")
        col, (n_steps, step) = self._timestepped("harmonic", 0.5, 64)
        cayley_power_circulant(col, step, n_steps)
        cayley_power_circulant(cyclic_generator3().matrix[:, 0], 0.1, 7)
        assert calls == []
        cayley_power(circulant(col), step, n_steps)  # the dense formula, circulant or not
        assert calls == [1]

    def test_zero_steps_factor_nothing(self, monkeypatch):
        col, _ = self._timestepped("harmonic", 0.5, 64)
        gens = (circulant(col), cyclic_generator3().matrix, random_generator(20, 4).matrix)
        wants = [np.linalg.matrix_power(cayley_power_dense(a, 0.1, 1), 0).tobytes() for a in gens]
        calls = self._spy(monkeypatch, "solve")
        for a, want in zip(gens, wants):
            assert cayley_power(a, 0.0, 0).tobytes() == want
        for a, want in zip(gens[:2], wants):
            assert cayley_power_circulant(a[:, 0], 0.0, 0).tobytes() == want
        assert calls == []

    def test_circulant_needs_every_row(self, monkeypatch):
        # a cyclic circulant plus a 3-cycle on outcomes 1..3: antisymmetric
        # with zero marginals, row 0 is its circulant's and row 2 is not;
        # _propagator takes the dense formula, as for any M
        a = circulant(np.array([0.0, 1.0, 0.0, -1.0])).copy()
        for i, j in ((1, 2), (2, 3), (3, 1)):
            a[i, j] += 0.5
            a[j, i] -= 0.5
        assert np.array_equal(a[0], circulant(a[:, 0])[0])
        n_steps, step = steps(0.3, 0.1)
        powers = self._spy(monkeypatch, "matrix_power")
        q = dynamics._propagator(GeneratorMatrix.from_dense(a), 0.3, 0.1)
        assert powers == [1]
        assert q.tobytes() == cayley_power_dense(a, step, n_steps).tobytes()


class TestExactIdentities:
    """Zero steps and a zero generator give the initial state exactly."""

    P = SignedProbVector(np.array([0.5, 0.3, 0.2]))

    def test_evolve_at_zero_time(self):
        out = evolve(self.P, cyclic_generator3(), 0.0)
        np.testing.assert_array_equal(out.entries, self.P.entries)

    def test_zero_generator_trajectory(self):
        g = GeneratorMatrix(cyclic_generator3().upper, rate=0.0)
        rec = trajectory(self.P, g, 1.0, 0.25)
        for s in rec.states:
            np.testing.assert_array_equal(s.entries, self.P.entries)

    def test_timestepped_density_at_zero_time(self):
        f = gaussian_density(32, 8.0, 1.0, 0.3)
        k = build_kernel(omega_harmonic(1.0), 0.5, f)
        out = evolve_density_timestepped(f, k, 0.0, 0.1)
        np.testing.assert_array_equal(out.values, f.values)


class TestZeroRateWigner:
    """With nx = 2 and a constant potential every grid phase rate is zero."""

    W = WignerGrid(np.full((2, 2), 0.25), x0=0.0, dx=1.0, p0=0.0, dp=1.0, h=1.0, mass=1.0)

    @pytest.mark.parametrize("t", [2.5, -2.5])
    def test_one_step_whatever_the_sign_of_t(self, t):
        rec, final = wigner_run(self.W, PotentialSpec.constant(0.0), t)
        np.testing.assert_array_equal(rec.times, [0.0, t])
        np.testing.assert_array_equal(final.values, self.W.values)
        evolved = wigner_evolve(self.W, PotentialSpec.constant(0.0), t)
        np.testing.assert_array_equal(evolved.values, self.W.values)


class TestStepCap:
    """No run takes more than MAX_STEPS steps; a longer one is a DomainError."""

    def test_cap_is_inclusive(self):
        from logent._grid import MAX_STEPS

        assert steps(float(MAX_STEPS), 1.0) == (MAX_STEPS, 1.0)
        with pytest.raises(DomainError):
            steps(float(MAX_STEPS + 1), 1.0)

    @pytest.mark.parametrize(
        "t, dt, rate", [(1.0, 1e-300, 0.0), (-1.0, 1e-300, 0.0), (1.0, None, 1e302)]
    )
    def test_tiny_step_raises(self, t, dt, rate):
        with pytest.raises(DomainError):
            steps(t, dt, rate)

    def test_engines_refuse_tiny_steps(self):
        p = SignedProbVector(np.array([0.5, 0.3, 0.2]))
        with pytest.raises(DomainError):
            evolve(p, cyclic_generator3(), 1.0, dt=1e-300)
        f = gaussian_density(32, 8.0, 1.0, 0.3)
        with pytest.raises(DomainError):
            evolve_density_timestepped(f, build_kernel(omega_harmonic(1.0), 0.5, f), 1.0, 1e-300)

    def test_cap_bounds_trajectory_samples(self, monkeypatch):
        from logent import _grid

        monkeypatch.setattr(_grid, "MAX_STEPS", 5)
        p = SignedProbVector(np.array([0.5, 0.3, 0.2]))
        assert len(trajectory(p, cyclic_generator3(), 0.5, 0.1).times) == 6
        with pytest.raises(DomainError):
            trajectory(p, cyclic_generator3(), 1.0, 0.1)

    def test_cap_bounds_density_run_samples(self, monkeypatch):
        f = gaussian_density(32, 8.0, 1.0, 0.3)
        k = build_kernel(omega_harmonic(1.0), 0.5, f)
        with pytest.raises(DomainError):  # was a MemoryError from the sample times
            density_run(f, k, 1.0, 10**11)
        monkeypatch.setattr(densities, "MAX_STEPS", 5)
        assert len(density_run(f, k, 1.0, 5)[0].times) == 5
        with pytest.raises(DomainError):
            density_run(f, k, 1.0, 6)


def _density_file(path):
    write_density_csv(gaussian_density(32, 8.0, 1.0, 0.3), path)
    return read_density_csv


def _wigner_file(path):
    write_wigner_csv(gaussian_pure_wigner(8, 8, 8.0, 8.0, 0.3), path)
    return read_wigner_csv


def _trajectory_file(path):
    p = SignedProbVector(np.array([0.5, 0.3, 0.2]))
    write_trajectory_csv(trajectory(p, cyclic_generator3(), 0.2, 0.1), path)
    return read_trajectory_csv


def _ulps(a: np.ndarray, b: np.ndarray) -> int:
    """Largest distance in units in the last place between same-sign floats."""
    return int(np.max(np.abs(a.view(np.int64) - b.view(np.int64))))


class TestIntPower:
    FAMILIES = [("constant", 0), ("linear", 1), ("harmonic", 2), ("quartic", 4)]

    @pytest.mark.parametrize("family, k", FAMILIES)
    def test_bit_identical_to_pow_at_dyadic_points(self, family, k):
        # covers the points x +- l/2 of a 128 x 128 phase-space grid on [-4, 4)^2, h = 1
        x = np.arange(-192, 192) / 16.0
        assert np.array_equal(int_power(x, k), x**k)
        assert np.array_equal(PotentialSpec(family, (0.1,)).evaluate(x), 0.1 * x**k)

    @pytest.mark.parametrize("family, k", FAMILIES)
    def test_within_two_ulp_of_pow_at_random_points(self, family, k):
        x = np.random.default_rng(11).uniform(-10.0, 10.0, 200_000)
        power = int_power(x, k)
        assert np.array_equal(np.signbit(power), np.signbit(x**k))
        assert _ulps(np.abs(power), np.abs(x**k)) <= 2
        c = -0.37  # evaluate is c times the power, whatever its rounding
        assert np.array_equal(PotentialSpec(family, (c,)).evaluate(x), c * power)

    def test_overflowing_quartic_raises_domain_error(self):
        with np.errstate(over="ignore"), pytest.raises(DomainError):
            PotentialSpec.quartic(0.1).evaluate(np.array([0.0, 1e100]))

    @pytest.mark.parametrize("r", [*range(1, 40), 64, 255, 256, 1003])
    def test_products_start_at_the_lowest_set_bit(self, r):
        # bit_length(r) - 1 squarings and popcount(r) - 1 further products:
        # none multiplies by the unit, and the elementwise power keeps its bits
        x = np.random.default_rng(r).uniform(0.5, 1.5, 8)
        products = []

        def counted(a, b):
            products.append(None)
            return a * b

        power = int_power(x, r, counted)
        assert len(products) == r.bit_length() + bin(r).count("1") - 2
        assert np.array_equal(power, int_power(x, r))
        products.clear()
        assert int_power(x, 0, counted, "unit") == "unit" and products == []

    def test_shape_and_negative_zero_kept(self):
        assert int_power(np.zeros((3, 2)), 0).shape == (3, 2)
        assert np.signbit(int_power(np.array([-0.0]), 1))[0]
        assert PotentialSpec.constant(2.5).evaluate(np.zeros(4)).tolist() == [2.5] * 4


class TestPhaseTable:
    def test_cos_and_sin_of_the_broadcast_phase(self):
        rate, angle = np.linspace(-40.0, 40.0, 129), np.linspace(-2.0, 2.0, 7)[:, None]
        table = phase_table(rate, angle)
        theta = rate * angle
        assert table.shape == (7, 129) and table.dtype == complex
        assert np.array_equal(table.real, np.cos(theta))
        assert np.array_equal(table.imag, np.sin(theta))
        assert np.max(np.abs(table - np.exp(1j * theta))) <= 4e-16


_TABLE_XS = np.linspace(-40.0, 40.0, 801)
_PROFILES = [
    PotentialSpec.constant(2.2), PotentialSpec.linear(-1.3), PotentialSpec.harmonic(1.0),
    PotentialSpec("harmonic", (-0.7,)), PotentialSpec.quartic(0.2),
    PotentialSpec.tabulated(_TABLE_XS, 0.3 * _TABLE_XS**2 + np.sin(_TABLE_XS)),
]
_PROFILE_IDS = ["constant", "linear", "harmonic", "harmonic-negative", "quartic", "tabulated"]


class TestOddDifference:
    """odd_difference, the one sampler of the odd kernel, and its three
    callers give the bits of each caller's direct formula, written out here:
    the line kernel's, the momentum-only quadrature's and the kick's."""

    @pytest.mark.parametrize("potential", _PROFILES, ids=_PROFILE_IDS)
    @pytest.mark.parametrize("n, length, h", [(2, 8.0, 1.0), (16, 8.0, 1.0), (64, 6.0, 0.7),
                                              (256, 8.0, 1.3)])
    @pytest.mark.parametrize("a", [0.0, 0.5, -0.8])
    def test_scalar_centre_gives_the_line_kernel_and_quadrature_bits(self, potential, n, length,
                                                                      h, a):
        f = densities.uniform_density(n, length, h)
        lam = h * np.fft.rfftfreq(n, d=f.dz)
        kernel = potential.evaluate(a + lam / 2.0) - potential.evaluate(a - lam / 2.0)
        kernel[-1] = 0.0  # the unpaired Nyquist mode
        got = odd_difference(potential.evaluate, a, h, n, f.dz)
        assert got.tobytes() == kernel.tobytes()
        assert build_kernel(potential.evaluate, a, f).m_half.tobytes() == kernel.tobytes()
        # the quadrature scales the difference and never reads its Nyquist sample
        quadrature = (2.0 * math.pi / h) * (
            potential.evaluate(a + lam / 2.0) - potential.evaluate(a - lam / 2.0)
        )
        got = odd_difference(potential.evaluate, a, h, n, f.dz, 2.0 * math.pi / h)
        assert got[:-1].tobytes() == quadrature[:-1].tobytes() and got[-1] == 0.0
        c, radius = wigner._generator(f, potential, a)
        assert c.tobytes() == (-(2.0 / n) * odd_sine_sum(quadrature)).tobytes()
        assert radius == float(np.abs(quadrature[1:-1]).max(initial=0.0))

    @pytest.mark.parametrize("potential", _PROFILES, ids=_PROFILE_IDS)
    @pytest.mark.parametrize("nx, npts, h", [(16, 16, 1.0), (32, 64, 0.7), (128, 128, 1.3)])
    def test_centre_column_gives_the_kick_bits(self, potential, nx, npts, h):
        w = gaussian_pure_wigner(nx, npts, 8.0, 8.0, h / (2.0 * math.sqrt(math.pi)), h=h)
        lam = w.h * np.fft.rfftfreq(w.npts, d=w.dp)
        x = w.x
        dv = potential.evaluate(x[:, None] + lam[None, :] / 2.0) - potential.evaluate(
            x[:, None] - lam[None, :] / 2.0
        )
        kick = (2.0 * math.pi / w.h) * dv
        kick[:, -1] = 0.0
        got = odd_difference(potential.evaluate, x[:, None], w.h, w.npts, w.dp, 2.0 * math.pi / h)
        assert got.shape == (nx, npts // 2 + 1)
        assert got.tobytes() == kick.tobytes()
        assert wigner._phase_rates(w, potential)[0].tobytes() == kick.tobytes()

    @pytest.mark.parametrize(
        "profile, message",
        [
            (lambda z: 1.0, "omega must give one value per point"),
            (lambda z: np.ones(3), "omega must give one value per point"),
            (lambda z: np.asarray(z)[..., None] * np.ones(2), "omega must give one value per point"),
            (lambda z: "a", "omega values must be finite and real"),
            (lambda z: np.asarray(z) * 1j, "omega values must be finite and real"),
            (lambda z: np.full(np.shape(z), np.inf), "omega values must be finite and real"),
        ],
        ids=["scalar", "wrong-length", "extra-axis", "string", "complex", "inf"],
    )
    @pytest.mark.parametrize("centres", [0.5, np.linspace(-1.0, 1.0, 4)[:, None]],
                             ids=["scalar", "column"])
    def test_profile_values_not_one_finite_real_per_point_are_refused(self, profile, message,
                                                                      centres):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^{message}$"):
                odd_difference(profile, centres, 1.0, 16, 0.5)

    def test_values_of_the_lags_alone_are_refused_for_a_column_of_centres(self):
        def lags_only(z):
            return np.ones(np.shape(z)[-1])

        assert odd_difference(lags_only, 0.5, 1.0, 16, 0.5).shape == (9,)
        with pytest.raises(DomainError, match="^omega must give one value per point$"):
            odd_difference(lags_only, np.zeros((4, 1)), 1.0, 16, 0.5)

    # lags l = 4 * rfftfreq(16, 0.5) = k / 2 up to the Nyquist lag 4: a slope s keeps every
    # profile value s (c +- l/2), |c| <= 0.1, finite for s <= 8.5e307, but s l overflows from
    # l = 3.5 when s > 5.1e307, and the scale 2 pi takes s l past the float range when
    # s > 8.2e306
    @pytest.mark.parametrize("slope, scale", [(8e307, 1.0), (1e307, 2.0 * math.pi)],
                             ids=["difference", "scale"])
    @pytest.mark.parametrize("centres", [0.0, np.array([-0.1, 0.0, 0.1])[:, None]],
                             ids=["scalar", "column"])
    def test_a_difference_beyond_the_float_range_is_refused_without_warning(self, slope, scale,
                                                                            centres):
        profile = PotentialSpec.linear(slope).evaluate
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^the kernel difference is beyond the float"):
                odd_difference(profile, centres, 4.0, 16, 0.5, scale)

    def test_a_difference_beyond_the_float_range_at_the_nyquist_lag_alone_is_zeroed(self):
        # lags 0, 1, 2: the slope 1e308 gives 1e308 at lag 1 and 2e308 at the unpaired Nyquist
        # lag, which no caller reads
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = odd_difference(PotentialSpec.linear(1e308).evaluate, 0.0, 1.0, 4, 0.25)
        assert got.tolist() == [0.0, 1e308, 0.0]


class TestOddSineSum:
    @pytest.mark.parametrize("n", [2, 4, 16, 256])
    @pytest.mark.parametrize("scale", [1.0, -0.25, -(2.0 * 0.7 / 6.0), 3.0])
    def test_scale_gives_the_bits_of_the_scaled_sum(self, n, scale):
        m_half = np.random.default_rng(n).standard_normal(n // 2 + 1)
        s = odd_sine_sum(m_half)
        assert odd_sine_sum(m_half, scale).tobytes() == (scale * s).tobytes()
        assert np.array_equal(s[1:], -s[:0:-1]) and s[0] == 0.0 and s[n // 2] == 0.0

    @pytest.mark.parametrize(
        "m_half, scale",
        [(np.array([0.0, 1e308, 1e308, 1e308, 0.0]), 1.0),  # s_1 = (1 + sqrt 2) 1e308
         (np.array([0.0, -1e308, 1e308, -1e308, 0.0]), 1.0),  # s_3 = -(1 + sqrt 2) 1e308
         (np.array([0.0, 1e308, 0.0]), -2.0)],  # the scale takes s_1 = 1e308 past the range
        ids=["sum", "signed-sum", "scale"],
    )
    def test_a_column_beyond_the_float_range_is_refused_without_warning(self, m_half, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^the odd kernel's real-space column is beyond"):
                odd_sine_sum(m_half, scale)


class TestReadCsv:
    @pytest.mark.parametrize("write", [_density_file, _wigner_file, _trajectory_file])
    @pytest.mark.parametrize("where", ["header", "data"])
    def test_non_utf8_text_raises_grid_error(self, tmp_path, write, where):
        path = tmp_path / "run.csv"
        read = write(path)
        header, data = path.read_bytes().split(b"\n", 1)
        if where == "header":
            path.write_bytes(header + b"\xff\n" + data)
        else:
            path.write_bytes(header + b"\n" + data + b"\xe9\n")
        with pytest.raises(GridError):
            read(path)


class TestNonFiniteRate:
    @pytest.mark.parametrize("rate", [math.inf, math.nan])
    def test_default_dt_refuses_a_non_finite_rate_by_its_name(self, rate):
        with pytest.raises(DomainError, match="^the fastest phase rate must be finite"):
            steps(1.0, rate=rate)
        with pytest.raises(DomainError, match=r"^\|G\|_2 must be finite"):
            steps(1.0, rate=rate, rate_name="|G|_2")

    def test_caller_dt_does_not_read_the_rate(self):
        assert steps(1.0, 0.5, math.inf) == (2, 0.5)


class TestCayleyReach:
    """A step whose reach (step / 2) max|a| exceeds MAX_CAYLEY_REACH is refused."""

    def test_reach_at_the_bound_runs_and_above_it_is_refused(self):
        a = cyclic_generator3().matrix  # max|a| = 1
        step = 2.0 * MAX_CAYLEY_REACH
        q = cayley_power(a, step, 3)
        assert abs(q.sum(axis=0) - 1.0).max() < 1e-13
        for bad in (np.nextafter(step, math.inf), -np.nextafter(step, math.inf), 1e300):
            with pytest.raises(DomainError, match=r"^Cayley step reach \(step / 2\) max\|a\|"):
                cayley_power(a, bad, 3)

    @pytest.mark.parametrize("rate", [-0.7, 3.0, 1e-200])
    @pytest.mark.parametrize("make", [cyclic_generator3, lambda: random_generator(5, 2)])
    def test_reach_reads_the_rate(self, make, rate):
        # |rate| max|a| is max|rate a| to the bit, so the rate folded into the
        # step refuses exactly the steps the scaled generator's call refuses
        a = make().matrix
        a_max = float(np.abs(rate * a).max())
        ok = 2.0 * MAX_CAYLEY_REACH / a_max
        while abs(ok) / 2.0 * a_max > MAX_CAYLEY_REACH:
            ok = np.nextafter(ok, 0.0)
        bad = np.nextafter(ok, math.inf)  # the first step refused
        while abs(bad) / 2.0 * a_max <= MAX_CAYLEY_REACH:
            bad = np.nextafter(bad, math.inf)
        assert cayley_power(a, ok, 2, rate).tobytes() == cayley_power(rate * a, ok, 2).tobytes()
        messages = []
        for args in ((a, bad, 2, rate), (rate * a, bad, 2)):
            with pytest.raises(DomainError, match=r"^Cayley step reach") as info:
                cayley_power(*args)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_circulant_reach_reads_the_first_column(self):
        # the circulant's reach is max|col|, and it refuses what the dense call refuses
        col, _ = TestCayleyPower._timestepped("quartic", 0.5, 64)
        step = 2.0 * MAX_CAYLEY_REACH / float(np.abs(col).max())
        messages = []
        for power, a in ((cayley_power_circulant, col), (cayley_power, circulant(col))):
            with pytest.raises(DomainError, match=repr(float(np.abs(col).max()))) as info:
                power(a, 1.5 * step, 2)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        cayley_power_circulant(col, step, 2)

    def test_both_cayley_engines_refuse_a_coarse_step(self):
        g = GeneratorMatrix(cyclic_generator3().upper, rate=1e8)
        with pytest.raises(DomainError, match=r"\(0.1 / 2\) \* 100000000.0 exceeds 100"):
            evolve(SignedProbVector(np.array([1.0, 0.0, 0.0])), g, 1.0, dt=0.1)
        f = gaussian_density(64, 8.0, 1.0, 1.0 / (2.0 * math.sqrt(math.pi)))
        k = build_kernel(PotentialSpec("harmonic", (1.0,)).evaluate, 0.5, f)
        with pytest.raises(DomainError, match="^Cayley step reach"):
            evolve_density_timestepped(f, k, 1e4, 1e4)


def test_read_grid_refuses_fewer_rows_than_the_sidecar_sizes(tmp_path):
    path = tmp_path / "f.csv"
    read = _density_file(path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    with pytest.raises(GridError, match="row count disagrees with the sidecar sizes"):
        read(path)


def _cell_lines(values, digits: int) -> list:
    """_cells's text of each value, stripped of its NUL padding."""
    cells = _cells(values, digits)
    newlines = np.full((len(cells), 1), ord("\n"), np.uint8)
    return np.hstack([cells, newlines]).tobytes().translate(None, b"\0").decode().splitlines()


def _percent_mismatches(values, digits: int) -> list:
    """(value, _cells's text, "%.{digits-1}e" % value) wherever the two differ."""
    values = np.asarray(values, dtype=float).tolist()
    cell = f"%.{digits - 1}e"
    return [
        (v, got, cell % v) for v, got in zip(values, _cell_lines(values, digits)) if got != cell % v
    ]


def _percent_calls(monkeypatch) -> list:
    """Every value the fallback of _cells formats from now on, in a list."""
    calls, percent = [], _csv._percent

    def recorded(values, digits):
        calls.extend(values.tolist())
        return percent(values, digits)

    monkeypatch.setattr(_csv, "_percent", recorded)
    return calls


class TestCells:
    """_cells against Python's % itself, value for value."""

    ADVERSARIAL = [
        0.0, -0.0,
        1.0 + 2.0**-17,  # 1.00000762939453125: an exact tie at 17 digits
        float(np.nextafter(1e6, 0.0)),  # 999999.99999999988: rounds up to 1e6 at 15 digits
        1e-300, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
        math.nan, math.inf, -math.inf,
    ] + [
        float(x) for e in range(-280, 17) for p10 in [float(f"1e{e}")]
        for x in (np.nextafter(p10, 0.0), p10, np.nextafter(p10, math.inf))
    ]

    @pytest.mark.parametrize("digits", [15, 17])
    def test_seeded_values_match_percent(self, digits, monkeypatch):
        rng = np.random.default_rng(digits)
        bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)  # every binade
        normal = rng.standard_normal(100_000)
        scaled = rng.standard_normal(100_000) * 10.0 ** rng.choice([-60.0, 60.0], 100_000)
        calls = _percent_calls(monkeypatch)
        assert _percent_mismatches(normal, digits) == []
        assert calls == []  # standard normals take the fast path throughout
        assert _percent_mismatches(scaled, digits) == []
        assert _percent_mismatches(bits, digits) == []
        assert np.count_nonzero(np.isfinite(bits)) > 190_000  # nan and inf are 1/2048

    @pytest.mark.parametrize("digits", [15, 17])
    def test_adversarial_values_match_percent(self, digits):
        values = np.array(self.ADVERSARIAL)
        assert _percent_mismatches(values, digits) == []
        assert _percent_mismatches(-values, digits) == []

    def test_ties_and_the_far_range_go_to_the_fallback(self, monkeypatch):
        calls = _percent_calls(monkeypatch)
        values = [1.0 + 2.0**-17, 1e-300, 5e-324, 1e14, math.nan, -math.inf]
        assert _cell_lines(values, 17)[0] == "1.0000076293945312e+00"  # the even neighbour
        assert np.array_equal(calls, values, equal_nan=True)

    def test_evolved_snapshot_and_fd_trajectory_take_the_fast_path(self, tmp_path, monkeypatch):
        sigma = 1.0 / (2.0 * math.sqrt(math.pi))
        w0 = gaussian_pure_wigner(128, 128, 8.0, 8.0, sigma, x_center=0.7)
        w = wigner_evolve(w0, PotentialSpec.harmonic(1.0), 0.1)
        p0 = np.random.default_rng(5).uniform(0.0, 1.0, 200)
        rec = trajectory(SignedProbVector(p0 / p0.sum()), random_generator(200, 5), 1.0, 0.1)
        calls = _percent_calls(monkeypatch)
        write_wigner_csv(w, tmp_path / "snap.csv")
        write_trajectory_csv(rec, tmp_path / "fd.csv")
        assert calls == []
        assert read_wigner_csv(tmp_path / "snap.csv").values.tobytes() == w.values.tobytes()

    def test_snapshot_write_streams_in_blocks(self, tmp_path):
        # measured peak 0.51 MiB for this 512 x 512 snapshot (an 18.4 MB file), 0.56
        # MiB when it builds the kernel's tables: one block of _BLOCK_ROWS rows as a
        # cell matrix, its bytes and their stripped copy; the bound is about twice that
        w = gaussian_pure_wigner(512, 512, 8.0, 8.0, 1.0 / (2.0 * math.sqrt(math.pi)))
        tracemalloc.start()
        try:
            write_wigner_csv(w, tmp_path / "snap.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "snap.csv").stat().st_size > 18 * 10**6
        assert peak < 2**20


def _cells_sizes(monkeypatch) -> list:
    """The size of every array _cells formats from now on, in a list."""
    sizes, cells = [], _csv._cells

    def recorded(values, digits):
        sizes.append(np.size(values))
        return cells(values, digits)

    monkeypatch.setattr(_csv, "_cells", recorded)
    return sizes


class TestWriteCsvCellsCalls:
    """write_csv formats the coordinates with the first block of _BLOCK_ROWS
    rows in one _cells call, then one call per further block."""

    @pytest.mark.parametrize(
        "rows, calls", [(1, 1), (_BLOCK_ROWS, 1), (_BLOCK_ROWS + 1, 2), (5 * _BLOCK_ROWS // 2, 3)]
    )
    def test_one_call_per_block(self, tmp_path, monkeypatch, rows, calls):
        times = np.linspace(0.0, 1.0, rows)
        values = np.random.default_rng(rows).standard_normal((rows, 3))
        sizes = _cells_sizes(monkeypatch)
        write_csv(tmp_path / "f.csv", "t,a,b,c", [times], values, 15)
        blocks = [min(_BLOCK_ROWS, rows - start) for start in range(0, rows, _BLOCK_ROWS)]
        assert len(sizes) == calls
        assert sizes == [rows + 3 * blocks[0]] + [3 * block for block in blocks[1:]]
        text = "".join(",".join("%.14e" % v for v in (t, *row)) + "\n"
                       for t, row in zip(times.tolist(), values.tolist()))
        assert (tmp_path / "f.csv").read_bytes() == ("t,a,b,c\n" + text).encode()

    def test_one_block_lattice_matches_percent_cell_by_cell(self, tmp_path, monkeypatch):
        x, p = -4.0 + 0.125 * np.arange(64), -2.0 + 0.1 * np.arange(32)  # 64 x 32 = _BLOCK_ROWS
        values = np.random.default_rng(6432).standard_normal((64, 32))
        values[0, :4] = 0.0, -0.0, 1e-300, 1.0 + 2.0**-17  # a zero, the fallback's far range, a tie
        sizes = _cells_sizes(monkeypatch)
        write_csv(tmp_path / "w.csv", "x,p,W", [x, p], values, 17)
        assert sizes == [64 + 32 + 64 * 32]
        text = "".join(f"{xi:.16e},{pj:.16e},{values[i, j]:.16e}\n"
                       for i, xi in enumerate(x.tolist()) for j, pj in enumerate(p.tolist()))
        assert (tmp_path / "w.csv").read_bytes() == ("x,p,W\n" + text).encode()


def _loadtxt_csv(path, kind: str):
    """The reference reader: read_csv's np.loadtxt path, which reads every
    file the fast path refuses, on its own."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            fields = fh.readline().strip().split(",")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no data rows
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:  # UnicodeDecodeError is a ValueError
            raise GridError(f"malformed {kind} CSV: {exc}") from exc
    if data.size and data.shape[1] != len(fields):
        raise GridError(f"{kind} CSV rows have {data.shape[1]} cells, header has {len(fields)}")
    return fields, data.reshape(-1, len(fields))


def _outcome(read, path):
    """(fields, shape, bits) of a read, or (error class, message)."""
    try:
        fields, data = read(path, "test")
    except GridError as exc:
        return type(exc), str(exc)
    return fields, data.shape, data.tobytes()


def _fast_reads(monkeypatch) -> list:
    """For every read_csv from now on, whether _values read its body."""
    reads, stream = [], _csv._stream

    def recorded(fh):
        read = stream(fh)
        reads.append(read is not None)
        return read

    monkeypatch.setattr(_csv, "_stream", recorded)
    return reads


def _float_calls(monkeypatch) -> list:
    """Every cell the fallback of _values converts from now on, as bytes."""
    calls, floats = [], _csv._floats

    def recorded(buf, first, sep):
        calls.extend(buf[i:j].tobytes() for i, j in zip(first.tolist(), sep.tolist()))
        return floats(buf, first, sep)

    monkeypatch.setattr(_csv, "_floats", recorded)
    return calls


def _same_bits(path) -> bool:
    _, data = read_csv(path, "test")
    return data.tobytes() == _loadtxt_csv(path, "test")[1].tobytes()


class TestValues:
    """read_csv's fast path, _values, against np.loadtxt, bit for bit."""

    @pytest.mark.parametrize("digits", [15, 17])
    def test_seeded_values_read_back_as_loadtxt(self, digits, tmp_path, monkeypatch):
        rng = np.random.default_rng(digits)  # TestCells' draws
        bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
        normal = rng.standard_normal(100_000)
        scaled = rng.standard_normal(100_000) * 10.0 ** rng.choice([-60.0, 60.0], 100_000)
        values = np.concatenate([bits[np.isfinite(bits)], normal, scaled])
        path = tmp_path / "v.csv"
        write_csv(path, "i,v", [np.arange(values.size, dtype=float)], values, digits)
        reads = _fast_reads(monkeypatch)
        fields, data = read_csv(path, "test")
        assert reads == [True]  # in about 200 blocks, each carrying part of a row on
        assert fields == ["i", "v"]
        assert data.tobytes() == _loadtxt_csv(path, "test")[1].tobytes()
        if digits == 17:  # which read back as the doubles themselves
            assert data[:, 1].tobytes() == values.tobytes()

    @pytest.mark.parametrize("digits", [15, 16, 17])
    def test_adversarial_values_read_back_as_loadtxt(self, digits, tmp_path, monkeypatch):
        values = np.array([v for v in TestCells.ADVERSARIAL if math.isfinite(v)])
        values = np.concatenate([values, -values])
        path = tmp_path / "v.csv"
        write_csv(path, "i,v", [np.arange(values.size, dtype=float)], values, digits)
        reads = _fast_reads(monkeypatch)
        assert _same_bits(path)
        assert reads == [True]

    def test_hand_written_canonical_cells(self, tmp_path, monkeypatch):
        path = tmp_path / "v.csv"
        path.write_text(
            "a,b\n"
            "9.0071992547409930e+15,4.9406564584124654e-324\n"  # 2^53 + 1, a tie; the least subnormal
            "-0.0000000000000000e+00,1.0000076293945312e+00\n"  # 1 + 2^-17 exactly
            "-1.7976931348623157e+308,2.4703282292062328e-324\n"  # the largest double; a tie
        )
        reads = _fast_reads(monkeypatch)
        _, data = read_csv(path, "test")
        assert reads == [True]
        assert data.tobytes() == _loadtxt_csv(path, "test")[1].tobytes()
        assert data[0].tolist() == [2.0**53, 5e-324]  # the tie rounds to even
        assert math.copysign(1.0, data[1, 0]) == -1.0
        assert data[1, 1] == 1.0 + 2.0**-17
        assert data[2].tolist() == [-1.7976931348623157e308, 5e-324]

    def test_ties_and_the_far_tail_go_to_the_fallback(self, tmp_path, monkeypatch):
        cells = [
            b"9.0071992547409930e+15", b"1.0000076293945312e+00",  # a tie; an exact double
            b"1.0000000000000000e-300", b"4.9406564584124654e-324",  # below 1e-280
            b"1.7976931348623157e+308", b"1.2345678901234567e-280",  # above 1e307; at 1e-280
        ]
        path = tmp_path / "v.csv"
        path.write_bytes(b"a,b\n" + b"".join(a + b"," + b + b"\n" for a, b in zip(cells[::2], cells[1::2])))
        calls = _float_calls(monkeypatch)
        assert _same_bits(path)
        assert calls == [cells[0], cells[2], cells[3], cells[4]]

    def test_evolved_snapshot_and_fd_trajectory_take_no_fallback(self, tmp_path, monkeypatch):
        sigma = 1.0 / (2.0 * math.sqrt(math.pi))
        w0 = gaussian_pure_wigner(128, 128, 8.0, 8.0, sigma, x_center=0.7)
        w = wigner_evolve(w0, PotentialSpec.harmonic(1.0), 0.1)
        p0 = np.random.default_rng(5).uniform(0.0, 1.0, 200)
        rec = trajectory(SignedProbVector(p0 / p0.sum()), random_generator(200, 5), 1.0, 0.1)
        write_wigner_csv(w, tmp_path / "snap.csv")
        write_trajectory_csv(rec, tmp_path / "fd.csv")
        reads, calls = _fast_reads(monkeypatch), _float_calls(monkeypatch)
        assert read_wigner_csv(tmp_path / "snap.csv").values.tobytes() == w.values.tobytes()
        states = read_trajectory_csv(tmp_path / "fd.csv")["states"]
        assert reads == [True, True] and calls == []
        assert _same_bits(tmp_path / "snap.csv") and _same_bits(tmp_path / "fd.csv")
        assert states.shape == (11, 200)

    def test_snapshot_read_streams_in_blocks(self, tmp_path):
        # measured peak 8.33 MiB for this 512 x 512 snapshot (an 18.4 MB file): the
        # 6 MiB of data, the grid's 2 MiB copy of its values and one block of
        # _BLOCK_CELLS cells (0.3 MiB); the bound leaves 0.67 MiB, about twice the
        # block.  The reader before _values peaked at 12.3 MiB: two meshgrid copies
        w = gaussian_pure_wigner(512, 512, 8.0, 8.0, 1.0 / (2.0 * math.sqrt(math.pi)))
        write_wigner_csv(w, tmp_path / "snap.csv")
        tracemalloc.start()
        try:
            back = read_wigner_csv(tmp_path / "snap.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.values.tobytes() == w.values.tobytes()
        assert peak < 9 * 2**20


def _canonical(path, rows: int = 3, digits: int = 17) -> bytes:
    """A small CSV that write_csv writes, as bytes."""
    values = np.array([[0.5, -1.0 / 3.0], [1e-5, 2.0], [-0.0, 7e100]])[:rows]
    write_csv(path, "a,b,c", [np.arange(rows) * 0.25], values, digits)
    return path.read_bytes()


class TestReadFallback:
    """A file not in write_csv's own layout goes whole to np.loadtxt: the same
    array, or the same GridError and message, as the reference reader."""

    @staticmethod
    def _variants(text: bytes) -> dict:
        header, body = text.split(b"\n", 1)
        first, rest = body.split(b"\n", 1)
        return {
            "crlf": text.replace(b"\n", b"\r\n"),
            "comment": header + b"\n# note\n" + body,
            "blank line": header + b"\n" + first + b"\n\n" + rest,
            "no final newline": text[:-1],
            "header only": header + b"\n",
            "leading space": header + b"\n " + body,
            "nan": header + b"\n" + body + b"nan,nan,nan\n",
            "inf": header + b"\n" + body + b"1.0000000000000000e+00,inf,-inf\n",
            "non-utf-8": header + b"\n" + first + b"\xe9\n" + rest,
            "hand-edited digit": header + b"\n" + first[:5] + b"x" + first[6:] + b"\n" + rest,
            "plus sign": header + b"\n+" + body,
            "empty cell": header + b"\n" + first.replace(b",", b",,", 1) + b"\n" + rest,
            "exponent sign": header + b"\n" + first.replace(b"e+", b"e/", 1) + b"\n" + rest,
            "point": header + b"\n" + first.replace(b".", b":", 1) + b"\n" + rest,
            "short row": header + b"\n" + body + b"1.0000000000000000e+00\n",
            "long rows": header.replace(b",c", b"") + b"\n" + body,
        }

    @pytest.mark.parametrize("case", [
        "crlf", "comment", "blank line", "no final newline", "header only", "leading space",
        "nan", "inf", "non-utf-8", "hand-edited digit", "plus sign", "empty cell",
        "exponent sign", "point", "short row", "long rows",
    ])
    def test_non_canonical_file_reads_as_the_reference(self, case, tmp_path, monkeypatch):
        path = tmp_path / "f.csv"
        path.write_bytes(self._variants(_canonical(path))[case])
        reads = _fast_reads(monkeypatch)
        got = _outcome(read_csv, path)
        assert reads == [False]
        assert got == _outcome(_loadtxt_csv, path)
        if case == "header only":
            assert got[1] == (0, 3)

    @pytest.mark.parametrize("end", ["no final newline", "bad last cell"])
    def test_late_break_hands_np_loadtxt_the_whole_file(self, end, tmp_path, monkeypatch):
        # 5,120 rows of about 46 bytes: three blocks of about 1,870 rows, the
        # first two parsed before the last is refused
        path, rows = tmp_path / "f.csv", 5 * _BLOCK_ROWS // 2
        write_csv(path, "i,v", [np.arange(rows, dtype=float)], np.linspace(-1.0, 1.0, rows), 17)
        text = path.read_bytes()
        path.write_bytes(text[:-1] if end == "no final newline" else text[:-3] + b"x\n")
        want = _outcome(_loadtxt_csv, path)
        received, loadtxt = [], np.loadtxt

        def counted(*args, **kwargs):  # the rows of each call, None for a refusal
            received.append(None)
            data = loadtxt(*args, **kwargs)
            received[-1] = len(data)
            return data

        monkeypatch.setattr(np, "loadtxt", counted)
        reads = _fast_reads(monkeypatch)
        assert _outcome(read_csv, path) == want
        assert reads == [False]
        if end == "no final newline":  # every row, in one call
            assert received == [rows] and want[1] == (rows, 2)
        else:  # one refusal, naming the whole file's row
            assert received == [None] and f"at row {rows - 1}," in want[1]

    def test_mixed_digit_counts_read_as_the_reference(self, tmp_path, monkeypatch):
        path = tmp_path / "f.csv"
        seventeen, fifteen = _canonical(path, 3, 17), _canonical(path, 3, 15)
        many = tmp_path / "many.csv"  # 15 digits only in the last of several blocks
        write_csv(many, "i,v", [np.arange(3 * _BLOCK_CELLS, dtype=float)],
                  np.ones(3 * _BLOCK_CELLS), 17)
        many.write_bytes(many.read_bytes() + fifteen.split(b"\n", 1)[1].replace(b"0.25", b"1"))
        path.write_bytes(seventeen + fifteen.split(b"\n", 1)[1])
        reads = _fast_reads(monkeypatch)
        for mixed in (path, many):
            assert _outcome(read_csv, mixed) == _outcome(_loadtxt_csv, mixed)
        assert reads == [False, False]


def test_read_csv_opens_each_file_once(tmp_path, monkeypatch):
    # the fast path and the np.loadtxt fallback read from one binary handle
    path, rows = tmp_path / "f.csv", 5 * _BLOCK_ROWS // 2
    write_csv(path, "i,v", [np.arange(rows, dtype=float)], np.linspace(-1.0, 1.0, rows), 17)
    text = path.read_bytes()
    variants = [text, text.replace(b"\n", b"\r\n"), text[:-1], text[:-3] + b"x\n"]
    modes = []

    def counted(file, mode="r", *args, **kwargs):
        modes.append(mode)
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(_csv, "open", counted, raising=False)
    for variant in variants:
        path.write_bytes(variant)
        want = _outcome(_loadtxt_csv, path)
        del modes[:]
        assert _outcome(read_csv, path) == want
        assert modes == ["rb"]


def _series(path, scale: float = 1.0) -> None:
    write_csv(path, "t,v", [np.arange(4.0)], scale * np.linspace(-1.0, 1.0, 4), 15)


def _snapshot(path, scale: float = 1.0) -> None:
    write_density_csv(gaussian_density(32, 8.0 * scale, scale, 0.3), path)  # another sidecar


def _rewritten_in_place(path) -> bool:
    """Write _series's second values over path while holding the old file
    open, so its inode number cannot be reused: whether path is still it.
    The bytes at path are then a fresh write's."""
    with open(path, "rb") as old:
        _series(path, 2.0)
        same = os.path.samestat(os.stat(path), os.fstat(old.fileno()))
    fresh = path.with_name("fresh.csv")
    _series(fresh, 2.0)
    assert path.read_bytes() == fresh.read_bytes()
    return same


class TestCreate:
    """_csv.create replaces a writable regular file that only this process's
    user and group hold, and opens every other path in place."""

    @pytest.mark.parametrize("write", [_series, _snapshot])
    def test_an_open_reader_keeps_the_old_bytes(self, tmp_path, write):
        path, fresh = tmp_path / "out.csv", tmp_path / "fresh.csv"
        write(path)
        names = [path, tmp_path / "out.csv.meta.json"][: 1 + (write is _snapshot)]
        old = [name.read_bytes() for name in names]
        readers = [open(name, "rb") for name in names]
        try:
            write(path, 2.0)
            assert [fh.read() for fh in readers] == old
        finally:
            for fh in readers:
                fh.close()
        write(fresh, 2.0)
        assert path.read_bytes() == fresh.read_bytes() != old[0]
        if write is _snapshot:
            assert names[1].read_bytes() == (tmp_path / "fresh.csv.meta.json").read_bytes()

    def test_a_symlink_is_written_through(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        _series(target)
        link.symlink_to(target)
        assert _rewritten_in_place(link)
        assert link.is_symlink() and os.readlink(link) == str(target)

    def test_a_second_hard_link_is_rewritten_in_place(self, tmp_path):
        path, other = tmp_path / "out.csv", tmp_path / "other.csv"
        _series(path)
        os.link(path, other)
        assert _rewritten_in_place(path)
        assert os.path.samefile(path, other)

    @pytest.mark.parametrize("mode", [0o640, 0o666, 0o600])
    def test_the_permission_bits_are_kept(self, tmp_path, mode):
        path = tmp_path / "out.csv"
        _series(path)
        os.chmod(path, mode)
        assert not _rewritten_in_place(path)
        assert stat.S_IMODE(path.stat().st_mode) == mode  # 0o666 too, past a umask of 022

    def test_a_fifo_is_written_through(self, tmp_path):
        path = tmp_path / "out.fifo"
        os.mkfifo(path)
        reader = os.open(path, os.O_RDONLY | os.O_NONBLOCK)  # the write end then opens at once
        try:
            _series(path)  # about 100 bytes: under any pipe buffer
            got = os.read(reader, 65536)
        finally:
            os.close(reader)
        _series(tmp_path / "fresh.csv")
        assert got == (tmp_path / "fresh.csv").read_bytes()
        assert stat.S_ISFIFO(os.lstat(path).st_mode)

    @pytest.mark.parametrize("refuse", ["unlink", "geteuid"])
    def test_a_refused_unlink_or_no_geteuid_writes_in_place(self, tmp_path, monkeypatch, refuse):
        path = tmp_path / "out.csv"
        _series(path)
        if refuse == "unlink":
            def refused(p):
                raise PermissionError(13, "refused", str(p))

            monkeypatch.setattr(os, "unlink", refused)
        else:
            monkeypatch.delattr(os, "geteuid")
        assert _rewritten_in_place(path)

    def test_a_read_only_file_is_not_unlinked(self, tmp_path):
        path = tmp_path / "out.csv"
        _series(path)
        os.chmod(path, 0o444)
        if os.geteuid() == 0:  # root writes it in place, as open(path, "wb") does
            assert _rewritten_in_place(path)
        else:
            old = path.read_bytes()
            with pytest.raises(PermissionError):
                _series(path, 2.0)
            assert path.read_bytes() == old
        assert stat.S_IMODE(path.stat().st_mode) == 0o444

    @pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() != 0, reason="needs root")
    def test_a_file_of_another_owner_is_not_unlinked(self, tmp_path):
        path = tmp_path / "out.csv"
        _series(path)
        os.chown(path, 4321, 4321)
        assert _rewritten_in_place(path)
        assert (path.stat().st_uid, path.stat().st_gid) == (4321, 4321)
