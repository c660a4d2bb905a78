import json
import math
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from logent import (
    DensityGrid,
    DomainError,
    GeneratorMatrix,
    GridError,
    KernelSpec,
    NormalizationError,
    PotentialSpec,
    SignedProbVector,
    amplitude_bound_check,
    build_kernel,
    density_run,
    evolve,
    evolve_density,
    evolve_density_timestepped,
    gaussian_density,
    omega_constant,
    omega_harmonic,
    omega_linear,
    omega_quartic,
    omega_tabulated,
    uniform_density,
)
from logent.densities import pure_state_residual, read_density_csv, write_density_csv
from oracles import gaussian_information_quad

H = 1.0
SIGMA_PURE = H / (2.0 * math.sqrt(math.pi))


def pure_gaussian(n=1024, length=8.0):
    return gaussian_density(n, length, H, SIGMA_PURE)


class TestDensityGrid:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(GridError):
            DensityGrid(values=np.full(100, 1.0 / 100), z0=0.0, dz=1.0 / 100 * 100 / 100, h=1.0)

    def test_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            DensityGrid(values=np.full(128, 1.0), z0=0.0, dz=1.0, h=1.0)

    def test_uniform_information_floor(self):
        f = uniform_density(256, 4.0, H)
        assert f.information == pytest.approx(H / 4.0, rel=1e-13)
        assert f.information_floor == pytest.approx(H / 4.0, rel=1e-15)

    def test_spike_is_inadmissible(self):
        n, dz = 256, 0.01
        values = np.zeros(n)
        values[40] = 1.0 / dz
        f = DensityGrid(values=values, z0=0.0, dz=dz, h=1.0)
        assert f.information == pytest.approx(100.0, rel=1e-12)
        assert not f.is_admissible

    @pytest.mark.parametrize("field", ["z0", "dz", "h"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, field, bad):
        kwargs = dict(values=np.full(4, 1.0 / 4.0), z0=0.0, dz=1.0, h=1.0)
        kwargs[field] = bad
        with pytest.raises(GridError):
            DensityGrid(**kwargs)


class TestInformation:
    def test_saturating_gaussian(self):
        f = pure_gaussian()
        assert abs(f.information - 1.0) < 1e-9

    def test_double_width_gaussian_closed_form(self):
        # closed form I = h / (2 sigma sqrt(pi)); at sigma = h/sqrt(pi) it is 1/2
        f = gaussian_density(1024, 12.0, H, H / math.sqrt(math.pi))
        assert f.information == pytest.approx(0.5, abs=1e-9)
        assert gaussian_information_quad(H / math.sqrt(math.pi), H) == pytest.approx(
            0.5, abs=1e-10
        )

    def test_sigma_sweep_matches_quadrature_oracle(self):
        for sigma in np.linspace(SIGMA_PURE, 4.0 * H, 9):
            length = max(8.0, 22.0 * sigma)
            f = gaussian_density(2048, length, H, sigma)
            closed = H / (2.0 * sigma * math.sqrt(math.pi))
            assert f.information == pytest.approx(closed, abs=1e-6)
            assert gaussian_information_quad(sigma, H) == pytest.approx(closed, abs=1e-9)

    def test_nonunit_scale_constant(self):
        h = 0.7
        f = gaussian_density(1024, 8.0, h, h / (2.0 * math.sqrt(math.pi)))
        assert f.information == pytest.approx(1.0, abs=1e-9)
        rep = amplitude_bound_check(f)
        assert rep.max_abs == pytest.approx(math.sqrt(2.0) / h, rel=1e-9)


class TestAmplitudeBound:
    def test_saturation(self):
        rep = amplitude_bound_check(pure_gaussian())
        assert rep.satisfied
        assert rep.max_abs * H / math.sqrt(2.0) == pytest.approx(1.0, abs=1e-6)

    def test_wider_gaussian_strictly_below(self):
        rep = amplitude_bound_check(gaussian_density(1024, 12.0, H, H / math.sqrt(math.pi)))
        assert rep.satisfied
        assert rep.max_abs < rep.bound * 0.9

    def test_spike_violates(self):
        values = np.zeros(256)
        values[10] = 100.0
        f = DensityGrid(values=values, z0=0.0, dz=0.01, h=1.0)
        rep = amplitude_bound_check(f)
        assert not rep.satisfied
        assert not f.is_admissible

    def test_bound_ratio_maximal_at_smallest_sigma(self):
        ratios = []
        for sigma in np.linspace(SIGMA_PURE, 4.0 * H, 7):
            f = gaussian_density(2048, max(8.0, 22.0 * sigma), H, sigma)
            rep = amplitude_bound_check(f)
            ratios.append(rep.max_abs * f.h / math.sqrt(2.0 * f.information))
        assert np.argmax(ratios) == 0

    def test_gaussian_needs_enough_domain(self):
        with pytest.raises(GridError):
            gaussian_density(256, 2.0, H, 1.0)


class TestKernel:
    def test_constant_omega_gives_zero_kernel(self):
        f = pure_gaussian(256)
        k = build_kernel(omega_constant(3.7), 0.4, f)
        assert np.all(k.m_hat == 0.0)
        out = evolve_density(f, k, 5.0)
        assert np.allclose(out.values, f.values, atol=1e-15)

    def test_linear_omega_independent_of_offset(self):
        f = pure_gaussian(256)
        alpha = 0.7
        k0 = build_kernel(omega_linear(alpha), 0.0, f)
        k1 = build_kernel(omega_linear(alpha), 1.3, f)
        k2 = build_kernel(omega_linear(alpha), -2.1, f)
        assert np.max(np.abs(k0.m_hat - k1.m_hat)) < 1e-12
        assert np.max(np.abs(k0.m_hat - k2.m_hat)) < 1e-12
        # and the sampled transform is alpha * lambda away from Nyquist
        inner = np.abs(k0.lambdas) < np.abs(k0.lambdas).max()
        assert np.allclose(k0.m_hat[inner], alpha * k0.lambdas[inner], atol=1e-12)

    def test_quadratic_omega_depends_on_offset(self):
        f = pure_gaussian(256)
        k1 = build_kernel(omega_harmonic(1.0), 0.5, f)
        k2 = build_kernel(omega_harmonic(1.0), 1.0, f)
        assert np.max(np.abs(k1.m_hat - k2.m_hat)) > 1e-3
        # quadratic difference identity: mhat = 2 c a lambda
        inner = np.abs(k1.lambdas) < np.abs(k1.lambdas).max()
        assert np.allclose(k1.m_hat[inner], 2.0 * 0.5 * k1.lambdas[inner], atol=1e-10)

    def test_m_hat_is_odd_and_zero_at_origin(self):
        f = pure_gaussian(256)
        k = build_kernel(omega_quartic(0.3), 0.8, f)
        n = k.n
        mirrored = k.m_hat[(-np.arange(n)) % n]
        assert np.max(np.abs(k.m_hat + mirrored)) == 0.0
        assert k.m_hat[0] == 0.0

    @pytest.mark.parametrize("n", [2, 16, 256])
    @pytest.mark.parametrize("a", [0.0, 0.5])
    @pytest.mark.parametrize(
        "family, coeff", [("constant", 1.3), ("linear", 0.7), ("harmonic", 1.0), ("quartic", 0.3)]
    )
    def test_m_hat_is_the_full_table(self, family, coeff, a, n):
        # the kernel samples Omega on k = 0..n/2 alone; its full m_hat equals
        # Omega sampled on every FFT frequency, the negative half included
        f = gaussian_density(n, 8.0, H, SIGMA_PURE) if n > 2 else uniform_density(2, 8.0, H)
        omega = PotentialSpec(family, (coeff,)).evaluate
        k = build_kernel(omega, a, f)
        lambdas = f.h * np.fft.fftfreq(n, d=f.dz)
        full = omega(a + lambdas / 2.0) - omega(a - lambdas / 2.0)
        full[n // 2] = 0.0
        assert np.array_equal(k.m_hat, full)
        assert k.m_half.tobytes() == full[: n // 2 + 1].tobytes()
        assert k.n == n and not k.m_hat.flags.writeable

    def test_real_kernel_odd_antisymmetry(self):
        f = pure_gaussian(256)
        k = build_kernel(omega_harmonic(1.0), 0.5, f)
        m = k.real_kernel
        n = k.n
        assert np.all(m + m[(-np.arange(n)) % n] == 0.0)
        assert m[0] == 0.0 and m[n // 2] == 0.0

    def test_tabulated_omega(self):
        # linear interpolation of a quadratic is off by c dx^2 / 8 per point
        f = pure_gaussian(256)
        xs = np.linspace(-40.0, 40.0, 30001)
        k_tab = build_kernel(omega_tabulated(xs, 0.5 * xs**2), 0.5, f)
        k_ref = build_kernel(omega_harmonic(0.5), 0.5, f)
        assert np.max(np.abs(k_tab.m_hat - k_ref.m_hat)) < 1e-5
        with pytest.raises(DomainError):
            build_kernel(omega_tabulated(xs[:100], 0.5 * xs[:100] ** 2), 0.0, f)

    @pytest.mark.parametrize(
        "family, params",
        [
            ("harmonic", ()),
            ("quartic", (1.0, 2.0)),
            ("tabulated", ()),
            ("tabulated", (np.array([0.0, 2.0, 1.0]), np.array([0.0, 1.0, 5.0]))),
        ],
    )
    def test_direct_construction_is_validated(self, family, params):
        with pytest.raises(DomainError):
            PotentialSpec(family, params)

    def test_non_finite_omega_rejected(self):
        f = pure_gaussian(256)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(DomainError):
                build_kernel(lambda x: 1.0 / np.asarray(x), 0.0, f)

    @pytest.mark.parametrize(
        "omega, message",
        [
            (lambda z: 1.0, "omega must give one value per point"),
            (lambda z: np.ones(3), "omega must give one value per point"),
            (lambda z: "a", "omega values must be finite and real"),
            (lambda z: z * 1j, "omega values must be finite and real"),
        ],
        ids=["scalar", "wrong-length", "string", "complex"],
    )
    def test_omega_values_not_one_real_per_point_are_refused(self, omega, message):
        f = gaussian_density(64, 8.0, 1.0, 0.28209479177387814)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning, and no raw numpy error
            with pytest.raises(DomainError, match=f"^{message}$"):
                build_kernel(omega, 0.0, f)

    def test_omega_values_as_a_list_give_the_bits_of_the_array(self):
        f = pure_gaussian(64)
        omega = omega_quartic(0.7)
        k = build_kernel(lambda z: omega(z).tolist(), 0.5, f)
        assert k.m_hat.tobytes() == build_kernel(omega, 0.5, f).m_hat.tobytes()


class TestSpectralEvolution:
    def test_time_zero_identity(self):
        f = pure_gaussian(256)
        k = build_kernel(omega_harmonic(1.0), 0.5, f)
        out = evolve_density(f, k, 0.0)
        assert np.allclose(out.values, f.values, atol=1e-15)

    def test_unitarity_per_mode(self):
        # mode magnitudes in quadrature scaling (dz * |F_k| <= 1) are frozen
        f = pure_gaussian(512)
        k = build_kernel(omega_harmonic(2.0), 0.7, f)
        s0 = f.dz * np.abs(np.fft.fft(f.values))
        for t in (0.1, 1.0, 10.0):
            out = evolve_density(f, k, t)
            s1 = out.dz * np.abs(np.fft.fft(out.values))
            assert np.max(np.abs(s1 - s0)) < 1e-13

    def test_conservation(self):
        f = pure_gaussian(1024)
        k = build_kernel(omega_harmonic(1.0), 0.5, f)
        out = evolve_density(f, k, 3.0)
        assert abs(out.total - 1.0) < 1e-13
        assert abs(out.information - f.information) < 1e-12

    def test_bound_stays_satisfied_along_evolution(self):
        f = pure_gaussian(512)
        k = build_kernel(omega_harmonic(1.0), 0.8, f)
        for t in np.linspace(0.0, 5.0, 11):
            assert amplitude_bound_check(evolve_density(f, k, t)).satisfied

    def test_grid_mismatch_rejected(self):
        f = pure_gaussian(256)
        g = pure_gaussian(512)
        k = build_kernel(omega_harmonic(1.0), 0.0, f)
        with pytest.raises(GridError):
            evolve_density(g, k, 1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, t):
        f = pure_gaussian(256)
        k = build_kernel(omega_harmonic(1.0), 0.5, f)
        with pytest.raises(DomainError):
            evolve_density(f, k, t)

    @pytest.mark.parametrize("run", [
        lambda f, k: evolve_density(f, k, -1e200),
        lambda f, k: density_run(f, k, 1e200, 3),
    ], ids=["evolve_density", "density_run"])
    def test_overflowing_phase_is_refused_before_any_warning(self, run):
        f = pure_gaussian(64)
        k = build_kernel(omega_quartic(1e200), 0.3, f)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridError, match=r"max\|m_hat\| \* \|t\| = \S+e\+201 \* 1e\+200 is"):
                run(f, k)


class TestHalfSpectrum:
    """The spectral propagator runs on real transforms and half spectra."""

    def test_calls_no_complex_inverse_transform(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.fft.ifft called")

        monkeypatch.setattr(np.fft, "ifft", refuse)
        f = pure_gaussian(256)
        k = build_kernel(PotentialSpec("harmonic", (1.0,)).evaluate, 0.5, f)
        out = evolve_density(f, k, 3.0)
        _, final = density_run(f, k, 3.0, 300)  # two blocks of 256 and 44 samples
        assert np.array_equal(final.values, out.values)
        with pytest.raises(AssertionError):
            np.fft.ifft(np.ones(2))

    @pytest.mark.parametrize("n", [256, 2048])
    @pytest.mark.parametrize(
        "family, coeff", [("constant", 1.0), ("linear", 2.0), ("harmonic", 1.0), ("quartic", 0.3)]
    )
    def test_matches_the_complex_transform_pair(self, family, coeff, n):
        # measured at most 6.7e-16 (3 ulp of 1; max|f| is 1.41) over these cases;
        # the bound is three times that
        f = gaussian_density(n, 8.0, H, SIGMA_PURE, 0.3)
        for a in (-0.6, 0.5):
            k = build_kernel(PotentialSpec(family, (coeff,)).evaluate, a, f)
            for t in (-3.0, 0.7, 3.0):
                ref = np.fft.ifft(np.fft.fft(f.values) * np.exp(1j * k.m_hat * t)).real
                assert np.abs(evolve_density(f, k, t).values - ref).max() <= 2e-15

    @pytest.mark.parametrize(
        "case", ["origin", "nyquist", "short", "two-d", "string", "complex", "nan"]
    )
    def test_kernel_it_cannot_represent_is_refused(self, case):
        # the half spectrum holds only for zero k = 0 and Nyquist samples of a
        # power-of-two grid: a nonzero end sample evolved without notice
        f = gaussian_density(64, 8.0, H, SIGMA_PURE)
        k = build_kernel(omega_quartic(0.5), 0.5, f)
        unit = {"origin": 0, "nyquist": 32}.get(case, 1)
        bad = {
            "short": k.m_half[:-1], "two-d": k.m_half[None, :], "string": "m_half",
            "complex": k.m_half + 1e-8j, "nan": k.m_half + np.eye(1, 33, 3)[0] * math.nan,
        }.get(case, k.m_half + 0.7 * np.eye(1, 33, unit)[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning, and no raw numpy error
            with pytest.raises(DomainError, match="^m_half must"):
                replace(k, m_half=bad)

    @pytest.mark.parametrize("m_half", [[0, 1, 2, 0], [0, 1, 1, 1, 1, 0], [0], []])
    def test_kernel_size_must_be_a_power_of_two(self, m_half):
        # at n = 6 the sine sum's bit mask n - 1 is not (j l) mod n: such a
        # kernel's real_kernel read -0.289 at j = 1, where the sum gives -0.866
        with pytest.raises(DomainError, match=r"^m_half must hold n/2 \+ 1 samples"):
            KernelSpec(m_half=m_half, a=0.0, dz=1.0, h=1.0)

    @pytest.mark.parametrize(
        "field, bad",
        [("a", "junk"), ("a", math.inf), ("h", "x"), ("h", 0.0), ("dz", 0.0), ("dz", -0.1)],
    )
    def test_kernel_scalars_are_checked(self, field, bad):
        # real_kernel divides by dz and multiplies by h: all are checked up front
        k = build_kernel(omega_quartic(0.5), 0.5, pure_gaussian(64))
        with pytest.raises(DomainError, match=f"^{field} must be"):
            replace(k, **{field: bad})

    def test_lambdas_follow_the_grid(self):
        f = pure_gaussian(64)
        k = build_kernel(omega_quartic(0.5), 0.5, f)
        assert k.lambdas.tobytes() == (f.h * np.fft.fftfreq(f.n, d=f.dz)).tobytes()
        for derived in ("lambdas", "n", "m_hat"):  # not fields: worked out from m_half, dz, h
            with pytest.raises(TypeError):
                replace(k, **{derived: None})

    def test_kernel_stores_a_read_only_copy(self):
        f = pure_gaussian(64)
        k = build_kernel(omega_quartic(0.5), 0.5, f)
        given = k.m_half.copy()
        listed, copied = replace(k, m_half=given.tolist()), replace(k, m_half=given)
        given[5] = 9.0
        for kern in (listed, copied):
            assert kern.m_half.tobytes() == k.m_half.tobytes()
            assert kern.m_hat.tobytes() == k.m_hat.tobytes()
            assert not kern.m_half.flags.writeable and not kern.m_hat.flags.writeable


class TestTimesteppedEvolution:
    def test_agrees_with_spectral(self):
        f = pure_gaussian(256)
        k = build_kernel(omega_harmonic(1.0), 0.3, f)
        a = evolve_density(f, k, 0.5)
        b = evolve_density_timestepped(f, k, 0.5, 1e-3)
        assert np.max(np.abs(a.values - b.values)) < 1e-6

    def test_probability_drift_per_step(self):
        f = pure_gaussian(256)
        k = build_kernel(omega_harmonic(1.0), 0.5, f)
        state = f
        for _ in range(20):
            state = evolve_density_timestepped(state, k, 0.01, 0.01)
            assert abs(state.total - 1.0) < 1e-10

    def test_drift_of_a_hundred_circulant_steps_at_n_1024(self):
        """The circulant Cayley power repeats one column's round-off in every
        product, so its drift grows coherently with the step count.  Measured
        (quartic 0.5, a = 0.5, t = 1, dt = 0.01) with one and two OpenBLAS
        threads: total 1.7e-12 to 2.7e-12 and I 2.4e-12 to 5.5e-12 (the dense
        formula gave 1.2e-12 and 2.7e-12); the gates leave a margin of about
        4x.  Linf against the spectral path is the step's truncation error,
        9.22e-7 on both, whose outputs differ by 5.6e-12: far inside 1e-6."""
        f = pure_gaussian(1024)
        k = build_kernel(PotentialSpec.quartic(0.5).evaluate, 0.5, f)
        out = evolve_density_timestepped(f, k, 1.0, 0.01)
        assert abs(out.total - f.total) < 1e-11
        assert abs(out.information - f.information) < 2e-11
        assert np.max(np.abs(out.values - evolve_density(f, k, 1.0).values)) < 1e-6

    def test_memory_of_one_call_at_n_1024(self):
        """The generator reaches cayley_power as a circulant view and the
        circulant branch reads its first column alone, so the one N x N
        array tracemalloc sees is the gathered propagator (LAPACK's copy of
        I - H is allocated outside its view).  Measured peak 8.07 MiB; the
        gate leaves a margin of 1.5x, and a second N x N array (8 MiB) fails
        it: the dense generator with its N x N eye and half peaked at
        32.1 MiB."""
        f = pure_gaussian(1024)
        k = build_kernel(PotentialSpec.quartic(0.5).evaluate, 0.5, f)
        tracemalloc.start()
        try:
            evolve_density_timestepped(f, k, 1.0, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    def test_information_conserved_for_coarse_steps(self):
        # the Cayley step conserves the quadratic invariant for any dt
        f = pure_gaussian(256)
        k = build_kernel(omega_harmonic(1.0), 0.5, f)
        out = evolve_density_timestepped(f, k, 1.0, 0.2)
        assert abs(out.information - f.information) < 1e-11

    def test_rejects_bad_dt(self):
        f = pure_gaussian(256)
        k = build_kernel(omega_harmonic(1.0), 0.5, f)
        with pytest.raises(DomainError):
            evolve_density_timestepped(f, k, 1.0, -0.1)

    def test_rejects_none_dt(self):
        # steps chooses a dt only from a rate, so a missing dt cannot become
        # one Cayley step over all of t
        f = pure_gaussian(64)
        k = build_kernel(omega_harmonic(1.0), 0.5, f)
        with pytest.raises(DomainError):
            evolve_density_timestepped(f, k, 2.0, None)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", ["t", "dt"])
    def test_non_finite_time_or_step_rejected(self, which, bad):
        f = pure_gaussian(64)
        k = build_kernel(omega_harmonic(1.0), 0.5, f)
        args = {"t": 0.1, "dt": 0.01, which: bad}
        with pytest.raises(DomainError):
            evolve_density_timestepped(f, k, args["t"], args["dt"])

    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize(
        "family, coeff, a", [("harmonic", 1.0, 0.0), ("quartic", 0.3, 0.8), ("linear", 2.0, 0.5)]
    )
    def test_is_the_finite_dynamics_of_the_weights(self, family, coeff, a, n):
        """One structure at two levels: the quadrature weights f * dz evolve as a
        signed probability vector under the circulant generator (dz/h) m(i - j).
        With dz a power of two the scaling by dz is exact, so the two agree bit
        for bit."""
        f = gaussian_density(n, 8.0, H, SIGMA_PURE)
        k = build_kernel(PotentialSpec(family, (coeff,)).evaluate, a, f)
        idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
        gen = GeneratorMatrix.from_dense((f.dz / f.h) * k.real_kernel[idx])
        weights = evolve(SignedProbVector(f.values * f.dz), gen, 0.7, dt=0.05)
        ref = evolve_density_timestepped(f, k, 0.7, 0.05)
        assert np.array_equal(weights.entries / f.dz, ref.values)


class TestPureStateResidual:
    def test_saturating_gaussian_satisfies_integral_identity(self):
        f = pure_gaussian(1024)
        assert pure_state_residual(f) < 1e-8

    def test_mixed_gaussian_does_not(self):
        f = gaussian_density(1024, 12.0, H, 2.0 * SIGMA_PURE)
        assert pure_state_residual(f) > 1e-3

    def test_matches_direct_double_sum_off_centre(self):
        # two unequal, off-centre Gaussians: an index slip in the convolution
        # would pair the wrong samples and move the residual
        n, length = 64, 8.0
        z = -length / 2.0 + (length / n) * np.arange(n)
        values = 0.7 * np.exp(-0.5 * ((z - 1.1) / 0.3) ** 2) + 0.3 * np.exp(
            -0.5 * ((z + 0.6) / 0.5) ** 2
        )
        values /= values.sum() * (length / n)
        f = DensityGrid(values=values, z0=-length / 2.0, dz=length / n, h=H)
        conv = np.zeros(n)
        for i in range(n):
            for j in range(n):
                k = 2 * i - j
                if 0 <= k < n:
                    conv[i] += values[j] * values[k]
        direct = float(np.max(np.abs(H * values**2 - 2.0 * f.dz * conv)))
        assert abs(pure_state_residual(f) - direct) < 1e-13
        assert direct > 1e-3


class TestCsvRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        f = pure_gaussian(256)
        path = tmp_path / "grid.csv"
        write_density_csv(f, path)
        back = read_density_csv(path)
        assert np.array_equal(back.values, f.values)
        assert (back.z0, back.dz, back.h, back.n) == (f.z0, f.dz, f.h, f.n)

    def test_bytes_match_per_row_format(self, tmp_path):
        # reference: the per-row f"{v:.16e}" loop and indented sidecar; N spans
        # several write blocks and the values include a negative zero
        f = gaussian_density(16384, 8.0, H, SIGMA_PURE)
        values = f.values.copy()
        values[0] = -0.0
        f = DensityGrid(values=values, z0=f.z0, dz=f.dz, h=f.h)
        path = tmp_path / "grid.csv"
        write_density_csv(f, path)
        rows = "".join(f"{zj:.16e},{fj:.16e}\n" for zj, fj in zip(f.z, f.values))
        assert path.read_text() == "z,f\n" + rows
        meta = {"h": f.h, "dz": f.dz, "z0": f.z0, "N": f.n}
        assert (tmp_path / "grid.csv.meta.json").read_text() == json.dumps(meta, indent=2) + "\n"
        back = read_density_csv(path)
        assert np.array_equal(back.values, f.values)
        assert math.copysign(1.0, back.values[0]) == -1.0

    @pytest.mark.parametrize(
        "csv, meta",
        [
            ("z,f\n0.0,0.25\n1.0,abc\n", None),  # non-numeric cell
            ("z,f\n0.0,0.25\n1.0\n", None),  # short row
            ("z,f\n0.0\n1.0\n", None),  # every row short
            (None, '{"h": 1.0, "dz": 1.0, "z0": 0.0}'),  # missing sidecar key
            (None, "not json"),
            (None, '{"h": 1.0, "dz": "wide", "z0": 0.0, "N": 4}'),  # mistyped value
            ("x,p,w\n", None),  # wrong header
            ("z,f\n" + "9.9,0.25\n" * 4, None),  # z column overwritten
            ("z,f\n-1,0.25\n0,0.25\n1,0.25\n2,0.25\n", None),  # z shifted by one cell
        ],
    )
    def test_malformed_content_raises_grid_error(self, tmp_path, csv, meta):
        path = tmp_path / "grid.csv"
        write_density_csv(uniform_density(4, 4.0, H), path)
        if csv is not None:
            path.write_text(csv)
        if meta is not None:
            (tmp_path / "grid.csv.meta.json").write_text(meta)
        with pytest.raises(GridError):
            read_density_csv(path)

    def test_missing_file_raises_os_error(self, tmp_path):
        with pytest.raises(OSError):
            read_density_csv(tmp_path / "absent.csv")

    @pytest.mark.parametrize("key, value", [("N", 16.9), ("h", "1.0")])
    def test_sidecar_values_are_checked_not_coerced(self, tmp_path, key, value):
        # int() truncated N = 16.9 to 16 and float() read the string "1.0"
        path = tmp_path / "grid.csv"
        write_density_csv(uniform_density(16, 4.0, H), path)
        sidecar = tmp_path / "grid.csv.meta.json"
        meta = json.loads(sidecar.read_text())
        meta[key] = value
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(GridError):
            read_density_csv(path)


class TestGridSize:
    @pytest.mark.parametrize("n", [0, -4])
    def test_non_positive_size_raises_grid_error(self, n):
        with pytest.raises(GridError):
            gaussian_density(n, 8.0, 1.0, 0.3)
        with pytest.raises(GridError):
            uniform_density(n, 8.0, 1.0)

    @pytest.mark.parametrize("length", [0.0, -8.0, math.inf, math.nan])
    def test_bad_length_raises_grid_error(self, length):
        with pytest.raises(GridError):
            uniform_density(16, length, 1.0)


class TestNonFiniteProfile:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: PotentialSpec.harmonic(math.nan),
            lambda: PotentialSpec.harmonic(math.inf),
            lambda: PotentialSpec.constant(math.nan),
            lambda: PotentialSpec.linear(-math.inf),
            lambda: PotentialSpec.quartic(math.inf),
            lambda: PotentialSpec("quartic", (math.inf,)),
            lambda: PotentialSpec.tabulated([0.0, math.nan, 2.0], [0.0, 1.0, 2.0]),
            lambda: PotentialSpec.tabulated([0.0, 1.0, math.inf], [0.0, 1.0, 2.0]),
            lambda: PotentialSpec.tabulated([0.0, 1.0, 2.0], [0.0, math.nan, 2.0]),
            lambda: PotentialSpec.tabulated([0.0, 1.0, 2.0], [0.0, 1.0, -math.inf]),
        ],
    )
    def test_rejected_at_construction(self, make):
        with pytest.raises(DomainError):
            make()

    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda: PotentialSpec.harmonic(math.nan), "omega"),
            (lambda: PotentialSpec.harmonic(1.0, mass=math.inf), "mass"),
            (lambda: PotentialSpec("quartic", (math.nan,)), "the quartic coefficient"),
        ],
        ids=["omega", "mass", "coefficient"],
    )
    def test_message_names_the_argument(self, make, name):
        with pytest.raises(DomainError, match=f"^{name} must be finite and real"):
            make()

    def test_finite_profiles_still_construct(self):
        assert PotentialSpec.harmonic(0.0).params == (0.0,)
        assert PotentialSpec("quartic", (-1e300,)).params == (-1e300,)
        PotentialSpec.tabulated([0.0, 1.0], [0.0, -1e300])


class TestNonNumericProfile:
    """Malformed profile parameters raise DomainError, not a raw TypeError,
    ValueError or OverflowError."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: PotentialSpec("quartic", ("a",)),
            lambda: PotentialSpec("quartic", (None,)),
            lambda: PotentialSpec("quartic", 0.5),
            lambda: PotentialSpec("quartic", (1j,)),
            lambda: PotentialSpec("quartic", (10**400,)),
            lambda: PotentialSpec([], ()),
            lambda: PotentialSpec.tabulated(["a", "b"], [0, 1]),
            lambda: PotentialSpec.tabulated([0.0, 1.0], [0.0, 1j]),
            lambda: PotentialSpec.quartic("a"),
            lambda: PotentialSpec.harmonic(1.0, mass=None),
            lambda: PotentialSpec.harmonic(1e200),
            lambda: omega_quartic("a"),
        ],
    )
    def test_rejected_at_construction(self, make):
        with pytest.raises(DomainError):
            make()

    def test_coefficient_is_stored_as_a_float(self):
        spec = PotentialSpec("quartic", (Fraction(1, 2),))
        assert spec.params == (0.5,) and type(spec.params[0]) is float
        assert spec.evaluate(np.array([2.0])).tolist() == [8.0]


class TestMalformedShapes:
    @pytest.mark.parametrize("values", [np.full((2, 2), 0.25), np.float64(1.0)])
    def test_density_grid_of_the_wrong_rank(self, values):
        with pytest.raises(GridError, match="^values must be one-dimensional"):
            DensityGrid(values=values, z0=0.0, dz=1.0, h=1.0)

    @pytest.mark.parametrize(
        "xs, vs", [([0.0, 1.0, 2.0], [0.0, 1.0]), ([0.0], [1.0]), ([[0.0, 1.0]], [[0.0, 1.0]])]
    )
    def test_tabulated_profile_with_mismatched_tables(self, xs, vs):
        with pytest.raises(DomainError, match="^need matching 1-d tables with at least two samples"):
            PotentialSpec.tabulated(xs, vs)
