"""Line densities, their quadratic entropy, and norm-conserving evolution.

A density f(z) >= 0 is sampled on a uniform periodic grid of N points (N a
power of two) with quadrature sum(f) * dz = 1.  A scale constant h with the
dimensions of z makes the information I = h * integral(f^2 dz) dimensionless;
the entropy is S = 1 - I.  Pure states have I = 1 and obey the peakedness
bound max|f| <= sqrt(2)/h, saturated by the Gaussian of width
sigma = h / (2 sqrt(pi)); mixed states satisfy max|f| <= sqrt(2 I)/h.

Evolution that conserves both integral(f dz) and I is generated by an odd
convolution kernel m(z - z'):

    df/dt = (1/h) * integral( m(z - z') f(z') dz' ).

Writing m through its transform, m(zeta) = i * integral( mhat(lambda) *
exp(2 pi i zeta lambda / h) dlambda ) with mhat odd, and representing the
odd transform as a difference of a single frequency function,
mhat(lambda) = Omega(a + lambda/2) - Omega(a - lambda/2), the dynamics is
diagonal in the Fourier basis: mode k advances by the phase
exp(i * mhat(lambda_k) * t) with lambda_k = k h / L.  Every mode magnitude
is constant, so both invariants are conserved exactly.  Omega comes from
PotentialSpec, the profile registry that also gives the phase-space potential
V: with Omega = 2 pi V / h this evolution is the momentum evolution of a
position-localized Wigner state.

The propagator runs on real transforms and half spectra: mhat is odd with a
zero Nyquist sample, so KernelSpec stores it on k = 0..N/2 alone, the phases
exp(i mhat_k t) of modes k and N - k are complex conjugates, and the
propagated spectrum of a real density stays Hermitian.  One rfft, the N/2 + 1
phases of m_half and one irfft give the evolved density exactly real, with
nothing to discard.  The phases are _grid.phase_table's, the cos and sin of
the real phase mhat_k t, as the split step builds its tables.  density_run
samples the propagator at many times and evaluates its samples in batched
real transform pairs of at most 2**16 points (samples x N) each, bit for
bit as evolve_density evaluates one time.

Two discretizations of the same dynamics are provided: the spectral
propagator (exact phases) and a real-space quadrature of the convolution
stepped with the implicit midpoint rule, kept free of any shared evolution
code so the pair can cross-validate.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ._grid import (
    MAX_STEPS, QUAD_TOL, Grid, RunRecord, cayley_power_circulant, check_wrap, count, finite,
    int_power, odd_difference, odd_sine_sum, phase_table, positive, read_grid, real_array,
    spacing, steps, write_grid,
)
from .errors import DomainError, GridError


_BLOCK_POINTS = 2**16  # samples x N that density_run evaluates per transform pair


@dataclass(frozen=True, eq=False)
class DensityGrid(Grid):
    """Uniform periodic sampling of a normalized density, plus the scale h.

    values[j] approximates f(z0 + j dz); the domain has period L = N dz.
    Quadrature normalization sum(values) * dz = 1 is enforced within 1e-9;
    z0, dz and h must be finite and dz, h positive.  Grids with I > 1 are
    representable but flagged inadmissible.  The floor I >= h/L needs no
    check: Cauchy-Schwarz and the 1e-9 sum tolerance keep I >= (h/L)(1 - 2e-9).
    """

    values: np.ndarray
    z0: float
    dz: float
    h: float

    _SCALARS = {"h": positive, "dz": positive, "z0": finite}
    _AXES = (("z0", "dz"),)
    _HEADER, _SIZES = "z,f", ("N",)

    def _check_shape(self, arr):
        if arr.ndim != 1:
            raise GridError("values must be one-dimensional")
        if arr.size < 2 or arr.size & (arr.size - 1):
            raise GridError(f"N = {arr.size} is not a power of two")

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def length(self) -> float:
        return self.n * self.dz

    @property
    def z(self) -> np.ndarray:
        return self.axis(0)

    @property
    def information_floor(self) -> float:
        """Uniform-density information h/L, the grid analog of 1/n."""
        return self.h / self.length


@dataclass(frozen=True)
class BoundReport:
    max_abs: float
    bound: float
    satisfied: bool


def amplitude_bound_check(f: DensityGrid) -> BoundReport:
    """Compare max|f| against the peakedness bound sqrt(2 I)/h."""
    max_abs = float(np.max(np.abs(f.values)))
    bound = math.sqrt(2.0 * f.information) / f.h
    return BoundReport(
        max_abs=max_abs,
        bound=bound,
        satisfied=max_abs <= bound * (1.0 + 1e-9),
    )


def uniform_density(n: int, length: float, h: float) -> DensityGrid:
    dz = spacing(length, n)
    return DensityGrid(values=np.full(n, 1.0 / length), z0=-length / 2.0, dz=dz, h=h)


def gaussian_density(
    n: int, length: float, h: float, sigma: float, center: float = 0.0
) -> DensityGrid:
    """Normalized Gaussian of standard deviation sigma on [-L/2, L/2).

    Raises GridError when the domain is too small to keep the wrap-around
    below 1e-10 relative amplitude at the boundary; L >= 20 sigma keeps
    periodic artifacts below 1e-12 and is the recommended sizing.
    """
    positive(sigma, "sigma")
    center = finite(center, "center")
    dz = spacing(length, n)
    z0 = -length / 2.0
    check_wrap(center, z0, length, sigma)
    z = z0 + dz * np.arange(n)
    values = np.exp(-0.5 * ((z - center) / sigma) ** 2) / (math.sqrt(2.0 * math.pi) * sigma)
    values /= values.sum() * dz
    return DensityGrid(values=values, z0=z0, dz=dz, h=h)


# ---------------------------------------------------------------------------
# profile families: the potential V and the frequency function Omega = 2 pi V / h


@dataclass(frozen=True, eq=False)
class PotentialSpec:
    """Profile c * x^k (params = (c,), k by family) or a tabulated (xs, vs).

    Its evaluate is the potential V of the phase-space solver or the
    frequency function Omega of build_kernel; Omega = 2 pi V / h.
    """

    family: str
    params: tuple = ()

    _POWERS = {"constant": 0, "linear": 1, "harmonic": 2, "quartic": 4}

    def __post_init__(self):
        params = tuple(self.params) if isinstance(self.params, (tuple, list)) else ()
        if self.family == "tabulated":
            if len(params) != 2:
                raise DomainError("the tabulated family takes the tables (xs, vs)")
            xs, vs = (real_array(t, "tables") for t in params)
            if xs.ndim != 1 or xs.shape != vs.shape or xs.size < 2:
                raise DomainError("need matching 1-d tables with at least two samples")
            if np.any(np.diff(xs) <= 0.0):
                raise DomainError("table abscissae must be strictly increasing")
            object.__setattr__(self, "params", (xs, vs))
        elif not isinstance(self.family, str) or self.family not in self._POWERS:
            raise DomainError(f"unknown potential family {self.family!r}")
        elif len(params) != 1:
            raise DomainError(f"the {self.family} family takes one coefficient")
        else:
            coeff = finite(params[0], f"the {self.family} coefficient")
            object.__setattr__(self, "params", (coeff,))

    @classmethod
    def constant(cls, value: float = 0.0) -> "PotentialSpec":
        return cls("constant", (value,))

    @classmethod
    def linear(cls, slope: float) -> "PotentialSpec":
        return cls("linear", (slope,))

    @classmethod
    def harmonic(cls, omega: float, mass: float = 1.0) -> "PotentialSpec":
        """V(x) = mass * omega^2 * x^2 / 2."""
        try:
            return cls("harmonic", (0.5 * finite(mass, "mass") * finite(omega, "omega") ** 2,))
        except OverflowError:  # omega ** 2 beyond the float range
            raise DomainError(f"omega = {omega!r} overflows the harmonic coefficient") from None

    @classmethod
    def quartic(cls, beta: float) -> "PotentialSpec":
        """V(x) = beta * x^4."""
        return cls("quartic", (beta,))

    @classmethod
    def tabulated(cls, xs, vs) -> "PotentialSpec":
        """Linear interpolation; out-of-range queries raise (as a kernel's Omega
        the table must cover roughly [a - h/(4 dz), a + h/(4 dz)])."""
        return cls("tabulated", (xs, vs))

    def evaluate(self, x) -> np.ndarray:
        """The profile at the points x; DomainError where it is not finite, or,
        for a table, where x lies outside it.  c * x^k is c * int_power(x, k),
        by repeated squaring: (x x)(x x) for the quartic, bit for bit pow's
        x^4 at the dyadic points of a phase-space grid and within 2 ulp of it
        elsewhere."""
        x = np.asarray(x, dtype=float)
        if self.family == "tabulated":
            xs, vs = self.params
            if np.any(x < xs[0]) or np.any(x > xs[-1]):
                raise DomainError("tabulated profile queried outside its table")
            v = np.interp(x, xs, vs)
        else:
            with np.errstate(over="ignore", invalid="ignore"):  # refused just below
                v = self.params[0] * int_power(x, self._POWERS[self.family])
        if not np.all(np.isfinite(v)):
            raise DomainError("profile is not finite at a sampled point")
        return v


def omega_constant(c: float) -> Callable[[np.ndarray], np.ndarray]:
    return PotentialSpec("constant", (c,)).evaluate


def omega_linear(slope: float) -> Callable[[np.ndarray], np.ndarray]:
    return PotentialSpec("linear", (slope,)).evaluate


def omega_harmonic(coeff: float) -> Callable[[np.ndarray], np.ndarray]:
    return PotentialSpec("harmonic", (coeff,)).evaluate


def omega_quartic(coeff: float) -> Callable[[np.ndarray], np.ndarray]:
    return PotentialSpec("quartic", (coeff,)).evaluate


def omega_tabulated(xs, ys) -> Callable[[np.ndarray], np.ndarray]:
    return PotentialSpec.tabulated(xs, ys).evaluate


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """Odd convolution kernel sampled compatibly with one grid family.

    mhat(lambda) = Omega(a + lambda/2) - Omega(a - lambda/2) is odd, so it is
    held on its half spectrum, the modes a real transform keeps: m_half[k] =
    mhat(lambda_k) at lambda_k = k h / L, k = 0..n/2, zero at k = 0 and at
    the Nyquist mode, which has no negative partner (so the evolution stays
    real).  Any other m_half is a DomainError: n/2 + 1 finite reals, n a power
    of two >= 2, zero at both ends; it is stored as a read-only copy.  a must
    be finite, dz and h positive.  n, lambdas and the odd m_hat are derived.
    """

    m_half: np.ndarray
    a: float
    dz: float
    h: float

    def __post_init__(self):
        for name, check in (("a", finite), ("dz", positive), ("h", positive)):
            object.__setattr__(self, name, check(getattr(self, name), name))
        m = real_array(self.m_half, "m_half")
        if m.ndim != 1 or m.size < 2 or (m.size - 1) & (m.size - 2) or m[0] or m[-1]:
            raise DomainError("m_half must hold n/2 + 1 samples, n = 2**k >= 2, zero at both ends")
        object.__setattr__(self, "m_half", m)

    @property
    def n(self) -> int:
        return 2 * (self.m_half.size - 1)

    @property
    def lambdas(self) -> np.ndarray:
        """The conjugate values lambda_k = k h / L in FFT order."""
        return self.h * np.fft.fftfreq(self.n, d=self.dz)

    @functools.cached_property
    def m_hat(self) -> np.ndarray:
        """mhat_k in FFT order, read-only: m_half, then m_hat[n - k] = 0.0 - m_half[k]."""
        m = np.concatenate([self.m_half, 0.0 - self.m_half[-2:0:-1]])
        m.setflags(write=False)
        return m

    @functools.cached_property
    def real_kernel(self) -> np.ndarray:
        """Real-space samples m(zeta_j) on grid offsets, exactly odd:
        m_j = -(2h/L) * sum_{l=1}^{N/2-1} mhat_l sin(2 pi j l / N), the
        odd_sine_sum of m_half, so m_{N-j} = -m_j to the last bit and
        m_0 = m_{N/2} = 0; DomainError for an m beyond the float range."""
        m = odd_sine_sum(self.m_half, -(2.0 * self.h / (self.n * self.dz)))
        m.setflags(write=False)
        return m


def build_kernel(
    omega: Callable[[np.ndarray], np.ndarray], a: float, grid: DensityGrid
) -> KernelSpec:
    """Sample the kernel transform for one frequency function and offset.

    lambda_k = k h / L coincides with h times the FFT frequencies of the
    grid, so the continuous exponential exp(2 pi i z lambda / h) restricted
    to the sampled lambdas is exactly the discrete Fourier basis; Omega is
    sampled at a +- lambda_k / 2 for k = 0..N/2 alone, by odd_difference, as
    wigner's kick is; content beyond the Nyquist frequency is truncated.
    DomainError unless Omega gives one finite real value per point (as
    real_array accepts it), and for a difference beyond the float range.
    """
    a = finite(a, "a")
    m_half = odd_difference(omega, a, grid.h, grid.n, grid.dz)
    return KernelSpec(m_half=m_half, a=a, dz=grid.dz, h=grid.h)


def _check_compatible(f: DensityGrid, k: KernelSpec) -> None:
    if f.n != k.n or f.dz != k.dz or f.h != k.h:
        raise GridError("kernel was built for a different grid family")


def _evolve_values(f0: DensityGrid, k: KernelSpec, times: np.ndarray) -> np.ndarray:
    """The values of f0 at each of times, one contiguous row per time: one
    real forward transform of f0, one phase multiply exp(i mhat_k t) on the
    half spectrum m_half for all times and one real inverse transform along
    the rows, exact because an odd mhat with a zero Nyquist sample makes the
    phases Hermitian.  The phases are phase_table's cos and sin of mhat_k t,
    and the spectrum multiplies them in place.  GridError, the class of the
    non-finite grid it would build, before anything is multiplied when
    max|mhat| * max|t| is beyond the float range."""
    m_max, t_max = float(np.abs(k.m_half).max()), float(np.abs(times).max())
    if not math.isfinite(m_max * t_max):
        raise GridError(f"max|m_hat| * |t| = {m_max!r} * {t_max!r} is beyond the float range")
    phases = phase_table(k.m_half, times[:, None])
    spectra = np.multiply(np.fft.rfft(f0.values), phases, out=phases)
    return np.fft.irfft(spectra, n=f0.n, axis=1)


def evolve_density(f0: DensityGrid, k: KernelSpec, t: float) -> DensityGrid:
    """Spectral propagation: fhat_k(t) = exp(i mhat_k t) fhat_k(0).

    The phase is evaluated at the absolute time t, so successive calls at
    increasing times do not accumulate round-off; every mode magnitude, and
    with them the total probability and the information, is exact up to
    round-off of a single real transform pair on the half spectrum m_half
    (see _evolve_values).
    """
    _check_compatible(f0, k)
    t = finite(t, "t")
    return replace(f0, values=_evolve_values(f0, k, np.array([t]))[0])


def density_run(
    f0: DensityGrid, k: KernelSpec, t_end: float, samples: int
) -> tuple[RunRecord, DensityGrid]:
    """evolve_density sampled at t_end * j / samples, j = 1..samples.

    Records per sample the diagnostics total_probability, information and
    mode_drift, the largest change of a mode magnitude dz |fhat_k| since
    t = 0 (zero in exact arithmetic); returns the record and the last
    state.  The samples are evaluated in batched real transform pairs on the
    half spectrum, of at most 2**16 points (samples x N), bit for bit as
    evolve_density evaluates each; the mode drift is measured on the half
    spectrum (rfft), which holds every mode magnitude of a real density, and
    the information of a block is one stacked product values_j . values_j,
    the dot of Grid.information.  Each sample is checked as the grid
    evolve_density builds: a non-finite sample raises GridError, a total
    off by more than QUAD_TOL NormalizationError.  Raises DomainError
    unless samples is an integer in [1, MAX_STEPS], t_end is finite and
    t_end * samples does not overflow.
    """
    samples = count(samples, "samples", high=MAX_STEPS)
    _check_compatible(f0, k)
    t_end = finite(t_end, "t_end")
    if not math.isfinite(t_end * samples):  # the largest product the times formula forms
        raise DomainError(f"t_end * samples = {t_end!r} * {samples} is beyond the float range")
    spectrum0 = f0.dz * np.abs(np.fft.rfft(f0.values))
    times = t_end * np.arange(1, samples + 1) / samples
    diag = np.empty((samples, 3))
    rows = max(1, _BLOCK_POINTS // f0.n)
    for start in range(0, samples, rows):
        values = _evolve_values(f0, k, times[start : start + rows])
        total = values.sum(axis=1) * f0.dz
        ok = np.isfinite(values).all(axis=1) & (np.abs(total - 1.0) <= QUAD_TOL)
        if not ok.all():
            replace(f0, values=values[np.argmin(ok)])  # raises as that sample's grid does
        info = f0.h * (values[:, None, :] @ values[:, :, None]).ravel() * f0.dz
        drift = np.abs(np.fft.rfft(values, axis=1))  # |dz |fhat_k| - spectrum0|, in place
        drift *= f0.dz
        drift -= spectrum0
        drift = np.abs(drift, out=drift).max(axis=1)
        diag[start : start + rows] = np.column_stack([total, info, drift])
    final = replace(f0, values=values[-1])
    return RunRecord(times, diag, ("total_probability", "information", "mode_drift")), final


def evolve_density_timestepped(f0: DensityGrid, k: KernelSpec, t: float, dt: float) -> DensityGrid:
    """Same dynamics through real-space quadrature and implicit midpoint.

    The convolution integral becomes the circulant A[i,j] = (dz/h) *
    m((i-j) dz), antisymmetric because the kernel samples are exactly odd;
    each step applies its Cayley transform, which conserves the quadrature
    sum and the information to round-off for any dt whose reach
    (dt/2) max|A| is at most _grid.MAX_CAYLEY_REACH (DomainError above it).
    A is never built: its first column, (dz/h) times the kernel's
    real_kernel (a DomainError beyond the float range), goes to
    cayley_power_circulant, which powers the Cayley factor's first column by
    cyclic convolutions after one LU solve.  This path shares no evolution
    code with evolve_density, uses no transform, and serves as an
    independent discretization.
    """
    _check_compatible(f0, k)
    n_steps, step = steps(t, dt)
    q = cayley_power_circulant((f0.dz / f0.h) * k.real_kernel, step, n_steps)
    return replace(f0, values=q @ f0.values)


def pure_state_residual(f: DensityGrid) -> float:
    """Max residual of h f(z)^2 = integral( f(z - l/2) f(z + l/2) dl ).

    Pure states satisfy the identity; it is reported as a diagnostic only.
    The identity lives on the whole line, so the quadrature treats the
    density as zero outside the domain (a periodic sum would fold spurious
    image products back in at the boundaries); l/2 runs over grid offsets
    with dl = 2 dz.
    """
    v = f.values
    conv = np.convolve(v, v)[::2] * 2.0 * f.dz  # the products with j + k = 2i
    return float(np.max(np.abs(f.h * v * v - conv)))


# ---------------------------------------------------------------------------
# grid import/export


def write_density_csv(f: DensityGrid, path) -> None:
    """CSV with header (z, f) at 17 significant digits plus a JSON sidecar
    holding h, dz, z0, N: write_grid's snapshot."""
    write_grid(f, path)


def read_density_csv(path) -> DensityGrid:
    """Read a grid written by write_density_csv; GridError for malformed
    content, including a z column that is not the sidecar's lattice."""
    return read_grid(DensityGrid, path)
