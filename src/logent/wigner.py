"""Phase-space quasi-probability dynamics on a periodic (x, p) grid.

The state is a real function w(x, p), possibly negative, normalized to
integral(w dx dp) = 1, with information I = h * integral(w^2 dx dp) and
entropy S = 1 - I.  Pure states have I = 1 and obey max|w| <= 2/h, the
two-dimensional counterpart of the line-density bound.

The evolution equation is

    dw/dt + (p/m) dw/dx =
        (2 pi i / h^2) * integral( [V(x + l/2) - V(x - l/2)]
                                   * exp(2 pi i (p - p') l / h)
                                   * w(x, p') dp' dl ),

which conserves both integral(w) and integral(w^2) but not higher powers of
w.  V is a PotentialSpec, the profile registry of densities.

The solver splits each substep symmetrically (half kick, full transport,
half kick).  Free transport is an exact shift, diagonal in the x-conjugate
Fourier variable; the kick is, for each x column, a diagonal phase in the
p-conjugate variable with rate (2 pi / h)(V(x + l/2) - V(x - l/2)) at
l = h * nu_p.  Both substeps multiply Fourier modes by unit-modulus phases,
so each conserves both invariants to round-off, and any composition does.

A step is a composition of such Strang substeps with stage weights: with a
caller's dt one substep (STRANG, second order).  By default a constant,
linear or harmonic (c >= 0) V, whose kick is linear in l and whose flow is
thus the classical linear one (Groenewold, Physica 12 (1946) 405), runs one
substep per piece of at most pi/4 of the rotation, its rates scaled to make
it the rotation's three shears (Paeth, Graphics Interface '86), which is
exact; any other V runs Yoshida's three (YOSHIDA, fourth order), at the
largest step for which no substep advances any grid phase past pi.
Adjacent half kicks of consecutive substeps are fused into one kick
(first-same-as-last composition), so n Strang steps run as K/2 T K T K ...
T K/2.  Both phase rates are odd in their Fourier variable (V(x + l/2) -
V(x - l/2) in l, p nu_x in nu_x) and zero at Nyquist, so every multiplier
is Hermitian, the rates are sampled on the nonnegative frequencies alone,
and the state stays real on real FFTs and half spectra: four real
transforms per substep, plus one per step or piece whose state is recorded.
Between substeps the state is its (x, nu_p) half spectrum, C-ordered like
the (x, p) values; between the two x transforms it is held in (p, nu_x) and
(p, x) layout, which both x transforms write through transposed views, so
that every transform writes contiguous lines.  The inverse transforms are
unscaled (the FFTW convention): each kick multiplier carries 1/Np and each
transport multiplier 1/Nx, so no transform makes a scaling pass, and both
loop inverse transforms write into one real work buffer of the run.  On
power-of-two sides those scales are powers of two, and every state is the
bits of scaled inverse transforms.  The multipliers are _grid.phase_table's,
the cos and sin of the real phase, as the line-density propagator builds its
phases.

For states concentrated at a single position a, the transport term drops
and the remaining kick dynamics closes in p alone.  That reduced equation
is implemented separately in delta_localized_evolve by direct quadrature of
the double integral, deliberately sharing no evolution code with the
spectral line-density path so the two can serve as oracles for each other.
It samples the kernel with _grid.odd_difference, as the kick and the line
kernel do; its circulant generator's first column is the sine sum that gives
the timestepped density oracle its kernel, and its exponential is taken in
the algebra of circulants, each product a direct cyclic convolution (no
transform, no dense matrix): scaling by the generator's spectral radius, read
off the sampled kernel difference (it is normal, with eigenvalues i mhat_l),
a Taylor polynomial evaluated by Paterson-Stockmeyer, then the squarings.
"""
from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from ._csv import write_csv
from ._grid import (
    Grid, RunRecord, check_wrap, count, cyclic, finite, int_power, odd_difference, odd_sine_sum,
    phase_table, positive, read_grid, spacing, steps, write_grid,
)
from .densities import DensityGrid, PotentialSpec
from .errors import DomainError, GridError

PHASE_WARN = math.pi  # beyond this the fastest grid phase wraps within one step
PIECE_ANGLE = math.pi / 4.0  # rotation per exact piece: wider shears can wrap an off-centre packet
STRANG = (1.0,)  # stage weights of one step: K/2 T K/2
_CBRT2 = 2.0 ** (1.0 / 3.0)
# Yoshida's fourth-order composition of three Strang substeps (Phys. Lett. A
# 150 (1990) 262); the middle one runs backward in time
YOSHIDA = (1.0 / (2.0 - _CBRT2), -_CBRT2 / (2.0 - _CBRT2), 1.0 / (2.0 - _CBRT2))

# delta_localized_evolve's circulant exponential: the degree-16 Taylor
# polynomial, which Paterson-Stockmeyer evaluation takes in 6 products, at the
# generator scaled by 2**-s, then s squarings.  Degree 20 takes no fewer
# products in all (its reach is 1.8 times degree 16's, short of one squaring)
# and measured a cross-check Linf of 2.9e-10 against 9.1e-11 at N = 2048
# (quartic, a = 0.5); a lower degree saves products only at a radius below
# _REACH16, where no squaring is taken.  The 2**s squarings multiply the
# round-off of the scaled polynomial by 2**s, so t |c|_1 beyond 2**53 is
# refused
_UNIT_ROUNDOFF = 2.0**-53
_SQUARING_LIMIT = 2.0**53


def _taylor_reach(m: int) -> float:
    """The largest spectral radius theta at which the remainder of the degree-m
    Taylor series of exp, bounded by theta^(m+1) / (m+1)! / (1 - theta / (m+2)),
    is at most one unit round-off (by bisection)."""
    lo, hi = 0.0, m + 1.0
    for _ in range(64):
        mid = (lo + hi) / 2.0
        tail = mid ** (m + 1) / math.factorial(m + 1) / (1.0 - mid / (m + 2))
        lo, hi = (mid, hi) if tail <= _UNIT_ROUNDOFF else (lo, mid)
    return lo


_REACH16 = _taylor_reach(16)  # 0.82

_log = logging.getLogger("logent")


@dataclass(frozen=True, eq=False)
class WignerGrid(Grid):
    """Uniform periodic phase-space sampling of a normalized distribution.

    values[i, j] approximates w(x0 + i dx, p0 + j dp).  The quadrature
    normalization is enforced within 1e-9; x0, dx, p0, dp, h and mass must be
    finite and dx, dp, h, mass positive.  Distributions with I > 1 are
    representable but flagged inadmissible.
    """

    values: np.ndarray
    x0: float
    dx: float
    p0: float
    dp: float
    h: float
    mass: float

    _SCALARS = {"x0": finite, "dx": positive, "p0": finite, "dp": positive, "h": positive,
                "mass": positive}
    _AXES = (("x0", "dx"), ("p0", "dp"))
    _HEADER, _SIZES = "x,p,w", ("Nx", "Np")

    def _check_shape(self, arr):
        if arr.ndim != 2:
            raise GridError("values must be a 2-d array")
        if arr.shape[0] % 2 or arr.shape[1] % 2:
            raise GridError("grid sizes must be even")

    @property
    def nx(self) -> int:
        return self.values.shape[0]

    @property
    def npts(self) -> int:
        return self.values.shape[1]

    @property
    def x(self) -> np.ndarray:
        return self.axis(0)

    @property
    def p(self) -> np.ndarray:
        return self.axis(1)

    @property
    def amplitude_bound_satisfied(self) -> bool:
        """Diagnostic max|w| <= 2/h, meaningful for admissible pure states."""
        return float(np.max(np.abs(self.values))) <= 2.0 / self.h * (1.0 + 1e-9)


def _gaussian(x, p, sigma_x: float, h: float, x_center: float, p_center: float):
    """The minimum-uncertainty Gaussian w(x, p) in closed form, at any points:
    peak (x_center, p_center), widths sigma_x and h / (4 pi sigma_x)."""
    sigma_p = h / (4.0 * math.pi * sigma_x)
    with np.errstate(over="ignore"):  # a square beyond the float range: exp(-inf) = 0
        return np.exp(
            -0.5 * ((x - x_center) / sigma_x) ** 2 - 0.5 * ((p - p_center) / sigma_p) ** 2
        ) / (2.0 * math.pi * sigma_x * sigma_p)


def gaussian_pure_wigner(
    nx: int,
    npts: int,
    lx: float,
    lp: float,
    sigma_x: float,
    h: float = 1.0,
    mass: float = 1.0,
    x_center: float = 0.0,
    p_center: float = 0.0,
) -> WignerGrid:
    """Minimum-uncertainty Gaussian, sigma_x * sigma_p = h / (4 pi), I = 1:
    _gaussian sampled on the grid and renormalized to a unit quadrature sum.

    The domain is [-lx/2, lx/2) x [-lp/2, lp/2).  Raises GridError when a
    boundary amplitude exceeds 1e-10 of the peak (wrap-around too large).
    """
    positive(sigma_x, "sigma_x")
    x_center, p_center = finite(x_center, "x_center"), finite(p_center, "p_center")
    sigma_p = finite(h, "h", GridError) / (4.0 * math.pi * sigma_x)
    dx, dp = spacing(lx, nx), spacing(lp, npts)
    x0, p0 = -lx / 2.0, -lp / 2.0
    check_wrap(x_center, x0, lx, sigma_x)
    check_wrap(p_center, p0, lp, sigma_p)
    x = x0 + dx * np.arange(nx)
    p = p0 + dp * np.arange(npts)
    values = _gaussian(x[:, None], p[None, :], sigma_x, h, x_center, p_center)
    values /= values.sum() * dx * dp
    return WignerGrid(values=values, x0=x0, dx=dx, p0=p0, dp=dp, h=h, mass=mass)


def higher_moment(w: WignerGrid, r: int) -> float:
    """Dimensionless moment h^(r-1) * integral(w^r dx dp), r >= 2; DomainError
    when r or the moment lies beyond the float range.  w^r is int_power's
    repeated squaring, the same as PotentialSpec.evaluate's x^k.
    """
    r = count(r, "moment order", 2)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        h_power = np.float64(w.h) ** (finite(r, "moment order") - 1.0)
        power = int_power(w.values, r)
        return finite(float(h_power * np.sum(power) * w.dx * w.dp), "moment")


def _phase_rates(w: WignerGrid, potential: PotentialSpec):
    """Angular rates of the kick and transport phases on the half spectra the
    loop multiplies, C-ordered: the kick in (x, nu_p), the transport in
    (p, nu_x) layout, each at its nonnegative frequencies (rfftfreq)."""
    scale = 2.0 * math.pi / w.h
    kick_rate = odd_difference(potential.evaluate, w.x[:, None], w.h, w.npts, w.dp, scale)
    nu_x = np.fft.rfftfreq(w.nx, d=w.dx)
    transport_rate = -2.0 * math.pi * nu_x[None, :] * w.p[:, None] / w.mass
    transport_rate[:, -1] = 0.0  # unpaired Nyquist mode in x
    return kick_rate, transport_rate


def _run(w0: WignerGrid, potential: PotentialSpec, t: float, dt: float | None, record: bool):
    """Resolve the step rule, then run the fused loop.

    A caller's dt runs Strang steps.  By default a constant, linear or
    harmonic V with c >= 0 runs pieces of at most PIECE_ANGLE of the
    rotation at Omega = sqrt(2c / mass), each one STRANG substep with kick
    rates scaled by tan(theta/2) / (theta/2) and transport rates by
    sin(theta) / theta, theta = Omega tau: the exact rotation K(tan(theta/2)
    / Omega) T(sin(theta) / Omega) K(tan(theta/2) / Omega).  Any other V runs
    YOSHIDA steps, as long as no substep advances any grid phase past
    PHASE_WARN: the bound the aliasing warning holds a caller's dt to.
    """
    kick_rate, transport_rate = _phase_rates(w0, potential)
    harmonic = potential.family == "harmonic" and potential.params[0] >= 0.0
    if dt is None and (harmonic or potential.family in ("constant", "linear")):
        omega = math.sqrt(2.0 * potential.params[0] / w0.mass) if harmonic else 0.0
        n_pieces, piece = steps(t, None, omega, angle=PIECE_ANGLE)
        theta = omega * piece
        if theta:
            kick_rate *= math.tan(theta / 2.0) / (theta / 2.0)
            transport_rate *= math.sin(theta) / theta
        _log.debug(
            "wigner step rule: %s; %d pieces of %.6g, Omega %.6g rad/time, piece angle %.4g rad",
            "default, exact three-shear rotation", n_pieces, piece, omega, abs(theta),
        )
        return _loop(w0, kick_rate, transport_rate, STRANG, n_pieces, piece, record)
    max_rate = float(max(np.abs(kick_rate).max(), np.abs(transport_rate).max()))
    if dt is None:
        stages, rule = YOSHIDA, "default, 4th-order Yoshida"
    else:
        stages, rule = STRANG, "caller's dt, Strang"
    widest = max(abs(weight) for weight in stages)
    n_steps, step = steps(t, dt, widest * max_rate, angle=PHASE_WARN)
    if dt is not None and dt * max_rate > PHASE_WARN:
        warnings.warn(
            f"dt = {dt:g} advances the fastest grid phase by "
            f"{dt * max_rate:.2f} rad per step; aliasing likely",
            stacklevel=3,
        )
    _log.debug(
        "wigner step rule: %s; %d steps of %.6g, max grid phase rate %.6g rad/time, "
        "largest substep phase %.4g rad",
        rule, n_steps, step, max_rate, widest * abs(step) * max_rate,
    )
    return _loop(w0, kick_rate, transport_rate, stages, n_steps, step, record)


def _loop(
    w0: WignerGrid, kick_rate, transport_rate, stages, n_steps: int, step: float, record: bool
):
    """n_steps steps of length step, each composed of one Strang substep
    K(w step / 2) T(w step) K(w step / 2) per stage weight w in stages.

    Every array is C-ordered.  Each substep takes the state through four
    layouts, one real transform apiece: from the (x, nu_p) half spectrum,
    irfft along p to (x, p); rfft along x, written through a transposed
    view, to (p, nu_x); the transport multiply and irfft along rows to
    (p, x); rfft along p, written through a transposed view, to the next
    (x, nu_p) spectrum.  So both x transforms write contiguous lines, and
    the transport irfft reads them too, while each transforms the lines it
    would along axis 0 of an (x, p) array, to the same bits.

    The inverse transforms are unscaled (norm="forward"): every kick
    multiplier carries 1/npts and every transport multiplier 1/nx, so no
    transform makes a scaling pass.  On power-of-two sides the scale is a
    power of two, and the states are the bits of scaled inverse transforms.
    Both loop irffts write into one real work buffer, viewed as (x, p) and
    as (p, x); between steps the recorder forms v^2 in it.  The kicks
    multiply the spectrum in place, the (x, nu_p) and (p, nu_x) spectra
    share one buffer, and each recorded or final state is written over the
    loop's copy of the values, so that no substep allocates an array."""
    nx, npts = w0.nx, w0.npts
    # multipliers on the half spectra of the real transforms (Hermitian
    # rates), one pair per distinct weight: Yoshida's outer two are equal
    half_kick = {w: phase_table(kick_rate, w * step / 2.0) for w in set(stages)}
    full_transport = {w: phase_table(transport_rate, w * step) for w in set(stages)}
    transports = [full_transport[w] for w in stages]
    # the kick after stage i fuses its closing half kick with the opening one
    # of stage i + 1 (of the next step's first stage, after the last).
    # Yoshida's a * b and b * a are both formed: numpy's SIMD complex product
    # can round their imaginary parts apart, and each keeps its own bits
    after = [half_kick[w] * half_kick[v] for w, v in zip(stages, stages[1:] + stages[:1])]
    for table in [*after, *half_kick.values()]:
        table *= 1.0 / npts
    for table in full_transport.values():
        table *= 1.0 / nx

    values = w0.values.copy()
    work = np.empty(nx * npts)
    xp, px = work.reshape(nx, npts), work.reshape(npts, nx)
    diag = np.empty((n_steps + 1, 4)) if record else None

    def _record(k, v):  # total, I and moment3 before the cell area, then min w
        v2 = np.multiply(v, v, out=xp)
        diag[k] = v.sum(), w0.h * np.vdot(v, v), w0.h**2 * np.vdot(v2, v), v.min()

    if record:
        _record(0, values)
    # The p spectrum carries the state between substeps: each closes with its
    # half kick fused into the next one's opening half kick, and the
    # half-kicked state is formed only when it is needed.
    if n_steps:
        # a substep is done with the (x, nu_p) spectrum before it writes the
        # (p, nu_x) one, and with that before it writes the next (x, nu_p)
        # one, so the two share one buffer
        shared = np.empty(nx * npts // 2 + max(nx, npts), dtype=complex)
        spec = shared[: nx * (npts // 2 + 1)].reshape(nx, npts // 2 + 1)
        xspec = shared[: npts * (nx // 2 + 1)].reshape(npts, nx // 2 + 1)
        np.fft.rfft(values, axis=1, out=spec)
    kick = half_kick[stages[0]]
    for k in range(n_steps):
        for transport, next_kick in zip(transports, after):
            spec *= kick
            np.fft.irfft(spec, n=npts, axis=1, norm="forward", out=xp)
            np.fft.rfft(xp, axis=0, out=xspec.T)  # (p, nu_x)
            xspec *= transport
            np.fft.irfft(xspec, n=nx, axis=1, norm="forward", out=px)
            np.fft.rfft(px, axis=0, out=spec.T)  # (x, nu_p)
            kick = next_kick
        if record or k == n_steps - 1:
            np.fft.irfft(spec * half_kick[stages[-1]], n=npts, axis=1, norm="forward", out=values)
        if record:
            _record(k + 1, values)

    final = replace(w0, values=values)
    if not record:
        return None, final
    diag[:, :3] *= w0.dx  # the cell area as Grid._integrate applies it
    diag[:, :3] *= w0.dp
    times = np.arange(n_steps + 1) * step + 0.0  # + 0.0: t = 0, not -0, for negative t
    columns = ("total_probability", "information", "moment3", "min_value")
    return RunRecord(times, diag, columns), final


def wigner_evolve(
    w0: WignerGrid, potential: PotentialSpec, t: float, dt: float | None = None
) -> WignerGrid:
    """Evolve by symmetric split steps (half kick, transport, half kick).

    A supplied dt runs Strang steps of at most dt; a warning is issued when
    it lets any grid phase exceed pi per step.  Without one, a constant,
    linear or harmonic V with c >= 0 runs its exact flow, three shears per
    piece of at most pi/4 of the rotation (one piece at Omega = 0); any
    other V runs steps of Yoshida's fourth-order composition of three Strang
    substeps, the largest at which no substep advances any grid phase past pi.
    Consecutive half kicks are fused, so each substep costs four real FFTs
    on half spectra; this is exact, not an approximation, because both
    phase rates are odd and the multipliers Hermitian.  The inverse FFTs are
    unscaled, their 1/n carried by the multipliers, and write into one work
    buffer, so a substep allocates no array.  Both invariants are
    conserved to round-off for any dt.  The step decision is logged at
    DEBUG level on the "logent" logger.  Raises DomainError unless t and dt
    are finite real numbers and dt is positive.
    """
    _, final = _run(w0, potential, t, dt, record=False)
    return final


def wigner_run(
    w0: WignerGrid, potential: PotentialSpec, t: float, dt: float | None = None
) -> tuple[RunRecord, WignerGrid]:
    """Same as wigner_evolve but records, per step (per piece of the exact
    flow), the diagnostics total_probability, information, moment3 and
    min_value (the smallest w).  Total and information are integrated as
    WignerGrid does, so each row is its state's .total and .information to
    the last bit.  moment3 is h^2 vdot(v^2, v) times dx, then dp: the moment
    higher_moment(state, 3) gives, summed in the BLAS dot's order instead of
    pairwise, so the two may differ in the last bits (by at most 2 ulp where
    measured)."""
    return _run(w0, potential, t, dt, record=True)


def _taylor16(b: np.ndarray) -> np.ndarray:
    """First column of sum_{k <= 16} C(b)^k / k!, by Paterson-Stockmeyer (SIAM
    J. Comput. 2 (1973) 60): the powers b^2, b^3, b^4 (3 products), then
    Horner's rule in b^4 over four blocks of four terms, each block a linear
    combination of the powers with no product (3 products); b^16 / 16! joins
    the top block as a multiple of b^4."""
    powers = [np.eye(1, b.size)[0], b]
    for _ in range(3):
        powers.append(cyclic(powers[-1], b))
    coeffs = np.array([1.0 / math.factorial(k) for k in range(17)])
    blocks = coeffs[:16].reshape(4, 4) @ np.array(powers[:4])
    blocks[3] += coeffs[16] * powers[4]
    e = blocks[3]
    for j in (2, 1, 0):
        e = cyclic(e, powers[4]) + blocks[j]
    return e


def _circulant_expm(b: np.ndarray, radius: float) -> np.ndarray:
    """First column of exp(C(b)), given the spectral radius of C(b), normal
    with imaginary eigenvalues.  Scaling and squaring (Moler and Van Loan,
    SIAM Rev. 45 (2003) 3): b is scaled by 2^-s, the fewest halvings that
    bring the radius within _REACH16, so the remainder of the degree-16
    Taylor polynomial is at most a unit round-off in every eigendirection;
    the polynomial is raised to the power 2^s by int_power's s squarings
    with cyclic convolutions."""
    ratio = radius / _REACH16
    s = math.ceil(math.log2(ratio)) if ratio > 1.0 else 0
    return int_power(_taylor16(np.ldexp(b, -s)), 1 << s, cyclic, np.eye(1, b.size)[0])


def _generator(wbar0: DensityGrid, potential: PotentialSpec, a: float):
    """The column c of delta_localized_evolve's generator, exactly odd, and
    the spectral radius of C(c), max|mhat_l| over the modes 0 < l < N/2 that
    the sine sum reads: C(c) is normal with eigenvalues i mhat_l.
    DomainError for a kernel difference or column beyond the float range."""
    n, h = wbar0.n, wbar0.h
    m_half = odd_difference(potential.evaluate, a, h, n, wbar0.dz, 2.0 * math.pi / h)
    # c_d = (i/h) sum_l mhat_l e^{2 pi i d l / N} dl dp with dl dp = h / N;
    # mhat is odd in l, so the sum is 2i times the sine sum over 0 < l < N/2
    c = odd_sine_sum(m_half, -(2.0 / n))
    return c, float(np.abs(m_half[1:-1]).max(initial=0.0))


def delta_localized_evolve(
    wbar0: DensityGrid, potential: PotentialSpec, a: float, t: float
) -> DensityGrid:
    """Momentum-only dynamics of a state concentrated at position a.

    Implements

        dwbar/dt = (i/h) * integral( [Omega(a + l/2) - Omega(a - l/2)]
                                     * exp(2 pi i (p - p') l / h)
                                     * wbar(p') dp' dl ),

    with Omega = 2 pi V / h, by direct quadrature: the l integral is
    truncated at the grid Nyquist frequency and sampled at l_k = k h / L
    (spacing h/L), the p' integral at the grid points (spacing dp).  The
    sampled difference is odd in l, so the generator's column c is a real
    sine sum, odd_sine_sum, exactly odd, and the generator is the
    antisymmetric circulant C(c)[i, j] = c[(i - j) % N].  exp(t C(c)) is
    _circulant_expm's at the spectral radius |t| max|mhat_l| (C(c) is normal
    with eigenvalues i mhat_l), and one more cyclic convolution applies it
    to the state.  No evolution code is shared with the spectral density
    path, so the two discretizations can be checked against each other.
    Raises DomainError for a non-finite t or a, for a kernel difference or
    column beyond the float range, and when t |c|_1 exceeds 2**53: each
    squaring doubles the round-off of the scaled series, so beyond that no
    significant digit would be left.
    """
    t, a = finite(t, "t"), finite(a, "a")
    if t == 0.0:
        return replace(wbar0, values=wbar0.values.copy())
    c, radius = _generator(wbar0, potential, a)
    with np.errstate(over="ignore"):  # an infinite norm is refused below
        norm = float(np.abs(c).sum())
    if not abs(t) * norm <= _SQUARING_LIMIT:  # also refuses an infinite or nan product
        raise DomainError(
            f"t * |c|_1 = {t!r} * {norm!r} exceeds 2**53, beyond which the generator's "
            "exponential keeps no significant digit"
        )
    return replace(wbar0, values=cyclic(_circulant_expm(t * c, abs(t) * radius), wbar0.values))


# ---------------------------------------------------------------------------
# snapshot and diagnostics export


def write_wigner_csv(w: WignerGrid, path) -> None:
    """Flat CSV (x, p, w) at 17 significant digits, x slowest, plus a JSON
    sidecar of x0, dx, p0, dp, h, mass, Nx and Np: write_grid's snapshot."""
    write_grid(w, path)


def read_wigner_csv(path) -> WignerGrid:
    """Read a snapshot written by write_wigner_csv; GridError for malformed
    content, including x and p columns that are not the sidecar's lattice."""
    return read_grid(WignerGrid, path)


def write_diagnostics_csv(rec: RunRecord, path) -> None:
    """Time series (t, sum, I, moment3) at 15 significant digits; DomainError,
    before any file is made, for a record of another engine's columns."""
    if rec.columns[:3] != ("total_probability", "information", "moment3"):
        raise DomainError(f"not a wigner run record: columns {rec.columns}")
    write_csv(path, "t,sum,I,moment3", [rec.times], rec.diagnostics[:, :3], 15)
