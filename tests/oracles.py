"""Independent oracles used by the test suite.

Everything here is deliberately coded along a different route than the
package: the matrix exponential is Taylor scaling-and-squaring (the package
steps with Cayley transforms), the mean bound is a grid scan over a
numerically solved multiplier system, and the equilibrium and both pairs of
mean bounds are solved from the raw-moment multiplier system in exact
rational arithmetic (the package uses the centred closed form in floats),
densities are integrated with adaptive quadrature (the package uses grid
sums), the harmonic phase-space flow is the analytic rigid rotation (the
package split-steps), and an anharmonic one is the Wigner transform of a
wavefunction propagated by one eigendecomposition of a dense
Hamiltonian.  The split step's own substeps are here too, unfused and on
full complex spectra (the package fuses them on real half spectra), with
their phase rates sampled on every FFT frequency (the package samples the
nonnegative half), and so is the dense Cayley power (the package powers a
circulant generator's Cayley factor as one column).
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad


def matrix_exp_taylor(m: np.ndarray, n_taylor: int = 24) -> np.ndarray:
    """exp(m) by truncated Taylor series with scaling and squaring."""
    norm = np.linalg.norm(m, np.inf)
    n_square = max(0, int(math.ceil(math.log2(max(norm, 1e-30) / 0.25))))
    scaled = m / 2.0**n_square
    n = m.shape[0]
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, n_taylor + 1):
        term = term @ scaled / k
        out = out + term
    for _ in range(n_square):
        out = out @ out
    return out


def cayley_power_dense(a: np.ndarray, step: float, n: int) -> np.ndarray:
    """((I - step a / 2)^-1 (I + step a / 2))^n by a solve with n right-hand
    sides and a dense matrix power, whatever the structure of a."""
    eye = np.eye(a.shape[0])
    half = (step / 2.0) * a
    return np.linalg.matrix_power(np.linalg.solve(eye - half, eye + half), n)


def circulant_expm_longdouble(c: np.ndarray, v: np.ndarray) -> np.ndarray:
    """exp(C(c)) v for the circulant C(c)[i, j] = c[(i - j) % N], in
    np.longdouble (64-bit significand on x86-64): c scaled by a power of two
    to a 1-norm below 1/4, its Taylor series summed term by term until a term
    is below 1e-24, squared back, and applied to v, every product a cyclic
    convolution in extended precision."""
    n = c.size

    def cyclic(a, b):
        full = np.convolve(a, b)
        return full[:n] + np.concatenate([full[n:], np.zeros(1, dtype=full.dtype)])

    c = np.asarray(c, dtype=np.longdouble)
    n_square = max(0, math.frexp(float(np.abs(c).sum()))[1] + 2)
    scaled = c / np.longdouble(2) ** n_square
    out = np.zeros(n, dtype=np.longdouble)
    out[0] = 1
    term, k = out.copy(), 0
    while np.abs(term).sum() > 1e-24:
        k += 1
        term = cyclic(term, scaled) / k
        out = out + term
    for _ in range(n_square):
        out = cyclic(out, out)
    return cyclic(out, np.asarray(v, dtype=np.longdouble))


def solve_equilibrium_numeric(x: np.ndarray, m: float) -> np.ndarray:
    """Equilibrium entries via a numerically solved multiplier system."""
    n = x.size
    a = np.array([[n, -x.sum()], [x.sum(), -(x @ x)]])
    lam, mu = np.linalg.solve(a, np.array([2.0, 2.0 * m]))
    return (lam - mu * x) / 2.0


def equilibrium_exact(x: np.ndarray, m: float) -> dict:
    """The equilibrium at the mean m for the observable x, both read as the
    exact rationals of their floats, by Cramer's rule on the raw-moment
    multiplier system: entry i is a_i + b_i m', affine in the mean m'.

    Returns the entries "p" and the information "information" at m, and
    the (lower, upper) pairs "max_mean", the roots of I(m') = 1 (their one
    square root taken on integers, to 2^-256 of its size), and
    "max_mean_nonnegative", the means where the first entry reaches zero.
    All values are Fractions; no float is solved.
    """
    xs = [Fraction(v) for v in np.asarray(x, dtype=float).tolist()]
    n, s1, s2 = len(xs), sum(xs), sum(v * v for v in xs)
    det = s1 * s1 - n * s2
    a = [(s1 * v - s2) / det for v in xs]
    b = [(s1 - n * v) / det for v in xs]
    p = [ai + bi * Fraction(m) for ai, bi in zip(a, b)]
    c0 = sum(ai * ai for ai in a) - 1  # I(m') - 1 = c0 + c1 m' + c2 m'^2
    c1 = 2 * sum(ai * bi for ai, bi in zip(a, b))
    c2 = sum(bi * bi for bi in b)
    disc = c1 * c1 - 4 * c2 * c0
    root = Fraction(math.isqrt(disc.numerator * disc.denominator << 512), disc.denominator << 256)
    return {
        "p": p,
        "information": sum(v * v for v in p),
        "max_mean": ((-c1 - root) / (2 * c2), (-c1 + root) / (2 * c2)),
        "max_mean_nonnegative": (
            max(-ai / bi for ai, bi in zip(a, b) if bi > 0),
            min(-ai / bi for ai, bi in zip(a, b) if bi < 0),
        ),
    }


def scan_max_mean(x: np.ndarray, lo: float, hi: float, n_coarse: int = 20_001) -> float:
    """Largest mean whose numeric equilibrium has information <= 1.

    Coarse scan to bracket the admissibility boundary, then bisection on the
    indicator I(m) <= 1 down to 1e-10.  Uses only the numeric solver, no
    closed-form parabola.
    """

    def admissible(m):
        p = solve_equilibrium_numeric(x, m)
        return p @ p <= 1.0

    ms = np.linspace(lo, hi, n_coarse)
    flags = [admissible(m) for m in ms]
    if not any(flags):
        raise AssertionError("no admissible mean found in scan range")
    last = max(i for i, ok in enumerate(flags) if ok)
    if last == n_coarse - 1:
        return float(ms[-1])
    a, b = ms[last], ms[last + 1]
    while b - a > 1e-10:
        mid = 0.5 * (a + b)
        if admissible(mid):
            a = mid
        else:
            b = mid
    return float(0.5 * (a + b))


def gaussian_information_quad(sigma: float, h: float) -> float:
    """h * integral(f^2) for a normalized Gaussian, by adaptive quadrature."""

    def f2(z):
        f = math.exp(-0.5 * (z / sigma) ** 2) / (math.sqrt(2.0 * math.pi) * sigma)
        return f * f

    val, _ = quad(f2, -12.0 * sigma, 12.0 * sigma, limit=200)
    return h * val


def sample_feasibility_min_entries(
    n: int, radius: float, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Min entry of unit-sum states at fixed radius, by rejection-free sampling.

    Draws random directions in the zero-sum subspace and walks a distance
    sqrt(radius^2 - 1/n) from the uniform state, covering the whole
    constraint sphere.
    """
    rho = math.sqrt(max(radius * radius - 1.0 / n, 0.0))
    mins = np.empty(n_samples)
    for k in range(n_samples):
        d = rng.standard_normal(n)
        d -= d.mean()
        norm = np.linalg.norm(d)
        while norm < 1e-12:
            d = rng.standard_normal(n)
            d -= d.mean()
            norm = np.linalg.norm(d)
        p = 1.0 / n + rho * d / norm
        mins[k] = p.min()
    return mins


def rotated_gaussian_wigner(
    x: np.ndarray,
    p: np.ndarray,
    sigma_x: float,
    sigma_p: float,
    x_center: float,
    p_center: float,
    mass: float,
    omega: float,
    t: float,
) -> np.ndarray:
    """Harmonic-oscillator phase-space flow applied to a Gaussian.

    The flow is the rigid rotation x0 = x cos + (p/(m w)) sin rotated
    backward in time; quadratic potentials transport any distribution along
    classical characteristics, so this is exact for all t.
    """
    xx = x[:, None]
    pp = p[None, :]
    c, s = math.cos(omega * t), math.sin(omega * t)
    x_back = xx * c - pp / (mass * omega) * s
    p_back = pp * c + mass * omega * xx * s
    vals = np.exp(
        -0.5 * ((x_back - x_center) / sigma_x) ** 2
        - 0.5 * ((p_back - p_center) / sigma_p) ** 2
    ) / (2.0 * math.pi * sigma_x * sigma_p)
    return vals


def phase_rates(w, potential) -> tuple[np.ndarray, np.ndarray]:
    """Kick and transport phase rates of the split step on full FFT-order
    tables, both (nx, npts), from the formula: the kick (2 pi / h)
    (V(x + l/2) - V(x - l/2)) at l = h nu_p for every p frequency, the
    transport -2 pi nu_x p / m for every x frequency, each Nyquist rate
    zero.  The negative frequencies are evaluated, not mirrored."""
    lam = w.h * np.fft.fftfreq(w.npts, d=w.dp)
    dv = potential.evaluate(w.x[:, None] + lam[None, :] / 2.0) - potential.evaluate(
        w.x[:, None] - lam[None, :] / 2.0
    )
    kick = (2.0 * math.pi / w.h) * dv
    kick[:, w.npts // 2] = 0.0
    nu_x = np.fft.fftfreq(w.nx, d=w.dx)
    transport = -2.0 * math.pi * nu_x[:, None] * w.p[None, :] / w.mass
    transport[w.nx // 2, :] = 0.0
    return kick, transport


def apply_kick(values: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
    """Potential kick: diagonal phases in the p-conjugate variable, per x.

    One unfused substep on the full complex spectrum; the package's loop
    fuses consecutive kicks and works on real half spectra.
    """
    return np.fft.ifft(np.fft.fft(values, axis=1) * multiplier, axis=1)


def apply_transport(values: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
    """Free streaming: exact shift, diagonal in the x-conjugate variable.

    One unfused substep on the full complex spectrum, like apply_kick.
    """
    return np.fft.ifft(np.fft.fft(values, axis=0) * multiplier, axis=0)


def wigner_moment_quad(values: np.ndarray, dx: float, dp: float, h: float, r: int) -> float:
    """Grid moment h^(r-1) * sum(w^r) dx dp, recomputed outside the package."""
    return float(h ** (r - 1) * np.sum(values**r) * dx * dp)


def wavefunction_wigner(
    x: np.ndarray,
    p: np.ndarray,
    h: float,
    mass: float,
    potential,
    sigma_x: float,
    x_center: float,
    p_center: float,
    t: float,
) -> np.ndarray:
    """Wigner function at time t of a Gaussian wavepacket evolved by the
    Schroedinger equation, at the points x (uniform) and the momenta p.

    psi(0) has |psi|^2 of width sigma_x, so its Wigner function is the
    minimum-uncertainty Gaussian.  psi lives on a periodic box twice as long
    as the x grid, at the same spacing dx and with the x grid in its middle,
    so the ghost image that a periodic box leaves half a box away falls
    outside the x grid.  H = T + V is a dense matrix: T is the spectral
    kinetic energy built from the DFT of the identity, V the callable
    `potential` at the box points.  One eigendecomposition propagates psi
    exactly in time (hbar = h / 2 pi).  W is the direct sum
    W(x, p) = (2/h) sum_s psi*(x + s) psi(x - s) exp(4 pi i p s / h) dx over
    the box offsets s = k dx.
    """
    n = x.size
    dx = float(x[1] - x[0])
    hbar = h / (2.0 * math.pi)
    box = x[0] + dx * np.arange(-(n // 2), 2 * n - n // 2)
    k = 2.0 * math.pi * np.fft.fftfreq(box.size, d=dx)
    dft = np.fft.fft(np.eye(box.size), axis=0)
    kinetic = dft.conj().T @ (((hbar * k) ** 2 / (2.0 * mass))[:, None] * dft) / box.size
    ham = kinetic + np.diag(np.asarray(potential(box), dtype=float))
    energy, vecs = np.linalg.eigh((ham + ham.conj().T) / 2.0)
    psi = np.exp(
        -((box - x_center) ** 2) / (4.0 * sigma_x**2) + 2j * math.pi * p_center * box / h
    )
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2)) * dx)
    psi = vecs @ (np.exp(-1j * energy * t / hbar) * (vecs.conj().T @ psi))
    offsets = np.arange(-n, n)
    rows = np.arange(n)[:, None] + n // 2  # the x grid's points in the box
    pairs = psi[(rows + offsets) % box.size].conj() * psi[(rows - offsets) % box.size]
    phases = np.exp(4j * math.pi * np.outer(offsets * dx, p) / h)
    return (2.0 * dx / h) * (pairs @ phases).real
