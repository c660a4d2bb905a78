"""Randomized property checks shared by the property and acceptance suites.

Each function runs a batch of seeded randomized checks and returns
(checks_run, failures); the callers assert failures == 0.
"""
from __future__ import annotations

import math
import warnings

import numpy as np

from logent import (
    DensityGrid,
    GeneratorMatrix,
    LogentError,
    ObservableConstraint,
    PotentialSpec,
    SignedProbVector,
    WignerGrid,
    build_kernel,
    classify,
    cyclic_generator3,
    delta_localized_evolve,
    density_run,
    distance,
    equilibrium,
    evolve,
    evolve_density,
    evolve_density_timestepped,
    feasibility_radii,
    gaussian_density,
    gaussian_pure_wigner,
    higher_moment,
    information,
    logical_entropy,
    negative_orthonormal_basis,
    omega_quartic,
    pair_outcome_probability,
    random_generator,
    scalar_product,
    shannon_entropy,
    solve_n2,
    solve_n3,
    trajectory,
    uniform_density,
    wigner_evolve,
    wigner_run,
)
from logent._grid import MAX_POINTS


def random_unit_sum(rng: np.random.Generator, n: int, batch: int) -> np.ndarray:
    """Rows are random real vectors with unit sum (any information)."""
    out = np.empty((batch, n))
    filled = 0
    while filled < batch:
        x = rng.standard_normal((batch, n))
        sums = x.sum(axis=1)
        keep = np.abs(sums) > 0.3
        x = x[keep] / sums[keep, None]
        take = min(batch - filled, x.shape[0])
        out[filled : filled + take] = x[:take]
        filled += take
    return out


def random_admissible(rng: np.random.Generator, n: int, batch: int) -> np.ndarray:
    """Rows are unit-sum vectors with 1/n <= I <= 1, uniform in radius."""
    d = rng.standard_normal((batch, n))
    d -= d.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(d, axis=1, keepdims=True)
    norms[norms < 1e-12] = 1.0
    d /= norms
    r2 = rng.uniform(1.0 / n, 1.0, size=(batch, 1))
    rho = np.sqrt(r2 - 1.0 / n)
    return 1.0 / n + rho * d


def check_complement_identity(n_checks: int, seed: int) -> tuple[int, int]:
    """S + I = 1 to round-off for arbitrary unit-sum vectors."""
    rng = np.random.default_rng(seed)
    done = failures = 0
    per_dim = n_checks // 15 + 1
    for n in range(2, 17):
        rows = random_unit_sum(rng, n, per_dim)
        info = np.einsum("ij,ij->i", rows, rows)
        s = 1.0 - info
        failures += int(np.sum(np.abs(s + info - 1.0) > 1e-15))
        done += rows.shape[0]
        if done >= n_checks:
            break
    return done, failures


def check_information_floor(n_checks: int, seed: int) -> tuple[int, int]:
    """I >= 1/n for admissible unit-sum vectors; equality only when uniform."""
    rng = np.random.default_rng(seed)
    done = failures = 0
    per_dim = n_checks // 15 + 1
    for n in range(2, 17):
        rows = random_admissible(rng, n, per_dim)
        info = np.einsum("ij,ij->i", rows, rows)
        failures += int(np.sum(info < 1.0 / n - 1e-12))
        # strictly above the floor whenever the vector is not uniform
        off_uniform = np.max(np.abs(rows - 1.0 / n), axis=1) > 1e-6
        failures += int(np.sum(off_uniform & (info <= 1.0 / n)))
        done += rows.shape[0]
        if done >= n_checks:
            break
    return done, failures


def check_law_of_cosines(n_checks: int, seed: int) -> tuple[int, int]:
    """d(p,q)^2 = I(p) + I(q) - 2 p.q for arbitrary unit-sum vectors."""
    rng = np.random.default_rng(seed)
    done = failures = 0
    per_dim = n_checks // 15 + 1
    for n in range(2, 17):
        p = random_unit_sum(rng, n, per_dim)
        q = random_unit_sum(rng, n, per_dim)
        d2 = np.einsum("ij,ij->i", p - q, p - q)
        rhs = (
            np.einsum("ij,ij->i", p, p)
            + np.einsum("ij,ij->i", q, q)
            - 2.0 * np.einsum("ij,ij->i", p, q)
        )
        scale = np.maximum(1.0, np.abs(rhs))
        failures += int(np.sum(np.abs(d2 - rhs) > 1e-12 * scale))
        done += p.shape[0]
        if done >= n_checks:
            break
    return done, failures


def check_generator_tangency(n_checks: int, seed: int) -> tuple[int, int]:
    """sum((Mp)_i) = 0 and p.(Mp) = 0 for zero-marginal antisymmetric M."""
    rng = np.random.default_rng(seed)
    done = failures = 0
    generators = [cyclic_generator3().matrix] + [
        random_generator(int(n), seed=int(1000 + k)).matrix
        for k, n in enumerate(rng.integers(2, 12, size=40))
    ]
    per_gen = n_checks // len(generators) + 1
    for mat in generators:
        n = mat.shape[0]
        p = rng.standard_normal((per_gen, n))
        mp = p @ mat.T
        col_sums = mp.sum(axis=1)
        quad = np.einsum("ij,ij->i", p, mp)
        scale = np.maximum(1.0, np.einsum("ij,ij->i", p, p))
        failures += int(np.sum(np.abs(col_sums) > 1e-12 * np.maximum(1.0, np.abs(p).max())))
        failures += int(np.sum(np.abs(quad) > 1e-12 * scale))
        done += per_gen
        if done >= n_checks:
            break
    return done, failures


def check_classification_invariance(n_checks: int, seed: int) -> tuple[int, int]:
    """Evolution never changes the state class (radius is conserved)."""
    rng = np.random.default_rng(seed)
    done = failures = 0
    while done < n_checks:
        n = int(rng.integers(3, 8))
        gen = random_generator(n, seed=int(rng.integers(0, 2**31)))
        if rng.random() < 0.5:
            entries = random_admissible(rng, n, 1)[0]
        else:
            # pure state: walk to radius 1 from the uniform center
            d = rng.standard_normal(n)
            d -= d.mean()
            d /= np.linalg.norm(d)
            entries = 1.0 / n + math.sqrt(1.0 - 1.0 / n) * d
        p0 = SignedProbVector(entries)
        before = classify(p0)
        after = classify(evolve(p0, gen, float(rng.uniform(0.1, 20.0))))
        if after is not before:
            failures += 1
        done += 1
    return done, failures


def check_n3_sign_pattern(seed: int) -> tuple[int, int]:
    """Theta sweeps at the three landmark radii reproduce the sign pattern:
    negatives appear only above 1/sqrt(2), nothing exists below 1/sqrt(3)."""
    thetas = np.linspace(0.0, 2.0 * math.pi, 10_000, endpoint=False)
    done = failures = 0
    r_pos = 1.0 / math.sqrt(2.0)
    for radius, expect_negative in ((1.0 / math.sqrt(3.0), False), (r_pos, False), (1.0, True)):
        mins = np.array([solve_n3(radius, t).entries.min() for t in thetas])
        has_negative = bool(np.min(mins) < -1e-9)
        if has_negative is not expect_negative:
            failures += 1
        done += thetas.size
    return done, failures


def _bad_real(rng: np.random.Generator) -> float:
    """A random non-finite, zero or negative number."""
    choices = (math.nan, math.inf, -math.inf, 0.0, -float(10.0 ** rng.uniform(-3.0, 1.0)))
    return choices[int(rng.integers(len(choices)))]


def _tiny(rng: np.random.Generator) -> float:
    """A random positive step far too small for a unit time span."""
    return float(10.0 ** -rng.uniform(10.0, 300.0))


def _not_real(rng: np.random.Generator):
    """A random value that is not a finite real number at all."""
    choices = ("a", None, 1j, [1.0, 2.0], 10**400, float(10.0 ** rng.uniform(155.0, 308.0)))
    return choices[int(rng.integers(len(choices)))]


def _bad_size(rng: np.random.Generator) -> int:
    """A random zero or negative grid or vector size."""
    return -int(rng.integers(0, 5))


def _huge_size(rng: np.random.Generator) -> int:
    """A random size beyond MAX_POINTS, or its negative, from just past it
    to 6,000 digits (str() converts at most 4,300); every size argument must
    refuse it before allocating anything, and every index as out of range."""
    size = MAX_POINTS + 1 + 2 ** int(rng.integers(0, 20_000))
    return size if rng.random() < 0.5 else -size


def _not_count(rng: np.random.Generator):
    """A random value that is not an integer (a bool is not one)."""
    choices = ("a", None, 2.5, True, 1j)
    return choices[int(rng.integers(len(choices)))]


def _not_array(rng: np.random.Generator):
    """A random value that is not an array of real numbers: a string, a ragged
    nesting, a complex entry or an int beyond the float range."""
    choices = ("ab", [[0.5, 0.5], 0.5], [0.5 + 1j, 0.5], [10**400, 0.0])
    return choices[int(rng.integers(len(choices)))]


def _bad_omega(rng: np.random.Generator):
    """A random frequency function whose values are not one finite real
    number per point: complex, strings, the wrong length or rank, a scalar,
    or finite values whose difference overflows."""
    choices = (
        lambda z: z * 1j,
        lambda z: z.astype(str),
        lambda z: z[:-1],
        lambda z: np.ones(3),
        lambda z: np.outer(z, z),
        lambda z: 1.0,
        lambda z: [float(v) for v in z] + [0.0],
        lambda z: np.where(z > 0.0, 1e308, -1e308),
    )
    return choices[int(rng.integers(len(choices)))]


def _pair_in_range(p, i, j):
    """pair_outcome_probability, with its documented IndexError for an index
    out of range taken as a refusal."""
    try:
        return pair_outcome_probability(p, i, j)
    except IndexError:
        return None


def check_boundary_errors(n_checks: int, seed: int) -> tuple[int, int]:
    """Non-finite, zero and negative sizes, spacings, times, steps and
    tolerances, sizes beyond MAX_POINTS, non-numeric or overflowing scalars
    (profile parameters, times, steps, tolerances, lengths, widths, centres
    and h), non-integer counts (sizes, seeds, indices, samples, orders),
    non-real arrays and indices beyond MAX_POINTS, each fed to one argument
    of a public constructor or engine or returned by a frequency function
    (as are complex, string and misshapen arrays), raise nothing but
    LogentError, or the IndexError documented for an index out of range (the
    call may also succeed: a negative t or a zero tol is valid)."""
    rng = np.random.default_rng(seed)
    p = SignedProbVector(np.array([0.5, 0.3, 0.2]))
    gen = cyclic_generator3()
    x = np.array([-1.0, 0.0, 1.0])
    f = gaussian_density(16, 8.0, 1.0, 0.3)
    kern = build_kernel(PotentialSpec.harmonic(1.0).evaluate, 0.5, f)
    w = gaussian_pure_wigner(8, 8, 8.0, 8.0, 0.3)
    pot = PotentialSpec.harmonic(1.0)
    real, size = _bad_real, _bad_size
    cases = [  # (how to draw the bad value, the call that takes it)
        (real, lambda v: SignedProbVector(np.array([v, 0.5, 0.5]))),
        (real, lambda v: classify(p, tol=v)),
        (size, lambda v: feasibility_radii(v)),
        (size, lambda v: negative_orthonormal_basis(v)),
        (real, lambda v: solve_n2(v)),
        (real, lambda v: solve_n3(v, 0.0)),
        (real, lambda v: solve_n3(0.8, v)),
        (real, lambda v: ObservableConstraint(x, target_mean=v)),
        (real, lambda v: equilibrium(ObservableConstraint(x * v, target_mean=0.1))),
        (size, lambda v: random_generator(v, 0)),
        (size, lambda v: random_generator(3, v)),
        (real, lambda v: random_generator(3, 0, rate=v)),
        (real, lambda v: evolve(p, GeneratorMatrix(gen.upper, rate=v), 1.0)),
        (real, lambda v: evolve(p, gen, v)),
        (real, lambda v: evolve(p, gen, 1.0, dt=v)),
        (real, lambda v: trajectory(p, gen, v, 0.1)),
        (real, lambda v: trajectory(p, gen, 1.0, v)),
        (_tiny, lambda v: evolve(p, gen, 1.0, dt=v)),
        (_tiny, lambda v: evolve_density_timestepped(f, kern, 1.0, v)),
        (real, lambda v: PotentialSpec.harmonic(v)),
        (real, lambda v: PotentialSpec("quartic", (v,))),
        (real, lambda v: PotentialSpec.tabulated([0.0, v, 2.0], [0.0, 1.0, 2.0])),
        (real, lambda v: PotentialSpec.tabulated([0.0, 1.0], [0.0, v])),
        (_not_real, lambda v: PotentialSpec("quartic", (v,))),
        (_not_real, lambda v: PotentialSpec("quartic", v)),
        (_not_real, lambda v: PotentialSpec.tabulated([v, 1.0], [0.0, 1.0])),
        (_not_real, lambda v: PotentialSpec.quartic(v)),
        (_not_real, lambda v: PotentialSpec.harmonic(v)),
        (_not_real, lambda v: PotentialSpec.harmonic(1.0, mass=v)),
        (_not_real, lambda v: omega_quartic(v)),
        (real, lambda v: DensityGrid(f.values, f.z0, v, f.h)),
        (real, lambda v: DensityGrid(f.values, v, f.dz, f.h)),
        (real, lambda v: DensityGrid(f.values, f.z0, f.dz, v)),
        (size, lambda v: uniform_density(v, 8.0, 1.0)),
        (real, lambda v: uniform_density(16, v, 1.0)),
        (real, lambda v: uniform_density(16, 8.0, v)),
        (size, lambda v: gaussian_density(v, 8.0, 1.0, 0.3)),
        (real, lambda v: gaussian_density(16, v, 1.0, 0.3)),
        (real, lambda v: gaussian_density(16, 8.0, v, 0.3)),
        (real, lambda v: gaussian_density(16, 8.0, 1.0, v)),
        (real, lambda v: build_kernel(pot.evaluate, v, f)),
        (real, lambda v: evolve_density(f, kern, v)),
        (real, lambda v: evolve_density_timestepped(f, kern, v, 0.1)),
        (real, lambda v: evolve_density_timestepped(f, kern, 1.0, v)),
        (real, lambda v: delta_localized_evolve(f, pot, v, 1.0)),
        (real, lambda v: delta_localized_evolve(f, pot, 0.5, v)),
        (real, lambda v: WignerGrid(w.values, w.x0, v, w.p0, w.dp, w.h, w.mass)),
        (real, lambda v: WignerGrid(w.values, w.x0, w.dx, w.p0, w.dp, v, w.mass)),
        (real, lambda v: WignerGrid(w.values, w.x0, w.dx, w.p0, w.dp, w.h, v)),
        (size, lambda v: gaussian_pure_wigner(v, 8, 8.0, 8.0, 0.3)),
        (size, lambda v: gaussian_pure_wigner(8, v, 8.0, 8.0, 0.3)),
        (real, lambda v: gaussian_pure_wigner(8, 8, v, 8.0, 0.3)),
        (real, lambda v: gaussian_pure_wigner(8, 8, 8.0, v, 0.3)),
        (real, lambda v: gaussian_pure_wigner(8, 8, 8.0, 8.0, v)),
        (real, lambda v: gaussian_pure_wigner(8, 8, 8.0, 8.0, 0.3, h=v)),
        (real, lambda v: gaussian_pure_wigner(8, 8, 8.0, 8.0, 0.3, mass=v)),
        (size, lambda v: higher_moment(w, v)),
        (real, lambda v: wigner_evolve(w, PotentialSpec.harmonic(v), 1.0)),
        (real, lambda v: wigner_evolve(w, pot, v)),
        (real, lambda v: wigner_evolve(w, pot, 1.0, dt=v)),
        (real, lambda v: wigner_run(w, pot, v)),
        (real, lambda v: wigner_run(w, pot, 1.0, dt=v)),
        (_not_real, lambda v: classify(p, tol=v)),
        (_not_real, lambda v: solve_n2(v)),
        (_not_real, lambda v: random_generator(3, 0, rate=v)),
        (_not_real, lambda v: trajectory(p, gen, 1.0, v)),
        (_not_real, lambda v: build_kernel(pot.evaluate, v, f)),
        (real, lambda v: build_kernel(lambda z: v, 0.5, f)),
        (real, lambda v: build_kernel(lambda z: z * v, 0.5, f)),
        (_not_real, lambda v: build_kernel(lambda z: v, 0.5, f)),
        (_not_array, lambda v: build_kernel(lambda z: v, 0.5, f)),
        (_bad_omega, lambda v: build_kernel(v, 0.5, f)),
        (_not_real, lambda v: delta_localized_evolve(f, pot, v, 1.0)),
        (_not_real, lambda v: solve_n3(v, 0.0)),
        (_not_real, lambda v: solve_n3(0.8, v)),
        (_not_real, lambda v: ObservableConstraint(x, target_mean=v)),
        (_not_real, lambda v: evolve(p, gen, v)),
        (_not_real, lambda v: evolve(p, gen, 1.0, dt=v)),
        (_not_real, lambda v: trajectory(p, gen, v, 0.1)),
        (_not_real, lambda v: gaussian_density(16, 8.0, 1.0, v)),
        (_not_real, lambda v: gaussian_density(16, 8.0, 1.0, 0.3, center=v)),
        (_not_real, lambda v: evolve_density(f, kern, v)),
        (_not_real, lambda v: delta_localized_evolve(f, pot, 0.5, v)),
        (_not_real, lambda v: uniform_density(16, v, 1.0)),
        (_not_real, lambda v: gaussian_density(16, v, 1.0, 0.3)),
        (_not_real, lambda v: gaussian_density(16, 8.0, v, 0.3)),
        (_not_real, lambda v: gaussian_pure_wigner(8, 8, v, 8.0, 0.3)),
        (_not_real, lambda v: gaussian_pure_wigner(8, 8, 8.0, v, 0.3)),
        (_not_real, lambda v: gaussian_pure_wigner(8, 8, 8.0, 8.0, v)),
        (_not_real, lambda v: gaussian_pure_wigner(8, 8, 8.0, 8.0, 0.3, h=v)),
        (_not_real, lambda v: gaussian_pure_wigner(8, 8, 8.0, 8.0, 0.3, x_center=v)),
        (_not_real, lambda v: gaussian_pure_wigner(8, 8, 8.0, 8.0, 0.3, p_center=v)),
        (_not_real, lambda v: WignerGrid(w.values, w.x0, w.dx, w.p0, w.dp, w.h, v)),
        (_not_real, lambda v: wigner_evolve(w, pot, v)),
        (_not_real, lambda v: wigner_evolve(w, pot, 1.0, dt=v)),
        (_not_real, lambda v: wigner_run(w, pot, v)),
        (_not_count, lambda v: feasibility_radii(v)),
        (_not_count, lambda v: negative_orthonormal_basis(v)),
        (_not_count, lambda v: random_generator(v, 0)),
        (_not_count, lambda v: random_generator(3, v)),
        (_not_count, lambda v: pair_outcome_probability(p, v, 0)),
        (_not_count, lambda v: pair_outcome_probability(p, 0, v)),
        (_not_count, lambda v: density_run(f, kern, 1.0, v)),
        (_not_count, lambda v: higher_moment(w, v)),
        (_not_count, lambda v: uniform_density(v, 8.0, 1.0)),
        (_not_count, lambda v: gaussian_density(v, 8.0, 1.0, 0.3)),
        (_not_count, lambda v: gaussian_pure_wigner(v, 8, 8.0, 8.0, 0.3)),
        (_not_count, lambda v: gaussian_pure_wigner(8, v, 8.0, 8.0, 0.3)),
        (_not_array, lambda v: SignedProbVector(v)),
        (_not_array, lambda v: logical_entropy(v)),
        (_not_array, lambda v: information(v)),
        (_not_array, lambda v: shannon_entropy(v)),
        (_not_array, lambda v: scalar_product(p, v)),
        (_not_array, lambda v: scalar_product(v, p)),
        (_not_array, lambda v: distance(p, v)),
        (_not_array, lambda v: distance(v, p)),
        (_not_array, lambda v: classify(v)),
        (_not_array, lambda v: pair_outcome_probability(v, 0, 0)),
        (_not_array, lambda v: ObservableConstraint(v)),
        (_not_array, lambda v: GeneratorMatrix(v)),
        (_not_array, lambda v: GeneratorMatrix.from_dense(v)),
        (_not_array, lambda v: PotentialSpec.tabulated(v, [0.0, 1.0])),
        (_not_array, lambda v: PotentialSpec.tabulated([0.0, 1.0], v)),
        (_not_array, lambda v: DensityGrid(v, f.z0, f.dz, f.h)),
        (_not_array, lambda v: WignerGrid(v, w.x0, w.dx, w.p0, w.dp, w.h, w.mass)),
        (_huge_size, lambda v: feasibility_radii(v)),
        (_huge_size, lambda v: negative_orthonormal_basis(v)),
        (_huge_size, lambda v: random_generator(v, 0)),
        (_huge_size, lambda v: uniform_density(v, 8.0, 1.0)),
        (_huge_size, lambda v: gaussian_density(v, 8.0, 1.0, 0.3)),
        (_huge_size, lambda v: gaussian_pure_wigner(v, 8, 8.0, 8.0, 0.3)),
        (_huge_size, lambda v: gaussian_pure_wigner(8, v, 8.0, 8.0, 0.3)),
        (_huge_size, lambda v: density_run(f, kern, 1.0, v)),
        (_huge_size, lambda v: higher_moment(w, v)),
        (_huge_size, lambda v: _pair_in_range(p, v, 0)),
        (_huge_size, lambda v: _pair_in_range(p, 0, v)),
    ]
    done = failures = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # aliasing warnings for large steps
        while done < n_checks:
            draw, call = cases[done % len(cases)]
            try:
                call(draw(rng))
            except LogentError:
                pass
            except Exception:
                failures += 1
            done += 1
    return done, failures
