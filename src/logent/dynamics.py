"""Finite-dimensional dynamics that conserve total probability and information.

The probability vector rotates: dp/dt = rate * M p with M antisymmetric and
all row and column sums zero.  Antisymmetry makes p.(Mp) = 0, so the norm
(and with it the information) is constant; zero column sums make
sum((Mp)_i) = 0, so the total probability is constant.

Time stepping uses the Cayley transform of the generator,

    p_{k+1} = (I - (dt/2) G)^{-1} (I + (dt/2) G) p_k,    G = rate * M,

the implicit midpoint rule for a linear system.  The Cayley matrix of a
skew G is exactly orthogonal and fixes the unit-sum hyperplane, so both
invariants are conserved to round-off for any step size; the step size
only controls phase accuracy against exp(tG).
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from ._grid import (
    DEFAULT_STEP_ANGLE, MAX_POINTS, RunRecord, cayley_power, count, finite, read_csv, real_array,
    steps, write_csv,
)
from .errors import DimensionMismatchError, DomainError, GridError
from .vectors import SignedProbVector

MARGINAL_TOL = 1e-12

_log = logging.getLogger("logent")


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """Antisymmetric zero-marginal generator with a separate rate scale.

    The strictly upper triangle is the canonical storage; the full matrix is
    reconstructed as upper - upper.T, which is antisymmetric by construction.
    Row and column sums must vanish within 1e-12.
    """

    upper: np.ndarray
    rate: float = 1.0

    def __post_init__(self):
        arr = real_array(self.upper, "generator entries")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DomainError("generator storage must be square")
        if arr.shape[0] < 2:
            raise DomainError("generator needs dimension >= 2")
        object.__setattr__(self, "rate", finite(self.rate, "rate"))
        if np.any(np.tril(arr) != 0.0):
            raise DomainError("canonical storage must be strictly upper triangular")
        full = arr - arr.T
        sums = full.sum(axis=1)
        if float(np.max(np.abs(sums))) > MARGINAL_TOL:
            raise DomainError(
                f"row sums reach {np.max(np.abs(sums)):.3e}, exceed {MARGINAL_TOL:g}"
            )
        full.setflags(write=False)
        object.__setattr__(self, "upper", arr)
        object.__setattr__(self, "_full", full)

    @property
    def n(self) -> int:
        return self.upper.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """Full antisymmetric matrix, reflected from the upper triangle."""
        return self._full

    @classmethod
    def from_dense(cls, m, rate: float = 1.0) -> "GeneratorMatrix":
        arr = real_array(m, "generator entries")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DomainError("generator must be square")
        if float(np.max(np.abs(arr + arr.T))) > MARGINAL_TOL:
            raise DomainError("matrix is not antisymmetric within 1e-12")
        # symmetrize before extracting so the reflection is exact
        skew = (arr - arr.T) / 2.0
        return cls(upper=np.triu(skew, 1), rate=rate)


def cyclic_generator3() -> GeneratorMatrix:
    """The 3x3 cyclic antisymmetric generator with rate sqrt(3)/3.

    Its action is the cross product with the unit vector along (1,1,1):
    a rigid rotation of the probability vector about the uniform state at
    unit angular speed.
    """
    m = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
    return GeneratorMatrix.from_dense(m, rate=math.sqrt(3.0) / 3.0)


def random_generator(n: int, seed: int, rate: float = 1.0) -> GeneratorMatrix:
    """Seeded random antisymmetric zero-marginal generator.

    Draws an n x n matrix with entries uniform on [-1, 1] from
    numpy.random.default_rng(seed) (PCG64), antisymmetrizes it, and projects
    both sides with P = I - ones/n.  PAP keeps antisymmetry and has exactly
    zero row and column sums because P annihilates the constant vector.
    """
    n, seed = count(n, "n", 2, high=math.isqrt(MAX_POINTS)), count(seed, "seed", 0)  # n^2 points
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    skew = (a - a.T) / 2.0
    proj = np.eye(n) - np.full((n, n), 1.0 / n)
    return GeneratorMatrix.from_dense(proj @ skew @ proj, rate=rate)


def _propagator(g: GeneratorMatrix, t: float, dt: float | None) -> np.ndarray:
    """Cayley propagator over time t in equal steps of at most dt.

    The default dt advances the fastest phase, of rate |G|_2, by 0.1 rad
    per step.  The step decision is logged at DEBUG level on the "logent"
    logger, with |G|_2 when the default computes it.  Raises DomainError for
    a non-finite t or dt, a non-positive dt and a t/dt that overflows.
    """
    gen = g.rate * g.matrix
    rule, norm = "caller's dt", None
    if dt is None:
        rule, norm = f"default, {DEFAULT_STEP_ANGLE:g} rad per step", float(np.linalg.norm(gen, 2))
    n, step = steps(t, dt, norm or 0.0)
    _log.debug("fd step rule: %s; %d steps of %.6g, |G|_2 %s", rule, n, step, norm)
    return cayley_power(gen, step, n)


def evolve(p0: SignedProbVector, g: GeneratorMatrix, t: float, dt: float | None = None) -> SignedProbVector:
    """State at time t under dp/dt = rate * M p, via Cayley steps.

    dt is the internal step size; by default it is chosen so that
    |G| * dt <= 0.1.  Conservation of sum and information holds for any dt;
    smaller steps only tighten agreement with the exact exponential.
    Raises DomainError for a non-finite t or dt and a non-positive dt.
    """
    if p0.n != g.n:
        raise DimensionMismatchError(f"state has n = {p0.n}, generator n = {g.n}")
    return SignedProbVector(_propagator(g, t, dt) @ p0.entries)


def trajectory(p0: SignedProbVector, g: GeneratorMatrix, t_end: float, dt: float) -> RunRecord:
    """Sample the evolution at multiples of dt up to t_end; the record holds
    the states and the drifts probability_drift = |sum p(t) - 1| and
    information_drift = |I(t) - I(0)| at every sample.

    Every sample applies the same propagator over dt, built once.  Raises
    DomainError for a non-finite or negative t_end, a non-finite or
    non-positive dt and more than MAX_STEPS samples.
    """
    if p0.n != g.n:
        raise DimensionMismatchError(f"state has n = {p0.n}, generator n = {g.n}")
    steps(t_end, finite(dt, "dt"))  # finite: steps reads dt = None as "choose dt"
    if t_end < 0.0:
        raise DomainError("t_end must be nonnegative")
    info0 = p0.information
    n_samples = int(math.floor(t_end / dt + 1e-12))
    times = np.arange(n_samples + 1) * dt
    propagator = _propagator(g, dt, None)
    states = [p0]
    for _ in range(n_samples):
        states.append(SignedProbVector(propagator @ states[-1].entries))
    drifts = [(abs(s.total - 1.0), abs(s.information - info0)) for s in states]
    return RunRecord(times, np.array(drifts), ("probability_drift", "information_drift"), states)


def _header(n: int) -> list:  # the trajectory CSV's fields for n outcomes
    return ["t", *(f"p_{i}" for i in range(n)), "sum_drift", "info_drift"]


def write_trajectory_csv(rec: RunRecord, path) -> None:
    """CSV with columns t, p_0..p_{n-1}, sum_drift, info_drift at 15
    significant digits."""
    values = np.column_stack([[s.entries for s in rec.states], rec.diagnostics])
    write_csv(path, ",".join(_header(rec.states[0].n)), [rec.times], values, 15)


def read_trajectory_csv(path) -> dict:
    """Read a trajectory CSV back into arrays (times, states, drifts);
    GridError for malformed content or a header other than t, p_0..p_{n-1},
    sum_drift, info_drift with n >= 2."""
    header, data = read_csv(path, "trajectory")
    if len(header) < 5 or header != _header(len(header) - 3):
        raise GridError("not a trajectory CSV")
    return {
        "times": data[:, 0],
        "states": data[:, 1:-2],
        "probability_drift": data[:, -2],
        "information_drift": data[:, -1],
    }
