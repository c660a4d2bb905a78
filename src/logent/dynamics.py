"""Finite-dimensional dynamics that conserve total probability and information.

The probability vector rotates: dp/dt = rate * M p with M antisymmetric and
all row and column sums zero.  Antisymmetry makes p.(Mp) = 0, so the norm
(and with it the information) is constant; zero column sums make
sum((Mp)_i) = 0, so the total probability is constant.

Time stepping uses the Cayley transform of the generator,

    p_{k+1} = (I - (dt/2) G)^{-1} (I + (dt/2) G) p_k,    G = rate * M,

the implicit midpoint rule for a linear system.  The Cayley matrix of a
skew G is exactly orthogonal and fixes the unit-sum hyperplane, so both
invariants are conserved to round-off at every step whose reach
(dt/2) max|G| is at most _grid.MAX_CAYLEY_REACH (a coarser step is refused:
the round-off grows with the reach); below that the step size controls the
phase accuracy against exp(tG).
"""
from __future__ import annotations

import functools
import logging
import math
from dataclasses import FrozenInstanceError

import numpy as np

from ._csv import read_csv, write_csv
from ._grid import (
    DEFAULT_STEP_ANGLE, MAX_POINTS, RunRecord, cayley_power, count, finite, real_array, steps,
)
from .errors import DimensionMismatchError, DomainError, GridError
from .vectors import SignedProbVector

MARGINAL_TOL = 1e-12

_log = logging.getLogger("logent")


class GeneratorMatrix:
    """Antisymmetric zero-marginal generator with a separate rate scale.

    Every constructor stores one n x n array, the full matrix, read-only,
    with the rate, through one checked path, _settle: the public constructor
    takes the strictly upper triangle and stores upper - upper.T,
    antisymmetric by construction, and random_generator and from_dense
    store the exactly antisymmetric matrix they build.  upper is
    triu(matrix, 1), formed read-only on its first read and kept; it is the
    given triangle and upper - upper.T is matrix, bit for bit, unless a
    -0.0 was given at or below the diagonal.  Row and column sums must
    vanish within 1e-12.  Instances are read-only.
    """

    def __init__(self, upper, rate: float = 1.0):
        arr = real_array(upper, "generator entries")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DomainError("generator storage must be square")
        self._settle(arr, rate, triangle=True)

    def _settle(self, arr: np.ndarray, rate, triangle: bool = False) -> None:
        """Check and store: n >= 2 and a finite rate; then, for the public
        constructor's triangle, strictly upper storage, reflected into
        arr - arr.T; then the row sums of the full matrix, stored read-only."""
        if arr.shape[0] < 2:
            raise DomainError("generator needs dimension >= 2")
        object.__setattr__(self, "rate", finite(rate, "rate"))
        if triangle:
            if np.any(np.tril(arr) != 0.0):
                raise DomainError("canonical storage must be strictly upper triangular")
            arr = arr - arr.T
        with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: refused just below
            sums = arr.sum(axis=1)
        if not float(np.max(np.abs(sums))) <= MARGINAL_TOL:
            raise DomainError(
                f"row sums reach {np.max(np.abs(sums)):.3e}, exceed {MARGINAL_TOL:g}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @classmethod
    def _exact(cls, full: np.ndarray, rate: float) -> "GeneratorMatrix":
        """The generator of a full matrix built in this module exactly
        antisymmetric, with a +0.0 diagonal and no -0.0 below it, so that it
        equals upper - upper.T bit for bit: stored as it is.  Refuses, as the
        public constructor does, n < 2, a non-finite rate and row sums
        beyond MARGINAL_TOL."""
        g = object.__new__(cls)
        g._settle(full, rate)
        return g

    def __setattr__(self, name, *value):  # and __delattr__: no field changes after _settle
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"GeneratorMatrix(upper={self.upper!r}, rate={self.rate!r})"

    @functools.cached_property
    def upper(self) -> np.ndarray:  # read-only, formed on the first read
        upper = np.triu(self.matrix, 1)
        upper.setflags(write=False)
        return upper

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_dense(cls, m, rate: float = 1.0) -> "GeneratorMatrix":
        arr = real_array(m, "generator entries")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DomainError("generator must be square")
        with np.errstate(over="ignore"):  # an inf sum or difference is refused below
            # a 0 x 0 matrix has nothing to compare: _exact refuses it as n < 2
            if arr.size and float(np.max(np.abs(arr + arr.T))) > MARGINAL_TOL:
                raise DomainError("matrix is not antisymmetric within 1e-12")
            skew = (arr - arr.T) / 2.0
        if not np.all(np.isfinite(skew)):  # arr - arr.T overflowed
            raise DomainError("generator entries must be finite and real")
        # a -0.0 below the diagonal is +0.0 in upper - upper.T
        np.add(skew, 0.0, out=skew, where=np.tri(len(skew), k=-1, dtype=bool))
        return cls._exact(skew, rate)


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
    numpy.random.default_rng(seed) (PCG64), antisymmetrizes it to A, and
    projects both sides with P = I - 1 1^T / n.  With r = A 1 / n the row
    means of A, antisymmetry gives 1^T A = -n r^T and 1^T r = 0, so
    P A P = A - r 1^T + 1 r^T: formed entrywise in O(n^2), with no dense
    product, and exactly antisymmetric.  Its rows sum to n r - n r +
    (1^T r) 1 = 0, and its columns, by antisymmetry, too.
    """
    n, seed = count(n, "n", 2, high=math.isqrt(MAX_POINTS)), count(seed, "seed", 0)  # n^2 points
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=(n, n))
    skew = a - a.T
    del a
    skew /= 2.0
    r = skew.mean(axis=1)
    skew += r - r[:, None]
    return GeneratorMatrix._exact(skew, rate)


def _norm_bracket(g: GeneratorMatrix, t: float, m_max: float) -> float | None:
    """A lower bound lo of |G|_2 at which the default rule cuts t != 0 into
    the n steps it cuts at eigvalsh's |G|_2, or None where that is not
    decided.

    n = steps(t, None, r)[0] never falls as r grows, so every r between lo
    and an upper bound hi of |G|_2 gives one n once lo and hi do.  |rate|
    |My| / |y| is a lower bound for any y != 0, even where round-off has
    bent y away from the vector meant; y = z^T V is the top Ritz vector of
    S = M^T M from min(16, n) steps of the Lanczos recurrence (Paige,
    J. Inst. Math. Appl. 10 (1972) 373), V its vectors and z the top
    eigenvector of its tridiagonal matrix.  The recurrence starts from the
    column of S at M's largest column and stops early where the Krylov
    space closes: where the new vector's length falls to 2^-26 of the
    largest Rayleigh quotient so far, the space is invariant under S to
    round-off.  hi is the top of lo's ceiling interval, and one Cholesky
    factorization of (hi / |rate|)^2 I - S, formed in S's own array, proves
    |G|_2 < hi (Rump, BIT Numer. Math. 46 (2006) 433).  Both are pulled
    inward by tol = max(1e-9, 4 n^2 eps), and hi is checked at
    hi (1 + tol / 2): room for the round-off of S, of the Cholesky and of
    eigvalsh, each under n^2 eps of |G|_2.  None for a zero rate, unless
    1e-100 <= max|M| <= 1e100 (so that no square over- or underflows), and
    where steps refuses a bound or the Cholesky fails.
    """
    rate = abs(g.rate)
    if not (1e-100 <= m_max <= 1e100 and rate > 0.0):
        return None
    mat, size = g.matrix, g.n
    s = mat.T @ mat  # numpy's symmetric rank-k product: exactly symmetric
    v = np.empty((min(16, size), size))  # the Lanczos vectors, a vector per row
    tri = np.zeros((len(v), len(v)))  # their tridiagonal matrix, lower triangle
    col = s[:, np.argmax(np.diagonal(s))]  # nonzero: its own entry is |M e_j|^2
    v[0] = col / math.sqrt(col @ col)
    top = 0.0  # the largest Rayleigh quotient so far: the scale of S
    for j in range(len(v)):
        w = s @ v[j]
        if j:
            w -= tri[j, j - 1] * v[j - 1]
        tri[j, j] = alpha = v[j] @ w
        top = max(top, alpha)
        if j + 1 == len(v):
            break
        w -= alpha * v[j]
        beta = math.sqrt(w @ w)
        if not beta > 2.0**-26 * top:  # the space is closed, to round-off
            break
        tri[j + 1, j] = beta
        np.divide(w, beta, out=v[j + 1])
    k = j + 1
    y = np.linalg.eigh(tri[:k, :k])[1][:, -1] @ v[:k]  # S's top Ritz vector
    my = mat @ y
    tol = max(1e-9, 4.0 * size * size * np.finfo(float).eps)
    lo = rate * math.sqrt((my @ my) / (y @ y)) * (1.0 - tol)
    try:
        n = steps(t, None, lo)[0]
        # the largest r with ceil(|t| r / angle - 1e-12) = n, pulled inward
        hi = DEFAULT_STEP_ANGLE * (n + 1e-12) / abs(t) * (1.0 - tol)
        if not lo < hi or steps(t, None, hi * (1.0 + tol / 2.0))[0] != n:
            return None
    except DomainError:
        return None
    h = hi / rate
    if not math.isfinite(h * h):
        return None
    np.negative(s, out=s)
    s.flat[:: size + 1] += h * h  # (hi / |rate|)^2 I - M^T M, in place
    try:
        np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        return None
    return lo


def _propagator(g: GeneratorMatrix, t: float, dt: float | None) -> np.ndarray:
    """Cayley propagator over time t in equal steps of at most dt.

    The default dt advances the fastest phase, of rate |G|_2, by 0.1 rad
    per step, so |G|_2 acts only through n = steps(t, None, |G|_2)[0].
    _norm_bracket decides that n, exactly, from one symmetric product
    M^T M: a lower bound from at most 16 Lanczos steps on it and one
    Cholesky factorization of its shifted negative; step = t / n.  Where it
    does not, or when the "logent" logger is enabled for DEBUG, |G|_2 is
    the square root of the largest eigenvalue of the symmetric G^T G, from
    one eigvalsh and no SVD; G is divided by m = max|G| first, so no square
    overflows or underflows, and |G|_2 = m sqrt(lambda_max).  t = 0 takes
    no step and needs no |G|_2.  It reads the generator's matrix and rate
    alone, so its upper triangle is never formed here.  Every M, circulant
    or not, goes to the dense cayley_power with the rate, never as
    G = rate * M, so only H, I - H and I + H are formed there.  The step
    decision is logged at DEBUG level, with its decider and eigvalsh's
    |G|_2.  Raises DomainError for a non-finite t or dt, a non-positive dt,
    a t/dt that overflows, a default step whose |G|_2 overflows, a step
    beyond the Cayley reach bound and, before any n x n array is formed, a
    rate * max|M| beyond the float range.
    """
    m_max = float(g.matrix.max())  # max|M|: an antisymmetric M holds -x wherever it holds x
    m = abs(g.rate) * m_max  # max|G| to the bit: rounding a product is monotone
    if not math.isfinite(m):
        raise DomainError(f"rate * max|M| = {g.rate!r} * {m_max!r} is beyond the float range")
    rule, norm, bound = "caller's dt", None, None
    if dt is None:
        t = finite(t, "t")
        bound = _norm_bracket(g, t, m_max) if t else 0.0  # t = 0: no step at any rate
        decider = "no step" if not t else "eigvalsh" if bound is None else "certified"
        rule = f"default, {DEFAULT_STEP_ANGLE:g} rad per step ({decider})"
    if dt is None and t and (bound is None or _log.isEnabledFor(logging.DEBUG)):
        unit = np.eye(1)  # |G|_2 = m = 0 for the zero generator
        if m > 0.0:
            unit = g.rate * g.matrix
            unit /= m  # G / m, the bits of (rate * M) / m, in one array
        norm = m * math.sqrt(np.linalg.eigvalsh(unit.T @ unit)[-1])
        del unit  # n x n, not held while cayley_power runs
    n, step = steps(t, dt, bound if norm is None else norm, rate_name="|G|_2")
    _log.debug("fd step rule: %s; %d steps of %.6g, |G|_2 %s", rule, n, step, norm)
    return cayley_power(g.matrix, step, n, g.rate)


def evolve(p0: SignedProbVector, g: GeneratorMatrix, t: float, dt: float | None = None) -> SignedProbVector:
    """State at time t under dp/dt = rate * M p, via Cayley steps.

    dt is the internal step size; by default it is chosen so that
    |G| * dt <= 0.1.  Conservation of sum and information holds to
    round-off for any dt up to the Cayley reach bound, (dt/2) max|G| <= 100;
    smaller steps only tighten agreement with the exact exponential.
    Raises DomainError for a non-finite t or dt, a non-positive dt, a dt
    beyond the reach bound and a default dt whose |G|_2 overflows.
    """
    if p0.n != g.n:
        raise DimensionMismatchError(f"state has n = {p0.n}, generator n = {g.n}")
    return SignedProbVector(_propagator(g, t, dt) @ p0.entries)


def trajectory(p0: SignedProbVector, g: GeneratorMatrix, t_end: float, dt: float) -> RunRecord:
    """Sample the evolution up to t_end (backward for a negative t_end) in
    the n = ceil(|t_end| / dt) equal steps of steps(t_end, dt), so dt is the
    largest sample spacing; the record holds the states and the drifts
    probability_drift = |sum p(t) - 1| and information_drift = |I(t) - I(0)|
    at every sample.

    Every sample applies the same propagator over t_end / n, built once with
    the default step rule.  Raises DomainError for a non-finite t_end, a
    non-finite or non-positive dt and more than MAX_STEPS samples.
    """
    if p0.n != g.n:
        raise DimensionMismatchError(f"state has n = {p0.n}, generator n = {g.n}")
    n, step = steps(t_end, dt)
    info0 = p0.information
    propagator = _propagator(g, step, None)
    states = [p0]
    for _ in range(n):
        states.append(SignedProbVector(propagator @ states[-1].entries))
    drifts = [(abs(s.total - 1.0), abs(s.information - info0)) for s in states]
    times = np.arange(n + 1) * step + 0.0  # + 0.0: t = 0, not -0, for negative t
    return RunRecord(times, np.array(drifts), ("probability_drift", "information_drift"), states)


@functools.lru_cache(maxsize=4)
def _header(n: int) -> tuple:  # the trajectory CSV's header line and fields for n outcomes
    fields = ("t", *(f"p_{i}" for i in range(n)), "sum_drift", "info_drift")
    return ",".join(fields), fields


def write_trajectory_csv(rec: RunRecord, path) -> None:
    """CSV with columns t, p_0..p_{n-1}, sum_drift, info_drift at 15
    significant digits; DomainError, before any file is made, for a record
    without the finite engine's drift columns and states."""
    if rec.columns != ("probability_drift", "information_drift") or rec.states is None:
        raise DomainError(f"not a trajectory run record: columns {rec.columns}")
    values = np.column_stack([[s.entries for s in rec.states], rec.diagnostics])
    write_csv(path, _header(rec.states[0].n)[0], [rec.times], values, 15)


def read_trajectory_csv(path) -> dict:
    """Read a trajectory CSV back into arrays (times, states, drifts);
    GridError for malformed content or a header other than t, p_0..p_{n-1},
    sum_drift, info_drift with n >= 2."""
    header, data = read_csv(path, "trajectory")
    if len(header) < 5 or tuple(header) != _header(len(header) - 3)[1]:
        raise GridError("not a trajectory CSV")
    return {
        "times": data[:, 0],
        "states": data[:, 1:-2],
        "probability_drift": data[:, -2],
        "information_drift": data[:, -1],
    }
