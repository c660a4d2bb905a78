"""Signed probability vectors, quadratic entropy, and feasibility geometry.

A signed probability vector is a real n-vector whose entries sum to one but
may individually be negative.  Two quadratic functionals organize the module:
the information I = sum(p_i^2), which is the squared Euclidean norm of the
vector, and its complement S = 1 - I, the quadratic (Gini-Simpson) entropy.
S is the probability that two independent draws from the distribution give
different outcomes; I is the probability that they coincide.

The unit-sum constraint is a hyperplane in R^n and the level sets of I are
spheres of radius R = sqrt(I).  Their intersections classify every state:

* R = 1: pure states.  Apart from the n certainty states e_i, every pure
  state carries at least one negative entry.
* 1/sqrt(n-1) < R < 1: mixed states; solutions with negative entries exist.
* 1/sqrt(n) <= R <= 1/sqrt(n-1): mixed states, all solutions nonnegative.
* R = 1/sqrt(n): only the uniform state.  Below it the set is empty.

Vectors with I > 1 are representable (tests use them as counterexamples)
but flagged inadmissible.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._grid import ADMISSIBLE_TOL, MAX_POINTS, Grid, _shown, count, finite
from .errors import DimensionMismatchError, DomainError, InadmissibleStateError, NoSolutionError

# Fixed orthonormal basis of the zero-sum plane used by solve_n3.  Any
# orthonormal pair spanning {x : sum(x) = 0} parametrizes the same circle;
# this one is pinned for reproducibility.
_PLANE_B1 = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
_PLANE_B2 = np.array([1.0, 1.0, -2.0]) / math.sqrt(6.0)


@dataclass(frozen=True, eq=False)
class SignedProbVector(Grid):
    """Real vector with unit entry sum; entries may be negative.

    The finite level of the grid core: one point per outcome, a unit cell
    and h = 1, so the information is sum(p_i^2).  Construction enforces
    finite real entries and |sum - 1| <= QUAD_TOL; I > 1 is not rejected but
    reported through :attr:`is_admissible`.  The floor I >= 1/n needs no
    check: by Cauchy-Schwarz I >= sum^2 / n >= (1 - 2e-9) / n.  entries is values.
    """

    values: np.ndarray

    h = 1.0
    _ERROR = DomainError

    def _check_shape(self, arr):
        if arr.ndim != 1:
            raise DomainError("entries must form a one-dimensional vector")
        if arr.size < 2:
            raise DomainError("need at least two outcomes")

    @property
    def entries(self) -> np.ndarray:
        return self.values

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def logical_entropy(self) -> float:
        return self.entropy

    @property
    def radius(self) -> float:
        return math.sqrt(self.information)

    def __len__(self) -> int:
        return self.values.size


class StateClass(enum.Enum):
    PURE = "pure"
    MIXED = "mixed"
    INADMISSIBLE = "inadmissible"


@dataclass(frozen=True)
class FeasibilityRadii:
    """The three radii bounding the admissible shells for n outcomes."""

    r_max: float
    r_pos: float
    r_min: float
    n: int
    negatives_possible: bool


def _coerce(p) -> SignedProbVector:
    return p if isinstance(p, SignedProbVector) else SignedProbVector(p)


def logical_entropy(p) -> float:
    """Quadratic entropy S = 1 - sum(p_i^2).

    The probability that two independent draws from p yield distinct
    outcomes.  Entries may be negative.
    """
    return _coerce(p).logical_entropy


def information(p) -> float:
    """Information I = sum(p_i^2), the exact complement of the entropy."""
    return _coerce(p).information


def shannon_entropy(p) -> float:
    """Shannon entropy -sum(p_i ln p_i), natural log.

    Defined only for nonnegative entries; zero entries contribute zero.
    Raises DomainError for signed input.
    """
    v = _coerce(p).entries
    if np.any(v < -1e-12):
        raise DomainError("Shannon entropy undefined for signed probabilities")
    v = np.where(v > 0.0, v, 0.0)
    terms = np.zeros_like(v)
    mask = v > 0.0
    terms[mask] = v[mask] * np.log(v[mask])
    return float(-terms.sum())


def scalar_product(p, q) -> float:
    """Euclidean scalar product sum(p_i q_i)."""
    pv, qv = _coerce(p), _coerce(q)
    if pv.n != qv.n:
        raise DimensionMismatchError(f"dimensions differ: {pv.n} vs {qv.n}")
    return float(pv.entries @ qv.entries)


def distance(p, q) -> float:
    """Euclidean distance sqrt(sum (p_i - q_i)^2)."""
    pv, qv = _coerce(p), _coerce(q)
    if pv.n != qv.n:
        raise DimensionMismatchError(f"dimensions differ: {pv.n} vs {qv.n}")
    return float(np.linalg.norm(pv.entries - qv.entries))


def classify(p, tol: float = ADMISSIBLE_TOL) -> StateClass:
    """Classify by information: pure (|I-1| <= tol), inadmissible (I > 1+tol),
    mixed otherwise.  DomainError unless tol is finite and nonnegative."""
    if not 0.0 <= finite(tol, "tol"):
        raise DomainError("tol must be finite and nonnegative")
    info = _coerce(p).information
    if info > 1.0 + tol:
        return StateClass.INADMISSIBLE
    if abs(info - 1.0) <= tol:
        return StateClass.PURE
    return StateClass.MIXED


def feasibility_radii(n: int) -> FeasibilityRadii:
    """Radii of the feasibility shells for n outcomes.

    r_max = 1 bounds admissible states, r_min = 1/sqrt(n) is the uniform
    state, and r_pos = 1/sqrt(n-1) separates the all-nonnegative shell from
    the one where negative entries occur.  For n = 2 that separation is
    vacuous (no admissible radius produces negative entries), recorded by
    negatives_possible = False; r_pos then degenerates to r_max.
    """
    n = count(n, "n", 2, high=MAX_POINTS)
    return FeasibilityRadii(
        r_max=1.0,
        r_pos=1.0 / math.sqrt(n - 1),
        r_min=1.0 / math.sqrt(n),
        n=n,
        negatives_possible=n >= 3,
    )


def solve_n2(r: float) -> tuple[SignedProbVector, SignedProbVector]:
    """Both two-outcome states with radius r: p = ((1 +/- s)/2, (1 -/+ s)/2)
    with s = sqrt(2 r^2 - 1).

    The two points coincide at r = sqrt(2)/2 (uniform state).  Below that
    radius the constraint set is empty; above r = 1 it is inadmissible.
    """
    r = finite(r, "r")
    if r > 1.0 + 1e-12:
        raise InadmissibleStateError(f"radius {r} exceeds 1")
    if r < math.sqrt(0.5) - 1e-12:
        raise NoSolutionError(f"no states exist with radius {r} < sqrt(2)/2")
    s = math.sqrt(max(2.0 * r * r - 1.0, 0.0))
    hi = (1.0 + s) / 2.0
    lo = (1.0 - s) / 2.0
    return (
        SignedProbVector(np.array([hi, lo])),
        SignedProbVector(np.array([lo, hi])),
    )


def solve_n3(r: float, theta: float) -> SignedProbVector:
    """Three-outcome state of radius r at angle theta on the feasibility circle.

    Returns c + rho * (cos(theta) b1 + sin(theta) b2) where c is the uniform
    state, rho = sqrt(r^2 - 1/3), and (b1, b2) is the fixed orthonormal basis
    of the zero-sum plane.  The result has unit sum and information r^2 to
    within 1e-12 by construction.
    """
    r, theta = finite(r, "r"), finite(theta, "theta")
    if r > 1.0 + 1e-12:
        raise InadmissibleStateError(f"radius {r} exceeds 1")
    if r < 1.0 / math.sqrt(3.0) - 1e-12:
        raise NoSolutionError(f"no states exist with radius {r} < 1/sqrt(3)")
    rho = math.sqrt(max(r * r - 1.0 / 3.0, 0.0))
    entries = np.full(3, 1.0 / 3.0) + rho * (
        math.cos(theta) * _PLANE_B1 + math.sin(theta) * _PLANE_B2
    )
    return SignedProbVector(entries)


def negative_orthonormal_basis(n: int) -> list[SignedProbVector]:
    """Orthonormal basis of pure states whose k-th member has its single
    negative entry (2-n)/n at position k and 2/n everywhere else.

    Each member is the pure state of most negative entry; the family exists
    only for n >= 3.
    """
    n = count(n, "n", 3, high=math.isqrt(MAX_POINTS))  # n vectors of n: n^2 points
    basis = []
    for k in range(n):
        entries = np.full(n, 2.0 / n)
        entries[k] = (2.0 - n) / n
        basis.append(SignedProbVector(entries))
    return basis


def pair_outcome_probability(p, i: int, j: int) -> float:
    """Probability p_i * p_j of outcome i then outcome j in two independent
    draws (0-based indices).

    Summing over the diagonal i = j recovers the information.  Requires an
    admissible state: only pair probabilities of admissible distributions
    carry the draw interpretation.  An out-of-range index raises IndexError.
    """
    pv = _coerce(p)
    i, j = count(i, "index i", -math.inf), count(j, "index j", -math.inf)
    if not (0 <= i < pv.n and 0 <= j < pv.n):
        raise IndexError(f"indices ({_shown(i)}, {_shown(j)}) out of range for n = {pv.n}")
    if not pv.is_admissible:
        raise InadmissibleStateError("pair probabilities require an admissible state")
    return float(pv.entries[i] * pv.entries[j])
