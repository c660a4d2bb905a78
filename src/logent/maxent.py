"""Entropy maximization under a linear observable constraint.

Maximizing the quadratic entropy S = 1 - sum(p_i^2) subject to sum(p_i) = 1
and sum(p_i X_i) = m is the stationarity problem of

    F = sum(p_i^2) - lam * sum(p_i) + mu * sum(p_i X_i)

whose unique stationary point is p_i = (lam - mu X_i) / 2.  The multipliers
solve the 2x2 linear system produced by the two constraints:

    n   * lam - sum(X)   * mu = 2
    sum(X) * lam - sum(X^2) * mu = 2 m

Because the multipliers are affine in m, the equilibrium entries are affine
in m and the equilibrium information I(m) is a convex parabola.  Its
crossings of I = 1 bound the admissible range of the mean; the entries'
zero crossings bound the classical (all-nonnegative) range.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._grid import finite, real_array
from .errors import DegenerateConstraintError, DomainError, NoSolutionError
from .vectors import SignedProbVector


@dataclass(frozen=True, eq=False)
class ObservableConstraint:
    """Observable values X_i per outcome, with an optional target mean."""

    values: np.ndarray
    target_mean: float | None = None

    def __post_init__(self):
        arr = real_array(self.values, "observable values")
        if arr.ndim != 1 or arr.size < 2:
            raise DomainError("observable needs at least two outcome values")
        if float(np.ptp(arr)) == 0.0:
            raise DegenerateConstraintError(
                "observable is constant: the mean constraint is degenerate"
            )
        if self.target_mean is not None:
            object.__setattr__(self, "target_mean", finite(self.target_mean, "target mean"))
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class EquilibriumSolution:
    """Stationary distribution with its multipliers and information."""

    p: SignedProbVector
    lam: float
    mu: float
    information: float

    @property
    def admissible(self) -> bool:
        return self.p.is_admissible


def _affine_coefficients(c: ObservableConstraint):
    """Entries of the equilibrium as p(m) = a + b*m, plus multiplier lines.

    Derived by inverting the constraint system; det = sum(X)^2 - n*sum(X^2)
    = -n^2 var(X) is nonzero for non-constant X.
    """
    x = c.values
    n = x.size
    s1 = float(x.sum())
    s2 = float(x @ x)
    det = s1 * s1 - n * s2
    lam0, lam1 = -2.0 * s2 / det, 2.0 * s1 / det
    mu0, mu1 = -2.0 * s1 / det, 2.0 * n / det
    a = (lam0 - mu0 * x) / 2.0
    b = (lam1 - mu1 * x) / 2.0
    return a, b, (lam0, lam1), (mu0, mu1)


def _information_parabola(c: ObservableConstraint):
    """Coefficients (i0, i1, i2) of I(m) = i0 + i1*m + i2*m^2."""
    a, b, _, _ = _affine_coefficients(c)
    return float(a @ a), 2.0 * float(a @ b), float(b @ b)


def equilibrium(c: ObservableConstraint) -> EquilibriumSolution:
    """Entropy-maximizing distribution with mean value c.target_mean.

    The solution may have information above one; it is returned anyway and
    flagged through :attr:`EquilibriumSolution.admissible` so callers can
    decide how to treat it.
    """
    if c.target_mean is None:
        raise DomainError("equilibrium requires a target mean")
    m = float(c.target_mean)
    a, b, (lam0, lam1), (mu0, mu1) = _affine_coefficients(c)
    entries = a + b * m
    p = SignedProbVector(entries)
    return EquilibriumSolution(
        p=p,
        lam=lam0 + lam1 * m,
        mu=mu0 + mu1 * m,
        information=p.information,
    )


def information_of_mean(c: ObservableConstraint) -> float:
    """Equilibrium information I(m) at the constraint's target mean,
    evaluated through the closed-form parabola."""
    if c.target_mean is None:
        raise DomainError("information_of_mean requires a target mean")
    i0, i1, i2 = _information_parabola(c)
    m = float(c.target_mean)
    return i0 + i1 * m + i2 * m * m


def max_mean(c: ObservableConstraint, negative_branch: bool = False) -> float:
    """Largest mean for which the equilibrium is still admissible (I <= 1).

    Solves I(m) = 1 on the closed-form parabola and returns the upper root;
    negative_branch selects the lower root (the symmetric bound on the other
    side of the entropy maximum).
    """
    i0, i1, i2 = _information_parabola(c)
    # i2 = sum(b^2) > 0 for non-constant X, so the parabola opens upward.
    half = i1 / 2.0
    disc = half * half - i2 * (i0 - 1.0)
    if disc < 0.0:
        raise NoSolutionError("equilibrium information never reaches 1")
    root = math.sqrt(disc)
    if negative_branch:
        return (-half - root) / i2
    return (-half + root) / i2


def max_mean_nonnegative(c: ObservableConstraint, negative_branch: bool = False) -> float:
    """Largest mean whose equilibrium has all entries >= 0.

    Each entry is affine in m, p_i(m) = a_i + b_i m; the bound is where the
    first decreasing entry hits zero (or the first increasing one, on the
    negative branch).
    """
    a, b, _, _ = _affine_coefficients(c)
    sign = -1.0 if negative_branch else 1.0  # the direction the mean moves in
    falling = sign * b < -float(np.max(np.abs(b))) * 1e-14
    if not np.any(falling):
        side = "negative" if negative_branch else "positive"
        raise NoSolutionError(f"no entry decreases toward {side} means")
    return sign * float(np.min(-a[falling] / (sign * b[falling])))
