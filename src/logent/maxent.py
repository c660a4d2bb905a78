"""Entropy maximization under a linear observable constraint.

Maximizing S = 1 - sum(p_i^2) subject to sum(p_i) = 1 and sum(p_i X_i) = m
is the stationarity problem of F = sum(p_i^2) - lam sum(p_i) + mu sum(p_i X_i),
whose unique stationary point is p_i = (lam - mu X_i) / 2.  About the mean
Xbar of a non-constant X, with d_i = X_i - Xbar and D = sum(d_i^2) > 0:

    p_i = 1/n + beta d_i,  beta = (m - Xbar) / D,  lam = 2/n - 2 beta Xbar,  mu = -2 beta,

so I(m) = 1/n + (m - Xbar)^2 / D, least (uniform p) at m = Xbar.  I <= 1 for
|m - Xbar| <= sqrt((1 - 1/n) D), and p >= 0 for Xbar - D / (n max d) <= m <=
Xbar - D / (n min d).  X is scaled by an exact power of two, so no square
overflows or underflows, and centred in two passes, so no raw moment cancels.
"""
from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from ._grid import QUAD_TOL, finite, real_array
from .errors import DegenerateConstraintError, DomainError, NormalizationError
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
        if arr.min() == arr.max():
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


def _centred(c: ObservableConstraint, m: float = 0.0):
    """(n, e, mean, lo, d, D, t) of X scaled by 2^-e, e putting max|X| 2^-e
    in [1/2, 1): the scaled mean is mean + lo, lo being the mean of the first
    pass's deviations, so d, the deviations about it, sum to zero at their
    own scale; D = sum(d^2) and t = (m - Xbar) 2^-e."""
    e = math.frexp(float(np.max(np.abs(c.values))))[1]
    x = np.ldexp(c.values, -e)
    mean = float(x.mean())
    d = x - mean
    lo = float(d.mean())
    d -= lo
    t = (_unscaled(m, -e, "target mean in units of max|X|") - mean) - lo
    return c.n, e, mean, lo, d, float(d @ d), t


def _unscaled(value: float, e: int, name: str) -> float:
    """value * 2^e; DomainError naming `name` unless that is a finite float."""
    with contextlib.suppress(OverflowError):
        if math.isfinite(out := math.ldexp(value, e)):
            return out
    raise DomainError(f"{name} is beyond the float range")


def equilibrium(c: ObservableConstraint) -> EquilibriumSolution:
    """Entropy-maximizing distribution with mean value c.target_mean.

    The solution may have information above one; it is returned anyway and
    flagged through :attr:`EquilibriumSolution.admissible`, so callers decide
    how to treat it.  A lambda or mu beyond the float range is a DomainError,
    as is a target mean so far outside the admissible range that the
    entries' sum cannot be held to one within QUAD_TOL.
    """
    if c.target_mean is None:
        raise DomainError("equilibrium requires a target mean")
    n, e, mean, lo, d, dd, t = _centred(c, c.target_mean)
    beta = t / dd
    lam = _unscaled(2.0 / n - 2.0 * beta * (mean + lo), 0, "lambda")
    mu = _unscaled(-2.0 * beta, -e, "mu")
    entries = 1.0 / n + beta * d
    try:
        p = SignedProbVector(entries)
    except NormalizationError as exc:  # the sum's round-off, about eps sum|p|, passed QUAD_TOL
        raise DomainError(
            f"target mean {c.target_mean!r} gives entries up to max|p| = "
            f"{np.max(np.abs(entries)):.6g}, too large for their sum to stay within "
            f"{QUAD_TOL:g} of one"
        ) from exc
    return EquilibriumSolution(p=p, lam=lam, mu=mu, information=p.information)


def information_of_mean(c: ObservableConstraint) -> float:
    """Equilibrium information I(m) = 1/n + (m - Xbar)^2 / D at the
    constraint's target mean."""
    if c.target_mean is None:
        raise DomainError("information_of_mean requires a target mean")
    n, *_, dd, t = _centred(c, c.target_mean)
    return _unscaled(1.0 / n + t / dd * t, 0, "information")


def max_mean(c: ObservableConstraint, negative_branch: bool = False) -> float:
    """Largest mean whose equilibrium is admissible (I <= 1), Xbar +
    sqrt((1 - 1/n) D); negative_branch selects the lower bound, Xbar -
    sqrt((1 - 1/n) D), on the other side of the entropy maximum."""
    n, e, mean, lo, _, dd, _ = _centred(c)
    reach = math.sqrt((1.0 - 1.0 / n) * dd)
    return _unscaled(mean + (lo - reach if negative_branch else lo + reach), e, "mean bound")


def max_mean_nonnegative(c: ObservableConstraint, negative_branch: bool = False) -> float:
    """Largest mean whose equilibrium has all entries >= 0, Xbar - D / (n
    min d), where the entry of the most negative d reaches zero; the
    negative branch gives the least such mean, Xbar - D / (n max d)."""
    n, e, mean, lo, d, dd, _ = _centred(c)
    edge = float(d.max() if negative_branch else d.min())
    return _unscaled(mean + (lo - dd / (n * edge)), e, "mean bound")
