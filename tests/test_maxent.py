import math

import numpy as np
import pytest

from logent import (
    DegenerateConstraintError,
    DomainError,
    ObservableConstraint,
    equilibrium,
    information_of_mean,
    max_mean,
    max_mean_nonnegative,
)
from oracles import scan_max_mean, solve_equilibrium_numeric

X3 = np.array([-1.0, 0.0, 1.0])


def test_constant_observable_rejected():
    with pytest.raises(DegenerateConstraintError):
        ObservableConstraint(np.array([2.0, 2.0, 2.0]))


def test_equilibrium_multipliers_three_outcomes():
    # lam = 2/3 and mu = -m for the symmetric three-point observable
    for m in (-0.9, 0.0, 0.4, 1.1):
        sol = equilibrium(ObservableConstraint(X3, target_mean=m))
        assert sol.lam == pytest.approx(2 / 3, abs=1e-14)
        assert sol.mu == pytest.approx(-m, abs=1e-14)
        expected = np.array([1 / 3 - m / 2, 1 / 3, 1 / 3 + m / 2])
        assert np.allclose(sol.p.entries, expected, atol=1e-14)


def test_equilibrium_zero_mean_is_uniform():
    sol = equilibrium(ObservableConstraint(X3, target_mean=0.0))
    assert np.allclose(sol.p.entries, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_equilibrium_at_max_mean_is_signed_pure():
    sol = equilibrium(ObservableConstraint(X3, target_mean=2 / math.sqrt(3)))
    expected = np.array([(1 - math.sqrt(3)) / 3, 1 / 3, (1 + math.sqrt(3)) / 3])
    assert np.max(np.abs(sol.p.entries - expected)) <= 1e-12
    assert sol.information == pytest.approx(1.0, abs=1e-12)
    assert sol.p.entries[0] < 0.0


def test_equilibrium_matches_numeric_solver():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = rng.integers(2, 9)
        x = rng.uniform(-2.0, 2.0, n)
        if np.ptp(x) < 1e-3:
            continue
        m = rng.uniform(-1.0, 1.0)
        sol = equilibrium(ObservableConstraint(x, target_mean=m))
        ref = solve_equilibrium_numeric(x, m)
        assert np.allclose(sol.p.entries, ref, atol=1e-12)


def test_equilibrium_requires_target():
    with pytest.raises(DomainError):
        equilibrium(ObservableConstraint(X3))


def test_equilibrium_constraints_satisfied():
    sol = equilibrium(ObservableConstraint(X3, target_mean=0.37))
    assert sol.p.entries.sum() == pytest.approx(1.0, abs=1e-10)
    assert sol.p.entries @ X3 == pytest.approx(0.37, abs=1e-10)
    # stationarity of the quadratic functional
    grad = 2 * sol.p.entries - sol.lam + sol.mu * X3
    assert np.max(np.abs(grad)) <= 1e-10


def test_inadmissible_solution_flagged_not_rejected():
    sol = equilibrium(ObservableConstraint(X3, target_mean=1.5))
    assert not sol.admissible
    assert sol.information > 1.0


def test_information_of_mean_values():
    assert information_of_mean(ObservableConstraint(X3, target_mean=0.0)) == pytest.approx(
        1 / 3, abs=1e-14
    )
    assert information_of_mean(ObservableConstraint(X3, target_mean=2 / 3)) == pytest.approx(
        5 / 9, abs=1e-14
    )
    assert information_of_mean(ObservableConstraint(X3, target_mean=1.0)) == pytest.approx(
        5 / 6, abs=1e-14
    )


def test_information_of_mean_matches_equilibrium():
    for m in np.linspace(-1.2, 1.2, 25):
        c = ObservableConstraint(X3, target_mean=m)
        assert information_of_mean(c) == pytest.approx(
            equilibrium(c).information, abs=1e-13
        )


def test_max_mean_three_outcomes():
    assert max_mean(ObservableConstraint(X3)) == pytest.approx(2 / math.sqrt(3), abs=1e-12)
    assert max_mean(ObservableConstraint(X3), negative_branch=True) == pytest.approx(
        -2 / math.sqrt(3), abs=1e-12
    )


def test_max_mean_two_outcomes_against_scan():
    x = np.array([0.0, 1.0])
    analytic = max_mean(ObservableConstraint(x))
    scanned = scan_max_mean(x, -1.0, 2.0)
    assert analytic == pytest.approx(1.0, abs=1e-12)
    assert analytic == pytest.approx(scanned, abs=1e-8)


def test_max_mean_crosses_information_one():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0, rng.integers(2, 7))
        if np.ptp(x) < 1e-3:
            continue
        bound = max_mean(ObservableConstraint(x))
        assert information_of_mean(
            ObservableConstraint(x, target_mean=bound)
        ) == pytest.approx(1.0, abs=1e-10)


def test_max_mean_nonnegative_three_outcomes():
    c = ObservableConstraint(X3)
    assert max_mean_nonnegative(c) == pytest.approx(2 / 3, abs=1e-14)
    sol = equilibrium(ObservableConstraint(X3, target_mean=2 / 3))
    assert np.allclose(sol.p.entries, [0.0, 1 / 3, 2 / 3], atol=1e-14)


def test_max_mean_nonnegative_negative_branch():
    c = ObservableConstraint(X3)
    assert max_mean_nonnegative(c, negative_branch=True) == pytest.approx(-2 / 3, abs=1e-14)
    sol = equilibrium(ObservableConstraint(X3, target_mean=-2 / 3))
    assert np.allclose(sol.p.entries, [2 / 3, 1 / 3, 0.0], atol=1e-14)


def test_negative_entries_between_classical_and_signed_bounds():
    for m in (0.7, 0.9, 1.1):
        sol = equilibrium(ObservableConstraint(X3, target_mean=m))
        assert sol.p.entries.min() < 0.0
    sol = equilibrium(ObservableConstraint(X3, target_mean=0.6))
    assert sol.p.entries.min() >= 0.0


def test_equilibrium_minimizes_information_among_feasible():
    c = ObservableConstraint(X3, target_mean=0.4)
    sol = equilibrium(c)
    rng = np.random.default_rng(17)
    base = np.vstack([np.ones(3), X3])
    for _ in range(1000):
        delta = rng.standard_normal(3)
        # project onto the tangent space of both constraints
        coeffs = np.linalg.lstsq(base.T, delta, rcond=None)[0]
        delta = delta - base.T @ coeffs
        if np.linalg.norm(delta) < 1e-12:
            continue
        perturbed = sol.p.entries + 1e-3 * delta
        assert perturbed @ perturbed > sol.information


def test_information_parabola_convex_with_minimum_at_uniform_mean():
    rng = np.random.default_rng(23)
    for _ in range(10):
        x = rng.uniform(-3.0, 3.0, 5)
        if np.ptp(x) < 1e-3:
            continue
        m_uniform = x.mean()
        ms = np.linspace(m_uniform - 2.0, m_uniform + 2.0, 41)
        vals = [information_of_mean(ObservableConstraint(x, target_mean=m)) for m in ms]
        second = np.diff(vals, 2)
        assert np.all(second > -1e-12)
        assert information_of_mean(
            ObservableConstraint(x, target_mean=m_uniform)
        ) == pytest.approx(min(vals), abs=1e-12)


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
def test_non_finite_target_mean_raises(target):
    with pytest.raises(DomainError):
        ObservableConstraint(np.array([-1.0, 0.0, 1.0]), target_mean=target)
