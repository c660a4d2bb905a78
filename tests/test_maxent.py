import math
import warnings

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
from oracles import equilibrium_exact, scan_max_mean, solve_equilibrium_numeric

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


def _seeded_observables():
    """40 observables for each offset and spread: n = 2..12 values
    offset + spread * u with u uniform on [-1, 1), and a target mean within
    one spread of their mean."""
    rng = np.random.default_rng(2022)
    for offset in (0.0, 1.0, 1e3, 1e6, 1e8):
        for spread in (1e-3, 1.0, 1e3):
            for _ in range(40):
                x = offset + spread * rng.uniform(-1.0, 1.0, int(rng.integers(2, 13)))
                yield x, float(x.mean() + spread * rng.uniform(-1.0, 1.0))


def test_centred_form_matches_exact_rationals():
    """600 seeded observables against the exact raw-moment solution, with
    numpy warnings raised as errors.  Measured worst cases: |p - exact|
    3.6e-15; I(m) 4.3e-16 and the equilibrium's sum(p^2) 5.9e-16, relative;
    max_mean 3.8e-16 and max_mean_nonnegative 3.4e-16 of max(max|X|,
    |bound|).  The raw-moment floats this replaced reached 0.39, 0.72,
    7.5e-7 and 1.7e-7 on the same set and raised on 245 of its 600
    observables.  Each gate is four times its measured worst case, rounded
    up."""
    gates = {"p": 1.5e-14, "I": 1.8e-15, "sum(p^2)": 2.4e-15, "max_mean": 1.6e-15,
             "max_mean_nonnegative": 1.4e-15}
    worst = dict.fromkeys(gates, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, m in _seeded_observables():
            exact = equilibrium_exact(x, m)
            c = ObservableConstraint(x, target_mean=m)
            sol = equilibrium(c)
            p = np.array([float(v) for v in exact["p"]])
            info = float(exact["information"])
            errors = {
                "p": float(np.max(np.abs(sol.p.entries - p))),
                "I": abs(information_of_mean(c) - info) / info,
                "sum(p^2)": abs(sol.information - info) / info,
            }
            for name, bound in (("max_mean", max_mean), ("max_mean_nonnegative", max_mean_nonnegative)):
                for branch, want in zip((True, False), exact[name]):
                    got = bound(c, negative_branch=branch)
                    err = abs(got - float(want)) / max(float(np.max(np.abs(x))), abs(float(want)))
                    errors[name] = max(errors.get(name, 0.0), err)
            for name, err in errors.items():
                worst[name] = max(worst[name], err)
    assert all(worst[name] <= gates[name] for name in gates), worst


class TestFloatRange:
    """A finite, non-constant X and a finite m give a result or a DomainError
    that names what left the float range: no raw error, no numpy warning."""

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_extreme_opposite_values_pass_the_constancy_check(self):
        c = ObservableConstraint(np.array([1.7e308, -1.7e308]))
        assert max_mean(c) == pytest.approx(1.7e308, rel=1e-15)
        assert max_mean_nonnegative(c) == pytest.approx(1.7e308, rel=1e-15)
        assert max_mean_nonnegative(c, negative_branch=True) == pytest.approx(-1.7e308, rel=1e-15)

    def test_mu_beyond_the_float_range_is_a_domain_error(self):
        # mu = -2 (m - Xbar) / sum(d^2) = 4 / 5e-324
        c = ObservableConstraint(np.array([5e-324, 0.0]), target_mean=0.0)
        with pytest.raises(DomainError, match="^mu is beyond the float range"):
            equilibrium(c)
        assert information_of_mean(c) == 1.0

    def test_lambda_beyond_the_float_range_is_a_domain_error(self):
        c = ObservableConstraint(np.array([1.0, 1.0 + 2**-52]), target_mean=1.8e276)
        with pytest.raises(DomainError, match="^lambda is beyond the float range"):
            equilibrium(c)
        with pytest.raises(DomainError, match="^information is beyond the float range"):
            information_of_mean(c)

    def test_entries_too_large_to_sum_to_one_are_a_domain_error(self):
        # p = 1/3 -+ (2e7 - 1) / 2: the sum's round-off, about eps sum|p|, passes QUAD_TOL
        c = ObservableConstraint(np.array([0.0, 0.5, 1.0]), target_mean=1e7)
        message = r"^target mean 10000000.0 gives entries up to max\|p\| = 1e\+07"
        with pytest.raises(DomainError, match=message):
            equilibrium(c)
        assert equilibrium(ObservableConstraint(c.values, target_mean=1e6)).p.entries[2] > 9e5

    def test_target_mean_beyond_the_scaled_range_is_a_domain_error(self):
        c = ObservableConstraint(np.array([5e-324, 0.0]), target_mean=1.0)
        for query in (equilibrium, information_of_mean):
            with pytest.raises(DomainError, match="^target mean in units of max"):
                query(c)

    def test_mean_bound_beyond_the_float_range_is_a_domain_error(self):
        c = ObservableConstraint(np.array([1.7e308, -1.7e308, 1.7e308, -1.7e308]))
        with pytest.raises(DomainError, match="^mean bound is beyond the float range"):
            max_mean(c)

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_tiny_and_huge_observables_give_finite_results(self, scale):
        x = scale * np.array([0.3, 1.7, 2.2, 5.0])
        c = ObservableConstraint(x)
        bound = max_mean(c)
        exact = equilibrium_exact(x, bound)
        assert bound == pytest.approx(float(exact["max_mean"][1]), rel=1e-15)
        sol = equilibrium(ObservableConstraint(x, target_mean=bound))
        assert np.all(np.isfinite([sol.lam, sol.mu, sol.information]))
        np.testing.assert_allclose(sol.p.entries, [float(v) for v in exact["p"]], rtol=0, atol=1e-15)
        low = max_mean_nonnegative(c, negative_branch=True)
        assert low == pytest.approx(float(exact["max_mean_nonnegative"][0]), rel=1e-15)

    def test_values_an_ulp_apart_give_correctly_rounded_bounds(self):
        # the deviations about the twice-centred mean have both signs, so
        # both nonnegative bounds exist however close the values are, and
        # each bound adds its offset to both parts of the mean
        x = np.array([1.0, 1.0 + 2**-52, 1.0])
        exact = equilibrium_exact(x, 1.0)
        c = ObservableConstraint(x)
        for name, bound in (("max_mean", max_mean), ("max_mean_nonnegative", max_mean_nonnegative)):
            got = [bound(c, negative_branch=True), bound(c)]
            assert got == [float(v) for v in exact[name]], name
        low = equilibrium(ObservableConstraint(x, target_mean=max_mean_nonnegative(c, True)))
        assert low.p.entries.min() >= 0.0
