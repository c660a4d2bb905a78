"""Randomized invariants, run at moderate size; the acceptance suite reruns
the same checks at the full 10^4 scale."""

import numpy as np
import pytest

from logent import NoSolutionError, solve_n3
from property_checks import (
    check_boundary_errors,
    check_classification_invariance,
    check_complement_identity,
    check_generator_tangency,
    check_information_floor,
    check_law_of_cosines,
    check_n3_sign_pattern,
)


@pytest.mark.parametrize(
    "checker,n_checks",
    [
        (check_complement_identity, 3000),
        (check_information_floor, 3000),
        (check_law_of_cosines, 3000),
        (check_generator_tangency, 3000),
        (check_classification_invariance, 300),
    ],
)
def test_randomized_invariants(checker, n_checks):
    done, failures = checker(n_checks, seed=2024)
    assert done >= n_checks
    assert failures == 0


def test_n3_sign_pattern_at_landmark_radii():
    done, failures = check_n3_sign_pattern(seed=0)
    assert failures == 0


def test_no_solutions_below_minimum_radius():
    with pytest.raises(NoSolutionError):
        solve_n3(1 / np.sqrt(3) - 0.01, 0.0)


def test_boundary_inputs_raise_only_package_errors():
    done, failures = check_boundary_errors(1000, seed=2024)
    assert done >= 1000
    assert failures == 0
