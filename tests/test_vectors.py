import math
import warnings

import numpy as np
import pytest

from logent import (
    DensityGrid,
    DimensionMismatchError,
    DomainError,
    InadmissibleStateError,
    NormalizationError,
    NoSolutionError,
    SignedProbVector,
    StateClass,
    classify,
    distance,
    feasibility_radii,
    information,
    logical_entropy,
    negative_orthonormal_basis,
    pair_outcome_probability,
    scalar_product,
    shannon_entropy,
    solve_n2,
    solve_n3,
)
from logent._grid import Grid
from oracles import sample_feasibility_min_entries

PURE_NEG = np.array([2.0 / 3.0, 2.0 / 3.0, -1.0 / 3.0])


class TestConstruction:
    def test_rejects_bad_sum(self):
        with pytest.raises(NormalizationError):
            SignedProbVector(np.array([0.5, 0.6]))

    def test_rejects_scalar_and_short(self):
        with pytest.raises(DomainError):
            SignedProbVector(np.array([1.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            SignedProbVector(np.array([np.inf, 1.0, -np.inf]))

    def test_inadmissible_is_constructible_but_flagged(self):
        v = SignedProbVector(np.array([1.0, 1.0, -1.0]))
        assert not v.is_admissible
        assert v.information == 3.0

    def test_entries_read_only(self):
        v = SignedProbVector(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            v.entries[0] = 2.0


class TestEntropyInformation:
    def test_certainty_state(self):
        assert logical_entropy([1.0, 0.0, 0.0]) == 0.0

    def test_uniform_three(self):
        assert logical_entropy([1 / 3, 1 / 3, 1 / 3]) == pytest.approx(2 / 3, abs=1e-15)

    def test_negative_pure_state(self):
        assert logical_entropy(PURE_NEG) == pytest.approx(0.0, abs=1e-15)

    def test_information_half_half(self):
        assert information([0.5, 0.5]) == 0.5

    def test_information_uneven_die(self):
        assert information([0.0, 1 / 3, 2 / 3]) == pytest.approx(5 / 9, abs=1e-15)

    def test_information_signed_pure(self):
        p = [(1 - math.sqrt(3)) / 3, 1 / 3, (1 + math.sqrt(3)) / 3]
        assert information(p) == pytest.approx(1.0, abs=1e-15)

    def test_complement_identity(self):
        rng = np.random.default_rng(3)
        count = 0
        while count < 200:
            x = rng.standard_normal(5)
            if abs(x.sum()) < 0.3:
                continue
            v = SignedProbVector(x / x.sum())
            assert abs(v.logical_entropy + v.information - 1.0) <= 1e-15
            count += 1


class TestShannon:
    def test_certainty(self):
        assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0

    def test_uniform_is_log_n(self):
        assert shannon_entropy([1 / 3, 1 / 3, 1 / 3]) == pytest.approx(math.log(3), rel=1e-14)

    def test_rejects_signed(self):
        with pytest.raises(DomainError):
            shannon_entropy(PURE_NEG)


class TestGeometry:
    def test_distance_self(self):
        assert distance([0.2, 0.8], [0.2, 0.8]) == 0.0

    def test_distance_basis(self):
        assert distance([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]) == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_distance_negative_pure_pair(self):
        q = np.array([-1 / 3, 2 / 3, 2 / 3])
        d = distance(PURE_NEG, q)
        assert d == pytest.approx(math.sqrt(2), rel=1e-14)
        # law of cosines against the scalar product
        d2 = information(PURE_NEG) + information(q) - 2 * scalar_product(PURE_NEG, q)
        assert d * d == pytest.approx(d2, abs=1e-14)

    def test_scalar_product_self_is_information(self):
        v = [0.1, 0.4, 0.5]
        assert scalar_product(v, v) == information(v)

    def test_orthogonal_pure_pair(self):
        q = np.array([-1 / 3, 2 / 3, 2 / 3])
        assert scalar_product(PURE_NEG, q) == pytest.approx(0.0, abs=1e-15)

    def test_basis_orthogonality(self):
        assert scalar_product([1, 0, 0], [0, 0, 1]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            distance([0.5, 0.5], [1 / 3, 1 / 3, 1 / 3])
        with pytest.raises(DimensionMismatchError):
            scalar_product([0.5, 0.5], [1 / 3, 1 / 3, 1 / 3])


class TestClassify:
    def test_certainty_pure(self):
        assert classify([1.0, 0.0, 0.0]) is StateClass.PURE

    def test_uniform_mixed(self):
        assert classify([1 / 3, 1 / 3, 1 / 3]) is StateClass.MIXED

    def test_inadmissible(self):
        assert classify([1.0, 1.0, -1.0]) is StateClass.INADMISSIBLE

    def test_tolerance_parameter(self):
        # I = 0.995: mixed at the default tolerance, pure at a loose one
        r = math.sqrt(0.995)
        v = solve_n3(r, 0.7)
        assert classify(v) is StateClass.MIXED
        assert classify(v, tol=0.01) is StateClass.PURE


class TestFeasibilityRadii:
    def test_n3_values(self):
        r = feasibility_radii(3)
        assert (r.r_max, r.r_pos, r.r_min) == (1.0, 1 / math.sqrt(2), 1 / math.sqrt(3))
        assert r.negatives_possible

    def test_n2(self):
        r = feasibility_radii(2)
        assert r.r_min == 1 / math.sqrt(2)
        assert not r.negatives_possible

    def test_n10_formula_and_sampling(self):
        r = feasibility_radii(10)
        assert (r.r_max, r.r_pos, r.r_min) == (1.0, 1 / 3, 1 / math.sqrt(10))
        rng = np.random.default_rng(42)
        below = sample_feasibility_min_entries(10, r.r_pos - 0.005, 4000, rng)
        above = sample_feasibility_min_entries(10, r.r_pos + 0.005, 4000, rng)
        assert below.min() >= -1e-12
        assert above.min() < -1e-9

    def test_rejects_small_n(self):
        with pytest.raises(DomainError):
            feasibility_radii(1)


class TestSolveN2:
    def test_tangent_point(self):
        a, b = solve_n2(math.sqrt(0.5))
        assert np.allclose(a.entries, [0.5, 0.5], atol=1e-12)
        assert np.allclose(b.entries, [0.5, 0.5], atol=1e-12)

    def test_pure(self):
        a, b = solve_n2(1.0)
        assert np.allclose(a.entries, [1.0, 0.0], atol=1e-12)
        assert np.allclose(b.entries, [0.0, 1.0], atol=1e-12)

    def test_generic_radius(self):
        a, _ = solve_n2(0.9)
        s = math.sqrt(0.62)
        assert np.allclose(a.entries, [(1 + s) / 2, (1 - s) / 2], atol=1e-14)
        assert a.entries.sum() == pytest.approx(1.0, abs=1e-14)
        assert a.information == pytest.approx(0.81, abs=1e-14)

    def test_errors(self):
        with pytest.raises(NoSolutionError):
            solve_n2(0.6)
        with pytest.raises(InadmissibleStateError):
            solve_n2(1.1)


class TestSolveN3:
    def test_minimum_radius_gives_uniform(self):
        for theta in (0.0, 1.0, 4.0):
            v = solve_n3(1 / math.sqrt(3), theta)
            assert np.allclose(v.entries, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_pure_basis_state_at_known_angle(self):
        v = solve_n3(1.0, math.pi / 6)
        assert np.allclose(v.entries, [1.0, 0.0, 0.0], atol=1e-12)

    def test_all_positive_at_inner_radius(self):
        for theta in np.linspace(0.0, 2 * math.pi, 500):
            v = solve_n3(1 / math.sqrt(2), theta)
            assert v.entries.min() >= -1e-12

    def test_constraints_hold(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            r = rng.uniform(1 / math.sqrt(3), 1.0)
            theta = rng.uniform(0.0, 2 * math.pi)
            v = solve_n3(r, theta)
            assert abs(v.entries.sum() - 1.0) <= 1e-12
            assert abs(v.information - r * r) <= 1e-12

    def test_errors(self):
        with pytest.raises(NoSolutionError):
            solve_n3(0.5, 0.0)
        with pytest.raises(InadmissibleStateError):
            solve_n3(1.01, 0.0)


class TestNegativeBasis:
    def test_n3_members(self):
        basis = negative_orthonormal_basis(3)
        got = {tuple(np.round(v.entries, 12)) for v in basis}
        expected = {
            tuple(np.round([-1 / 3, 2 / 3, 2 / 3], 12)),
            tuple(np.round([2 / 3, -1 / 3, 2 / 3], 12)),
            tuple(np.round([2 / 3, 2 / 3, -1 / 3], 12)),
        }
        assert got == expected

    def test_n4_member(self):
        basis = negative_orthonormal_basis(4)
        assert np.allclose(basis[3].entries, [0.5, 0.5, 0.5, -0.5], atol=1e-15)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_gram_identity_and_sums(self, n):
        basis = negative_orthonormal_basis(n)
        mat = np.array([v.entries for v in basis])
        gram = mat @ mat.T
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-12
        assert np.max(np.abs(mat.sum(axis=1) - 1.0)) <= 1e-12

    def test_rejects_n2(self):
        with pytest.raises(DomainError):
            negative_orthonormal_basis(2)


class TestPairProbability:
    def test_marble_bag_q(self):
        q = SignedProbVector(np.array([-1 / 3, 2 / 3, 2 / 3]))
        assert pair_outcome_probability(q, 0, 0) == 1 / 9

    def test_marble_bag_p_complement(self):
        p = SignedProbVector(PURE_NEG)
        total = pair_outcome_probability(p, 1, 1) + pair_outcome_probability(p, 2, 2)
        assert total == 5 / 9

    def test_certainty(self):
        assert pair_outcome_probability([1.0, 0.0, 0.0], 0, 0) == 1.0

    def test_diagonal_sum_is_information(self):
        v = SignedProbVector(np.array([0.2, 0.5, 0.3]))
        diag = sum(pair_outcome_probability(v, i, i) for i in range(3))
        assert diag == pytest.approx(v.information, abs=1e-15)

    def test_index_and_admissibility_errors(self):
        with pytest.raises(IndexError):
            pair_outcome_probability([0.5, 0.5], 0, 2)
        with pytest.raises(InadmissibleStateError):
            pair_outcome_probability([1.0, 1.0, -1.0], 0, 0)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_index_beyond_str_conversion_is_an_index_error(self, sign):
        # str() refuses an int of more than 4,300 digits; the message must not need it
        big = sign * 10**5000
        with pytest.raises(IndexError, match="beyond the float range"):
            pair_outcome_probability([0.5, 0.5], big, 0)
        with pytest.raises(IndexError, match=r"\(1, an int beyond the float range\)"):
            pair_outcome_probability([0.5, 0.5], 1, big)


class TestBoundaryValues:
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, -1e-12])
    def test_classify_rejects_bad_tol(self, tol):
        with pytest.raises(DomainError):
            classify(SignedProbVector(np.array([0.5, 0.5])), tol=tol)

    def test_classify_accepts_zero_tol(self):
        assert classify(SignedProbVector(np.array([1.0, 0.0])), tol=0.0) is StateClass.PURE

    @pytest.mark.parametrize("theta", [math.nan, math.inf])
    def test_solve_n3_rejects_non_finite_angle(self, theta):
        with pytest.raises(DomainError):
            solve_n3(0.8, theta)

    @pytest.mark.parametrize(
        "entries",
        [["a", "b"], ["0.5", "0.5"], [0.5 + 1j, 0.5], [10**400, 0.0], [[0.5], 0.5], None],
    )
    def test_non_real_entries_raise(self, entries):
        # a numeric string was converted, a complex entry dropped its imaginary part
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                SignedProbVector(entries)
            with pytest.raises(DomainError):
                classify(entries)

    @pytest.mark.parametrize("i", ["a", None, 0.0, True])
    def test_pair_index_must_be_an_integer(self, i):
        with pytest.raises(DomainError):
            pair_outcome_probability([0.5, 0.5], i, 0)
        with pytest.raises(DomainError):
            pair_outcome_probability([0.5, 0.5], 0, i)

    def test_negative_pair_index_is_out_of_range(self):
        with pytest.raises(IndexError):
            pair_outcome_probability([0.5, 0.5], -1, 0)


class TestOverflowingInformation:
    """I beyond the float range is a DomainError naming the information: the
    BLAS dot overflows to inf without a numpy warning."""

    def test_information_raises(self):
        v = SignedProbVector([1e200, -1e200, 1.0])
        for name in ("information", "entropy", "logical_entropy", "is_admissible"):
            with pytest.raises(DomainError, match="^the information is beyond the float range$"):
                getattr(v, name)
        with pytest.raises(DomainError, match="information"):
            classify(v)

    def test_largest_finite_information_is_returned(self):
        big = 2.0**511
        assert SignedProbVector([big, -big, 1.0]).information == 2.0**1023


class TestGridCore:
    """A vector is the finite level of the grid core: unit cell, h = 1."""

    @pytest.mark.parametrize("n", [4, 8, 64])
    def test_invariants_equal_a_unit_cell_density(self, n):
        x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        values = x - x.mean() + 1.0 / n
        v = SignedProbVector(values)
        f = DensityGrid(values, z0=0.0, dz=1.0, h=1.0)
        assert isinstance(v, Grid)
        assert v.entries is v.values
        assert (v.total, v.information, v.entropy) == (f.total, f.information, f.entropy)
        assert v.logical_entropy == f.entropy
        assert v.is_admissible == f.is_admissible


@pytest.mark.parametrize("values", [np.full((2, 2), 0.25), np.float64(1.0)])
def test_signed_vector_of_the_wrong_rank(values):
    with pytest.raises(DomainError, match="^entries must form a one-dimensional vector"):
        SignedProbVector(values)
