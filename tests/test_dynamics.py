import logging
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from click.testing import CliRunner

from logent import (
    DimensionMismatchError,
    DomainError,
    GeneratorMatrix,
    GridError,
    SignedProbVector,
    cyclic_generator3,
    evolve,
    random_generator,
    trajectory,
)
from logent import dynamics
from logent._grid import steps
from logent.cli import main
from logent.dynamics import MARGINAL_TOL, read_trajectory_csv, write_trajectory_csv
from oracles import matrix_exp_taylor

E1 = SignedProbVector(np.array([1.0, 0.0, 0.0]))


def uniform(n):
    return SignedProbVector(np.full(n, 1.0 / n))


class TestGeneratorMatrix:
    def test_cyclic3_structure(self):
        g = cyclic_generator3()
        expected = np.array([[0, -1, 1], [1, 0, -1], [-1, 1, 0]], dtype=float)
        assert np.array_equal(g.matrix, expected)
        assert g.rate == pytest.approx(math.sqrt(3) / 3, abs=1e-16)
        assert np.all(g.matrix.sum(axis=0) == 0.0)
        assert np.all(g.matrix.sum(axis=1) == 0.0)
        assert np.array_equal(g.matrix, -g.matrix.T)

    def test_cyclic3_fixes_uniform(self):
        g = cyclic_generator3()
        assert np.allclose(g.matrix @ uniform(3).entries, 0.0, atol=1e-16)

    def test_from_dense_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            GeneratorMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_rejects_bad_row_sums(self):
        bad = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(DomainError):
            GeneratorMatrix.from_dense(bad)

    def test_storage_is_strict_upper(self):
        g = cyclic_generator3()
        assert np.all(np.tril(g.upper) == 0.0)
        with pytest.raises(DomainError):
            GeneratorMatrix(upper=np.array([[1.0, 0.0], [0.0, 0.0]]))


class TestRandomGenerator:
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
    def test_marginal_sums(self, n):
        g = random_generator(n, seed=4)
        assert np.max(np.abs(g.matrix.sum(axis=0))) < 1e-12
        assert np.max(np.abs(g.matrix.sum(axis=1))) < 1e-12

    def test_deterministic(self):
        a = random_generator(6, seed=123)
        b = random_generator(6, seed=123)
        assert np.array_equal(a.matrix, b.matrix)

    @pytest.mark.parametrize("n", [2, 7, 200])
    def test_rank_one_identity_matches_the_dense_projection(self, n):
        # P A P = A - r 1^T + 1 r^T, r the row means of A; measured against the
        # dense product: 0, 2.2e-16 and 2.4e-15 at n = 2, 7, 200 (bound 4x)
        g = random_generator(n, seed=7)
        a = np.random.default_rng(7).uniform(-1.0, 1.0, size=(n, n))
        proj = np.eye(n) - np.full((n, n), 1.0 / n)
        assert np.max(np.abs(g.matrix - proj @ ((a - a.T) / 2.0) @ proj)) <= 1e-14
        assert np.max(np.abs(g.matrix.sum(axis=0))) <= MARGINAL_TOL
        assert np.max(np.abs(g.matrix.sum(axis=1))) <= MARGINAL_TOL
        assert random_generator(n, seed=7).matrix.tobytes() == g.matrix.tobytes()

    def test_n3_is_multiple_of_cyclic(self):
        g = random_generator(3, seed=9)
        ref = cyclic_generator3().matrix
        mask = ref != 0.0
        ratios = g.matrix[mask] / ref[mask]
        assert np.max(np.abs(ratios - ratios[0])) < 1e-13


class TestExactConstruction:
    """random_generator and from_dense store the antisymmetric matrix they
    build as it is: the bits of triu((M - M^T) / 2, 1) and its reflection,
    which the public constructor would give."""

    @staticmethod
    def _reflected(m):
        upper = np.triu((m - m.T) / 2.0, 1)
        return upper, upper - upper.T

    def _assert_bits(self, g, m, rate):
        upper, full = self._reflected(m)
        assert g.upper.tobytes() == upper.tobytes()
        assert g.matrix.tobytes() == full.tobytes()
        assert g.rate == rate
        assert not g.upper.flags.writeable and not g.matrix.flags.writeable

    @pytest.mark.parametrize("n", [2, 3, 7, 200])
    @pytest.mark.parametrize("seed", [0, 11, 2**31 - 1])
    @pytest.mark.parametrize("rate", [1.0, -0.37])
    def test_random_generator(self, n, seed, rate):
        a = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, n))
        skew = (a - a.T) / 2.0
        r = skew.mean(axis=1)
        self._assert_bits(random_generator(n, seed, rate), skew + (r - r[:, None]), rate)

    @pytest.mark.parametrize("n", [2, 3, 7, 50])
    def test_from_dense_of_near_antisymmetric_input(self, n):
        rng = np.random.default_rng(n)
        m = random_generator(n, n + 1).matrix + rng.uniform(-1e-15, 1e-15, size=(n, n))
        self._assert_bits(GeneratorMatrix.from_dense(m, rate=2.5), m, 2.5)

    @pytest.mark.parametrize("n", [4, 9])
    def test_from_dense_of_blocks_among_signed_zeros(self, n):
        rng = np.random.default_rng(n)
        m = np.where(rng.random((n, n)) < 0.5, 0.0, -0.0)
        m[: n // 2, : n // 2] = random_generator(n // 2, 1).matrix
        m[n // 2 :, n // 2 :] = random_generator(n - n // 2, 2).matrix
        self._assert_bits(GeneratorMatrix.from_dense(m), m, 1.0)

    @pytest.mark.parametrize("m", [
        [[0.0, 0.0], [-0.0, 0.0]],  # -0.0 below the diagonal
        [[0.0, 5e-324], [0.0, 0.0]],  # (0 - 5e-324) / 2 rounds to -0.0
        [[-0.0, -0.0, 0.0], [0.0, -0.0, -5e-324], [-0.0, 5e-324, 0.0]],
    ])
    def test_from_dense_of_signed_zeros(self, m):
        m = np.array(m)
        self._assert_bits(GeneratorMatrix.from_dense(m), m, 1.0)

    @pytest.mark.parametrize("m, message", [
        (np.zeros((1, 1)), "generator needs dimension >= 2"),
        (np.zeros((0, 0)), "generator needs dimension >= 2"),  # a raw ValueError before
        (np.array([[0.0, 1.0], [-1.0, 0.0]]), "row sums reach 1.000e+00, exceed 1e-12"),
        (np.array([[0.0, 1e308], [-1e308, 0.0]]), "generator entries must be finite and real"),
    ])
    def test_from_dense_refusals(self, m, message):
        with np.errstate(over="ignore"), pytest.raises(DomainError) as info:
            GeneratorMatrix.from_dense(m)
        assert str(info.value) == message

    @pytest.mark.parametrize("make, message", [
        (lambda: GeneratorMatrix([[0.0, 1e308, 1e308], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
         "row sums reach inf, exceed 1e-12"),
        (lambda: GeneratorMatrix.from_dense([[0.0, 1e308], [1e308, 0.0]]),
         "matrix is not antisymmetric within 1e-12"),
        (lambda: GeneratorMatrix.from_dense(1e308 * cyclic_generator3().matrix),
         "generator entries must be finite and real"),
    ], ids=["row-sum", "dense-sum", "dense-difference"])
    def test_overflowing_refusals_print_no_warning(self, make, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as info:
                make()
        assert str(info.value) == message

    def test_row_sum_of_opposite_infinities_is_refused(self):
        # numpy's pairwise sum of row 0 adds +inf and -inf partial sums to
        # nan; row 1 sums to -1e308, and the nan hid it from np.max
        upper = np.zeros((17, 17))
        upper[0, [1, 9]], upper[0, [2, 10]] = 1e308, -1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^row sums reach nan, exceed 1e-12$"):
                GeneratorMatrix(upper)

    @pytest.mark.parametrize("m, rate, message", [
        (np.zeros((1, 2)), 1.0, "generator storage must be square"),
        (np.zeros((2, 2, 2)), 1.0, "generator storage must be square"),
        (np.ones((1, 1)), 1.0, "generator needs dimension >= 2"),  # before the triangle
        (np.zeros((0, 0)), 1.0, "generator needs dimension >= 2"),
        (np.array([[0.0, 0.0], [1.0, 0.0]]), math.nan, "rate must be finite and real, not nan"),
        (np.array([[1.0, 0.0], [0.0, 0.0]]), 1.0, "canonical storage must be strictly upper triangular"),
        (np.array([[0.0, 1.0], [-1.0, 0.0]]), 1.0, "canonical storage must be strictly upper triangular"),
        (np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0, "row sums reach 1.000e+00, exceed 1e-12"),
        (np.array([[0.0, math.inf], [0.0, 0.0]]), 1.0, "generator entries must be finite and real"),
    ])
    def test_public_constructor_refusals(self, m, rate, message):
        # where a triangle breaks two checks, the earlier check names it
        with pytest.raises(DomainError) as info:
            GeneratorMatrix(m, rate)
        assert str(info.value) == message

    @pytest.mark.parametrize("make", [
        lambda rate: random_generator(4, 1, rate),
        lambda rate: GeneratorMatrix.from_dense(cyclic_generator3().matrix, rate),
        lambda rate: GeneratorMatrix(cyclic_generator3().upper, rate),
    ])
    @pytest.mark.parametrize("rate", [math.nan, math.inf, "1"])
    def test_non_finite_rate_refused(self, make, rate):
        with pytest.raises(DomainError, match="^rate must be finite and real, not "):
            make(rate)


class TestHeldArrays:
    """What the fd path holds at n = 200: a generator from any constructor
    stores its full matrix alone, and the propagator frees I - H and I + H
    before the power."""

    N = 200

    @staticmethod
    def _traced(fn):
        """fn's result, and the traced memory after it and at its peak."""
        tracemalloc.start()
        try:
            out = fn()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return out, current, peak

    @pytest.mark.parametrize("make", [
        lambda n: random_generator(n, 11),
        lambda n: GeneratorMatrix.from_dense(random_generator(n, 3).matrix, rate=0.37),
    ])
    def test_built_generator_holds_one_array_until_upper_is_read(self, make):
        # measured 1.00 n^2 doubles held; storing triu(matrix, 1) too held 2.00
        make(self.N)  # warm-up: numpy's first random draw allocates its own state
        g, held, _ = self._traced(lambda: make(self.N))
        assert held < 1.5 * self.N**2 * 8
        assert "upper" not in vars(g) and g.n == self.N
        upper = g.upper
        assert not upper.flags.writeable
        assert upper.tobytes() == np.triu(g.matrix, 1).tobytes()
        assert g.upper is upper  # formed once

    def test_public_generator_holds_one_array_until_upper_is_read(self):
        # measured 1.00 n^2 doubles held; keeping the given triangle beside the
        # full matrix held 2.00
        half = self.N // 2
        m = np.zeros((self.N, self.N))  # two blocks, zeros between them
        m[:half, :half] = random_generator(half, 1).matrix
        m[half:, half:] = random_generator(half, 2).matrix
        given = np.triu(m, 1)
        off = given[:half, half:]
        off[np.random.default_rng(7).random(off.shape) < 0.5] = -0.0  # above the diagonal
        GeneratorMatrix(given, rate=0.37)  # warm-up
        g, held, _ = self._traced(lambda: GeneratorMatrix(given, rate=0.37))
        assert held < 1.5 * self.N**2 * 8
        assert "upper" not in vars(g) and g.n == self.N
        upper = g.upper
        assert not upper.flags.writeable
        assert upper.tobytes() == given.tobytes()  # each -0.0 above the diagonal too
        assert g.upper is upper  # formed once
        # the one triangle whose bits do not come back: a -0.0 mirrored by a
        # -0.0 below the diagonal.  The triangle check passes it (-0.0 == 0.0),
        # the stored matrix holds -0.0 - -0.0 = +0.0 there, and upper is read
        # from the matrix, so it reads +0.0
        mirrored = GeneratorMatrix(np.array([[0.0, -0.0], [-0.0, 0.0]]))
        assert mirrored.upper.tobytes() == np.zeros((2, 2)).tobytes()

    def test_propagator_peak_at_n_200(self):
        # the n = 200 fd job's sample propagator, 12 default steps: measured
        # peak 4.02 n^2 doubles, Q with matrix_power's three arrays (numpy's
        # solve buffers are not traced); holding G = rate * M, I - H and I + H
        # through the power peaked at 7.02 n^2.  The gate leaves half an array
        g = random_generator(self.N, 11)
        dynamics._propagator(g, 0.1, None)  # warm-up
        _, _, peak = self._traced(lambda: dynamics._propagator(g, 0.1, None))
        assert peak < 4.5 * self.N**2 * 8


class TestEvolve:
    def test_time_zero(self):
        out = evolve(E1, cyclic_generator3(), 0.0)
        assert np.array_equal(out.entries, E1.entries)

    def test_uniform_fixed_point(self):
        out = evolve(uniform(3), cyclic_generator3(), 7.3)
        assert np.allclose(out.entries, 1 / 3, atol=1e-13)

    def test_full_period_returns(self):
        # the cyclic generator rotates about the uniform axis at unit speed
        out = evolve(E1, cyclic_generator3(), 2 * math.pi, dt=2e-5)
        assert np.max(np.abs(out.entries - E1.entries)) < 1e-9

    def test_matches_exponential_oracle(self):
        cases = [(cyclic_generator3(), E1, 2 * math.pi)]
        rng = np.random.default_rng(31)
        for n in range(2, 7):
            g = random_generator(n, seed=n)
            x = rng.standard_normal(n)
            p0 = SignedProbVector(x / x.sum() if abs(x.sum()) > 0.3 else np.full(n, 1.0 / n))
            cases.append((g, p0, 3.7))
        for g, p0, t in cases:
            exact = matrix_exp_taylor(t * g.rate * g.matrix) @ p0.entries
            out = evolve(p0, g, t, dt=2e-5)
            rel = np.linalg.norm(out.entries - exact) / np.linalg.norm(exact)
            assert rel < 1e-9

    def test_taylor_oracle_agrees_with_scipy(self):
        g = random_generator(5, seed=2)
        m = 1.7 * g.rate * g.matrix
        assert np.max(np.abs(matrix_exp_taylor(m) - scipy.linalg.expm(m))) < 1e-12

    def test_composition(self):
        g = random_generator(4, seed=77)
        p0 = SignedProbVector(np.array([0.7, 0.3, 0.2, -0.2]))
        a = evolve(evolve(p0, g, 0.73, dt=2e-5), g, 1.31, dt=2e-5)
        b = evolve(p0, g, 0.73 + 1.31, dt=2e-5)
        assert np.max(np.abs(a.entries - b.entries)) < 1e-9

    def test_conserves_invariants_for_any_step(self):
        g = random_generator(6, seed=5)
        x = np.array([0.9, 0.3, -0.2, 0.1, -0.3, 0.2])
        p0 = SignedProbVector(x)
        for dt in (0.5, 0.05, None):
            out = evolve(p0, g, 12.0, dt=dt)
            assert abs(out.entries.sum() - 1.0) < 1e-12
            assert abs(out.information - p0.information) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            evolve(uniform(4), cyclic_generator3(), 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", ["t", "dt"])
    def test_non_finite_time_or_step_rejected(self, which, bad):
        args = {"t": 1.0, "dt": 0.1, which: bad}
        with pytest.raises(DomainError):
            evolve(E1, cyclic_generator3(), args["t"], dt=args["dt"])

    def test_tangency(self):
        g = random_generator(7, seed=13)
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.standard_normal(7)
            mp = g.matrix @ x
            assert abs(mp.sum()) < 1e-12 * max(1.0, np.abs(x).max())
            assert abs(x @ mp) < 1e-12 * max(1.0, x @ x)


class TestStepRuleLog:
    """The fd step decision is logged at DEBUG on the "logent" logger: the
    rule, the step count, the step and |G|_2 when the default computes it."""

    def test_default_and_caller_rules(self, caplog):
        g = cyclic_generator3()
        with caplog.at_level(logging.DEBUG, logger="logent"):
            evolve(E1, g, 1.0)
            evolve(E1, g, -1.0, dt=0.3)
        default, caller = [r for r in caplog.records if r.name == "logent"]
        assert default.levelno == caller.levelno == logging.DEBUG
        rule, n, step, norm = default.args
        assert rule.startswith("default") and "0.1 rad" in rule
        assert norm == pytest.approx(np.linalg.norm(g.rate * g.matrix, 2))
        assert (n, step) == (10, pytest.approx(0.1)) and step * norm <= 0.1
        assert caller.args == ("caller's dt", 4, -0.25, None)
        assert "fd step rule: caller's dt; 4 steps of -0.25" in caller.getMessage()

    def test_trajectory_logs_its_sample_propagator(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="logent"):
            trajectory(E1, cyclic_generator3(), 1.0, 0.5)
        (record,) = [r for r in caplog.records if r.name == "logent"]
        assert record.args[0].startswith("default") and record.args[1:3] == (5, 0.1)

    def test_nothing_logged_above_debug(self, caplog):
        with caplog.at_level(logging.INFO, logger="logent"):
            evolve(E1, cyclic_generator3(), 1.0)
        assert not [r for r in caplog.records if r.name == "logent"]

    def test_cli_output_unchanged_with_debug_logging(self, caplog, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        runner = CliRunner()
        quiet = runner.invoke(main, ["evolve", "fd", "--t-end", "1"])
        with caplog.at_level(logging.DEBUG, logger="logent"):
            loud = runner.invoke(main, ["evolve", "fd", "--t-end", "1"])
        assert quiet.exit_code == loud.exit_code == 0
        assert quiet.output == loud.output


def _logged_norm(caplog, g, t):
    """|G|_2 as the default fd step rule logs it for a run over t."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="logent"):
        evolve(SignedProbVector(np.eye(g.n)[0]), g, t)
    (record,) = [r for r in caplog.records if r.name == "logent"]
    return record.args[3]


class TestDefaultStepNorm:
    """The default step's |G|_2 comes from one eigvalsh of the scaled G^T G."""

    GENERATORS = {"cyclic3": cyclic_generator3, **{
        f"random{n}": (lambda n=n: random_generator(n, seed=7)) for n in (2, 7, 200)
    }}

    @pytest.mark.parametrize("rate", [None, 1e200, 1e-200])
    @pytest.mark.parametrize("name", list(GENERATORS))
    def test_matches_the_svd_norm_within_ulps(self, caplog, name, rate):
        # measured at most 6 ulps here (random200 at rate 1) and 9 over seeds 0-29
        # at n = 200; random2 is the zero generator
        g = self.GENERATORS[name]()
        if rate is not None:
            g = GeneratorMatrix(g.upper, rate=rate)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = _logged_norm(caplog, g, 1.0 / (rate or 1.0))
        ref = np.linalg.norm(g.rate * g.matrix, 2)
        assert abs(norm - ref) <= 16 * np.spacing(ref)

    @pytest.mark.parametrize(
        "rate, message",
        [(1e300, "needs more than 1e\\+07 steps"), (5e-324, "dt must be finite and real, not inf")],
    )
    @pytest.mark.parametrize("name", ["cyclic3", "random7", "random200"])
    def test_extreme_rates_raise_domain_error(self, name, rate, message):
        g = GeneratorMatrix(self.GENERATORS[name]().upper, rate=rate)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message):
                evolve(SignedProbVector(np.eye(g.n)[0]), g, 1.0)

    def test_overflowed_generator_raises_domain_error(self):
        g = GeneratorMatrix(2.0 * cyclic_generator3().upper, rate=1e308)  # rate * M overflows
        with np.errstate(over="ignore"), pytest.raises(DomainError):
            evolve(E1, g, 1.0)

    @pytest.mark.parametrize("dt", [0.1, None])
    def test_overflowing_rate_raises_before_numpy(self, dt):
        g = GeneratorMatrix(2.0 * cyclic_generator3().upper, rate=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"rate \* max\|M\| = 1e\+308 \* 2\.0 is beyond"):
                evolve(E1, g, 1.0, dt)
            with pytest.raises(DomainError, match=r"rate \* max\|M\| = 1e\+308 \* 2\.0 is beyond"):
                trajectory(E1, g, 1.0, dt or 0.5)

    def test_default_step_takes_no_svd(self, monkeypatch):
        # norm(x, 2) reaches numpy's SVD without the np.linalg.svd attribute
        calls = []
        svd, norm = np.linalg.svd, np.linalg.norm

        def spectral_norm_spy(x, ord=None, *args, **kw):
            if ord in (2, -2):
                calls.append("norm")
            return norm(x, ord, *args, **kw)

        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append("svd") or svd(*a, **kw))
        monkeypatch.setattr(np.linalg, "norm", spectral_norm_spy)
        for g in (cyclic_generator3(), random_generator(7, seed=7)):
            p0 = SignedProbVector(np.eye(g.n)[0])
            evolve(p0, g, 1.0)
            trajectory(p0, g, 1.0, 0.5)
        assert calls == []
        np.linalg.norm(np.eye(2), 2)
        np.linalg.svd(np.eye(2))
        assert calls == ["norm", "svd"]


def _eigvalsh_norm(g):
    """|G|_2 as the default step rule's eigvalsh computes it."""
    m = abs(g.rate) * float(np.max(np.abs(g.matrix)))
    unit = g.rate * g.matrix / m
    return m * math.sqrt(np.linalg.eigvalsh(unit.T @ unit)[-1])


def _spy(monkeypatch, *names):
    """Count the calls of np.linalg functions by name."""
    calls = []

    def spy(name, real):
        return lambda *args, **kw: calls.append(name) or real(*args, **kw)

    for name in names:
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
    return calls


class TestCertifiedStepCount:
    """The default step count is decided by a Krylov lower bound of |G|_2 and
    a Cholesky proof of an upper one, with eigvalsh only where they leave the
    ceiling open, and is then eigvalsh's step count exactly."""

    @pytest.mark.parametrize("size", [8, 20, 50, 200, 333])
    def test_certified_count_is_the_eigvalsh_count(self, size):
        decided = cases = 0
        for seed in range(40):
            base = random_generator(size, seed)
            for rate in (1.0, 0.37, 300.0):
                g = GeneratorMatrix(base.upper, rate=rate)
                norm = _eigvalsh_norm(g)
                for t in (0.1, 0.05, 1 / 3, 1.0, -0.7, 2.5, 10.0, 1e-3):
                    lo = dynamics._norm_bracket(g, t, float(g.matrix.max()))
                    cases += 1
                    if lo is not None:
                        decided += 1
                        assert lo <= norm
                        assert steps(t, None, lo)[0] == steps(t, None, norm)[0], (seed, rate, t)
        assert decided >= 0.9 * cases  # 4,700 of the 4,800 cases over all five sizes

    def test_recurrence_stops_where_the_krylov_space_closes(self, monkeypatch):
        # a zero-marginal antisymmetric M has rank at most n - 1, and even, and M^T M holds
        # each nonzero eigenvalue twice, so a start column in its range spans a Krylov space
        # of (n - 1) // 2 vectors: one for cyclic3 and n = 3 and 4 (its column is then an
        # eigenvector) and three for n = 8, where the tridiagonal matrix stops
        cases = [(GeneratorMatrix(cyclic_generator3().upper, rate=rate), 1) for rate in (1.0, 0.37)]
        cases += [(random_generator(n, seed, rate=rate), (n - 1) // 2)
                  for n in (3, 4, 8) for seed in range(5) for rate in (1.0, 0.37)]
        sizes, eigh = [], np.linalg.eigh  # the tridiagonal matrix's size, at each call
        monkeypatch.setattr(np.linalg, "eigh", lambda a: sizes.append(len(a)) or eigh(a))
        decided = total = 0
        for g, closed in cases:
            norm = _eigvalsh_norm(g)
            for t in (0.1, 0.05, 1 / 3, 1.0, -0.7, 2.5, 10.0, 1e-3):
                lo = dynamics._norm_bracket(g, t, float(g.matrix.max()))
                assert sizes.pop() == closed
                total += 1
                if lo is not None:
                    decided += 1
                    assert lo <= norm
                    assert steps(t, None, lo)[0] == steps(t, None, norm)[0], (g.n, g.rate, t)
        assert decided >= 0.9 * total  # all 256 cases here

    def test_cli_fd_job_takes_no_eigvalsh(self, monkeypatch, tmp_path, caplog):
        monkeypatch.chdir(tmp_path)
        args = ["evolve", "fd", "--generator", "random", "--n", "200", "--seed", "11",
                "--t-end", "1", "--dt", "0.1", "--p0", ",".join(["1"] + ["0"] * 199)]
        calls = _spy(monkeypatch, "eigvalsh")
        quiet = CliRunner().invoke(main, args)
        assert quiet.exit_code == 0 and calls == []
        with caplog.at_level(logging.DEBUG, logger="logent"):
            loud = CliRunner().invoke(main, args)
        (record,) = [r for r in caplog.records if r.name == "logent"]
        rule, n, step, norm = record.args
        assert rule == "default, 0.1 rad per step (certified)" and calls == ["eigvalsh"]
        assert n == steps(0.1, None, norm)[0] and step == 0.1 / n
        assert loud.output == quiet.output

    def test_cyclic3_at_a_ceiling_boundary_takes_eigvalsh(self, monkeypatch, caplog):
        # |G|_2 = 1 and t = 1: 10 steps of 0.1 rad, at the top of the ceiling
        g = cyclic_generator3()
        assert dynamics._norm_bracket(g, 1.0, 1.0) is None
        calls = _spy(monkeypatch, "eigvalsh")
        quiet = evolve(E1, g, 1.0)
        assert calls == ["eigvalsh"]
        with caplog.at_level(logging.DEBUG, logger="logent"):
            loud = evolve(E1, g, 1.0)
        (record,) = [r for r in caplog.records if r.name == "logent"]
        assert record.args[:3] == ("default, 0.1 rad per step (eigvalsh)", 10, 0.1)
        assert quiet.entries.tobytes() == loud.entries.tobytes()

    @pytest.mark.parametrize("make", [cyclic_generator3, lambda: random_generator(200, 11)])
    def test_zero_time_builds_no_propagator(self, monkeypatch, caplog, make):
        g = make()
        p0 = SignedProbVector(np.eye(g.n)[0])
        calls = _spy(monkeypatch, "eigvalsh", "solve")
        with caplog.at_level(logging.DEBUG, logger="logent"):
            rec = trajectory(p0, g, 0.0, 0.1)
            out = evolve(p0, g, -0.0)
        assert calls == []
        assert list(rec.times) == [0.0] and len(rec.states) == 1
        assert rec.states[0].entries.tobytes() == out.entries.tobytes() == p0.entries.tobytes()
        assert [r.args[:3] for r in caplog.records if r.name == "logent"] == [
            ("default, 0.1 rad per step (no step)", 0, 0.0)
        ] * 2

    def test_debug_logging_keeps_the_propagator_bits(self, caplog):
        for g, t in ((random_generator(50, 3, rate=0.37), -0.7), (random_generator(200, 11), 0.1)):
            quiet = dynamics._propagator(g, t, None)
            with caplog.at_level(logging.DEBUG, logger="logent"):
                loud = dynamics._propagator(g, t, None)
            assert quiet.tobytes() == loud.tobytes()


class TestTrajectory:
    def test_single_step_consistency(self):
        g = cyclic_generator3()
        rec = trajectory(E1, g, 0.1, 0.1)
        direct = evolve(E1, g, 0.1)
        assert np.array_equal(rec.states[-1].entries, direct.entries)

    def test_long_run_conservation_n3(self):
        rec = trajectory(E1, cyclic_generator3(), 100.0, 0.1)
        assert rec.probability_drift.max() < 1e-12
        assert rec.information_drift.max() < 1e-10

    def test_long_run_conservation_n8(self):
        g = random_generator(8, seed=21)
        x = np.zeros(8)
        x[0] = 1.0
        rec = trajectory(SignedProbVector(x), g, 100.0, 0.5)
        assert rec.probability_drift.max() < 1e-12
        assert rec.information_drift.max() < 1e-10

    def test_pure_stays_pure(self):
        from logent import StateClass, classify

        rec = trajectory(E1, cyclic_generator3(), 5.0, 0.25)
        for state in rec.states:
            assert classify(state) is StateClass.PURE

    def test_rejects_bad_dt(self):
        with pytest.raises(DomainError):
            trajectory(E1, cyclic_generator3(), 1.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", ["t_end", "dt"])
    def test_non_finite_time_or_step_rejected(self, which, bad):
        args = {"t_end": 1.0, "dt": 0.1, which: bad}
        with pytest.raises(DomainError):
            trajectory(E1, cyclic_generator3(), args["t_end"], args["dt"])

    @pytest.mark.parametrize("n", [3, 200])
    def test_states_match_repeated_evolve_bit_for_bit(self, n):
        g = random_generator(n, seed=11)
        p0 = SignedProbVector(np.eye(n)[0])
        rec = trajectory(p0, g, 1.0, 0.1)
        state = p0
        for sample in rec.states[1:]:
            state = evolve(state, g, 0.1)
            assert np.array_equal(sample.entries, state.entries)
        assert len(rec.states) == 11

    @pytest.mark.parametrize("t_end", [1.0, -1.0])
    @pytest.mark.parametrize("g", [cyclic_generator3(), random_generator(7, 3)], ids=["cyclic3", "random7"])
    def test_uneven_span_ends_at_t_end_in_equal_samples(self, g, t_end):
        # |t_end| / dt = 3.33: the shared step rule cuts t_end into four samples of t_end / 4
        p0 = SignedProbVector(np.eye(g.n)[0])
        rec = trajectory(p0, g, t_end, 0.3)
        assert rec.times.tolist() == [t_end * k / 4 for k in range(5)]
        assert rec.times[-1] == t_end and math.copysign(1.0, rec.times[0]) == 1.0
        state = p0
        for sample in rec.states[1:]:
            state = evolve(state, g, t_end / 4)
            assert np.array_equal(sample.entries, state.entries)

    def test_span_below_dt_takes_one_sample(self):
        rec = trajectory(E1, cyclic_generator3(), 0.05, 0.1)
        assert rec.times.tolist() == [0.0, 0.05] and len(rec.states) == 2
        assert np.array_equal(rec.states[1].entries, evolve(E1, cyclic_generator3(), 0.05).entries)

    def test_cli_uneven_and_backward_runs(self, tmp_path):
        runner = CliRunner()
        for t_end, name in (("1", "uneven.csv"), ("-1", "back.csv")):
            path = tmp_path / name
            res = runner.invoke(main, ["evolve", "fd", "--t-end", t_end, "--dt", "0.3", "--output", str(path)])
            assert res.exit_code == 0, res.output
            assert read_trajectory_csv(path)["times"][-1] == float(t_end)
        res = runner.invoke(main, ["evolve", "fd", "--t-end", "-1", "--output", str(tmp_path / "d.csv")])
        assert res.exit_code == 0, res.output
        assert len(read_trajectory_csv(tmp_path / "d.csv")["times"]) == 11

    def test_csv_round_trip(self, tmp_path):
        rec = trajectory(E1, cyclic_generator3(), 1.0, 0.1)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(rec, path)
        back = read_trajectory_csv(path)
        # values survive the 15-digit format exactly at that precision
        for orig, rebuilt in zip(rec.states, back["states"]):
            reformatted = [f"{v:.14e}" for v in rebuilt]
            assert reformatted == [f"{v:.14e}" for v in orig.entries]
        assert np.allclose(back["times"], rec.times, atol=1e-14)

    def test_csv_bytes_match_per_row_format(self, tmp_path):
        p0 = SignedProbVector(np.array([1.0, -0.0, 0.0]))
        rec = trajectory(p0, cyclic_generator3(), 1.0, 0.1)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(rec, path)
        rows = "".join(
            ",".join(f"{v:.14e}" for v in [t, *state.entries, pd, idr]) + "\n"
            for t, state, pd, idr in zip(
                rec.times, rec.states, rec.probability_drift, rec.information_drift
            )
        )
        assert path.read_text() == "t,p_0,p_1,p_2,sum_drift,info_drift\n" + rows
        assert "-0.00000000000000e+00" in rows

    @pytest.mark.parametrize(
        "body",
        [
            "0.0,1.0,0.0,0.0,0.0,oops\n",  # non-numeric cell
            "0.0,1.0,0.0,0.0,0.0,0.0\n0.1,0.9,0.1,0.0\n",  # short row
            "0.0,1.0,0.0,0.0,0.0\n0.1,0.9,0.1,0.0,0.0\n",  # every row short
        ],
    )
    def test_malformed_csv_raises_grid_error(self, tmp_path, body):
        path = tmp_path / "traj.csv"
        path.write_text("t,p_0,p_1,p_2,sum_drift,info_drift\n" + body)
        with pytest.raises(GridError):
            read_trajectory_csv(path)

    @pytest.mark.parametrize(
        "args, name",
        [
            (["wigner", "--nx", "32", "--npts", "32", "--t-end", "0.05"], "wigner_diag.csv"),
            (["continuum", "--n", "64", "--samples", "5"], "continuum_diag.csv"),
        ],
    )
    def test_diagnostics_csv_is_not_a_trajectory(self, tmp_path, monkeypatch, args, name):
        # t and three columns: these read back as one-outcome trajectories before
        monkeypatch.chdir(tmp_path)
        res = CliRunner().invoke(main, ["evolve", *args])
        assert res.exit_code == 0, res.output
        with pytest.raises(GridError, match="not a trajectory CSV"):
            read_trajectory_csv(tmp_path / name)

    @pytest.mark.parametrize(
        "header",
        [
            "t,p_0,sum_drift,info_drift",  # one outcome
            "t,p_0,p_2,sum_drift,info_drift",  # an outcome skipped
            "t,p_0,p_1,info_drift,sum_drift",  # drifts swapped
            "time,p_0,p_1,sum_drift,info_drift",
        ],
    )
    def test_header_other_than_the_writers_raises(self, tmp_path, header):
        path = tmp_path / "traj.csv"
        path.write_text(header + "\n" + ",".join(["0.5"] * len(header.split(","))) + "\n")
        with pytest.raises(GridError, match="not a trajectory CSV"):
            read_trajectory_csv(path)


class TestBoundaryValues:
    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_raises(self, rate):
        with pytest.raises(DomainError):
            GeneratorMatrix(cyclic_generator3().upper, rate=rate)

    def test_negative_seed_raises(self):
        with pytest.raises(DomainError):
            random_generator(4, -1)

    @pytest.mark.parametrize("n, seed", [(2.5, 0), (True, 0), (3, None), (3, 1.5), (3, "0")])
    def test_non_integer_size_or_seed_raises(self, n, seed):
        with pytest.raises(DomainError):
            random_generator(n, seed)


def test_default_step_refuses_an_overflowing_spectral_norm():
    # max|G| = 1.7e308 is finite, |G|_2 = sqrt(3) * 1.7e308 is not
    g = GeneratorMatrix(cyclic_generator3().upper, rate=1.7e308)
    with pytest.raises(DomainError, match=r"^\|G\|_2 must be finite and real, not inf"):
        evolve(E1, g, 1.0)


class TestMalformedGenerator:
    @pytest.mark.parametrize("upper", [np.zeros((2, 3)), np.zeros(4), np.zeros((2, 2, 2))])
    def test_non_square_storage(self, upper):
        with pytest.raises(DomainError, match="^generator storage must be square"):
            GeneratorMatrix(upper)

    def test_one_by_one_storage(self):
        with pytest.raises(DomainError, match="^generator needs dimension >= 2"):
            GeneratorMatrix(np.zeros((1, 1)))

    def test_from_dense_of_a_non_square_matrix(self):
        with pytest.raises(DomainError, match="^generator must be square"):
            GeneratorMatrix.from_dense(np.zeros((3, 2)))

    def test_trajectory_of_mismatched_sizes(self):
        with pytest.raises(DimensionMismatchError, match="^state has n = 4, generator n = 3"):
            trajectory(uniform(4), cyclic_generator3(), 1.0, 0.1)
