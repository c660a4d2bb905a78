"""The split step's default rules: the exact three-shear flow for a constant,
linear or harmonic (c >= 0) potential, and otherwise Yoshida's fourth-order
composition at the largest step whose substeps keep every grid phase within
pi.

Accuracy is measured against two oracles that share no code with the
solver: the analytic rotation for the harmonic potential and the
wavefunction reference for the others.
"""
import logging
import math

import numpy as np
import pytest

from logent import (
    DomainError, PotentialSpec, gaussian_pure_wigner, wigner, wigner_evolve, wigner_run,
)
from oracles import rotated_gaussian_wigner, wavefunction_wigner

SIGMA = 1.0 / (2.0 * math.sqrt(math.pi))  # saturating width at h = 1
SIGMA_P = 1.0 / (4.0 * math.pi * SIGMA)


def rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    return math.sqrt(float(np.sum((a - b) ** 2)) / float(np.sum(b**2)))


def harmonic_error(w, x_center, p_center, t):
    ref = rotated_gaussian_wigner(w.x, w.p, SIGMA, SIGMA_P, x_center, p_center, 1.0, 1.0, t)
    return rel_l2(w.values, ref)


class TestFourthOrder:
    def test_error_falls_sixteenfold_per_halved_step(self):
        # the private loop at chosen step counts, past the default's step
        w0 = gaussian_pure_wigner(64, 64, 8.0, 8.0, SIGMA, x_center=0.8)
        kick_rate, transport_rate = wigner._phase_rates(w0, PotentialSpec.harmonic(1.0))
        errors = []
        for n in (8, 16, 32):
            _, wt = wigner._loop(w0, kick_rate, transport_rate, wigner.YOSHIDA, n, 1.0 / n, False)
            errors.append(harmonic_error(wt, 0.8, 0.0, 1.0))
        # measured: 2.8e-5, 1.8e-6, 1.1e-7 (ratios 16.15 and 16.04)
        for coarse, fine in zip(errors, errors[1:]):
            assert 15.0 < coarse / fine < 17.0

    def test_stage_weights(self):
        assert sum(wigner.YOSHIDA) == pytest.approx(1.0, abs=1e-15)
        assert sum(w**3 for w in wigner.YOSHIDA) == pytest.approx(0.0, abs=1e-14)
        assert wigner.STRANG == (1.0,)


class TestDefaultAccuracy:
    def test_quartic_matches_wavefunction_reference(self):
        # measured 9.46e-6: the floor of this grid, set by the momentum window
        # (the same run with a caller's dt = 1e-3 gives 9.47e-6)
        sigma_x, x_center, t = 0.4, 1.15, 1.0
        w0 = gaussian_pure_wigner(128, 128, 8.0, 8.0, sigma_x, x_center=x_center)
        wt = wigner_evolve(w0, PotentialSpec.quartic(0.1), t)
        ref = wavefunction_wigner(
            wt.x, wt.p, 1.0, 1.0, lambda x: 0.1 * x**4, sigma_x, x_center, 0.0, t
        )
        assert rel_l2(wt.values, ref) < 1.5e-5
        assert abs(wt.information - w0.information) < 1e-12


class TestWavefunctionOracle:
    def test_initial_state_is_the_gaussian(self):
        w0 = gaussian_pure_wigner(128, 128, 8.0, 8.0, 0.4, x_center=1.15)
        ref = wavefunction_wigner(w0.x, w0.p, 1.0, 1.0, lambda x: 0.1 * x**4, 0.4, 1.15, 0.0, 0.0)
        # measured 9.5e-12 of the peak
        assert np.max(np.abs(ref - w0.values)) < 1e-10 * np.max(w0.values)

    def test_agrees_with_the_analytic_rotation(self):
        w0 = gaussian_pure_wigner(128, 128, 8.0, 8.0, SIGMA, x_center=1.0, p_center=0.5)
        ref = wavefunction_wigner(w0.x, w0.p, 1.0, 1.0, lambda x: 0.5 * x**2, SIGMA, 1.0, 0.5, 2.9)
        rot = rotated_gaussian_wigner(w0.x, w0.p, SIGMA, SIGMA_P, 1.0, 0.5, 1.0, 1.0, 2.9)
        assert rel_l2(ref, rot) < 1e-12  # measured 8.3e-14


class TestDefaultRule:
    @pytest.mark.parametrize(
        "potential, t, rows",
        [(PotentialSpec.quartic(0.1), 0.1, 137),  # Yoshida: 136 steps, as measured
         (PotentialSpec.harmonic(1.0), 1.0, 3)],  # exact: 2 pieces of pi/4 or less
        ids=["yoshida", "exact"],
    )
    def test_step_count_is_pinned(self, potential, t, rows):
        w0 = gaussian_pure_wigner(128, 128, 8.0, 8.0, SIGMA)
        rec, _ = wigner_run(w0, potential, t)
        assert len(rec.times) == rows
        assert rec.times[-1] == pytest.approx(t, abs=1e-15)

    @pytest.mark.parametrize("t", [0.37, -0.37])
    def test_run_and_evolve_agree_bit_for_bit(self, t):
        w0 = gaussian_pure_wigner(64, 64, 8.0, 8.0, SIGMA, x_center=0.7, p_center=0.3)
        pot = PotentialSpec.quartic(0.05)
        _, final = wigner_run(w0, pot, t)
        evolved = wigner_evolve(w0, pot, t)
        assert np.array_equal(final.values, evolved.values)
        assert np.max(np.abs(evolved.values - w0.values)) > 1e-3  # the state moved

    def test_step_decision_is_logged(self, caplog):
        w0 = gaussian_pure_wigner(128, 128, 8.0, 8.0, SIGMA)
        with caplog.at_level(logging.DEBUG, logger="logent"):
            wigner_evolve(w0, PotentialSpec.quartic(0.1), 0.1)
            wigner_evolve(w0, PotentialSpec.harmonic(1.0), 1.0)
            wigner_run(w0, PotentialSpec.harmonic(1.0), 0.1, dt=0.01)
        default, exact, caller = [r for r in caplog.records if r.name == "logent"]
        assert default.levelno == exact.levelno == caller.levelno == logging.DEBUG
        rule, n, step, rate, phase = default.args
        assert "4th-order" in rule and (n, step) == (136, 0.1 / 136)
        assert phase == pytest.approx(max(map(abs, wigner.YOSHIDA)) * step * rate)
        assert math.pi * 0.99 < phase <= math.pi
        rule, n, step, omega, angle = exact.args
        assert "exact" in rule and (n, step, omega, angle) == (2, 0.5, 1.0, 0.5)
        rule, n, step, rate, phase = caller.args
        assert "Strang" in rule and n == 10 and phase == pytest.approx(0.01 * rate)

    def test_nothing_logged_above_debug(self, caplog):
        w0 = gaussian_pure_wigner(32, 32, 8.0, 8.0, SIGMA)
        with caplog.at_level(logging.INFO, logger="logent"):
            wigner_evolve(w0, PotentialSpec.harmonic(1.0), 0.1)
        assert not [r for r in caplog.records if r.name == "logent"]


class TestExactQuadraticFlow:
    """The default rule of a constant, linear or harmonic V with c >= 0: pieces
    of at most pi/4 of the rotation at Omega = sqrt(2c / mass), each three
    exact shears.  Each gate is about 4 times its measured error; Yoshida
    steps reached 3.0e-11 on the first case.  The first four cases are the
    benchmark's harmonic jobs on their |x_center| range.  On every case
    wigner_evolve must give wigner_run's final state bit for bit.  The shear
    path takes its rates from _phase_rates, so it is checked against the
    closed forms alone."""

    @pytest.mark.parametrize(
        "x_center, p_center, t, pieces, gate",
        [
            (0.3, 0.0, 0.1, 1, 2e-15),  # measured 5.1e-16
            (-1.2, 0.0, 0.1, 1, 2.4e-15),  # measured 5.6e-16
            (0.3, 0.0, 0.04, 1, 2e-15),  # measured 4.6e-16
            (1.2, 0.0, 0.04, 1, 2.4e-15),  # measured 5.9e-16
            (1.0, 0.5, 2.9, 4, 4e-15),  # measured 9.1e-16
            (1.0, 0.5, 10.0, 13, 8e-15),  # measured 1.8e-15; Yoshida: 1,073 steps
            (1.0, 0.5, -2.9, 4, 4e-15),  # measured 9.3e-16
        ],
    )
    def test_harmonic_rotation(self, x_center, p_center, t, pieces, gate):
        w0 = gaussian_pure_wigner(
            128, 128, 8.0, 8.0, SIGMA, x_center=x_center, p_center=p_center
        )
        rec, wt = wigner_run(w0, PotentialSpec.harmonic(1.0), t)
        assert len(rec.times) == pieces + 1
        assert harmonic_error(wt, x_center, p_center, t) < gate
        evolved = wigner_evolve(w0, PotentialSpec.harmonic(1.0), t)
        assert evolved.values.tobytes() == wt.values.tobytes()

    @pytest.mark.parametrize("t", [1.7, -1.7])
    def test_nonunit_h_and_mass(self, t):
        # 2 pieces; measured 7.9e-16 and 1.5e-15 (Yoshida: 296 steps, 1.5e-10)
        h, mass, omega, sigma_x = 0.8, 2.0, 0.9, 0.2
        w0 = gaussian_pure_wigner(128, 128, 8.0, 8.0, sigma_x, h=h, mass=mass, x_center=0.5)
        rec, wt = wigner_run(w0, PotentialSpec.harmonic(omega, mass=mass), t)
        ref = rotated_gaussian_wigner(
            wt.x, wt.p, sigma_x, h / (4.0 * math.pi * sigma_x), 0.5, 0.0, mass, omega, t
        )
        assert len(rec.times) == 3
        assert rel_l2(wt.values, ref) < 6e-15

    @pytest.mark.parametrize(
        "potential, profile, gate",
        [
            (PotentialSpec.linear(0.7), lambda x: 0.7 * x, 9e-14),  # measured 2.2e-14
            (PotentialSpec.constant(1.3), lambda x: 0.0 * x + 1.3, 2.2e-13),  # 5.4e-14
        ],
        ids=["linear", "constant"],
    )
    def test_one_piece_matches_wavefunction_reference(self, potential, profile, gate):
        # the reference's own floor: Yoshida's 54 steps measured 2.8e-14 and 5.7e-14
        sigma_x, x_center, p_center, t = 0.4, 0.3, 0.2, 0.5
        w0 = gaussian_pure_wigner(
            128, 128, 8.0, 8.0, sigma_x, x_center=x_center, p_center=p_center
        )
        rec, wt = wigner_run(w0, potential, t)
        ref = wavefunction_wigner(wt.x, wt.p, 1.0, 1.0, profile, sigma_x, x_center, p_center, t)
        assert len(rec.times) == 2
        assert rel_l2(wt.values, ref) < gate
        assert np.max(np.abs(wt.values - w0.values)) > 0.1  # the state moved

    def test_invariants_drift_at_round_off(self):
        # measured over 13 pieces to t = 10: sum 3.3e-16, I 7.8e-16 (Yoshida's
        # 1,073 steps: 1.9e-15 and 2.1e-13)
        w0 = gaussian_pure_wigner(128, 128, 8.0, 8.0, SIGMA, x_center=1.0, p_center=0.5)
        rec, _ = wigner_run(w0, PotentialSpec.harmonic(1.0), 10.0)
        assert len(rec.times) == 14
        assert np.max(np.abs(rec.total_probability - rec.total_probability[0])) <= 1e-14
        assert np.max(np.abs(rec.information - rec.information[0])) <= 1e-14

    @pytest.mark.parametrize(
        "potential, t, pieces",
        [(PotentialSpec.harmonic(1.0), 2.0, 3), (PotentialSpec.linear(0.7), 2.0, 1)],
        ids=["harmonic", "linear"],
    )
    def test_real_transform_count(self, monkeypatch, potential, t, pieces):
        # four real transforms per piece, one into and one out of the p
        # spectrum per run, and for a record one more per recorded piece
        calls = []
        for name in ("rfft", "irfft"):
            def counted(*args, _fft=getattr(np.fft, name), **kwargs):
                calls.append(None)
                return _fft(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        w0 = gaussian_pure_wigner(64, 32, 8.0, 8.0, SIGMA, x_center=0.7)
        wigner_run(w0, potential, t)
        assert len(calls) == 5 * pieces + 1
        calls.clear()
        wigner_evolve(w0, potential, t)
        assert len(calls) == 4 * pieces + 2
        calls.clear()
        wigner_run(w0, potential, 0.0)
        wigner_evolve(w0, potential, 0.0)
        assert calls == []

    @pytest.mark.parametrize(
        "potential, rule",
        [
            (PotentialSpec.harmonic(1.0), "exact"),
            (PotentialSpec.harmonic(0.0), "exact"),
            (PotentialSpec.linear(-0.7), "exact"),
            (PotentialSpec.constant(1.3), "exact"),
            (PotentialSpec("harmonic", (-0.5,)), "4th-order"),  # the inverted oscillator
            (PotentialSpec.quartic(0.1), "4th-order"),
            (PotentialSpec.tabulated(np.linspace(-9.0, 9.0, 7), np.zeros(7)), "4th-order"),
        ],
        ids=["harmonic", "zero-harmonic", "linear", "constant", "inverted", "quartic",
             "tabulated"],
    )
    def test_the_family_selects_the_rule(self, caplog, potential, rule):
        w0 = gaussian_pure_wigner(32, 32, 8.0, 8.0, SIGMA)
        with caplog.at_level(logging.DEBUG, logger="logent"):
            wigner_evolve(w0, potential, 0.1)
            wigner_evolve(w0, potential, 0.1, dt=1e-3)
        default, caller = [r for r in caplog.records if r.name == "logent"]
        assert rule in default.args[0] and "Strang" in caller.args[0]

    def test_huge_omega_is_refused(self):
        # pi/4 per piece at Omega = 1e10 needs more than MAX_STEPS pieces
        w0 = gaussian_pure_wigner(32, 32, 8.0, 8.0, SIGMA)
        with pytest.raises(DomainError, match="needs more than"):
            wigner_evolve(w0, PotentialSpec.harmonic(1e10), 1.0)
