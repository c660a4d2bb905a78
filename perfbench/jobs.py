"""Job kinds of the three benchmark workloads, and the gates that check them.

A job is one request a user makes of logent: a library call (wigner-bare,
the density pair) or an in-process ``logent`` command (everything else).
Its ``run`` function does the program's work, including reading back what
the command wrote; its ``check`` function compares the output with the test
suite's oracles at the test suite's own tolerances and raises GateMiss when
one is missed.  Checks are not timed.

Seeded parameters move centres, offsets and generator draws inside the
ranges the constructors' wrap checks accept; they never change a job's step
count or grid, so a pass over a job list costs the same for every seed.
"""
from __future__ import annotations

import importlib.util
import json
import math
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
from click.testing import CliRunner  # noqa: E402

import logent  # noqa: E402

if Path(logent.__file__).resolve().parent != SRC / "logent":
    raise ImportError(f"logent was imported from {logent.__file__}, not from {SRC}")

from logent import cli, densities, dynamics, wigner  # noqa: E402


def _load_oracles():
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("oracles", path)
    if spec is None or not path.is_file():
        raise ImportError(f"test oracles not found at {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()

# Gates, each the tolerance a test already enforces.
ROTATION_L2_GATE = 1e-3  # tests/test_wigner.py TestHarmonicOscillator, test_cli rotation check
DRIFT_GATE = 1e-8  # tests/test_wigner.py test_thousand_step_drift
MOMENT3_GATE = 1e-3  # tests/test_wigner.py test_quartic_breaks_moment3 (a lower bound)
LINF_GATE = 1e-6  # tests/test_cli.py cross-check, test_densities test_agrees_with_spectral
CSV_TOTAL_GATE = 1e-9  # tests/test_cli.py continuum read-back
SPECTRAL_SUM_GATE = 1e-13  # tests/test_densities.py TestSpectralEvolution.test_conservation
SPECTRAL_INFO_GATE = 1e-12  # same test
FD_DRIFT_GATE = 1e-10  # tests/test_cli.py TestEvolveFd
MAXENT_GATE = 1e-12  # tests/test_maxent.py equilibrium vs numeric solve, I(m_max) = 1
MOVED_GATE = 1e-3  # tests/test_wigner.py test_matches_spectral_path_nonunit_h: the state moved

GRID = 128  # phase-space grid, points per axis
LENGTH = 8.0  # x and p domain lengths
SIGMA_PURE = 1.0 / (2.0 * math.sqrt(math.pi))  # saturating width at h = 1
SIGMA_QUARTIC = 0.4  # wider packet: the quartic kick breaks moment3 sooner
DENSITY_N = 256


class GateMiss(Exception):
    """A job's output missed one of the test suite's gates."""


@dataclass(frozen=True)
class Job:
    kind: str
    params: dict
    run: Callable[[dict, Path], Any]
    check: Callable[[dict, Any], dict]


def invoke_cli(args: list[str]) -> str:
    """Run one ``logent`` command in this process; return its output."""
    result = CliRunner().invoke(cli.main, args, catch_exceptions=False)
    if result.exit_code != 0:
        command = " ".join(args[:2])
        raise GateMiss(f"logent {command} exited {result.exit_code}: {result.output[-300:]}")
    return result.output


def _gate(ok: bool, what: str) -> None:
    if not ok:
        raise GateMiss(what)


def _below(what: str, value: float, gate: float) -> float:
    """The value, if it is below the gate (NaN is not)."""
    _gate(value < gate, f"{what} = {value:.3g}, gate < {gate:g}")
    return value


def _above(what: str, value: float, gate: float) -> float:
    _gate(value > gate, f"{what} = {value:.3g}, gate > {gate:g}")
    return value


def _field(output: str, label: str) -> float:
    for line in output.splitlines():
        if line.startswith(label):
            return float(line.split("=", 1)[1].split()[0])
    raise GateMiss(f"output lacks {label!r}")


def _rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    return math.sqrt(float(np.sum((a - b) ** 2))) / math.sqrt(float(np.sum(b**2)))


def _potential(p: dict) -> wigner.PotentialSpec:
    if p["potential"] == "harmonic":
        return wigner.PotentialSpec.harmonic(p["omega"], mass=1.0)
    return wigner.PotentialSpec.quartic(p["beta"])


def _rotation_l2(grid: wigner.WignerGrid, p: dict) -> float:
    sigma_p = 1.0 / (4.0 * math.pi * p["sigma_x"])
    ref = oracles.rotated_gaussian_wigner(
        grid.x, grid.p, p["sigma_x"], sigma_p, p["x_center"], 0.0, 1.0, p["omega"], p["t"]
    )
    return _rel_l2(grid.values, ref)


def _moments(values: np.ndarray, grid: wigner.WignerGrid) -> tuple[float, float, float]:
    """Sum, information and moment3, recomputed outside the package."""
    total = float(values.sum()) * grid.dx * grid.dp
    info = oracles.wigner_moment_quad(values, grid.dx, grid.dp, grid.h, 2)
    m3 = oracles.wigner_moment_quad(values, grid.dx, grid.dp, grid.h, 3)
    return total, info, m3


# ---------------------------------------------------------------------------
# wigner-bare: library split step, no diagnostics, no I/O


def run_bare(p: dict, tmp: Path):
    w0 = wigner.gaussian_pure_wigner(
        GRID, GRID, LENGTH, LENGTH, p["sigma_x"], x_center=p["x_center"]
    )
    return w0, wigner.wigner_evolve(w0, _potential(p), p["t"], p["dt"])


def check_bare(p: dict, out) -> dict:
    w0, final = out
    total0, info0, m30 = _moments(w0.values, w0)
    total, info, m3 = _moments(final.values, final)
    _below("|sum-1|", abs(total - 1.0), DRIFT_GATE)
    acc = {"wigner.info_drift": _below("|I-I0|", abs(info - info0), DRIFT_GATE)}
    if p["potential"] == "harmonic":
        acc["wigner.rotation_l2"] = _below("rotation L2", _rotation_l2(final, p), ROTATION_L2_GATE)
    else:
        change = abs(m3 - m30) / abs(m30)
        acc["wigner.moment3_change"] = _above("moment3 change", change, MOMENT3_GATE)
    return acc


# ---------------------------------------------------------------------------
# wigner-cli: `logent evolve wigner`, diagnostics every step, CSV export


def run_cli_wigner(p: dict, tmp: Path):
    snap, diag = tmp / "wigner_final.csv", tmp / "wigner_diag.csv"
    args = [
        "evolve", "wigner", "--potential", p["potential"],
        "--nx", str(GRID), "--npts", str(GRID), "--lx", str(LENGTH), "--lp", str(LENGTH),
        "--sigma-x", repr(p["sigma_x"]), "--x-center", repr(p["x_center"]),
        "--t-end", repr(p["t"]),
        "--output-snapshot", str(snap), "--output-diag", str(diag),
    ]
    if p["potential"] == "harmonic":
        args += ["--omega", repr(p["omega"]), "--rotation-check"]
    else:
        args += ["--beta", repr(p["beta"]), "--dt", repr(p["dt"])]
    stdout = invoke_cli(args)
    return {"stdout": stdout, "snapshot": wigner.read_wigner_csv(snap), "snap": snap, "diag": diag}


def check_cli_wigner(p: dict, out: dict) -> dict:
    snap, diag_path, final = out["snap"], out["diag"], out["snapshot"]
    steps = int(_field(out["stdout"], "steps"))
    diag = np.loadtxt(diag_path, delimiter=",", skiprows=1, ndmin=2)
    _gate(steps >= 1 and diag.shape == (steps + 1, 4),
          f"diag has {diag.shape[0]} rows for {steps} steps")
    sums, infos, m3s = diag[:, 1], diag[:, 2], diag[:, 3]
    _below("max |sum-sum0|", float(np.max(np.abs(sums - sums[0]))), DRIFT_GATE)
    acc = {"wigner.info_drift": _below("max |I-I0|", float(np.max(np.abs(infos - infos[0]))),
                                       DRIFT_GATE)}
    total, info, _ = _moments(final.values, final)
    _below("read-back |sum-1|", abs(total - 1.0), CSV_TOTAL_GATE)
    _below("read-back |I-I0|", abs(info - infos[0]), DRIFT_GATE)
    if p["potential"] == "harmonic":
        l2 = max(_field(out["stdout"], "rotation-check L2"), _rotation_l2(final, p))
        acc["wigner.rotation_l2"] = _below("rotation L2", l2, ROTATION_L2_GATE)
    else:
        change = abs(m3s[-1] - m3s[0]) / abs(m3s[0])
        acc["wigner.moment3_change"] = _above("moment3 change", change, MOMENT3_GATE)
    meta = Path(str(snap) + ".meta.json")
    written = snap.stat().st_size + meta.stat().st_size + diag_path.stat().st_size
    acc["wigner.io_bytes"] = written + snap.stat().st_size + meta.stat().st_size
    return acc


def replay_wigner(p: dict, evolve_first: bool) -> tuple[float, float] | None:
    """Wall time of wigner_run and of wigner_evolve on one job's inputs.

    None if either raised: the job itself is then counted as failed.
    """
    w0 = wigner.gaussian_pure_wigner(
        GRID, GRID, LENGTH, LENGTH, p["sigma_x"], x_center=p["x_center"]
    )
    pot = _potential(p)
    times = {}
    for name in (("evolve", "run") if evolve_first else ("run", "evolve")):
        fn = wigner.wigner_evolve if name == "evolve" else wigner.wigner_run
        start = perf_counter()
        try:
            fn(w0, pot, p["t"], p["dt"])
        except Exception:
            return None
        times[name] = perf_counter() - start
    return times["run"], times["evolve"]


# ---------------------------------------------------------------------------
# finite-line: fd and continuum commands, density oracles, closed-form queries

FD_N = 200


def run_fd(p: dict, tmp: Path):
    out = tmp / "fd_trajectory.csv"
    invoke_cli([
        "evolve", "fd", "--generator", "random", "--n", str(FD_N), "--seed", str(p["gen_seed"]),
        "--t-end", "1", "--dt", "0.1", "--p0", p["p0"], "--output", str(out),
    ])
    return dynamics.read_trajectory_csv(out)


def check_fd(p: dict, data: dict) -> dict:
    states = data["states"]
    _gate(states.shape == (11, FD_N), f"trajectory has shape {states.shape}")
    # drifts as recorded by the command, and recomputed from the states it wrote
    sums = np.abs(states.sum(axis=1) - 1.0)
    infos = np.abs(np.einsum("ij,ij->i", states, states) - float(states[0] @ states[0]))
    _below("|sum-1|", float(max(sums.max(), data["probability_drift"].max())), FD_DRIFT_GATE)
    info_drift = float(max(infos.max(), data["information_drift"].max()))
    moved = float(np.linalg.norm(states[-1] - states[0]) / np.linalg.norm(states[0]))
    _above("relative change of the state", moved, MOVED_GATE)
    return {"dynamics.info_drift": _below("|I-I0|", info_drift, FD_DRIFT_GATE)}


def run_continuum(p: dict, tmp: Path):
    grid, diag = tmp / "continuum_final.csv", tmp / "continuum_diag.csv"
    stdout = invoke_cli([
        "evolve", "continuum", "--n", str(DENSITY_N), "--omega-family", p["family"],
        "--coeff", repr(p["coeff"]), "--a", repr(p["a"]),
        "--output-grid", str(grid), "--output-diag", str(diag), "--cross-check",
    ])
    return {"stdout": stdout, "grid": densities.read_density_csv(grid), "diag": diag}


def check_continuum(p: dict, out: dict) -> dict:
    linf = _below("cross-check Linf", _field(out["stdout"], "cross-check Linf"), LINF_GATE)
    _below("read-back |sum-1|", abs(out["grid"].total - 1.0), CSV_TOTAL_GATE)
    diag = np.loadtxt(out["diag"], delimiter=",", skiprows=1, ndmin=2)
    _gate(diag.shape == (100, 4), f"diag has shape {diag.shape}")
    _below("max |sum-1|", float(np.max(np.abs(diag[:, 1] - 1.0))), SPECTRAL_SUM_GATE)
    _below("max I - min I", float(np.ptp(diag[:, 2])), SPECTRAL_INFO_GATE)
    return {"densities.crosscheck_linf": linf}


def _omega(p: dict):
    return getattr(densities, f"omega_{p['family']}")(p["coeff"])


def run_pair(p: dict, tmp: Path):
    f0 = densities.gaussian_density(DENSITY_N, LENGTH, 1.0, SIGMA_PURE)
    kern = densities.build_kernel(_omega(p), p["a"], f0)
    spectral = densities.evolve_density(f0, kern, p["t"])
    stepped = densities.evolve_density_timestepped(f0, kern, p["t"], p["dt"])
    return f0, spectral, stepped


def check_pair(p: dict, out) -> dict:
    f0, spectral, stepped = out
    _above("max |f(t) - f(0)|", float(np.max(np.abs(spectral.values - f0.values))), MOVED_GATE)
    linf = float(np.max(np.abs(spectral.values - stepped.values)))
    return {"densities.timestepped_linf": _below("timestepped Linf", linf, LINF_GATE)}


def run_queries(p: dict, tmp: Path):
    return {
        "entropy": invoke_cli(["entropy", "--p", p["p"], "--json"]),
        "maxent": invoke_cli(["maxent", "--x", p["x"], "--m", repr(p["m"]), "--json"]),
        "max": invoke_cli(["maxent", "--x", p["x"], "--find-max", "--json"]),
    }


def check_queries(p: dict, out: dict) -> dict:
    vec = np.array([float(v) for v in p["p"].split(",")])
    vec = vec / vec.sum()
    entropy = json.loads(out["entropy"])["entropy"]
    _below("|S - (1 - |p|^2)|", abs(entropy - (1.0 - float(vec @ vec))), MAXENT_GATE)
    x = np.array([float(v) for v in p["x"].split(",")])
    top = json.loads(out["max"])
    _below("|I(m_max) - 1|", abs(top["information"] - 1.0), MAXENT_GATE)
    for sol, m in ((json.loads(out["maxent"]), p["m"]), (top, top["m_max"])):
        ref = oracles.solve_equilibrium_numeric(x, m)
        _below("max |p - numeric p|", float(np.max(np.abs(np.array(sol["p"]) - ref))), MAXENT_GATE)
    return {}


# ---------------------------------------------------------------------------
# job lists

JOBS_PER_PASS = 8  # wigner workloads: four of each kind, alternating


def _signed(rng, lo: float, hi: float) -> float:
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi))


def _harmonic(rng, t: float) -> dict:
    # the wrap check of gaussian_pure_wigner accepts |x_center| <= 1.9 at this width
    return {"potential": "harmonic", "omega": 1.0, "sigma_x": SIGMA_PURE,
            "x_center": _signed(rng, 0.3, 1.2), "t": t, "dt": None}


def _quartic(rng, t: float) -> dict:
    # the wrap check accepts |x_center| <= 1.28 at sigma_x = 0.4; |x_center| >= 1.05
    # makes moment3 change by more than 1.4e-3 within 80 steps
    return {"potential": "quartic", "beta": 0.1, "sigma_x": SIGMA_QUARTIC,
            "x_center": _signed(rng, 1.05, 1.25), "t": t, "dt": 1e-3}


def first_of_each_kind(job_list: list[Job]) -> list[Job]:
    """The first job of every kind in the list, in list order."""
    firsts = {}
    for job in job_list:
        firsts.setdefault(job.kind, job)
    return list(firsts.values())


def build_jobs(workload: str, seed: int) -> list[Job]:
    """The seeded job list of one pass of a workload."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    jobs = []
    if workload == "wigner-bare":
        # both kinds take ~200 steps, so job_ms.p50 sits inside one cluster
        for _ in range(JOBS_PER_PASS // 2):
            jobs.append(Job("bare-harmonic", _harmonic(rng, 0.1), run_bare, check_bare))
            jobs.append(Job("bare-quartic", _quartic(rng, 0.2), run_bare, check_bare))
    elif workload == "wigner-cli":
        # ~80 recorded steps each, plus a 128^2 snapshot write and read-back
        for _ in range(JOBS_PER_PASS // 2):
            for kind, params in (("cli-quartic", _quartic(rng, 0.08)),
                                 ("cli-harmonic", _harmonic(rng, 0.04))):
                jobs.append(Job(kind, params, run_cli_wigner, check_cli_wigner))
    elif workload == "finite-line":
        families = [("linear", 0.5, 2.0), ("harmonic", 0.5, 2.0), ("quartic", 0.05, 0.2)]
        # coefficients at which the Cayley steps stay within the 1e-6 gate for |a| <= 0.8
        pair_family, pair_coeff = [("linear", 1.0), ("harmonic", 1.0), ("quartic", 0.1)][
            rng.integers(3)]
        cross = [
            Job("continuum", {"family": fam, "coeff": float(rng.uniform(lo, hi)),
                              "a": _signed(rng, 0.2, 0.8)}, run_continuum, check_continuum)
            for fam, lo, hi in families
        ]
        fd = []
        for _ in range(2):
            p0 = rng.uniform(0.0, 1.0, FD_N)
            fd.append(Job("fd", {"gen_seed": int(rng.integers(2**31)),
                                 "p0": ",".join(f"{v:.17g}" for v in p0 / p0.sum())},
                          run_fd, check_fd))
        x = np.sort(rng.uniform(-2.0, 2.0, 5))
        query = {"p": ",".join(f"{v:.6f}" for v in rng.uniform(0.05, 1.0, 4)),
                 "x": ",".join(f"{v:.6f}" for v in x),
                 "m": float(np.mean(x) + 0.2 * np.std(x) * rng.uniform(-1.0, 1.0))}
        pair = {"family": pair_family, "coeff": pair_coeff, "a": float(rng.uniform(0.2, 0.8)),
                "t": 0.5, "dt": 1e-3}
        jobs = [fd[0], cross[0], Job("pair", pair, run_pair, check_pair), fd[1], cross[1],
                Job("queries", query, run_queries, check_queries), cross[2]]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs
