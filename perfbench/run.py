"""Closed-loop benchmark of logent's engines.

    python3 perfbench/run.py --workload wigner-bare --seed 1 --seconds 20 --trace 0

One client runs the workload's seeded job list in passes, each job starting
when the previous one has finished.  The run is split over WORKERS fresh
processes, started one after another; each sets up (imports, job list,
warm-up), then runs passes for its share of --seconds and until it has run
its share of MIN_JOBS jobs.  Every timed job is bracketed by a fixed
reference task (reference.py) and its time is reported at reference speed,
which cancels the drift of a shared host's speed; the raw wall-clock
figures are printed alongside.  Every job's output is checked
against the test suite's oracle gates; a job that raises, warns or misses a
gate counts as failed and the run goes on.  The lines printed before the
last name every metric with its unit and sample count, and the machine and
libraries it ran on; the last line is one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics, with tracing off.  --trace 1 is
the traced per-layer run: it runs the job lists of every workload, so that
each layer is measured where it works, alternating untraced and traced
passes, and reports the per-layer metrics (see perfbench/README.md).

Only the standard library is imported at module level: set-up time starts
before numpy, scipy and logent are imported.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREADS = 1  # on 2 cores, 2 OpenBLAS threads made the N = 256 jobs 3x slower and noisy
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("wigner-bare", "wigner-cli", "finite-line")
MIN_JOBS = 100  # so that ten job times lie beyond job_ms.p90
MAX_OVERRUN = 4  # the MIN_JOBS floor never stretches a run past 4x --seconds
# Fresh processes per --trace 0 run, one after another.  Six runs of one
# seed, each in one process, gave scaled wigner-cli pass times up to 15 %
# apart, so each timing metric is averaged over several processes; setup_s
# is the median of their set-ups.
WORKERS = 5
RUN_TIMEOUT = 170  # seconds for all workers of a run together


def pin_threads() -> None:
    """Fix the BLAS/OpenMP thread count before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def machine() -> dict:
    import numpy
    import scipy

    def blas(show_config):
        dep = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"

    return {
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
    }


# ---------------------------------------------------------------------------
# running jobs


def execute(job, tmp: Path, workload: str, tracer=None, reference=None) -> dict:
    """Run one job, time it, and check it.  Never raises for the job's faults.

    With a ``reference`` timer, the reference task is timed right before and
    right after the job, and the record holds the mean of the two as "ref".
    """
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ref_before = reference() if reference is not None else None
        start = perf_counter()
        if tracer is not None:
            tracer.job_start(workload, start)
        try:
            out = job.run(job.params, tmp)
        except Exception as exc:  # a raising job is a failed job; the run goes on
            error = f"raised {type(exc).__name__}: {exc}"
        end = perf_counter()
        ref = None if reference is None else 0.5 * (ref_before + reference())
        if tracer is not None:
            tracer.job_end(end)
    warned = [w for w in caught if issubclass(w.category, (UserWarning, RuntimeWarning))]
    if error is None and warned:
        error = f"warned: {warned[0].message}"
    acc = {}
    if error is None:
        try:
            acc = job.check(job.params, out)
        except Exception as exc:  # GateMiss, or output too broken to parse
            error = f"missed a gate: {type(exc).__name__}: {exc}"
    if error is not None:
        print(f"# failed {workload} {job.kind} job: {error}", file=sys.stderr)
    return {"wall": end - start, "ref": ref, "acc": acc, "error": error}


def run_pass(job_list, tmp: Path, workload: str, tracer=None, reference=None) -> list[dict]:
    return [execute(job, tmp, workload, tracer, reference) for job in job_list]


def measure(job_list, tmp: Path, workload: str, seconds: float,
            min_jobs: int) -> list[list[dict]]:
    """Passes over the job list, each job bracketed by the reference task,
    until the time and job floors are met."""
    from reference import REFERENCE_S, reference_s

    passes = []
    start = perf_counter()
    while True:
        done = run_pass(job_list, tmp, workload, reference=reference_s)
        for rec in done:
            rec["scaled"] = rec["wall"] * REFERENCE_S / rec["ref"]
        passes.append(done)
        elapsed = perf_counter() - start
        jobs_done = len(passes) * len(job_list)
        if elapsed >= seconds and (jobs_done >= min_jobs or elapsed >= MAX_OVERRUN * seconds):
            return passes


def worker_result(setup_wall: float, setup_ref: float, passes, records) -> dict:
    """What one worker process reports to the run: plain JSON data."""
    from reference import REFERENCE_S

    return {
        "setup_wall": setup_wall,
        "setup_s": setup_wall * REFERENCE_S / setup_ref,
        "passes": [[[r["wall"], r["scaled"], r["ref"], r["error"] is not None] for r in p]
                   for p in passes],
        "accuracy": accuracy(records),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def spawn_worker(args, seconds: float, timeout: float) -> dict | None:
    """Run one worker process to its end; None if it could not run."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", "0", "--worker"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# metrics


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# accuracy key reported by the checks -> (per-layer metric, worst is the larger)
ACCURACY = {
    "wigner.rotation_l2": ("wigner.rotation_l2.max", max),
    "wigner.info_drift": ("wigner.info_drift.max", max),
    "wigner.moment3_change": ("wigner.moment3_change.min", min),
    "dynamics.info_drift": ("dynamics.info_drift.max", max),
    "densities.crosscheck_linf": ("densities.crosscheck_linf.max", max),
    "densities.timestepped_linf": ("densities.timestepped_linf.max", max),
}


def accuracy(records) -> dict:
    """Worst accuracy reached, per gate, over the jobs that passed."""
    worst = {}
    for rec in records:
        for key, value in rec["acc"].items():
            if key in ACCURACY:
                name, pick = ACCURACY[key]
                worst[name] = pick(worst.get(name, value), value)
    return worst


def merge_accuracy(worsts) -> dict:
    """The worst of several accuracy() results."""
    picks = dict(ACCURACY.values())
    merged = {}
    for worst in worsts:
        for name, value in worst.items():
            merged[name] = picks[name](merged.get(name, value), value)
    return merged


def end_to_end(workers: list[dict], wall: bool = False) -> dict:
    """The end-to-end metrics of a run from its workers' results.

    Times are at reference speed; with ``wall`` the same statistics of the
    raw wall-clock times.  solve_s and the job percentiles are each the mean
    over the workers of that worker's median pass time and job percentiles.
    """
    col = 0 if wall else 1
    setups = [w["setup_wall" if wall else "setup_s"] for w in workers]
    pass_times = [[sum(r[col] for r in p) for p in w["passes"]] for w in workers]
    times = [[r[col] for p in w["passes"] for r in p] for w in workers]
    n_passes, n_jobs, k = sum(map(len, pass_times)), sum(map(len, times)), len(workers)
    each = f"mean over {k} processes"
    return {
        "setup_s": (_median(setups), "s", f"median of {k} set-ups"),
        "solve_s": (statistics.fmean(map(_median, pass_times)), "s",
                    f"median pass time, {each}, {n_passes} passes"),
        "job_ms.p50": (1e3 * statistics.fmean(map(_median, times)), "ms",
                       f"{each}, n={n_jobs} jobs"),
        "job_ms.p90": (1e3 * statistics.fmean(map(_p90, times)), "ms",
                       f"{each}, n={n_jobs} jobs"),
        "peak_rss_mb": (max(w["rss_mb"] for w in workers), "MB", f"largest of {k} processes"),
    }


def traced_run(lists: dict, tmp: Path, seconds: float) -> tuple[dict, list]:
    """Per-layer metrics from alternating untraced and traced passes."""
    import jobs
    import logent
    from tracing import Tracer

    tracer = Tracer(logent, jobs)
    records, untraced, traced, pass_counts, replays = [], {}, {}, {}, []
    for workload, job_list in lists.items():
        start = perf_counter()
        untraced[workload], traced[workload], pass_counts[workload] = [], [], []
        while True:
            done = run_pass(job_list, tmp, workload)
            untraced[workload].append(sum(r["wall"] for r in done))
            records += done
            with tracer.installed():
                before = Counter(tracer.counts)
                done = run_pass(job_list, tmp, workload, tracer)
                pass_counts[workload].append(tracer.counts - before)
            traced[workload].append(sum(r["wall"] for r in done))
            records += done
            if workload == "wigner-cli" and not replays:
                replays = [jobs.replay_wigner(job.params, k % 2 == 0)
                           for k, job in enumerate(job_list)]
            if perf_counter() - start >= seconds / len(lists):
                break
    for workload, counts in pass_counts.items():
        if any(c != counts[0] for c in counts):
            print(f"# kernel counts differ between traced passes of {workload}", file=sys.stderr)

    spans = tracer.spans
    first = Counter()
    for counts in pass_counts.values():
        first += counts[0]
    per_pass = "per pass of every job list"

    def median_of(values, scale, unit, what):
        return _median(values) * scale, unit, f"median of {len(values)} {what}"

    def call_time(name, scale=1e3, unit="ms"):
        return median_of([s[0] for s in spans[name]], scale, unit, "calls")

    def count(name):
        return first[name], "count", per_pass

    def layer_self(layer):
        value = 1e3 * sum(tracer.layer_self[w, layer] / len(traced[w]) for w in lists)
        return value, "ms", f"self time {per_pass}"

    runs = [s for s in spans["wigner.wigner_run"] if s[3]]  # calls that returned
    trajectories = [s for s in spans["dynamics.trajectory"] if s[3]]
    fl_wall = sum(wall for w, wall, _ in tracer.jobs if w == "finite-line")
    base, with_trace = (sum(_median(v[w]) for w in lists) for v in (untraced, traced))
    acc = accuracy(records)
    n_passes = sum(map(len, traced.values()))
    passes = f"medians of {n_passes} traced and {n_passes} untraced passes"
    m = {
        "wigner.wigner_evolve.ms": call_time("wigner.wigner_evolve"),
        "wigner.wigner_run.ms": call_time("wigner.wigner_run"),
        "wigner.wigner_run.steps": median_of([s[3] for s in runs], 1, "count", "calls"),
        "wigner.wigner_run.step_us": median_of([s[0] / s[3] for s in runs], 1e6, "us", "calls"),
        "wigner.record_overhead": median_of([1.0 - ev / run for run, ev in filter(None, replays)],
                                            1, "ratio", "paired replays"),
        "wigner.write_wigner_csv.ms": call_time("wigner.write_wigner_csv"),
        "wigner.write_diagnostics_csv.ms": call_time("wigner.write_diagnostics_csv"),
        "wigner.read_wigner_csv.ms": call_time("wigner.read_wigner_csv"),
        "wigner.io_bytes": median_of([r["acc"]["wigner.io_bytes"] for r in records
                                      if "wigner.io_bytes" in r["acc"]], 1, "B", "jobs"),
        "wigner.delta_localized_evolve.ms": call_time("wigner.delta_localized_evolve"),
        "wigner.gaussian_pure_wigner.ms": call_time("wigner.gaussian_pure_wigner"),
        "wigner.fft_calls_per_step": (sum(s[2] for s in runs) / max(1, sum(s[3] for s in runs)),
                                      "count", f"{len(runs)} wigner_run calls"),
        "dynamics.trajectory.ms": call_time("dynamics.trajectory"),
        "dynamics.evolve.calls": count("dynamics.evolve.calls"),
        "dynamics.sample_us": median_of([s[0] / s[3] for s in trajectories], 1e6, "us", "calls"),
        "dynamics.write_trajectory_csv.ms": call_time("dynamics.write_trajectory_csv"),
        "densities.evolve_density.calls": count("densities.evolve_density.calls"),
        "densities.evolve_density.us": call_time("densities.evolve_density", 1e6, "us"),
        "densities.build_kernel.ms": call_time("densities.build_kernel"),
        "densities.evolve_density_timestepped.ms":
            call_time("densities.evolve_density_timestepped"),
        "densities.write_density_csv.ms": call_time("densities.write_density_csv"),
        "densities.read_density_csv.ms": call_time("densities.read_density_csv"),
        "densities.finite_line_share": (
            tracer.layer_self["finite-line", "densities"] / fl_wall if fl_wall else 0.0, "ratio",
            "self time over finite-line job time"),
        "cli.self_ms": median_of([s[1] for s in spans["cli.main"]], 1e3, "ms", "commands"),
        "maxent.ms": layer_self("maxent"),
        "vectors.ms": layer_self("vectors"),
    }
    for name in ("fft.calls", "fft.points", "linalg.norm.calls", "linalg.solve.calls",
                 "linalg.matrix_power.calls", "linalg.expm.calls"):
        m[name] = count(name)
    m.update({name: (acc.get(name, 0.0), "ratio", f"worst of {len(records)} jobs")
              for name, _ in ACCURACY.values()})
    for layer in ("wigner", "dynamics", "densities", "cli", "maxent", "vectors"):
        m[f"{layer}.errors"] = (tracer.counts[f"{layer}.errors"], "count", "whole traced run")
    m["trace.overhead"] = (with_trace / base - 1.0, "ratio", passes)
    m["trace.overhead_s"] = (with_trace - base, "s", passes)
    m["trace.self_sum_error"] = (max(abs(s - wall) / wall for _, wall, s in tracer.jobs), "ratio",
                                 f"worst of {len(tracer.jobs)} traced jobs")
    return m, records


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def report(mode: str, metrics: dict, attempted: int, failed: int) -> None:
    print(f"# {mode}, closed loop, one client")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name} = {value:.6g} {unit} ({samples})")
    print(f"fail_frac = {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))


def run_workers(args) -> int:
    """The --trace 0 run: WORKERS worker processes, one after another."""
    workers = []
    deadline = perf_counter() + RUN_TIMEOUT
    for _ in range(WORKERS):
        try:
            result = spawn_worker(args, args.seconds / WORKERS, deadline - perf_counter())
        except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
            result = None
        if result is None:
            print("perfbench: a worker process failed; no result", file=sys.stderr)
            return 2
        workers.append(result)
    print(f"# machine {json.dumps(workers[0]['machine'])}")
    walls = end_to_end(workers, wall=True)
    for name in ("setup_s", "solve_s", "job_ms.p50", "job_ms.p90"):
        value, unit, samples = walls[name]
        print(f"# wall-clock {name} = {value:.6g} {unit} ({samples})")
    refs = [r[2] for w in workers for p in w["passes"] for r in p]
    print(f"# reference task: median {1e3 * _median(refs):.4g} ms over {len(refs)} jobs")
    for name, value in merge_accuracy(w["accuracy"] for w in workers).items():
        print(f"# accuracy {name} = {value:.6g}")
    flags = [r[3] for w in workers for p in w["passes"] for r in p]
    report(f"workload {args.workload}, seed {args.seed}, {WORKERS} processes",
           end_to_end(workers), len(flags), sum(flags))
    return 0


def main(argv=None) -> int:
    start = perf_counter()
    args = parse_args(argv)
    pin_threads()
    if not args.trace and not args.worker:
        return run_workers(args)
    try:
        import jobs
    except (ImportError, OSError) as exc:
        print(f"perfbench: cannot load logent and its test oracles from {ROOT}: {exc}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.trace else (args.workload,)
    lists = {w: jobs.build_jobs(w, args.seed) for w in names}
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        for workload, job_list in lists.items():  # one untimed warm-up job of each kind
            for job in jobs.first_of_each_kind(job_list):
                execute(job, tmp, workload)
        setup_wall = perf_counter() - start
        if args.worker:
            from reference import speed

            setup_ref = speed()
            min_jobs = -(-MIN_JOBS // WORKERS)
            passes = measure(lists[args.workload], tmp, args.workload, args.seconds, min_jobs)
            result = worker_result(setup_wall, setup_ref, passes, [r for p in passes for r in p])
            print(json.dumps(dict(result, machine=machine())))
            return 0
        print(f"# machine {json.dumps(machine())}")
        metrics, records = traced_run(lists, tmp, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run is still using it
            pass
    failed = sum(r["error"] is not None for r in records)
    report(f"traced per-layer run, seed {args.seed}", metrics, len(records), failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
