"""Self-test of the benchmark: python3 perfbench/selftest.py

Runs a few jobs of every workload, a short run through the worker processes
and a short traced run, checks that every metric named in BENCHMARK.json is
reported, that kernel counts repeat exactly, that a corrupted, raising or
warning job is counted as failed, and that the benchmark refuses to run
without the program.  Takes about half a minute.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
import warnings
from dataclasses import replace
from pathlib import Path

import run

run.pin_threads()

import jobs  # noqa: E402
import numpy as np  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


SCRATCH = run.ROOT / ".perfbench_tmp"


class BenchmarkSelfTest(unittest.TestCase):
    def setUp(self):
        SCRATCH.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=SCRATCH))
        self.addCleanup(shutil.rmtree, self.tmp, True)
        self.lists = {w: jobs.build_jobs(w, 11) for w in run.WORKLOADS}

    def test_every_workload_passes_and_reports_every_end_to_end_metric(self):
        for workload, job_list in self.lists.items():
            passes = run.measure(jobs.first_of_each_kind(job_list), self.tmp, workload, 0.0, 1)
            records = passes[0]
            self.assertEqual([r["error"] for r in records], [None] * len(records), workload)
            self.assertTrue(all(r["ref"] > 0 and r["scaled"] > 0 for r in records))
            worker = json.loads(json.dumps(run.worker_result(0.5, 3e-3, passes, records)))
            metrics = run.end_to_end([worker, worker])
            self.assertEqual(set(metrics), {m["name"] for m in SPEC["end_to_end"]})
            for m in SPEC["end_to_end"]:
                self.assertEqual(metrics[m["name"]][1], m["unit"], m["name"])
            self.assertTrue(all(value > 0 for value, _, _ in metrics.values()), metrics)

    def test_a_short_run_prints_a_result_line(self):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "wigner-bare", "--seed", "3",
             "--seconds", "0.1", "--trace", "0"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=170,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual((result["correct"], result["failed"]), (True, 0))
        self.assertGreaterEqual(result["attempted"], run.WORKERS)  # one pass per worker
        self.assertEqual(set(result["metrics"]), {m["name"] for m in SPEC["end_to_end"]})

    def test_job_lists_depend_on_the_seed_only(self):
        for workload in run.WORKLOADS:
            again = [j.params for j in jobs.build_jobs(workload, 11)]
            self.assertEqual(again, [j.params for j in self.lists[workload]])
            other = [j.params for j in jobs.build_jobs(workload, 12)]
            self.assertNotEqual(other, again)

    def test_traced_run_reports_every_layer_metric_and_repeats_its_counts(self):
        lists = {w: jobs.first_of_each_kind(job_list) for w, job_list in self.lists.items()}
        lists["finite-line"] = self.lists["finite-line"]
        first, records = run.traced_run(lists, self.tmp, 0.0)
        self.assertEqual(set(first), {m["name"] for m in SPEC["per_layer"]})
        for m in SPEC["per_layer"]:
            self.assertEqual(first[m["name"]][1], m["unit"], m["name"])
        self.assertTrue(all(r["error"] is None for r in records))
        self.assertLess(first["trace.self_sum_error"][0], 1e-9)
        self.assertEqual(first["wigner.fft_calls_per_step"][0], 6.0)
        second, _ = run.traced_run(lists, self.tmp, 0.0)
        counts = [n for n, (_, unit, _) in first.items() if unit == "count"]
        self.assertEqual({n: first[n][0] for n in counts}, {n: second[n][0] for n in counts})

    def test_corrupted_raising_and_warning_jobs_count_as_failed(self):
        cli_quartic = next(j for j in self.lists["wigner-cli"] if j.kind == "cli-quartic")
        bare_harmonic = next(j for j in self.lists["wigner-bare"] if j.kind == "bare-harmonic")

        def corrupt_diag(p, tmp):
            out = jobs.run_cli_wigner(p, tmp)
            lines = out["diag"].read_text().splitlines()
            t, total, info, m3 = lines[-1].split(",")
            lines[-1] = ",".join([t, total, repr(float(info) * (1.0 + 1e-6)), m3])
            out["diag"].write_text("\n".join(lines) + "\n")
            return out

        def corrupt_grid(p, tmp):
            w0, final = jobs.run_bare(p, tmp)
            return w0, replace(final, values=np.roll(final.values, 3, axis=0))

        def raises(p, tmp):
            raise ValueError("boom")

        def warns(p, tmp):
            warnings.warn("dt advances the fastest grid phase; aliasing likely")
            return jobs.run_bare(p, tmp)

        bad = [replace(cli_quartic, run=corrupt_diag), replace(bare_harmonic, run=corrupt_grid),
               replace(bare_harmonic, run=raises), replace(bare_harmonic, run=warns)]
        records = run.run_pass([bare_harmonic] + bad, self.tmp, "wigner-bare")
        self.assertIsNone(records[0]["error"])
        for record in records[1:]:
            self.assertIsNotNone(record["error"])
        self.assertIn("missed a gate", records[1]["error"])
        self.assertIn("missed a gate", records[2]["error"])
        self.assertIn("raised", records[3]["error"])
        self.assertIn("warned", records[4]["error"])

    def test_refuses_to_run_without_the_program(self):
        bare = self.tmp / "bare"
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "wigner-bare", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


    @classmethod
    def tearDownClass(cls):
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()


if __name__ == "__main__":
    unittest.main()
