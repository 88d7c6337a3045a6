#!/usr/bin/env python3
"""The benchmark's own tests: smoke-sized runs of every workload finish
with no failed job, the same seed yields identical input fingerprints,
every satisfiable twin's model evaluates to true, and a directory
without the repository's sources is refused without a result.

    python3 verdictbench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

WORK = run.ROOT / ".bench_work" / "tests"


class VerdictBench(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.satverify, cls.vbench = run.build()
        shutil.rmtree(WORK, ignore_errors=True)
        cls.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def gen(self, workload, seed, name, smoke=True):
        work = WORK / name
        run.run_tool([str(self.vbench), "gen", workload, str(seed), str(work)]
                     + (["--smoke"] if smoke else []))
        return work, json.loads((work / "manifest.json").read_text())

    def bench(self, *args, cwd=run.ROOT):
        return subprocess.run([sys.executable, "verdictbench/run.py", *args],
                              capture_output=True, text=True, cwd=cwd, timeout=600)

    def test_same_seed_same_fingerprints(self):
        for workload in run.WORKLOADS:
            a, ma = self.gen(workload, 7, f"{workload}-a")
            b, mb = self.gen(workload, 7, f"{workload}-b")
            self.assertEqual(run.fingerprints(a, ma), run.fingerprints(b, mb), workload)
            # another seed reorders the jobs but never changes an instance
            c, mc = self.gen(workload, 8, f"{workload}-c")
            inputs = {k: v for k, v in run.fingerprints(a, ma).items() if k != "jobs"}
            self.assertEqual(inputs, {k: v for k, v in run.fingerprints(c, mc).items()
                                      if k != "jobs"}, workload)

    def test_twin_models_satisfy_their_twins(self):
        for workload in ("check-files", "daemon-mix"):
            for smoke in (True, False):
                work, manifest = self.gen(workload, 3, f"{workload}-twins-{smoke}", smoke)
                self.assertTrue(manifest["twins"])
                self.assertEqual(run.twin_models_hold(work, manifest), [])

    def test_smoke_runs_have_no_failed_job(self):
        for workload in run.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                out = self.bench("--workload", workload, "--seed", "1", "--seconds", "1",
                                 "--trace", str(trace), "--smoke")
                self.assertEqual(out.returncode, 0, out.stderr[-3000:])
                result = json.loads(out.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], out.stderr[-3000:])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(set(result["metrics"]), {m["name"] for m in self.spec[kind]})

    def test_refused_without_the_sources(self):
        bare = WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, bare / "verdictbench",
                        ignore=shutil.ignore_patterns("target", "__pycache__"))
        out = self.bench("--workload", "check-files", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
