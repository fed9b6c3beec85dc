"""Self-test of the benchmark: tiny runs of every workload, and the checker.

    python3 benchmarks/selftest.py

The file name keeps it out of the package's pytest suite; it runs the
benchmark's own processes and takes about 20 seconds.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
from workloads import WORKLOADS, instance_docs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("lp.pivots", "lp.calls", "scheduler.repairs", "perms.cuts_added",
          "subproblems.oracle_calls")


def bench(workload, trace, cwd=ROOT, seed=3):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TinyRuns(unittest.TestCase):
    def test_every_workload_reports_every_metric(self):
        for w in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    proc = bench(w["name"], trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    out = last_json(proc)
                    self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertEqual(out["failed"], 0)
                    self.assertGreaterEqual(out["attempted"], 1)
                    self.assertEqual({m: out["metrics"][m]["unit"] for m in out["metrics"]},
                                     {m["name"]: m["unit"] for m in SPEC[key]})

    def test_traced_counts_repeat(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                first, second = (last_json(bench(name, 1))["metrics"] for _ in range(2))
                for count in COUNTS:
                    self.assertEqual(first[count]["value"], second[count]["value"], count)

    def test_fails_without_the_program(self):
        bare = HERE / ".work" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.mkdir(parents=True)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "benchmarks",
                            ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
            proc = bench("matching-lp", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class Checker(unittest.TestCase):
    """The checker accepts the program's answers and flags a corrupted total."""

    def setUp(self):
        import permopt
        import permopt.cli
        from worker import library_result, run_cli

        self.permopt = permopt
        self.library_result = library_result
        self.run_cli = run_cli

    def docs(self, name):
        return instance_docs(WORKLOADS[name], 5, 2, tiny=True)

    def test_library_total(self):
        for name in ("matching-lp", "flow-repair"):
            for doc in self.docs(name):
                inst = self.permopt.parse_instance(json.dumps(doc))
                out = self.library_result(
                    self.permopt.solve_schedule(inst, mode=WORKLOADS[name].mode))
                self.assertEqual(check.check_library(check.Reference(doc), out), [])
                bad = copy.deepcopy(out)
                bad["total"] += 1.0
                self.assertNotEqual(check.check_library(check.Reference(doc), bad), [])

    def test_cli_report_total(self):
        work = HERE / ".work" / "selftest-cli"
        work.mkdir(parents=True, exist_ok=True)
        try:
            for k, doc in enumerate(self.docs("cli-compare")):
                path = work / f"{k}.json"
                path.write_text(json.dumps(doc))
                out = self.run_cli(["compare", "--instance", str(path), "--mode", "cutting-plane"])
                self.assertEqual(check.check_cli_compare(check.Reference(doc), out), [])
                report = json.loads(out["stdout"])
                report["methods"][0]["total"] = f"{float(report['methods'][0]['total']) + 1:.9f}"
                bad = {**out, "stdout": json.dumps(report)}
                self.assertNotEqual(check.check_cli_compare(check.Reference(doc), bad), [])
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def test_wrong_step_value(self):
        doc = self.docs("flow-repair")[0]
        ref = check.Reference(doc)
        order = ref.orderable
        steps = [ref.value(order[: j + 1]) for j in range(len(order))]
        self.assertEqual(check.check_schedule(ref, order, steps, sum(steps)), [])
        steps[-1] += 0.5
        self.assertNotEqual(check.check_schedule(ref, order, steps, sum(steps)), [])


if __name__ == "__main__":
    unittest.main()
