"""Self-tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

They take two to three minutes: every workload runs one pass in each mode.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cupgame import cli, emptiers, engine, experiments, fillers, invariants, rng, state, svg, traceio  # noqa: E402

MODULES = (cli, emptiers, engine, experiments, fillers, invariants, rng, state, svg, traceio)


def benchmark_spec() -> dict:
    return json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def run_benchmark(*args, cwd=bench.ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], capture_output=True,
                          text=True, cwd=cwd, timeout=180)


def snapshot() -> list:
    """Every attribute the tracer could replace, as (owner, name, object)."""
    owners = [*MODULES, state.CupState]
    return ([(owner, name, value) for owner in owners for name, value in vars(owner).items()]
            + [(invariants.CHECKERS, name, value) for name, value in invariants.CHECKERS.items()])


class BenchmarkTest(unittest.TestCase):
    def test_each_mode_prints_exactly_the_declared_metrics(self):
        spec = benchmark_spec()
        declared = {
            0: [metric["name"] for metric in spec["end_to_end"]],
            1: [metric["name"] for metric in spec["per_layer"]],
        }
        units = {metric["name"]: metric["unit"]
                 for metric in spec["end_to_end"] + spec["per_layer"]}
        for workload in (w["name"] for w in spec["workloads"]):
            digests = set()
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    completed = run_benchmark("--workload", workload, "--seed", "3",
                                              "--seconds", "0", "--trace", str(trace))
                    self.assertEqual(completed.returncode, 0, completed.stderr)
                    lines = completed.stdout.splitlines()
                    details, result = json.loads(lines[-2]), json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], completed.stderr)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(sorted(result["metrics"]), sorted(declared[trace]))
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], units[name])
                    digests.add(details["digest"])
            # both modes digest the outputs of the same op list
            self.assertEqual(len(digests), 1, workload)

    def test_traced_pass_restores_every_wrapped_attribute(self):
        before = snapshot()
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=bench.ROOT) as workdir:
            for name, make in workloads.WORKLOADS.items():
                run = bench.Run(make(0, Path(workdir))[:2])
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    self.assertIsNot(engine.run_game, before_value(before, engine, "run_game"))
                    run.run_pass()
                finally:
                    tracer.uninstall()
                self.assertEqual(run.failed, 0, run.problems)
                metrics = tracer.metrics()
                self.assertGreater(metrics["engine.steps"], 0, name)
                self.assertGreater(metrics["state.top_cups.busy_s"], 0, name)
        after = snapshot()
        self.assertEqual(len(before), len(after))
        for (owner, name, value), (_, _, restored) in zip(before, after):
            self.assertIs(restored, value, f"{owner!r}.{name}")

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=bench.ROOT) as bare:
            shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
            for path in benchmark_spec()["paths"]:
                shutil.copytree(bench.ROOT / path, Path(bare) / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            completed = run_benchmark("--workload", "adaptive-sweep", "--seed", "0",
                                      "--seconds", "1", "--trace", "0",
                                      cwd=bare, script=Path(bare) / "perfbench" / "run.py")
        self.assertNotEqual(completed.returncode, 0)
        self.assertNotIn("{", completed.stdout)


def before_value(items, owner, name):
    return next(value for o, n, value in items if o is owner and n == name)


if __name__ == "__main__":
    unittest.main()
