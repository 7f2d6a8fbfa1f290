"""cupgame benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload adaptive-sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40

The workload is a fixed list of ops made from the seed.  The run repeats
whole passes over it while another pass fits in --seconds (set-up probes
included), and checks every op's output each time.

Every time is scaled to host speed (speed.py): while an op runs, a timer
interrupts it every few milliseconds to time a tiny kernel, and the op's
time is scaled to a host on which that kernel takes a fixed time.  A change
to cupgame moves a time metric; a busy neighbour does not.

With --trace 0 the run reports the end-to-end metrics, and no wrapper is
installed anywhere in the process.  With --trace 1 it alternates untraced
and traced passes and reports the per-layer metrics plus trace_overhead,
each the best over the traced passes.

The last stdout line is the result JSON ({"correct", "attempted", "failed",
"metrics"}); the line before it holds the run's context, output digest,
sample counts and unscaled figures.  --workload all runs each workload in
its own process and prints one table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from speed import SpeedSampler

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
WORKLOAD_NAMES = ("adaptive-sweep", "fuzz-pipeline", "oblivious-montecarlo")
SETUP_PROBES = 11
END_TO_END = {
    "steps_per_s": "steps/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def quantile(values, p: float, steps: int = 64) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all order statistics.

    The ops of one workload form clusters, one per config, and the seed moves
    each op within its cluster.  A single order statistic at a cluster's edge
    jumps with the seed; the weighted mean of its neighbours does not.
    """
    values = sorted(values)
    n = len(values)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = []
    for rank in range(n):
        # midpoint rule on [rank/n, (rank+1)/n]: the Beta density may diverge at 0 or 1
        points = ((rank + (step + 0.5) / steps) / n for step in range(steps))
        weights.append(sum(math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
                           for x in points))
    return sum(weight * value for weight, value in zip(weights, values)) / sum(weights)


def import_program():
    """Import cupgame from this checkout's src/, or exit with an error."""
    if not (SOURCE / "cupgame" / "__init__.py").is_file():
        sys.exit(f"error: no cupgame sources under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import cupgame
    import cupgame.cli  # noqa: F401  (set-up covers the CLI import too)

    if Path(cupgame.__file__).resolve().parent != SOURCE / "cupgame":
        sys.exit(f"error: imported cupgame from {cupgame.__file__}, not {SOURCE}")


class Run:
    """Runs passes over the op list; keeps every op's scaled times and first output."""

    def __init__(self, ops):
        self.ops = ops
        self.times = [[] for _ in ops]  # scaled seconds of each run of each op
        self.steps = [0] * len(ops)
        self.outputs = [None] * len(ops)  # sha256 of each op's first output
        self.sampler = SpeedSampler()
        self.wall = 0.0  # unscaled seconds of every op run
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_pass(self) -> tuple[float, float, float]:
        """Run and check every op once.

        Returns the pass's wall seconds, and its ops' unscaled and scaled seconds.
        """
        pass_start = perf_counter()
        unscaled = scaled = 0.0
        for index, op in enumerate(self.ops):
            self.sampler.start()
            try:
                result = op.run()
            except Exception as err:  # a crash is a failed op, not a dead run
                traceback.print_exc()
                result, problems = None, [f"raised {err!r}"]
            finally:
                elapsed, time = self.sampler.stop()
            if result is not None:
                self.steps[index], blob, problems = op.check(result)
                result = None  # peak memory must not depend on the order of ops
                output = hashlib.sha256(blob).hexdigest()
                if self.outputs[index] is None:
                    self.outputs[index] = output
                elif output != self.outputs[index]:
                    problems.append("output differs from the op's first run")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append(f"{op.key}: {'; '.join(problems)}")
            self.times[index].append(time)
            unscaled += elapsed
            scaled += time
        self.passes += 1
        self.wall += unscaled
        return perf_counter() - pass_start, unscaled, scaled

    def digest(self) -> str:
        digest = hashlib.sha256()
        for op, output in zip(self.ops, self.outputs):
            digest.update(f"{op.key}\n{output}\n".encode())
        return digest.hexdigest()


def probe_setup(workload: str, seed: int) -> float:
    """Median scaled seconds a fresh interpreter needs until the first op can start."""
    command = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
               workload, str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        child = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=120)
        if child.returncode != 0:
            sys.exit(f"error: set-up probe failed with exit code {child.returncode}\n"
                     f"{child.stderr}")
        times.append(float(child.stdout))
    return statistics.median(times)


def context() -> dict:
    from cupgame.rational import RAT_BACKEND

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True).stdout.strip() or commit
        except OSError:
            pass
    lines = sum(len(path.read_text().splitlines())
                for path in (SOURCE / "cupgame").glob("*.py"))
    return {
        "rat_backend": RAT_BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_cupgame_lines": lines,
        "commit": commit,
    }


def measure(run: Run, deadline: float) -> tuple[dict, dict]:
    """End-to-end metrics over whole passes that end before the deadline."""
    last = 0.0
    while run.passes == 0 or perf_counter() + last <= deadline:
        last = run.run_pass()[0]
    op_ms = [1000 * statistics.median(times) for times in run.times]
    p90 = quantile(op_ms, 0.9)
    metrics = {
        "steps_per_s": 1000 * sum(run.steps) / sum(op_ms),
        "op_ms_p50": quantile(op_ms, 0.5),
        "op_ms_p90": p90,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "samples": len(op_ms),
        "samples_beyond_p90": sum(1 for value in op_ms if value > p90),
        "passes": run.passes,
        "unscaled_steps_per_s": sum(run.steps) * run.passes / run.wall,
        "yardstick_ms_median": 1000 * statistics.median(run.sampler.samples),
    }
    return metrics, details


def measure_traced(run: Run, deadline: float) -> tuple[dict, dict]:
    """Per-layer metrics: alternate untraced and traced passes, keep each best."""
    from tracing import Tracer

    untraced, traced, layers = [], [], []
    last = 0.0
    while not layers or perf_counter() + last <= deadline:
        wall, _, scaled = run.run_pass()
        untraced.append(scaled)
        tracer = Tracer()
        tracer.install()
        try:
            traced_wall, unscaled, scaled = run.run_pass()
        finally:
            tracer.uninstall()
        traced.append(scaled)
        last = wall + traced_wall
        # layer times are scaled like their pass; counts stay as counted
        layers.append({name: value * scaled / unscaled if name.endswith("_s") else value
                       for name, value in tracer.metrics().items()})
    metrics = {name: min(values[name] for values in layers) for name in layers[0]}
    metrics["trace_overhead"] = min(traced) / min(untraced)
    return metrics, {"traced_passes": len(traced)}


def run_workload(args, deadline: float) -> int:
    import workloads

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        run = Run(workloads.WORKLOADS[args.workload](args.seed, Path(workdir)))
        if args.trace:
            from tracing import metric_unit

            metrics, details = measure_traced(run, deadline)
            units = {name: metric_unit(name) for name in metrics}
        else:
            setup_s = probe_setup(args.workload, args.seed)
            metrics, details = measure(run, deadline)
            metrics["setup_s"] = setup_s
            units = END_TO_END
    for problem in run.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    details.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        digest=run.digest(),
        fail_ratio=run.failed / run.attempted,
        context=context(),
    )
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one table of every metric."""
    failed = False
    for workload in WORKLOAD_NAMES:
        command = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        completed = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
        lines = completed.stdout.splitlines()
        if completed.returncode != 0 or len(lines) < 2:
            print(f"{workload}: exit code {completed.returncode}\n{completed.stderr}")
            failed = True
            continue
        details, result = json.loads(lines[-2]), json.loads(lines[-1])
        failed = failed or not result["correct"]
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} fail_ratio={details['fail_ratio']} "
              f"digest={details['digest'][:16]}")
        for name, metric in result["metrics"].items():
            print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    return 1 if failed else 0


def main(argv=None) -> int:
    start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    # exit through SystemExit on SIGTERM, so the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    import_program()
    return run_workload(args, start + args.seconds)


if __name__ == "__main__":
    sys.exit(main())
