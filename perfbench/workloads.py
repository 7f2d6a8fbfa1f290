"""The benchmark workloads: seeded op lists and their output checks.

A workload is a fixed list of ops made from the seed.  An op is a thunk the
benchmark times; its check, which the benchmark does not time, turns the
result into (steps, output bytes, problems).  The benchmark runs the list
over and over, and every run of an op must give the same output bytes.
All inputs are points that tier-1 already checks (C1, C2, C3 and C8), so no
op may fail.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from cupgame import cli, engine, experiments
from cupgame.engine import GameConfig
from cupgame.rational import format_rat, rat


@dataclass(frozen=True)
class Op:
    key: str  # identifies the op's input; equal keys must give equal outputs
    run: Callable[[], object]
    check: Callable[[object], tuple]  # result -> (steps, output bytes, problems)


# ---------------------------------------------------------------------------
# adaptive-sweep: slices of the C1 and C2 grids


SWEEP_FILLERS = ("growth", "harmonic", "random:1/2")
SWEEP_NS = (64, 128)
SWEEP_PS = (1, 4)
SWEEP_STEPS = 500
SWEEP_SEEDS = 200  # C2 checks seeds 0..199 of random:1/2 against its bound
RANDOM_SEEDS_PER_POINT = 3  # so that no single game's cost sets a metric
LOWER_BOUND = (64, 8)


def _sweep_op(filler: str, n: int, p: int, seed: int) -> Op:
    config = GameConfig(n=n, p=p, steps=SWEEP_STEPS, seed=seed, filler=filler,
                        emptier="greedy")

    def run():
        trace = engine.run_game(config)
        return trace, trace.max_backlog()

    def check(result):
        trace, top = result
        problems = []
        if trace.violation is not None:
            problems.append(f"violation {trace.violation}")
        if trace.steps_executed != SWEEP_STEPS:
            problems.append(f"ran {trace.steps_executed}/{SWEEP_STEPS} steps")
        bound = 4 * (1 + math.log(n))  # C2's logarithmic bound
        if filler != "harmonic" and float(top) > bound:
            problems.append(f"max backlog {float(top)} above {bound}")
        return trace.steps_executed, format_rat(top).encode(), problems

    return Op(f"{filler} n={n} p={p} seed={seed}", run, check)


def _lower_bound_op(n: int, p: int) -> Op:
    target = sum((rat(1, j) for j in range(2, n - p + 2)), rat(0))  # H_{n-p+1} - 1

    def run():
        return experiments.run_lower_bound(n, p)

    def check(result):
        problems = []
        if not result.reached:
            problems.append("threshold not reached")
        if result.threshold != target:
            problems.append(f"threshold {result.threshold} != {target}")
        steps = result.steps_to_threshold or 0
        blob = f"{format_rat(result.threshold)} {steps} {format_rat(result.max_backlog)}"
        return steps, blob.encode(), problems

    return Op(f"lowerbound n={n} p={p}", run, check)


def adaptive_sweep(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for filler in SWEEP_FILLERS:
        for n in SWEEP_NS:
            for p in SWEEP_PS:
                # growth and harmonic never read their rng stream, so seed 0 stands for all
                seeds = (rng.sample(range(SWEEP_SEEDS), RANDOM_SEEDS_PER_POINT)
                         if filler.startswith("random") else [0])
                ops += [_sweep_op(filler, n, p, game_seed) for game_seed in seeds]
    ops.append(_lower_bound_op(*LOWER_BOUND))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# oblivious-montecarlo: seeded games of C8's two backlog frequency experiments


# C8 froze their hits over seeds 0..99 at 98/100 for anchor-swap and 100/100
# for anti-greedy, so every anti-greedy game on those seeds must reach its
# cutoff.  Anchor-swap's 98/100 does not say which seeds miss.
MONTECARLO = (
    # (config, backlog cutoff, whether every seed in 0..99 reaches it)
    (GameConfig(n=16, p=8, steps=1024, filler="anchor-swap:8,64,2",
                emptier="smoothed-greedy"), rat(3, 2), False),
    (GameConfig(n=32, p=8, steps=1408, filler="anti-greedy:16,3/4,128",
                emptier="smoothed-greedy"), math.log(64 / 3) - 1.5, True),
)
MONTECARLO_SEEDS = 100
MONTECARLO_GAMES = 16  # games of each config per op list


def _montecarlo_op(config: GameConfig, cutoff, always_reached: bool) -> Op:
    def run():
        trace = engine.run_game(config)
        return trace, trace.max_backlog()

    def check(result):
        trace, top = result
        problems = []
        if trace.violation is not None:
            problems.append(f"violation {trace.violation}")
        if trace.steps_executed != config.steps:
            problems.append(f"ran {trace.steps_executed}/{config.steps} steps")
        if always_reached and not top >= cutoff:
            problems.append(f"max backlog {float(top)} below C8's cutoff {float(cutoff)}")
        return trace.steps_executed, format_rat(top).encode(), problems

    return Op(f"{config.filler} seed={config.seed}", run, check)


def oblivious_montecarlo(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = [
        _montecarlo_op(replace(base, seed=game_seed), cutoff, always)
        for base, cutoff, always in MONTECARLO
        for game_seed in rng.sample(range(MONTECARLO_SEEDS), MONTECARLO_GAMES)
    ]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# fuzz-pipeline: C3's fuzz configs through `cupgame run` and `cupgame check`


FUZZ_CONFIGS = (
    dict(n=8, p=1, emptier="greedy", truncation=12),
    dict(n=16, p=2, emptier="greedy", truncation=18),
    dict(n=32, p=4, emptier="greedy", truncation=27),
    dict(n=8, p=1, emptier="smoothed-greedy"),
    dict(n=16, p=2, emptier="smoothed-greedy"),
    dict(n=32, p=4, emptier="smoothed-greedy"),
)
FUZZ_STEPS = 500
FUZZ_SEEDS = 100  # C3 checks seeds 0..99 of every config
FUZZ_SEEDS_PER_CONFIG = 6  # so that no single run's cost sets a metric
ARTIFACTS = ("trace.csv", "summary.json", "report.json")


def _fuzz_op(spec: dict, seed: int, out: Path) -> Op:
    run_argv = ["run", "--n", str(spec["n"]), "--p", str(spec["p"]),
                "--steps", str(FUZZ_STEPS), "--seed", str(seed),
                "--filler", "random:1/2", "--emptier", spec["emptier"],
                "--out", str(out), "--svg"]
    if "truncation" in spec:
        run_argv += ["--truncate", str(spec["truncation"])]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(run_argv), cli.main(["check", str(out)])

    def check(codes):
        problems = [] if codes == (0, 0) else [f"exit codes {codes}"]
        paths = [out / name for name in ARTIFACTS]
        missing = [path.name for path in paths if not path.exists()]
        if missing:
            return 0, b"", problems + [f"missing {missing}"]
        blobs = [path.read_bytes() for path in paths]
        shutil.rmtree(out)  # the next op starts from an empty directory
        summary = json.loads(blobs[1])
        report = json.loads(blobs[2])
        if summary["violation"] is not None:
            problems.append(f"violation {summary['violation']}")
        failed = [r["check"] for r in report["reports"] if not r["passed"]]
        if not report["passed"] or failed or not report["reports"]:
            problems.append(f"checkers failed: {failed}")
        return summary["steps_executed"], b"".join(blobs), problems

    label = " ".join(f"{k}={v}" for k, v in spec.items())
    return Op(f"run+check {label} seed={seed}", run, check)


def fuzz_pipeline(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = [
        _fuzz_op(spec, game_seed, workdir / "fuzz")
        for spec in FUZZ_CONFIGS
        for game_seed in rng.sample(range(FUZZ_SEEDS), FUZZ_SEEDS_PER_CONFIG)
    ]
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "adaptive-sweep": adaptive_sweep,
    "fuzz-pipeline": fuzz_pipeline,
    "oblivious-montecarlo": oblivious_montecarlo,
}
