"""Batch drivers: parameter sweeps, threshold hunts, seeded frequency runs.

Everything here is deterministic given its inputs.  Sweep rows are gathered
and *then* sorted by (n, p, seed) so output order never depends on execution
order, and the seeded frequency runs play seeds 0, 1, ..., seeds - 1.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .engine import OBLIVIOUS, FillMove, GameConfig, run_game
from .rational import as_rat, exact_and_decimal, format_rat, rat, to_decimal
from .state import harmonic_number


@dataclass(frozen=True)
class SweepRow:
    n: int
    p: int
    seed: int
    steps: int
    max_backlog: object  # exact rational


def run_sweep(ns, ps, seeds, *, steps: int, filler: str, emptier: str,
              truncation=None) -> list[SweepRow]:
    """One game per (n, p, seed); rows sorted by (n, p, seed)."""
    rows = []
    for n in ns:
        for p in ps:
            for seed in seeds:
                config = GameConfig(
                    n=n, p=p, steps=steps, seed=seed,
                    filler=filler, emptier=emptier, truncation=truncation,
                )
                trace = run_game(config)
                rows.append(
                    SweepRow(
                        n=n, p=p, seed=seed,
                        steps=trace.steps_executed,
                        max_backlog=trace.max_backlog(),
                    )
                )
    rows.sort(key=lambda row: (row.n, row.p, row.seed))
    return rows


def fit_log_slope(rows) -> float:
    """Least-squares slope of max backlog against ln n over sweep rows."""
    points = [(math.log(row.n), float(row.max_backlog)) for row in rows]
    if len({x for x, _ in points}) < 2:
        raise ValueError("slope fit needs at least two distinct n values")
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    num = sum((x - mean_x) * (y - mean_y) for x, y in points)
    den = sum((x - mean_x) ** 2 for x, _ in points)
    return num / den


def write_sweep_csv(rows, path) -> Path:
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["n", "p", "seed", "steps", "max_backlog", "max_backlog_dec"])
        for row in rows:
            writer.writerow(
                [row.n, row.p, row.seed, row.steps,
                 format_rat(row.max_backlog), to_decimal(row.max_backlog)]
            )
    return path


# ---------------------------------------------------------------------------
# adversarial lower bound


def lower_bound_threshold(n: int, p: int):
    """Backlog the growth construction is guaranteed: sum_{j=2}^{n-p+1} 1/j."""
    if n <= p:
        raise ValueError(f"need n > p, got n={n}, p={p}")
    return harmonic_number(n - p + 1) - 1


@dataclass(frozen=True)
class LowerBoundResult:
    n: int
    p: int
    emptier: str
    threshold: object  # exact rational
    reached: bool
    steps_to_threshold: int | None
    budget: int
    max_backlog: object

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "emptier": self.emptier,
            "threshold": exact_and_decimal(self.threshold),
            "reached": self.reached,
            "steps_to_threshold": self.steps_to_threshold,
            "budget": self.budget,
            "max_backlog": exact_and_decimal(self.max_backlog),
        }


def run_lower_bound(n: int, p: int, *, emptier: str = "greedy",
                    seed: int = 0) -> LowerBoundResult:
    """Growth filler vs the given emptier until the harmonic threshold.

    Stops the moment some post state's backlog reaches the threshold; gives
    up after 20 n (n - p) steps, which signals a construction bug rather
    than bad luck since the argument is deterministic.
    """
    threshold = lower_bound_threshold(n, p)
    budget = 20 * n * (n - p)
    config = GameConfig(
        n=n, p=p, steps=budget, seed=seed, filler="growth", emptier=emptier
    )
    top, bottom = threshold.numerator, threshold.denominator
    trace = run_game(
        config, stop_when=lambda t, state: max(state.scaled) * bottom >= top * state.den
    )
    reached = trace.max_backlog() >= threshold
    return LowerBoundResult(
        n=n,
        p=p,
        emptier=emptier,
        threshold=threshold,
        reached=reached,
        steps_to_threshold=trace.steps_executed if reached else None,
        budget=budget,
        max_backlog=trace.max_backlog(),
    )


# ---------------------------------------------------------------------------
# seeded backlog frequency


def backlog_frequency_experiment(base_config: GameConfig, seeds: int, threshold) -> dict:
    """Fraction of runs, seeds 0..seeds-1, whose max backlog reaches the threshold.

    threshold may be exact or a float cutoff (for logarithmic targets); the
    comparison is max_backlog >= threshold either way.
    """
    if seeds < 100:
        raise ValueError(f"need at least 100 seeds for a usable estimate, got {seeds}")
    hits = 0
    best = None
    for seed in range(seeds):
        config = replace(base_config, seed=seed)
        trace = run_game(config)
        top = trace.max_backlog()
        if best is None or top > best:
            best = top
        if top >= threshold:
            hits += 1
    return {
        "seeds": seeds,
        "hits": hits,
        "frequency": rat(hits, seeds),
        "threshold": threshold,
        "best_backlog": best,
    }


# ---------------------------------------------------------------------------
# offset Monte Carlo


def crossing_probability_experiment(deposits, seeds: int):
    """Fraction of offset draws in which the last scripted deposit crosses.

    Replays the deposit script into a lone cup, one deposit per step, as an
    ObliviousFiller against the smoothed greedy emptier under `seeds`
    independent offset draws and reports how often the final deposit pushes
    the cup's fill past an integer.  Removals ahead of the final deposit are
    whole units, so the fill's fractional part stays uniform and the exact
    crossing probability equals the deposit's fractional size.
    """
    from .fillers import ObliviousFiller

    if seeds < 100:
        raise ValueError(f"need at least 100 seeds for a usable estimate, got {seeds}")
    deposits = [as_rat(amount) for amount in deposits]
    if not deposits:
        raise ValueError("deposit script must contain at least one step")
    for amount in deposits:
        if not 0 <= amount <= 1:
            raise ValueError(f"scripted deposits must lie in [0, 1], got {amount}")
    hits = 0
    for seed in range(seeds):
        config = GameConfig(
            n=1, p=1, steps=len(deposits), seed=seed, emptier="smoothed-greedy",
            visibility=OBLIVIOUS,
        )
        trace = run_game(config, filler=ObliviousFiller(FillMove({1: a}) for a in deposits))
        inter, prev = trace.records[-1].intermediate, trace.records[-1].prev
        if inter.scaled[0] // inter.den > prev.scaled[0] // prev.den:
            hits += 1
    return rat(hits, seeds)
