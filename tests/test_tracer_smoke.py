"""Smoke test of the benchmark's per-layer tracer against the current program.

perfbench/tracing.py wraps cupgame's functions by name.  A rename in the
program would break the benchmark's `--trace 1` mode; this test makes the
tier-1 suite see that: it installs the Tracer, runs one small `run --svg`
and `check` and one `growth` and one `anchor-swap` game, uninstalls it, and
requires the layers on those paths to have been timed and every wrapped
attribute to be the original object again.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from cupgame import (
    cli, emptiers, engine, experiments, fillers, invariants, rng, state, svg, traceio,
)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
MODULES = (cli, emptiers, engine, experiments, fillers, invariants, rng, state, svg, traceio)

# spans and counters that one run --svg + check of a smoothed-greedy game, a
# growth game and an anchor-swap game must touch
TOUCHED = (
    "engine.validate_fill.busy_s",
    "engine.apply_fill.busy_s",
    "engine.apply_empty.busy_s",
    "engine.validate_empty.busy_s",
    "fillers.random.next_move.busy_s",
    "fillers.growth.next_move.busy_s",
    "fillers.anchor-swap.next_move.busy_s",
    "emptiers.initial_fills.busy_s",
    "state.top_cups.calls",
    "invariants.working-set.busy_s",
    "invariants.fractional.busy_s",
    "invariants.level_series.busy_s",
    "traceio.write_trace.self_s",
    "traceio.read_trace.self_s",
    "traceio.summarize.busy_s",
    "traceio.bytes",
    "rational.to_decimal.busy_s",
    "svg.backlog_svg.busy_s",
    "cli.main.self_s",
)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot() -> list:
    """Every attribute the tracer could replace, as (owner, name, object)."""
    owners = [*MODULES, state.CupState]
    return [(owner, name, value) for owner in owners for name, value in vars(owner).items()] + [
        (invariants.CHECKERS, name, value) for name, value in invariants.CHECKERS.items()
    ]


def test_tracer_times_run_and_check_and_restores_every_attribute(tmp_path):
    tracing = load_tracing()
    before = snapshot()
    run_game = engine.run_game
    tracer = tracing.Tracer()
    try:  # a failed install has patched some attributes: uninstall restores them
        tracer.install()
        assert engine.run_game is not run_game
        out = tmp_path / "game"
        assert cli.main([
            "run", "--n", "8", "--p", "2", "--steps", "40", "--filler", "random:1/2",
            "--emptier", "smoothed-greedy", "--out", str(out), "--svg",
        ]) == 0
        assert cli.main(["check", str(out)]) == 0
        engine.run_game(engine.GameConfig(n=8, p=2, steps=40, filler="growth"))
        engine.run_game(engine.GameConfig(n=16, p=8, steps=40, filler="anchor-swap:8,64,2",
                                          emptier="smoothed-greedy", visibility="oblivious"))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["engine.steps"] == 3 * 40
    untouched = [name for name in TOUCHED if not metrics[name] > 0]
    assert not untouched
    after = snapshot()
    assert len(after) == len(before)
    for (owner, name, value), (_, _, restored) in zip(before, after):
        assert restored is value, f"{owner!r}.{name}"
