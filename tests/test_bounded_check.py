"""The check path keeps no whole-trace tables.

Differential: the checkers that now sum deposits as they scan must give the
reports of the whole-trace oracles below, witness included.  The oracles
read the (D, cums) table of `deposit_cumsums`, one n-tuple per state, and
cup-reset's oracle ranks every state before it compares any two.

Memory: `read_trace` replays rows as it reads them, so its peak stays near
the trace it returns, and `run_checkers` adds little to the trace it reads.
"""

from __future__ import annotations

import tracemalloc

import pytest

from cupgame import invariants
from cupgame.engine import GameConfig, apply_fill, run_game
from cupgame.invariants import (
    SMOOTHED,
    InvariantReport,
    LevelStats,
    level_series,
    run_checkers,
)
from cupgame.rational import rat
from cupgame.traceio import read_trace, write_trace

from conftest import forge, max_level
from test_acceptance import FUZZ_CONFIGS, _forged_breaches
from test_integer_stats import deposit_cumsums, oracle_working_set


# ---------------------------------------------------------------------------
# the whole-trace oracles


def oracle_level_series(trace, level):
    den, cums = deposit_cumsums(trace)
    gate = 2 * (level - 1) * den
    states = trace.states()
    stats = LevelStats(level, [], [], [0], [()], [0])
    for t, state in enumerate(states):
        whole = [scaled // state.den for scaled in state.scaled]
        stats.active.append(sum(1 for fill in whole if fill >= 2 * (level - 1)))
        stats.integer_fill.append(sum(max(fill - 2 * (level - 1) - 1, 0) for fill in whole))
        if t == 0:
            continue
        previous, count, cups = states[t - 1], 0, []
        for cup in range(1, trace.config.n + 1):
            amount = cums[t][cup - 1] - cums[t - 1][cup - 1]
            if not amount:
                continue
            before = max(previous.scaled[cup - 1] * (den // previous.den) - gate, 0)
            hit = (before + amount) // den - max(before // den, 1)
            if hit > 0:
                count += hit
                cups.append(cup)
        stats.crossings.append(count)
        stats.crossing_cups.append(tuple(cups))
        record = trace.records[t - 1]
        inter = apply_fill(previous, record.fill)
        stats.drains.append(sum(
            1 for cup in record.drained if inter.scaled[cup - 1] >= 2 * level * inter.den))
    return stats


def oracle_fractional(trace):
    den, cums = deposit_cumsums(trace)
    start = trace.initial
    offsets = [scaled * (den // start.den) for scaled in start.scaled]
    params = {"n": trace.config.n}
    for t, state in enumerate(trace.states()[1:], start=1):
        for cup, (fill, offset, cum) in enumerate(zip(state.scaled, offsets, cums[t]), start=1):
            delta = fill * (den // state.den) - offset - cum
            if delta % den:
                witness = {"t": t, "cup": cup, "residue": rat(delta, den)}
                return InvariantReport("fractional", False, params, witness)
    return InvariantReport("fractional", True, params)


def oracle_cup_reset(trace):
    n, p = trace.config.n, trace.config.p
    params = {"n": n, "p": p}
    floor_rank = min(p + 1, n)
    ranked = [(state.den, state.top_scaled(floor_rank)) for state in trace.states()]
    for t in range(1, len(ranked)):
        (prev_den, prev), (den, cur) = ranked[t - 1], ranked[t]
        low = cur[floor_rank - 1]
        for j in range(1, min(p, n) + 1):
            fill = cur[j - 1]
            if fill * prev_den > prev[j - 1] * den and low < fill - den:
                witness = {
                    "t": t,
                    "rank": j,
                    "fill": rat(fill, den),
                    "previous_fill": rat(prev[j - 1], prev_den),
                    "rank_fill_p_plus_1": rat(low, den),
                }
                return InvariantReport("cup-reset", False, params, witness)
    return InvariantReport("cup-reset", True, params)


def oracle_reports(trace, window, monkeypatch):
    """run_checkers with every rewritten checker swapped for its oracle."""
    with monkeypatch.context() as patched:
        patched.setattr(invariants, "level_series", oracle_level_series)
        patched.setattr(invariants, "check_cup_reset", oracle_cup_reset)
        patched.setattr(invariants, "check_working_set", oracle_working_set)
        patched.setattr(invariants, "check_fractional_preservation", oracle_fractional)
        return [report.to_jsonable() for report in run_checkers(trace, window=window)]


# ---------------------------------------------------------------------------
# the corpus: C3's fuzz configs, the forged breaches, two level-2 games


def _corpus():
    for spec in FUZZ_CONFIGS:
        for seed in range(6):
            config = GameConfig(steps=500, seed=seed, filler="random:1/2", **spec)
            yield f"{spec['emptier']}-n{spec['n']}-s{seed}", run_game(config)
    for name, trace in _forged_breaches():
        yield f"forged-{name}", trace
    # partial removals let cup 1 recross s=2 with too little water: the
    # working-set witness is the deposits clause's, at t1 = 2
    step = ({1: rat(1, 5)}, ((1, rat(1, 5)),), (rat(19, 10), 0))
    yield "forged-water", forge(2, 1, SMOOTHED, [step] * 5, initial=(rat(19, 10), 0))
    for filler, n, p in (("growth", 32, 4), ("harmonic", 64, 1)):
        config = GameConfig(n=n, p=p, steps=2000, filler=filler, emptier=SMOOTHED)
        yield f"{filler}-n{n}-p{p}", run_game(config)


CORPUS = list(_corpus())


@pytest.mark.parametrize("name, trace", CORPUS, ids=[name for name, _ in CORPUS])
def test_reports_match_the_whole_trace_oracles(name, trace, monkeypatch):
    for window in (1, 8, 256):
        got = [report.to_jsonable() for report in run_checkers(trace, window=window)]
        assert got == oracle_reports(trace, window, monkeypatch), window
    if trace.config.emptier == SMOOTHED:
        for level in range(1, max_level(trace) + 2):
            assert level_series(trace, level) == oracle_level_series(trace, level), level


def test_corpus_has_failures_and_level_two_games():
    """Witnesses are compared too: every rewritten checker fails somewhere."""
    failed = set()
    for name, trace in CORPUS:
        reports = run_checkers(trace, window=8)
        failed.update(report.check for report in reports if not report.passed)
    assert {"cup-reset", "level-conservation", "working-set", "fractional"} <= failed
    water = run_checkers(dict(CORPUS)["forged-water"], ["working-set"], window=8)[0]
    assert water.witness["deposits"] == rat(2, 5)
    assert all(max_level(trace) == 2 for _, trace in CORPUS[-2:])


# ---------------------------------------------------------------------------
# memory


def _smoothed_game():
    config = GameConfig(n=64, p=4, steps=1000, seed=1, filler="random:1/2", emptier=SMOOTHED)
    return run_game(config)


def test_read_trace_peak_stays_near_the_trace_it_returns(tmp_path):
    write_trace(_smoothed_game(), tmp_path)
    tracemalloc.start()
    try:
        trace = read_trace(tmp_path)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.steps_executed == 1000
    assert peak <= 1.3 * size, (peak, size)


def test_checkers_add_little_to_the_trace_they_read():
    tracemalloc.start()
    try:
        trace = _smoothed_game()
        size = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        reports = run_checkers(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reports) == 5 and all(report.passed for report in reports)
    assert peak - size < 0.1 * size, (peak - size, size)
