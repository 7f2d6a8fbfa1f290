"""Differential tests: the integer run statistics against the code they replaced.

The oracles below are the previous implementations, kept here:
`oracle_to_decimal` renders a rational in a `decimal.localcontext` per call,
the av_p series is one Fraction per state (the top-p Fraction fills over p),
`empirical_M` is its max and the record-setting steps compare its entries,
and `oracle_working_set` is the O(T * window) scan of every t0.  The integer
forms must give the same text, the same values and the same reports,
witness included.
"""

from __future__ import annotations

import decimal
from fractions import Fraction

import pytest

from cupgame.engine import GameConfig, run_game
from cupgame.invariants import (
    SMOOTHED,
    InvariantReport,
    _deposit_cumsums,
    check_working_set,
    level_series,
    max_level,
    record_setting_steps,
)
from cupgame.rational import rat, to_decimal
from cupgame.traceio import summarize

from test_acceptance import FUZZ_CONFIGS, _forged_breaches


# ---------------------------------------------------------------------------
# the oracles


def oracle_to_decimal(value) -> str:
    value = Fraction(value)
    with decimal.localcontext() as ctx:
        ctx.prec = 15
        return str(decimal.Decimal(value.numerator) / value.denominator)


def oracle_av_series(trace) -> list:
    p = trace.config.p
    return [sum(sorted(state.fills, reverse=True)[:p]) / p for state in trace.states()]


def oracle_record_setting_steps(trace) -> list:
    result = []
    best = None
    series = oracle_av_series(trace)
    for t in range(1, len(series)):
        if best is None or series[t] > best:
            result.append(t)
            best = series[t]
    return result


def oracle_working_set(trace, level, window):
    p = trace.config.p
    stats = level_series(trace, level)
    den, cums = _deposit_cumsums(trace)
    params = {"level": level, "window": window}
    steps = trace.steps_executed
    for t0 in range(1, steps + 1):
        crossings = 0
        cups: set[int] = set()
        for t1 in range(t0, min(steps, t0 + window - 1) + 1):
            crossings += stats.crossings[t1]
            if stats.crossing_cups[t1]:
                cups.update(stats.crossing_cups[t1])
            length = t1 - t0 + 1
            if crossings < p * length:
                continue
            active_before = stats.active[t0 - 1]
            if len(cups) > 2 * active_before:
                witness = {
                    "t0": t0,
                    "t1": t1,
                    "set_size": len(cups),
                    "active_before": active_before,
                    "cups": sorted(cups),
                }
                return InvariantReport("working-set", False, params, witness)
            before, after = cums[t0 - 1], cums[t1]
            deposits = sum(after[cup - 1] - before[cup - 1] for cup in cups)
            required = p * length - len(cups)
            if deposits < required * den:
                witness = {
                    "t0": t0,
                    "t1": t1,
                    "deposits": rat(deposits, den),
                    "required": required,
                    "cups": sorted(cups),
                }
                return InvariantReport("working-set", False, params, witness)
    return InvariantReport("working-set", True, params)


def heavy_starts(trace, level, window) -> int:
    """How many t0 have a [t0, t1] in the window with p(t1 - t0 + 1) crossings."""
    p, steps = trace.config.p, trace.steps_executed
    crossings = level_series(trace, level).crossings
    count = 0
    for t0 in range(1, steps + 1):
        total = 0
        for t1 in range(t0, min(steps, t0 + window - 1) + 1):
            total += crossings[t1]
            if total >= p * (t1 - t0 + 1):
                count += 1
                break
    return count


# ---------------------------------------------------------------------------
# decimal cells

HALF_EVEN = [  # 16 significant digits ending in 5: a tie at the 15th digit
    Fraction(1000000000000005, 10**15),
    Fraction(1000000000000015, 10**15),
    Fraction(2000000000000025, 10**15),
    Fraction(9999999999999995, 10**15),
]
DYADIC = [  # smoothed-greedy offsets are k / 2^64
    Fraction(1, 2**64),
    Fraction(2**64 + 1, 2**64),
    Fraction(3 * 2**64 + 5, 2**64),
    Fraction(12345, 2**64),
]
VALUES = (
    [Fraction(k) for k in (0, 1, 7, 10, 100, 123456789012345, 1234567890123456789)]
    + [Fraction(a, b) for a, b in ((1, 2), (3, 4), (5, 8), (11, 20), (1, 1000), (7, 40))]
    + HALF_EVEN
    + DYADIC
    + [Fraction(a, b) for a, b in ((11, 6), (481, 280), (2, 3), (22, 7), (1, 3 * 2**64))]
)


@pytest.mark.parametrize("value", VALUES, ids=str)
def test_decimal_cells_match_the_context_oracle(value):
    expected = oracle_to_decimal(value)
    assert to_decimal(value) == expected
    assert to_decimal(value.numerator, value.denominator) == expected
    for k in (2, 3, 10, 2**64):  # an unreduced pair renders like its lowest terms
        assert to_decimal(value.numerator * k, value.denominator * k) == expected
    if value.denominator == 1:
        assert to_decimal(value.numerator) == expected


def test_decimal_cases_cover_ties_and_exponent_form():
    assert [to_decimal(value) for value in HALF_EVEN] == [
        "1.00000000000000", "1.00000000000002", "2.00000000000002", "10.0000000000000",
    ]
    assert to_decimal(1, 2**64) == "5.42101086242752E-20"
    assert to_decimal(0, 7) == "0"
    assert to_decimal(6, 4) == "1.5"


# ---------------------------------------------------------------------------
# run statistics and the working-set scan


def _fuzz_traces():
    for spec in FUZZ_CONFIGS:
        for seed in range(3):
            config = GameConfig(steps=500, seed=seed, filler="random:1/2", **spec)
            yield f"{spec['emptier']}-n{spec['n']}-s{seed}", run_game(config)


def _level_two_traces():
    for filler, n, p in (("growth", 32, 4), ("harmonic", 64, 1)):
        config = GameConfig(n=n, p=p, steps=500, filler=filler, emptier=SMOOTHED)
        yield f"{filler}-n{n}-p{p}", run_game(config)


TRACES = (
    list(_fuzz_traces())
    + [(f"forged-{name}", trace) for name, trace in _forged_breaches()]
    + list(_level_two_traces())
)
WORKING_SET = [(name, trace) for name, trace in TRACES if trace.config.emptier == SMOOTHED]


@pytest.mark.parametrize("name, trace", TRACES, ids=[name for name, _ in TRACES])
def test_run_statistics_match_the_fraction_series(name, trace):
    series = oracle_av_series(trace)
    assert trace.empirical_M() == max(series)
    assert record_setting_steps(trace) == oracle_record_setting_steps(trace)
    assert [rat(mass, den * trace.config.p) for mass, den in trace.top_masses()] == series
    summary = summarize(trace)
    final = trace.states()[-1].backlog()
    assert summary["final_backlog"] == {"exact": f"{final.numerator}/{final.denominator}",
                                        "decimal": oracle_to_decimal(final)}
    assert summary["empirical_M"]["decimal"] == oracle_to_decimal(max(series))


@pytest.mark.parametrize("window", [1, 8, 256])
@pytest.mark.parametrize("name, trace", WORKING_SET, ids=[name for name, _ in WORKING_SET])
def test_working_set_matches_the_full_scan(name, trace, window):
    for level in range(1, max_level(trace) + 2):
        got = check_working_set(trace, level, window).to_jsonable()
        assert got == oracle_working_set(trace, level, window).to_jsonable(), level


def test_working_set_corpus_has_heavy_windows_and_failures():
    """The pruned scan is exercised on both sides: t0s it scans and t0s it
    skips, passes and a witnessed failure, at level 1 and level 2."""
    traces = dict(WORKING_SET)
    for name in ("growth-n32-p4", "harmonic-n64-p1"):
        trace = traces[name]
        assert max_level(trace) == 2
        assert 0 < heavy_starts(trace, 1, 256) < trace.steps_executed
    assert not check_working_set(traces["forged-working-set"], 2, 8).passed
