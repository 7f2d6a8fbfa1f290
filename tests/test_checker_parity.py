"""The integer checkers against a Fraction reference.

The reference below is the checker suite as it was when every checker read
one Fraction per cup: the tail scans, cup-reset, record-gap, the level
series, level-conservation, level-progress, working-set and fractional,
with the per-level reports folded as run_checkers folds them.  Both must
give the same report, witness included, on engine traces, on traces that
went through write_trace and read_trace, on forged traces whose states
each carry their own denominator, and on forged traces whose peak sits at,
or one unit of its den below, a level gate.
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from cupgame.engine import GameConfig, apply_fill, run_game
from cupgame.invariants import (
    CHECKERS,
    GREEDY,
    PROGRESS_D,
    SMOOTHED,
    InvariantReport,
    _log2,
    _tail_bounds,
    applicable_checkers,
    level_series,
    run_checkers,
)
from cupgame.rational import ZERO, floor_rat, rat
from cupgame.state import harmonic_number
from cupgame.traceio import read_trace, write_trace

from conftest import forge
from test_acceptance import _forged_breaches


# ---------------------------------------------------------------------------
# the Fraction reference


def ref_tail_scan(trace, name, params, skip, charged, value_key):
    n = trace.config.n
    bounds = _tail_bounds(n, n - skip)
    for t, state in enumerate(trace.states()):
        mass = ZERO
        for k, fill in enumerate(sorted(state.fills, reverse=True), start=1 - skip):
            mass += fill
            if k > 0 and mass - charged > bounds[k]:
                value = (mass - charged) / k
                witness = {"t": t, "k": k, value_key: value, "bound": bounds[k] / k}
                return InvariantReport(name, False, params, witness)
    return InvariantReport(name, True, params)


def ref_truncated(trace):
    truncation = trace.config.truncation
    n, p = trace.config.n, trace.config.p
    params = {"n": n, "p": p, "truncation": truncation}
    return ref_tail_scan(trace, "truncated-tail", params, p, p * truncation, "value")


def ref_top_fills(state, k):
    return sorted(state.fills, reverse=True)[:k]


def ref_cup_reset(trace):
    n, p = trace.config.n, trace.config.p
    params = {"n": n, "p": p}
    floor_rank = min(p + 1, n)
    ranked = [ref_top_fills(state, floor_rank) for state in trace.states()]
    for t in range(1, len(ranked)):
        prev, cur = ranked[t - 1], ranked[t]
        low = cur[floor_rank - 1]
        for j in range(1, min(p, n) + 1):
            fill = cur[j - 1]
            if fill > prev[j - 1] and low < fill - 1:
                witness = {
                    "t": t,
                    "rank": j,
                    "fill": fill,
                    "previous_fill": prev[j - 1],
                    "rank_fill_p_plus_1": low,
                }
                return InvariantReport("cup-reset", False, params, witness)
    return InvariantReport("cup-reset", True, params)


def ref_record_gap(trace):
    n, p = trace.config.n, trace.config.p
    gap_bound = harmonic_number(p)
    params = {"n": n, "p": p, "gap_bound": gap_bound}
    states = trace.states()
    for t in trace.record_setting_steps():
        top = ref_top_fills(states[t], p + 1)
        for i in range(1, p + 1):
            mass = sum(top[i:])
            if mass < (p + 1 - i) * (top[i - 1] - 1):
                witness = {
                    "t": t,
                    "i": i,
                    "tail_average": mass / (p + 1 - i),
                    "rank_fill": top[i - 1],
                }
                return InvariantReport("record-gap", False, params, witness)
        gap = top[0] - top[p]
        if gap > gap_bound:
            witness = {"t": t, "gap": gap, "bound": gap_bound}
            return InvariantReport("record-gap", False, params, witness)
    return InvariantReport("record-gap", True, params)


def ref_single_av(trace):
    params = {"n": trace.config.n}
    return ref_tail_scan(trace, "single-av", params, 0, ZERO, "average")


def ref_level_fill(fill, level):
    shifted = fill - 2 * (level - 1)
    return shifted if shifted > 0 else ZERO


def ref_level_numbers(state, level):
    floor_gate = 2 * (level - 1)
    active = 0
    integer_fill = 0
    for fill in state.fills:
        if fill >= floor_gate:
            active += 1
            whole = floor_rat(fill) - floor_gate - 1
            if whole > 0:
                integer_fill += whole
    return active, integer_fill


def ref_level_series(trace, level):
    """(active, integer_fill, crossings, crossing_cups, drains), as LevelStats holds them."""
    active, integer_fill = [], []
    crossings, crossing_cups, drains = [0], [()], [0]
    for state in trace.states():
        a, ti = ref_level_numbers(state, level)
        active.append(a)
        integer_fill.append(ti)
    previous = trace.initial
    for record in trace.records:
        count = 0
        cups = []
        for cup, amount in record.fill.amounts:
            before = ref_level_fill(previous.fill_of(cup), level)
            hit = floor_rat(before + amount) - max(floor_rat(before), 1)
            if hit > 0:
                count += hit
                cups.append(cup)
        crossings.append(count)
        crossing_cups.append(tuple(cups))
        inter = apply_fill(previous, record.fill)
        drains.append(sum(
            1 for cup in record.drained if ref_level_fill(inter.fill_of(cup), level) >= 2))
        previous = record.post
    return active, integer_fill, crossings, crossing_cups, drains


def ref_max_level(trace):
    top = max(state.backlog() for state in trace.states())
    return max(1, floor_rat(top / 2) + 1)


def ref_cumsums(trace):
    n = trace.config.n
    cums = [[ZERO] * (trace.steps_executed + 1) for _ in range(n)]
    running = [ZERO] * n
    for index, record in enumerate(trace.records, start=1):
        for cup, amount in record.fill.amounts:
            running[cup - 1] += amount
        for cup in range(n):
            cums[cup][index] = running[cup]
    return cums


def ref_level_conservation(trace, level):
    _, integer_fill, crossings, _, _ = ref_level_series(trace, level)
    params = {"level": level}
    for t, record in enumerate(trace.records, start=1):
        drains = sum(
            1
            for cup in record.drained
            if ref_level_fill(record.intermediate.fill_of(cup), level) >= 2
        )
        expected = integer_fill[t - 1] + crossings[t] - drains
        if integer_fill[t] != expected:
            witness = {
                "t": t,
                "integer_fill": integer_fill[t],
                "expected": expected,
                "crossings": crossings[t],
                "drains": drains,
            }
            return InvariantReport("level-conservation", False, params, witness)
    return InvariantReport("level-conservation", True, params)


def ref_filler_progress(trace, level):
    n, p = trace.config.n, trace.config.p
    log2n = _log2(n)
    threshold = PROGRESS_D * (p - 1) * log2n
    slack = PROGRESS_D * p * log2n
    _, integer_fill, crossings, _, _ = ref_level_series(trace, level)
    params = {"level": level, "d": PROGRESS_D, "threshold": threshold}
    cumulative = [0]
    for count in crossings[1:]:
        cumulative.append(cumulative[-1] + count)
    t0 = None
    for t1 in range(1, trace.steps_executed + 1):
        if integer_fill[t1 - 1] <= threshold:
            t0 = t1
        if t0 is None:
            continue
        crossed = cumulative[t1] - cumulative[t0 - 1]
        required = p * (t1 - t0 + 1) + integer_fill[t1] - slack
        if crossed < required:
            witness = {
                "t0": t0,
                "t1": t1,
                "crossings": crossed,
                "required": required,
                "integer_fill": integer_fill[t1],
            }
            return InvariantReport("level-progress", False, params, witness)
    return InvariantReport("level-progress", True, params)


def ref_working_set(trace, level, window):
    p = trace.config.p
    active, _, crossings, crossing_cups, _ = ref_level_series(trace, level)
    cums = ref_cumsums(trace)
    params = {"level": level, "window": window}
    steps = trace.steps_executed
    for t0 in range(1, steps + 1):
        crossed = 0
        cups = set()
        for t1 in range(t0, min(steps, t0 + window - 1) + 1):
            crossed += crossings[t1]
            cups.update(crossing_cups[t1])
            length = t1 - t0 + 1
            if crossed < p * length:
                continue
            if len(cups) > 2 * active[t0 - 1]:
                witness = {
                    "t0": t0,
                    "t1": t1,
                    "set_size": len(cups),
                    "active_before": active[t0 - 1],
                    "cups": sorted(cups),
                }
                return InvariantReport("working-set", False, params, witness)
            deposits = ZERO
            for cup in cups:
                deposits += cums[cup - 1][t1] - cums[cup - 1][t0 - 1]
            if deposits < p * length - len(cups):
                witness = {
                    "t0": t0,
                    "t1": t1,
                    "deposits": deposits,
                    "required": p * length - len(cups),
                    "cups": sorted(cups),
                }
                return InvariantReport("working-set", False, params, witness)
    return InvariantReport("working-set", True, params)


def ref_fractional(trace):
    offsets = trace.initial.fills
    cums = ref_cumsums(trace)
    params = {"n": trace.config.n}
    for t, record in enumerate(trace.records, start=1):
        for cup in range(1, trace.config.n + 1):
            delta = record.post.fill_of(cup) - offsets[cup - 1] - cums[cup - 1][t]
            if delta.denominator != 1:
                witness = {"t": t, "cup": cup, "residue": delta}
                return InvariantReport("fractional", False, params, witness)
    return InvariantReport("fractional", True, params)


def ref_levels(trace, single, *args):
    reports = [single(trace, level, *args) for level in range(1, ref_max_level(trace) + 1)]
    failed = [report for report in reports if not report.passed]
    params = dict(reports[0].params)
    params["levels"] = len(reports)
    if failed:
        witness = dict(failed[0].witness)
        witness["level"] = failed[0].params["level"]
        return InvariantReport(reports[0].check, False, params, witness)
    return InvariantReport(reports[0].check, True, params)


REFERENCE = {
    "truncated-tail": lambda trace, window: ref_truncated(trace),
    "cup-reset": lambda trace, window: ref_cup_reset(trace),
    "record-gap": lambda trace, window: ref_record_gap(trace),
    "single-av": lambda trace, window: ref_single_av(trace),
    "level-conservation": lambda trace, window: ref_levels(trace, ref_level_conservation),
    "level-progress": lambda trace, window: ref_levels(trace, ref_filler_progress),
    "working-set": lambda trace, window: ref_levels(trace, ref_working_set, window),
    "fractional": lambda trace, window: ref_fractional(trace),
}


def assert_checkers_agree(trace, window=8):
    names = applicable_checkers(trace)
    reports = run_checkers(trace, names, window=window)
    for name, report in zip(names, reports):
        expected = REFERENCE[name](trace, window)
        assert report.to_jsonable() == expected.to_jsonable(), name
        # same witness keys in the same order, so report.json keeps its bytes
        assert list(report.to_jsonable()["witness"] or ()) == list(
            expected.to_jsonable()["witness"] or ()
        )
    if trace.config.emptier == SMOOTHED:
        for level in range(1, ref_max_level(trace) + 2):
            stats = level_series(trace, level)
            got = (stats.active, stats.integer_fill, stats.crossings, stats.crossing_cups,
                   stats.drains)
            assert got == ref_level_series(trace, level), level
    return names


def test_reference_covers_every_checker():
    assert set(REFERENCE) == set(CHECKERS)


# ---------------------------------------------------------------------------
# engine traces, fresh and replayed from disk

ENGINE_CONFIGS = [
    dict(n=5, p=1, emptier=GREEDY, truncation=rat(5)),
    dict(n=6, p=2, emptier=GREEDY, truncation=rat(7, 2)),
    dict(n=3, p=1, emptier=GREEDY),
    dict(n=5, p=2, emptier=SMOOTHED),
    dict(n=8, p=3, emptier=SMOOTHED),
]


@settings(max_examples=40, deadline=None)
@given(
    spec=st.sampled_from(ENGINE_CONFIGS),
    filler=st.sampled_from(["random:1/2", "random:1", "harmonic", "growth"]),
    seed=st.integers(0, 2**16),
    steps=st.integers(0, 60),
    window=st.integers(1, 12),
    replay=st.booleans(),
)
def test_checkers_agree_on_engine_traces(spec, filler, seed, steps, window, replay):
    trace = run_game(GameConfig(steps=steps, seed=seed, filler=filler, **spec))
    if replay:
        with tempfile.TemporaryDirectory() as directory:
            write_trace(trace, directory)
            trace = read_trace(directory)
    assert assert_checkers_agree(trace, window)


# ---------------------------------------------------------------------------
# forged traces: no legality, every state on its own denominator

AMOUNTS = [rat(a, b) for b in (1, 2, 3, 4, 5, 6, 12) for a in range(0, b + 1)]
FILLS = st.sampled_from(AMOUNTS + [rat(a, b) for b in (1, 2, 3, 7) for a in range(b, 8 * b)])


@st.composite
def forged_traces(draw):
    n = draw(st.integers(1, 5))
    p = draw(st.integers(1, n))
    emptier = draw(st.sampled_from([GREEDY, SMOOTHED]))
    truncation = draw(st.sampled_from([None, rat(3, 2), rat(4), rat(9)])) if emptier == GREEDY else None
    initial = draw(st.lists(FILLS, min_size=n, max_size=n))
    if draw(st.booleans()) and emptier == GREEDY:
        initial = [ZERO] * n  # single-av needs an empty start
    steps = []
    for _ in range(draw(st.integers(0, 8))):
        cups = draw(st.lists(st.integers(1, n), max_size=n, unique=True))
        deposits = {cup: draw(st.sampled_from(AMOUNTS)) for cup in cups}
        drained = draw(st.lists(st.integers(1, n), max_size=p, unique=True))
        removed = [(cup, draw(st.sampled_from(AMOUNTS[1:]))) for cup in drained]
        post = tuple(draw(st.lists(FILLS, min_size=n, max_size=n)))
        steps.append((deposits, removed, post))
    return forge(n, p, emptier, steps, initial=initial, truncation=truncation)


@settings(max_examples=300, deadline=None)
@given(trace=forged_traces(), window=st.integers(1, 6))
def test_checkers_agree_on_forged_traces(trace, window):
    assert_checkers_agree(trace, window)


BREACHES = list(_forged_breaches())


@pytest.mark.parametrize("name, trace", BREACHES, ids=[name for name, _ in BREACHES])
def test_checkers_agree_on_c3_forged_breaches(name, trace):
    report = run_checkers(trace, [name], window=8)[0]
    assert not report.passed
    assert report.to_jsonable() == REFERENCE[name](trace, 8).to_jsonable()


# ---------------------------------------------------------------------------
# level boundaries: the level count is the Fraction rule's at every gate

LEVEL_CHECKS = ["level-conservation", "level-progress", "working-set"]

# (name, S_0, [S_1, ..., S_T], levels); each step deposits cup 1's rise
BOUNDARIES = [
    ("peak-2", (0, 0), [(1, 0), (2, rat(1, 2))], 2),
    ("below-2", (0, 0), [(1, 0), (rat(5, 3), 0)], 1),
    ("peak-4", (0, 0), [(2, 1), (4, 1)], 3),
    ("below-4", (0, 0), [(2, 0), (rat(27, 7), 1)], 2),
    ("peak-only-in-s0", (4, 1), [(1, 1), (1, 0)], 3),
    ("peak-only-in-st", (0, 0), [(1, 0), (1, 1), (4, 0)], 3),
    ("four-levels", (0, 0), [(3, 1), (7, 2), (5, 2)], 4),
]


def boundary_trace(initial, posts):
    steps, before = [], rat(initial[0])
    for post in posts:
        rise = rat(post[0]) - before
        fill = {1: rise} if rise > 0 else {}
        removed = ((1, -rise),) if rise < 0 else ()
        steps.append((fill, removed, post))
        before = rat(post[0])
    return forge(2, 1, SMOOTHED, steps, initial=initial)


@pytest.mark.parametrize(
    "initial, posts, levels",
    [case[1:] for case in BOUNDARIES],
    ids=[case[0] for case in BOUNDARIES],
)
def test_levels_open_at_the_level_gates(initial, posts, levels):
    trace = boundary_trace(initial, posts)
    assert ref_max_level(trace) == levels
    for window in (1, 8):
        assert assert_checkers_agree(trace, window)
    reports = run_checkers(trace, LEVEL_CHECKS)
    assert [report.params["levels"] for report in reports] == [levels] * 3
