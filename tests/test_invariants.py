"""Checker suite: hand-valued level series, forged-trace failures, real-run passes.

Every checker gets two kinds of coverage: a genuine game whose trace must
pass, and a hand-assembled trace (built directly from dataclasses, skipping
the engine's legality guards) that must trip the specific clause under test
with a pinned witness.
"""

from __future__ import annotations

import pytest

from cupgame.engine import GameConfig, run_game
from cupgame.invariants import (
    CHECKERS,
    _tail_bounds,
    InvariantReport,
    LevelStats,
    PreconditionError,
    applicable_checkers,
    check_av_invariant_single,
    check_cup_reset,
    check_filler_progress,
    check_fractional_preservation,
    check_level_conservation,
    check_record_constraints,
    check_truncated_invariant,
    check_working_set,
    level_series,
    run_checkers,
)
from cupgame.experiments import crossing_probability_experiment
from cupgame.fillers import ObliviousFiller
from cupgame.rational import rat

from conftest import ScriptFiller, forge, max_level, play


# ---------------------------------------------------------------------------
# level machinery


def test_level_series_hand_values():
    # two steps, no emptying: cup 1 climbs 3/2 -> 5/2, cup 2 sits at 39/10
    trace = forge(
        2,
        1,
        "smoothed-greedy",
        [
            ({1: rat(3, 2)}, (), (rat(3, 2), rat(39, 10))),
            ({1: rat(1)}, (), (rat(5, 2), rat(39, 10))),
        ],
        initial=(0, rat(39, 10)),
    )
    one = level_series(trace, 1)
    assert isinstance(one, LevelStats)
    assert one.active == [2, 2, 2]
    # T: floor(39/10) - 1 = 2 at start; cup 1 adds floor(5/2) - 1 = 1 at t=2
    assert one.integer_fill == [2, 2, 3]
    # step 1 crosses nothing (0 -> 3/2); step 2 crosses s=2 (3/2 -> 5/2)
    assert one.crossings == [0, 0, 1]
    assert one.crossing_cups == [(), (), (1,)]
    two = level_series(trace, 2)
    # gate is fill >= 2: only cup 2 at first, cup 1 joins after step 2
    assert two.active == [1, 1, 2]
    # h2 of cup 2 is 19/10: floor - 1 = 0; cup 1 peaks at h2 = 1/2
    assert two.integer_fill == [0, 0, 0]
    assert two.crossings == [0, 0, 0]
    assert max(two.active) == 2
    assert level_series(trace, 2) is two  # cached per (trace, level)


def test_crossing_counts_boundaries():
    # deposit lands exactly on an integer: the threshold counts (half-open left)
    trace = forge(
        1,
        1,
        "smoothed-greedy",
        [
            ({1: rat(1)}, (), (rat(2),)),  # 1 -> 2 crosses s=2
            ({1: rat(1, 2)}, (), (rat(5, 2),)),  # 2 -> 5/2: none
            ({1: rat(1, 2)}, (), (rat(3),)),  # 5/2 -> 3 crosses s=3
        ],
        initial=(1,),
    )
    stats = level_series(trace, 1)
    assert stats.crossings == [0, 1, 0, 1]
    assert stats.crossing_cups == [(), (1,), (), (1,)]


def test_max_level_tracks_peak_backlog():
    trace = forge(
        1,
        1,
        "smoothed-greedy",
        [({1: rat(1)}, (), (rat(5),))],
        initial=(4,),
    )
    # fill 5 is active at gates 0, 2, 4: at t = 1, T^(1) = 4 and T^(2) = 2 open
    # levels 2 and 3, and T^(3) is 0 at every step
    reports = run_checkers(trace, ["level-conservation", "level-progress", "working-set"])
    assert [report.params["levels"] for report in reports] == [3, 3, 3]


# ---------------------------------------------------------------------------
# truncated skewed-average bound


def truncated_run(seed=3):
    config = GameConfig(
        n=8, p=2, steps=160, seed=seed, filler="random:1/2",
        emptier="greedy", truncation=3,
    )
    return run_game(config)


def test_truncated_tail_passes_on_real_game():
    report = check_truncated_invariant(truncated_run())
    assert report.passed
    assert report.params["truncation"] == 3


def test_truncated_tail_flags_forged_overflow():
    trace = forge(
        3,
        1,
        "greedy",
        [({1: rat(1)}, (), (rat(3), rat(2), rat(0)))],
        truncation=2,
    )
    report = check_truncated_invariant(trace)
    assert not report.passed
    assert report.witness["t"] == 1
    assert report.witness["k"] == 1
    # f^2_1 = (3 + 2) - 1*2 = 3 against tail bound 11/6
    assert report.witness["value"] == 3
    assert report.witness["bound"] == rat(11, 6)


def harmonic_tail(k, n):
    """1 + sum_{j=k+1}^n 1/j, summed term by term."""
    return 1 + sum((rat(1, j) for j in range(k + 1, n + 1)), rat(0))


def test_tail_bounds_match_harmonic_tail():
    assert [harmonic_tail(1, 3), harmonic_tail(2, 4), harmonic_tail(5, 5)] == [
        rat(11, 6), rat(19, 12), 1
    ]
    for n in range(1, 13):
        for last in (0, n // 2, n):
            bounds = _tail_bounds(n, last)
            assert bounds == [None] + [k * harmonic_tail(k, n) for k in range(1, last + 1)]


def test_truncated_tail_preconditions():
    plain = play(4, 1, 10, emptier=None)
    with pytest.raises(PreconditionError):
        check_truncated_invariant(plain)  # no truncation cap
    smoothed = run_game(
        GameConfig(n=4, p=1, steps=5, emptier="smoothed-greedy", truncation=2)
    )
    with pytest.raises(PreconditionError):
        check_truncated_invariant(smoothed)


# ---------------------------------------------------------------------------
# cup reset


def test_cup_reset_passes_for_both_greedy_family_emptiers():
    for emptier in ("greedy", "smoothed-greedy"):
        config = GameConfig(
            n=6, p=2, steps=200, seed=11, filler="random:1/2", emptier=emptier
        )
        assert check_cup_reset(run_game(config)).passed


def test_cup_reset_flags_forged_jump():
    trace = forge(
        2,
        1,
        "greedy",
        [({1: rat(1)}, (), (rat(2), rat(0)))],
    )
    report = check_cup_reset(trace)
    assert not report.passed
    assert report.witness == {
        "t": 1,
        "rank": 1,
        "fill": 2,
        "previous_fill": 0,
        "rank_fill_p_plus_1": 0,
    }


def test_cup_reset_rejects_other_emptiers():
    config = GameConfig(n=4, p=2, steps=5, emptier="threshold-blind")
    with pytest.raises(PreconditionError):
        check_cup_reset(run_game(config))


# ---------------------------------------------------------------------------
# record-setting steps and constraints


def test_record_setting_steps_match_direct_scan():
    config = GameConfig(
        n=6, p=2, steps=120, seed=7, filler="random:3/5", emptier="greedy"
    )
    trace = run_game(config)
    series = [state.prefix_stats(config.p)[1] for state in trace.states()]
    expected = [
        t
        for t in range(1, len(series))
        if all(series[t] > series[s] for s in range(1, t))
    ]
    assert trace.record_setting_steps() == expected


def test_first_step_is_always_a_record():
    trace = play(3, 1, 4, filler=ScriptFiller([{1: rat(1)}] * 4))
    assert trace.record_setting_steps()[0] == 1


def test_record_gap_passes_on_real_game():
    config = GameConfig(
        n=8, p=3, steps=250, seed=19, filler="random:7/10", emptier="greedy"
    )
    report = check_record_constraints(run_game(config))
    assert report.passed


def test_record_gap_flags_forged_spike():
    trace = forge(
        2,
        1,
        "greedy",
        [({1: rat(1)}, (), (rat(3), rat(0)))],
    )
    report = check_record_constraints(trace)
    assert not report.passed
    assert report.witness["t"] == 1
    # rank 2 averages 0 against the required rank-1 fill minus one
    assert report.witness["i"] == 1
    assert report.witness["rank_fill"] == 3


def test_record_gap_needs_spare_cup():
    trace = play(2, 2, 5, emptier=None)
    with pytest.raises(PreconditionError):
        check_record_constraints(trace)


# ---------------------------------------------------------------------------
# single-processor average bound


def test_single_av_passes_on_harmonic_attack():
    config = GameConfig(n=8, p=1, steps=300, filler="harmonic", emptier="greedy")
    assert check_av_invariant_single(run_game(config)).passed


def test_single_av_flags_forged_overfull_state():
    trace = forge(
        2,
        1,
        "greedy",
        [
            (
                {1: rat(1)},
                (),
                (rat(3, 2), rat(3, 2)),
            )
        ],
    )
    report = check_av_invariant_single(trace)
    assert not report.passed
    # k=1 squeaks by (3/2 <= 3/2); k=2 breaks (3/2 > 1)
    assert report.witness["k"] == 2
    assert report.witness["average"] == rat(3, 2)
    assert report.witness["bound"] == 1


def test_single_av_needs_one_processor():
    trace = play(4, 2, 5, emptier=None)
    with pytest.raises(PreconditionError):
        check_av_invariant_single(trace)


# ---------------------------------------------------------------------------
# level conservation


def smoothed_run(n=8, p=2, steps=200, seed=23, filler="random:1/2"):
    config = GameConfig(
        n=n, p=p, steps=steps, seed=seed, filler=filler, emptier="smoothed-greedy"
    )
    return run_game(config)


def test_level_conservation_passes_on_real_game():
    trace = smoothed_run()
    for level in range(1, max_level(trace) + 1):
        assert check_level_conservation(trace, level).passed


def test_level_conservation_flags_forged_jump():
    trace = forge(
        1,
        1,
        "smoothed-greedy",
        [({1: rat(1, 2)}, (), (rat(5),))],
    )
    report = check_level_conservation(trace, 1)
    assert not report.passed
    assert report.witness["t"] == 1
    assert report.witness["integer_fill"] == 4
    assert report.witness["expected"] == 0


def test_level_conservation_guard():
    trace = play(4, 1, 10, emptier=None)
    with pytest.raises(PreconditionError):
        check_level_conservation(trace, 1)


# ---------------------------------------------------------------------------
# filler progress


def idle_pileup(steps=20):
    """Forged trace: one cup filled a unit per step, emptier asleep."""
    rows = []
    fill = rat(0)
    for _ in range(steps):
        fill += 1
        rows.append(({1: rat(1)}, (), (fill, rat(0))))
    return forge(2, 1, "smoothed-greedy", rows)


def test_filler_progress_passes_on_real_game():
    trace = smoothed_run(seed=29)
    for level in range(1, max_level(trace) + 1):
        assert check_filler_progress(trace, level).passed


def test_filler_progress_flags_idle_emptier():
    report = check_filler_progress(idle_pileup(), 1)
    assert not report.passed
    # T(t) = t-1 while crossings lag at one per step: first breach at t1 = 6
    assert report.witness == {
        "t0": 2,
        "t1": 6,
        "crossings": 5,
        "required": 6,
        "integer_fill": 5,
    }


def test_filler_progress_guard():
    rows = [({1: rat(1)}, (), (rat(1), rat(0)))]
    trace = forge(2, 1, "greedy", rows)
    with pytest.raises(PreconditionError):
        check_filler_progress(trace, 1)


# ---------------------------------------------------------------------------
# working set


def test_working_set_passes_on_real_game():
    trace = smoothed_run(seed=31)
    for level in range(1, max_level(trace) + 1):
        assert check_working_set(trace, level, window=64).passed


def test_working_set_flags_wide_crossing_set():
    # four cups sprint from empty past the level-2 gate inside one window:
    # any set that crosses must have been active (within factor 2) beforehand
    rows = []
    fills = [rat(0)] * 4
    for _ in range(4):
        fills = [fill + 1 for fill in fills]
        move = {cup: rat(1) for cup in range(1, 5)}
        rows.append((move, (), tuple(fills)))
    trace = forge(4, 1, "smoothed-greedy", rows)
    report = check_working_set(trace, 2, window=8)
    assert not report.passed
    assert report.witness["t0"] == 1
    assert report.witness["t1"] == 4
    assert report.witness["set_size"] == 4
    assert report.witness["active_before"] == 0
    assert report.witness["cups"] == [1, 2, 3, 4]


def test_working_set_flags_cheap_recrossings():
    # partial removals let one cup recross s=2 without matching deposits;
    # the water clause catches the shortfall
    rows = []
    for _ in range(5):
        rows.append(
            (
                {1: rat(1, 5)},
                ((1, rat(1, 5)),),
                (rat(19, 10), rat(0)),
            )
        )
    trace = forge(2, 1, "smoothed-greedy", rows, initial=(rat(19, 10), 0))
    report = check_working_set(trace, 1, window=8)
    assert not report.passed
    assert report.witness["t0"] == 1
    assert report.witness["t1"] == 2
    assert report.witness["deposits"] == rat(2, 5)
    assert report.witness["required"] == 1
    assert report.witness["cups"] == [1]


def test_working_set_window_validation():
    trace = smoothed_run(n=4, p=1, steps=10)
    with pytest.raises(ValueError):
        check_working_set(trace, 1, window=0)


# ---------------------------------------------------------------------------
# fractional preservation


def test_fractional_passes_on_real_game():
    assert check_fractional_preservation(smoothed_run(seed=37)).passed


def test_fractional_flags_forged_residue_shift():
    trace = forge(
        1,
        1,
        "smoothed-greedy",
        [({}, (), (rat(1, 2),))],
        initial=(rat(1, 3),),
    )
    report = check_fractional_preservation(trace)
    assert not report.passed
    assert report.witness == {"t": 1, "cup": 1, "residue": rat(1, 6)}


# ---------------------------------------------------------------------------
# level-stack coupling and diagnostics


def test_integer_fill_dominates_next_level_activity():
    trace = smoothed_run(seed=43, steps=150)
    for level in range(1, max_level(trace)):
        lower = level_series(trace, level)
        upper = level_series(trace, level + 1)
        for t in range(trace.steps_executed + 1):
            assert lower.integer_fill[t] >= upper.active[t]


def test_empirical_m_matches_series_max():
    trace = smoothed_run(seed=47, steps=80)
    p = trace.config.p
    assert trace.empirical_M() == max(state.prefix_stats(p)[1] for state in trace.states())


# ---------------------------------------------------------------------------
# offset crossing Monte Carlo


def test_crossing_probability_zero_deposit_never_crosses():
    assert crossing_probability_experiment([rat(1, 2), rat(0)], 100) == 0


def test_crossing_probability_unit_deposit_always_crosses():
    assert crossing_probability_experiment([rat(1)], 100) == 1


def test_crossing_probability_tracks_fraction_loosely():
    # K = 400 smoke: 6 sigma around 1/2 is ~0.15 either side
    freq = crossing_probability_experiment([rat(1, 2)], 400)
    assert rat(35, 100) < freq < rat(65, 100)


def test_crossing_probability_rejects_small_samples():
    with pytest.raises(ValueError):
        crossing_probability_experiment([rat(1, 2)], 99)
    with pytest.raises(ValueError):
        crossing_probability_experiment([], 100)
    with pytest.raises(ValueError):
        crossing_probability_experiment([rat(3, 2)], 100)


def test_crossing_probability_plays_its_script_obliviously(monkeypatch):
    views = []
    next_move = ObliviousFiller.next_move

    def spy(self, t, view):
        views.append(view)
        return next_move(self, t, view)

    monkeypatch.setattr(ObliviousFiller, "next_move", spy)
    crossing_probability_experiment([rat(1, 3), rat(1, 2)], 100)
    assert views == [None] * 200


# ---------------------------------------------------------------------------
# suite driver


def test_applicable_checkers_by_config():
    truncated = truncated_run()
    assert applicable_checkers(truncated) == [
        "truncated-tail",
        "cup-reset",
        "record-gap",
    ]
    single = play(4, 1, 5, emptier=None)
    assert applicable_checkers(single) == ["cup-reset", "record-gap", "single-av"]
    smoothed = smoothed_run(n=4, p=1, steps=5)
    assert applicable_checkers(smoothed) == [
        "cup-reset",
        "level-conservation",
        "level-progress",
        "working-set",
        "fractional",
    ]
    blind = run_game(GameConfig(n=4, p=2, steps=5, emptier="threshold-blind"))
    assert applicable_checkers(blind) == []


def test_applicable_checkers_are_exactly_the_runnable_ones():
    # one declaration per checker: whatever applicable_checkers lists must run,
    # and whatever it leaves out must refuse the trace
    for emptier in ("greedy", "smoothed-greedy", "threshold-blind"):
        for truncation in (None, 2):
            for n, p in ((1, 1), (2, 1), (3, 2), (2, 2)):
                for initial in (None, (rat(1, 2),) + (0,) * (n - 1)):
                    trace = forge(
                        n, p, emptier, [], initial=initial, truncation=truncation
                    )
                    runnable = []
                    for name in CHECKERS:
                        try:
                            run_checkers(trace, [name])
                        except PreconditionError:
                            continue
                        runnable.append(name)
                    assert applicable_checkers(trace) == runnable, trace.config


def test_run_checkers_default_all_green():
    reports = run_checkers(smoothed_run(seed=41, steps=120), window=64)
    assert [report.check for report in reports] == applicable_checkers(
        smoothed_run(n=8, p=2, steps=1, seed=41)
    )
    assert all(report.passed for report in reports)


def test_run_checkers_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_checkers(play(2, 1, 2, emptier=None), names=["no-such-check"])


def test_run_checkers_propagates_precondition():
    trace = play(4, 2, 5, emptier=None)
    with pytest.raises(PreconditionError):
        run_checkers(trace, names=["single-av"])


def test_run_checkers_default_refuses_a_trace_no_lemma_covers():
    # all applicable checkers of a threshold-blind trace is none: no vacuous PASS
    blind = run_game(GameConfig(n=4, p=2, steps=5, emptier="threshold-blind"))
    with pytest.raises(PreconditionError, match="'threshold-blind'"):
        run_checkers(blind)
    assert run_checkers(blind, []) == []


def test_every_checker_name_is_runnable():
    assert set(CHECKERS) == {
        "truncated-tail",
        "cup-reset",
        "record-gap",
        "single-av",
        "level-conservation",
        "level-progress",
        "working-set",
        "fractional",
    }


def test_reports_serialize_rationals_as_text():
    report = check_fractional_preservation(
        forge(
            1,
            1,
            "smoothed-greedy",
            [({}, (), (rat(1, 2),))],
            initial=(rat(1, 3),),
        )
    )
    blob = report.to_jsonable()
    assert blob["witness"]["residue"] == "1/6"
    assert blob["passed"] is False
    ok = InvariantReport("x", True, {"bound": rat(7, 2)})
    assert ok.to_jsonable() == {
        "check": "x",
        "passed": True,
        "params": {"bound": "7/2"},
        "witness": None,
    }


def test_levelled_suite_reports_include_level_of_failure():
    rows = []
    fills = [rat(0)] * 4
    for _ in range(4):
        fills = [fill + 1 for fill in fills]
        move = {cup: rat(1) for cup in range(1, 5)}
        rows.append((move, (), tuple(fills)))
    trace = forge(4, 1, "smoothed-greedy", rows)
    reports = run_checkers(trace, names=["working-set"], window=8)
    assert not reports[0].passed
    assert reports[0].witness["level"] == 2
