"""Sweep/lowerbound/frequency driver coverage and the SVG emitter."""

from __future__ import annotations

import math

import pytest

from cupgame.engine import GameConfig, run_game
from cupgame.experiments import (
    LowerBoundResult,
    SweepRow,
    backlog_frequency_experiment,
    fit_log_slope,
    lower_bound_threshold,
    run_lower_bound,
    run_sweep,
    write_sweep_csv,
)
from cupgame.rational import rat
from cupgame.svg import HEIGHT, MARGIN, backlog_svg


def test_lower_bound_threshold_values():
    assert lower_bound_threshold(4, 1) == rat(13, 12)
    assert lower_bound_threshold(8, 4) == rat(77, 60)
    assert lower_bound_threshold(2, 1) == rat(1, 2)
    with pytest.raises(ValueError):
        lower_bound_threshold(4, 4)


def test_run_lower_bound_reaches_threshold_quickly():
    result = run_lower_bound(4, 1)
    assert result.reached
    assert result.threshold == rat(13, 12)
    assert result.steps_to_threshold is not None
    assert result.steps_to_threshold <= result.budget == 20 * 4 * 3
    assert result.max_backlog >= result.threshold
    blob = result.to_jsonable()
    assert blob["threshold"]["exact"] == "13/12"
    assert blob["reached"] is True


def test_run_lower_bound_tiny_game():
    result = run_lower_bound(2, 1)
    assert result.reached
    assert result.threshold == rat(1, 2)


def test_sweep_rows_sorted_and_deterministic():
    kwargs = dict(steps=25, filler="random:1/2", emptier="greedy")
    rows = run_sweep([8, 4], [2, 1], [1, 0], **kwargs)
    assert [(r.n, r.p, r.seed) for r in rows] == [
        (4, 1, 0), (4, 1, 1), (4, 2, 0), (4, 2, 1),
        (8, 1, 0), (8, 1, 1), (8, 2, 0), (8, 2, 1),
    ]
    again = run_sweep([4, 8], [1, 2], [0, 1], **kwargs)
    assert rows == again


def test_sweep_zero_filler_flat():
    rows = run_sweep([4, 8], [1], [0], steps=10, filler="zero", emptier="greedy")
    assert all(row.max_backlog == 0 for row in rows)


def test_fit_log_slope_recovers_exact_line():
    rows = [
        SweepRow(n=n, p=1, seed=0, steps=1, max_backlog=rat(2) * round(math.log(n) * 10**6) / 10**6)
        for n in (8, 16, 32, 64)
    ]
    # y = 2 ln n up to the rational rounding above
    assert abs(fit_log_slope(rows) - 2.0) < 1e-4


def test_fit_log_slope_needs_two_n():
    rows = [SweepRow(n=8, p=1, seed=s, steps=1, max_backlog=rat(1)) for s in range(3)]
    with pytest.raises(ValueError):
        fit_log_slope(rows)


def test_write_sweep_csv(tmp_path):
    rows = [SweepRow(n=4, p=1, seed=0, steps=9, max_backlog=rat(3, 2))]
    path = write_sweep_csv(rows, tmp_path / "sweep.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "n,p,seed,steps,max_backlog,max_backlog_dec"
    assert lines[1] == "4,1,0,9,3/2,1.5"


def test_backlog_frequency_zero_threshold_certain():
    config = GameConfig(
        n=6, p=2, steps=20, filler="anchor-swap", emptier="smoothed-greedy"
    )
    stats = backlog_frequency_experiment(config, 100, rat(0))
    assert stats["frequency"] == 1
    assert stats["hits"] == 100
    assert stats["best_backlog"] > 0


def test_backlog_frequency_rejects_small_samples():
    config = GameConfig(n=4, p=1, steps=5, filler="zero", emptier="greedy")
    with pytest.raises(ValueError):
        backlog_frequency_experiment(config, 99, rat(0))


def test_backlog_frequency_accepts_float_threshold():
    config = GameConfig(n=4, p=1, steps=10, filler="zero", emptier="greedy")
    stats = backlog_frequency_experiment(config, 100, 0.5)
    assert stats["frequency"] == 0  # zero filler never builds backlog


# ---------------------------------------------------------------------------
# SVG


def plot_trace():
    config = GameConfig(
        n=6, p=1, steps=30, seed=2, filler="random:1/2", emptier="greedy"
    )
    return run_game(config)


def test_svg_has_one_vertex_per_state():
    trace = plot_trace()
    art = backlog_svg(trace)
    points = art.split('points="')[1].split('"')[0].split()
    assert len(points) == trace.steps_executed + 1
    for pair in points:
        x, y = (int(part) for part in pair.split(","))
        assert MARGIN <= x <= 800 - MARGIN
        assert MARGIN <= y <= HEIGHT - MARGIN


def test_svg_embeds_exact_series():
    trace = plot_trace()
    art = backlog_svg(trace)
    desc = art.split("<desc>")[1].split("</desc>")[0]
    from cupgame.rational import format_rat

    series = " ".join(format_rat(state.backlog()) for state in trace.states())
    assert desc == f"t=0..{trace.steps_executed} backlog {series}"


def test_svg_deterministic():
    assert backlog_svg(plot_trace()) == backlog_svg(plot_trace())
