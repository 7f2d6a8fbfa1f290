"""Round-trip and byte-determinism coverage for trace serialization."""

from __future__ import annotations

import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cupgame.engine import ConfigError, GameConfig, run_game
from cupgame.rational import rat
from cupgame.traceio import (
    load_config_file,
    read_trace,
    summarize,
    write_trace,
)

from conftest import ScriptFiller


def sample_trace(seed=5, emptier="smoothed-greedy"):
    config = GameConfig(
        n=5, p=2, steps=40, seed=seed, filler="random:1/2", emptier=emptier
    )
    return run_game(config)


def test_csv_layout(tmp_path):
    trace = sample_trace()
    trace_path, summary_path = write_trace(trace, tmp_path)
    lines = trace_path.read_text().splitlines()
    assert lines[0] == "t,stage,selected,skip,cup_1,cup_2,cup_3,cup_4,cup_5,backlog,av_p"
    assert len(lines) == 1 + 1 + 2 * trace.steps_executed
    first = lines[1].split(",")
    assert first[:4] == ["0", "post", "", ""]
    assert all("/" in cell for cell in first[4:9])  # exact rationals, never floats
    inter, post = lines[2].split(","), lines[3].split(",")
    assert inter[:2] == ["1", "inter"]
    assert post[:2] == ["1", "post"]
    assert post[3] in {"0", "1"}


def test_round_trip_rebuilds_identical_records(tmp_path):
    trace = sample_trace()
    write_trace(trace, tmp_path)
    back = read_trace(tmp_path)
    assert back.config == trace.config
    assert back.initial == trace.initial
    assert back.records == trace.records
    assert back.violation is None


def test_round_trip_preserves_violation(tmp_path):
    class Rogue:
        needs_adaptive = False

        def next_move(self, t, view):
            from cupgame.engine import FillMove

            return FillMove({1: rat(2)} if t == 3 else {1: rat(1, 2)})

    config = GameConfig(n=3, p=1, steps=10, filler="zero")
    trace = run_game(config, filler=Rogue())
    assert trace.violation is not None
    write_trace(trace, tmp_path)
    back = read_trace(tmp_path)
    assert back.violation == trace.violation
    assert back.steps_executed == trace.steps_executed == 2


def test_write_is_byte_deterministic(tmp_path):
    one, two = tmp_path / "a", tmp_path / "b"
    write_trace(sample_trace(), one)
    write_trace(sample_trace(), two)
    assert (one / "trace.csv").read_bytes() == (two / "trace.csv").read_bytes()
    assert (one / "summary.json").read_bytes() == (two / "summary.json").read_bytes()


def test_summary_fields(tmp_path):
    trace = sample_trace(emptier="greedy")
    summary = summarize(trace)
    assert summary["config"]["emptier"] == "greedy"
    assert summary["config"]["truncation"] is None
    assert summary["steps_executed"] == 40
    exact = summary["max_backlog"]["exact"]
    assert "/" in exact
    assert summary["violation"] is None
    write_trace(trace, tmp_path)
    parsed = json.loads((tmp_path / "summary.json").read_text())
    assert parsed == json.loads(json.dumps(summary))


def test_read_rejects_corrupt_layout(tmp_path):
    trace = sample_trace()
    write_trace(trace, tmp_path)
    path = tmp_path / "trace.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:3]) + "\n")  # drop a post row
    with pytest.raises(ValueError):
        read_trace(tmp_path)


def test_read_rejects_header_mismatch(tmp_path):
    write_trace(sample_trace(), tmp_path)
    path = tmp_path / "trace.csv"
    body = path.read_text().splitlines()
    body[0] = body[0].replace("cup_5", "cup_9")
    path.write_text("\n".join(body) + "\n")
    read_trace(tmp_path)  # names beyond the fixed prefix are not load-bearing
    body[0] = "t,stage," + body[0].split(",", 4)[4]  # selected/skip gone
    path.write_text("\n".join(body) + "\n")
    with pytest.raises(ValueError):
        read_trace(tmp_path)


def test_config_file_full(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[game]\n"
        "n = 16\n"
        "p = 4\n"
        "steps = 200\n"
        "seed = 9\n"
        "truncate = 7/2\n"
        "visibility = oblivious\n"
        "[strategies]\n"
        "filler = growth\n"
        "emptier = smoothed-greedy\n"
    )
    config = load_config_file(path)
    assert (config.n, config.p, config.steps, config.seed) == (16, 4, 200, 9)
    assert config.truncation == rat(7, 2)
    assert config.visibility == "oblivious"
    assert config.filler == "growth"
    assert config.emptier == "smoothed-greedy"


def test_config_file_minimal_defaults(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[game]\nn = 4\np = 1\nsteps = 10\n")
    config = load_config_file(path)
    assert config.seed == 0
    assert config.truncation is None
    assert config.filler == "zero"
    assert config.emptier == "greedy"


@pytest.mark.parametrize(
    "body",
    [
        "[game]\nn = 4\np = 1\n",  # missing steps
        "[game]\nn = 4\np = 1\nsteps = 10\nbogus = 1\n",
        "[game]\nn = 4\np = 1\nsteps = 10\n[strategies]\nemptier = greedy\nx = 1\n",
        "[game]\nn = 4\np = 1\nsteps = 10\n[extra]\na = 1\n",
        "[game]\nn = four\np = 1\nsteps = 10\n",
        "[game]\nn = 4\np = 1\nsteps = 10\ntruncate = 1.5\n",
        "[strategies]\nfiller = zero\n",
    ],
)
def test_config_file_rejections(tmp_path, body):
    path = tmp_path / "run.ini"
    path.write_text(body)
    with pytest.raises(ConfigError):
        load_config_file(path)


def test_config_file_missing(tmp_path):
    with pytest.raises(ConfigError):
        load_config_file(tmp_path / "absent.ini")


def test_read_rejects_post_row_the_selection_does_not_produce(tmp_path):
    write_trace(sample_trace(emptier="greedy"), tmp_path)
    path = tmp_path / "trace.csv"
    lines = path.read_text().splitlines()
    # the first step that drained water: claim its post row kept everything
    at = next(
        i for i in range(2, len(lines), 2)
        if lines[i].split(",")[4:9] != lines[i + 1].split(",")[4:9]
    )
    inter, post = lines[at].split(","), lines[at + 1].split(",")
    lines[at + 1] = ",".join(post[:4] + inter[4:])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"step {inter[0]}: post row"):
        read_trace(tmp_path)


@pytest.mark.parametrize("t", ["7", "x"])
def test_read_rejects_renumbered_step(tmp_path, t):
    write_trace(sample_trace(), tmp_path)
    path = tmp_path / "trace.csv"
    lines = path.read_text().splitlines()
    for at in (4, 5):  # step 2's inter and post rows, file lines 5 and 6
        lines[at] = t + lines[at][1:]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"trace\.csv: line 5: malformed step 2"):
        read_trace(tmp_path)


def test_read_rejects_short_row(tmp_path):
    write_trace(sample_trace(), tmp_path)
    path = tmp_path / "trace.csv"
    lines = path.read_text().splitlines()
    lines[1] = ",".join(lines[1].split(",")[:6])  # t=0 row keeps 2 of 5 cups
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"trace\.csv: line 2: 6 cells, not 11"):
        read_trace(tmp_path)


@pytest.mark.parametrize(
    "edit",
    [
        lambda text: text.replace('"config"', "config", 1),  # not JSON
        lambda text: text.replace('"n": 5', '"n": 0', 1),  # not a config
        lambda text: text.replace('"truncation": null', '"truncation": 2.5'),
    ],
    ids=["not-json", "n-zero", "float-truncation"],
)
def test_read_names_the_bad_summary(tmp_path, edit):
    write_trace(sample_trace(), tmp_path)
    path = tmp_path / "summary.json"
    path.write_text(edit(path.read_text()))
    with pytest.raises(ValueError, match=r"summary\.json"):
        read_trace(tmp_path)


@pytest.mark.parametrize(
    "cell, message",
    [("x", "malformed rational: 'x'"), ("-1/2", "cup 1 has negative fill -1/2")],
    ids=["not-rational", "negative"],
)
def test_read_locates_a_bad_first_row(tmp_path, cell, message):
    write_trace(sample_trace(), tmp_path)
    path = tmp_path / "trace.csv"
    lines = path.read_text().splitlines()
    row = lines[1].split(",")
    row[4] = cell  # cup 1 of the t=0 row, file line 2
    lines[1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"trace\.csv: line 2: {message}"):
        read_trace(tmp_path)


def test_read_rejects_a_trace_cut_at_a_step_boundary(tmp_path):
    config = GameConfig(n=6, p=2, steps=50, seed=3, filler="random:1/2", emptier="greedy")
    write_trace(run_game(config), tmp_path)
    path = tmp_path / "trace.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[: 2 + 2 * 10]) + "\n")  # header, t=0, steps 1..10
    with pytest.raises(
        ValueError, match=r"summary\.json: steps_executed is 50, but the replay of .*trace\.csv gives 10$"
    ):
        read_trace(tmp_path)


def test_read_rejects_a_max_backlog_the_replay_does_not_reach(tmp_path):
    trace = sample_trace()
    write_trace(trace, tmp_path)
    path = tmp_path / "summary.json"
    summary = json.loads(path.read_text())
    summary["max_backlog"]["exact"] = "99/1"
    path.write_text(json.dumps(summary))
    with pytest.raises(
        ValueError,
        match=r'summary\.json: max_backlog is \{"decimal": "[0-9.]+", "exact": "99/1"\}, but',
    ):
        read_trace(tmp_path)


@pytest.mark.parametrize(
    "key, forge",
    [
        ("empirical_M", lambda entry: {"decimal": "99", "exact": "99/1"}),
        ("record_setting_steps", lambda entry: [7]),
        ("final_backlog", lambda entry: {"decimal": "123", "exact": "5/1"}),
        ("max_backlog", lambda entry: dict(entry, decimal="777")),  # exact kept
    ],
    ids=["empirical-M", "record-setting-steps", "final-backlog", "max-backlog-decimal"],
)
def test_read_rejects_a_summary_field_the_replay_does_not_give(tmp_path, key, forge):
    trace = sample_trace(emptier="greedy")
    write_trace(trace, tmp_path)
    path = tmp_path / "summary.json"
    summary = json.loads(path.read_text())
    forged = summary[key] = forge(summary[key])
    path.write_text(json.dumps(summary))
    replayed = json.dumps(summarize(trace)[key], sort_keys=True)
    with pytest.raises(
        ValueError,
        match=re.escape(f"summary.json: {key} is {json.dumps(forged, sort_keys=True)}, ")
        + r"but the replay of .*trace\.csv gives " + re.escape(replayed) + "$",
    ):
        read_trace(tmp_path)


def test_read_names_a_malformed_selection(tmp_path):
    write_trace(sample_trace(), tmp_path)
    path = tmp_path / "trace.csv"
    lines = path.read_text().splitlines()
    row = lines[3].split(",")  # step 1's post row, file line 4
    row[2] = "x"
    lines[3] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"trace\.csv: line 4: step 1: malformed selection 'x'$"):
        read_trace(tmp_path)


@pytest.mark.parametrize("stage", ["inter", "post"])
def test_read_accepts_cells_not_in_lowest_terms(tmp_path, stage):
    trace = sample_trace()
    write_trace(trace, tmp_path)
    path = tmp_path / "trace.csv"
    rows = [line.split(",") for line in path.read_text().splitlines()]
    # past the header and t=0, the first nonzero cup of a row of the stage
    row, cup = next(
        (row, at)
        for row in rows[2:]
        if row[1] == stage
        for at in range(4, 9)
        if not row[at].startswith("0/")
    )
    num, den = row[cup].split("/")
    row[cup] = f"{int(num) * 11}/{int(den) * 11}"  # no other cell has an 11
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    assert read_trace(tmp_path).records == trace.records


# deposits whose denominators (2, 3, 4, 6) need the carried den once a cup drains
SMALL_AMOUNTS = st.sampled_from([rat(a, b) for b in (2, 3, 4, 6) for a in range(1, b + 1)])


@st.composite
def games(draw):
    kind = draw(st.sampled_from(["greedy", "smoothed-greedy", "scripted"]))
    seed = draw(st.integers(0, 2**16))
    steps = draw(st.integers(0, 30))
    if kind != "scripted":
        n = draw(st.integers(1, 8))
        p = draw(st.integers(1, n))
        config = GameConfig(n=n, p=p, steps=steps, seed=seed, filler="random:1/2", emptier=kind)
        return run_game(config)
    # greedy drains the 1/6 of step 1 at once, so the next rows' own lcm is 1
    moves = [{1: rat(1, 6)}]
    for _ in range(steps):
        cup = draw(st.integers(1, 3))
        moves.append({cup: draw(SMALL_AMOUNTS)})
    config = GameConfig(n=3, p=1, steps=len(moves) + 2, emptier="greedy")
    return run_game(config, filler=ScriptFiller(moves))


@settings(max_examples=60, deadline=None)
@given(trace=games())
def test_round_trip_replays_every_record_and_rewrites_the_same_bytes(trace):
    with tempfile.TemporaryDirectory() as first, tempfile.TemporaryDirectory() as second:
        write_trace(trace, first)
        back = read_trace(first)
        assert back.config == trace.config
        assert back.initial == trace.initial
        assert back.records == trace.records  # states, moves, selections, drained cups
        write_trace(back, second)
        for name in ("trace.csv", "summary.json"):
            assert (Path(first) / name).read_bytes() == (Path(second) / name).read_bytes()
