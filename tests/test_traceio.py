"""Round-trip and byte-determinism coverage for trace serialization."""

from __future__ import annotations

import json
import re
import tempfile
from dataclasses import MISSING, fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cupgame.cli import main
from cupgame.emptiers import GreedyEmptier
from cupgame.engine import ConfigError, EmptyMove, GameConfig, run_game
from cupgame.rational import rat
from cupgame.traceio import (
    config_dict,
    load_config_file,
    read_trace,
    summarize,
    write_trace,
)

from conftest import ScriptFiller, forge
from test_engine_parity import BAD_KINDS, bad_moves


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


# every GameConfig field away from its default, so that a field which the INI
# table, run's flags or config_dict leave out fails test_config_file_full
EVERY_FIELD = GameConfig(
    n=16, p=4, steps=20, seed=7, filler="anchor-swap", emptier="smoothed-greedy",
    truncation=rat(7, 2), visibility="oblivious",
)


def test_config_file_full(tmp_path):
    assert all(
        getattr(EVERY_FIELD, field.name) != field.default
        for field in fields(GameConfig) if field.default is not MISSING
    )
    path = tmp_path / "run.ini"
    path.write_text(
        "[game]\n"
        "n = 16\n"
        "p = 4\n"
        "steps = 20\n"
        "seed = 7\n"
        "truncate = 7/2\n"
        "visibility = oblivious\n"
        "[strategies]\n"
        "filler = anchor-swap\n"
        "emptier = smoothed-greedy\n"
    )
    assert load_config_file(path) == EVERY_FIELD
    # run's flags alone
    out = tmp_path / "out"
    flags = ["--n", "16", "--p", "4", "--steps", "20", "--seed", "7", "--filler", "anchor-swap",
             "--emptier", "smoothed-greedy", "--truncate", "7/2", "--visibility", "oblivious"]
    assert main(["run", *flags, "--out", str(out)]) == 0
    assert GameConfig(**json.loads((out / "summary.json").read_text())["config"]) == EVERY_FIELD
    assert list(config_dict(EVERY_FIELD)) == [field.name for field in fields(GameConfig)]
    assert GameConfig(**config_dict(EVERY_FIELD)) == EVERY_FIELD


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
        "[DEFAULT]\n[game]\nn = 4\np = 1\nsteps = 10\n",  # an empty [DEFAULT] too
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


def _edit_cells(tmp_path, line: int, edits: dict):
    """Write sample_trace() with {cup: text} edits of one file line; "{}" in a
    text stands for the cell it replaces."""
    write_trace(sample_trace(), tmp_path)
    path = tmp_path / "trace.csv"
    lines = path.read_text().splitlines()
    row = lines[line - 1].split(",")
    for cup, text in edits.items():
        row[3 + cup] = text.format(row[3 + cup])
    lines[line - 1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "line, edit",
    [(5, '"{}"'), (6, "{}\r"), (2, "\r{}")],
    ids=["quoted-inter-cell", "cr-mid-post-row", "cr-in-t0-row"],
)
def test_read_rejects_a_quote_or_a_carriage_return_within_a_line(tmp_path, line, edit):
    # a csv reader would take either as quoting or a line break; the writer writes neither
    _edit_cells(tmp_path, line, {2: edit})
    with pytest.raises(
        ValueError,
        match=rf"trace\.csv: line {line}: a quote or a carriage return within the line; "
        "trace.csv is not quoted$",
    ):
        read_trace(tmp_path)


def test_read_loads_a_crlf_copy_to_the_same_records(tmp_path):
    trace = sample_trace()
    write_trace(trace, tmp_path)
    path = tmp_path / "trace.csv"
    data = path.read_bytes()
    path.write_bytes(data.replace(b"\n", b"\r\n"))
    back = read_trace(tmp_path)
    assert back.initial == trace.initial and back.records == trace.records
    path.write_bytes(data.rstrip(b"\n"))  # no line end after the last row
    assert read_trace(tmp_path).records == trace.records


@pytest.mark.parametrize("line", [4, 5, 6], ids=["step-1-post", "step-2-inter", "step-2-post"])
def test_read_names_a_malformed_cell_after_a_negative_one(tmp_path, line):
    # cup order decides within a kind, but a malformed cell fails before a negative one
    _edit_cells(tmp_path, line, {1: "-1/2", 2: "-3/4", 4: "1/x", 5: "y"})
    with pytest.raises(ValueError, match=rf"^step {(line - 1) // 2}: malformed rational: '1/x'$"):
        read_trace(tmp_path)
    _edit_cells(tmp_path, line, {1: "-1/2", 2: "-3/4"})
    with pytest.raises(ValueError, match=rf"^step {(line - 1) // 2}: cup 1 has negative fill -1/2$"):
        read_trace(tmp_path)


def test_read_checks_a_selection_that_is_not_the_writers_text(tmp_path):
    trace = sample_trace()
    write_trace(trace, tmp_path)
    path = tmp_path / "trace.csv"
    lines = path.read_text().splitlines()
    at = next(at for at in range(3, len(lines), 2) if len(lines[at].split(",")[2].split()) == 2)
    row = lines[at].split(",")
    first, second = row[2].split()
    for selected, error in [(f"{second} {first}", None),
                            (f"{first} {first}", r"duplicate cup ids in empty move")]:
        row[2] = selected
        lines[at] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        if error is None:  # unsorted ids are the same selection
            assert read_trace(tmp_path).records == trace.records
        else:
            with pytest.raises(ValueError, match=rf"^step {row[0]}: {error}"):
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


# ---------------------------------------------------------------------------
# one step rule: an illegal step fails to load as the violation run records

# greedy at p = 2 drains cups 2 and 3 and leaves cup 1 its 1/3, so a
# negative deposit into cup 1 leaves a fill a trace can hold
PRELUDE = {1: rat(1, 3), 2: rat(1, 2), 3: rat(1, 2)}


class SelectsAt(GreedyEmptier):
    """Greedy, but selects the given cups at step `at`."""

    def __init__(self, cups, at):
        self.cups, self.at, self.t = cups, at, 0

    def select(self, state, p):
        self.t += 1
        return EmptyMove(self.cups) if self.t == self.at else super().select(state, p)


def illegal_games():
    """(id, moves, emptier, truncation, source) of n=4 p=2 games whose last step is
    illegal.  A trace has no column for cup n+1, so the "cup" kind is a
    selection of cup n+1 there: the one out-of-range id a trace can hold."""
    for kind in BAD_KINDS:
        if kind == "cup":
            yield kind, [PRELUDE, PRELUDE], lambda: SelectsAt((1, 5), 2), None, "emptier"
        else:
            truncation = "5/4" if kind == "truncation" else None
            moves = [PRELUDE] + bad_moves(kind, 4, 2)
            yield kind, moves, GreedyEmptier, truncation, "filler"
    over = {1: rat(4, 3), 2: rat(4, 3)}  # two deposits over 1, total over p
    yield "three-reasons", [PRELUDE, over], GreedyEmptier, None, "filler"
    yield "p+1-cups", [PRELUDE, PRELUDE], lambda: SelectsAt((1, 2, 3), 2), None, "emptier"


def with_illegal_step(trace, move, selection):
    """forge's copy of trace's steps, then one step playing move and selection."""
    steps = [
        (dict(r.fill.amounts), [(cup, None) for cup in r.drained], r.post.fills)
        for r in trace.records
    ]
    inter = list(trace.states()[-1].fills)
    for cup, amount in move.amounts:
        inter[cup - 1] += amount
    post = list(inter)
    for cup in selection:
        if cup <= len(post):
            post[cup - 1] -= min(1, post[cup - 1])
    steps.append((dict(move.amounts), [(cup, None) for cup in selection], post))
    config = trace.config
    return forge(config.n, config.p, config.emptier, steps, initial=trace.initial.fills,
                 truncation=config.truncation)


@pytest.mark.parametrize("game", list(illegal_games()), ids=lambda game: game[0])
def test_read_fails_an_illegal_step_as_run_records_its_violation(tmp_path, game):
    _, moves, make_emptier, truncation, source = game
    config = GameConfig(n=4, p=2, steps=len(moves), truncation=truncation)
    emptier = make_emptier()
    trace = run_game(config, filler=ScriptFiller(moves), emptier=emptier)
    violation = trace.violation
    assert violation is not None and violation.source == source
    assert violation.step == len(moves)
    move = ScriptFiller(moves).moves[-1]
    selection = emptier.cups if source == "emptier" else ()
    write_trace(with_illegal_step(trace, move, selection), tmp_path)
    with pytest.raises(ValueError) as caught:
        read_trace(tmp_path)
    reasons = "; ".join(violation.reasons)
    assert str(caught.value) == f"step {violation.step}: illegal {source} move: {reasons}"
