"""Differential test: the delta trace codec against the full-row codec it replaced.

The oracle is the previous codec, kept here: `_row` formats every cup of
every row for csv.writer, with the `backlog`/`av_p` cells rendered from the
Fraction statistics by the `decimal`-context oracle of test_integer_stats.py,
and `_scaled_row` parses every cup of every row, carrying the denominator as
an lcm from row to row.  The delta codec
must write the same trace.csv bytes and parse the same (scaled, den) for
every row, while it formats only the cups whose ints changed (every cup of
the t=0 row and of a row whose den changed) and parses only the cells whose
text changed.  Malformed cells must fail with the oracle's message.
"""

from __future__ import annotations

import csv
import io
from math import gcd, lcm

import pytest

from cupgame import traceio
from cupgame.engine import GameConfig, run_game
from cupgame.rational import rat
from cupgame.traceio import read_trace, write_trace

from conftest import forge
from test_acceptance import FUZZ_CONFIGS, _forged_breaches
from test_integer_stats import oracle_to_decimal as to_decimal


# ---------------------------------------------------------------------------
# the oracle: the full-row writer and reader


def _row(t: int, stage: str, state, backlog, av, selected="", skip=""):
    den = state.den
    cells = [str(t), stage, selected, skip]
    # lowest terms straight from the ints: one gcd per cup, no rational
    for scaled in state.scaled:
        common = gcd(scaled, den)
        cells.append(f"{scaled // common}/{den // common}")
    cells.append(to_decimal(backlog))
    cells.append(to_decimal(av))
    return cells


def oracle_trace_csv(trace) -> bytes:
    n, p = trace.config.n, trace.config.p
    handle = io.StringIO(newline="")
    writer = csv.writer(handle, lineterminator="\n")
    header = ["t", "stage", "selected", "skip"]
    header.extend(f"cup_{cup}" for cup in range(1, n + 1))
    header.extend(["backlog", "av_p"])
    writer.writerow(header)
    initial = trace.initial
    writer.writerow(_row(0, "post", initial, initial.backlog(), initial.prefix_stats(p)[1]))
    for record in trace.records:
        inter, post = record.intermediate, record.post
        av = inter.prefix_stats(p)[1]
        writer.writerow(_row(record.t, "inter", inter, inter.backlog(), av))
        selected = " ".join(str(cup) for cup in record.empty.cups)
        skip = "1" if record.empty.skip_under_one else "0"
        av = post.prefix_stats(p)[1]
        writer.writerow(_row(record.t, "post", post, post.backlog(), av, selected, skip))
    return handle.getvalue().encode()


def _scaled_row(cells, den: int):
    """Cup cells as (scaled, den): ints over the least multiple of den that
    every cell's denominator divides."""
    pairs = []
    for cell in cells:
        num, slash, bottom = cell.partition("/")
        try:
            num, bottom = int(num), int(bottom) if slash else 1
        except ValueError:
            bottom = 0
        if not bottom:
            raise ValueError(f"malformed rational: {cell!r}")
        if bottom < 0:
            num, bottom = -num, -bottom
        pairs.append((num, bottom))
    for cup, (num, bottom) in enumerate(pairs, start=1):
        if num < 0:
            raise ValueError(f"cup {cup} has negative fill {rat(num, bottom)}")
        if den % bottom:
            den = lcm(den, bottom)
    return tuple(num * (den // bottom) for num, bottom in pairs), den


def cup_rows(path, n):
    with open(path, newline="") as handle:
        return [row[4 : 4 + n] for row in list(csv.reader(handle))[1:]]


def oracle_rows(rows):
    parsed, den = [], 1
    for cells in rows:
        scaled, den = _scaled_row(cells, den)
        parsed.append((scaled, den))
    return parsed


def delta_rows(rows):
    """The rows as read_trace's delta parser folds them, replay aside."""
    n = len(rows[0])
    parsed, before = [], [None] * n
    previous = traceio.CupState._wrap((0,) * n, 1)
    for cells in rows:
        scaled, den, _ = traceio._scaled_cells(cells, before, previous)
        parsed.append((scaled, den))
        before, previous = cells, traceio.CupState._wrap(scaled, den)
    return parsed


def states_of(trace):
    states = [trace.initial]
    for record in trace.records:
        states += [record.intermediate, record.post]
    return states


# ---------------------------------------------------------------------------
# cell counts: what the delta codec formats and parses


class CountingGcd:
    """Stands in for traceio's gcd: the writer takes one per formatted cell."""

    def __init__(self):
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return gcd(*args)


class Cell(str):
    parsed = 0

    def partition(self, sep):
        Cell.parsed += 1
        return str.partition(self, sep)


def expected_formats(trace) -> int:
    """Every cup of the t=0 row and of a row whose den changed, else the changed ints."""
    states = states_of(trace)
    count = len(states[0].scaled)
    for before, state in zip(states, states[1:]):
        if before.den != state.den:
            count += len(state.scaled)
        else:
            count += sum(a != b for a, b in zip(before.scaled, state.scaled))
    return count


def expected_parses(rows) -> int:
    """Every cell of the t=0 row, then the cells whose text changed."""
    return len(rows[0]) + sum(
        a != b for before, cells in zip(rows, rows[1:]) for a, b in zip(before, cells)
    )


def assert_codecs_agree(trace, tmp_path, monkeypatch, *, replayable=True):
    counter = CountingGcd()
    monkeypatch.setattr(traceio, "gcd", counter)
    write_trace(trace, tmp_path)
    monkeypatch.undo()
    path = tmp_path / "trace.csv"
    assert path.read_bytes() == oracle_trace_csv(trace)
    assert counter.calls == expected_formats(trace)
    rows = cup_rows(path, trace.config.n)
    assert delta_rows(rows) == oracle_rows(rows)
    if not replayable:
        return rows
    scaled_cells = traceio._scaled_cells

    def counting(cells, before, previous):
        return scaled_cells([Cell(cell) for cell in cells], before, previous)

    Cell.parsed = 0
    monkeypatch.setattr(traceio, "_scaled_cells", counting)
    back = read_trace(tmp_path)
    monkeypatch.undo()
    assert Cell.parsed == expected_parses(rows)
    assert [(s.scaled, s.den) for s in states_of(back)] == oracle_rows(rows)
    assert back.initial == trace.initial and back.records == trace.records
    again = tmp_path / "again"
    write_trace(back, again)
    assert (again / "trace.csv").read_bytes() == path.read_bytes() == oracle_trace_csv(back)
    return rows


# ---------------------------------------------------------------------------
# identical bytes and rows


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("spec", FUZZ_CONFIGS, ids=lambda spec: "-".join(map(str, spec.values())))
def test_fuzz_configs_write_and_parse_like_the_full_row_codec(tmp_path, monkeypatch, spec, seed):
    trace = run_game(GameConfig(steps=500, seed=seed, filler="random:1/2", **spec))
    rows = assert_codecs_agree(trace, tmp_path, monkeypatch)
    # the delta is what makes the codec cheap: most cells are neither
    # formatted nor parsed
    assert expected_parses(rows) < len(rows) * len(rows[0]) / 2


@pytest.mark.parametrize("name", [name for name, _ in _forged_breaches()])
def test_forged_traces_write_the_full_row_bytes(tmp_path, monkeypatch, name):
    # forged states need not follow their records, and their den may fall
    trace = dict(_forged_breaches())[name]
    assert_codecs_agree(trace, tmp_path, monkeypatch, replayable=False)


def test_forged_trace_whose_rows_do_not_follow_the_records(tmp_path, monkeypatch):
    trace = forge(
        3, 1, "greedy",
        [({1: rat(1)}, (2, rat(1, 3), 0), ((2, rat(1, 3)),), (rat(1, 2), 0, 0)),
         ({}, (rat(1, 2), 0, 0), (), (rat(1, 2), 0, 7))],
        initial=(1, rat(1, 3), 0),
    )
    assert_codecs_agree(trace, tmp_path, monkeypatch, replayable=False)


def test_truncated_run_whose_den_rises_mid_run(tmp_path, monkeypatch):
    config = GameConfig(n=8, p=1, steps=300, seed=2, filler="random:1/2",
                        emptier="greedy", truncation=rat(25, 7))
    trace = run_game(config)
    dens = [state.den for state in states_of(trace)]
    assert dens[0] == 1 and dens[-1] == 840
    assert any(a != b for a, b in zip(dens[10:], dens[11:]))  # a rise well past t=0
    assert_codecs_agree(trace, tmp_path, monkeypatch)


@pytest.mark.parametrize("emptier", ["greedy", "smoothed-greedy"])
def test_a_single_cup(tmp_path, monkeypatch, emptier):
    trace = run_game(GameConfig(n=1, p=1, steps=60, seed=4, filler="random:1", emptier=emptier))
    assert_codecs_agree(trace, tmp_path, monkeypatch)


# ---------------------------------------------------------------------------
# malformed cells fail where and as the full-row reader fails


def _sample(tmp_path):
    config = GameConfig(n=6, p=2, steps=30, seed=7, filler="random:1/2", emptier="greedy")
    write_trace(run_game(config), tmp_path)
    path = tmp_path / "trace.csv"
    return path, [line.split(",") for line in path.read_text().splitlines()]


# (file line, {cup: cell}); line 2 is t=0, lines 5/6 step 2's inter/post
MALFORMED = {
    "t0-not-rational": (2, {1: "x"}),
    "t0-negative": (2, {3: "-1/2"}),
    "inter-not-rational": (5, {2: "x"}),
    "inter-zero-den": (5, {4: "1/0"}),
    "inter-empty": (5, {1: ""}),
    "inter-negative": (5, {6: "-1/2"}),
    "inter-negative-den": (5, {5: "1/-3"}),
    "inter-malformed-after-negative": (5, {1: "-1/2", 3: "x"}),
    "post-not-rational": (6, {2: "1/x"}),
    "post-negative": (6, {4: "-2"}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_cell_fails_with_the_full_row_message(tmp_path, case):
    line, edits = MALFORMED[case]
    path, rows = _sample(tmp_path)
    row = rows[line - 1]
    for cup, cell in edits.items():
        row[3 + cup] = cell
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    cells = [row[4:10] for row in rows[1:]]
    den = oracle_rows(cells[: line - 2])[-1][1] if line > 2 else 1
    with pytest.raises(ValueError) as oracle:
        _scaled_row(cells[line - 2], den)
    where = f"{path}: line 2" if line == 2 else f"step {row[0]}"
    with pytest.raises(ValueError) as delta:
        read_trace(tmp_path)
    assert str(delta.value) == f"{where}: {oracle.value}"


def test_post_cell_edited_on_a_cup_the_emptier_did_not_select(tmp_path):
    path, rows = _sample(tmp_path)
    at = next(i for i in range(3, len(rows), 2) if rows[i][2])  # a post row that selected
    cup = next(c for c in range(1, 7) if str(c) not in rows[at][2].split())
    num, den = map(int, rows[at][3 + cup].split("/"))
    rows[at][3 + cup] = f"{num + den}/{den}"  # one more unit, in lowest terms
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    with pytest.raises(ValueError, match=f"^step {rows[at][0]}: post row is not the replay"):
        read_trace(tmp_path)
