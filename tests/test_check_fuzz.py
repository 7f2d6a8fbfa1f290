"""A seeded mutation fuzz of `cupgame check` over one saved trace.

Each case edits one thing in the trace.csv of a 25-step n=6 p=2 game: a
cell swapped for one of a fixed token list, a dropped, swapped or quoted
line, an extra cell, or a comma turned into a `;`.  No edit may raise a
traceback, and an edit the reader accepts (exit 0 or 1) must be one of:

- an edit to a `backlog`/`av_p` cell, which the reader never reads back;
- an edit that leaves every row's parsed content unchanged: its step,
  stage, selection set, skip flag and cup rationals;
- an edit that leaves another legal game, as an independent Fraction replay
  of the edited rows finds against summary.json.  Greedy removes min(1,
  fill), so an intermediate cell of a cup that the step drains to 0 can
  change without changing any post row; only an emptier-conformance check
  could tell that the emptier would have chosen otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import random
from fractions import Fraction

from cupgame.cli import main

N, P = 6, 2
EDITS = 1000
TOKENS = [
    "", "x", "0", "1", "-1", "2", "0/0", "1/0", "-1/2", "1/2", "2/4", "3/2",
    "1 2", " 1", "1.5", "99", "0/1", "7/8",
]


def parse_rows(text: str) -> list:
    """Each row's meaning: the header's fixed cells and width, then per data
    row its width, step, stage, selection set, skip text and cup rationals
    (None where a row does not parse)."""
    rows = list(csv.reader(io.StringIO(text)))
    parsed = [(tuple(rows[0][:4]), len(rows[0])) if rows else None]
    for row in rows[1:]:
        try:
            selection = frozenset(int(cup) for cup in row[2].split())
            fills = tuple(Fraction(cell) for cell in row[4 : 4 + N])
            parsed.append((len(row), int(row[0]), row[1], selection, row[3], fills))
        except (IndexError, ValueError, ZeroDivisionError):
            parsed.append(None)
    return parsed


def is_legal_game(parsed: list, summary: dict) -> bool:
    """Whether parsed rows replay as a legal greedy-removal game that the
    summary's exact entries describe, in Fraction arithmetic."""
    if None in parsed or parsed[0] != (("t", "stage", "selected", "skip"), 4 + N + 2):
        return False
    if any(row[0] != 4 + N + 2 for row in parsed[1:]):
        return False
    first, steps = parsed[1], parsed[2:]
    if first[1:5] != (0, "post", frozenset(), "") or len(steps) % 2:
        return False
    states = [first[5]]
    for t in range(1, len(steps) // 2 + 1):
        inter, post = steps[2 * t - 2], steps[2 * t - 1]
        if inter[1:5] != (t, "inter", frozenset(), "") or post[1:3] != (t, "post"):
            return False
        deposits = [after - before for before, after in zip(states[-1], inter[5])]
        if any(not 0 <= d <= 1 for d in deposits) or sum(deposits) > P:
            return False
        cups, skip = post[3], post[4]
        if skip not in ("0", "1") or len(cups) > P or not cups <= set(range(1, N + 1)):
            return False
        replay = [
            fill if cup not in cups else fill - 1 if fill >= 1 else fill if skip == "1" else 0
            for cup, fill in enumerate(inter[5], start=1)
        ]
        if tuple(replay) != post[5]:
            return False
        states.append(post[5])
    masses = [sum(sorted(state, reverse=True)[:P]) / P for state in states]
    # a record-setting step beats every earlier step's av_p; S_0 is no step
    records = [t for t in range(1, len(masses)) if all(masses[t] > m for m in masses[1:t])]
    return (
        summary["steps_executed"] == len(states) - 1
        and Fraction(summary["max_backlog"]["exact"]) == max(max(state) for state in states)
        and Fraction(summary["final_backlog"]["exact"]) == max(states[-1])
        and Fraction(summary["empirical_M"]["exact"]) == max(masses)
        and summary["record_setting_steps"] == records
    )


def edit(rng: random.Random, lines: list) -> tuple[list, bool]:
    """One random edit of the lines; also whether it only touched a stat cell."""
    lines = list(lines)
    kind = rng.randrange(6)
    at = rng.randrange(len(lines))
    if kind == 0:
        cells = lines[at].split(",")
        cell = rng.randrange(len(cells))
        cells[cell] = rng.choice(TOKENS)
        lines[at] = ",".join(cells)
        return lines, at > 0 and cell >= 4 + N
    if kind == 1:
        del lines[at]
    elif kind == 2:
        other = rng.randrange(len(lines))
        lines[at], lines[other] = lines[other], lines[at]
    elif kind == 3:
        lines[at] = f'"{lines[at]}"'
    elif kind == 4:
        lines[at] += ",x"
    else:
        commas = [i for i, char in enumerate(lines[at]) if char == ","]
        i = rng.choice(commas)
        lines[at] = lines[at][:i] + ";" + lines[at][i + 1 :]
    return lines, False


def test_no_edit_of_a_trace_raises_or_loads_as_something_else(tmp_path, capsys):
    src = tmp_path / "game"
    argv = ["run", "--n", N, "--p", P, "--steps", 25, "--filler", "random:1/2", "--out", src]
    assert main([str(arg) for arg in argv]) == 0
    path = src / "trace.csv"
    text = path.read_text()
    lines = text.splitlines()
    base = parse_rows(text)
    summary = json.loads((src / "summary.json").read_text())
    assert is_legal_game(base, summary)
    rng = random.Random(2019)
    exits = {0: 0, 1: 0, 2: 0}
    wrong = []
    for case in range(EDITS):
        edited, stat_cell = edit(rng, lines)
        body = "\n".join(edited) + "\n"
        path.write_text(body)
        code = main(["check", str(src), "--out", str(tmp_path / "report")])
        exits[code] += 1
        if code != 2 and not stat_cell:
            parsed = parse_rows(body)
            if parsed != base and not is_legal_game(parsed, summary):
                wrong.append((case, code, body))
    capsys.readouterr()
    assert not wrong, wrong[:3]
    assert exits[2] > 0.8 * EDITS  # most edits break the trace and are refused
