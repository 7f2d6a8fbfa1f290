"""Seeded mutation fuzzes of `cupgame check` over saved traces.

The first fuzz edits one thing in the trace.csv of a 25-step n=6 p=2 game: a
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

The second edits one entry of summary.json, of that game and of a game that
aborts on a truncation breach: a key dropped or added, a value swapped for
a token of another JSON type, or a nested `config`, `violation`,
`max_backlog` or `record_setting_steps` entry changed.  No edit may raise a
traceback, and an edit `check` accepts must be one the replay cannot
contradict, or one of the known gaps listed in SUMMARY_GAPS.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import random
from dataclasses import replace
from fractions import Fraction

from cupgame.cli import main
from cupgame.engine import GameConfig, run_game

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


# ---------------------------------------------------------------------------
# summary.json

SUMMARY_TOKENS = [6.0, True, "x", [1], None]  # one of each other JSON type
SUMMARY_VALUES = {
    ("config", "n"): [5, 7, 0],
    ("config", "p"): [1, 3, 6, 0],
    ("config", "steps"): [0, 13, 14, 15, 24, 26, 1000, -1],
    ("config", "seed"): [1, 2**64 - 1, -1, 2**64],
    ("config", "filler"): [
        "random:1/3", "growth", "zero", "harmonic", " random:1/2", "anti-greedy",
        "random:2", "random:1/2,3", "no-such", "",
    ],
    ("config", "emptier"): [
        "smoothed-greedy", "threshold-blind", "threshold-blind:1,1", "greedy:1", "nope", "",
    ],
    ("config", "visibility"): ["oblivious", "ADAPTIVE", ""],
    ("config", "truncation"): ["2", "3/2", "4/2", "11/10", "1", "0", "1/0", "x", 6],
    ("max_backlog", "exact"): ["1/3", "2/4", "0.5", "1", "5/6"],
    ("max_backlog", "decimal"): ["0.50", "1", "0.833333333333333"],
    ("final_backlog", "exact"): ["1/2", "0/2", "0", "1/1"],
    ("empirical_M", "exact"): ["1/2", "2/8"],
    ("record_setting_steps",): [[], [1, 2, 15], [2, 1, 15, 20], [1, 2, 3, 4], [1, 2, 15, 20.0]],
    ("violation",): [{"step": 26, "source": "filler", "reasons": ["x"]}],
    ("violation", "source"): ["emptier", "psychic", ""],
    ("violation", "reasons"): [[], ["other"], ["a", "b"], [1], "abc"],
}
SEEDED_PER_INT = 4  # random ints drawn for each int entry
DROP = object()  # the edit that deletes the entry

# accepted edits the replay could contradict, or that break the writer's
# types, which check does not yet refuse: (game, path, value as JSON)
SUMMARY_GAPS = {
    # a violation's source and reasons are echoed, not checked: only playing
    # the strategies again could tell which move was refused and why
    ("aborted", ("violation", "source"), '"emptier"'),
    *(("aborted", ("violation", "reasons"), value) for value in ('[]', '["other"]', '["a", "b"]')),
    *(("aborted", ("violation", "reasons", 0), value) for value in ("drop", '"x"')),
}


def entry_paths(value, path=()) -> list:
    """The path of every key and list item below value, value's own first."""
    paths = [path]
    if isinstance(value, list):
        value = dict(enumerate(value))
    for key, item in value.items() if isinstance(value, dict) else ():
        paths += entry_paths(item, path + (key,))
    return paths


def lookup(summary: dict, path: tuple):
    for part in path:
        summary = summary[part]
    return summary


def summary_edits(summary: dict, rng: random.Random) -> list:
    """(path, value) edits, value DROP to delete the entry; each is applied alone."""
    paths = entry_paths(summary)[1:]
    edits = [(path, DROP) for path in paths]
    edits += [(path, token) for path in paths for token in SUMMARY_TOKENS]
    edits += [
        (path, value)
        for path, values in SUMMARY_VALUES.items()
        if path in paths
        for value in values
    ]
    edits += [
        (path, rng.randrange(-2, 2 * summary["config"]["steps"]))
        for path in paths
        if type(lookup(summary, path)) is int
        for _ in range(SEEDED_PER_INT)
    ]
    edits += [
        (path + ("extra",), 1)
        for path in entry_paths(summary)
        if isinstance(lookup(summary, path), dict)
    ]
    return [edit for edit in edits if edit[1] is DROP or not same(summary, *edit)]


def same(summary: dict, path: tuple, value) -> bool:
    try:
        return json.dumps(lookup(summary, path)) == json.dumps(value)
    except KeyError:
        return False


def edited(summary: dict, path: tuple, value) -> dict:
    summary = copy.deepcopy(summary)
    parent = lookup(summary, path[:-1])
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return summary


def runs(config: dict) -> bool:
    """Whether `cupgame run` takes this config: it builds the strategies."""
    try:
        run_game(replace(GameConfig(**config), steps=0))
    except (TypeError, ValueError):
        return False
    return True


def uncontradicted(summary: dict, path: tuple, value, top_inter: Fraction) -> bool:
    """Whether the replay could not tell this config edit from the real run:
    another valid seed, filler or emptier spec or visibility, a steps that
    holds every replayed step and the aborted one (exactly the replayed ones
    when the run did not abort), or a truncation as the writer's text (or
    none) that no replayed intermediate fill breaches."""
    if path[0] != "config" or value is DROP or not runs(edited(summary, path, value)["config"]):
        return False
    if path[1] in ("seed", "filler", "emptier", "visibility"):
        return True
    if path[1] == "steps":
        if summary["violation"] is None:
            return value == summary["steps_executed"]
        return value > summary["steps_executed"]
    if path[1] == "truncation":
        if value is None:
            return True
        cap = Fraction(value)
        return value == f"{cap.numerator}/{cap.denominator}" and cap >= top_inter
    return False


def test_no_edit_of_a_summary_raises_or_loads_as_another_run(tmp_path, capsys):
    games = {
        "plain": ["--filler", "random:1/2"],
        # anchor-swap breaches the cap at step 15, so the run aborts there
        "aborted": ["--filler", "anchor-swap", "--truncate", "3/2"],
    }
    rng = random.Random(2019)
    gaps, wrong, exits = set(), [], {0: 0, 1: 0, 2: 0}
    for game, flags in games.items():
        src = tmp_path / game
        argv = ["run", "--n", N, "--p", P, "--steps", 25, *flags, "--out", src]
        assert main([str(arg) for arg in argv]) == 0
        path = src / "summary.json"
        summary = json.loads(path.read_text())
        assert (summary["violation"] is None) == (game == "plain")
        rows = list(csv.reader(io.StringIO((src / "trace.csv").read_text())))
        top_inter = max(
            Fraction(cell) for row in rows if row[1] == "inter" for cell in row[4 : 4 + N]
        )
        for entry, value in summary_edits(summary, rng):
            path.write_text(json.dumps(edited(summary, entry, value), indent=2))
            code = main(["check", str(src), "--out", str(tmp_path / "report")])
            exits[code] += 1
            if code != 2 and not uncontradicted(summary, entry, value, top_inter):
                shown = "drop" if value is DROP else json.dumps(value)
                if (game, entry, shown) in SUMMARY_GAPS:
                    gaps.add((game, entry, shown))
                else:
                    wrong.append((game, entry, shown))
    capsys.readouterr()
    assert not wrong, wrong
    assert gaps == SUMMARY_GAPS  # a gap check comes to refuse must leave the list
    assert exits[2] > 0.7 * sum(exits.values())
