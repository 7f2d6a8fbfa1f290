"""Trace serialization: exact CSV rows plus a JSON summary sidecar.

trace.csv carries one row per state in play order: the t=0 starting state,
then for each step the intermediate (post-fill) and post (post-empty)
states.  Cup columns hold exact "num/den" text so a reader can rebuild the
whole game: the fill move is intermediate minus previous post, and the
selected cups with the skip flag replay the removals.  backlog and av_p are
15-significant-digit decimal conveniences for spreadsheets; they are never
read back.

Rows are coded as deltas from the row above.  The writer reformats only
the cups whose ints changed (every cup when den changed) and streams each
line to the file.  The reader parses and checks only the cells whose text
changed; any other cell is text-identical to the verified cell of the same
cup one row up, so it keeps that int, rescaled to the new den.  A cup's
lowest-terms text depends only on its value, so the delta changes no byte.

summary.json records the config, run totals, and any abort, and is the
authoritative source of the config when re-loading a trace directory.
Output bytes are deterministic: fixed column order, sorted JSON keys, LF
line endings, no timestamps.
"""

from __future__ import annotations

import configparser
import csv
import json
from itertools import compress
from math import gcd, lcm
from operator import ne
from pathlib import Path

from .engine import (
    ConfigError,
    CupState,
    EmptyMove,
    FillMove,
    GameConfig,
    StepRecord,
    Trace,
    Violation,
    apply_empty,
    validate_empty,
    validate_fill,
)
from .invariants import record_setting_steps
from .rational import exact_and_decimal, format_rat, parse_rat, rat, to_decimal

TRACE_NAME = "trace.csv"
SUMMARY_NAME = "summary.json"


def _update_cells(cells: list, before, state: CupState):
    """Reformat the cup cells of state that may differ from before's.

    cells holds before's lowest-terms text.  A cup whose int is unchanged
    over the same den keeps its text; after a den change (or with no before)
    every cup is reformatted, one gcd each.
    """
    den, scaled = state.den, state.scaled
    if before is not None and before.den == den:
        cups = compress(range(len(scaled)), map(ne, scaled, before.scaled))
    else:
        cups = range(len(scaled))
    for cup in cups:
        common = gcd(scaled[cup], den)
        cells[cup] = f"{scaled[cup] // common}/{den // common}"


def _stat_cells(state: CupState, mass: int, p: int) -> str:
    """The backlog and av_p cells of a state whose top-p ints sum to mass."""
    den = state.den
    return f"{to_decimal(max(state.scaled), den)},{to_decimal(mass, den * p)}"


def write_trace(trace: Trace, directory) -> tuple[Path, Path]:
    """Write trace.csv and summary.json under directory; returns both paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    n, p = trace.config.n, trace.config.p
    trace_path = directory / TRACE_NAME
    with trace_path.open("w", newline="") as handle:
        write = handle.write
        header = ["t", "stage", "selected", "skip"]
        header.extend(f"cup_{cup}" for cup in range(1, n + 1))
        header.extend(["backlog", "av_p"])
        write(",".join(header) + "\n")
        masses = trace.top_masses()  # the post rows' av_p, as summarize reads it
        cells = [""] * n
        _update_cells(cells, None, trace.initial)
        write(f"0,post,,,{','.join(cells)},{_stat_cells(trace.initial, masses[0][0], p)}\n")
        previous = trace.initial
        for record, (mass, _) in zip(trace.records, masses[1:]):
            t, inter, post = record.t, record.intermediate, record.post
            _update_cells(cells, previous, inter)
            stats = _stat_cells(inter, sum(inter.top_scaled(p)), p)
            write(f"{t},inter,,,{','.join(cells)},{stats}\n")
            _update_cells(cells, inter, post)
            selected = " ".join(str(cup) for cup in record.empty.cups)
            skip = "1" if record.empty.skip_under_one else "0"
            write(f"{t},post,{selected},{skip},{','.join(cells)},{_stat_cells(post, mass, p)}\n")
            previous = post
    summary_path = directory / SUMMARY_NAME
    blob = json.dumps(summarize(trace), sort_keys=True, indent=2) + "\n"
    summary_path.write_text(blob)
    return trace_path, summary_path


def config_dict(config: GameConfig) -> dict:
    return {
        "n": config.n,
        "p": config.p,
        "steps": config.steps,
        "seed": config.seed,
        "filler": config.filler,
        "emptier": config.emptier,
        "truncation": None if config.truncation is None
        else format_rat(config.truncation),
        "visibility": config.visibility,
    }


def summarize(trace: Trace) -> dict:
    last = trace.records[-1].post if trace.records else trace.initial
    summary = {
        "config": config_dict(trace.config),
        "steps_executed": trace.steps_executed,
        "max_backlog": exact_and_decimal(trace.max_backlog()),
        "final_backlog": exact_and_decimal(last.backlog()),
        "empirical_M": exact_and_decimal(trace.empirical_M()),
        "record_setting_steps": record_setting_steps(trace),
        "violation": None,
    }
    if trace.violation is not None:
        summary["violation"] = {
            "step": trace.violation.step,
            "source": trace.violation.source,
            "reasons": list(trace.violation.reasons),
        }
    return summary


def _config_from_dict(data: dict) -> GameConfig:
    return GameConfig(
        n=data["n"],
        p=data["p"],
        steps=data["steps"],
        seed=data["seed"],
        filler=data["filler"],
        emptier=data["emptier"],
        truncation=data["truncation"],
        visibility=data["visibility"],
    )


def _scaled_cells(cells, before, previous: CupState):
    """A row's cup cells as (scaled, den, changed), given the previous row.

    before is the previous row's cell text and previous its (scaled, den).
    Only the cups in changed, those whose text differs from before, are
    parsed and checked; every other cup is text already verified, so it
    keeps previous's int.  den is the least multiple of previous.den that
    every cell's denominator divides.
    """
    changed = list(compress(range(len(cells)), map(ne, cells, before)))
    pairs = []
    for cup in changed:
        cell = cells[cup]
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
    den = previous.den
    for cup, (num, bottom) in zip(changed, pairs):
        if num < 0:
            raise ValueError(f"cup {cup + 1} has negative fill {rat(num, bottom)}")
        if den % bottom:
            den = lcm(den, bottom)
    scale = den // previous.den
    scaled = list(previous.scaled) if scale == 1 else [x * scale for x in previous.scaled]
    for cup, (num, bottom) in zip(changed, pairs):
        scaled[cup] = num * (den // bottom)
    return tuple(scaled), den, changed


def read_trace(directory) -> Trace:
    """Rebuild a Trace from a directory written by write_trace.

    Every step is replayed, not trusted: the fill move (intermediate minus
    previous post) and the selection must be legal for the config, and the
    selection's removals must turn the intermediate row into the post row.
    Any breach raises ValueError naming the step.  Every summary.json entry
    but config and violation must also be the replay's summarize value, and
    a recorded violation must be an abort at the step after the last one.

    Rows are read as ints over one denominator, carried forward as an lcm as
    the engine's is, so a cup that drains never shrinks it; each replayed
    move holds its deposits as ints over the intermediate row's.
    """
    directory = Path(directory)
    summary_path = directory / SUMMARY_NAME
    try:
        summary = json.loads(summary_path.read_text())
        config = _config_from_dict(summary["config"])
        raw = summary["violation"]
        violation = None if raw is None else Violation(
            step=raw["step"], source=raw["source"], reasons=tuple(raw["reasons"])
        )
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"{summary_path}: missing or malformed entry {err}") from None
    n = config.n
    trace_path = directory / TRACE_NAME
    with trace_path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{trace_path} is empty")
        expected = 4 + n + 2
        if len(header) != expected or header[:4] != ["t", "stage", "selected", "skip"]:
            raise ValueError(f"{trace_path}: unexpected header for n={n}: {header}")
        rows = list(reader)
    for line, row in enumerate(rows, start=2):
        if len(row) != expected:
            raise ValueError(f"{trace_path}: line {line}: {len(row)} cells, not {expected}")
    if not rows or rows[0][:2] != ["0", "post"]:
        raise ValueError(f"{trace_path}: trace must start with the t=0 post row")

    rows.reverse()  # popped in file order, so each row's text is freed once replayed
    cells = rows.pop()[4 : 4 + n]
    try:  # against no text and n empty cups, every cell is parsed
        scaled, den, _ = _scaled_cells(cells, [None] * n, CupState._wrap((0,) * n, 1))
    except ValueError as err:
        raise ValueError(f"{trace_path}: line 2: {err}") from None
    initial = previous = CupState._wrap(scaled, den)
    records = []
    if len(rows) % 2:
        raise ValueError(f"{trace_path}: dangling intermediate row at end of trace")
    if len(rows) // 2 > config.steps:
        raise ValueError(
            f"{summary_path}: steps is {config.steps}, but {trace_path} holds "
            f"{len(rows) // 2} steps"
        )
    for t in range(1, len(rows) // 2 + 1):
        inter_row, post_row = rows.pop(), rows.pop()
        if inter_row[:2] != [str(t), "inter"] or post_row[:2] != [str(t), "post"]:
            raise ValueError(f"{trace_path}: line {2 * t + 1}: malformed step {t} rows")
        where = f"step {t}"
        try:
            inter_cells = inter_row[4 : 4 + n]
            scaled, den, changed = _scaled_cells(inter_cells, cells, previous)
            inter = CupState._wrap(scaled, den)
            # a cup whose text did not change got no deposit
            scale, before = den // previous.den, previous.scaled
            deposits = ((cup + 1, scaled[cup] - before[cup] * scale) for cup in changed)
            fill = FillMove._wrap(tuple(pair for pair in deposits if pair[1]), den)
            try:
                selected = tuple(int(cup) for cup in post_row[2].split())
            except ValueError:
                where = f"{trace_path}: line {2 * t + 2}: step {t}"
                raise ValueError(f"malformed selection {post_row[2]!r}") from None
            if post_row[3] not in ("0", "1"):
                where = f"{trace_path}: line {2 * t + 2}: step {t}"
                raise ValueError(f"malformed skip flag {post_row[3]!r}")
            empty = EmptyMove(selected, skip_under_one=post_row[3] == "1")
            problems = validate_fill(fill, config, previous)
            problems += validate_empty(empty, config)
            if problems:
                raise ValueError("; ".join(problems))
            post, drained = apply_empty(inter, empty)
            cells = post_row[4 : 4 + n]
            scaled, den, _ = _scaled_cells(cells, inter_cells, inter)
            if den != post.den:  # the row's text needs a larger denominator
                post = CupState._wrap(tuple(x * (den // post.den) for x in post.scaled), den)
            if post.scaled != scaled:
                raise ValueError("post row is not the replay of the selection")
        except ValueError as err:
            raise ValueError(f"{where}: {err}") from None
        records.append(
            StepRecord(
                t=t, fill=fill, intermediate=inter, empty=empty,
                post=post, drained=drained,
            )
        )
        previous = post
    trace = Trace(config=config, initial=initial, records=records, violation=violation)
    for key, value in summarize(trace).items():
        if key in ("config", "violation"):
            continue
        # JSON text compares types too: 25.0 or true is not the replay's 25 or 1
        recorded, replayed = (json.dumps(x, sort_keys=True) for x in (summary.get(key), value))
        if recorded != replayed:
            raise ValueError(
                f"{summary_path}: {key} is {recorded}, but the replay of {trace_path} "
                f"gives {replayed}"
            )
    abort = trace.steps_executed + 1  # the only step a run can have aborted at
    if violation is not None and not (
        type(violation.step) is int and violation.step == abort <= config.steps
        and violation.source in ("filler", "emptier")
        and type(raw["reasons"]) is list
        and all(type(reason) is str for reason in violation.reasons)
    ):
        raise ValueError(
            f"{summary_path}: violation must be null or name step {abort}, source "
            f"filler or emptier and a list of reasons, not {json.dumps(raw)}"
        )
    return trace


# ---------------------------------------------------------------------------
# config files

_GAME_KEYS = {"n", "p", "steps", "seed", "truncate", "visibility"}
_STRATEGY_KEYS = {"filler", "emptier"}


def load_config_file(path) -> GameConfig:
    """Parse an INI run description into a GameConfig.

    [game] holds n, p, steps and optional seed, truncate, visibility;
    [strategies] holds optional filler and emptier specs.  Unknown keys are
    rejected so typos fail loudly.
    """
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if "game" not in parser:
        raise ConfigError(f"{path}: missing [game] section")
    game = parser["game"]
    unknown = set(game) - _GAME_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown [game] keys {sorted(unknown)}")
    kwargs = {}
    try:
        for key in ("n", "p", "steps"):
            if key not in game:
                raise ConfigError(f"{path}: [game] needs {key}")
            kwargs[key] = int(game[key])
        if "seed" in game:
            kwargs["seed"] = int(game["seed"])
        if "truncate" in game:
            kwargs["truncation"] = parse_rat(game["truncate"])
        if "visibility" in game:
            kwargs["visibility"] = game["visibility"]
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from None
    if "strategies" in parser:
        strategies = parser["strategies"]
        unknown = set(strategies) - _STRATEGY_KEYS
        if unknown:
            raise ConfigError(f"{path}: unknown [strategies] keys {sorted(unknown)}")
        if "filler" in strategies:
            kwargs["filler"] = strategies["filler"]
        if "emptier" in strategies:
            kwargs["emptier"] = strategies["emptier"]
    stray = set(parser.sections()) - {"game", "strategies"}
    if stray:
        raise ConfigError(f"{path}: unknown sections {sorted(stray)}")
    return GameConfig(**kwargs)
