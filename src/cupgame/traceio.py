"""Trace serialization: exact CSV rows plus a JSON summary sidecar.

trace.csv carries one row per state in play order: the t=0 starting state,
then for each step the intermediate (post-fill) and post (post-empty)
states.  Cup columns hold exact "num/den" text so a reader can rebuild the
whole game: the fill move is intermediate minus previous post, and the
selected cups with the skip flag replay the removals.  backlog and av_p are
15-significant-digit decimal conveniences for spreadsheets; they are never
read back.

summary.json records the config, run totals, and any abort, and is the
authoritative source of the config when re-loading a trace directory.
Output bytes are deterministic: fixed column order, sorted JSON keys, LF
line endings, no timestamps.
"""

from __future__ import annotations

import configparser
import csv
import json
from math import gcd, lcm
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


def _row(t: int, stage: str, state: CupState, backlog, av, selected="", skip=""):
    den = state.den
    cells = [str(t), stage, selected, skip]
    # lowest terms straight from the ints: one gcd per cup, no rational
    for scaled in state.scaled:
        common = gcd(scaled, den)
        cells.append(f"{scaled // common}/{den // common}")
    cells.append(to_decimal(backlog))
    cells.append(to_decimal(av))
    return cells


def write_trace(trace: Trace, directory) -> tuple[Path, Path]:
    """Write trace.csv and summary.json under directory; returns both paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    n, p = trace.config.n, trace.config.p
    trace_path = directory / TRACE_NAME
    with trace_path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        header = ["t", "stage", "selected", "skip"]
        header.extend(f"cup_{cup}" for cup in range(1, n + 1))
        header.extend(["backlog", "av_p"])
        writer.writerow(header)
        # the post rows' statistics are the series summarize reads too
        backlogs, avs = trace.backlog_series(), trace.av_series()
        writer.writerow(_row(0, "post", trace.initial, backlogs[0], avs[0]))
        for index, record in enumerate(trace.records, start=1):
            inter = record.intermediate
            av = inter.prefix_stats(p)[1]
            writer.writerow(_row(record.t, "inter", inter, inter.backlog(), av))
            selected = " ".join(str(cup) for cup in record.empty.cups)
            skip = "1" if record.empty.skip_under_one else "0"
            writer.writerow(
                _row(record.t, "post", record.post, backlogs[index], avs[index], selected, skip)
            )
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
    summary = {
        "config": config_dict(trace.config),
        "steps_executed": trace.steps_executed,
        "max_backlog": exact_and_decimal(trace.max_backlog()),
        "final_backlog": exact_and_decimal(trace.backlog_series()[-1]),
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
    try:
        initial = CupState._wrap(*_scaled_row(rows.pop()[4 : 4 + n], 1))
    except ValueError as err:
        raise ValueError(f"{trace_path}: line 2: {err}") from None
    records = []
    previous = initial
    if len(rows) % 2:
        raise ValueError(f"{trace_path}: dangling intermediate row at end of trace")
    for t in range(1, len(rows) // 2 + 1):
        inter_row, post_row = rows.pop(), rows.pop()
        if inter_row[:2] != [str(t), "inter"] or post_row[:2] != [str(t), "post"]:
            raise ValueError(f"{trace_path}: line {2 * t + 1}: malformed step {t} rows")
        where = f"step {t}"
        try:
            scaled, den = _scaled_row(inter_row[4 : 4 + n], previous.den)
            inter = CupState._wrap(scaled, den)
            scale = den // previous.den
            fill = FillMove._wrap(
                tuple(
                    (cup, now - before * scale)
                    for cup, (now, before) in enumerate(zip(scaled, previous.scaled), 1)
                    if now != before * scale
                ),
                den,
            )
            try:
                selected = tuple(int(cup) for cup in post_row[2].split())
            except ValueError:
                where = f"{trace_path}: line {2 * t + 2}: step {t}"
                raise ValueError(f"malformed selection {post_row[2]!r}") from None
            empty = EmptyMove(selected, skip_under_one=post_row[3] == "1")
            problems = validate_fill(fill, config, previous)
            problems += validate_empty(empty, config)
            if problems:
                raise ValueError("; ".join(problems))
            post, drained = apply_empty(inter, empty)
            scaled, den = _scaled_row(post_row[4 : 4 + n], den)
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
        if key not in ("config", "violation") and summary.get(key) != value:
            raise ValueError(
                f"{summary_path}: {key} is {json.dumps(summary.get(key), sort_keys=True)}, "
                f"but the replay of {trace_path} gives {json.dumps(value, sort_keys=True)}"
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
