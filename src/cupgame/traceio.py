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


def _row(t: int, stage: str, state: CupState, p: int, selected="", skip=""):
    tot, av = state.prefix_stats(min(p, state.n))
    cells = [str(t), stage, selected, skip]
    # from the ints, so writing a trace keeps no rational copy of each state
    cells.extend(format_rat(rat(scaled, state.den)) for scaled in state.scaled)
    cells.append(to_decimal(state.backlog()))
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
        writer.writerow(_row(0, "post", trace.initial, p))
        for record in trace.records:
            writer.writerow(_row(record.t, "inter", record.intermediate, p))
            selected = " ".join(str(cup) for cup in record.empty.cups)
            skip = "1" if record.empty.skip_under_one else "0"
            writer.writerow(_row(record.t, "post", record.post, p, selected, skip))
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


def read_trace(directory) -> Trace:
    """Rebuild a Trace from a directory written by write_trace.

    Every step is replayed, not trusted: the fill move (intermediate minus
    previous post) and the selection must be legal for the config, and the
    selection's removals must turn the intermediate row into the post row.
    Any breach raises ValueError naming the step.
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

    def state_of(row):
        return CupState([parse_rat(cell) for cell in row[4 : 4 + n]])

    rows.reverse()  # popped in file order, so each row's text is freed once replayed
    try:
        initial = state_of(rows.pop())
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
        try:
            inter = state_of(inter_row)
            fill = FillMove(
                {
                    cup: inter.fill_of(cup) - previous.fill_of(cup)
                    for cup in range(1, n + 1)
                }
            )
            selected = tuple(int(cup) for cup in post_row[2].split())
            empty = EmptyMove(selected, skip_under_one=post_row[3] == "1")
            problems = validate_fill(fill, config, previous)
            problems += validate_empty(empty, config)
            if problems:
                raise ValueError("; ".join(problems))
            post, removed = apply_empty(inter, empty)
            if post != state_of(post_row):
                raise ValueError("post row is not the replay of the selection")
        except ValueError as err:
            raise ValueError(f"step {t}: {err}") from None
        records.append(
            StepRecord(
                t=t, fill=fill, intermediate=inter, empty=empty,
                post=post, removed=removed,
            )
        )
        previous = post
    return Trace(config=config, initial=initial, records=records, violation=violation)


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
