"""The file formats: trace.csv, summary.json, report.json and INI run files.

trace.csv carries one row per state in play order: the t=0 starting state,
then for each step the intermediate (post-fill) and post (post-empty)
states.  Cup columns hold exact "num/den" text so a reader can rebuild the
whole game: the fill move is intermediate minus previous post, and the
selected cups with the skip flag replay the removals.  backlog and av_p are
15-significant-digit decimal conveniences for spreadsheets; they are never
read back.

Rows are comma-joined, unquoted lines coded as deltas from the row above.
The writer rebuilds each step's intermediate state from the record,
reformats only the moved cups (the filled ones, then those whose ints
changed; every cup when den changed) and streams each line to the file.
The reader splits each line on commas (after LF or CRLF; a quote or other
CR fails) and replays it, parsing only the cells whose text changed; any
other cell is text-identical to the verified cell of the same cup one row
up, so it keeps that int, rescaled to the new den.  An inter row's changed
cells are the fill move; a post row is checked from its changed cells
alone: every drained cup's cell must have changed, and every changed cell
must equal the replayed post state.  A cup's lowest-terms text depends
only on its value, so the delta changes no byte.

summary.json records every GameConfig field, the run statistics of Trace and
any abort; it is the authoritative source of the config when re-loading a
trace directory, which loads only if it is exactly what run writes for the
replay.  write_json writes it and every report.json deterministically, as
trace.csv is: fixed columns, sorted JSON keys, LF line endings, no times.
"""

from __future__ import annotations

import configparser
import json
from dataclasses import MISSING, asdict, fields
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
    Trace,
    Violation,
    apply_fill,
    build_filler,
    step,
)
from .rational import exact_and_decimal, format_rat, parse_rat, rat, to_decimal

TRACE_NAME = "trace.csv"
SUMMARY_NAME = "summary.json"


def _format_cells(cells: list, state: CupState, cups):
    """Write the lowest-terms text of state's given cups (ids from 1) into
    cells, one gcd each."""
    den, scaled = state.den, state.scaled
    for cup in cups:
        value = scaled[cup - 1]
        common = gcd(value, den)
        cells[cup - 1] = f"{value // common}/{den // common}"


def write_trace(trace: Trace, directory) -> tuple[Path, Path]:
    """Write trace.csv and summary.json under directory; returns both paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    n, p = trace.config.n, trace.config.p
    trace_path = directory / TRACE_NAME
    with trace_path.open("w", encoding="utf-8", newline="") as handle:
        write = handle.write
        cups = ",".join(f"cup_{cup}" for cup in range(1, n + 1))
        write(f"t,stage,selected,skip,{cups},backlog,av_p\n")
        # the post rows' backlog and av_p, as summarize and backlog_svg read them
        tops, masses = trace.maxima(), trace.top_masses()
        every, cells, initial = range(1, n + 1), [""] * n, trace.initial
        _format_cells(cells, initial, every)
        den = initial.den
        write(f"0,post,,,{','.join(cells)},{to_decimal(tops[0][0], den)},"
              f"{to_decimal(masses[0][0], den * p)}\n")
        for record, (top, _), (mass, _) in zip(trace.records, tops[1:], masses[1:]):
            t, prev, post = record.t, record.prev, record.post
            inter = apply_fill(prev, record.fill)
            den = inter.den
            # prev plus the fill: only the filled cups' ints can change
            _format_cells(cells, inter, record.fill.cups if den == prev.den else every)
            ranked = inter.top_scaled(p)
            write(f"{t},inter,,,{','.join(cells)},{to_decimal(ranked[0], den)},"
                  f"{to_decimal(sum(ranked), den * p)}\n")
            # the cups whose ints changed: a forged record's post need not be its replay
            changed = compress(every, map(ne, post.scaled, inter.scaled))
            _format_cells(cells, post, changed if post.den == den else every)
            den = post.den
            selected = " ".join(map(str, record.empty.cups))
            skip = "1" if record.empty.skip_under_one else "0"
            write(f"{t},post,{selected},{skip},{','.join(cells)},{to_decimal(top, den)},"
                  f"{to_decimal(mass, den * p)}\n")
    summary_path = directory / SUMMARY_NAME
    write_json(summary_path, summarize(trace))
    return trace_path, summary_path


def write_json(path: Path, payload: dict):
    """Write payload as JSON with sorted keys, indented, and a final newline."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def config_dict(config: GameConfig) -> dict:
    """Every GameConfig field by name; a rational (truncation) as "num/den"."""
    return {
        name: value if value is None or isinstance(value, (int, str)) else format_rat(value)
        for name, value in asdict(config).items()
    }


def summarize(trace: Trace) -> dict:
    last = trace.records[-1].post if trace.records else trace.initial
    summary = {
        "config": config_dict(trace.config),
        "steps_executed": trace.steps_executed,
        "max_backlog": exact_and_decimal(trace.max_backlog()),
        "final_backlog": exact_and_decimal(last.backlog()),
        "empirical_M": exact_and_decimal(trace.empirical_M()),
        "record_setting_steps": trace.record_setting_steps(),
        "violation": None,
    }
    if trace.violation is not None:
        summary["violation"] = {
            "step": trace.violation.step,
            "source": trace.violation.source,
            "reasons": list(trace.violation.reasons),
        }
    return summary


def _read_cells(cells, before, den: int):
    """The cups (ids from 1) whose text differs from before's, the previous
    row's over den, parsed once each: (cups, their ints, the least multiple
    of den their denominators divide).  Any other cell is text already
    verified.  The first malformed cell fails before the first negative one.
    """
    cups = tuple(compress(range(1, len(cells) + 1), map(ne, cells, before)))
    pairs, negative = [], None
    for cup in cups:
        cell = cells[cup - 1]
        num, slash, bottom = cell.partition("/")
        try:
            num, bottom = int(num), int(bottom) if slash else 1
        except ValueError:
            bottom = 0
        if bottom <= 0:
            if not bottom:
                raise ValueError(f"malformed rational: {cell!r}")
            num, bottom = -num, -bottom
        if num < 0 and negative is None:
            negative = f"cup {cup} has negative fill {rat(num, bottom)}"
        if den % bottom:
            den = lcm(den, bottom)
        pairs.append((num, bottom))
    if negative is not None:
        raise ValueError(negative)
    return cups, [num * (den // bottom) for num, bottom in pairs], den


FIELD_LIMIT = 131_072  # csv's default field size limit: a longer cell keeps csv's message


def _rows(handle, trace_path, expected: int):
    """The rows of a binary trace.csv in file order, header first.

    Each line is decoded and split on commas, as the writer joins it; a
    final LF or CRLF ends it.  A byte that is not UTF-8, a quote or a
    carriage return within the line (the writer writes neither), a cell
    over FIELD_LIMIT characters and a data row whose cell count is not
    expected each fail naming the line.
    """
    for line, data in enumerate(handle, start=1):
        try:
            text = data.decode().removesuffix("\n").removesuffix("\r")
        except UnicodeDecodeError as err:
            fault = f"byte {err.start + 1} (0x{data[err.start]:02x}) is not UTF-8"
        else:
            row = text.split(",") if text else []
            if '"' in text or "\r" in text:
                fault = "a quote or a carriage return within the line; trace.csv is not quoted"
            elif len(text) > FIELD_LIMIT and max(map(len, row)) > FIELD_LIMIT:
                fault = f"field larger than field limit ({FIELD_LIMIT})"
            elif len(row) != expected and line > 1:
                fault = f"{len(row)} cells, not {expected}"
            else:
                yield row
                continue
        raise ValueError(f"{trace_path}: line {line}: {fault}")


def _selection_error(row, trace_path, line: int, t: int) -> ValueError:
    """The t=0 and inter rows carry no emptier move: both cells are empty."""
    return ValueError(
        f"{trace_path}: line {line}: step {t}: {row[1]} row's selected and skip "
        f"cells must be empty, not {row[2]!r} and {row[3]!r}"
    )


def read_trace(directory) -> Trace:
    """Rebuild a Trace from a directory written by write_trace.

    Every step is replayed, not trusted, through engine.step, the function
    run_game plays it with: the fill move (intermediate minus previous post)
    and the selection must be legal for the config, or the step fails as
    "step t: illegal filler|emptier move: reasons", the violation run_game
    records; and the selection's removals must turn the intermediate row
    into the post row.  Any breach raises ValueError naming the step.
    summary.json must be exactly what write_trace writes for the replay, as
    JSON, every key included.  What the replay cannot derive is checked as
    run would: the config's filler is built and must suit its visibility, a
    run short of the config's steps must record a filler or emptier abort
    with text reasons at the step after the last one, and a full run no
    violation.

    Each (inter, post) pair of rows is replayed as it is read, its changed
    cells parsed once; only a misnumbered or surplus step reads on, counting
    rows to name the fault.  A line _rows refuses fails naming its line.

    Rows are read as ints over one denominator, carried forward as an lcm as
    the engine's is, so a cup that drains never shrinks it; each replayed
    move holds its deposits as ints over the intermediate row's.  No
    intermediate state is kept: each record starts from the previous post.
    """
    from .emptiers import make_emptier  # as run_game does: cli's start-up skips it

    directory = Path(directory)
    summary_path = directory / SUMMARY_NAME
    try:
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        config = GameConfig(**summary["config"])
        build_filler(config)
        try:  # the name only, so a saved threshold-blind:L,C (the spec took L,C once) loads
            make_emptier(config.emptier.partition(":")[0])
        except ConfigError:
            raise ConfigError(f"unknown emptier spec {config.emptier!r}") from None
        raw = summary["violation"]
        violation = None if raw is None else Violation(**{**raw, "reasons": tuple(raw["reasons"])})
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"{summary_path}: missing or malformed entry {err}") from None
    n = config.n
    trace_path = directory / TRACE_NAME
    with trace_path.open("rb") as handle:
        expected = 4 + n + 2
        rows = _rows(handle, trace_path, expected)
        header = next(rows, None)
        if header is None:
            raise ValueError(f"{trace_path} is empty")
        if len(header) != expected or header[:4] != ["t", "stage", "selected", "skip"]:
            raise ValueError(f"{trace_path}: unexpected header for n={n}: {header}")
        first = next(rows, None)
        if first is None or first[:2] != ["0", "post"]:
            raise ValueError(f"{trace_path}: trace must start with the t=0 post row")
        if first[2] or first[3]:
            raise _selection_error(first, trace_path, 2, 0)
        cells = first[4 : 4 + n]
        try:  # against no text, every cell is parsed
            _, scaled, den = _read_cells(cells, [None] * n, 1)
        except ValueError as err:
            raise ValueError(f"{trace_path}: line 2: {err}") from None
        initial = previous = CupState._wrap(tuple(scaled), den)
        records, steps, where = [], config.steps, None
        for t, inter_row in enumerate(rows, start=1):
            post_row = next(rows, None)
            stamp = str(t)
            if (t > steps or post_row is None or inter_row[0] != stamp or inter_row[1] != "inter"
                    or post_row[0] != stamp or post_row[1] != "post"):
                # a fault of the whole file comes first: count the step rows
                held = 2 * t - (post_row is None) + sum(1 for _ in rows)
                if held % 2:
                    raise ValueError(f"{trace_path}: dangling intermediate row at end of trace")
                if held // 2 > steps:
                    raise ValueError(
                        f"{summary_path}: steps is {steps}, but {trace_path} holds "
                        f"{held // 2} steps"
                    )
                raise ValueError(f"{trace_path}: line {2 * t + 1}: malformed step {t} rows")
            if inter_row[2] or inter_row[3]:
                raise _selection_error(inter_row, trace_path, 2 * t + 1, t)
            try:
                inter_cells = inter_row[4 : 4 + n]
                cups, values, den = _read_cells(inter_cells, cells, previous.den)
                # a cup whose text did not change got no deposit; step builds
                # the intermediate state from previous and these deposits
                scale, before = den // previous.den, previous.scaled
                deposits = [value - before[cup - 1] * scale for cup, value in zip(cups, values)]
                if 0 in deposits:  # a cell rewritten as other text of the same value
                    kept = [pair for pair in zip(cups, deposits) if pair[1]]
                    cups, deposits = tuple(zip(*kept)) or ((), ())
                fill = FillMove._wrap(cups, tuple(deposits), den)
                try:
                    selected = tuple(sorted(map(int, post_row[2].split())))
                except ValueError:
                    where = f"{trace_path}: line {2 * t + 2}: step {t}"
                    raise ValueError(f"malformed selection {post_row[2]!r}") from None
                skip = post_row[3]
                if skip != "0" and skip != "1":
                    where = f"{trace_path}: line {2 * t + 2}: step {t}"
                    raise ValueError(f"malformed skip flag {skip!r}")
                if len(set(selected)) != len(selected):
                    raise ValueError(f"duplicate cup ids in empty move: {selected}")
                empty = EmptyMove._wrap(selected, skip == "1")
                record = step(config, t, previous, fill, lambda state, p: empty)
                if type(record) is Violation:
                    raise ValueError(f"illegal {record.source} move: {'; '.join(record.reasons)}")
                # the post row against the inter row: a drained cup's cell must
                # change, and a changed cell must hold the replayed fill
                cells, post = post_row[4 : 4 + n], record.post
                cups, values, den = _read_cells(cells, inter_cells, post.den)
                if den != post.den:  # the row's text needs a larger denominator
                    post = record.post = CupState._wrap(
                        tuple(x * (den // post.den) for x in post.scaled), den
                    )
                scaled, drained = post.scaled, record.drained
                if (cups != drained and not set(drained).issubset(cups)) or [
                    scaled[cup - 1] for cup in cups
                ] != values:
                    raise ValueError("post row is not the replay of the selection")
            except ValueError as err:
                raise ValueError(f"{where or f'step {t}'}: {err}") from None
            records.append(record)
            previous = post
    trace = Trace(config=config, initial=initial, records=records, violation=violation)
    replayed = summarize(trace)
    # summarize's keys in its order, then any it never writes; JSON text
    # compares types too: 25.0 or true is not the replay's 25 or 1
    for key in [*replayed, *(key for key in summary if key not in replayed)]:
        recorded, written = (
            json.dumps(document[key], sort_keys=True) if key in document else "absent"
            for document in (summary, replayed)
        )
        if recorded != written:
            raise ValueError(
                f"{summary_path}: {key} is {recorded}, but the replay of {trace_path} "
                f"gives {written}"
            )
    abort = trace.steps_executed + 1  # a run short of its steps aborted here
    aborted = abort <= config.steps
    if (violation is not None) != aborted or aborted and not (
        type(violation.step) is int and violation.step == abort
        and violation.source in ("filler", "emptier")
        and all(type(reason) is str for reason in violation.reasons)
    ):
        wanted = f"a filler or emptier abort at step {abort}, with text reasons"
        raise ValueError(
            f"{summary_path}: {trace_path} holds {abort - 1} of {config.steps} steps, so "
            f"violation must be {wanted if aborted else 'null'}, not {json.dumps(raw)}"
        )
    return trace


# ---------------------------------------------------------------------------
# config files


def load_config_file(path, **overrides) -> GameConfig:
    """Parse an INI run description into a GameConfig.

    Its keys are table's, by section; any other key or section, [DEFAULT]
    included, is rejected.  Values are taken as written (no "%").  overrides
    (GameConfig fields, as run's flags give them) replace the file's settings
    before the merged config is validated, so a flag may supply a key the
    file leaves out.  Every error names the file.
    """
    # section -> key -> (GameConfig field, parser); built per call, so parse_rat is looked up then
    table = {
        "game": {
            "n": ("n", int),
            "p": ("p", int),
            "steps": ("steps", int),
            "seed": ("seed", int),
            "truncate": ("truncation", parse_rat),
            "visibility": ("visibility", str),
        },
        "strategies": {"filler": ("filler", str), "emptier": ("emptier", str)},
    }
    # no file names the section "" ([] is no header): [DEFAULT] is an ordinary section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as err:
        raise ConfigError(f"{path}: {err}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if "game" not in parser:
        raise ConfigError(f"{path}: missing [game] section")
    settings = {}
    for section, keys in table.items():
        values = parser[section] if section in parser else {}
        unknown = set(values) - set(keys)
        if unknown:
            raise ConfigError(f"{path}: unknown [{section}] keys {sorted(unknown)}")
        try:
            for key, (name, parse) in keys.items():
                if key in values:
                    settings[name] = parse(values[key])
        except ValueError as err:
            raise ConfigError(f"{path}: {err}") from None
    stray = set(parser.sections()) - set(table)
    if stray:
        raise ConfigError(f"{path}: unknown sections {sorted(stray)}")
    settings.update(overrides)
    for field in fields(GameConfig):
        if field.default is MISSING and field.name not in settings:
            raise ConfigError(f"{path}: [game] needs {field.name}")
    try:
        return GameConfig(**settings)
    except ConfigError as err:
        raise ConfigError(f"{path}: {err}") from None
