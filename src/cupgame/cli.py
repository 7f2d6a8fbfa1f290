"""Batch experiment front end.

Subcommands: run (one game to trace files), check (replay checkers over a
saved trace), sweep (parameter grid with a log fit), lowerbound (growth
construction vs an emptier until its harmonic threshold), montecarlo
(seeded frequency experiments).

Exit codes: 0 success, 1 a check or threshold failed, 2 usage or config
error.  All file outputs are byte-deterministic for a given invocation.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import MISSING, fields
from pathlib import Path

from .engine import ADAPTIVE, OBLIVIOUS, ConfigError, GameConfig, run_game
from .experiments import (
    backlog_frequency_experiment,
    crossing_probability_experiment,
    fit_log_slope,
    run_lower_bound,
    run_sweep,
    write_sweep_csv,
)
from .invariants import WINDOW, PreconditionError, run_checkers
from .rational import exact_and_decimal, format_rat, parse_rat, to_decimal
from .svg import backlog_svg
from .traceio import config_dict, load_config_file, read_trace, write_json, write_trace

MONTECARLO_EXPERIMENTS = ("crossing-prob", "anchor-swap-backlog", "anti-greedy-backlog")


def _int_list(text: str) -> list[int]:
    values = [int(part) for part in text.split(",") if part]
    if not values:
        raise ValueError(f"empty integer list: {text!r}")
    return values


def _seed_list(text: str) -> list[int]:
    """Seeds as a comma list ("1,5,9") or a half-open range ("0:200")."""
    if ":" in text:
        start, stop = text.split(":", 1)
        seeds = list(range(int(start), int(stop)))
        if not seeds:
            raise ValueError(f"empty seed range: {text!r}")
        return seeds
    return _int_list(text)


def _checker_names(text: str) -> list[str]:
    names = [part for part in text.split(",") if part]
    if not names:
        raise argparse.ArgumentTypeError(f"names no checker: {text!r}")
    return names


def _window(text: str) -> int:
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


# ---------------------------------------------------------------------------
# run


def _assemble_config(args) -> GameConfig:
    flags = {field.name: getattr(args, field.name, None) for field in fields(GameConfig)}
    settings = {key: value for key, value in flags.items() if value is not None}
    if args.config:
        return load_config_file(args.config, **settings)
    missing = [field.name for field in fields(GameConfig)
               if field.default is MISSING and field.name not in settings]
    if missing:
        raise ConfigError(f"missing required settings (flag or config file): {missing}")
    return GameConfig(**settings)


def cmd_run(args) -> int:
    config = _assemble_config(args)
    trace = run_game(config)
    out = Path(args.out)
    write_trace(trace, out)
    if args.svg:
        (out / "backlog.svg").write_text(backlog_svg(trace))
    top = trace.max_backlog()
    print(
        f"ran {trace.steps_executed}/{config.steps} steps; "
        f"max backlog {format_rat(top)} ({to_decimal(top)})"
    )
    if trace.violation is not None:
        v = trace.violation
        print(f"aborted at step {v.step}: illegal {v.source} move ({', '.join(v.reasons)})")
    print(f"wrote {out / 'trace.csv'} and {out / 'summary.json'}")
    return 0


# ---------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    trace_dir = Path(args.trace)
    trace = read_trace(trace_dir)
    reports = run_checkers(trace, args.checkers, window=args.window)
    for report in reports:
        if report.passed:
            print(f"{report.check}: PASS")
        else:
            print(f"{report.check}: FAIL witness={report.to_jsonable()['witness']}")
    passed = all(report.passed for report in reports)
    payload = {
        "config": config_dict(trace.config),
        "passed": passed,
        "reports": [report.to_jsonable() for report in reports],
    }
    out = Path(args.out) if args.out else trace_dir
    write_json(out / "report.json", payload)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args) -> int:
    ns = sorted(set(args.n))
    if len(ns) < 4:
        raise ConfigError(f"sweep needs at least 4 distinct n values, got {ns}")
    ps = sorted(set(args.p))
    truncation = None if args.truncate is None else parse_rat(args.truncate)
    rows = run_sweep(
        ns,
        ps,
        args.seeds,
        steps=args.steps,
        filler=args.filler,
        emptier=args.emptier,
        truncation=truncation,
    )
    slope = fit_log_slope(rows)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(rows, out / "sweep.csv")
    write_json(
        out / "report.json",
        {
            "rows": len(rows),
            "slope_vs_ln_n": slope,
            "n": ns,
            "p": ps,
            "seeds": list(args.seeds),
            "steps": args.steps,
            "filler": args.filler,
            "emptier": args.emptier,
        },
    )
    print(f"{len(rows)} runs; max-backlog slope vs ln n = {slope:.4f}")
    print(f"wrote {out / 'sweep.csv'} and {out / 'report.json'}")
    return 0


# ---------------------------------------------------------------------------
# lowerbound


def cmd_lowerbound(args) -> int:
    result = run_lower_bound(args.n, args.p, emptier=args.emptier, seed=args.seed)
    print(
        f"threshold {format_rat(result.threshold)} "
        f"({to_decimal(result.threshold)}) for n={args.n} p={args.p}"
    )
    if args.out:
        write_json(Path(args.out) / "report.json", result.to_jsonable())
    if result.reached:
        print(f"reached after {result.steps_to_threshold} steps (budget {result.budget})")
        return 0
    print(
        f"NOT reached within {result.budget} steps; best "
        f"{format_rat(result.max_backlog)} - construction or engine bug"
    )
    return 1


# ---------------------------------------------------------------------------
# montecarlo


def cmd_montecarlo(args) -> int:
    if args.experiment == "crossing-prob":
        y = parse_rat(args.y)
        frequency = crossing_probability_experiment([y], args.seeds)
        sigma4 = 4 * math.sqrt(float(y * (1 - y)) / args.seeds)
        payload = {
            "experiment": args.experiment,
            "y": format_rat(y),
            "seeds": args.seeds,
            "frequency": exact_and_decimal(frequency),
            "four_sigma": sigma4,
            "within_four_sigma": abs(float(frequency - y)) <= sigma4,
        }
        print(
            f"crossing frequency {to_decimal(frequency)} for y={format_rat(y)} "
            f"over {args.seeds} seeds (4-sigma band {sigma4:.4f})"
        )
    else:
        if args.experiment == "anchor-swap-backlog":
            filler = args.filler if args.filler else "anchor-swap"
            threshold = parse_rat(args.threshold)
            shown = format_rat(threshold)
        else:
            from .fillers import check_anti_greedy  # cli's start-up skips fillers
            c = parse_rat(args.c)
            check_anti_greedy(args.ell, c)
            filler = args.filler if args.filler else f"anti-greedy:{args.ell},{format_rat(c)}"
            threshold = -1.5 + math.log(args.ell / float(c))
            shown = f"{threshold:.6f}"
        config = GameConfig(
            n=args.n,
            p=args.p,
            steps=args.steps,
            filler=filler,
            emptier="smoothed-greedy",
        )
        stats = backlog_frequency_experiment(config, args.seeds, threshold)
        payload = {
            "experiment": args.experiment,
            "filler": filler,
            "n": args.n,
            "p": args.p,
            "steps": args.steps,
            "seeds": args.seeds,
            "threshold": shown,
            "hits": stats["hits"],
            "frequency": exact_and_decimal(stats["frequency"]),
            "best_backlog": exact_and_decimal(stats["best_backlog"]),
        }
        print(
            f"{args.experiment}: backlog >= {shown} in {stats['hits']}/{args.seeds} "
            f"seeds (best {to_decimal(stats['best_backlog'])})"
        )
    if args.out:
        write_json(Path(args.out) / "report.json", payload)
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache  # built once: each parser is a reference cycle only gen 2 frees
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cupgame",
        description="Exact-rational cup game simulation and checking laboratory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="play one game and write trace files")
    run.add_argument("--config", help="INI run description ([game]/[strategies])")
    run.add_argument("--n", type=int)
    run.add_argument("--p", type=int)
    run.add_argument("--steps", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--filler", help="filler spec, e.g. growth or random:1/2")
    run.add_argument("--emptier", help="emptier spec, e.g. greedy or smoothed-greedy")
    run.add_argument("--truncate", dest="truncation", help="fill cap, e.g. 3 or 7/2")
    run.add_argument("--visibility", choices=(ADAPTIVE, OBLIVIOUS),
                     help="what the filler sees (default: adaptive)")
    run.add_argument("--out", default="out", help="output directory (default: out)")
    run.add_argument("--svg", action="store_true", help="also write backlog.svg")
    run.set_defaults(func=cmd_run)

    check = sub.add_parser("check", help="run invariant checkers over a saved trace")
    check.add_argument("trace", help="directory containing trace.csv + summary.json")
    check.add_argument(
        "--checkers", type=_checker_names, help="comma list (default: all applicable)"
    )
    check.add_argument("--window", type=_window, default=WINDOW)
    check.add_argument("--out", help="report directory (default: the trace directory)")
    check.set_defaults(func=cmd_check)

    sweep = sub.add_parser("sweep", help="max backlog over an (n, p, seed) grid")
    sweep.add_argument("--n", type=_int_list, required=True, help="e.g. 8,16,32,64")
    sweep.add_argument("--p", type=_int_list, required=True)
    sweep.add_argument("--seeds", type=_seed_list, default=[0], help="list or a:b range")
    sweep.add_argument("--steps", type=int, required=True)
    sweep.add_argument("--filler", default="random:1/2")
    sweep.add_argument("--emptier", default="greedy")
    sweep.add_argument("--truncate")
    sweep.add_argument("--out", default="out")
    sweep.set_defaults(func=cmd_sweep)

    lower = sub.add_parser(
        "lowerbound", help="growth filler until its guaranteed backlog threshold"
    )
    lower.add_argument("--n", type=int, required=True)
    lower.add_argument("--p", type=int, required=True)
    lower.add_argument("--emptier", default="greedy")
    lower.add_argument("--seed", type=int, default=0)
    lower.add_argument("--out")
    lower.set_defaults(func=cmd_lowerbound)

    monte = sub.add_parser("montecarlo", help="seeded frequency experiments")
    monte.add_argument("experiment", choices=MONTECARLO_EXPERIMENTS)
    monte.add_argument("--seeds", type=int, default=1000)
    monte.add_argument("--y", default="1/2", help="crossing-prob deposit size")
    monte.add_argument("--n", type=int, default=16)
    monte.add_argument("--p", type=int, default=4)
    monte.add_argument("--steps", type=int, default=1000)
    monte.add_argument("--threshold", default="1", help="anchor-swap backlog target")
    monte.add_argument("--ell", type=int, default=16, help="anti-greedy fill target")
    monte.add_argument("--c", default="1/2", help="anti-greedy width fraction")
    monte.add_argument("--filler", help="override the experiment's filler spec")
    monte.add_argument("--out")
    monte.set_defaults(func=cmd_montecarlo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, PreconditionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
