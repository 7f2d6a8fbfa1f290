"""Per-layer timing from outside the program.

Nothing under src/ knows it is being measured.  install() replaces the
functions that cupgame looks up at call time with timing wrappers:

- the module globals that run_game, write_trace, read_trace and cli.main
  resolve on every call (engine.validate_fill, traceio.format_rat, ...);
- make_filler/make_emptier, whose wrappers also time the returned
  strategy instances' next_move, select and initial_fills;
- the CupState methods top_cups, prefix_stats and rank_fill;
- every entry of invariants.CHECKERS.

uninstall() puts back every original object.  A span's busy time is its
wall time; its self time is busy time minus the wrapped spans nested in it.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

from cupgame import cli, emptiers, engine, experiments, fillers, invariants, rng, svg, traceio
from cupgame.state import CupState

FAMILIES = ("random", "growth", "harmonic", "anchor-swap", "anti-greedy")

# Per-layer metrics, in the order BENCHMARK.json lists them:
# (metric name, span or counter name, what to read: busy, self, calls, count).
METRICS = (
    [
        (f"engine.{name}.busy_s", f"engine.{name}", "busy")
        for name in ("validate_fill", "apply_fill", "apply_empty", "validate_empty")
    ]
    + [
        ("engine.run_game.self_s", "engine.run_game", "self"),
        ("engine.steps", "engine.steps", "count"),
        ("engine.deposits", "engine.deposits", "count"),
        ("engine.states_retained", "engine.states_retained", "count"),
    ]
    + [
        (f"fillers.{family}.next_move.busy_s", f"fillers.{family}.next_move", "busy")
        for family in FAMILIES
    ]
    + [
        ("fillers.make_filler.busy_s", "fillers.make_filler", "busy"),
        ("emptiers.select.self_s", "emptiers.select", "self"),
        ("state.top_cups.busy_s", "state.top_cups", "busy"),
        ("state.top_cups.calls", "state.top_cups", "calls"),
        ("emptiers.initial_fills.busy_s", "emptiers.initial_fills", "busy"),
        ("rng.stream.busy_s", "rng.stream", "busy"),
        ("rng.stream.calls", "rng.stream", "calls"),
    ]
    + [(f"invariants.{name}.busy_s", f"invariants.{name}", "busy") for name in invariants.CHECKERS]
    + [
        ("invariants.level_series.busy_s", "invariants.level_series", "busy"),
        ("state.prefix_stats.busy_s", "state.prefix_stats", "busy"),
        ("state.rank_fill.calls", "state.rank_fill", "calls"),
        ("traceio.write_trace.self_s", "traceio.write_trace", "self"),
        ("traceio.read_trace.self_s", "traceio.read_trace", "self"),
        ("traceio.summarize.busy_s", "traceio.summarize", "busy"),
        ("traceio.bytes", "traceio.bytes", "count"),
    ]
    + [(f"rational.{name}.busy_s", f"rational.{name}", "busy")
       for name in ("format_rat", "parse_rat", "to_decimal")]
    + [
        ("svg.backlog_svg.busy_s", "svg.backlog_svg", "busy"),
        ("cli.main.self_s", "cli.main", "self"),
        ("experiments.run_lower_bound.self_s", "experiments.run_lower_bound", "self"),
    ]
)


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return {"traceio.bytes": "bytes", "trace_overhead": "1"}.get(name, "count")


class Tracer:
    """Span totals for wrapped calls, plus event counters."""

    def __init__(self):
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._children = []  # nested span time, one slot per open span
        self._patches = []  # (owner, attribute or key, original)

    def timed(self, name: str, fn, after=None):
        """fn wrapped in a span; after(args, result) runs once the span closes."""
        busy, self_time, calls, children = self.busy, self.self_time, self.calls, self._children

        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                nested = children.pop()
                busy[name] += elapsed
                self_time[name] += elapsed - nested
                calls[name] += 1
                if children:
                    children[-1] += elapsed
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _patch(self, owner, attribute: str, replacement):
        if isinstance(owner, dict):
            self._patches.append((owner, attribute, owner[attribute]))
            owner[attribute] = replacement
        else:
            self._patches.append((owner, attribute, vars(owner)[attribute]))
            setattr(owner, attribute, replacement)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        timed, patch = self.timed, self._patch

        def count_trace(args, trace):
            steps = len(trace.records)
            self.counts["engine.steps"] += steps
            self.counts["engine.states_retained"] += 1 + 2 * steps

        def count_deposits(args, state):
            self.counts["engine.deposits"] += len(args[1].amounts)

        def count_bytes(args, paths):
            self.counts["traceio.bytes"] += sum(path.stat().st_size for path in paths)

        run_game = timed("engine.run_game", engine.run_game, count_trace)
        for owner in (engine, experiments, cli):
            patch(owner, "run_game", run_game)
        patch(engine, "validate_fill", timed("engine.validate_fill", engine.validate_fill))
        patch(engine, "apply_fill", timed("engine.apply_fill", engine.apply_fill, count_deposits))
        patch(engine, "validate_empty", timed("engine.validate_empty", engine.validate_empty))
        patch(engine, "apply_empty", timed("engine.apply_empty", engine.apply_empty))
        stream = timed("rng.stream", rng.stream)
        patch(engine, "stream", stream)
        patch(rng, "stream", stream)

        make_filler = timed("fillers.make_filler", fillers.make_filler)

        def traced_make_filler(spec, config, rng_stream):
            filler = make_filler(spec, config, rng_stream)
            family = spec.partition(":")[0].strip()
            filler.next_move = timed(f"fillers.{family}.next_move", filler.next_move)
            return filler

        make_emptier = emptiers.make_emptier

        def traced_make_emptier(spec):
            emptier = make_emptier(spec)
            emptier.select = timed("emptiers.select", emptier.select)
            emptier.initial_fills = timed("emptiers.initial_fills", emptier.initial_fills)
            return emptier

        patch(fillers, "make_filler", traced_make_filler)
        patch(emptiers, "make_emptier", traced_make_emptier)

        patch(CupState, "top_cups", timed("state.top_cups", CupState.top_cups))
        patch(CupState, "prefix_stats", timed("state.prefix_stats", CupState.prefix_stats))
        patch(CupState, "rank_fill", timed("state.rank_fill", CupState.rank_fill))

        for name, checker in list(invariants.CHECKERS.items()):
            patch(invariants.CHECKERS, name, timed(f"invariants.{name}", checker))
        patch(invariants, "level_series", timed("invariants.level_series", invariants.level_series))

        write_trace = timed("traceio.write_trace", traceio.write_trace, count_bytes)
        read_trace = timed("traceio.read_trace", traceio.read_trace)
        for owner in (traceio, cli):
            patch(owner, "write_trace", write_trace)
            patch(owner, "read_trace", read_trace)
        patch(traceio, "summarize", timed("traceio.summarize", traceio.summarize))
        for name in ("format_rat", "parse_rat", "to_decimal"):
            patch(traceio, name, timed(f"rational.{name}", getattr(traceio, name)))

        backlog_svg = timed("svg.backlog_svg", svg.backlog_svg)
        patch(svg, "backlog_svg", backlog_svg)
        patch(cli, "backlog_svg", backlog_svg)
        patch(cli, "main", timed("cli.main", cli.main))
        run_lower_bound = timed("experiments.run_lower_bound", experiments.run_lower_bound)
        patch(experiments, "run_lower_bound", run_lower_bound)
        patch(cli, "run_lower_bound", run_lower_bound)

    def uninstall(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attribute] = original
            else:
                setattr(owner, attribute, original)

    def metrics(self) -> dict:
        """Every per-layer metric, totalled over what ran while installed."""
        tables = {"busy": self.busy, "self": self.self_time, "calls": self.calls,
                  "count": self.counts}
        return {metric: tables[kind].get(key, 0) for metric, key, kind in METRICS}
