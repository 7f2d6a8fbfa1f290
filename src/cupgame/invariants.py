"""Per-trace checkers for the structural facts the analysis rests on.

Each checker replays one mechanically checkable consequence of the game
semantics over a finished trace and returns an InvariantReport: pass/fail,
the parameters used, and on failure a minimal witness (step, cups, values).
A checker refuses a trace that breaks a hypothesis of its lemma, such as the
emptier it is proven for (PreconditionError, from the one table _HYPOTHESES),
rather than reporting meaningless failures.

The level decomposition: the level-i fill of a cup is
h^(i) = max(fill - 2(i-1), 0); a cup is level-i active iff fill >= 2(i-1);
the level-i integer fill is T^(i) = sum_j max(floor(h^(i)_j - 1), 0).  A
deposit f crosses a level-i threshold s (integer, s >= 2) at step t when
h^(i)(t-1) < s <= h^(i)(t-1) + f.  Unit removals decrease a positive integer
fill by exactly one per drained cup, which is what makes T^(i) obey an exact
conservation law under the skip-under-one emptier.  The level checkers run
level 1, and level i + 1 when level i's integer fill is positive at some step
(T^(i) > 0 iff some cup holds a fill >= 2i, which opens level i + 1).

The checkers read the cup states' ints (state.py) and Trace's run statistics,
such as its record-setting steps: a fill is scaled/den, so floors are
scaled // den and comparisons cross-multiply.  Deposit sums and offsets are
over one trace denominator D, the lcm of every state's den and deposit's,
summed as the checkers walk: no checker tables the trace.  A rational is
built only for a witness or a report parameter.
"""

from __future__ import annotations

import math
import weakref
from collections import deque
from itertools import accumulate
from dataclasses import dataclass

from .engine import Trace
from .rational import ONE, ZERO, floor_rat, format_rat, rat
from .state import harmonic_number

GREEDY = "greedy"
SMOOTHED = "smoothed-greedy"


class PreconditionError(Exception):
    """The trace does not satisfy the checker's hypotheses."""


@dataclass
class InvariantReport:
    check: str
    passed: bool
    params: dict
    witness: dict | None = None

    def to_jsonable(self) -> dict:
        return {
            "check": self.check,
            "passed": self.passed,
            "params": _jsonify(self.params),
            "witness": _jsonify(self.witness),
        }


def _jsonify(value):
    if value is None or isinstance(value, (bool, int, str, float)):
        return value
    if isinstance(value, dict):
        return {str(key): _jsonify(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    return format_rat(value)  # exact rationals


PROGRESS_D = 4  # the analysis constant d of the filler-progress lemma
WINDOW = 256  # default longest interval the working-set checker examines

# The hypotheses each checker's lemma is proven under: the emptiers it holds
# for, then further (holds(trace), what the checker needs) conditions.
_CAPPED = (lambda trace: trace.config.truncation is not None, "a truncation cap")
_SPARE_CUP = (lambda trace: trace.config.n >= trace.config.p + 1, "n >= p + 1")
_ONE_PROCESSOR = (lambda trace: trace.config.p == 1, "p = 1")
_EMPTY_START = (lambda trace: not any(trace.initial.scaled), "an empty starting state")
_HYPOTHESES = {
    "truncated-tail": ((GREEDY,), _CAPPED),
    "cup-reset": ((GREEDY, SMOOTHED),),
    "record-gap": ((GREEDY,), _SPARE_CUP),
    "single-av": ((GREEDY,), _ONE_PROCESSOR, _EMPTY_START),
    "level-conservation": ((SMOOTHED,),),
    "level-progress": ((SMOOTHED,),),
    "working-set": ((SMOOTHED,),),
    "fractional": ((SMOOTHED,),),
}


def _unmet(trace: Trace, check: str) -> str | None:
    """The first hypothesis of the check's lemma the trace breaks, or None."""
    emptiers, *conditions = _HYPOTHESES[check]
    emptier = trace.config.emptier
    if emptier not in emptiers:
        return f"{check} needs an emptier in {emptiers}, trace used {emptier!r}"
    for holds, needed in conditions:
        if not holds(trace):
            return f"{check} needs {needed}"
    return None


def _require(trace: Trace, check: str):
    unmet = _unmet(trace, check)
    if unmet is not None:
        raise PreconditionError(unmet)


# ---------------------------------------------------------------------------
# plain-greedy invariants


def _tail_bounds(n: int, last: int) -> list:
    """[None] then k * (1 + sum_{j=k+1}^n 1/j) for k = 1..last, in O(n).

    One backward pass accumulates the suffix sums 1 + sum_{j=k+1}^n 1/j.
    """
    bounds = [None] * (last + 1)
    tail = ONE
    for k in range(n, 0, -1):
        if k <= last:
            bounds[k] = k * tail
        tail += rat(1, k)
    return bounds


def _tail_scan(trace, name, params, skip, charged, value_key) -> InvariantReport:
    """Charged top-(skip + k) mass against k * (1 + sum_{j=k+1}^n 1/j), all k, t.

    One walk down each state's sorted ints: the running mass of the skip + k
    fullest cups, less the charge, must not exceed the k-th tail bound.
    """
    n = trace.config.n
    bounds = _tail_bounds(n, n - skip)
    limits = {}  # state den -> largest scaled mass each bound allows
    for t, state in enumerate(trace.states()):
        den = state.den
        limit = limits.get(den)
        if limit is None:
            limit = limits[den] = [None] + [
                floor_rat((bounds[k] + charged) * den) for k in range(1, n - skip + 1)
            ]
        mass = 0
        for k, fill in enumerate(state.top_scaled(n), start=1 - skip):
            mass += fill
            if k > 0 and mass > limit[k]:
                value = (rat(mass, den) - charged) / k
                witness = {"t": t, "k": k, value_key: value, "bound": bounds[k] / k}
                return InvariantReport(name, False, params, witness)
    return InvariantReport(name, True, params)


def check_truncated_invariant(trace: Trace) -> InvariantReport:
    """Skewed averages of a truncated greedy game obey the harmonic tail.

    For every step t and every k in 1..n-p, the N-skewed average of the k
    cups below the top p satisfies f^N_k(S_t) <= 1 + sum_{j=k+1}^n 1/j.
    """
    _require(trace, "truncated-tail")
    truncation = trace.config.truncation
    n, p = trace.config.n, trace.config.p
    params = {"n": n, "p": p, "truncation": truncation}
    return _tail_scan(trace, "truncated-tail", params, p, p * truncation, "value")


def check_cup_reset(trace: Trace) -> InvariantReport:
    """A cup whose rank fill rose was refilled, so nearby ranks are close.

    If S_t(j) > S_{t-1}(j) for some j <= p, then every rank j+1..p+1 of S_t
    holds at least S_t(j) - 1.
    """
    _require(trace, "cup-reset")
    n, p = trace.config.n, trace.config.p
    params = {"n": n, "p": p}
    floor_rank = min(p + 1, n)
    prev_den, prev = trace.initial.den, trace.initial.top_scaled(floor_rank)
    for t, record in enumerate(trace.records, start=1):
        den, cur = record.post.den, record.post.top_scaled(floor_rank)
        low = cur[floor_rank - 1]
        for j in range(1, min(p, n) + 1):
            fill = cur[j - 1]
            if fill * prev_den > prev[j - 1] * den and low < fill - den:
                return InvariantReport(
                    "cup-reset",
                    False,
                    params,
                    {
                        "t": t,
                        "rank": j,
                        "fill": rat(fill, den),
                        "previous_fill": rat(prev[j - 1], prev_den),
                        "rank_fill_p_plus_1": rat(low, den),
                    },
                )
        prev_den, prev = den, cur
    return InvariantReport("cup-reset", True, params)


def check_record_constraints(trace: Trace) -> InvariantReport:
    """Record-setting states are flat near the top.

    At every record-setting step t: for each i in 1..p the cups ranked
    i+1..p+1 average at least S_t(i) - 1, and the rank-1 to rank-(p+1) gap
    is at most H_p = sum_{j=1}^p 1/j.
    """
    _require(trace, "record-gap")
    n, p = trace.config.n, trace.config.p
    gap_bound = harmonic_number(p)
    params = {"n": n, "p": p, "gap_bound": gap_bound}
    states = trace.states()
    for t in trace.record_setting_steps():
        den = states[t].den
        top = states[t].top_scaled(p + 1)
        for i in range(1, p + 1):
            mass = sum(top[i:])
            if mass < (p + 1 - i) * (top[i - 1] - den):
                return InvariantReport(
                    "record-gap",
                    False,
                    params,
                    {
                        "t": t,
                        "i": i,
                        "tail_average": rat(mass, den * (p + 1 - i)),
                        "rank_fill": rat(top[i - 1], den),
                    },
                )
        gap = top[0] - top[p]
        if gap * gap_bound.denominator > gap_bound.numerator * den:
            return InvariantReport(
                "record-gap",
                False,
                params,
                {"t": t, "gap": rat(gap, den), "bound": gap_bound},
            )
    return InvariantReport("record-gap", True, params)


def check_av_invariant_single(trace: Trace) -> InvariantReport:
    """Single-processor greedy keeps every top-k average under the tail bound.

    For every step t and k in 1..n: av_k(S_t) <= 1 + sum_{j=k+1}^n 1/j.
    """
    _require(trace, "single-av")
    params = {"n": trace.config.n}
    return _tail_scan(trace, "single-av", params, 0, ZERO, "average")


# ---------------------------------------------------------------------------
# level decomposition


@dataclass
class LevelStats:
    """Per-step level-i series computed once per (trace, level)."""

    level: int
    active: list[int]  # A(t), t = 0..T: cups with fill >= 2(level-1)
    integer_fill: list[int]  # T(t), t = 0..T
    crossings: list[int]  # index t = 1..T (index 0 unused)
    crossing_cups: list[tuple[int, ...]]  # cups with a crossing at step t
    drains: list[int]  # index t = 1..T: drained cups whose level fill was >= 2


_level_cache: "weakref.WeakKeyDictionary[Trace, dict]" = weakref.WeakKeyDictionary()


def _state_level_numbers(state, level: int):
    floor_gate = 2 * (level - 1)
    den = state.den
    active = 0
    integer_fill = 0
    for scaled in state.scaled:
        whole = scaled // den  # floor(fill): fill >= gate iff whole >= gate
        if whole >= floor_gate:
            active += 1
            if whole > floor_gate + 1:
                integer_fill += whole - floor_gate - 1
    return active, integer_fill


def level_series(trace: Trace, level: int) -> LevelStats:
    cache = _level_cache.setdefault(trace, {})
    if level in cache:
        return cache[level]
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    active = []
    integer_fill = []
    crossings = [0]
    crossing_cups: list[tuple[int, ...]] = [()]
    drains = [0]
    a0, t0 = _state_level_numbers(trace.initial, level)
    active.append(a0)
    integer_fill.append(t0)
    den = _trace_den(trace)
    gate = 2 * (level - 1) * den
    full = gate + 2 * den  # a level fill >= 2, as a fill over D
    for record in trace.records:
        count = 0
        cups = []
        previous = record.prev
        scale, step = den // previous.den, den // record.fill.den
        fills = previous.scaled
        deposited = dict.fromkeys(record.drained, 0)  # a drained cup's deposit over D
        for cup, amount in zip(record.fill.cups, record.fill.scaled):
            before = max(fills[cup - 1] * scale - gate, 0)  # h^(i) over D
            hit = (before + amount * step) // den - max(before // den, 1)
            if hit > 0:
                count += hit
                cups.append(cup)
            if cup in deposited:
                deposited[cup] = amount * step
        crossings.append(count)
        crossing_cups.append(tuple(cups))
        drains.append(sum(fills[cup - 1] * scale + deposited[cup] >= full
                          for cup in record.drained))
        a, ti = _state_level_numbers(record.post, level)
        active.append(a)
        integer_fill.append(ti)
    stats = LevelStats(
        level=level,
        active=active,
        integer_fill=integer_fill,
        crossings=crossings,
        crossing_cups=crossing_cups,
        drains=drains,
    )
    cache[level] = stats
    return stats


def _trace_den(trace: Trace) -> int:
    """D, the lcm of every state's den and every deposit's denominator.

    The last state's den would not do: a forged trace's dens need not grow.
    """
    dens = {den for record in trace.records for den in (record.post.den, record.fill.den)}
    return math.lcm(trace.initial.den, *dens)


def _log2(n: int):
    if n & (n - 1) == 0:
        return n.bit_length() - 1  # exact for powers of two
    return math.log2(n)


# ---------------------------------------------------------------------------
# smoothed-greedy invariants


def check_level_conservation(trace: Trace, level: int) -> InvariantReport:
    """T^(i) changes by crossings minus unit drains of 2-plus level fills.

    Exact bookkeeping identity: T^(i)(t) = T^(i)(t-1) + crossings_i(t)
    - #{drained cups whose intermediate level fill was >= 2}.  Holds because
    the skip-under-one emptier only ever removes whole units.
    """
    _require(trace, "level-conservation")
    stats = level_series(trace, level)
    params = {"level": level}
    for t in range(1, trace.steps_executed + 1):
        expected = stats.integer_fill[t - 1] + stats.crossings[t] - stats.drains[t]
        if stats.integer_fill[t] != expected:
            return InvariantReport(
                "level-conservation",
                False,
                params,
                {
                    "t": t,
                    "integer_fill": stats.integer_fill[t],
                    "expected": expected,
                    "crossings": stats.crossings[t],
                    "drains": stats.drains[t],
                },
            )
    return InvariantReport("level-conservation", True, params)


def check_filler_progress(trace: Trace, level: int) -> InvariantReport:
    """Sustained high integer fill forces the filler to keep crossing.

    For each t1, with t0 the largest step <= t1 whose preceding integer fill
    was at most d(p-1)log2(n): crossings over t0..t1 must be at least
    p(t1 - t0 + 1) + T^(i)(t1) - d p log2(n).
    """
    _require(trace, "level-progress")
    n, p = trace.config.n, trace.config.p
    log2n = _log2(n)
    threshold = PROGRESS_D * (p - 1) * log2n
    slack = PROGRESS_D * p * log2n
    stats = level_series(trace, level)
    params = {"level": level, "d": PROGRESS_D, "threshold": threshold}
    cumulative = [0]
    for count in stats.crossings[1:]:
        cumulative.append(cumulative[-1] + count)
    t0 = None
    for t1 in range(1, trace.steps_executed + 1):
        if stats.integer_fill[t1 - 1] <= threshold:
            t0 = t1
        if t0 is None:
            continue
        crossings = cumulative[t1] - cumulative[t0 - 1]
        required = p * (t1 - t0 + 1) + stats.integer_fill[t1] - slack
        if crossings < required:
            return InvariantReport(
                "level-progress",
                False,
                params,
                {
                    "t0": t0,
                    "t1": t1,
                    "crossings": crossings,
                    "required": required,
                    "integer_fill": stats.integer_fill[t1],
                },
            )
    return InvariantReport("level-progress", True, params)


def check_working_set(trace: Trace, level: int, window: int = WINDOW) -> InvariantReport:
    """Crossing-heavy intervals use few cups, and those cups got the water.

    For every interval [t0, t1] with t1 - t0 < window in which crossings
    reach p(t1 - t0 + 1): the set S of cups that crossed satisfies
    |S| <= 2 A^(i)(t0 - 1), and the deposits into S over the interval total
    at least p(t1 - t0 + 1) - |S|.

    With s(t) = (crossings over steps 1..t) - p t, the interval [t0, t1] is
    heavy iff s(t1) >= s(t0 - 1).  A sliding maximum of s over each window
    (a monotone deque, O(T) in all) skips every t0 whose window holds no
    heavy interval; the scan of the others, and so the witness, is unchanged.
    Deposits per cup are summed from t0 only as far as a heavy [t0, t1] needs.
    """
    _require(trace, "working-set")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    p = trace.config.p
    stats = level_series(trace, level)
    den = _trace_den(trace)
    params = {"level": level, "window": window}
    steps = trace.steps_executed
    s = list(accumulate((count - p for count in stats.crossings[1:]), initial=0))
    starts = []
    # the window [t0, t0 + window - 1] slides left; ends holds its candidate
    # t1s in order, s rising to the window's maximum at the right
    ends = deque()
    for t0 in range(steps, 0, -1):
        while ends and s[ends[0]] <= s[t0]:
            ends.popleft()
        ends.appendleft(t0)
        if ends[-1] >= t0 + window:
            ends.pop()
        if s[ends[-1]] >= s[t0 - 1]:
            starts.append(t0)
    for t0 in reversed(starts):
        crossings = 0
        cups: set[int] = set()
        sums = [0] * (trace.config.n + 1)  # D times each cup's deposits over t0..upto
        upto = t0 - 1
        for t1 in range(t0, min(steps, t0 + window - 1) + 1):
            crossings += stats.crossings[t1]
            if stats.crossing_cups[t1]:
                cups.update(stats.crossing_cups[t1])
            length = t1 - t0 + 1
            if crossings < p * length:
                continue
            active_before = stats.active[t0 - 1]
            if len(cups) > 2 * active_before:
                return InvariantReport(
                    "working-set",
                    False,
                    params,
                    {
                        "t0": t0,
                        "t1": t1,
                        "set_size": len(cups),
                        "active_before": active_before,
                        "cups": sorted(cups),
                    },
                )
            for record in trace.records[upto:t1]:  # bring the sums up to t1
                step = den // record.fill.den
                for cup, amount in zip(record.fill.cups, record.fill.scaled):
                    sums[cup] += amount * step
            upto = t1
            deposits = sum(sums[cup] for cup in cups)
            required = p * length - len(cups)
            if deposits < required * den:
                return InvariantReport(
                    "working-set",
                    False,
                    params,
                    {
                        "t0": t0,
                        "t1": t1,
                        "deposits": rat(deposits, den),
                        "required": required,
                        "cups": sorted(cups),
                    },
                )
    return InvariantReport("working-set", True, params)


def check_fractional_preservation(trace: Trace) -> InvariantReport:
    """Fill minus offset minus cumulative deposit stays an integer per cup."""
    _require(trace, "fractional")
    den = _trace_den(trace)
    start = trace.initial
    # D times each cup's offset plus its deposits so far
    expected = [scaled * (den // start.den) for scaled in start.scaled]
    params = {"n": trace.config.n}
    for t, record in enumerate(trace.records, start=1):
        step = den // record.fill.den
        for cup, amount in zip(record.fill.cups, record.fill.scaled):
            expected[cup - 1] += amount * step
        scale = den // record.post.den
        for cup, (fill, base) in enumerate(zip(record.post.scaled, expected), start=1):
            delta = fill * scale - base
            if delta % den:
                return InvariantReport(
                    "fractional",
                    False,
                    params,
                    {"t": t, "cup": cup, "residue": rat(delta, den)},
                )
    return InvariantReport("fractional", True, params)


# ---------------------------------------------------------------------------
# suite driver


def _levels_report(trace, single, *args) -> InvariantReport:
    """One report over the levels: 1, then i + 1 while T^(i) > 0 at some step."""
    reports = [single(trace, 1, *args)]
    while any(level_series(trace, len(reports)).integer_fill):
        reports.append(single(trace, len(reports) + 1, *args))
    name = reports[0].check
    failed = [report for report in reports if not report.passed]
    params = dict(reports[0].params)
    params["levels"] = len(reports)
    if failed:
        witness = dict(failed[0].witness)
        witness["level"] = failed[0].params["level"]
        return InvariantReport(name, False, params, witness)
    return InvariantReport(name, True, params)


# one call shape for every entry, CHECKERS[name](trace, window); the names are
# the keys of _HYPOTHESES, and perfbench/tracing.py wraps each entry by name
CHECKERS = {
    "truncated-tail": lambda trace, window: check_truncated_invariant(trace),
    "cup-reset": lambda trace, window: check_cup_reset(trace),
    "record-gap": lambda trace, window: check_record_constraints(trace),
    "single-av": lambda trace, window: check_av_invariant_single(trace),
    "level-conservation": lambda trace, window: _levels_report(
        trace, check_level_conservation
    ),
    "level-progress": lambda trace, window: _levels_report(
        trace, check_filler_progress
    ),
    "working-set": lambda trace, window: _levels_report(
        trace, check_working_set, window
    ),
    "fractional": lambda trace, window: check_fractional_preservation(trace),
}


def applicable_checkers(trace: Trace) -> list[str]:
    return [name for name in CHECKERS if _unmet(trace, name) is None]


def run_checkers(trace: Trace, names=None, *, window: int = WINDOW):
    """Run the named checkers (default: all applicable, at least one) over the trace."""
    if names is None:
        names = applicable_checkers(trace)
        if not names:
            raise PreconditionError(f"no checker covers emptier {trace.config.emptier!r}")
    reports = []
    for name in names:
        if name not in CHECKERS:
            raise ValueError(f"unknown checker {name!r}")
        reports.append(CHECKERS[name](trace, window))
    return reports
