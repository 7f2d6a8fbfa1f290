"""Single-step game semantics and the run loop.

One step of the p-processor game: the filler distributes at most p units of
water (at most 1 per cup) over the previous state S_{t-1}, producing the
intermediate state I_t; the emptier then picks at most p cups and removes
water from each, producing S_t.  Removal from one cup is min(1, fill) under
the plain policy, or exactly 1-if-fill>=1-else-nothing under the
skip-under-one policy carried by the move.  One function, step, states
that rule: run_game plays every step through it, and traceio.read_trace
replays every saved step through it.

A fill move holds two flat tuples, its cup ids and their ints over a
denominator of its own; the stock fillers and the public constructor use
the lcm of the deposits' denominators in lowest terms (fillers.py says how
each filler gets it).  A step's states inherit the previous state's int
denominator (state.py): apply_fill raises it to an lcm with the move's,
rescaling each cup once, only when the move's does not divide it;
apply_empty, removing 1 or a whole fill, keeps it.  Validating and applying
a move read only ints.

A step record keeps only what cannot be rebuilt: the state the step started
from (the previous record's post, the same object), the two moves, the post
state and the drained cups.  Its intermediate state is rebuilt from the
first two on each access, so a trace holds one state per step.

Strategies never mutate states.  If a strategy emits an illegal move the run
aborts and the trace carries a structured violation report instead of
guessing a repair; clamping would hide strategy bugs the checkers exist to
find.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

from .rational import as_rat, rat
from .rng import FILLER_LABEL, OFFSET_LABEL, stream
from .state import CupState

ADAPTIVE = "adaptive"
OBLIVIOUS = "oblivious"


class ConfigError(ValueError):
    """Rejected configuration or strategy specification."""


def parse_spec(spec: str, kinds: dict, what: str):
    """Split a "name:a,b" strategy spec into its name and parsed parameters.

    kinds maps each spec name to the parsers of its optional parameters, in
    order; a spec may give fewer parameters than parsers, never more.
    """
    name, _, params = spec.partition(":")
    name = name.strip()
    if name not in kinds:
        raise ConfigError(f"unknown {what} spec {spec!r}")
    parsers = kinds[name]
    parts = [part.strip() for part in params.split(",")] if params else []
    if len(parts) > len(parsers):
        raise ConfigError(f"{what} spec {spec!r} takes at most {len(parsers)} parameters")
    try:
        return name, [parse(part) for parse, part in zip(parsers, parts)]
    except ValueError as err:
        raise ConfigError(f"bad parameters in {what} spec {spec!r}: {err}") from None


@dataclass(frozen=True)
class GameConfig:
    n: int
    p: int
    steps: int
    seed: int = 0
    filler: str = "zero"
    emptier: str = "greedy"
    truncation: object = None
    visibility: str = ADAPTIVE

    def __post_init__(self):
        for name in ("n", "p", "steps", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("filler", "emptier"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ConfigError(f"{name} must be a spec string, got {value!r}")
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if not 1 <= self.p <= self.n:
            raise ConfigError(f"p must be in 1..{self.n}, got {self.p}")
        if self.steps < 0:
            raise ConfigError(f"steps must be >= 0, got {self.steps}")
        if not 0 <= self.seed < 1 << 64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.visibility not in (ADAPTIVE, OBLIVIOUS):
            raise ConfigError(f"unknown visibility {self.visibility!r}")
        if self.truncation is not None:
            try:
                truncation = as_rat(self.truncation)
            except ValueError as err:
                raise ConfigError(str(err)) from None
            if truncation <= 1:
                raise ConfigError(f"truncation must be > 1, got {truncation}")
            object.__setattr__(self, "truncation", truncation)


def _cup_id(cup):
    """cup, if it is an int (not a bool): a custom strategy's "1", 1.5 or True
    would otherwise fail mid-step or reach trace.csv as text."""
    if isinstance(cup, bool) or not isinstance(cup, int):
        raise ValueError(f"cup id {cup!r} is not an int")
    return cup


class FillMove:
    """Sparse deposits as ints over one denominator, sorted by cup id.

    `cups` holds the ids that get water, ascending, and `scaled` their
    deposits times `den`, in the same order; zero deposits are dropped.  The
    public constructor takes rationals, rejects duplicate and non-int cup
    ids, and sets `den` to the lcm of their denominators; the stock fillers
    build the int form directly (_wrap).  A move holds only those ints.
    Equality and hashing go by value, through the rational `amounts`, which
    are built from them on each call.
    """

    __slots__ = ("cups", "scaled", "den")

    def __init__(self, amounts):
        if hasattr(amounts, "items"):
            amounts = amounts.items()
        cleaned = []
        seen = set()
        for cup, amount in amounts:
            if _cup_id(cup) in seen:
                raise ValueError(f"duplicate cup id {cup} in fill move")
            seen.add(cup)
            amount = as_rat(amount)
            if amount != 0:
                cleaned.append((cup, amount))
        cleaned.sort()
        self.den = den = lcm(*(amount.denominator for _, amount in cleaned))
        self.cups = tuple(cup for cup, _ in cleaned)
        self.scaled = tuple(
            amount.numerator * (den // amount.denominator) for _, amount in cleaned
        )

    @classmethod
    def _wrap(cls, cups: tuple, scaled: tuple, den: int) -> "FillMove":
        # fillers and replay only: cups must already be sorted and distinct,
        # and scaled their nonzero ints over den, in the same order
        move = object.__new__(cls)
        move.cups = cups
        move.scaled = scaled
        move.den = den
        return move

    @property
    def amounts(self) -> tuple:
        """The exact rational deposits, as sorted (cup, amount) pairs."""
        den = self.den
        return tuple((cup, rat(deposit, den)) for cup, deposit in zip(self.cups, self.scaled))

    def __eq__(self, other):
        return isinstance(other, FillMove) and self.amounts == other.amounts

    def __hash__(self):
        return hash(self.amounts)

    def __repr__(self):
        return f"FillMove(amounts={self.amounts!r})"


@dataclass(slots=True, unsafe_hash=True)
class EmptyMove:
    """Cup selection, sorted; skip_under_one is the removal policy.

    The constructor, which custom emptiers use, sorts the cups and rejects
    duplicates and ids that are not ints.  _wrap checks nothing: it is for
    the stock emptiers and replay only, whose cups are already a sorted
    tuple of distinct int ids.
    """

    cups: tuple[int, ...]
    skip_under_one: bool = False

    def __init__(self, cups, skip_under_one: bool = False):
        cups = tuple(sorted(map(_cup_id, cups)))
        if len(set(cups)) != len(cups):
            raise ValueError(f"duplicate cup ids in empty move: {cups}")
        self.cups = cups
        self.skip_under_one = bool(skip_under_one)

    @classmethod
    def _wrap(cls, cups: tuple, skip_under_one: bool) -> "EmptyMove":
        move = object.__new__(cls)
        move.cups = cups
        move.skip_under_one = skip_under_one
        return move


@dataclass(slots=True)
class StepRecord:
    """One step.  prev is the state it started from: the previous record's
    post (or the trace's initial state), the same object."""

    t: int
    fill: FillMove
    prev: CupState
    empty: EmptyMove
    post: CupState
    drained: tuple[int, ...]  # sorted ids of the cups that lost water

    @property
    def intermediate(self) -> CupState:
        """prev plus fill, rebuilt on each access."""
        return apply_fill(self.prev, self.fill)


@dataclass(frozen=True)
class Violation:
    step: int
    source: str  # "filler" or "emptier"
    reasons: tuple[str, ...]


def _new_highs(pairs) -> list:
    """(i, value, den) for each pair i whose value / den exceeds every earlier
    pair's, compared cross-multiplied; values are >= 0, so the first is one."""
    highs = []
    best, best_den = -1, 1
    for i, (value, den) in enumerate(pairs):
        if value * best_den > best * den:
            best, best_den = value, den
            highs.append((i, value, den))
    return highs


@dataclass(eq=False)  # identity semantics; keeps traces usable as cache keys
class Trace:
    config: GameConfig
    initial: CupState
    records: list[StepRecord]
    violation: Violation | None = None
    _masses: list = field(default=None, init=False, repr=False)
    _maxima: list = field(default=None, init=False, repr=False)

    @property
    def steps_executed(self) -> int:
        return len(self.records)

    def states(self) -> list[CupState]:
        """Post states S_0..S_T."""
        return [self.initial] + [record.post for record in self.records]

    def maxima(self) -> list:
        """(max, den) per post state S_0..S_T: the backlog of S_t is max / den."""
        if self._maxima is None:
            self._maxima = [(max(state.scaled), state.den) for state in self.states()]
        return self._maxima

    def max_backlog(self):
        """Largest backlog of any post state."""
        _, top, den = _new_highs(self.maxima())[-1]
        return rat(top, den)

    def top_masses(self) -> list:
        """(mass, den) per post state S_0..S_T: av_p(S_t) = mass / (den * p).

        mass is the sum of the p largest ints of the state's scaled fills.
        """
        if self._masses is None:
            p = self.config.p
            self._masses = [(sum(state.top_scaled(p)), state.den) for state in self.states()]
        return self._masses

    def empirical_M(self):
        """Largest av_p seen anywhere in the trace."""
        _, mass, den = _new_highs(self.top_masses())[-1]
        return rat(mass, den * self.config.p)

    def record_setting_steps(self) -> list[int]:
        """Steps whose av_p strictly exceeds every earlier step's av_p."""
        return [i + 1 for i, _, _ in _new_highs(self.top_masses()[1:])]


def validate_fill(move: FillMove, config: GameConfig, state: CupState) -> list[str]:
    """Reasons the move is illegal on state; empty list means legal."""
    problems = []
    den = move.den
    cap = config.truncation
    if cap is not None:  # compare fills and deposits over a common denominator
        common = state.den if state.den % den == 0 else lcm(state.den, den)
        fill_scale, deposit_scale = common // state.den, common // den
        limit = cap.numerator * common
    total = 0
    for cup, deposit in zip(move.cups, move.scaled):
        if not 1 <= cup <= config.n:
            problems.append(f"cup id {cup} outside 1..{config.n}")
            continue
        if deposit < 0:
            problems.append(f"negative deposit {rat(deposit, den)} into cup {cup}")
            continue
        if deposit > den:
            problems.append(f"deposit {rat(deposit, den)} into cup {cup} exceeds 1")
        if (
            cap is not None
            and (state.scaled[cup - 1] * fill_scale + deposit * deposit_scale)
            * cap.denominator > limit
        ):
            problems.append(
                f"deposit {rat(deposit, den)} into cup {cup} breaches truncation "
                f"{config.truncation}"
            )
        total += deposit
    if total > config.p * den:
        problems.append(f"total deposit {rat(total, den)} exceeds budget {config.p}")
    return problems


def apply_fill(state: CupState, move: FillMove) -> CupState:
    """Deposit the move into the state; the caller validates legality.  A
    deposit of 1 over the move's den adds the scale itself, with no multiply."""
    den = state.den
    if den % move.den:
        den = lcm(den, move.den)
        rescale = den // state.den
        scaled = [fill * rescale for fill in state.scaled]
    else:
        scaled = list(state.scaled)
    scale = den // move.den
    for cup, deposit in zip(move.cups, move.scaled):
        scaled[cup - 1] += scale if deposit == 1 else deposit * scale
    return CupState._wrap(tuple(scaled), den)


def validate_empty(move: EmptyMove, config: GameConfig) -> list[str]:
    """Reasons the selection is illegal; its cups are sorted, so when its size
    and its two end ids are in range every id is."""
    cups = move.cups
    if len(cups) <= config.p and (not cups or (1 <= cups[0] and cups[-1] <= config.n)):
        return []
    problems = []
    if len(cups) > config.p:
        problems.append(f"selected {len(cups)} cups, budget is {config.p}")
    for cup in cups:
        if not 1 <= cup <= config.n:
            problems.append(f"cup id {cup} outside 1..{config.n}")
    return problems


def apply_empty(state: CupState, move: EmptyMove):
    """Apply removals; returns (new state, sorted ids of the cups that lost water).

    When every selected cup lost water, the ids are the selection's own tuple.
    """
    den = state.den
    skip_under_one = move.skip_under_one
    scaled = list(state.scaled)
    drained = []
    for cup in move.cups:
        fill = scaled[cup - 1]
        if fill >= den:
            scaled[cup - 1] = fill - den
            drained.append(cup)
        elif fill > 0 and not skip_under_one:
            scaled[cup - 1] = 0
            drained.append(cup)
    post = CupState._wrap(tuple(scaled), den)
    return post, move.cups if len(drained) == len(move.cups) else tuple(drained)


def step(config: GameConfig, t: int, state: CupState, move: FillMove, select):
    """Step t from state: validate and apply move, then the removals that
    select(intermediate, p) picks.  Returns the StepRecord, or the Violation
    of the first illegal move."""
    problems = validate_fill(move, config, state)
    if problems:
        return Violation(t, "filler", tuple(problems))
    intermediate = apply_fill(state, move)
    empty = select(intermediate, config.p)
    problems = validate_empty(empty, config)
    if problems:
        return Violation(t, "emptier", tuple(problems))
    post, drained = apply_empty(intermediate, empty)
    return StepRecord(t, move, state, empty, post, drained)


@dataclass
class AdaptiveView:
    """What an adaptive filler observes: the records so far and the state.

    run_game hands a filler one view per game: at call t its records are the
    t - 1 records so far (the trace's own list, grown in place) and its state
    is S_{t-1}.  An oblivious filler is handed None: it sees nothing the
    emptier does.
    """

    records: list[StepRecord]
    state: CupState


def build_filler(config: GameConfig, filler=None):
    """filler, or config's own seeded as every run seeds it, if config's visibility suits it."""
    if filler is None:
        from .fillers import make_filler

        filler = make_filler(config.filler, config, stream(config.seed, FILLER_LABEL))
    if config.visibility == OBLIVIOUS and getattr(filler, "needs_adaptive", False):
        raise ConfigError(f"filler {config.filler!r} needs adaptive visibility")
    return filler


def run_game(config: GameConfig, filler=None, emptier=None, *, stop_when=None) -> Trace:
    """Play the configured game and return its trace.

    filler and emptier default to the strategies named by the config's spec
    strings; pass instances to override.  stop_when(t, post_state) -> bool
    ends the run early (the lower-bound search uses it).
    """
    from .emptiers import make_emptier

    if emptier is None:
        emptier = make_emptier(config.emptier)
    filler = build_filler(config, filler)

    initial_fills = getattr(emptier, "initial_fills", None)  # optional: no offsets
    offsets = initial_fills(config, stream(config.seed, OFFSET_LABEL)) if initial_fills else None
    initial = CupState(offsets) if offsets is not None else CupState.zeros(config.n)

    records: list[StepRecord] = []
    state = initial
    violation = None
    view = AdaptiveView(records, state) if config.visibility == ADAPTIVE else None

    for t in range(1, config.steps + 1):
        if view is not None:
            view.state = state
        record = step(config, t, state, filler.next_move(t, view), emptier.select)
        if type(record) is Violation:
            violation = record
            break
        records.append(record)
        state = record.post
        if stop_when is not None and stop_when(t, state):
            break

    return Trace(config, initial, records, violation)
