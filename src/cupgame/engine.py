"""Single-step game semantics and the run loop.

One step of the p-processor game: the filler distributes at most p units of
water (at most 1 per cup) over the previous state S_{t-1}, producing the
intermediate state I_t; the emptier then picks at most p cups and removes
water from each, producing S_t.  Removal from one cup is min(1, fill) under
the plain policy, or exactly 1-if-fill>=1-else-nothing under the
skip-under-one policy carried by the move.

A fill move holds ints over a denominator of its own; the stock fillers
and the public constructor use the lcm of the deposits' denominators in
lowest terms (fillers.py says how each filler gets it).  A step's states
inherit the previous state's int denominator (state.py): apply_fill raises
it to an lcm with the move's, rescaling each cup once, only when the move's
does not divide it; apply_empty, removing 1 or a whole fill, keeps it.
Validating and applying a move read only ints.

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


class FillMove:
    """Sparse deposits as ints over one denominator, sorted by cup id.

    `scaled` holds (cup, deposit * den) pairs, zero deposits dropped.  The
    public constructor takes rationals and sets `den` to the lcm of their
    denominators; the stock fillers build the int form directly (_wrap).
    Equality and hashing go by value, through the rational `amounts`, which
    are built on first use.
    """

    __slots__ = ("scaled", "den", "_amounts")

    def __init__(self, amounts):
        if hasattr(amounts, "items"):
            amounts = amounts.items()
        cleaned = []
        seen = set()
        for cup, amount in amounts:
            if cup in seen:
                raise ValueError(f"duplicate cup id {cup} in fill move")
            seen.add(cup)
            amount = as_rat(amount)
            if amount != 0:
                cleaned.append((cup, amount))
        cleaned.sort()
        self.den = den = lcm(*(amount.denominator for _, amount in cleaned))
        self.scaled = tuple(
            (cup, amount.numerator * (den // amount.denominator)) for cup, amount in cleaned
        )
        self._amounts = tuple(cleaned)

    @classmethod
    def _wrap(cls, scaled: tuple, den: int) -> "FillMove":
        # fillers and replay only: scaled must already be sorted by cup, with
        # distinct cups and nonzero ints over den
        move = object.__new__(cls)
        move.scaled = scaled
        move.den = den
        move._amounts = None
        return move

    @property
    def amounts(self) -> tuple:
        """The exact rational deposits, as sorted (cup, amount) pairs."""
        if self._amounts is None:
            self._amounts = tuple((cup, rat(deposit, self.den)) for cup, deposit in self.scaled)
        return self._amounts

    def __eq__(self, other):
        return isinstance(other, FillMove) and self.amounts == other.amounts

    def __hash__(self):
        return hash(self.amounts)

    def __repr__(self):
        return f"FillMove(amounts={self.amounts!r})"


@dataclass(frozen=True)
class EmptyMove:
    """Cup selection, sorted; skip_under_one is the removal policy."""

    cups: tuple[int, ...]
    skip_under_one: bool = False

    def __init__(self, cups, skip_under_one: bool = False):
        cups = tuple(sorted(cups))
        if len(set(cups)) != len(cups):
            raise ValueError(f"duplicate cup ids in empty move: {cups}")
        object.__setattr__(self, "cups", cups)
        object.__setattr__(self, "skip_under_one", bool(skip_under_one))


@dataclass(frozen=True)
class StepRecord:
    t: int
    fill: FillMove
    intermediate: CupState
    empty: EmptyMove
    post: CupState
    drained: tuple[int, ...]  # sorted ids of the cups that lost water


@dataclass(frozen=True)
class Violation:
    step: int
    source: str  # "filler" or "emptier"
    reasons: tuple[str, ...]


@dataclass(eq=False)  # identity semantics; keeps traces usable as cache keys
class Trace:
    config: GameConfig
    initial: CupState
    records: list[StepRecord]
    violation: Violation | None = None
    _masses: list = field(default=None, repr=False, compare=False)
    _max_backlog: object = field(default=None, repr=False, compare=False)

    @property
    def steps_executed(self) -> int:
        return len(self.records)

    def states(self) -> list[CupState]:
        """Post states S_0..S_T."""
        return [self.initial] + [record.post for record in self.records]

    def max_backlog(self):
        """Largest backlog of any post state, compared as ints across dens."""
        if self._max_backlog is None:
            top, den = 0, 1
            for state in self.states():
                fill = max(state.scaled)
                if fill * den > top * state.den:
                    top, den = fill, state.den
            self._max_backlog = rat(top, den)
        return self._max_backlog

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
        top, den = 0, 1
        for mass, mass_den in self.top_masses():
            if mass * den > top * mass_den:
                top, den = mass, mass_den
        return rat(top, den * self.config.p)


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
    for cup, deposit in move.scaled:
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
    """Deposit the move into the state; the caller validates legality."""
    den = state.den
    if den % move.den:
        den = lcm(den, move.den)
        rescale = den // state.den
        scaled = [fill * rescale for fill in state.scaled]
    else:
        scaled = list(state.scaled)
    scale = den // move.den
    for cup, deposit in move.scaled:
        scaled[cup - 1] += deposit * scale
    return CupState._wrap(tuple(scaled), den)


def validate_empty(move: EmptyMove, config: GameConfig) -> list[str]:
    problems = []
    if len(move.cups) > config.p:
        problems.append(f"selected {len(move.cups)} cups, budget is {config.p}")
    for cup in move.cups:
        if not 1 <= cup <= config.n:
            problems.append(f"cup id {cup} outside 1..{config.n}")
    return problems


def apply_empty(state: CupState, move: EmptyMove):
    """Apply removals; returns (new state, sorted ids of the cups that lost water)."""
    den = state.den
    scaled = list(state.scaled)
    drained = []
    for cup in move.cups:
        fill = scaled[cup - 1]
        if fill >= den:
            scaled[cup - 1] = fill - den
            drained.append(cup)
        elif fill > 0 and not move.skip_under_one:
            scaled[cup - 1] = 0
            drained.append(cup)
    return CupState._wrap(tuple(scaled), den), tuple(drained)


@dataclass
class AdaptiveView:
    """What an adaptive filler observes: the records so far and the state.

    An oblivious filler is handed None: it sees nothing the emptier does.
    """

    records: list[StepRecord]
    state: CupState


def run_game(config: GameConfig, filler=None, emptier=None, *, stop_when=None) -> Trace:
    """Play the configured game and return its trace.

    filler and emptier default to the strategies named by the config's spec
    strings; pass instances to override.  stop_when(t, post_state) -> bool
    ends the run early (the lower-bound search uses it).
    """
    from .emptiers import make_emptier
    from .fillers import make_filler

    if emptier is None:
        emptier = make_emptier(config.emptier)
    if filler is None:
        filler = make_filler(config.filler, config, stream(config.seed, FILLER_LABEL))
    if config.visibility == OBLIVIOUS and getattr(filler, "needs_adaptive", False):
        raise ConfigError(
            f"filler {config.filler!r} needs adaptive visibility"
        )

    offsets = emptier.initial_fills(config, stream(config.seed, OFFSET_LABEL))
    initial = CupState(offsets) if offsets is not None else CupState.zeros(config.n)

    records: list[StepRecord] = []
    state = initial
    violation = None
    adaptive = config.visibility == ADAPTIVE

    for t in range(1, config.steps + 1):
        view = AdaptiveView(records, state) if adaptive else None
        move = filler.next_move(t, view)
        problems = validate_fill(move, config, state)
        if problems:
            violation = Violation(t, "filler", tuple(problems))
            break
        intermediate = apply_fill(state, move)
        empty = emptier.select(intermediate, config.p)
        problems = validate_empty(empty, config)
        if problems:
            violation = Violation(t, "emptier", tuple(problems))
            break
        post, drained = apply_empty(intermediate, empty)
        records.append(StepRecord(t, move, intermediate, empty, post, drained))
        state = post
        if stop_when is not None and stop_when(t, post):
            break

    return Trace(config, initial, records, violation)
