"""Filler strategies.

Two kernels carry the paper's lower-bound constructions:

ShrinkingPassFiller (adaptive: it watches the emptier)
    Tops up A anchor cups with 1 unit each and spreads the leftover budget
    as 1/|U| over a target set U of the other cups; a cup leaves U when the
    emptier removes water from it, and when |U| < 2 the pass is complete and
    U resets.  Against a one-cup-per-step emptier the surviving cup
    accumulates 1/2 + 1/3 + ... + 1/|U0|.  With anchors, a step that drains
    two or more targets (the emptier neglected the anchors) restarts the pass.

    harmonic      A = 0: the pass runs over all n cups.
    growth        A = p-1; at p = 1 it plays exactly as harmonic.

SpreadShrinkFiller (oblivious: it never sees the emptier or any cup state)
    Phases of rounds; each round deposits 1 unit per anchor (cups 1..p-1 at
    the start) and spreads 1 unit over a working set B of the smallest-
    numbered non-anchor cups that loses one random member per step (future
    deposits only; fills persist).  Its moves are one generator, its loops
    the construction's phases, rounds and steps, played by ObliviousFiller.

    anchor-swap   P phases of R rounds of L steps, |B| = L+1; one random
                  round per phase replaces a random anchor with the round's
                  surviving B cup.
    anti-greedy   PHASES phases of one round each over |B| = floor(C*ELL)
                  cups, B = {p, ...}; no anchor churn.

Test and fuzz fillers:

random        legal fuzz moves: random support, random small-denominator
              amounts, clamped to the budget (and to the truncation cap when
              one is configured, which needs adaptive visibility).  It draws
              exactly the getrandbits calls that random.sample and randrange
              would, so seeds frozen from those calls replay.
zero          deposits nothing: an ObliviousFiller with no moves.

ObliviousFiller plays any fixed iterable of FillMoves, a script or a
generator, then the empty move.

Spec strings: "zero", "random:DENSITY", "harmonic", "growth",
"anchor-swap:P,R,L", "anti-greedy:ELL,C,PHASES"; trailing parameters may be
left off for their defaults (engine.parse_spec).

Every move is built as ints over the lcm of its deposits' denominators in
lowest terms (engine.FillMove), so equal moves carry equal ints.  Both kernels
move over |U| (or |B|): an anchor gets |U|, a target 1.  random keeps its
budget and amounts over 840 = lcm(1..8), raised to an lcm with the state's
and the cap's denominators only when a truncation cap is set, and divides
out the amounts' common factor with one gcd at the end.
"""

from __future__ import annotations

import itertools
import math

from .engine import ConfigError, FillMove, GameConfig, parse_spec
from .rational import as_rat, floor_rat, parse_rat, rat

AMOUNT_DEN = 840  # lcm(1..8): every amount the random filler draws is k/840
_BITS = tuple(m.bit_length() for m in range(10))  # bits of a draw below m <= 9
_NO_MOVE = FillMove._wrap((), (), 1)


class ObliviousFiller:
    """Plays a fixed sequence of FillMoves, then the empty move; with none it
    is the zero filler.  It never reads its view."""

    needs_adaptive = False

    def __init__(self, moves=()):
        self._moves = iter(moves)

    def next_move(self, t, view) -> FillMove:
        return next(self._moves, _NO_MOVE)


class RandomFiller:
    """Seeded fuzzer emitting arbitrary legal moves.

    A move draws a support size c = randrange(max_support + 1), a support
    random.sample(range(1, n + 1), c) and, per support cup in draw order,
    d = 1 + randrange(8) and an amount randrange(d + 1) / d.  The draws are
    written out as the stdlib's getrandbits rejection loops (m.bit_length()
    bits for a draw below m, and sample's pool list or selected set, chosen
    by its setsize rule), so the filler consumes exactly the bits those calls
    would: its moves and rng state equal theirs, and seeds frozen before the
    draws were inlined replay.  Once the budget is spent every later amount
    clamps to 0, so the later support cups only make their two draws.
    """

    def __init__(self, config: GameConfig, rng, density=rat(1, 2)):
        density = as_rat(density)
        if not 0 <= density <= 1:
            raise ConfigError(f"random filler density must be in [0, 1], got {density}")
        self.config = config
        self.rng = rng
        self.max_support = floor_rat(density * config.n)
        # clamping against the truncation cap reads current fills
        self.needs_adaptive = config.truncation is not None

    def next_move(self, t, view) -> FillMove:
        if self.max_support == 0:
            return _NO_MOVE
        # a draw below m is _randbelow's loop over m.bit_length() bits
        getrandbits = self.rng.getrandbits
        n = self.config.n
        m = self.max_support + 1
        bits = m.bit_length()
        count = getrandbits(bits)
        while count >= m:
            count = getrandbits(bits)
        # random.sample(range(1, n + 1), count) in 0-based indices, draw for
        # draw: a pool list if it is smaller than a count-sized set, else a set
        setsize = 21
        if count > 5:
            setsize += 4 ** math.ceil(math.log(count * 3, 4))
        if n <= setsize:
            pool = list(range(n))
            support = []
            for m in range(n, n - count, -1):
                bits = m.bit_length()
                j = getrandbits(bits)
                while j >= m:
                    j = getrandbits(bits)
                support.append(pool[j])
                pool[j] = pool[m - 1]
        else:
            bits = n.bit_length()
            support = {}  # the selected set, in draw order
            for _ in range(count):
                j = getrandbits(bits)
                while j >= n or j in support:
                    j = getrandbits(bits)
                support[j] = None
        cap = self.config.truncation
        den = AMOUNT_DEN
        if cap is not None:  # headroom is cap minus fill over their common den
            state = view.state
            den = math.lcm(den, state.den, cap.denominator)
            fill_scale = den // state.den
            limit = cap.numerator * (den // cap.denominator)
        budget = self.config.p * den
        pairs = []
        support = iter(support)
        for j in support:  # 0-based: cup j + 1
            draw = getrandbits(4)  # 1 + randrange(8): 8.bit_length() bits
            while draw >= 8:
                draw = getrandbits(4)
            draw += 1
            m = draw + 1  # amount = randrange(draw + 1) / draw
            bits = _BITS[m]
            amount = getrandbits(bits)
            while amount >= m:
                amount = getrandbits(bits)
            amount *= den // draw
            if amount > budget:
                amount = budget
            if cap is not None:
                headroom = limit - state.scaled[j] * fill_scale
                if amount > headroom:
                    amount = headroom
            if amount > 0:
                pairs.append((j + 1, amount))
                budget -= amount
                if budget == 0:
                    break
        # the budget is spent: every later amount clamps to 0, but its two
        # draws still come off the stream
        for _ in support:
            draw = getrandbits(4)
            while draw >= 8:
                draw = getrandbits(4)
            m = draw + 2
            bits = _BITS[m]
            while getrandbits(bits) >= m:
                pass
        pairs.sort()
        cups, amounts = zip(*pairs) if pairs else ((), ())
        common = math.gcd(den, *amounts)
        return FillMove._wrap(cups, tuple(amount // common for amount in amounts), den // common)


class ShrinkingPassFiller:
    """Anchors topped up to 1 unit, the rest spread over a shrinking pass.

    The pass deposits 1/|U| into every cup of U, which starts as all
    non-anchor cups; a cup leaves U once the emptier removes water from it,
    and U resets when fewer than 2 cups remain.  With anchors, a step that
    drains two or more targets (the emptier kept away from the anchors) is a
    growth step and restarts the pass.
    """

    needs_adaptive = True

    def __init__(self, config: GameConfig, anchors: int):
        self.anchors = tuple(range(1, anchors + 1))
        self.targets = tuple(range(anchors + 1, config.n + 1))
        self.unemptied: list[int] = list(self.targets)
        self.growth_steps: list[int] = []
        self.passes = 0  # completed passes, for telemetry

    def next_move(self, t, view) -> FillMove:
        if view.records:
            record = view.records[-1]
            first = self.targets[0]
            drained = {cup for cup in record.drained if cup >= first}
            if len(drained) >= 2 and self.anchors:
                self.growth_steps.append(record.t)
                self.unemptied = list(self.targets)
                self.passes += 1
            elif drained:
                self.unemptied = list(itertools.filterfalse(drained.__contains__, self.unemptied))
        if len(self.unemptied) < 2:
            self.unemptied = list(self.targets)
            self.passes += 1
        size = len(self.unemptied)
        # anchors precede the targets and unemptied keeps id order: sorted
        cups = (*self.anchors, *self.unemptied)
        return FillMove._wrap(cups, (size,) * len(self.anchors) + (1,) * size, size)


class SpreadShrinkFiller(ObliviousFiller):
    """Oblivious phases of rounds, each round a spread-and-shrink pass.

    A round lasts round_steps steps over a working set of the round_steps + 1
    smallest-numbered non-anchor cups; each step deposits 1 unit per anchor,
    spreads 1 unit over the working set and then deletes one uniformly random
    member from it (future deposits only; fills persist).  The last member
    standing is the round's survivor.  With swaps, one uniformly chosen round
    per phase swaps a uniformly chosen anchor for its survivor; without, no
    swap round is drawn and a phase is one round, logged as phase events.
    """

    def __init__(self, config: GameConfig, rng, phases: int, rounds: int,
                 round_steps: int, swaps: bool):
        self.rng = rng
        self.phases = phases
        self.rounds = rounds
        self.round_steps = round_steps
        self.phase_steps = rounds * round_steps
        self.natural_steps = phases * self.phase_steps
        self.anchors: list[int] = list(range(1, config.p))
        self.events: list[dict] = []
        super().__init__(_spread_shrink(config.n, rng, self.anchors, self.events,
                                        rounds, round_steps, swaps))


def _spread_shrink(n, rng, anchors, events, rounds, round_steps, swaps):
    """SpreadShrinkFiller's moves, phase after phase, updating its anchors and
    events in place.  It holds no reference to the filler, so a finished game
    leaves no cycle for the collector."""
    getrandbits = rng.getrandbits
    # the deposits of a move over a working set of each size, anchors first:
    # p - 1 anchors get size each, the working cups 1
    rows = [(size,) * len(anchors) + (1,) * size for size in range(round_steps + 2)]
    for phase in itertools.count():  # no end: phases only sets natural_steps
        if swaps:
            swap_round = rng.randrange(rounds)
            events.append({"type": "phase_start", "phase": phase,
                           "new_anchor_round": swap_round, "anchors": tuple(anchors)})
        for round_ in range(rounds):
            taken = set(anchors)
            working = list(itertools.islice(
                itertools.filterfalse(taken.__contains__, range(1, n + 1)), round_steps + 1))
            if swaps:
                events.append({"type": "round_start", "phase": phase, "round": round_,
                               "working": tuple(working)})
            else:
                events.append({"type": "phase_start", "phase": phase, "working": tuple(working)})
            for step in range(round_steps):
                size = len(working)
                if anchors and anchors[-1] > working[0]:  # a swapped-in anchor above working cups
                    cups = tuple(sorted(anchors + working))
                    scaled = tuple([size if cup in taken else 1 for cup in cups])
                else:  # both lists keep id order
                    cups, scaled = (*anchors, *working), rows[size]
                move = FillMove._wrap(cups, scaled, size)
                # the victim is randrange(size): _randbelow's loop over size.bit_length() bits
                bits = size.bit_length()
                victim = getrandbits(bits)
                while victim >= size:
                    victim = getrandbits(bits)
                del working[victim]
                if step < round_steps - 1:
                    yield move
            # the round ends, its swap drawn, before its last move is played
            survivor = working[0]
            if swaps:
                swapping = round_ == swap_round
                if swapping and anchors:
                    out = anchors[rng.randrange(len(anchors))]
                    anchors.remove(out)
                    anchors.append(survivor)
                    anchors.sort()
                    events.append({"type": "anchor_swap", "phase": phase, "round": round_,
                                   "out": out, "in": survivor, "anchors": tuple(anchors)})
                events.append({"type": "round_end", "phase": phase, "round": round_,
                               "survivor": survivor, "new_anchor_round": swapping})
            else:
                events.append({"type": "phase_end", "phase": phase, "survivor": survivor})
            yield move


def _anchor_swap(config: GameConfig, rng, phases=None, rounds=None, steps=None):
    p = config.p
    if steps is None:
        steps = max(2, math.ceil(math.log2(p)) - 1) if p > 1 else 2
    if phases is None:
        phases = p
    if rounds is None:
        rounds = p**3
    if phases < 1 or rounds < 1 or steps < 1:
        raise ConfigError("anchor-swap needs phases, rounds, steps >= 1")
    working_size = steps + 1
    if config.n < (p - 1) + working_size:
        raise ConfigError(
            f"anchor-swap needs n >= {p - 1 + working_size} "
            f"(p-1 anchors plus a working set of {working_size})"
        )
    return SpreadShrinkFiller(config, rng, phases, rounds, steps, swaps=True)


def check_anti_greedy(ell, c) -> None:
    if ell < 1 or c <= 0:
        raise ConfigError("anti-greedy needs ELL >= 1 and C > 0")


def _anti_greedy(config: GameConfig, rng, ell=8, c=rat(1, 2), phases=128):
    check_anti_greedy(ell, c)
    working_size = floor_rat(c * ell)
    if working_size < 2:
        raise ConfigError(
            f"anti-greedy working set C*ELL must be >= 2, got {working_size}"
        )
    if ell > config.n - config.p:
        raise ConfigError(f"anti-greedy needs ELL <= n - p = {config.n - config.p}")
    if config.p + working_size - 1 > config.n:
        raise ConfigError(f"anti-greedy needs n >= {config.p + working_size - 1}")
    if phases < 1:
        raise ConfigError("anti-greedy needs PHASES >= 1")
    filler = SpreadShrinkFiller(config, rng, phases, 1, working_size - 1, swaps=False)
    filler.ell, filler.c = ell, c  # the spec's parameters, for telemetry
    return filler


# each spec name and the parsers of its optional parameters
_FILLERS = {
    "zero": (),
    "random": (parse_rat,),
    "harmonic": (),
    "growth": (),
    "anchor-swap": (int, int, int),
    "anti-greedy": (int, parse_rat, int),
}


def make_filler(spec: str, config: GameConfig, rng):
    name, params = parse_spec(spec, _FILLERS, "filler")
    if name == "zero":
        return ObliviousFiller()
    if name == "random":
        return RandomFiller(config, rng, *params)
    if name == "harmonic":
        if config.n < 2:
            raise ConfigError("harmonic filler needs n >= 2")
        return ShrinkingPassFiller(config, anchors=0)
    if name == "growth":
        if config.n < config.p + 1:
            raise ConfigError("growth filler needs n >= p + 1")
        return ShrinkingPassFiller(config, anchors=config.p - 1)
    if name == "anchor-swap":
        return _anchor_swap(config, rng, *params)
    return _anti_greedy(config, rng, *params)
