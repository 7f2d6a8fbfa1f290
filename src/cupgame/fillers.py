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
    deposits only; fills persist).

    anchor-swap   P phases of R rounds of L steps, |B| = L+1; one random
                  round per phase replaces a random anchor with the round's
                  surviving B cup.
    anti-greedy   PHASES phases of one round each over |B| = floor(C*ELL)
                  cups, B = {p, ...}; no anchor churn.

Test and fuzz fillers:

random        legal fuzz moves: random support, random small-denominator
              amounts, clamped to the budget (and to the truncation cap when
              one is configured, which needs adaptive visibility).
zero          deposits nothing.

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

import math

from .engine import ConfigError, FillMove, GameConfig, parse_spec
from .rational import as_rat, floor_rat, parse_rat, rat

AMOUNT_DEN = 840  # lcm(1..8): every amount the random filler draws is k/840


class ZeroFiller:
    needs_adaptive = False

    def next_move(self, t, view) -> FillMove:
        return FillMove({})


def _uniform_below(getrandbits, n: int) -> int:
    """Uniform int in [0, n) by bit rejection.

    Draws the same bits as random.Random.randint but skips its per-call
    argument plumbing, which the fuzzer cannot amortize across thousands
    of tiny draws.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


class RandomFiller:
    """Seeded fuzzer emitting arbitrary legal moves."""

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
            return FillMove({})
        getrandbits = self.rng.getrandbits
        count = _uniform_below(getrandbits, self.max_support + 1)
        support = self.rng.sample(range(1, self.config.n + 1), count)
        cap = self.config.truncation
        den = AMOUNT_DEN
        if cap is not None:  # headroom is cap minus fill over their common den
            state = view.state
            den = math.lcm(den, state.den, cap.denominator)
            fill_scale = den // state.den
            limit = cap.numerator * (den // cap.denominator)
        budget = self.config.p * den
        pairs = []
        for cup in support:
            draw = 1 + _uniform_below(getrandbits, 8)
            amount = _uniform_below(getrandbits, draw + 1) * (den // draw)
            if amount > budget:
                amount = budget
            if cap is not None:
                headroom = limit - state.scaled[cup - 1] * fill_scale
                if amount > headroom:
                    amount = headroom
            if amount > 0:
                pairs.append((cup, amount))
                budget -= amount
        pairs.sort()
        common = math.gcd(den, *(amount for _, amount in pairs))
        return FillMove._wrap(tuple((cup, amount // common) for cup, amount in pairs),
                              den // common)


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
                self.unemptied = [c for c in self.unemptied if c not in drained]
        if len(self.unemptied) < 2:
            self.unemptied = list(self.targets)
            self.passes += 1
        size = len(self.unemptied)
        # anchors precede the targets and unemptied keeps id order: sorted
        scaled = [(cup, size) for cup in self.anchors]
        scaled.extend((cup, 1) for cup in self.unemptied)
        return FillMove._wrap(tuple(scaled), size)


class SpreadShrinkFiller:
    """Oblivious phases of rounds, each round a spread-and-shrink pass.

    A round lasts round_steps steps over a working set of the round_steps + 1
    smallest-numbered non-anchor cups; each step deposits 1 unit per anchor,
    spreads 1 unit over the working set and then deletes one uniformly random
    member from it (future deposits only; fills persist).  The last member
    standing is the round's survivor.  With swaps, one uniformly chosen round
    per phase swaps a uniformly chosen anchor for its survivor; without, no
    swap round is drawn and a phase is one round, logged as phase events.
    """

    needs_adaptive = False

    def __init__(self, config: GameConfig, rng, phases: int, rounds: int,
                 round_steps: int, swaps: bool):
        self.config = config
        self.rng = rng
        self.phases = phases
        self.rounds = rounds
        self.round_steps = round_steps
        self.phase_steps = rounds * round_steps
        self.natural_steps = phases * self.phase_steps
        self.swaps = swaps
        self.anchors: list[int] = list(range(1, config.p))
        self.events: list[dict] = []
        self._phase = -1
        self._round = rounds - 1
        self._step = round_steps  # forces a fresh phase and round on first use
        self._working: list[int] = []
        self._swap_round = None

    def _begin_round(self):
        if self._round + 1 >= self.rounds:
            self._phase += 1
            self._round = -1
            if self.swaps:
                self._swap_round = self.rng.randrange(self.rounds)
                self.events.append(
                    {
                        "type": "phase_start",
                        "phase": self._phase,
                        "new_anchor_round": self._swap_round,
                        "anchors": tuple(self.anchors),
                    }
                )
        self._round += 1
        self._step = 0
        anchors = set(self.anchors)
        self._working = [
            cup for cup in range(1, self.config.n + 1) if cup not in anchors
        ][: self.round_steps + 1]
        working = tuple(self._working)
        if self.swaps:
            self.events.append(
                {"type": "round_start", "phase": self._phase, "round": self._round,
                 "working": working}
            )
        else:
            self.events.append(
                {"type": "phase_start", "phase": self._phase, "working": working}
            )

    def _end_round(self):
        survivor = self._working[0]
        if not self.swaps:
            self.events.append(
                {"type": "phase_end", "phase": self._phase, "survivor": survivor}
            )
            return
        swapping = self._round == self._swap_round
        if swapping and self.anchors:
            out = self.anchors[self.rng.randrange(len(self.anchors))]
            self.anchors.remove(out)
            self.anchors.append(survivor)
            self.anchors.sort()
            self.events.append(
                {
                    "type": "anchor_swap",
                    "phase": self._phase,
                    "round": self._round,
                    "out": out,
                    "in": survivor,
                    "anchors": tuple(self.anchors),
                }
            )
        self.events.append(
            {
                "type": "round_end",
                "phase": self._phase,
                "round": self._round,
                "survivor": survivor,
                "new_anchor_round": swapping,
            }
        )

    def next_move(self, t, view) -> FillMove:
        if self._step >= self.round_steps:  # previous round complete, or first call
            self._begin_round()
        size = len(self._working)
        scaled = [(cup, size) for cup in self.anchors]
        scaled.extend((cup, 1) for cup in self._working)
        scaled.sort()  # a swapped-in anchor may sit above working cups
        move = FillMove._wrap(tuple(scaled), size)
        victim = self._working[self.rng.randrange(len(self._working))]
        self._working.remove(victim)
        self._step += 1
        if self._step >= self.round_steps:
            self._end_round()
        return move


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


def _anti_greedy(config: GameConfig, rng, ell=8, c=rat(1, 2), phases=128):
    if ell < 1 or c <= 0:
        raise ConfigError("anti-greedy needs ELL >= 1 and C > 0")
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
        return ZeroFiller()
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
