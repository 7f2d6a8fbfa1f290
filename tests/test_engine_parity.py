"""The int-over-denominator engine against a Fraction reference engine.

The reference below is the engine as it was when cup states held one
Fraction per cup: validate_fill, apply_fill, the (-fill, id) ranking and
apply_empty over plain tuples of Fractions.  reference_game plays a filler
through it, handing the filler views whose states carry the reference
fills, so both engines must agree move for move, state for state.  The
stock fillers' int moves are also checked against the same moves built
from their rationals.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from cupgame.emptiers import make_emptier
from cupgame.engine import (
    ADAPTIVE,
    OBLIVIOUS,
    AdaptiveView,
    CupState,
    EmptyMove,
    FillMove,
    GameConfig,
    Violation,
    apply_fill,
    run_game,
    validate_fill,
)
from cupgame.fillers import make_filler
from cupgame.rng import FILLER_LABEL, OFFSET_LABEL, stream

from conftest import ScriptFiller

ZERO, ONE = Fraction(0), Fraction(1)


def ref_validate_fill(move, config, fills):
    problems = []
    total = ZERO
    for cup, amount in move.amounts:
        if not 1 <= cup <= config.n:
            problems.append(f"cup id {cup} outside 1..{config.n}")
            continue
        if amount < 0:
            problems.append(f"negative deposit {amount} into cup {cup}")
            continue
        if amount > 1:
            problems.append(f"deposit {amount} into cup {cup} exceeds 1")
        if config.truncation is not None and fills[cup - 1] + amount > config.truncation:
            problems.append(
                f"deposit {amount} into cup {cup} breaches truncation {config.truncation}"
            )
        total += amount
    if total > config.p:
        problems.append(f"total deposit {total} exceeds budget {config.p}")
    return problems


def ref_apply_fill(fills, move):
    fills = list(fills)
    for cup, amount in move.amounts:
        fills[cup - 1] += amount
    return tuple(fills)


def ref_top_cups(fills, k):
    ranked = sorted(range(1, len(fills) + 1), key=lambda cup: (-fills[cup - 1], cup))
    return tuple(ranked[:k])


def ref_apply_empty(fills, move):
    fills = list(fills)
    removed = []
    for cup in move.cups:
        fill = fills[cup - 1]
        if move.skip_under_one:
            amount = ONE if fill >= 1 else ZERO
        else:
            amount = fill if fill < 1 else ONE
        if amount > 0:
            fills[cup - 1] = fill - amount
            removed.append((cup, amount))
    return tuple(fills), tuple(removed)


def ref_select(emptier, fills, p):
    n = len(fills)
    if emptier == "threshold-blind":
        if p >= n:
            return EmptyMove(range(1, n + 1))
        ranked = ref_top_cups(fills, n)
        return EmptyMove(ranked[:1] + ranked[n - (p - 1):])
    return EmptyMove(ref_top_cups(fills, p), skip_under_one=emptier == "smoothed-greedy")


# a reference step keeps its own intermediate and post fills, so the engine's
# rebuilt intermediate is checked against fills the engine never made
RefStep = namedtuple("RefStep", "t fill intermediate empty post drained")


def reference_game(config, filler):
    """(initial fills, records, violation) of the game on the reference engine."""
    offsets = make_emptier(config.emptier).initial_fills(
        config, stream(config.seed, OFFSET_LABEL)
    )
    fills = tuple(offsets) if offsets is not None else (ZERO,) * config.n
    initial = CupState(fills)  # the filler reads these Fractions back as given
    records = []
    for t in range(1, config.steps + 1):
        if config.visibility == OBLIVIOUS:
            view = None
        else:
            view = AdaptiveView(records, CupState(fills))
        move = filler.next_move(t, view)
        problems = ref_validate_fill(move, config, fills)
        if problems:
            return initial.fills, records, Violation(t, "filler", tuple(problems))
        inter = ref_apply_fill(fills, move)
        empty = ref_select(config.emptier, inter, config.p)
        post, removed = ref_apply_empty(inter, empty)
        drained = tuple(cup for cup, _ in removed)
        records.append(RefStep(t, move, inter, empty, post, drained))
        fills = post
    return initial.fills, records, None


def assert_state_matches(state, fills, p):
    n = len(fills)
    assert state.fills == fills
    for k in range(n + 1):  # top_cups(k) is the set of the ranking's first k
        assert state.top_cups(k) == tuple(sorted(ref_top_cups(fills, k)))
    assert state.backlog() == max(fills)
    total = sum(fills[cup - 1] for cup in ref_top_cups(fills, p))
    assert state.prefix_stats(p) == (total, total / p)


def assert_engines_agree(config, make):
    """make() builds a fresh filler; both engines must play the same game."""
    trace = run_game(config, filler=make())
    initial, records, violation = reference_game(config, make())
    assert_state_matches(trace.initial, initial, config.p)
    assert [r.fill for r in trace.records] == [r.fill for r in records]
    for new, ref in zip(trace.records, records):
        assert_state_matches(new.intermediate, ref.intermediate, config.p)
        assert new.empty == ref.empty
        assert new.drained == ref.drained
        assert_state_matches(new.post, ref.post, config.p)
    assert len(trace.records) == len(records)
    assert trace.violation == violation
    fills = [initial] + [ref.post for ref in records]
    assert [state.backlog() for state in trace.states()] == [max(f) for f in fills]
    return trace


PRIMES = (3, 7, 11, 13, 5, 17, 19, 2)


def prime_script(n, p, steps):
    """Legal moves whose denominators cycle through primes, forcing rescales."""
    moves = []
    for t in range(steps):
        q = PRIMES[t % len(PRIMES)]
        cups = [(t + j) % n + 1 for j in range(p)]
        moves.append({cup: Fraction(1 + (t + cup) % q, q) for cup in cups})
    return moves


def bad_moves(kind, n, p):
    """Moves ending in an illegal one of the given kind."""
    if kind == "cup":
        return [{n + 1: Fraction(1, 3)}]
    if kind == "negative":
        return [{1: Fraction(-1, 5)}]
    if kind == "over-one":
        return [{1: Fraction(4, 3)}]
    if kind == "budget":
        amount = ONE if n > p else Fraction(7, 6)
        return [{cup: amount for cup in range(1, min(n, p + 1) + 1)}]
    assert kind == "truncation"
    # cup p+1 keeps 1/2 through a step that drains at most p cups, then
    # tops up by 1 past a 5/4 cap
    return [{cup: Fraction(1, 2) for cup in range(1, min(n, p + 1) + 1)}, {min(n, p + 1): ONE}]


BAD_KINDS = ("cup", "negative", "over-one", "budget", "truncation")
EMPTIERS = ("greedy", "smoothed-greedy", "threshold-blind")


@pytest.mark.parametrize("kind", BAD_KINDS)
@pytest.mark.parametrize("emptier", EMPTIERS)
def test_prime_script_then_illegal_move(kind, emptier):
    n, p = 4, 2
    moves = prime_script(n, p, 12) + bad_moves(kind, n, p)
    truncation = "5/4" if kind == "truncation" else None
    config = GameConfig(n=n, p=p, steps=20, emptier=emptier, truncation=truncation)
    trace = assert_engines_agree(config, lambda: ScriptFiller(moves))
    assert trace.violation is not None and trace.violation.source == "filler"
    if kind == "truncation":  # the script itself may breach 5/4 first
        assert "breaches truncation 5/4" in trace.violation.reasons[0]
    else:
        assert trace.violation.step == 13
    assert trace.initial.den < trace.records[-1].post.den  # rescaled on the way


@st.composite
def games(draw):
    n = draw(st.integers(1, 10))
    p = draw(st.integers(1, n))
    emptier = draw(st.sampled_from(EMPTIERS))
    truncation = draw(st.sampled_from([None, "3/2", "2", "7/3"]))
    visibility = draw(st.sampled_from([ADAPTIVE, OBLIVIOUS]))
    filler = draw(
        st.sampled_from(["script", "random:1/2", "random:1", "harmonic", "growth",
                         "anchor-swap:2,2,2", "anti-greedy:2,1,2"])
    )
    config = GameConfig(n=n, p=p, steps=draw(st.integers(0, 30)), seed=draw(st.integers(0, 99)),
                        filler=filler, emptier=emptier, truncation=truncation,
                        visibility=visibility)
    if filler != "script":
        return config, None
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(PRIMES),
                st.lists(st.integers(1, n), max_size=p, unique=True),
                st.integers(1, 19),
            ),
            max_size=30,
        )
    )
    moves = [{cup: Fraction(min(k, q), q) for cup in cups} for q, cups, k in steps]
    bad = draw(st.sampled_from((None,) + BAD_KINDS))
    if bad is not None:
        at = draw(st.integers(0, len(moves)))
        moves[at:at] = bad_moves(bad, n, p)
    return config, moves


@settings(max_examples=300, deadline=None)
@given(games())
def test_engines_agree_on_random_games(game):
    config, moves = game
    if moves is not None:
        assert_engines_agree(config, lambda: ScriptFiller(moves))
        return
    try:
        filler = make_filler(config.filler, config, stream(config.seed, FILLER_LABEL))
    except ValueError:  # ConfigError: this spec does not fit this (n, p)
        assume(False)
    assume(config.visibility == ADAPTIVE or not filler.needs_adaptive)
    assert_engines_agree(
        config,
        lambda: make_filler(config.filler, config, stream(config.seed, FILLER_LABEL)),
    )


STOCK_SPECS = (
    # (filler, truncation, visibility)
    ("random:1/2", None, ADAPTIVE),
    ("random:1", None, OBLIVIOUS),
    ("random:1", "3/2", ADAPTIVE),
    ("random:1/2", "7/3", ADAPTIVE),
    ("harmonic", None, ADAPTIVE),
    ("growth", None, ADAPTIVE),
    ("anchor-swap:2,3,2", None, OBLIVIOUS),
    ("anti-greedy:4,1,3", None, OBLIVIOUS),
)


@pytest.mark.parametrize("emptier", EMPTIERS)
@pytest.mark.parametrize("spec", STOCK_SPECS, ids=lambda spec: f"{spec[0]}-{spec[1]}")
def test_stock_int_moves_match_their_rational_rebuild(spec, emptier):
    """Each stock filler's int move equals FillMove(move.amounts): the same
    value, hash, den and ints, the same verdicts and the same next state."""
    filler, truncation, visibility = spec
    verdicts = 0
    for n, p, seed in ((7, 1, 0), (9, 3, 4), (10, 4, 9)):
        config = GameConfig(n=n, p=p, steps=40, seed=seed, filler=filler, emptier=emptier,
                            truncation=truncation, visibility=visibility)
        trace = run_game(config)
        assert trace.violation is None and trace.records
        # a tighter budget and cap turn the same moves into violations
        tight = replace(config, p=1, truncation=Fraction(11, 10))
        state = trace.initial
        for record in trace.records:
            move = record.fill
            rebuilt = FillMove(move.amounts)
            assert move == rebuilt and hash(move) == hash(rebuilt)
            assert (move.den, move.cups, move.scaled) == (rebuilt.den, rebuilt.cups,
                                                          rebuilt.scaled)
            for rules in (config, tight):
                problems = validate_fill(move, rules, state)
                assert problems == validate_fill(rebuilt, rules, state)
                verdicts += len(problems)
            after, after_rebuilt = apply_fill(state, move), apply_fill(state, rebuilt)
            assert (after.scaled, after.den) == (after_rebuilt.scaled, after_rebuilt.den)
            assert (after.scaled, after.den) == (record.intermediate.scaled,
                                                 record.intermediate.den)
            state = record.post
    assert verdicts  # the tight rules did reject moves


@pytest.mark.parametrize("state_den", [2**64 * 3, 2**64 * 35, lcm(*range(1, 129))],
                         ids=["2^64*3", "2^64*35", "lcm1..128"])
@pytest.mark.parametrize("move_den", [1, 2, 5, 7, 64, 127, 2**64])
def test_unit_deposits_match_the_reference(state_den, move_den):
    """apply_fill adds a deposit of 1 over the move's den as the scale itself:
    over smoothed-greedy's 2^64 offsets and over harmonic's lcm den, with the
    move's den dividing the state's or not, next to deposits that are not 1."""
    n = 12
    state = CupState._wrap(tuple((cup * state_den) // 7 for cup in range(n)), state_den)
    unit, other = Fraction(1, move_den), Fraction(move_den - 1, move_den)
    move = FillMove({cup: unit if cup % 3 else other for cup in range(1, n + 1)})
    assert move.den == move_den and 1 in move.scaled
    after = apply_fill(state, move)
    assert after.fills == ref_apply_fill(state.fills, move)
    assert after.den == lcm(state_den, move_den)
