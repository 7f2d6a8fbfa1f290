"""Shared test strategies and run helpers."""

from __future__ import annotations

import itertools

from cupgame.engine import (
    CupState,
    EmptyMove,
    FillMove,
    GameConfig,
    StepRecord,
    Trace,
    run_game,
)
from cupgame.fillers import ObliviousFiller
from cupgame.rational import as_rat, floor_rat, rat


class ScriptFiller(ObliviousFiller):
    """Plays a fixed list of moves, then nothing."""

    def __init__(self, moves):
        self.moves = tuple(FillMove(move) for move in moves)
        super().__init__(self.moves)


class ConstantFiller(ObliviousFiller):
    """Plays the same move every step."""

    def __init__(self, move):
        super().__init__(itertools.repeat(FillMove(move)))


def play(n, p, steps, *, filler=None, emptier=None, seed=0, **kwargs):
    config = GameConfig(n=n, p=p, steps=steps, seed=seed, **kwargs)
    return run_game(config, filler=filler, emptier=emptier)


def forge(n, p, emptier, steps, *, initial=None, truncation=None):
    """Assemble a Trace from raw per-step tuples, no legality checks.

    steps: list of (fill_amounts, removed_pairs, post_fills); a record keeps
    only the cups of its (cup, amount) removed pairs.  Each record starts
    from the previous post, so its intermediate state is that plus its fill.
    """
    config = GameConfig(
        n=n, p=p, steps=len(steps), emptier=emptier, truncation=truncation
    )
    start = CupState([rat(x) for x in initial]) if initial else CupState.zeros(n)
    records = []
    previous = start
    for t, (fills, removed, post) in enumerate(steps, start=1):
        drained = tuple(sorted(cup for cup, _ in removed))
        records.append(
            StepRecord(
                t=t,
                fill=FillMove({cup: rat(a) for cup, a in fills.items()}),
                prev=previous,
                empty=EmptyMove(drained),
                post=CupState([rat(x) for x in post]),
                drained=drained,
            )
        )
        previous = records[-1].post
    return Trace(config=config, initial=start, records=records)


def max_level(trace):
    """Reference level count from the peak backlog: floor(max / 2) + 1, at least 1.

    The level checkers open level i + 1 from level i's integer fill instead;
    both rules must give the same count.
    """
    return max(1, floor_rat(trace.max_backlog() / 2) + 1)


def moves_of(trace):
    return [record.fill for record in trace.records]


def exact(value):
    return as_rat(value)
