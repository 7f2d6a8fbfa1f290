"""Differential test of the stock greedy selection against the full-sort rule.

GreedyEmptier and SmoothedGreedyEmptier build their moves through the
trusted EmptyMove._wrap, and CupState.top_cups(1) takes the first maximum
with no sort.  The oracle is the selection they replaced: one stable
descending sort of the cup ids, the top p of them handed to the checking
EmptyMove constructor.  On every intermediate state of the games below the
two must agree in cups, removal policy and hash.
"""

from __future__ import annotations

import pytest

from cupgame.emptiers import GreedyEmptier, SmoothedGreedyEmptier
from cupgame.engine import EmptyMove, FillMove, GameConfig, run_game
from cupgame.fillers import ObliviousFiller
from cupgame.rational import rat
from cupgame.state import CupState


def oracle(state, p, flag):
    scaled = state.scaled
    ranked = sorted(range(state.n), key=scaled.__getitem__, reverse=True)
    return EmptyMove(tuple(i + 1 for i in ranked[:p]), flag)


def assert_selections_match(config, emptier, flag, filler=None):
    trace = run_game(config, filler=filler, emptier=emptier)
    assert trace.violation is None
    assert trace.steps_executed == config.steps
    for record in trace.records:
        expected = oracle(record.intermediate, config.p, flag)
        for move in (record.empty, emptier.select(record.intermediate, config.p)):
            assert move.cups == expected.cups, record.t
            assert move.skip_under_one is expected.skip_under_one
            assert move == expected and hash(move) == hash(expected)


# C2's grid points, three seeds each (growth and harmonic ignore the seed)
C2_POINTS = [
    (filler, n, p, seed)
    for filler in ("growth", "harmonic", "random:1/2")
    for n in (64, 128)
    for p in (1, 4)
    for seed in range(3)
]


@pytest.mark.parametrize("filler,n,p,seed", C2_POINTS)
def test_greedy_matches_full_sort_on_c2_grid(filler, n, p, seed):
    config = GameConfig(n=n, p=p, steps=500, seed=seed, filler=filler, emptier="greedy")
    assert_selections_match(config, GreedyEmptier(), False)


@pytest.mark.parametrize(
    "filler,n,p,steps",
    [("anchor-swap:8,64,2", 16, 8, 1024), ("anti-greedy:16,3/4,128", 32, 8, 1408)],
)
def test_smoothed_greedy_matches_full_sort_on_c8_configs(filler, n, p, steps):
    config = GameConfig(n=n, p=p, steps=steps, seed=0, filler=filler,
                        emptier="smoothed-greedy")
    assert_selections_match(config, SmoothedGreedyEmptier(), True)


@pytest.mark.parametrize("seed", range(3))
def test_crossing_prob_game_matches_full_sort(seed):
    # the lone-cup game of crossing_probability_experiment, on a longer script
    deposits = [rat(1, 2), rat(1, 3), 1, 0, rat(2, 3), rat(3, 4)] * 20
    config = GameConfig(n=1, p=1, steps=len(deposits), seed=seed,
                        emptier="smoothed-greedy")
    filler = ObliviousFiller(FillMove({1: amount}) for amount in deposits)
    assert_selections_match(config, SmoothedGreedyEmptier(), True, filler)


class TestTopCupsOne:
    def test_all_zero_state_gives_the_first_cup(self):
        assert CupState.zeros(6).top_cups(1) == (1,)

    def test_tied_maxima_give_the_smaller_id(self):
        assert CupState([1, 0, 3, 2, 3, 1]).top_cups(1) == (3,)

    def test_maximum_in_the_last_cup(self):
        assert CupState([1, 2, 0, 5]).top_cups(1) == (4,)

    def test_single_cup(self):
        assert CupState([7]).top_cups(1) == (1,)
