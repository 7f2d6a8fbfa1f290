"""Differential test of the stock greedy selection against the full-sort rule.

GreedyEmptier and SmoothedGreedyEmptier build their moves through the
trusted EmptyMove._wrap, and CupState.top_cups(1) takes the first maximum
with no sort.  The oracle is the selection they replaced: one stable
descending sort of the cup ids, the top p of them handed to the checking
EmptyMove constructor.  On every intermediate state of the games below the
two must agree in cups, removal policy and hash.

CupState.top_cups breaks a cut tied past rank k with index scans.  The
second oracle is the body it replaced, which filtered the tied ids out of
one pass instead; the two must return equal tuples on every intermediate
state of the games below and on drawn fills with few distinct values.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from cupgame.emptiers import GreedyEmptier, SmoothedGreedyEmptier
from cupgame.engine import EmptyMove, FillMove, GameConfig, run_game
from cupgame.fillers import ObliviousFiller
from cupgame.rational import rat
from cupgame.state import CupState


def oracle(state, p, flag):
    scaled = state.scaled
    ranked = sorted(range(state.n), key=scaled.__getitem__, reverse=True)
    return EmptyMove(tuple(i + 1 for i in ranked[:p]), flag)


def filtered_top_cups(state, k):
    """top_cups as it was before the index scans: drop the last tied ids."""
    scaled = state.scaled
    n = len(scaled)
    if not 0 <= k <= n:
        raise ValueError(f"k {k} outside 0..{n}")
    if k == 1:
        return (scaled.index(max(scaled)) + 1,)
    if k == 0 or k == n:
        return tuple(range(1, k + 1))
    cut = sorted(scaled, reverse=True)[k - 1]
    top = [cup for cup, fill in enumerate(scaled, 1) if fill >= cut]
    if len(top) > k:  # more than k cups reach the cut: drop the last tied ids
        tied = [cup for cup in top if scaled[cup - 1] == cut]
        dropped = set(tied[k - len(top):])
        top = [cup for cup in top if cup not in dropped]
    return tuple(top)


def assert_top_cups_match(trace, ks):
    assert trace.violation is None
    assert trace.steps_executed == trace.config.steps
    for record in trace.records:
        state = record.intermediate
        for k in ks:
            assert state.top_cups(k) == filtered_top_cups(state, k), (record.t, k)


def assert_selections_match(config, emptier, flag, filler=None):
    trace = run_game(config, filler=filler, emptier=emptier)
    assert_top_cups_match(trace, {config.p, min(2 * config.p, config.n), config.n // 2})
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


@pytest.mark.parametrize("filler", ["growth", "harmonic", "random:1/2"])
def test_threshold_blind_cut_matches_filtered_top_cups(filler):
    # threshold-blind ranks the n - p + 1 fullest cups on every step
    config = GameConfig(n=128, p=4, steps=300, seed=1, filler=filler,
                        emptier="threshold-blind")
    assert_top_cups_match(run_game(config), {config.n - config.p + 1})


@pytest.mark.parametrize("filler", ["growth", "harmonic", "random:1/2"])
def test_half_the_cups_match_filtered_top_cups(filler):
    config = GameConfig(n=128, p=64, steps=200, seed=2, filler=filler, emptier="greedy")
    assert_top_cups_match(run_game(config), {config.p})


# fills drawn from two or three values, so most cuts are tied past rank k
few_valued_fills = st.lists(st.integers(0, 2**66), min_size=2, max_size=3, unique=True).flatmap(
    lambda values: st.lists(st.sampled_from(values), min_size=1, max_size=40)
)


@settings(max_examples=300, deadline=None)
@given(few_valued_fills)
def test_top_cups_match_filtered_top_cups_on_few_valued_fills(fills):
    state = CupState._wrap(tuple(fills), 2**64)
    for k in range(len(fills) + 1):
        assert state.top_cups(k) == filtered_top_cups(state, k), k


class TestTopCupsOne:
    def test_all_zero_state_gives_the_first_cup(self):
        assert CupState.zeros(6).top_cups(1) == (1,)

    def test_tied_maxima_give_the_smaller_id(self):
        assert CupState([1, 0, 3, 2, 3, 1]).top_cups(1) == (3,)

    def test_maximum_in_the_last_cup(self):
        assert CupState([1, 2, 0, 5]).top_cups(1) == (4,)

    def test_single_cup(self):
        assert CupState([7]).top_cups(1) == (1,)
