"""Emptier selection rules and removal policies."""

from __future__ import annotations

import pytest

from conftest import ConstantFiller, play
from cupgame.emptiers import (
    GreedyEmptier,
    SmoothedGreedyEmptier,
    ThresholdBlindEmptier,
    make_emptier,
)
from cupgame.engine import ConfigError, GameConfig, run_game
from cupgame.rational import rat
from cupgame.rng import OFFSET_LABEL, stream
from cupgame.state import CupState


class TestGreedy:
    def test_selects_fullest_with_id_tie_break(self):
        state = CupState([2, 2, 1])
        assert GreedyEmptier().select(state, 2).cups == (1, 2)

    def test_plain_policy_drains_partial_fills(self):
        trace = play(2, 1, 1, filler=ConstantFiller({1: rat(1, 2)}))
        assert trace.records[0].drained == (1,)
        assert trace.records[0].post.backlog() == 0


class TestSmoothed:
    def test_offsets_are_dyadic_and_under_one(self):
        emptier = SmoothedGreedyEmptier()
        config = GameConfig(n=16, p=1, steps=1, seed=5, emptier="smoothed-greedy")
        offsets = emptier.initial_fills(config, stream(config.seed, OFFSET_LABEL))
        assert len(offsets) == 16
        assert all(0 <= r < 1 for r in offsets)
        assert all((1 << 64) % r.denominator == 0 for r in offsets)
        again = emptier.initial_fills(config, stream(config.seed, OFFSET_LABEL))
        assert offsets == again

    def test_selected_cup_under_one_is_skipped_not_reselected(self):
        state = CupState([rat(1, 2), rat(3, 2), rat(1, 4)])
        move = SmoothedGreedyEmptier().select(state, 2)
        assert move.cups == (1, 2)
        assert move.skip_under_one

    def test_fractional_part_preserved_through_run(self):
        config = GameConfig(
            n=6, p=2, steps=80, seed=11, filler="random", emptier="smoothed-greedy"
        )
        trace = run_game(config)
        offsets = trace.initial.fills
        deposited = [rat(0)] * config.n
        for record in trace.records:
            for cup, amount in record.fill.amounts:
                deposited[cup - 1] += amount
            for cup in range(1, config.n + 1):
                delta = (
                    record.post.fill_of(cup) - offsets[cup - 1] - deposited[cup - 1]
                )
                assert delta.denominator == 1


class TestThresholdBlind:
    def test_drains_fullest_and_emptiest(self):
        state = CupState([5, 4, 1, 0, 3])
        move = ThresholdBlindEmptier().select(state, 3)
        assert move.cups == (1, 3, 4)

    def test_small_games_drain_everything(self):
        state = CupState([1, 2])
        assert ThresholdBlindEmptier().select(state, 2).cups == (1, 2)

    def test_parameter_validation(self):
        # select never read the old L,C, so the spec takes none
        with pytest.raises(ConfigError, match=r"'threshold-blind:4,2' takes at most 0"):
            make_emptier("threshold-blind:4,2")


def full_sort(state):
    """Every cup id under the (fill desc, id asc) key."""
    scaled = state.scaled
    return sorted(range(1, state.n + 1), key=lambda cup: (-scaled[cup - 1], cup))


@pytest.mark.parametrize("filler", ["growth", "harmonic"])
def test_top_cups_and_threshold_blind_match_the_full_sort_on_tied_states(filler):
    # C2's n=128 p=4 games: most intermediate states tie at some cut
    n, p = 128, 4
    trace = run_game(GameConfig(n=n, p=p, steps=500, filler=filler, emptier="greedy"))
    assert trace.steps_executed == 500
    tied_at_p = 0
    for record in trace.records:
        state = record.intermediate
        ranked = full_sort(state)
        for k in (0, 1, 2, p, p + 1, n - p + 1, n):
            assert state.top_cups(k) == tuple(sorted(ranked[:k])), (record.t, k)
        cut = state.scaled[ranked[p - 1] - 1]
        tied_at_p += sum(fill >= cut for fill in state.scaled) > p
        for blind_p in (1, 2, p, n - 1, n):
            move = ThresholdBlindEmptier().select(state, blind_p)
            expected = ranked[:1] + ranked[n - (blind_p - 1):]
            assert move.cups == tuple(sorted(expected)), (record.t, blind_p)
    assert tied_at_p >= 250  # the drop-the-last-tied-ids path is what runs


class TestSpecStrings:
    def test_round_trip_specs(self):
        assert isinstance(make_emptier("greedy"), GreedyEmptier)
        assert isinstance(make_emptier("smoothed-greedy"), SmoothedGreedyEmptier)
        assert isinstance(make_emptier("threshold-blind"), ThresholdBlindEmptier)

    @pytest.mark.parametrize(
        "spec",
        ["nope", "greedy:1", "smoothed-greedy:2", "threshold-blind:2,2",
         "threshold-blind:4", "threshold-blind:4,2,1", "threshold-blind:a,b"],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigError):
            make_emptier(spec)
