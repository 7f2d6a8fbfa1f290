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
        move = ThresholdBlindEmptier(4, 2).select(state, 3)
        assert move.cups == (1, 3, 4)

    def test_small_games_drain_everything(self):
        state = CupState([1, 2])
        assert ThresholdBlindEmptier(4, 2).select(state, 2).cups == (1, 2)

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            ThresholdBlindEmptier(0, 2)
        with pytest.raises(ConfigError):
            ThresholdBlindEmptier(4, rat(1, 2))


class TestSpecStrings:
    def test_round_trip_specs(self):
        assert isinstance(make_emptier("greedy"), GreedyEmptier)
        assert isinstance(make_emptier("smoothed-greedy"), SmoothedGreedyEmptier)
        blind = make_emptier("threshold-blind:4,2")
        assert blind.ell == 4 and blind.c == 2
        blind = make_emptier("threshold-blind:8,3/2")
        assert blind.c == rat(3, 2)

    @pytest.mark.parametrize(
        "spec",
        ["nope", "greedy:1", "smoothed-greedy:2", "threshold-blind",
         "threshold-blind:4", "threshold-blind:4,2,1", "threshold-blind:a,b"],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigError):
            make_emptier(spec)
