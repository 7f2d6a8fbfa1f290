"""Step semantics, legality enforcement, and run-loop behavior."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ConstantFiller, ScriptFiller, forge, moves_of, play
from cupgame.engine import (
    AdaptiveView,
    ConfigError,
    EmptyMove,
    FillMove,
    GameConfig,
    apply_empty,
    apply_fill,
    run_game,
    validate_empty,
    validate_fill,
)
from cupgame.fillers import make_filler
from cupgame.rational import rat
from cupgame.rng import FILLER_LABEL, stream
from cupgame.state import CupState


def assert_removals(record):
    """drained lists exactly the selected cups holding water to remove, and
    each lost what its policy removes: 1 under skip-under-one, else min(1, fill)."""
    skip = record.empty.skip_under_one
    assert list(record.drained) == sorted(set(record.drained))
    for cup in range(1, record.post.n + 1):
        before, after = record.intermediate.fill_of(cup), record.post.fill_of(cup)
        removable = cup in record.empty.cups and (before >= 1 if skip else before > 0)
        assert (cup in record.drained) == removable
        assert after == before - (min(1, before) if removable else 0)


class TestMoves:
    def test_fill_move_canonical(self):
        move = FillMove({3: rat(1, 2), 1: 0, 2: rat(1, 3)})
        assert move.amounts == ((2, rat(1, 3)), (3, rat(1, 2)))

    def test_fill_move_equality_ignores_the_denominator(self):
        # the same deposits as ints over 840 and as ints over 2
        wide = FillMove._wrap(((1, 420), (3, 840)), 840)
        narrow = FillMove({1: rat(1, 2), 3: 1})
        assert narrow.den == 2 and narrow.scaled == ((1, 1), (3, 2))
        assert wide == narrow and hash(wide) == hash(narrow)
        assert wide.amounts == narrow.amounts
        assert wide != FillMove({1: rat(1, 2), 3: rat(1, 2)})
        state = CupState([rat(1, 3), 0, 0])
        assert apply_fill(state, wide) == apply_fill(state, narrow)

    def test_fill_move_duplicate_rejected(self):
        with pytest.raises(ValueError):
            FillMove([(1, rat(1, 2)), (1, rat(1, 3))])

    def test_empty_move_sorted_and_distinct(self):
        move = EmptyMove([3, 1], skip_under_one=True)
        assert move.cups == (1, 3)
        assert move.skip_under_one
        with pytest.raises(ValueError):
            EmptyMove([2, 2])


class TestValidation:
    def setup_method(self):
        self.config = GameConfig(n=3, p=1, steps=5)
        self.state = CupState.zeros(3)

    def test_legal_move_passes(self):
        assert validate_fill(FillMove({1: rat(1, 2), 2: rat(1, 2)}), self.config, self.state) == []

    def test_per_cup_bound(self):
        problems = validate_fill(FillMove({1: rat(3, 2)}), self.config, self.state)
        assert any("exceeds 1" in reason for reason in problems)

    def test_budget_bound(self):
        problems = validate_fill(
            FillMove({1: 1, 2: rat(1, 2)}), self.config, self.state
        )
        assert any("budget" in reason for reason in problems)

    def test_unknown_cup(self):
        problems = validate_fill(FillMove({4: rat(1, 2)}), self.config, self.state)
        assert any("outside" in reason for reason in problems)

    def test_truncation_breach(self):
        config = GameConfig(n=3, p=1, steps=5, truncation=3)
        state = CupState([rat(5, 2), 0, 0])
        ok = validate_fill(FillMove({1: rat(1, 2)}), config, state)
        assert ok == []
        problems = validate_fill(FillMove({1: rat(2, 3)}), config, state)
        assert any("truncation" in reason for reason in problems)

    def test_empty_move_bounds(self):
        config = GameConfig(n=3, p=2, steps=1)
        assert validate_empty(EmptyMove([1, 3]), config) == []
        assert validate_empty(EmptyMove([1, 2, 3]), config) != []
        assert validate_empty(EmptyMove([4]), config) != []


class TestApply:
    def test_apply_fill_adds(self):
        state = CupState([0, 1, 0])
        after = apply_fill(state, FillMove({1: rat(1, 2), 2: rat(1, 4)}))
        assert after.fills == (rat(1, 2), rat(5, 4), 0)

    def test_plain_removal_takes_min_one_fill(self):
        state = CupState([rat(1, 2), rat(3, 2), 0])
        after, drained = apply_empty(state, EmptyMove([1, 2, 3]))
        assert after.fills == (0, rat(1, 2), 0)
        assert drained == (1, 2)

    def test_skip_under_one_removal(self):
        state = CupState([rat(1, 2), rat(3, 2), 1])
        after, drained = apply_empty(
            state, EmptyMove([1, 2, 3], skip_under_one=True)
        )
        assert after.fills == (rat(1, 2), rat(1, 2), 0)
        assert drained == (2, 3)


class TestRunLoop:
    def test_single_cup_saturation(self):
        trace = play(1, 1, 10, filler=ConstantFiller({1: 1}))
        for record in trace.records:
            assert record.intermediate.backlog() == 1
            assert record.post.backlog() == 0
        assert trace.steps_executed == 10

    def test_two_cup_backlog_matches_brute_force_oracle(self):
        # independent simulation: same rules, separate implementation
        fills = [Fraction(0), Fraction(0)]
        expected = []
        for _ in range(100):
            fills = [fill + Fraction(1, 2) for fill in fills]
            target = 0 if fills[0] >= fills[1] else 1
            fills[target] -= min(Fraction(1), fills[target])
            expected.append(max(fills))
        trace = play(2, 1, 100, filler=ConstantFiller({1: rat(1, 2), 2: rat(1, 2)}))
        assert [record.post.backlog() for record in trace.records] == expected
        assert trace.max_backlog() <= 1

    def test_zero_filler_stays_zero(self):
        trace = play(4, 2, 20)
        assert all(record.post == CupState.zeros(4) for record in trace.records)
        assert trace.max_backlog() == 0

    def test_filler_violation_aborts_with_report(self):
        filler = ScriptFiller([{1: rat(1, 2)}, {1: rat(1, 2)}, {1: 1, 2: 1}])
        trace = play(2, 1, 5, filler=filler)
        assert trace.steps_executed == 2
        assert trace.violation is not None
        assert trace.violation.step == 3
        assert trace.violation.source == "filler"
        assert any("budget" in reason for reason in trace.violation.reasons)

    def test_emptier_violation_aborts_with_report(self):
        class Overdrainer:
            def initial_fills(self, config, rng):
                return None

            def select(self, state, p):
                return EmptyMove(range(1, state.n + 1))

        trace = play(3, 1, 5, emptier=Overdrainer())
        assert trace.violation is not None
        assert trace.violation.source == "emptier"
        assert trace.steps_executed == 0

    def test_water_conservation(self):
        config = GameConfig(n=5, p=2, steps=50, seed=9, filler="random")
        trace = run_game(config)
        state = trace.initial
        for record in trace.records:
            deposited = sum(amount for _, amount in record.fill.amounts)
            assert sum(record.intermediate.fills) == sum(state.fills) + deposited
            assert_removals(record)
            state = record.post

    def test_stop_when_ends_early(self):
        config = GameConfig(n=1, p=1, steps=50)
        trace = run_game(
            config,
            filler=ConstantFiller({1: 1}),
            emptier=_IdleEmptier(),
            stop_when=lambda t, state: state.backlog() >= 3,
        )
        assert trace.steps_executed == 3

    def test_truncated_run_never_breaches_cap(self):
        config = GameConfig(
            n=4, p=2, steps=100, seed=3, filler="random", truncation=rat(5, 2)
        )
        trace = run_game(config)
        assert trace.violation is None
        for record in trace.records:
            assert all(fill <= rat(5, 2) for fill in record.intermediate.fills)


class _IdleEmptier:
    def initial_fills(self, config, rng):
        return None

    def select(self, state, p):
        return EmptyMove([])


class TestDeterminismAndVisibility:
    def test_identical_configs_identical_traces(self):
        config = GameConfig(n=6, p=2, steps=60, seed=1234, filler="random")
        first = run_game(config)
        second = run_game(config)
        assert first.initial == second.initial
        assert first.records == second.records

    def test_oblivious_filler_blind_to_emptier(self):
        base = dict(n=6, p=2, steps=40, seed=77, filler="random",
                    visibility="oblivious")
        greedy = run_game(GameConfig(emptier="greedy", **base))
        blind = run_game(GameConfig(emptier="threshold-blind", **base))
        assert moves_of(greedy) == moves_of(blind)
        # and the emptier actually behaved differently
        assert any(
            a.empty != b.empty for a, b in zip(greedy.records, blind.records)
        )

    @pytest.mark.parametrize("visibility", ["adaptive", "oblivious"])
    def test_filler_is_handed_records_and_state_or_nothing(self, visibility):
        probe = _ProbeFiller(visibility == "adaptive")
        config = GameConfig(n=4, p=2, steps=12, seed=3, emptier="smoothed-greedy",
                            visibility=visibility)
        trace = run_game(config, filler=probe)
        assert probe.calls == 12
        if visibility == "adaptive":
            assert probe.states == trace.states()[:-1]

    def test_adaptive_filler_rejected_when_oblivious(self):
        config = GameConfig(
            n=4, p=1, steps=5, filler="harmonic", visibility="oblivious"
        )
        with pytest.raises(ConfigError):
            run_game(config)


class _ProbeFiller:
    """Checks the view it is handed: None when oblivious, else an
    AdaptiveView holding nothing but the records so far and the state."""

    needs_adaptive = False

    def __init__(self, adaptive):
        self.adaptive = adaptive
        self.calls = 0
        self.states = []

    def next_move(self, t, view):
        self.calls += 1
        if not self.adaptive:
            assert view is None
        else:
            assert type(view) is AdaptiveView
            assert vars(view).keys() == {"records", "state"}
            assert [record.t for record in view.records] == list(range(1, t))
            self.states.append(view.state)
        return FillMove({t % 4 + 1: rat(2, 3), (t + 1) % 4 + 1: rat(1, 2)})


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, p=1, steps=1),
            dict(n=2, p=3, steps=1),
            dict(n=2, p=0, steps=1),
            dict(n=2, p=1, steps=-1),
            dict(n=2, p=1, steps=1, seed=-1),
            dict(n=2, p=1, steps=1, visibility="psychic"),
            dict(n=2, p=1, steps=1, truncation=1),
            dict(n=2, p=1, steps=1, truncation="x"),
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            GameConfig(**kwargs)

    def test_unknown_specs_rejected(self):
        with pytest.raises(ConfigError):
            run_game(GameConfig(n=2, p=1, steps=1, filler="nope"))
        with pytest.raises(ConfigError):
            run_game(GameConfig(n=2, p=1, steps=1, emptier="nope"))


@st.composite
def small_games(draw):
    n = draw(st.integers(1, 6))
    p = draw(st.integers(1, n))
    seed = draw(st.integers(0, 2**32))
    emptier = draw(st.sampled_from(["greedy", "smoothed-greedy"]))
    return GameConfig(
        n=n, p=p, steps=25, seed=seed, filler="random", emptier=emptier
    )


class TestEngineProperties:
    @settings(max_examples=40, deadline=None)
    @given(small_games())
    def test_no_negative_fills_and_conservation(self, config):
        trace = run_game(config)
        assert trace.violation is None
        state = trace.initial
        for record in trace.records:
            assert all(fill >= 0 for fill in record.post.fills)
            deposited = sum(amount for _, amount in record.fill.amounts)
            assert sum(record.intermediate.fills) == sum(state.fills) + deposited
            assert_removals(record)
            assert len(record.empty.cups) <= config.p
            state = record.post

    @settings(max_examples=25, deadline=None)
    @given(small_games())
    def test_derived_series_recomputable(self, config):
        trace = run_game(config)
        states = trace.states()
        assert trace.max_backlog() == max(state.backlog() for state in states)
        assert trace.empirical_M() == max(state.prefix_stats(config.p)[1] for state in states)

    def test_max_backlog_compares_states_across_denominators(self):
        # the fullest post state, 7/6, has neither the largest den nor the last
        posts = [rat(9, 10), rat(7, 6), rat(1)]
        trace = forge(2, 1, "greedy", [({}, [fill, 0], [], [fill, 0]) for fill in posts])
        assert [state.den for state in trace.states()] == [1, 10, 6, 1]
        assert trace.max_backlog() == rat(7, 6) == max(s.backlog() for s in trace.states())


@pytest.mark.parametrize("spec", ["random:1/2", "harmonic", "growth"])
def test_engine_steps_build_no_fraction(spec, monkeypatch):
    """Against greedy, which drains partial fills, a 2T-step game builds as
    many Fractions as a T-step game: the steps themselves build none."""
    built = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(cls)
        return original(cls, *args, **kwargs)

    counts = []
    for steps in (100, 200):
        config = GameConfig(n=16, p=3, steps=steps, seed=5, filler=spec, emptier="greedy")
        filler = make_filler(spec, config, stream(config.seed, FILLER_LABEL))
        built.clear()
        monkeypatch.setattr(Fraction, "__new__", counting)
        trace = run_game(config, filler=filler)
        monkeypatch.undo()
        assert trace.violation is None
        counts.append(len(built))
    assert counts[0] == counts[1]
