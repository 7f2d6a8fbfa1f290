"""Filler strategy behavior: deposits, restarts, phase structure, legality."""

from __future__ import annotations

import hashlib
from types import SimpleNamespace

import pytest

from conftest import moves_of
from cupgame.engine import (
    ConfigError,
    EmptyMove,
    GameConfig,
    run_game,
    validate_fill,
)
from cupgame.fillers import (
    RandomFiller,
    ShrinkingPassFiller,
    SpreadShrinkFiller,
    ZeroFiller,
    make_filler,
)
from cupgame.rational import format_rat, rat
from cupgame.rng import FILLER_LABEL, stream
from cupgame.state import CupState, harmonic_number


def _filler(spec, config, seed=0):
    return make_filler(spec, config, stream(seed, FILLER_LABEL))


class _Idle:
    def initial_fills(self, config, rng):
        return None

    def select(self, state, p):
        return EmptyMove([])


class _DrainSet:
    """Drains a fixed cup set each step (up to p of them)."""

    def __init__(self, cups):
        self.cups = cups

    def initial_fills(self, config, rng):
        return None

    def select(self, state, p):
        return EmptyMove(self.cups[:p])


class TestHarmonic:
    def test_survivor_accumulates_harmonic_sum(self):
        config = GameConfig(n=3, p=1, steps=2, filler="harmonic")
        trace = run_game(config)
        # greedy drains cup 1 then cup 2; cup 3 collects 1/3 + 1/2
        assert trace.records[0].fill.amounts == (
            (1, rat(1, 3)), (2, rat(1, 3)), (3, rat(1, 3))
        )
        assert trace.records[1].fill.amounts == ((2, rat(1, 2)), (3, rat(1, 2)))
        assert trace.records[1].post.fill_of(3) == rat(5, 6)

    def test_pass_restarts_when_targets_exhausted(self):
        config = GameConfig(n=3, p=1, steps=3, filler="harmonic")
        trace = run_game(config)
        # after two steps only cup 3 is unemptied-from; step 3 restarts
        assert trace.records[2].fill.amounts == (
            (1, rat(1, 3)), (2, rat(1, 3)), (3, rat(1, 3))
        )

    def test_unemptied_only_shrinks_on_actual_removal(self):
        config = GameConfig(n=4, p=1, steps=9, filler="harmonic")
        filler = _filler("harmonic", config)
        trace = run_game(config, filler=filler, emptier=_Idle())
        for record in trace.records:
            assert record.fill.amounts == tuple(
                (cup, rat(1, 4)) for cup in (1, 2, 3, 4)
            )

    def test_needs_two_cups(self):
        with pytest.raises(ConfigError):
            _filler("harmonic", GameConfig(n=1, p=1, steps=1))


class TestGrowth:
    def test_first_move_splits_anchor_and_targets(self):
        config = GameConfig(n=4, p=2, steps=1, filler="growth")
        trace = run_game(config)
        assert trace.records[0].fill.amounts == (
            (1, 1), (2, rat(1, 3)), (3, rat(1, 3)), (4, rat(1, 3))
        )

    def test_growth_step_restarts_pass(self):
        config = GameConfig(n=5, p=2, steps=3, filler="growth")
        filler = _filler("growth", config)
        run_game(config, filler=filler, emptier=_DrainSet([3, 4]))
        # both drained cups are targets: every step after the first restarts
        assert filler.growth_steps == [1, 2]

    def test_single_removal_shrinks_pass(self):
        config = GameConfig(n=4, p=2, steps=2, filler="growth")
        filler = _filler("growth", config)
        trace = run_game(config, filler=filler, emptier=_DrainSet([3]))
        assert filler.growth_steps == []
        assert trace.records[1].fill.amounts == (
            (1, 1), (2, rat(1, 2)), (4, rat(1, 2))
        )

    def test_reaches_harmonic_backlog_against_every_emptier(self):
        for n, p in ((4, 1), (5, 2)):
            threshold = harmonic_number(n - p + 1) - 1
            budget = 20 * n * (n - p)
            for emptier in ("greedy", "smoothed-greedy", "threshold-blind"):
                config = GameConfig(
                    n=n, p=p, steps=budget, seed=1, filler="growth", emptier=emptier
                )
                trace = run_game(
                    config, stop_when=lambda t, state: state.backlog() >= threshold
                )
                assert trace.violation is None
                assert trace.steps_executed < budget, (n, p, emptier)
                assert trace.records[-1].post.backlog() >= threshold

    def test_needs_room_for_targets(self):
        with pytest.raises(ConfigError):
            _filler("growth", GameConfig(n=2, p=2, steps=1))


class TestAnchorSwap:
    def test_round_survivor_collects_full_spread(self):
        # no anchors at p=1; one round of length 2 over a 3-cup working set
        for seed in range(10):
            config = GameConfig(
                n=4, p=1, steps=2, seed=seed, filler="anchor-swap:1,1,2",
                visibility="oblivious",
            )
            filler = make_filler(
                config.filler, config, stream(config.seed, FILLER_LABEL)
            )
            trace = run_game(config, filler=filler, emptier=_Idle())
            survivor = filler.events[-1]["survivor"]
            assert trace.records[-1].post.fill_of(survivor) == rat(1, 3) + rat(1, 2)

    def test_phase_and_anchor_structure(self):
        config = GameConfig(
            n=8, p=4, steps=24, seed=3, filler="anchor-swap:2,3,2",
            visibility="oblivious",
        )
        filler = make_filler(config.filler, config, stream(config.seed, FILLER_LABEL))
        trace = run_game(config, filler=filler)
        assert trace.violation is None
        assert filler.natural_steps == 12
        swaps = [e for e in filler.events if e["type"] == "anchor_swap"]
        phase_starts = [e for e in filler.events if e["type"] == "phase_start"]
        # 24 steps = 2 full cycles of 2 phases each
        assert len(phase_starts) == 4
        assert len(swaps) == 4  # exactly one per phase
        for event in filler.events:
            if event["type"] == "phase_start":
                assert 0 <= event["new_anchor_round"] < 3
                assert len(event["anchors"]) == 3
            if event["type"] == "round_start":
                anchors = set(
                    next(
                        e["anchors"] for e in reversed(filler.events[: filler.events.index(event)])
                        if "anchors" in e
                    )
                )
                working = event["working"]
                assert len(working) == 3
                assert not set(working) & anchors
                # smallest-numbered non-anchor cups
                expected = [c for c in range(1, 9) if c not in anchors][:3]
                assert list(working) == expected

    def test_moves_are_legal_and_budgeted(self):
        config = GameConfig(
            n=8, p=4, steps=30, seed=9, filler="anchor-swap",
            visibility="oblivious",
        )
        trace = run_game(config)
        assert trace.violation is None
        for record in trace.records:
            assert sum(amount for _, amount in record.fill.amounts) == 4

    def test_oblivious_across_emptiers(self):
        base = dict(
            n=8, p=4, steps=24, seed=12, filler="anchor-swap:2,3,2",
            visibility="oblivious",
        )
        runs = [
            run_game(GameConfig(emptier=emptier, **base))
            for emptier in ("greedy", "smoothed-greedy", "threshold-blind")
        ]
        assert moves_of(runs[0]) == moves_of(runs[1]) == moves_of(runs[2])

    def test_needs_room(self):
        with pytest.raises(ConfigError):
            _filler("anchor-swap", GameConfig(n=4, p=4, steps=1))


class TestAntiGreedy:
    def test_first_move_example(self):
        config = GameConfig(
            n=10, p=2, steps=1, filler="anti-greedy:8,1/2,4",
            visibility="oblivious",
        )
        trace = run_game(config)
        assert trace.records[0].fill.amounts == (
            (1, 1), (2, rat(1, 4)), (3, rat(1, 4)), (4, rat(1, 4)), (5, rat(1, 4))
        )

    def test_phase_length_and_reset(self):
        config = GameConfig(
            n=10, p=2, steps=7, seed=2, filler="anti-greedy:8,1/2,4",
            visibility="oblivious",
        )
        filler = make_filler(config.filler, config, stream(config.seed, FILLER_LABEL))
        trace = run_game(config, filler=filler)
        assert filler.phase_steps == 3
        assert filler.natural_steps == 12
        starts = [e for e in filler.events if e["type"] == "phase_start"]
        assert len(starts) == 3  # steps 1, 4, 7
        for event in starts:
            assert event["working"] == (2, 3, 4, 5)
        # working set shrinks within each phase
        sizes = [len(record.fill.amounts) for record in trace.records]
        assert sizes == [5, 4, 3, 5, 4, 3, 5]

    def test_oblivious_across_emptiers(self):
        base = dict(
            n=10, p=2, steps=9, seed=21, filler="anti-greedy:8,1/2,4",
            visibility="oblivious",
        )
        runs = [
            run_game(GameConfig(emptier=emptier, **base))
            for emptier in ("greedy", "smoothed-greedy", "threshold-blind")
        ]
        assert moves_of(runs[0]) == moves_of(runs[1]) == moves_of(runs[2])

    def test_parameter_validation(self):
        config = GameConfig(n=10, p=2, steps=1)
        with pytest.raises(ConfigError, match="ELL <= n - p"):
            _filler("anti-greedy:9", config)
        with pytest.raises(ConfigError, match="working set"):
            _filler("anti-greedy:2,1/2", config)
        with pytest.raises(ConfigError, match="PHASES >= 1"):
            _filler("anti-greedy:8,1/2,0", config)


class TestRandomFiller:
    def test_moves_always_legal(self):
        for seed in range(10):
            config = GameConfig(n=7, p=2, steps=40, seed=seed, filler="random")
            trace = run_game(config)
            assert trace.violation is None

    def test_truncation_clamp(self):
        config = GameConfig(
            n=3, p=1, steps=1, filler="random", truncation=3
        )
        state = CupState([rat(5, 2), 0, 0])
        for seed in range(30):
            filler = RandomFiller(config, stream(seed, FILLER_LABEL))
            move = filler.next_move(1, SimpleNamespace(state=state))
            assert dict(move.amounts).get(1, 0) <= rat(1, 2)
            assert validate_fill(move, config, state) == []

    def test_zero_density_emits_nothing(self):
        config = GameConfig(n=5, p=2, steps=3, filler="random:0")
        trace = run_game(config)
        assert all(record.fill.amounts == () for record in trace.records)

    def test_density_bounds(self):
        config = GameConfig(n=5, p=2, steps=1)
        with pytest.raises(ConfigError):
            RandomFiller(config, stream(0, FILLER_LABEL), density=rat(3, 2))


class TestSpecStrings:
    def test_factory_round_trips(self):
        config = GameConfig(n=10, p=2, steps=1)
        rng = stream(0, FILLER_LABEL)
        assert isinstance(make_filler("zero", config, rng), ZeroFiller)
        assert isinstance(make_filler("harmonic", config, rng), ShrinkingPassFiller)
        assert isinstance(make_filler("growth", config, rng), ShrinkingPassFiller)
        assert isinstance(make_filler("random:1/4", config, rng), RandomFiller)
        anchor = make_filler("anchor-swap:2,3,2", config, rng)
        assert isinstance(anchor, SpreadShrinkFiller)
        assert (anchor.phases, anchor.rounds, anchor.round_steps) == (2, 3, 2)
        anti = make_filler("anti-greedy:8,1/2,4", config, rng)
        assert isinstance(anti, SpreadShrinkFiller)
        assert (anti.ell, anti.c, anti.phases) == (8, rat(1, 2), 4)

    def test_defaults_from_p(self):
        config = GameConfig(n=16, p=4, steps=1)
        anchor = make_filler("anchor-swap", config, stream(0, FILLER_LABEL))
        assert anchor.phases == 4
        assert anchor.rounds == 64
        assert anchor.round_steps == 2

    @pytest.mark.parametrize(
        "spec",
        ["nope", "zero:1", "harmonic:2", "growth:x", "random:2",
         "anchor-swap:1,2,3,4", "anchor-swap:0,1,2", "anti-greedy:0",
         "anti-greedy:8,0", "random:a"],
    )
    def test_bad_specs_rejected(self, spec):
        config = GameConfig(n=10, p=2, steps=1)
        with pytest.raises(ConfigError):
            make_filler(spec, config, stream(0, FILLER_LABEL))


# SHA-256 of every move, plus the filler's events, passes and growth_steps
# (empty when the filler keeps none), over PARITY_GRID x PARITY_EMPTIERS.
# Recorded from the one-class-per-construction fillers; any change to a
# construction's moves, RNG draws or telemetry changes its digest.
PARITY_DIGESTS = {
    "harmonic": "e4cf5f884f4200dd49f755a5af6d011f0d2c4af6f50a572cb7671fdec4abf416",
    "growth": "fe6b466637282f37c5a667a5d029d1f1e53b0fc584d50fcd44ae496029afdcdc",
    "anchor-swap": "83bdf5776d95af458b91c6a1f2afb4e2d933058106a488aead4c8caa78a6a23d",
    "anchor-swap:8,64,2": "73fb2446ab46a6075712e975ee4beb10211e5db8ae052d7883290d4da3068eef",
    "anchor-swap:1,1,2": "4b1d66e89dbd7cf39b34a4417f82e1fd86c35e2860c8456a091e8cdf5a777338",
    "anti-greedy": "e4b2918d38d1c2fc3092ebd13a071d5db1202fec326d56c51930e803f9fc7649",
    "anti-greedy:16,3/4,128": "0ad8a1ac5b6f6466e82130360fe4e6e9a663e76b9f5dfbd5e03caa88799fbe0d",
    "anti-greedy:8,1/2,4": "e4b2918d38d1c2fc3092ebd13a071d5db1202fec326d56c51930e803f9fc7649",
}
PARITY_GRID = ((17, 1, 0), (18, 2, 1), (20, 4, 2), (24, 3, 7))  # (n, p, seed)
PARITY_EMPTIERS = ("greedy", "smoothed-greedy", "threshold-blind")


@pytest.mark.parametrize("spec", sorted(PARITY_DIGESTS))
def test_filler_spec_replays_frozen_digest(spec):
    visibility = "adaptive" if spec in ("harmonic", "growth") else "oblivious"
    digest = hashlib.sha256()
    for n, p, seed in PARITY_GRID:
        for emptier in PARITY_EMPTIERS:
            config = GameConfig(
                n=n, p=p, steps=60, seed=seed, filler=spec, emptier=emptier,
                visibility=visibility,
            )
            filler = make_filler(spec, config, stream(seed, FILLER_LABEL))
            trace = run_game(config, filler=filler)
            assert trace.violation is None
            moves = [
                [(cup, format_rat(amount)) for cup, amount in record.fill.amounts]
                for record in trace.records
            ]
            digest.update(repr((
                moves,
                getattr(filler, "events", []),
                getattr(filler, "passes", 0),
                getattr(filler, "growth_steps", []),
            )).encode())
    assert digest.hexdigest() == PARITY_DIGESTS[spec]
