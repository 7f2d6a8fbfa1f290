"""The one spec grammar ("name:a,b") behind make_filler and make_emptier."""

from __future__ import annotations

import re

import pytest

from conftest import moves_of
from cupgame.emptiers import (
    GreedyEmptier,
    SmoothedGreedyEmptier,
    ThresholdBlindEmptier,
    make_emptier,
)
from cupgame.engine import ConfigError, GameConfig, run_game
from cupgame.fillers import (
    ObliviousFiller,
    RandomFiller,
    ShrinkingPassFiller,
    SpreadShrinkFiller,
    make_filler,
)
from cupgame.rational import rat
from cupgame.rng import FILLER_LABEL, stream

CONFIG = GameConfig(n=10, p=2, steps=1)  # anchor-swap defaults: P=2, R=8, L=2


def _anti_greedy(rng, ell, c, phases, round_steps):  # round_steps = floor(C*ELL) - 1
    filler = SpreadShrinkFiller(CONFIG, rng, phases, 1, round_steps, swaps=False)
    filler.ell, filler.c = ell, c
    return filler


# every stock spec, and the strategy it must build, constructed directly
STOCK_SPECS = [
    ("filler", "zero", lambda rng: ObliviousFiller()),
    ("filler", "random", lambda rng: RandomFiller(CONFIG, rng, rat(1, 2))),
    ("filler", "random:", lambda rng: RandomFiller(CONFIG, rng, rat(1, 2))),
    ("filler", "random:1/4", lambda rng: RandomFiller(CONFIG, rng, rat(1, 4))),
    ("filler", " random : 1 ", lambda rng: RandomFiller(CONFIG, rng, 1)),
    ("filler", "harmonic", lambda rng: ShrinkingPassFiller(CONFIG, anchors=0)),
    ("filler", "growth", lambda rng: ShrinkingPassFiller(CONFIG, anchors=1)),
    ("filler", "anchor-swap",
     lambda rng: SpreadShrinkFiller(CONFIG, rng, 2, 8, 2, swaps=True)),
    ("filler", "anchor-swap:3",
     lambda rng: SpreadShrinkFiller(CONFIG, rng, 3, 8, 2, swaps=True)),
    ("filler", "anchor-swap:3,4",
     lambda rng: SpreadShrinkFiller(CONFIG, rng, 3, 4, 2, swaps=True)),
    ("filler", "anchor-swap:3, 4, 5",
     lambda rng: SpreadShrinkFiller(CONFIG, rng, 3, 4, 5, swaps=True)),
    ("filler", "anti-greedy", lambda rng: _anti_greedy(rng, 8, rat(1, 2), 128, 3)),
    ("filler", "anti-greedy:6", lambda rng: _anti_greedy(rng, 6, rat(1, 2), 128, 2)),
    ("filler", "anti-greedy:8,3/4", lambda rng: _anti_greedy(rng, 8, rat(3, 4), 128, 5)),
    ("filler", "anti-greedy:8,1/2,4", lambda rng: _anti_greedy(rng, 8, rat(1, 2), 4, 3)),
    ("emptier", "greedy", lambda rng: GreedyEmptier()),
    ("emptier", "smoothed-greedy", lambda rng: SmoothedGreedyEmptier()),
    ("emptier", "threshold-blind", lambda rng: ThresholdBlindEmptier()),
]

# every malformed spec, and whether the grammar itself (not a strategy's
# range check) rejects it, in which case the message quotes the whole spec
BAD_SPECS = [
    ("filler", "nope", True),
    ("filler", "zero:1", True),
    ("filler", "harmonic:2", True),
    ("filler", "growth:x", True),
    ("filler", "random:a", True),
    ("filler", "anchor-swap:1,2,3,4", True),
    ("filler", "random:2", False),
    ("filler", "anchor-swap:0,1,2", False),
    ("filler", "anti-greedy:0", False),
    ("filler", "anti-greedy:8,0", False),
    ("emptier", "nope", True),
    ("emptier", "greedy:1", True),
    ("emptier", "smoothed-greedy:2", True),
    ("emptier", "threshold-blind:2,2", True),
    ("emptier", "threshold-blind:4", True),
    ("emptier", "threshold-blind:4,2,1", True),
    ("emptier", "threshold-blind:a,b", True),
]


def _make(what, spec, rng):
    return make_filler(spec, CONFIG, rng) if what == "filler" else make_emptier(spec)


def _fields(strategy):
    """vars(strategy), its rng as the rng's state and its move iterator left out."""
    fields = {key: value for key, value in vars(strategy).items() if key != "_moves"}
    if "rng" in fields:
        fields["rng"] = fields["rng"].getstate()
    return fields


@pytest.mark.parametrize("what, spec, expected", STOCK_SPECS,
                         ids=[f"{row[0]}-{row[1]}" for row in STOCK_SPECS])
def test_stock_spec_builds_its_strategy(what, spec, expected):
    built = _make(what, spec, stream(0, FILLER_LABEL))
    want = expected(stream(0, FILLER_LABEL))
    assert type(built) is type(want)
    assert _fields(built) == _fields(want)
    if what == "filler":  # equal generators never compare equal: play them
        config = GameConfig(n=CONFIG.n, p=CONFIG.p, steps=40)
        assert moves_of(run_game(config, filler=built)) == moves_of(
            run_game(config, filler=want))
        assert _fields(built) == _fields(want)


@pytest.mark.parametrize("what, spec, grammar", BAD_SPECS,
                         ids=[f"{row[0]}-{row[1]}" for row in BAD_SPECS])
def test_malformed_spec_is_a_config_error_naming_it(what, spec, grammar):
    named = repr(spec) if grammar else spec.partition(":")[0]
    with pytest.raises(ConfigError, match=re.escape(named)):
        _make(what, spec, stream(0, FILLER_LABEL))
