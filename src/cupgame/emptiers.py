"""Emptier strategies.

greedy            drain the p fullest cups, removing min(1, fill) from each.
smoothed-greedy   start every cup at an independent random offset in [0, 1),
                  select greedily, but remove water only from selected cups
                  holding at least 1 unit (exactly 1 unit each).  Selected
                  cups under 1 unit are skipped, not re-selected.
threshold-blind   a deliberately bad emptier that no lemma covers: it drains
                  the single fullest cup and otherwise the emptiest ones.

Spec strings: "greedy", "smoothed-greedy", "threshold-blind:L,C".
"""

from __future__ import annotations

from .engine import ConfigError, EmptyMove
from .rational import as_rat, parse_rat
from .rng import dyadic_unit
from .state import CupState


class GreedyEmptier:
    def initial_fills(self, config, rng):
        return None

    def select(self, state: CupState, p: int) -> EmptyMove:
        return EmptyMove(state.top_cups(p), skip_under_one=False)


class SmoothedGreedyEmptier:
    def initial_fills(self, config, rng):
        """Random offsets r_j, exact dyadics k/2^64, deposited as S_0."""
        return [dyadic_unit(rng) for _ in range(config.n)]

    def select(self, state: CupState, p: int) -> EmptyMove:
        return EmptyMove(state.top_cups(p), skip_under_one=True)


class ThresholdBlindEmptier:
    """Drains the fullest cup plus the p-1 least-full cups.

    When two or more cups sit at or above its configured threshold, at most
    one of them is drained whenever the emptiest cups are far below it.  No
    checker's lemma covers this emptier.
    """

    def __init__(self, ell, c):
        ell = as_rat(ell)
        c = as_rat(c)
        if ell <= 0:
            raise ConfigError(f"threshold-blind needs L > 0, got {ell}")
        if c < 1:
            raise ConfigError(f"threshold-blind needs C >= 1, got {c}")
        self.ell = ell
        self.c = c

    def initial_fills(self, config, rng):
        return None

    def select(self, state: CupState, p: int) -> EmptyMove:
        if p >= state.n:
            return EmptyMove(range(1, state.n + 1))
        ranked = state.top_cups(state.n)
        return EmptyMove(ranked[:1] + ranked[state.n - (p - 1):])


def make_emptier(spec: str):
    name, _, params = spec.partition(":")
    name = name.strip()
    if name == "greedy":
        if params:
            raise ConfigError("greedy takes no parameters")
        return GreedyEmptier()
    if name == "smoothed-greedy":
        if params:
            raise ConfigError("smoothed-greedy takes no parameters")
        return SmoothedGreedyEmptier()
    if name == "threshold-blind":
        parts = [part.strip() for part in params.split(",")] if params else []
        if len(parts) != 2:
            raise ConfigError("threshold-blind needs exactly L,C parameters")
        try:
            return ThresholdBlindEmptier(parse_rat(parts[0]), parse_rat(parts[1]))
        except ValueError as err:
            raise ConfigError(f"bad threshold-blind parameters: {err}") from None
    raise ConfigError(f"unknown emptier spec {spec!r}")
