"""Emptier strategies.

greedy            drain the p fullest cups, removing min(1, fill) from each.
smoothed-greedy   start every cup at an independent random offset in [0, 1),
                  select greedily, but remove water only from selected cups
                  holding at least 1 unit (exactly 1 unit each).  Selected
                  cups under 1 unit are skipped, not re-selected.
threshold-blind   a deliberately bad emptier that no lemma covers: it drains
                  the single fullest cup and otherwise the emptiest ones.

Spec strings: "greedy", "smoothed-greedy", "threshold-blind"; none takes
parameters.
"""

from __future__ import annotations

from .engine import EmptyMove, parse_spec
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

    Of the cups fuller than the p-1 emptiest it drains only the fullest, so
    water piles up in the runners-up.  No checker's lemma covers this emptier.
    """

    def initial_fills(self, config, rng):
        return None

    def select(self, state: CupState, p: int) -> EmptyMove:
        if p >= state.n:
            return EmptyMove(range(1, state.n + 1))
        ranked = state.top_cups(state.n)
        return EmptyMove(ranked[:1] + ranked[state.n - (p - 1):])


_EMPTIERS = {
    "greedy": GreedyEmptier,
    "smoothed-greedy": SmoothedGreedyEmptier,
    "threshold-blind": ThresholdBlindEmptier,
}


def make_emptier(spec: str):
    name, _ = parse_spec(spec, dict.fromkeys(_EMPTIERS, ()), "emptier")
    return _EMPTIERS[name]()
