"""Order statistics on cup states, against hand-computed values."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from cupgame.rational import rat
from cupgame.state import CupState, harmonic_number


@st.composite
def cup_states(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    fills = draw(
        st.lists(
            st.fractions(min_value=0, max_value=8, max_denominator=12),
            min_size=n,
            max_size=n,
        )
    )
    return CupState(fills)


def reference_top(fills, k):
    """The sorted ids of the first k cups under the (fill desc, id asc) key."""
    ranked = sorted(range(1, len(fills) + 1), key=lambda j: (-fills[j - 1], j))
    return tuple(sorted(ranked[:k]))


class TestRankQueries:
    def test_ranks_with_tie_broken_by_id(self):
        fills = [rat(1, 2), 2, rat(1, 2), 1]  # ranked 2, 4, 1, 3
        state = CupState(fills)
        assert state.top_cups(3) == reference_top(fills, 3) == (1, 2, 4)
        assert state.top_cups(4) == reference_top(fills, 4) == (1, 2, 3, 4)
        assert state.rank_fill(1) == 2
        assert state.rank_fill(3) == rat(1, 2)
        assert state.backlog() == 2

    def test_top_cups_matches_rank_order(self):
        state = CupState([0, 3, 0, 3, 1])
        assert state.top_cups(3) == (2, 4, 5)
        assert state.top_cups(0) == ()

    def test_rank_out_of_range(self):
        state = CupState.zeros(3)
        with pytest.raises(ValueError):
            state.rank_fill(0)
        with pytest.raises(ValueError):
            state.rank_fill(4)

    @given(cup_states())
    def test_rank_fills_nonincreasing(self, state):
        fills = [state.rank_fill(i) for i in range(1, state.n + 1)]
        assert all(a >= b for a, b in zip(fills, fills[1:]))
        assert sorted(state.top_cups(state.n)) == list(range(1, state.n + 1))

    @given(cup_states(), st.integers(0, 9))
    def test_top_cups_agrees_with_full_ranking(self, state, k):
        k = min(k, state.n)
        top = state.top_cups(k)  # the set of the full ranking's first k cups
        assert top == reference_top(state.fills, k)
        assert sorted((state.fill_of(cup) for cup in top), reverse=True) == [
            state.rank_fill(i) for i in range(1, k + 1)
        ]

    @given(
        st.lists(
            st.sampled_from([0, rat(1, 2), 1, 2]), min_size=1, max_size=24
        ),
        st.data(),
    )
    def test_tie_rule_matches_fill_then_id_key(self, fills, data):
        # reference: the explicit (fill desc, id asc) key; ties are frequent
        # here, so which tied ids fall inside the top i decides most cases
        n = len(fills)
        reference = sorted(range(1, n + 1), key=lambda j: (-fills[j - 1], j))
        k = data.draw(st.integers(0, n))
        state = CupState(fills)
        for i in range(1, n + 1):
            assert state.prefix_stats(i)[0] == sum(
                fills[j - 1] for j in reference[:i]
            )
            assert state.top_cups(i) == tuple(sorted(reference[:i]))
        assert state.top_cups(k) == tuple(sorted(reference[:k]))
        # the values of the ranking, whatever its tie order
        assert [rat(x, state.den) for x in state.top_scaled(k)] == [
            fills[j - 1] for j in reference[:k]
        ]


class TestPrefixAndSubsetStats:
    def test_prefix_stats_examples(self):
        state = CupState([1, 5, 2])
        assert state.prefix_stats(2) == (7, rat(7, 2))
        state = CupState([4, 3, 2, 1])
        assert state.prefix_stats(4) == (10, rat(5, 2))
        assert state.prefix_stats(1) == (4, 4)

    @given(cup_states())
    def test_prefix_sum_consistency(self, state):
        total, average = state.prefix_stats(state.n)
        assert total == sum(state.fills)
        assert average * state.n == total
        for i in range(1, state.n):
            assert state.prefix_stats(i + 1)[0] - state.prefix_stats(i)[0] == (
                state.rank_fill(i + 1)
            )


class TestHarmonics:
    def test_harmonic_number(self):
        assert harmonic_number(0) == 0
        assert harmonic_number(1) == 1
        assert harmonic_number(4) == rat(25, 12)
        # the lower-bound target for n=8, p=1 play
        assert harmonic_number(8) - 1 == rat(481, 280)


class TestStateBasics:
    def test_negative_fill_rejected(self):
        with pytest.raises(ValueError):
            CupState([1, rat(-1, 2)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CupState([])

    def test_equality_and_hash(self):
        a = CupState([1, rat(1, 2)])
        b = CupState([rat(2, 2), rat(2, 4)])
        assert a == b
        assert hash(a) == hash(b)
