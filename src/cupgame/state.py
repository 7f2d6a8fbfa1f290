"""Cup states and the order statistics the analysis is written in.

A CupState is an immutable snapshot of n cups, indexed by cup id 1..n, each
holding an exact rational fill >= 0.  Rank queries use the convention that
rank 1 is fullest and ties break toward the smaller cup id, so every rank
query has exactly one answer and identical states always rank identically.
The tie rule comes from the ranking itself: one stable descending sort of
the cup ids by fill keeps tied cups in id order.
"""

from __future__ import annotations

from .rational import ZERO, as_rat, rat


class CupState:
    """Immutable fills for cups 1..n with a cached rank order."""

    __slots__ = ("fills", "_ranked")

    def __init__(self, fills):
        fills = tuple(as_rat(f) for f in fills)
        for index, fill in enumerate(fills):
            if fill < 0:
                raise ValueError(f"cup {index + 1} has negative fill {fill}")
        if not fills:
            raise ValueError("a game needs at least one cup")
        self.fills = fills
        self._ranked = None

    @classmethod
    def _wrap(cls, fills: tuple) -> "CupState":
        # engine transitions only: fills must already be nonnegative backend
        # rationals, so re-validating every cup per step would be pure waste
        state = object.__new__(cls)
        state.fills = fills
        state._ranked = None
        return state

    @classmethod
    def zeros(cls, n: int) -> "CupState":
        if n < 1:
            raise ValueError(f"cup count must be >= 1, got {n}")
        return cls([ZERO] * n)

    @property
    def n(self) -> int:
        return len(self.fills)

    def fill_of(self, cup: int):
        if not 1 <= cup <= self.n:
            raise ValueError(f"cup id {cup} outside 1..{self.n}")
        return self.fills[cup - 1]

    def _rank_order(self):
        """Cup ids, fullest first; the stable sort keeps ties in id order."""
        if self._ranked is None:
            fills = self.fills
            ranked = sorted(range(self.n), key=fills.__getitem__, reverse=True)
            self._ranked = [index + 1 for index in ranked]
        return self._ranked

    def rank_cup(self, rank: int) -> int:
        """Cup id holding the given rank (1 = fullest)."""
        if not 1 <= rank <= self.n:
            raise ValueError(f"rank {rank} outside 1..{self.n}")
        return self._rank_order()[rank - 1]

    def rank_fill(self, rank: int):
        """Fill of the rank-th fullest cup."""
        return self.fills[self.rank_cup(rank) - 1]

    def top_cups(self, k: int) -> tuple[int, ...]:
        """The k fullest cup ids in rank order (ties toward smaller id)."""
        if not 0 <= k <= self.n:
            raise ValueError(f"k {k} outside 0..{self.n}")
        if k == 0:
            return ()
        if self._ranked is not None or k > 8 or k == self.n:
            return tuple(self._rank_order()[:k])
        # insertion scan: cheaper than a full sort for the small k the
        # emptier needs, and allocation free on the hot path
        fills = self.fills
        top: list[int] = []
        for cup in range(1, self.n + 1):
            fill = fills[cup - 1]
            if len(top) == k and not fill > fills[top[-1] - 1]:
                continue
            at = len(top)
            while at > 0 and fills[top[at - 1] - 1] < fill:
                at -= 1
            top.insert(at, cup)
            if len(top) > k:
                top.pop()
        return tuple(top)

    def prefix_stats(self, i: int):
        """(total, average) fill of the i fullest cups."""
        if not 1 <= i <= self.n:
            raise ValueError(f"rank {i} outside 1..{self.n}")
        fills = self.fills
        total = ZERO
        for cup in self.top_cups(i):
            total += fills[cup - 1]
        return total, total / i

    def backlog(self):
        """Fill of the fullest cup."""
        return max(self.fills)

    def __eq__(self, other):
        return isinstance(other, CupState) and self.fills == other.fills

    def __hash__(self):
        return hash(self.fills)

    def __repr__(self):
        inner = ", ".join(str(f) for f in self.fills)
        return f"CupState({inner})"


def harmonic_number(m: int):
    """H_m = sum_{j=1}^m 1/j, with H_0 = 0."""
    if m < 0:
        raise ValueError(f"harmonic_number needs m >= 0, got {m}")
    total = ZERO
    for j in range(1, m + 1):
        total += rat(1, j)
    return total


def harmonic_tail(k: int, n: int):
    """1 + sum_{j=k+1}^n 1/j: the tail bound the skewed averages obey."""
    if not 1 <= k <= n:
        raise ValueError(f"k {k} outside 1..{n}")
    return 1 + harmonic_number(n) - harmonic_number(k)
