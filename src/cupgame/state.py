"""Cup states and the order statistics the analysis is written in.

A CupState is an immutable snapshot of n cups, indexed by cup id 1..n, each
holding an exact rational fill >= 0.  Rank queries use the convention that
rank 1 is fullest and ties break toward the smaller cup id, so every rank
query has exactly one answer and identical states always rank identically.
The tie rule comes from the ranking itself: one stable descending sort of
the cup ids by fill keeps tied cups in id order.

Fills are Python ints `scaled` over one denominator `den`, so ranks, sums
and maxima compare ints.  A state built from rationals starts `den` at the
lcm of their denominators; engine steps keep or raise it (engine.py), so
within a run it never shrinks.  The rational `fills` are built on first use.
"""

from __future__ import annotations

from math import lcm

from .rational import ZERO, as_rat, rat


class CupState:
    """Immutable fills for cups 1..n with a cached rank order."""

    __slots__ = ("scaled", "den", "_fills", "_ranked")

    def __init__(self, fills):
        fills = tuple(as_rat(f) for f in fills)
        for index, fill in enumerate(fills):
            if fill < 0:
                raise ValueError(f"cup {index + 1} has negative fill {fill}")
        if not fills:
            raise ValueError("a game needs at least one cup")
        self.den = den = lcm(*(fill.denominator for fill in fills))
        self.scaled = tuple(fill.numerator * (den // fill.denominator) for fill in fills)
        self._fills = fills
        self._ranked = None

    @classmethod
    def _wrap(cls, scaled: tuple, den: int) -> "CupState":
        # engine transitions only: scaled must already hold nonnegative ints
        # over den, so re-validating every cup per step would be pure waste
        state = object.__new__(cls)
        state.scaled = scaled
        state.den = den
        state._fills = None
        state._ranked = None
        return state

    @classmethod
    def zeros(cls, n: int) -> "CupState":
        if n < 1:
            raise ValueError(f"cup count must be >= 1, got {n}")
        return cls([ZERO] * n)

    @property
    def n(self) -> int:
        return len(self.scaled)

    @property
    def fills(self) -> tuple:
        """The exact rational fills, cups 1..n."""
        if self._fills is None:
            self._fills = tuple(rat(scaled, self.den) for scaled in self.scaled)
        return self._fills

    def fill_of(self, cup: int):
        if not 1 <= cup <= self.n:
            raise ValueError(f"cup id {cup} outside 1..{self.n}")
        if self._fills is None:  # one cup's rational, not the whole tuple
            return rat(self.scaled[cup - 1], self.den)
        return self._fills[cup - 1]

    def _rank_order(self):
        """Cup ids, fullest first; the stable sort keeps ties in id order."""
        if self._ranked is None:
            ranked = sorted(range(self.n), key=self.scaled.__getitem__, reverse=True)
            self._ranked = [index + 1 for index in ranked]
        return self._ranked

    def rank_fill(self, rank: int):
        """Fill of the rank-th fullest cup (rank 1 = fullest)."""
        if not 1 <= rank <= self.n:
            raise ValueError(f"rank {rank} outside 1..{self.n}")
        return self.fill_of(self._rank_order()[rank - 1])

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
        fills = self.scaled
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

    def top_scaled(self, k: int) -> list:
        """The k largest scaled fills (over den), largest first.

        Values only, from one sort of the ints: no tie order can change them.
        """
        return sorted(self.scaled, reverse=True)[:k]

    def prefix_stats(self, i: int):
        """(total, average) fill of the i fullest cups.

        The run statistics read the ints instead (Trace.top_masses); this
        and rank_fill stay because perfbench/tracing.py wraps them by name.
        """
        if not 1 <= i <= self.n:
            raise ValueError(f"rank {i} outside 1..{self.n}")
        total = sum(self.top_scaled(i))
        return rat(total, self.den), rat(total, self.den * i)

    def backlog(self):
        """Fill of the fullest cup."""
        return rat(max(self.scaled), self.den)

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
