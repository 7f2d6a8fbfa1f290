"""Cup states and the order statistics the analysis is written in.

A CupState is an immutable snapshot of n cups, indexed by cup id 1..n, each
holding an exact rational fill >= 0.  Rank queries use the convention that
rank 1 is fullest and ties break toward the smaller cup id, so every rank
query has exactly one answer and identical states always rank identically.
top_cups(k) is a set, the k fullest cups as ascending ids: the cups above
the k-th largest fill, and the smallest ids of those tied at it.  Values in
rank order come from top_scaled, which no tie rule can change.

Fills are Python ints `scaled` over one denominator `den`, so ranks, sums
and maxima compare ints.  A state built from rationals starts `den` at the
lcm of their denominators; engine steps keep or raise it (engine.py), so
within a run it never shrinks.  The rational `fills` are built on each call.
"""

from __future__ import annotations

from math import lcm

from .rational import ZERO, as_rat, rat


class CupState:
    """Immutable fills for cups 1..n, held as ints over one denominator."""

    __slots__ = ("scaled", "den")

    def __init__(self, fills):
        fills = tuple(as_rat(f) for f in fills)
        for index, fill in enumerate(fills):
            if fill < 0:
                raise ValueError(f"cup {index + 1} has negative fill {fill}")
        if not fills:
            raise ValueError("a game needs at least one cup")
        self.den = den = lcm(*(fill.denominator for fill in fills))
        self.scaled = tuple(fill.numerator * (den // fill.denominator) for fill in fills)

    @classmethod
    def _wrap(cls, scaled: tuple, den: int) -> "CupState":
        # engine transitions only: scaled must already hold nonnegative ints
        # over den, so re-validating every cup per step would be pure waste
        state = object.__new__(cls)
        state.scaled = scaled
        state.den = den
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
        return tuple(rat(scaled, self.den) for scaled in self.scaled)

    def fill_of(self, cup: int):
        if not 1 <= cup <= self.n:
            raise ValueError(f"cup id {cup} outside 1..{self.n}")
        return rat(self.scaled[cup - 1], self.den)

    def rank_fill(self, rank: int):
        """Fill of the rank-th fullest cup (rank 1 = fullest)."""
        if not 1 <= rank <= self.n:
            raise ValueError(f"rank {rank} outside 1..{self.n}")
        return rat(self.top_scaled(rank)[-1], self.den)

    def top_cups(self, k: int) -> tuple[int, ...]:
        """The k fullest cups as ascending ids, ties going to the smaller id.

        One sort of the ints finds the cut, the k-th largest fill.  If the cut
        is tied past rank k, the cups above it (one pass) are joined by the
        smallest ids at it, from index scans that resume after the last find;
        else one pass takes the cups at or above it.  k = 1 reads the first
        maximum's index instead, and k = 0 or n needs no sort.
        """
        scaled = self.scaled
        n = len(scaled)
        if not 0 <= k <= n:
            raise ValueError(f"k {k} outside 0..{n}")
        if k == 1:
            return (scaled.index(max(scaled)) + 1,)
        if k == 0 or k == n:
            return tuple(range(1, k + 1))
        ranked = sorted(scaled, reverse=True)
        cut = ranked[k - 1]
        if ranked[k] < cut:  # exactly k cups reach the cut
            return tuple([cup for cup, fill in enumerate(scaled, 1) if fill >= cut])
        top = [cup for cup, fill in enumerate(scaled, 1) if fill > cut] if ranked[0] > cut else []
        cup = 0
        for _ in range(k - len(top)):
            cup = scaled.index(cut, cup) + 1
            top.append(cup)
        return tuple(sorted(top))

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
