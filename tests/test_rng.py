"""Labeled deterministic streams."""

from __future__ import annotations

import pytest

from cupgame.rng import FILLER_LABEL, OFFSET_LABEL, dyadic_unit, stream


def test_same_seed_same_label_replays():
    a = stream(42, FILLER_LABEL)
    b = stream(42, FILLER_LABEL)
    assert [a.getrandbits(32) for _ in range(8)] == [
        b.getrandbits(32) for _ in range(8)
    ]


def test_labels_are_independent():
    draws = {
        label: stream(42, label).getrandbits(64)
        for label in (FILLER_LABEL, OFFSET_LABEL, "other")
    }
    assert len(set(draws.values())) == 3


def test_seed_range_enforced():
    with pytest.raises(ValueError):
        stream(-1, FILLER_LABEL)
    with pytest.raises(ValueError):
        stream(1 << 64, FILLER_LABEL)
    stream(0, FILLER_LABEL)
    stream((1 << 64) - 1, FILLER_LABEL)


def test_dyadic_unit_is_exact_and_in_range():
    rng = stream(7, OFFSET_LABEL)
    seen = set()
    for _ in range(64):
        value = dyadic_unit(rng)
        assert 0 <= value < 1
        assert (1 << 64) % value.denominator == 0
        seen.add(value)
    assert len(seen) > 60  # collisions would signal a broken stream
