"""Deterministic, labeled randomness.

All strategy randomness in a run derives from the config seed.  Each consumer
gets its own stream, split from the seed by a fixed label ("filler",
"offset"), so that e.g. swapping the emptier never perturbs the filler's
draws.  Streams are stdlib random.Random instances seeded from
SHA-256(seed, label); replaying a seed replays every stream exactly.
"""

from __future__ import annotations

import hashlib
import random

from .rational import rat

FILLER_LABEL = "filler"
OFFSET_LABEL = "offset"

_OFFSET_DENOMINATOR = 1 << 64


def stream(seed: int, label: str) -> random.Random:
    """An independent deterministic stream for (seed, label)."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    digest = hashlib.sha256(f"{seed}:{label}".encode("ascii")).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


def dyadic_unit(rng: random.Random):
    """An exact dyadic rational k/2^64 uniform over [0, 1)."""
    return rat(rng.getrandbits(64), _OFFSET_DENOMINATOR)
