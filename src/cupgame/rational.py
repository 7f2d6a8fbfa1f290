"""Exact rational arithmetic used everywhere in the simulator.

Every fill, deposit, threshold, and statistic is an exact rational; no
floating-point value ever enters game arithmetic.  The preferred backend is
gmpy2.mpq (C implementation, ~10x faster than fractions.Fraction on the sort
and add operations that dominate a simulation step); if gmpy2 is unavailable
the module falls back to fractions.Fraction with identical semantics.

Canonical text form is "num/den" in lowest terms with an explicit denominator
("0/1", "2/1", "11/6"); the parser additionally accepts bare integers.
Decimal renderings are produced with the decimal module at a fixed number of
significant digits so that output files are reproducible byte for byte.
"""

from __future__ import annotations

import decimal
from fractions import Fraction
from numbers import Rational

try:
    from gmpy2 import mpq as _mpq

    RAT_BACKEND = "gmpy2"
except ImportError:  # pragma: no cover - exercised only without gmpy2
    _mpq = Fraction
    RAT_BACKEND = "fractions"

ZERO = _mpq(0)
ONE = _mpq(1)


def rat(numerator: int, denominator: int = 1):
    """Build the exact rational numerator/denominator."""
    return _mpq(numerator, denominator)


def as_rat(value):
    """Coerce value to an exact rational.

    Accepts ints, Fractions, backend rationals, and canonical text.  Floats
    are rejected: they are not exact and must never leak into game state.
    """
    if type(value) is _mpq:  # hot path: game arithmetic stays in the backend
        return value
    if isinstance(value, bool):
        raise ValueError(f"not an exact rational: {value!r}")
    if isinstance(value, (int, Rational)):
        return _mpq(value)
    if isinstance(value, str):
        return parse_rat(value)
    raise ValueError(f"not an exact rational: {value!r}")


def is_integral(value) -> bool:
    return as_rat(value).denominator == 1


def floor_rat(value) -> int:
    value = as_rat(value)
    return int(value.numerator) // int(value.denominator)


def format_rat(value) -> str:
    value = as_rat(value)
    return f"{int(value.numerator)}/{int(value.denominator)}"


def parse_rat(text: str):
    """Parse "num/den" or a bare integer; normalizes to lowest terms."""
    parts = text.strip().split("/")
    try:
        if len(parts) == 1:
            return _mpq(int(parts[0]))
        if len(parts) == 2:
            den = int(parts[1])
            if den == 0:
                raise ValueError
            return _mpq(int(parts[0]), den)
    except (ValueError, TypeError):
        pass
    raise ValueError(f"malformed rational: {text!r}")


def to_decimal(value, significant: int = 15) -> str:
    """Render value as a decimal string with the given significant digits.

    Computed with the decimal module (never via float) so the rendering is
    exact, deterministic, and platform independent.
    """
    value = as_rat(value)
    with decimal.localcontext() as ctx:
        ctx.prec = significant
        quotient = decimal.Decimal(int(value.numerator)) / decimal.Decimal(
            int(value.denominator)
        )
        return str(quotient)


def exact_and_decimal(value) -> dict:
    """The JSON form of an exact value: canonical text plus its decimal."""
    return {"exact": format_rat(value), "decimal": to_decimal(value)}
