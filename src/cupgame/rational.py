"""Exact rational arithmetic used everywhere in the simulator.

Every fill, deposit, threshold, and statistic is an exact rational; no
floating-point value ever enters game arithmetic.  The one backend is
fractions.Fraction.  The engine's hot path does not use it: cup states hold
ints over a common denominator (state.py), which the checkers and the trace
text also read, and rationals are built only where a value leaves them.

Canonical text form is "num/den" in lowest terms with an explicit denominator
("0/1", "2/1", "11/6"); the parser additionally accepts bare integers.
Decimal renderings are produced with the decimal module at a fixed number of
significant digits so that output files are reproducible byte for byte.
"""

from __future__ import annotations

import decimal
from fractions import Fraction
from numbers import Rational

RAT_BACKEND = "fractions"

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(numerator: int, denominator: int = 1):
    """Build the exact rational numerator/denominator."""
    return Fraction(numerator, denominator)


def as_rat(value):
    """Coerce value to an exact rational.

    Accepts ints, Fractions, backend rationals, and canonical text.  Floats
    are rejected: they are not exact and must never leak into game state.
    """
    if type(value) is Fraction:  # hot path: game arithmetic stays in the backend
        return value
    if isinstance(value, bool):
        raise ValueError(f"not an exact rational: {value!r}")
    if isinstance(value, (int, Rational)):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rat(value)
    raise ValueError(f"not an exact rational: {value!r}")


def floor_rat(value) -> int:
    value = as_rat(value)
    return value.numerator // value.denominator


def format_rat(value) -> str:
    value = as_rat(value)
    return f"{value.numerator}/{value.denominator}"


def parse_rat(text: str):
    """Parse "num/den" or a bare integer; normalizes to lowest terms."""
    parts = text.strip().split("/")
    try:
        if len(parts) == 1:
            return Fraction(int(parts[0]))
        if len(parts) == 2:
            den = int(parts[1])
            if den == 0:
                raise ValueError
            return Fraction(int(parts[0]), den)
    except (ValueError, TypeError):
        pass
    raise ValueError(f"malformed rational: {text!r}")


_DECIMAL = decimal.Context(prec=15)  # round half even, as every context starts


def to_decimal(value, den: int = 1) -> str:
    """Render value/den as a decimal string with 15 significant digits.

    value is an int or an exact rational, den a positive int.  Computed
    with the decimal module (never via float) so the rendering is exact,
    deterministic, and platform independent; an exact quotient keeps the
    fewest digits, so an unreduced pair renders like its lowest terms.
    """
    if type(value) is not int:
        value = as_rat(value)
        value, den = value.numerator, value.denominator * den
    return str(_DECIMAL.divide(decimal.Decimal(value), den))


def exact_and_decimal(value) -> dict:
    """The JSON form of an exact value: canonical text plus its decimal."""
    return {"exact": format_rat(value), "decimal": to_decimal(value)}
