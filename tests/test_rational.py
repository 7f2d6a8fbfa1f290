"""Exactness and serialization of the rational layer."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cupgame.rational import (
    as_rat,
    floor_rat,
    format_rat,
    parse_rat,
    rat,
    to_decimal,
)


class TestConstruction:
    def test_lowest_terms(self):
        assert format_rat(rat(6, 4)) == "3/2"
        assert format_rat(rat(0, 7)) == "0/1"
        assert format_rat(rat(2)) == "2/1"

    def test_fraction_interop(self):
        assert as_rat(Fraction(11, 6)) == rat(11, 6)
        assert rat(1, 3) + Fraction(1, 6) == rat(1, 2)

    def test_floats_rejected(self):
        with pytest.raises(ValueError):
            as_rat(0.5)
        with pytest.raises(ValueError):
            as_rat(True)

    def test_malformed_text_rejected(self):
        for bad in ("", "1/0", "a/b", "1/2/3", "1.5"):
            with pytest.raises(ValueError):
                parse_rat(bad)


class TestSerialization:
    def test_parse_accepts_bare_integers(self):
        assert parse_rat("12") == rat(12)
        assert parse_rat("-3") == rat(-3)
        assert parse_rat(" 11/6 ") == rat(11, 6)

    def test_decimal_fifteen_significant_digits(self):
        assert to_decimal(rat(11, 6)) == "1.83333333333333"
        assert to_decimal(rat(1, 2)) == "0.5"
        assert to_decimal(rat(0)) == "0"
        assert to_decimal(rat(481, 280)) == "1.71785714285714"

    @given(st.integers(-10**9, 10**9), st.integers(1, 10**9))
    def test_round_trip_is_identity(self, num, den):
        value = rat(num, den)
        assert parse_rat(format_rat(value)) == value


class TestHelpers:
    def test_floor_and_frac(self):
        assert floor_rat(rat(7, 2)) == 3
        assert floor_rat(rat(-1, 2)) == -1
        assert rat(7, 2) - floor_rat(rat(7, 2)) == rat(1, 2)

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
    def test_floor_frac_decompose(self, num, den):
        value = rat(num, den)
        assert 0 <= value - floor_rat(value) < 1
