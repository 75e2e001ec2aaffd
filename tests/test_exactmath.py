"""Rational arithmetic and the alternating binomial moment identities."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fdcorr import binom, format_rational, moment_sum
from fdcorr.exactmath import exact

SHIFTS = [
    Fraction(-2),
    Fraction(-1),
    Fraction(-1, 2),
    Fraction(0),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
]


class TestBinom:
    @pytest.mark.parametrize(
        "n, j, expected", [(4, 2, 6), (6, 3, 20), (11, 5, 462), (0, 0, 1)]
    )
    def test_values(self, n, j, expected):
        assert binom(n, j) == expected

    def test_lower_exceeds_upper(self):
        with pytest.raises(ValueError):
            binom(3, 5)

    def test_negative(self):
        with pytest.raises(ValueError):
            binom(-1, 0)


class TestMomentSum:
    def test_below_lead_vanishes(self):
        assert moment_sum(3, 0, 2) == 0

    def test_at_lead_is_factorial(self):
        assert moment_sum(3, 0, 3) == 6

    def test_half_shift_below_lead(self):
        assert moment_sum(4, Fraction(1, 2), 2) == 0
        assert moment_sum(4, "1/2", 4) == 24

    def test_float_shift_is_named_in_a_type_error(self):
        with pytest.raises(TypeError) as excinfo:
            moment_sum(4, 0.5, 2)
        assert str(excinfo.value) == "exact rational expected (int or Fraction), got 0.5"

    def test_brute_force_value(self):
        # independent term-by-term evaluation, frozen
        expected = sum(
            (-1) ** j * math.comb(2, j) * Fraction(2 - 1 - j) ** 4 for j in range(3)
        )
        assert expected == 2
        assert moment_sum(2, -1, 4) == 2

    @pytest.mark.parametrize("r", SHIFTS)
    @pytest.mark.parametrize("m", range(1, 13))
    def test_vanishing_and_factorial(self, m, r):
        for p in range(1, m):
            assert moment_sum(m, r, p) == 0
        assert moment_sum(m, r, m) == math.factorial(m)

    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("p", range(7))
    def test_odd_power_symmetric_sum_vanishes(self, m, p):
        total = sum(
            (-1) ** j * binom(2 * m, j) * Fraction(m - j) ** (2 * p + 1)
            for j in range(2 * m + 1)
        )
        assert total == 0

    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("p", range(7))
    def test_even_power_half_shifted_sum_vanishes(self, m, p):
        total = sum(
            (-1) ** j * binom(2 * m + 1, j) * (Fraction(m - j) + Fraction(1, 2)) ** (2 * p)
            for j in range(2 * m + 2)
        )
        assert total == 0

    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("p", range(7))
    def test_paired_half_shift_sum_vanishes(self, m, p):
        total = sum(
            (-1) ** j
            * binom(2 * m, j)
            * (
                (Fraction(m - j) + Fraction(1, 2)) ** (2 * p + 1)
                + (Fraction(m - j) - Fraction(1, 2)) ** (2 * p + 1)
            )
            for j in range(2 * m + 1)
        )
        assert total == 0

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            moment_sum(0, 0, 1)
        with pytest.raises(ValueError):
            moment_sum(2, 0, -1)


class TestRationalInvariants:
    def test_always_reduced(self):
        q = Fraction(6, -8)
        assert q.denominator > 0
        assert math.gcd(abs(q.numerator), q.denominator) == 1
        assert q == Fraction(-3, 4)

    def test_zero_base_negative_power_rejected(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(0) ** -1

    @given(
        st.fractions(max_denominator=10**9),
        st.fractions(max_denominator=10**9),
    )
    def test_add_sub_round_trip(self, a, b):
        assert (a + b) - b == a

    @given(st.fractions(max_denominator=10**6))
    def test_format_parse_round_trip(self, q):
        assert Fraction(format_rational(q)) == q

    def test_integer_formatting_omits_denominator(self):
        assert format_rational(Fraction(7)) == "7"
        assert format_rational(Fraction(-9, 8)) == "-9/8"

    @pytest.mark.parametrize(
        "value, text", [(3, "3"), (Fraction(1, 10), "1/10"), ("2/4", "1/2"), (" -6/8 ", "-3/4")],
        ids=repr,
    )
    def test_ints_fractions_and_strings_format(self, value, text):
        assert format_rational(value) == text

    @pytest.mark.parametrize("value", [0.1, 2.0], ids=repr)
    def test_float_is_named_in_a_type_error(self, value):
        with pytest.raises(TypeError) as excinfo:
            format_rational(value)
        assert str(excinfo.value) == f"exact rational expected (int or Fraction), got {value!r}"


class TestExact:
    @pytest.mark.parametrize(
        "value, expected",
        [(Fraction(1, 3), Fraction(1, 3)), (7, Fraction(7)), (True, Fraction(1)), ("2/4", Fraction(1, 2))],
        ids=repr,
    )
    def test_exact_values_give_equal_fractions(self, value, expected):
        got = exact(value)
        assert type(got) is Fraction
        assert got == expected

    def test_fraction_comes_back_unchanged(self):
        value = Fraction(1, 3)
        assert exact(value) is value

    def test_fraction_subclass_comes_back_plain(self):
        class Tagged(Fraction):
            pass

        got = exact(Tagged(3, 4))
        assert type(got) is Fraction
        assert got == Fraction(3, 4)

    @pytest.mark.parametrize("value", [0.5, Decimal("0.5")], ids=repr)
    def test_inexact_value_is_named_in_a_type_error(self, value):
        with pytest.raises(TypeError) as excinfo:
            exact(value)
        assert str(excinfo.value) == f"exact rational expected (int or Fraction), got {value!r}"
