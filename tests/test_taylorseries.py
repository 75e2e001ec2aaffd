"""Error-series coefficients against closed forms and a monomial oracle."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdcorr import (
    GridFunction,
    apply,
    binom,
    error_series,
    expand,
    oracle_weights,
    series_from_nodes,
    word,
)

HALF = Fraction(1, 2)


class TestKnownSeries:
    def test_forward_quotient(self):
        s = error_series(word(fwd=1), 4)
        assert s.lead == 1
        assert s.coefficient(2) == Fraction(1, 2)
        assert s.coefficient(3) == Fraction(1, 6)
        assert s.coefficient(4) == Fraction(1, 24)

    def test_second_difference(self):
        s = error_series(word(fwd=1, bwd=1), 6)
        assert s.lead == 2
        assert s.coefficient(4) == Fraction(1, 12)
        assert s.coefficient(6) == Fraction(1, 360)
        assert s.coefficient(3) == 0 and s.coefficient(5) == 0

    def test_half_point_third_difference(self):
        s = error_series(word(cent=1, fwd=1, bwd=1), 5)
        assert s.lead == 3
        assert s.coefficient(4) == 0
        assert s.coefficient(5) == Fraction(1, 8)

    def test_averaged_second_difference(self):
        # closed form for the averaged composite, evaluated independently
        a_12 = (
            sum(
                (-1) ** j
                * binom(2, j)
                * ((Fraction(1 - j) + HALF) ** 4 + (Fraction(1 - j) - HALF) ** 4)
                for j in range(3)
            )
            / 2
        )
        assert a_12 == 5
        s = error_series(word(avg=1, fwd=1, bwd=1), 4)
        assert s.lead == 2
        assert s.coefficient(4) == a_12 / math.factorial(4) == Fraction(5, 24)

    def test_backward_series_matches_classical_expansion(self):
        # guard: the backward family expands with alternating signs
        s = error_series(word(bwd=1), 4)
        assert s.coefficient(2) == Fraction(-1, 2)
        assert s.coefficient(3) == Fraction(1, 6)
        assert s.coefficient(4) == Fraction(-1, 24)
        for m in (1, 2, 3):
            got = error_series(word(bwd=m), m + 4)
            for i in range(m + 1, m + 5):
                closed = sum(
                    (-1) ** j * binom(m, j) * Fraction(-j) ** i for j in range(m + 1)
                ) / math.factorial(i)
                assert got.coefficient(i) == closed


class TestClosedForms:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_forward_powers(self, m):
        s = error_series(word(fwd=m), m + 5)
        for i in range(m + 1, m + 6):
            closed = sum(
                (-1) ** j * binom(m, j) * Fraction(m - j) ** i for j in range(m + 1)
            ) / math.factorial(i)
            assert s.coefficient(i) == closed

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_one_sided_odd_composite(self, m):
        s = error_series(word(fwd=m, bwd=m + 1), 2 * m + 6)
        for i in range(2 * m + 2, 2 * m + 7):
            closed = sum(
                (-1) ** j * binom(2 * m + 1, j) * Fraction(m - j) ** i
                for j in range(2 * m + 2)
            ) / math.factorial(i)
            assert s.coefficient(i) == closed

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_half_point_odd_composite(self, m):
        # nodes at m + 1/2 - j for j = 0..2m+1 (direct expansion convention)
        s = error_series(word(cent=1, fwd=m, bwd=m), 2 * m + 7)
        for i in range(2 * m + 2, 2 * m + 8):
            closed = sum(
                (-1) ** j * binom(2 * m + 1, j) * (Fraction(m - j) + HALF) ** i
                for j in range(2 * m + 2)
            ) / math.factorial(i)
            assert s.coefficient(i) == closed

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_averaged_composite(self, m):
        s = error_series(word(avg=1, fwd=m, bwd=m), 2 * m + 6)
        for i in range(m + 1, m + 4):
            a_mi = (
                sum(
                    (-1) ** j
                    * binom(2 * m, j)
                    * (
                        (Fraction(m - j) + HALF) ** (2 * i)
                        + (Fraction(m - j) - HALF) ** (2 * i)
                    )
                    for j in range(2 * m + 1)
                )
                / 2
            )
            assert s.coefficient(2 * i) == a_mi / math.factorial(2 * i)


class TestParity:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_half_point_composites_expand_in_odd_orders_only(self, m):
        s = error_series(word(cent=1, fwd=m, bwd=m), 12)
        assert all(i % 2 for i in s.coeffs)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_averaged_composites_expand_in_even_orders_only(self, m):
        s = error_series(word(avg=1, fwd=m, bwd=m), 12)
        assert all(i % 2 == 0 for i in s.coeffs)


def word_id(expr):
    powers = {"fwd": expr.p_fwd, "bwd": expr.p_bwd, "cent": expr.p_cent, "avg": expr.p_avg}
    return "*".join(sym if p == 1 else f"{sym}^{p}" for sym, p in powers.items() if p)


MONOMIAL_WORDS = [
    word(fwd=1),
    word(bwd=2),
    word(fwd=1, bwd=1),
    word(cent=1),
    word(cent=1, fwd=1, bwd=1),
    word(avg=1, fwd=1, bwd=1),
    word(fwd=2, bwd=2),
    word(fwd=2, bwd=3),
    word(avg=1),
]


class TestMonomialOracle:
    @pytest.mark.parametrize("expr", MONOMIAL_WORDS, ids=word_id)
    def test_stencil_on_monomials_reproduces_coefficients(self, expr):
        truncation = expr.diff_order + 6
        s = error_series(expr, truncation)
        indices = [Fraction(i, 2) for i in range(-24, 25)]
        for i in range(truncation + 1):
            u = GridFunction({t: t**i for t in indices})
            value = apply(expr, u, 0, Fraction(1))
            if i < expr.diff_order:
                assert value == 0
            elif i == expr.diff_order:
                assert value == math.factorial(i)
            else:
                assert value == math.factorial(i) * s.coefficient(i)


class TestSpacingScaling:
    def test_coefficients_scale_with_step(self):
        base = error_series(word(cent=1), 7)
        wide = error_series(word(cent=1, spacing=3), 7)
        for i in range(2, 8):
            assert wide.coefficient(i) == Fraction(3) ** (i - 1) * base.coefficient(i)


def rational_moment_series(nodes, lead, truncation):
    """Reference: the plain ``Fraction`` moment loop, one node power at a time."""
    coeffs = {}
    for i in range(truncation + 1):
        total = sum((w * o**i for o, w in nodes.items()), start=Fraction(0))
        if i < lead:
            if total:
                raise ValueError(f"nodes do not annihilate degree {i}: moment sum {total}")
        elif i == lead:
            if total != math.factorial(lead):
                raise ValueError(
                    f"lead moment is {total}, expected {lead}! for a normalized "
                    "derivative approximation"
                )
        elif total:
            coeffs[i] = total / math.factorial(i)
    return coeffs


# Offsets on thirds, fifths, sevenths and fifteenths as well as half-steps;
# weights with denominators up to 10**15.
rational_offsets = st.builds(
    Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 5, 7, 15])
)
large_weights = st.builds(
    Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**15)
)


@st.composite
def normalized_nodes(draw):
    """Random nodes for derivative ``lead``: moments below it vanish, its own is lead!.

    The weights of the first ``lead + 1`` nodes are solved for (from the
    moment-system oracle's unit solutions); the others are drawn freely.
    """
    lead = draw(st.integers(0, 3))
    offsets = draw(st.lists(rational_offsets, min_size=lead + 1, max_size=lead + 6, unique=True))
    head, tail = offsets[: lead + 1], offsets[lead + 1 :]
    free = draw(st.lists(large_weights, min_size=len(tail), max_size=len(tail)))
    nodes = dict(zip(tail, free))
    for r in range(lead + 1):
        target = math.factorial(lead) if r == lead else 0
        residual = target - sum((w * o**r for o, w in nodes.items()), start=Fraction(0))
        unit = oracle_weights(head, r)
        for o, w in zip(head, unit):
            nodes[o] = nodes.get(o, 0) + residual * w / math.factorial(r)
    return nodes, lead


class TestIntegerMomentKernel:
    @given(normalized_nodes(), st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_matches_rational_moment_loop(self, case, depth):
        nodes, lead = case
        truncation = lead + depth
        got = series_from_nodes(nodes, lead, truncation)
        assert got.coeffs == rational_moment_series(nodes, lead, truncation)
        assert all(type(c) is Fraction for c in got.coeffs.values())

    @given(normalized_nodes(), large_weights.filter(bool))
    @settings(max_examples=40, deadline=None)
    def test_broken_nodes_raise_the_reference_message(self, case, bump):
        nodes, lead = case
        offset = next(iter(nodes))
        nodes[offset] += bump
        with pytest.raises(ValueError) as expected:
            rational_moment_series(nodes, lead, lead + 2)
        with pytest.raises(ValueError) as got:
            series_from_nodes(nodes, lead, lead + 2)
        assert str(got.value) == str(expected.value)

    def test_error_messages_keep_their_wording(self):
        with pytest.raises(ValueError) as excinfo:
            series_from_nodes({Fraction(1, 3): Fraction(1, 7)}, 1, 4)
        assert str(excinfo.value) == "nodes do not annihilate degree 0: moment sum 1/7"
        with pytest.raises(ValueError) as excinfo:
            series_from_nodes({Fraction(1, 3): Fraction(3, 2), Fraction(0): Fraction(-3, 2)}, 1, 4)
        assert str(excinfo.value) == (
            "lead moment is 1/2, expected 1! for a normalized derivative approximation"
        )


class TestValidation:
    def test_truncation_must_exceed_lead(self):
        with pytest.raises(ValueError):
            error_series(word(fwd=1, bwd=1), 2)

    def test_unnormalized_nodes_rejected(self):
        with pytest.raises(ValueError, match="annihilate"):
            series_from_nodes({Fraction(0): Fraction(1)}, 1, 4)
        with pytest.raises(ValueError, match="lead moment"):
            series_from_nodes(
                {Fraction(1): Fraction(2), Fraction(0): Fraction(-2)}, 1, 4
            )

    def test_coefficient_past_truncation_rejected(self):
        s = error_series(word(fwd=1), 4)
        with pytest.raises(ValueError):
            s.coefficient(5)
