"""Operator words: expansion, application, re-anchoring, and product rules."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdcorr import (
    GridFunction,
    GridRangeError,
    apply,
    binom,
    expand,
    normalize_composite,
    product_rule_check,
    word,
)
from fdcorr import gridops

HALF = Fraction(1, 2)


def grid_samples(values):
    return GridFunction({Fraction(i, 2): v for i, v in enumerate(values, start=-16)})


def nested_apply(expr, samples, at, k):
    """Independent oracle: apply each elementary factor one step at a time."""

    def step(table, kind):
        out = {}
        for i in table:
            if kind == "fwd" and i + 1 in table:
                out[i] = (table[i + 1] - table[i]) / k
            elif kind == "bwd" and i - 1 in table:
                out[i] = (table[i] - table[i - 1]) / k
            elif kind == "cent" and i + HALF in table and i - HALF in table:
                out[i] = (table[i + HALF] - table[i - HALF]) / k
            elif kind == "avg" and i + HALF in table and i - HALF in table:
                out[i] = (table[i + HALF] + table[i - HALF]) / 2
        return out

    table = dict(samples.samples)
    for kind, count in (
        ("fwd", expr.p_fwd),
        ("bwd", expr.p_bwd),
        ("cent", expr.p_cent),
        ("avg", expr.p_avg),
    ):
        for _ in range(count):
            table = step(table, kind)
    return table[Fraction(at) + expr.base_shift]


# Elementary factors as (local offset, weight) pairs in units of the word's step.
ELEMENTARY = {
    "p_fwd": ((1, 1), (0, -1)),
    "p_bwd": ((0, 1), (-1, -1)),
    "p_cent": ((HALF, 1), (-HALF, -1)),
    "p_avg": ((HALF, HALF), (-HALF, HALF)),
}


def convolved_expansion(expr):
    """Independent oracle: multiply the elementary factors out one at a time."""
    nodes = {Fraction(0): Fraction(1)}
    for name, factor in ELEMENTARY.items():
        for _ in range(getattr(expr, name)):
            out = {}
            for o1, w1 in nodes.items():
                for o2, w2 in factor:
                    out[o1 + o2] = out.get(o1 + o2, 0) + w1 * w2
            nodes = out
    s = expr.spacing_factor
    return {o * s: w / s**expr.diff_order for o, w in nodes.items() if w}


small_fraction = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@st.composite
def words_to_order_six(draw):
    fwd = draw(st.integers(0, 3))
    bwd = draw(st.integers(0, 3))
    cent = draw(st.integers(0, 1))
    avg = draw(st.integers(0, 1))
    if fwd + bwd + cent > 6 or fwd + bwd + cent + avg == 0:
        fwd, bwd = min(fwd, 2), min(bwd, 2)
        cent = 1
    return word(fwd=fwd, bwd=bwd, cent=cent, avg=avg)


class TestWord:
    @pytest.mark.parametrize(
        "kwargs, expected",
        [
            ({"fwd": -1}, ValueError("p_fwd must be nonnegative")),
            ({"avg": -2}, ValueError("p_avg must be nonnegative")),
            ({"spacing": 0}, ValueError("spacing_factor must be positive")),
            ({"cent": 1, "spacing": Fraction(-1, 2)}, ValueError("spacing_factor must be positive")),
            # a power of another type is named here, not met later inside ``expand``
            ({"fwd": 1.5}, TypeError("p_fwd must be an int, got 1.5")),
            ({"bwd": Fraction(1)}, TypeError("p_bwd must be an int, got Fraction(1, 1)")),
            ({"cent": 2.0}, TypeError("p_cent must be an int, got 2.0")),
            ({"cent": "2"}, TypeError("p_cent must be an int, got '2'")),
            # ``bool`` subclasses ``int``, but no power is a truth value
            ({"fwd": True, "bwd": 1}, TypeError("p_fwd must be an int, got True")),
            ({"avg": False}, TypeError("p_avg must be an int, got False")),
        ],
        ids=str,
    )
    def test_out_of_range_fields_rejected(self, kwargs, expected):
        with pytest.raises(type(expected)) as excinfo:
            word(**kwargs)
        assert type(excinfo.value) is type(expected) and str(excinfo.value) == str(expected)

    @pytest.mark.parametrize("field", ["shift", "spacing"])
    @pytest.mark.parametrize("value", [0.1, 2.0], ids=repr)
    def test_float_shift_or_spacing_is_named_in_a_type_error(self, field, value):
        with pytest.raises(TypeError) as excinfo:
            word(cent=1, **{field: value})
        assert str(excinfo.value) == f"exact rational expected (int or Fraction), got {value!r}"

    @pytest.mark.parametrize("value", [2, Fraction(2, 5), "2/5", " 3 "], ids=repr)
    def test_exact_shift_and_spacing_pass(self, value):
        expr = word(cent=1, shift=value, spacing=value)
        assert expr.base_shift == expr.spacing_factor == Fraction(value)
        assert type(expr.base_shift) is type(expr.spacing_factor) is Fraction

    def test_default_shift_and_spacing_are_shared_fractions(self):
        # an ``int`` default would make a new ``Fraction`` for every word
        bare, default = word(), gridops.OperatorExpr()
        assert bare.base_shift is default.base_shift == 0
        assert bare.spacing_factor is default.spacing_factor == 1
        first, second = word(fwd=3), word(fwd=3)
        assert first.base_shift is second.base_shift is bare.base_shift
        assert first.spacing_factor is second.spacing_factor is bare.spacing_factor


class TestExpand:
    @pytest.mark.parametrize("spacing", [1, 3, Fraction(2, 5)], ids=str)
    def test_closed_form_matches_repeated_convolution(self, spacing):
        for powers in itertools.product(range(4), repeat=4):
            expr = word(*powers, spacing=spacing)
            nodes = expand(expr)
            assert nodes == convolved_expansion(expr), expr
            # apply_stencil picks exact or float arithmetic from these types
            assert all(type(o) is Fraction and type(w) is Fraction for o, w in nodes.items())

    def test_second_difference(self):
        assert expand(word(fwd=1, bwd=1)) == {Fraction(1): 1, Fraction(0): -2, Fraction(-1): 1}

    def test_third_difference_one_sided(self):
        assert expand(word(fwd=1, bwd=2)) == {
            Fraction(1): 1,
            Fraction(0): -3,
            Fraction(-1): 3,
            Fraction(-2): -1,
        }

    def test_third_difference_half_point(self):
        assert expand(word(cent=1, fwd=1, bwd=1)) == {
            Fraction(3, 2): 1,
            Fraction(1, 2): -3,
            Fraction(-1, 2): 3,
            Fraction(-3, 2): -1,
        }

    def test_average_alone(self):
        assert expand(word(avg=1)) == {Fraction(1, 2): HALF, Fraction(-1, 2): HALF}

    @pytest.mark.parametrize("m1", range(4))
    @pytest.mark.parametrize("m2", range(4))
    def test_pure_composites_have_binomial_weights(self, m1, m2):
        if m1 + m2 == 0:
            return
        nodes = expand(word(fwd=m1, bwd=m2))
        total = m1 + m2
        for j in range(total + 1):
            offset = Fraction(m1 - j)
            expected = (-1) ** j * binom(total, j)
            assert nodes[offset] == expected

    def test_weight_sums(self):
        assert sum(expand(word(fwd=2, bwd=1)).values()) == 0
        assert sum(expand(word(cent=1)).values()) == 0
        assert sum(expand(word(avg=1)).values()) == 1

    def test_each_call_returns_a_fresh_dict(self):
        expand(word(fwd=2)).clear()
        assert expand(word(fwd=2)) == {0: 1, 1: -2, 2: 1}
        assert expand(word(fwd=2)) is not expand(word(fwd=2))

    def test_words_equal_as_operators_share_one_expansion(self):
        cache = gridops._expansion
        cache.cache_clear()
        try:
            assert expand(word(cent=2)) == expand(word(fwd=1, bwd=1))
            shifted = [word(fwd=2, avg=1, shift=s, spacing=Fraction(2, 3)) for s in (0, HALF)]
            assert expand(shifted[0]) == expand(shifted[1])
            info = cache.cache_info()
            assert (info.currsize, info.misses, info.hits) == (2, 2, 2)
        finally:
            cache.cache_clear()

    def test_spacing_factor_folds_into_global_units(self):
        assert expand(word(cent=1, spacing=3)) == {
            Fraction(3, 2): Fraction(1, 3),
            Fraction(-3, 2): Fraction(-1, 3),
        }


class TestNormalizeComposite:
    def test_one_forward_three_backward(self):
        normalized, delta = normalize_composite(word(fwd=1, bwd=3))
        assert delta == -1
        assert (normalized.p_fwd, normalized.p_bwd) == (2, 2)
        assert normalized.base_shift == -1

    def test_four_backward(self):
        normalized, delta = normalize_composite(word(bwd=4))
        assert delta == -2
        assert (normalized.p_fwd, normalized.p_bwd) == (2, 2)

    def test_two_forward_expansions_agree(self):
        original = word(fwd=2)
        normalized, delta = normalize_composite(original)
        assert delta == 1
        raw, ren = expand(original), expand(normalized)
        # same nodes once the anchor shift is accounted for
        assert raw == {o + delta: w for o, w in ren.items()}

    def test_odd_word_not_normalizable(self):
        assert normalize_composite(word(fwd=2, bwd=1)) is None

    def test_half_point_words_rejected(self):
        with pytest.raises(ValueError):
            normalize_composite(word(cent=1))

    @given(st.integers(0, 3), st.integers(0, 3), st.data())
    @settings(max_examples=40)
    def test_normalized_word_applies_identically(self, m1, m2, data):
        if (m1 + m2) % 2 or m1 + m2 == 0:
            return
        values = data.draw(
            st.lists(small_fraction, min_size=33, max_size=33)
        )
        u = grid_samples(values)
        original = word(fwd=m1, bwd=m2)
        normalized, _ = normalize_composite(original)
        k = Fraction(1, 3)
        assert apply(original, u, 0, k) == apply(normalized, u, 0, k)


class TestApply:
    def test_forward_on_linear(self):
        u = GridFunction({i: Fraction(i) for i in range(-5, 6)})
        assert apply(word(fwd=1), u, 2, Fraction(1)) == 1

    def test_fourth_difference_on_quartic(self):
        u = GridFunction({i: Fraction(i) ** 4 for i in range(-5, 6)})
        assert apply(word(fwd=2, bwd=2), u, 0, Fraction(1)) == 24

    def test_matches_binomial_sum_formula(self):
        rng = random.Random(7)
        u = GridFunction(
            {i: Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for i in range(-4, 5)}
        )
        k = Fraction(1, 4)
        got = apply(word(fwd=1, bwd=2), u, 0, k)
        expected = sum(
            (-1) ** j * binom(3, j) * u.value(1 - j) for j in range(4)
        ) / k**3
        assert got == expected

    @given(words_to_order_six(), st.lists(small_fraction, min_size=33, max_size=33))
    @settings(max_examples=60)
    def test_stencil_equals_nested_elementary_application(self, expr, values):
        u = grid_samples(values)
        k = Fraction(2, 3)
        assert apply(expr, u, 0, k) == nested_apply(expr, u, 0, k)

    def test_factor_order_is_irrelevant(self):
        values = [Fraction(i**3, 2) for i in range(33)]
        u = grid_samples(values)
        fwd_then_bwd = nested_apply(word(fwd=1, bwd=1), u, 0, 1)
        # nested oracle applies fwd first; swap by using two single-factor passes
        after_bwd = GridFunction(
            {
                i: (u.value(i) - u.value(i - 1)) / 1
                for i in u.samples
                if i - 1 in u.samples
            }
        )
        bwd_then_fwd = nested_apply(word(fwd=1), after_bwd, 0, 1)
        assert fwd_then_bwd == bwd_then_fwd

    @pytest.mark.parametrize("k", [Fraction(1, 2), 0.5])
    def test_order_zero_sum_of_exact_samples_stays_exact(self, k):
        # no division by k**0, so a float k leaves the sum a Fraction
        u = GridFunction({-HALF: Fraction(1, 3), HALF: Fraction(2, 3)})
        value = apply(word(avg=1), u, 0, k)
        assert type(value) is Fraction and value == HALF

    @given(
        words_to_order_six(),
        st.lists(st.floats(-1e6, 1e6), min_size=33, max_size=33),
        st.sampled_from([0, HALF, 3]),
        st.floats(1e-3, 10.0),
    )
    @settings(max_examples=100)
    def test_float_samples_match_the_ascending_float_sum(self, expr, values, at, k):
        u = grid_samples(values)
        total = 0.0
        for offset, weight in sorted(expand(expr).items()):
            total += float(weight) * u.value(at + expr.base_shift + offset)
        expected = total / k**expr.diff_order if expr.diff_order else total
        assert repr(apply(expr, u, at, k)) == repr(expected)

    def test_missing_sample_error_names_index(self):
        u = GridFunction({0: 1, 1: 2})
        with pytest.raises(GridRangeError, match="5/2"):
            apply(word(cent=1), u, 3, 1)


class TestFloatIndices:
    """A float grid index raises the float rule's ``TypeError`` at every entry point."""

    ONES = GridFunction({i: Fraction(1) for i in range(-2, 3)})

    @pytest.mark.parametrize(
        "call",
        [
            lambda u: GridFunction({0: 1, 0.1: 2}),
            lambda u: u.value(0.1),
            lambda u: GridRangeError(0.1),
            lambda u: apply(word(fwd=1), u, 0.1, 1),
            lambda u: product_rule_check(1, u, u, 0.1, 1),
        ],
        ids=["GridFunction", "value", "GridRangeError", "apply", "product_rule_check"],
    )
    def test_float_index_is_named_in_a_type_error(self, call):
        with pytest.raises(TypeError) as excinfo:
            call(self.ONES)
        assert str(excinfo.value) == "exact rational expected (int or Fraction), got 0.1"

    def test_exact_indices_and_strings_pass(self):
        u = GridFunction({"1/2": 5, "3/2": 6})
        assert u.value(HALF) == u.value("2/4") == 5
        v = GridFunction({"1/2": HALF, 2: 2})
        assert list(v.samples) == [HALF, 2] and all(type(t) is Fraction for t in v.samples)
        assert v.value(2) == 2
        assert apply(word(fwd=1), u, "1/2", 1) == 1
        assert str(GridRangeError("3/6")) == "no sample at grid index 1/2"
        assert product_rule_check(1, self.ONES, self.ONES, "0", 1) == (0, 0)


class TestProductRules:
    @staticmethod
    def _random_pair(rng, span=8):
        f = GridFunction(
            {
                i: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for i in range(-span, span + 1)
            }
        )
        g = GridFunction(
            {
                i: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for i in range(-span, span + 1)
            }
        )
        return f, g

    def test_first_order_one_sided_rules(self):
        rng = random.Random(11)
        f, g = self._random_pair(rng)
        k = Fraction(1, 5)
        for n in (-1, 0, 2):
            bf = apply(word(bwd=1), f, n, k)
            bg = apply(word(bwd=1), g, n, k)
            lhs_b = (f.value(n) * g.value(n) - f.value(n - 1) * g.value(n - 1)) / k
            assert lhs_b == bf * g.value(n) + f.value(n) * bg - k * bf * bg
            ff = apply(word(fwd=1), f, n, k)
            fg = apply(word(fwd=1), g, n, k)
            lhs_f = (f.value(n + 1) * g.value(n + 1) - f.value(n) * g.value(n)) / k
            assert lhs_f == ff * g.value(n) + f.value(n) * fg + k * ff * fg

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_even_composite_product_rule(self, m):
        rng = random.Random(100 + m)
        for _ in range(5):
            f, g = self._random_pair(rng)
            lhs, rhs = product_rule_check(m, f, g, 0, Fraction(1, 3))
            assert lhs == rhs

    def test_constant_second_factor_reduces_to_plain_application(self):
        rng = random.Random(13)
        f, _ = self._random_pair(rng)
        ones = GridFunction({i: Fraction(1) for i in range(-8, 9)})
        k = Fraction(1, 2)
        lhs, rhs = product_rule_check(2, f, ones, 0, k)
        direct = apply(word(fwd=2, bwd=2), f, 0, k)
        assert lhs == direct == rhs

    def test_insufficient_span_raises(self):
        narrow = GridFunction({0: Fraction(1), 1: Fraction(2)})
        with pytest.raises(GridRangeError, match="no sample at grid index -1$"):
            product_rule_check(1, narrow, narrow, 0, 1)

    def test_order_below_one_raises(self):
        f = GridFunction({i: Fraction(i) for i in range(-2, 3)})
        with pytest.raises(ValueError, match="^product_rule_check: m must be positive$"):
            product_rule_check(0, f, f, 0, 1)
