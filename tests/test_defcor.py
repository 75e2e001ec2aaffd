"""Correction-engine output against the reference coefficient tables."""

import math
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdcorr import (
    DegenerateChoiceError,
    backward_centered,
    centered_average_formula,
    centered_formula,
    default_truncation,
    error_series,
    flatten,
    forward_centered,
    general_defcor,
    interior_centered,
    series_from_nodes,
    standard_backward,
    standard_forward,
    word,
)
from fdcorr import defcor, gridops, taylorseries
from fdcorr.defcor import FAMILIES, catalog, family_named


def frac(n, d=1):
    return Fraction(n, d)


# Reference values for the two half-point centered families, indices 2..11.
CENTERED_TABLE = {
    2: frac(1, 8),
    3: frac(1, 24),
    4: frac(-18, math.factorial(4) * 2**5),
    5: frac(-18, math.factorial(5) * 2**5),
    6: frac(450, math.factorial(6) * 2**7),
    7: frac(450, math.factorial(7) * 2**7),
    8: frac(-22050, math.factorial(8) * 2**9),
    9: frac(-22050, math.factorial(9) * 2**9),
    10: frac(1786050, math.factorial(10) * 2**11),
    11: frac(1786050, math.factorial(11) * 2**11),
}

# Reference values for the interior-centered family, p = 1..4.
INTERIOR_TABLE = {
    1: {2: frac(9, 8), 3: frac(9, 8)},
    2: {2: frac(25, 8), 3: frac(125, 24), 4: frac(125, 128), 5: frac(125, 128)},
    3: {
        2: frac(49, 8),
        3: frac(343, 24),
        4: frac(637, 128),
        5: frac(13377, 1920),
        6: frac(1029, 1024),
        7: frac(1029, 1024),
    },
    4: {
        2: frac(81, 8),
        3: frac(243, 8),
        4: frac(1917, 128),
        5: frac(17253, 640),
        6: frac(7173, 1024),
        7: frac(64557, 7168),
        8: frac(32733, 32768),
        9: frac(32733, 32768),
    },
}

# Reference values for the near-centered one-sided family, indices 2..11.
MIXED_TABLE = {
    i: frac(n, math.factorial(i))
    for i, n in {
        2: 1,
        3: 1,
        4: 2,
        5: -4,
        6: -12,
        7: 36,
        8: 144,
        9: -576,
        10: -2880,
        11: 14400,
    }.items()
}
MIXED_TABLE[2] = frac(1, 2)


def _centered(i):
    # c_(2n+1) = (-1)^(n+1) (2n)! / (2^(4n) (n!)^2 (2n+1)) and
    # c_(2n) = (-1)^(n+1) binom(2n, n) / 16^n
    n = i // 2
    if i % 2:
        return frac((-1) ** (n + 1) * math.factorial(2 * n),
                    2 ** (4 * n) * math.factorial(n) ** 2 * (2 * n + 1))
    return frac((-1) ** (n + 1) * math.comb(2 * n, n), 16**n)


def _forward_centered(i):
    # |c_(2n+1)| = (n!)^2 / (2n+1)!, |c_(2n)| = ((n-1)!)^2 / (2 (2n-1)!);
    # the sign is + at i = 2 and (-1)^floor((i-3)/2) from i = 3 on
    n = i // 2
    if i % 2:
        size = frac(math.factorial(n) ** 2, math.factorial(i))
    else:
        size = frac(math.factorial(n - 1) ** 2, 2 * math.factorial(i - 1))
    return size if i == 2 else (-1) ** ((i - 3) // 2) * size


def _backward_centered(i):
    # forward-centered's entry at i = 2, its negative from i = 3 on
    return _forward_centered(i) if i == 2 else -_forward_centered(i)


def _by_index(indices, coefficient, error_constant):
    """A closed form whose coefficient at each index is the same at every p."""
    return lambda p: ({i: coefficient(i) for i in indices(p)}, error_constant(p))


def _sinh_recurrence(s, below, poly):
    """``R_s`` as coefficients in y, where ``R_(n+2) = 2(1 + 2y^2) R_n - R_(n-2)``.

    ``below`` and ``poly`` are ``R_-1`` and ``R_1``: with ``-y`` and ``y`` it
    gives ``P_s(sinh t) = sinh(st)``, with ``1`` and ``1`` it gives
    ``Q_s(sinh t) = cosh(st) / cosh t``, since ``sinh((n+2)t) + sinh((n-2)t) =
    2 sinh(nt) cosh(2t)`` and ``cosh(2t) = 1 + 2 sinh(t)^2`` (cosh alike).
    """
    for _ in range(s // 2):
        below, poly = poly, [2 * a + 4 * b - c for a, b, c in
                             zip_longest(poly, [0, 0] + poly, below, fillvalue=0)]
    return poly


# With s = 2p + 1 and delta = 2 sinh(t/2), IC's seeds are delta_s = 2 P_s(delta/2)
# and mu_s = mu Q_s(delta/2), and -_centered(i) is the delta^i coefficient of
# 2 arcsinh(delta/2) = hD for odd i and of (1 + delta^2/4)^(-1/2) for even i.
def _interior_centered(p):
    # [delta^d](2 P_s(delta/2) - s 2 arcsinh(delta/2)); the error constant is C's
    s = 2 * p + 1
    seed = _sinh_recurrence(s, [0, -1], [0, 1])
    coefficients = {d: frac(2 * seed[d], 2**d) + s * _centered(d) for d in range(3, s + 1, 2)}
    return coefficients, _centered(s + 2)


def _interior_centered_value(p):
    # [delta^2i](Q_s(delta/2) - (1 + delta^2/4)^(-1/2)); Q_s has degree 2p, so
    # the error constant at i = p + 1 is CA's
    seed = _sinh_recurrence(2 * p + 1, [1], [1])
    coefficients = {2 * i: frac(seed[2 * i], 4**i) + _centered(2 * i) for i in range(1, p + 1)}
    return coefficients, _centered(2 * p + 2)


# Exact closed forms, independent of the engine: for each family, its
# coefficients and error constant at parameter p.
CLOSED_FORMS = {
    "standard-forward": _by_index(lambda p: range(2, p + 1), lambda i: frac((-1) ** i, i),
                                  lambda p: frac((-1) ** (p + 1), p + 1)),
    "standard-backward": _by_index(lambda p: range(2, p + 1), lambda i: frac(1, i),
                                   lambda p: frac(-1, p + 1)),
    "centered": _by_index(lambda p: range(3, 2 * p + 2, 2), _centered,
                          lambda p: _centered(2 * p + 3)),
    "centered-average": _by_index(lambda p: range(2, 2 * p + 1, 2), _centered,
                                  lambda p: _centered(2 * p + 2)),
    "forward-centered": _by_index(lambda p: range(2, p + 1), _forward_centered,
                                  lambda p: _forward_centered(p + 1)),
    "backward-centered": _by_index(lambda p: range(2, p + 1), _backward_centered,
                                   lambda p: _forward_centered(p + 1)),
    "interior-centered": _interior_centered,
    "interior-centered-value": _interior_centered_value,
}


def closed_form(name, p):
    """``(family_coefficients, error_constant)`` of family ``name`` at ``p``."""
    return CLOSED_FORMS[name](p)


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_closed_forms_through_order_60(name):
    row = family_named(name)
    for p in range(row.min_p, row.param(60) + 1):
        formula = row.build(p)[0]
        assert (formula.family_coefficients, formula.error_constant) == closed_form(name, p), p


class TestCenteredFamilies:
    def test_derivative_coefficients_match_table(self):
        formula = centered_formula(5)
        for i in (3, 5, 7, 9, 11):
            assert formula.family_coefficients[i] == CENTERED_TABLE[i]

    def test_value_coefficients_match_table(self):
        formula = centered_average_formula(5)
        for i in (2, 4, 6, 8, 10):
            assert formula.family_coefficients[i] == CENTERED_TABLE[i]

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_derivative_error_constant_continues_sequence(self, p):
        assert centered_formula(p).error_constant == CENTERED_TABLE[2 * p + 3]

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_value_error_constant_continues_sequence(self, p):
        assert centered_average_formula(p).error_constant == CENTERED_TABLE[2 * p + 2]

    def test_orders_and_shape(self):
        formula = centered_formula(3)
        assert formula.m == 1 and formula.order == 8
        assert [e.diff_order for _, e in formula.terms] == [3, 5, 7]
        value = centered_average_formula(3)
        assert value.m == 0 and value.order == 8


class TestInteriorCentered:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_table(self, p):
        deriv, value = interior_centered(p)
        merged = dict(value.family_coefficients)
        merged.update(deriv.family_coefficients)
        assert merged == INTERIOR_TABLE[p]

    def test_seed_spans_the_interval(self):
        deriv, value = interior_centered(2)
        assert deriv.base_expr.spacing_factor == 5
        assert value.base_expr.spacing_factor == 5
        assert deriv.order == value.order == 6


class TestOneSidedFamilies:
    def test_mixed_word_coefficients_match_table(self):
        formula = forward_centered(10)
        for i in range(2, 11):
            assert formula.family_coefficients[i] == MIXED_TABLE[i]
        assert formula.error_constant == MIXED_TABLE[11] == frac(14400, math.factorial(11))

    def test_backward_variant_small_values(self):
        formula = backward_centered(3)
        assert formula.family_coefficients[2] == frac(1, 2)
        assert formula.family_coefficients[3] == frac(-1, 6)

    @pytest.mark.parametrize("p", range(2, 13))
    def test_forward_backward_antisymmetry(self, p):
        fc = forward_centered(p).family_coefficients
        bc = backward_centered(p).family_coefficients
        assert fc[2] == bc[2]
        for i in range(3, p + 1):
            assert fc[i] == -bc[i]

    @pytest.mark.parametrize("p", [2, 3, 5, 8])
    def test_standard_forward_coefficients(self, p):
        formula = standard_forward(p)
        for i in range(2, p + 1):
            assert formula.family_coefficients[i] == frac((-1) ** i, i)
        assert formula.error_constant == frac((-1) ** (p + 1), p + 1)

    @pytest.mark.parametrize("p", [2, 3, 5, 8])
    def test_standard_backward_coefficients(self, p):
        formula = standard_backward(p)
        for i in range(2, p + 1):
            assert formula.family_coefficients[i] == frac(1, i)
        # stored constant sits on the subtracted side; the conventional
        # added-side statement quotes its negative, 1/(p+1)
        assert formula.error_constant == frac(-1, p + 1)

    def test_order_ten_error_constants_compare(self):
        plain = standard_forward(10)
        mixed = forward_centered(10)
        assert abs(plain.error_constant) == frac(1, 11)
        assert abs(mixed.error_constant) == frac(14400, math.factorial(11))
        assert abs(mixed.error_constant) < abs(plain.error_constant)


def _listed_words(name, p):
    # each family's seed, correction words and coefficient scale, written out
    # word by word rather than through the rows' word rules
    odd = [word(cent=1, fwd=i, bwd=i) for i in range(1, p + 1)]
    even = [word(avg=1, fwd=i, bwd=i) for i in range(1, p + 1)]
    hugging = [word(fwd=i // 2, bwd=i // 2 + i % 2) for i in range(2, p + 1)]
    return {
        "centered": (word(cent=1), odd, 1),
        "centered-average": (word(avg=1), even, 1),
        "interior-centered": (word(cent=1, spacing=2 * p + 1), odd, 2 * p + 1),
        "interior-centered-value": (word(avg=1, spacing=2 * p + 1), even, 1),
        "forward-centered": (word(fwd=1), hugging, 1),
        "backward-centered": (word(bwd=1), hugging, -1),
        "standard-forward": (word(fwd=1), [word(fwd=i) for i in range(2, p + 1)], 1),
        "standard-backward": (word(bwd=1), [word(bwd=i) for i in range(2, p + 1)], -1),
    }[name]


def listed_formula(name, p):
    seed, words, scale = _listed_words(name, p)
    order = p if "forward" in name or "backward" in name else 2 * p + 2
    formula = general_defcor(seed.diff_order, order, words, base=seed)
    coeffs = {i: c * scale for i, c in formula.family_coefficients.items()}
    if name == "interior-centered-value":
        family, label = "interior-centered", f"IC{order}-value"
    else:
        family, label = name, f"{family_named(name).prefix}{order}"
    return formula._replace(family_coefficients=coeffs, family=family, label=label)


class TestRegistryRows:
    """Each ``FAMILIES`` row fixes its family's lowest p, orders and labels."""

    @pytest.mark.parametrize("row", FAMILIES, ids=lambda f: f.name)
    def test_below_min_p_raises(self, row):
        with pytest.raises(ValueError, match=rf"^p must be at least {row.min_p}$"):
            row.build(row.min_p - 1)

    @pytest.mark.parametrize("row", FAMILIES, ids=lambda f: f.name)
    def test_min_p_is_the_first_p_with_one_correction_word(self, row):
        assert len(row.formula(row.min_p).terms) == 1
        with pytest.raises(ValueError, match=rf"^p must be at least {row.min_p}$"):
            row.formula(row.min_p - 1)

    @pytest.mark.parametrize("row", FAMILIES, ids=lambda f: f.name)
    def test_formulas_follow_the_row(self, row):
        for p in (row.min_p, row.min_p + 2):
            order = row.order(p)
            formulas = row.build(p)
            assert [f.order for f in formulas] == [order] * len(formulas)
            if row.prefix is None:  # the interior-centered value row
                expected = ("interior-centered", f"IC{order}-value")
            else:
                expected = (row.name, f"{row.prefix}{order}")
            assert (formulas[0].family, formulas[0].label) == expected

    @pytest.mark.parametrize("row", FAMILIES, ids=lambda f: f.name)
    def test_each_row_builds_the_formula_of_its_listed_words(self, row):
        for p in range(row.min_p, row.min_p + 4):
            expected = listed_formula(row.name, p)
            assert row.formula(p) == expected, p
            if row.name == "interior-centered":
                value = listed_formula("interior-centered-value", p)
                assert row.build(p) == interior_centered(p) == (expected, value), p
            else:
                assert row.build(p) == (expected,), p


class TestSecondDerivativeConstants:
    def test_order_two(self):
        formula = general_defcor(2, 2, [])
        # formula-side constant; the error written on the derivative side
        # is its negative, -1/12
        assert formula.error_constant == frac(1, 12)
        assert formula.order == 2

    def test_order_four(self):
        formula = general_defcor(2, 4, [word(fwd=2, bwd=2)])
        # derivative-side constant 1/90, formula-side -1/90
        assert formula.error_constant == frac(-1, 90)
        assert formula.terms[0][0] == frac(1, 12)
        assert formula.order == 4


class TestGeneralEngine:
    def test_centered_family_is_an_instance(self):
        p = 3
        manual = general_defcor(
            1,
            2 * p + 2,
            [word(cent=1, fwd=i, bwd=i) for i in range(1, p + 1)],
            base=word(cent=1),
        )
        named = centered_formula(p)
        assert manual.terms == named.terms
        assert manual.error_constant == named.error_constant

    def test_mixed_family_is_an_instance(self):
        p = 6
        choices = [word(fwd=i // 2, bwd=i // 2 + i % 2) for i in range(2, p + 1)]
        manual = general_defcor(1, p, choices, base=word(fwd=1))
        named = forward_centered(p)
        assert manual.terms == named.terms

    def test_empty_choices_report_seed_order(self):
        assert general_defcor(1, 1, [], base=word(fwd=1)).order == 1
        assert general_defcor(1, 2, [], base=word(cent=1)).order == 2
        assert general_defcor(2, 2, [], base=word(fwd=1, bwd=1)).order == 2

    def test_default_seeds(self):
        assert general_defcor(0, 2, []).base_expr == word(avg=1)
        assert general_defcor(2, 2, []).base_expr == word(fwd=1, bwd=1)
        assert general_defcor(3, 2, []).base_expr == word(cent=1, fwd=1, bwd=1)

    def test_degenerate_choice_rejected(self):
        # a word of order 3 cannot cancel the surviving order-2 term
        with pytest.raises(DegenerateChoiceError):
            general_defcor(1, 3, [word(fwd=1, bwd=2)], base=word(fwd=1))
        # symmetry already removed the order-4 term of the centered seed
        with pytest.raises(DegenerateChoiceError):
            general_defcor(1, 4, [word(fwd=2, bwd=2)], base=word(cent=1))

    def test_running_out_of_choices_rejected(self):
        with pytest.raises(ValueError, match="ran out"):
            general_defcor(1, 4, [word(fwd=2)], base=word(fwd=1))

    def test_residual_vanishing_through_truncation_rejected(self):
        # the identity word has no error terms at all
        with pytest.raises(ValueError, match="vanishes through truncation 6"):
            general_defcor(0, 2, [], base=word())

    def test_seed_order_must_match_m(self):
        with pytest.raises(ValueError, match="seed"):
            general_defcor(2, 2, [], base=word(fwd=1))

    @pytest.mark.parametrize(
        "m, order, message",
        [
            (-1, 2, "derivative order m must be nonnegative"),
            (1, 0, "target order must be positive"),
        ],
    )
    def test_out_of_range_arguments_rejected(self, m, order, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            general_defcor(m, order, [])

    def test_fractional_step_corrections(self):
        # half-step correction words exercise the variable-spacing path
        formula = general_defcor(
            1,
            4,
            [word(cent=1, fwd=1, bwd=1, spacing=Fraction(1, 2))],
            base=word(cent=1),
        )
        assert formula.order == 4
        assert formula.terms[0][1].spacing_factor == Fraction(1, 2)
        half_series = error_series(word(cent=1, fwd=1, bwd=1, spacing=Fraction(1, 2)), 5)
        assert half_series.coefficient(5) == Fraction(1, 8) / 4

    def test_json_shape(self):
        d = centered_formula(1).to_json_dict()
        assert d["family"] == "centered"
        assert d["m"] == 1 and d["order"] == 4
        assert d["error_constant"] == "-3/640"
        assert d["terms"][0]["coeff"] == "1/24"
        assert d["terms"][0]["operator"]["cent"] == 1
        assert d["family_coefficients"] == {"3": "1/24"}



def fraction_defcor(m, order, choices, base):
    """Reference: the engine's residual scan as a plain ``Fraction`` loop.

    Returns ``(terms, order, error_constant, family_coefficients)``.
    """
    truncation = default_truncation(m, order)
    seed = error_series(base, truncation).coeffs
    corrections = []
    queue = iter(choices)
    leading = m
    while True:
        for leading in range(leading + 1, truncation + 1):
            residual = seed.get(leading, Fraction(0))
            for coeff, _, coeffs in corrections:
                if leading in coeffs:
                    residual -= coeff * coeffs[leading]
            if residual:
                break
        else:
            raise ValueError(
                f"error expansion vanishes through truncation {truncation}; "
                "cannot determine the achieved order"
            )
        achieved = leading - m
        if achieved >= order:
            break
        choice = next(queue, None)
        if choice is None:
            raise ValueError(
                f"ran out of correction words at order {achieved} "
                f"(target {order}); next needs differentiation order {leading}"
            )
        if choice.diff_order != leading:
            raise DegenerateChoiceError(
                f"word of differentiation order {choice.diff_order} cannot "
                f"cancel the surviving u^({leading}) term"
            )
        corrections.append((residual, choice, error_series(choice, truncation).coeffs))
    terms = tuple((coeff, expr) for coeff, expr, _ in corrections)
    return terms, achieved, residual, {expr.diff_order: coeff for coeff, expr in terms}


@st.composite
def word_of_order(draw, d):
    """A word of differentiation order ``d``: any fwd/bwd/cent split, avg, shift and step."""
    fwd = draw(st.integers(0, d))
    bwd = draw(st.integers(0, d - fwd))
    return word(
        fwd=fwd,
        bwd=bwd,
        cent=d - fwd - bwd,
        avg=draw(st.integers(0, 2)),
        shift=draw(st.sampled_from([0, Fraction(1, 2), -1])),
        spacing=draw(st.sampled_from([1, 3, Fraction(1, 2), Fraction(2, 3)])),
    )


@st.composite
def engine_requests(draw):
    """``(m, order, choices, base)``; each word's order mostly targets the next term."""
    m = draw(st.integers(0, 3))
    base = draw(word_of_order(m))
    order = draw(st.integers(1, 6))
    choices, lead = [], m
    for _ in range(draw(st.integers(0, 6))):
        lead += draw(st.sampled_from([1, 1, 2, 2, 0, 3]))
        choices.append(draw(word_of_order(lead)))
    return m, order, choices, base


@given(engine_requests())
@example((0, 2, [], word()))  # the identity has no error terms
@example((1, 4, [word(fwd=2)], word(fwd=1)))  # runs out of words
@example((1, 4, [word(fwd=2, bwd=2)], word(cent=1)))  # symmetry removed u^(4)
@settings(max_examples=300, deadline=None)
def test_engine_equals_the_fraction_reference(request):
    m, order, choices, base = request
    try:
        want = fraction_defcor(m, order, choices, base)
    except ValueError as expected:
        with pytest.raises(ValueError) as got:
            general_defcor(m, order, choices, base=base)
        assert (type(got.value), str(got.value)) == (type(expected), str(expected))
        return
    formula = general_defcor(m, order, choices, base=base)
    got = (formula.terms, formula.order, formula.error_constant, formula.family_coefficients)
    assert got == want
    coeffs = [formula.error_constant, *(c for c, _ in formula.terms)]
    assert all(type(c) is Fraction for c in coeffs)


def every_formula_to_order_12():
    for p in range(1, 6):
        yield centered_formula(p)
        yield centered_average_formula(p)
        deriv, value = interior_centered(p)
        yield deriv
        yield value
    for p in range(2, 13):
        yield forward_centered(p)
        yield backward_centered(p)
        yield standard_forward(p)
        yield standard_backward(p)


@pytest.mark.parametrize(
    "formula", list(every_formula_to_order_12()), ids=lambda f: f.label
)
def test_flattened_series_confirms_order_and_constant(formula):
    st = flatten(formula)
    nodes = dict(zip(st.offsets, st.weights))
    series = series_from_nodes(nodes, formula.m, formula.m + formula.order)
    for i in range(formula.m + 1, formula.m + formula.order):
        assert series.coefficient(i) == 0
    assert series.coefficient(formula.m + formula.order) == formula.error_constant


def test_the_engine_reads_no_term_past_lead_plus_order_plus_one(monkeypatch):
    """Series cut at ``m + order + 1`` give every catalogue formula and stencil.

    ``default_truncation`` asks for ``m + 2 * order + 2``; with both caches
    emptied, so that no series deeper than the cut is kept, the shallower
    depth builds the same formulas through order 42, which covers every
    ``deep`` benchmark id.
    """
    want = [(f, flatten(f)) for f in catalog(42)]
    asked = []

    def tight(lead, order):
        asked.append((lead, order))
        return lead + order + 1

    taylorseries._kept.cache_clear()
    gridops._expansion.cache_clear()
    monkeypatch.setattr(defcor, "default_truncation", tight)
    got = [(f, flatten(f)) for f in catalog(42)]
    assert len(asked) == len(got) == len(want)
    assert got == want


def stencil_key(st):
    return st.m, st.order, st.offsets, st.weights, st.error_constant


class TestSharedStencils:
    """Families that differ as correction sums but flatten to one stencil."""

    @pytest.mark.parametrize("p", range(2, 61))
    def test_forward_and_backward_centered_flatten_to_one_stencil(self, p):
        fc, bc = forward_centered(p), backward_centered(p)
        st = flatten(fc)
        assert stencil_key(st) == stencil_key(flatten(bc))
        # integer nodes on -p/2..p/2 at even p, with antisymmetric weights
        # (the central difference), and on -(p+1)/2..(p-1)/2 at odd p
        assert (st.offsets[0], st.offsets[-1]) == (-(p // 2) - p % 2, p // 2)
        assert all(o.denominator == 1 for o in st.offsets)
        if p % 2 == 0:
            assert st.weights == tuple(-w for w in reversed(st.weights))
        # the engine coefficients: opposite at i = 2, equal from i = 3 on
        forward = {e.diff_order: c for c, e in fc.terms}
        backward = {e.diff_order: c for c, e in bc.terms}
        assert forward.keys() == backward.keys() == set(range(2, p + 1))
        assert forward[2] == -backward[2]
        assert all(forward[i] == backward[i] for i in range(3, p + 1))

    @pytest.mark.parametrize("p", range(1, 30))
    def test_interior_centered_flattens_to_the_centered_stencils(self, p):
        deriv, value = interior_centered(p)
        assert stencil_key(flatten(deriv)) == stencil_key(flatten(centered_formula(p)))
        assert stencil_key(flatten(value)) == stencil_key(flatten(centered_average_formula(p)))
