"""Flat stencils against the moment-system oracle and verification reports."""

import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdcorr import (
    FlattenError,
    Stencil,
    backward_centered,
    centered_average_formula,
    centered_formula,
    expand,
    flatten,
    general_defcor,
    interior_centered,
    oracle_weights,
    standard_backward,
    standard_forward,
    verify,
    word,
)
from fdcorr.defcor import catalog


def frac(n, d=1):
    return Fraction(n, d)


class TestFlatten:
    def test_half_point_order_four(self):
        st = flatten(centered_formula(1))
        assert st.offsets == (frac(-3, 2), frac(-1, 2), frac(1, 2), frac(3, 2))
        assert st.weights == (frac(1, 24), frac(-9, 8), frac(9, 8), frac(-1, 24))

    def test_half_point_order_six_correction_vector(self):
        st = flatten(centered_formula(2))
        base = {frac(1, 2): frac(1), frac(-1, 2): frac(-1)}
        correction = {
            o: w - base.get(o, frac(0)) for o, w in zip(st.offsets, st.weights)
        }
        assert [correction[o] * 1920 for o in st.offsets] == [
            -9,
            125,
            -330,
            330,
            -125,
            9,
        ]

    def test_plain_second_difference(self):
        st = flatten(general_defcor(2, 2, []))
        assert st.offsets == (frac(-1), frac(0), frac(1))
        assert st.weights == (frac(1), frac(-2), frac(1))

    def test_backward_order_two(self):
        st = flatten(standard_backward(2))
        assert st.offsets == (frac(-2), frac(-1), frac(0))
        assert st.weights == (frac(1, 2), frac(-2), frac(3, 2))

    def test_forward_order_three(self):
        st = flatten(standard_forward(3))
        assert st.offsets == (frac(0), frac(1), frac(2), frac(3))
        assert st.weights == (frac(-11, 6), frac(3), frac(-3, 2), frac(1, 3))

    def test_mixed_anchors_rejected(self):
        formula = centered_formula(1)
        coeff, expr = formula.terms[0]
        assert expr == word(fwd=1, bwd=1, cent=1)
        shifted = replace(formula, terms=((coeff, word(fwd=1, bwd=1, cent=1, shift=1)),))
        with pytest.raises(FlattenError, match="different evaluation points"):
            flatten(shifted)

    def test_interval_seed_merges_with_fine_corrections(self):
        # the interval-wide seed and fine corrections land on one lattice;
        # four nodes at order 4 force the same weights as the half-point family
        st = flatten(interior_centered(1)[0])
        assert st.offsets == (frac(-3, 2), frac(-1, 2), frac(1, 2), frac(3, 2))
        assert st.weights == (frac(1, 24), frac(-9, 8), frac(9, 8), frac(-1, 24))

    def test_provenance_label(self):
        assert flatten(centered_formula(1)).provenance == "C4"
        assert flatten(interior_centered(2)[0]).provenance == "IC6"


class TestOracle:
    def test_three_point_first_derivative(self):
        assert oracle_weights([-1, 0, 1], 1) == [frac(-1, 2), frac(0), frac(1, 2)]

    def test_matches_flattened_half_point_formula(self):
        st = flatten(centered_formula(1))
        assert oracle_weights(st.offsets, 1) == list(st.weights)

    def test_matches_flattened_forward_formula(self):
        st = flatten(standard_forward(3))
        assert oracle_weights([0, 1, 2, 3], 1) == list(st.weights)

    def test_duplicate_offsets_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            oracle_weights([0, 1, 1], 1)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError, match="need more than 2 nodes for derivative order 2"):
            oracle_weights([0, 1], 2)
        with pytest.raises(ValueError, match="3 nodes cannot support derivative 1 at order 4"):
            oracle_weights([0, 1, 2], 1, q=4)

    def test_unsorted_offsets_keep_input_order(self):
        assert oracle_weights([1, -1, 0], 1) == [frac(1, 2), frac(-1, 2), frac(0)]

    @pytest.mark.parametrize(
        "offsets, bad", [([-0.1, 0.0, 0.1], "-0.1"), ([-1, frac(0), 1.0], "1.0")]
    )
    def test_float_offsets_are_named_in_a_type_error(self, offsets, bad):
        with pytest.raises(TypeError) as excinfo:
            oracle_weights(offsets, 1)
        assert str(excinfo.value) == f"exact rational expected (int or Fraction), got {bad}"

    def test_str_offsets_read_as_fractions(self):
        assert oracle_weights(["-1/10", "0", "1/10"], 1) == [frac(-5), frac(0), frac(5)]
        assert oracle_weights(["-1/10", 0, frac(1, 10)], 1) == [frac(-5), frac(0), frac(5)]

    @given(
        st.lists(
            st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 5, 7])),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_lagrange_basis_weights(self, offsets):
        for m in range(len(offsets)):
            weights = oracle_weights(offsets, m)
            assert weights == lagrange_weights(offsets, m)
            for r in range(len(offsets)):
                residual = sum(w * o**r for w, o in zip(weights, offsets))
                assert residual == (math.factorial(m) if r == m else 0)


    @given(
        st.lists(
            st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 5, 7])),
            min_size=1,
            max_size=12,
            unique=True,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_fraction_sweeps(self, offsets):
        # unsorted, mixed denominators and negative differences
        for m in range(len(offsets)):
            assert oracle_weights(offsets, m) == fraction_bjorck_pereyra(offsets, m)

    @pytest.mark.parametrize(
        "offsets",
        [range(201), [Fraction(2 * i + 1, 2) for i in range(-100, 100)]],
        ids=["F200", "C200"],
    )
    def test_matches_the_fraction_sweeps_on_wide_node_sets(self, offsets):
        assert oracle_weights(offsets, 1) == fraction_bjorck_pereyra(offsets, 1)

    @pytest.mark.parametrize(
        "offsets, m",
        [([-1, 0, 1], 1), (["-1/2", "1/3", "2"], 2), ([0], 0), (["5/3"], 0)],
    )
    def test_every_weight_is_a_fraction(self, offsets, m):
        weights = oracle_weights(offsets, m)
        assert len(weights) == len(offsets)
        assert all(type(w) is Fraction for w in weights)


def fraction_bjorck_pereyra(offsets, m):
    """Reference: the Bjorck-Pereyra sweeps in plain ``Fraction`` steps."""
    x = [Fraction(o) for o in offsets]
    n = len(x)
    w = [Fraction(0)] * n
    w[m] = Fraction(math.factorial(m))
    for k in range(n - 1):
        for i in range(n - 1, k, -1):
            w[i] -= x[k] * w[i - 1]
    for k in range(n - 2, -1, -1):
        for i in range(k + 1, n):
            w[i] /= x[i] - x[i - k - 1]
        for i in range(k, n - 1):
            w[i] -= w[i + 1]
    return w


def lagrange_weights(offsets, m):
    """Reference: ``m! [t^m] l_j(t)`` for each Lagrange basis polynomial."""
    weights = []
    for j, oj in enumerate(offsets):
        poly = [Fraction(1)]  # coefficients of l_j, lowest power first
        for k, ok in enumerate(offsets):
            if k != j:
                scale = oj - ok
                shifted = [Fraction(0)] + poly
                poly = [(a - ok * b) / scale for a, b in zip(shifted, poly + [0])]
        weights.append(math.factorial(m) * poly[m])
    return weights


class TestVerify:
    def test_generated_formula_passes(self):
        report = verify(flatten(backward_centered(6)))
        assert report.ok
        assert report.claimed_order == 6
        assert "pass" in report.summary()

    def test_second_difference_constant(self):
        st = Stencil(
            m=2,
            order=2,
            offsets=(frac(-1), frac(0), frac(1)),
            weights=(frac(1), frac(-2), frac(1)),
            error_constant=frac(1, 12),
        )
        report = verify(st)
        assert report.ok
        # formula-side convention; the derivative-side constant is -1/12
        assert report.recomputed_error_constant == frac(1, 12)

    def test_corrupted_weight_fails_at_zeroth_moment(self):
        clean = flatten(centered_formula(1))
        weights = list(clean.weights)
        weights[0] += frac(1, 1000)
        bad = Stencil(
            m=clean.m,
            order=clean.order,
            offsets=clean.offsets,
            weights=tuple(weights),
            error_constant=clean.error_constant,
        )
        report = verify(bad)
        assert not report.ok
        assert report.first_failed_moment == 0
        assert "fail" in report.summary()

    def test_wrong_error_constant_detected(self):
        clean = flatten(centered_formula(1))
        bad = replace(clean, error_constant=frac(1, 7))
        report = verify(bad)
        assert not report.ok and report.first_failed_moment is None

    def test_flatten_rejects_a_formula_whose_error_constant_is_wrong(self):
        bad = replace(centered_formula(1), error_constant=frac(1))
        with pytest.raises(FlattenError) as excinfo:
            flatten(bad)
        assert str(excinfo.value) == (
            "merged stencil violates its own moment conditions: "
            "fail: stored error constant disagrees with the moment sums"
        )

    @pytest.mark.parametrize(
        "offsets, weights, message",
        [
            ((frac(-1), frac(1)), (frac(-1, 2),), "offsets and weights must have equal length"),
            ((frac(1), frac(-1)), (frac(1, 2), frac(-1, 2)), "offsets must be sorted ascending"),
        ],
    )
    def test_malformed_stencil_rejected(self, offsets, weights, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Stencil(m=1, order=2, offsets=offsets, weights=weights, error_constant=frac(1, 6))

    @pytest.mark.parametrize(
        "offsets, weights, bad",
        [
            ((-1.0, 0.0, 1.0), (frac(1), frac(-2), frac(1)), "-1.0"),
            ((frac(-1), frac(0), frac(1)), (1, -2.0, 1), "-2.0"),
        ],
    )
    def test_float_nodes_are_named_in_a_type_error(self, offsets, weights, bad):
        st = Stencil(m=2, order=2, offsets=offsets, weights=weights, error_constant=frac(1, 12))
        with pytest.raises(TypeError) as excinfo:
            verify(st)
        assert str(excinfo.value) == f"exact rational expected (int or Fraction), got {bad}"

    def test_int_nodes_pass(self):
        ints = Stencil(
            m=2, order=2, offsets=(-1, 0, 1), weights=(1, -2, 1), error_constant=frac(1, 12)
        )
        assert verify(ints) == verify(flatten(general_defcor(2, 2, [], base=word(fwd=1, bwd=1))))
        assert verify(ints).ok


class TestFlattenCoefficientTypes:
    # the step-2 forward quotient has e_2 = 1, so its one coefficient is whole
    formula = general_defcor(1, 2, [word(fwd=2)], base=word(fwd=1, spacing=2))

    def test_an_int_coefficient_flattens_like_its_fraction(self):
        ((coeff, expr),) = self.formula.terms
        assert coeff == 1
        assert flatten(replace(self.formula, terms=((1, expr),))) == flatten(self.formula)

    def test_a_float_coefficient_is_named_in_a_type_error(self):
        ((_, expr),) = self.formula.terms
        with pytest.raises(TypeError) as excinfo:
            flatten(replace(self.formula, terms=((1.0, expr),)))
        assert str(excinfo.value) == "exact rational expected (int or Fraction), got 1.0"


def fraction_flatten(formula):
    """Reference: the plain ``Fraction`` sum of ``coeff * expand(word)`` over the words."""
    merged = dict(expand(formula.base_expr))
    for coeff, expr in formula.terms:
        for offset, weight in expand(expr).items():
            merged[offset] = merged.get(offset, 0) - coeff * weight
    offsets = sorted(o for o, w in merged.items() if w)
    return tuple(offsets), tuple(merged[o] for o in offsets)


def test_flatten_equals_the_fraction_sum_through_order_30():
    formulas = list(catalog(30))
    # interior-centered seeds span the interval, a step of 2p + 1
    assert any(f.base_expr.spacing_factor != 1 for f in formulas)
    for formula in formulas:
        st = flatten(formula)
        assert (st.offsets, st.weights) == fraction_flatten(formula), formula.label
        assert all(type(w) is Fraction for w in st.weights + st.offsets)


def all_families_to_order_12():
    yield from catalog(12)


@pytest.mark.parametrize("formula", list(all_families_to_order_12()), ids=lambda f: f.label)
def test_flatten_equals_oracle(formula):
    st = flatten(formula)
    assert list(st.weights) == oracle_weights(st.offsets, st.m, st.order)
    assert verify(st).ok


@pytest.mark.parametrize("p", [1, 2, 3])
def test_centered_stencils_are_antisymmetric(p):
    st = flatten(centered_formula(p))
    table = dict(zip(st.offsets, st.weights))
    assert all(table[-o] == -w for o, w in table.items())


@pytest.mark.parametrize("p", [1, 2, 3])
def test_value_stencils_are_symmetric(p):
    st = flatten(centered_average_formula(p))
    table = dict(zip(st.offsets, st.weights))
    assert all(table[-o] == w for o, w in table.items())


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_flattened_error_constant_continues_coefficient_sequence(p):

    reference = {
        5: frac(-18, math.factorial(5) * 2**5),
        7: frac(450, math.factorial(7) * 2**7),
        9: frac(-22050, math.factorial(9) * 2**9),
        11: frac(1786050, math.factorial(11) * 2**11),
    }
    st = flatten(centered_formula(p))
    assert st.error_constant == reference[2 * p + 3]
    assert verify(st).recomputed_error_constant == reference[2 * p + 3]


def test_half_step_correction_formula_flattens_and_verifies():
    formula = general_defcor(
        1,
        4,
        [word(cent=1, fwd=1, bwd=1, spacing=Fraction(1, 2))],
        base=word(cent=1),
    )
    st = flatten(formula)
    assert st.offsets == (
        frac(-3, 4),
        frac(-1, 2),
        frac(-1, 4),
        frac(1, 4),
        frac(1, 2),
        frac(3, 4),
    )
    assert st.weights == (
        frac(1, 3),
        frac(-1),
        frac(-1),
        frac(1),
        frac(1),
        frac(-1, 3),
    )
    # six nodes at order four: wider than minimal, so the square moment
    # system would pick different weights; the moment checks still pass
    assert verify(st).ok


class TestSerialization:
    def test_json_schema(self):
        st = flatten(centered_formula(1))
        d = st.to_json_dict()
        assert d["m"] == 1 and d["order"] == 4
        assert d["error_constant"] == "-3/640"
        assert d["nodes"][0] == {"offset": "-3/2", "weight": "1/24"}
