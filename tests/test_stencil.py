"""Flat stencils against the moment-system oracle and verification reports."""

from dataclasses import replace
from fractions import Fraction

import pytest

from fdcorr import (
    FlattenError,
    Stencil,
    backward_centered,
    centered_average_formula,
    centered_formula,
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
        shifted = replace(formula, terms=((coeff, expr.shifted(1)),))
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
        with pytest.raises(ValueError):
            oracle_weights([0, 1], 2)
        with pytest.raises(ValueError):
            oracle_weights([0, 1, 2], 1, q=4)


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
    import math

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
        [word(cent=1, fwd=1, bwd=1)],
        epsilons=[Fraction(1, 2)],
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

    def test_text_table(self):
        text = flatten(centered_formula(1)).format_table()
        assert "offset" in text and "9/8" in text and "C4" in text
