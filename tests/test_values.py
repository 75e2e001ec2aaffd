"""The value types' contract: fields, defaults, immutability, equality, hashing, checks."""

from fractions import Fraction

import pytest

from fdcorr import (
    ConvergenceReport,
    CorrectionFormula,
    ErrorSeries,
    OperatorExpr,
    Stencil,
    StencilCheck,
    word,
)
from fdcorr.defcor import Family

F = Fraction


def _seed(p):
    return word(fwd=1)


def _word(d):
    return word(fwd=d)


def _build(p):
    return ()


# class: (field names, one value per field, the defaults of the trailing fields)
CASES = {
    OperatorExpr: (
        ("p_fwd", "p_bwd", "p_cent", "p_avg", "base_shift", "spacing_factor"),
        (1, 2, 0, 1, F(1, 2), F(3)),
        (0, 0, 0, 0, F(0), F(1)),
    ),
    ErrorSeries: (("lead", "coeffs", "truncation"), (1, {3: F(-1, 6)}, 5), ()),
    CorrectionFormula: (
        ("m", "base_expr", "terms", "order", "error_constant", "family_coefficients",
         "family", "label"),
        (1, word(cent=1), ((F(1, 24), word(cent=1, fwd=1, bwd=1)),), 4, F(3, 640),
         {3: F(1, 24)}, "centered", "C4"),
        ("general", ""),
    ),
    Family: (
        ("name", "prefix", "aliases", "centered", "seed", "word", "build"),
        ("probe", "P", ("pr",), False, _seed, _word, _build),
        (),
    ),
    Stencil: (
        ("m", "order", "offsets", "weights", "error_constant", "provenance"),
        (1, 2, (F(-1), F(0), F(1)), (F(-1, 2), F(0), F(1, 2)), F(1, 6), "C2"),
        ("",),
    ),
    StencilCheck: (
        ("ok", "claimed_order", "first_failed_moment", "failed_value",
         "recomputed_error_constant", "error_constant_matches"),
        (False, 4, 2, F(1, 3), F(3, 640), True),
        (),
    ),
    ConvergenceReport: (
        ("formula_id", "spacings", "abs_errors", "observed_orders", "roundoff_floor_index"),
        ("C4", (0.1, 0.05, 0.025), (1e-4, 6.25e-6, 3.9e-7), (4.0, 4.0), 3),
        (),
    ),
}
HASHABLE = (OperatorExpr, Family, Stencil, StencilCheck, ConvergenceReport)


@pytest.fixture(params=list(CASES), ids=lambda cls: cls.__name__)
def case(request):
    return request.param, *CASES[request.param]


def test_positional_and_keyword_construction_agree(case):
    cls, fields, values, _ = case
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    assert by_position == by_keyword
    for name, value in zip(fields, values):
        assert getattr(by_position, name) == value
    if cls in HASHABLE:
        assert hash(by_position) == hash(by_keyword)


def test_omitted_trailing_fields_take_their_defaults(case):
    cls, fields, values, defaults = case
    required = len(fields) - len(defaults)
    built = cls(*values[:required])
    assert built == cls(**dict(zip(fields[:required], values[:required])))
    for name, default in zip(fields[required:], defaults):
        assert getattr(built, name) == default
    if required:
        with pytest.raises(TypeError):
            cls(*values[: required - 1])


def test_fields_cannot_be_assigned(case):
    cls, fields, values, _ = case
    built = cls(*values)
    for name, value in zip(fields, values):
        with pytest.raises(AttributeError):
            setattr(built, name, value)
    with pytest.raises(AttributeError):
        built.extra = 1
    assert built == cls(*values)


def test_equal_words_hash_alike():
    assert {word(fwd=1), word(fwd=1, shift=0)} == {word(fwd=1)}
    assert len({word(fwd=1), word(fwd=1, shift=0), OperatorExpr(p_fwd=1)}) == 1
    assert word(cent=1, spacing="2/4") == word(cent=1, spacing=F(1, 2))
    assert word(fwd=1) != word(bwd=1)


def test_repr_names_every_field():
    assert repr(word(fwd=1, shift=F(1, 2))) == (
        "OperatorExpr(p_fwd=1, p_bwd=0, p_cent=0, p_avg=0, "
        "base_shift=Fraction(1, 2), spacing_factor=Fraction(1, 1))"
    )
    assert repr(Stencil(1, 1, (F(0), F(1)), (F(-1), F(1)), F(1, 2))) == (
        "Stencil(m=1, order=1, offsets=(Fraction(0, 1), Fraction(1, 1)), "
        "weights=(Fraction(-1, 1), Fraction(1, 1)), error_constant=Fraction(1, 2), "
        "provenance='')"
    )


class TestReplace:
    """``x._replace(...)`` copies with the constructor's checks, as ``dataclasses.replace`` did."""

    def test_a_copy_replaces_only_the_named_fields(self):
        expr = word(fwd=1, shift=1)
        copy = expr._replace(spacing_factor=2)
        assert copy == word(fwd=1, shift=1, spacing=2)
        assert type(copy) is OperatorExpr and type(copy.spacing_factor) is Fraction
        assert expr == word(fwd=1, shift=1)

    def test_a_float_spacing_raises(self):
        with pytest.raises(TypeError) as excinfo:
            word()._replace(spacing_factor=0.5)
        assert str(excinfo.value) == "exact rational expected (int or Fraction), got 0.5"

    def test_unsorted_stencil_offsets_raise(self):
        stencil = Stencil(1, 1, (F(0), F(1)), (F(-1), F(1)), F(1, 2))
        with pytest.raises(ValueError, match="^offsets must be sorted ascending$"):
            stencil._replace(offsets=(F(1), F(0)))
