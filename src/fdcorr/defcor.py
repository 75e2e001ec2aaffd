"""Arbitrary-order derivative formulas by iterated error-term cancellation.

Every generator here starts from a short difference quotient whose exact
error expansion is known (see :mod:`fdcorr.taylorseries`) and repeatedly
removes the first surviving term.  If the running identity is

    u^(m)(x) = B u(x) - sum_t c_t k**(d_t - m) W_t u(x)
               - C_l k**(l - m) u^(l)(x) - ...

then subtracting ``C_l k**(l - m) V u(x)`` for any word ``V`` of
differentiation order ``l`` cancels the ``u^(l)`` term, because ``V`` itself
equals ``u^(l)`` plus higher-order corrections.  One-sided seeds gain one
order per step; symmetric seeds gain two, since their expansions skip every
other index.  The subtracted multiples are the formula's coefficients, all
exact rationals, and the first surviving expansion coefficient is the error
constant:

    formula(u)(x) = u^(m)(x) + error_constant * k**order * u^(m+order)(x) + ...

Each named family is defined once, by its row in :data:`FAMILIES`.  Its
generator (`centered_formula`, `forward_centered`, ...) gives only a seed, a
sequence of correction words, and the sign or scale that converts
``family_coefficients`` to the convention its defining identity is usually
written in; the row gives the rest of one :func:`general_defcor` call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Sequence

from .exactmath import Rational, format_rational, lattice
from .gridops import OperatorExpr, word
from .taylorseries import default_truncation, error_series

__all__ = [
    "CorrectionFormula",
    "DegenerateChoiceError",
    "general_defcor",
    "centered_formula",
    "centered_average_formula",
    "interior_centered",
    "forward_centered",
    "backward_centered",
    "standard_forward",
    "standard_backward",
]


class DegenerateChoiceError(ValueError):
    """A correction word cannot cancel the current leading error term."""


@dataclass(frozen=True)
class CorrectionFormula:
    """A derivative approximation ``base - sum_t coeff_t k**(d_t - m) W_t``.

    ``terms`` holds the subtracted corrections in generation order; term
    ``t``'s word has differentiation order ``d_t`` and was scaled by the exact
    coefficient ``coeff_t``.  ``family_coefficients`` holds the same data
    relabelled in the family's conventional orientation (for families whose
    defining identity *adds* its corrections, these are the negated engine
    coefficients), keyed by the word order they multiply; the key
    ``order + m`` slot of that convention is the error constant.
    """

    m: int
    base_expr: OperatorExpr
    terms: tuple[tuple[Rational, OperatorExpr], ...]
    order: int
    error_constant: Rational
    family_coefficients: Mapping[int, Rational]
    family: str = "general"
    label: str = ""

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "m": self.m,
            "order": self.order,
            "error_constant": format_rational(self.error_constant),
            "base": self.base_expr.to_json_dict(),
            "terms": [
                {"coeff": format_rational(c), "operator": e.to_json_dict()}
                for c, e in self.terms
            ],
            "family_coefficients": {
                str(i): format_rational(v)
                for i, v in sorted(self.family_coefficients.items())
            },
        }


def _default_seed(m: int) -> OperatorExpr:
    if m == 0:
        return word(avg=1)
    if m % 2 == 0:
        return word(fwd=m // 2, bwd=m // 2)
    return word(cent=1, fwd=(m - 1) // 2, bwd=(m - 1) // 2)


def general_defcor(
    m: int,
    order: int,
    choices: Sequence[OperatorExpr],
    base: OperatorExpr | None = None,
) -> CorrectionFormula:
    """Cancel error terms of a seed until the requested order is reached.

    ``choices`` supplies the correction words in the order they are consumed;
    each must match the differentiation order of the term it is meant to
    cancel (the engine raises :class:`DegenerateChoiceError` otherwise, e.g.
    when a word skips over a surviving term or targets one that symmetry has
    already removed); a word's step is its own ``spacing_factor`` times the
    global spacing.  With no ``base`` given, a centered seed of the right
    order is used.  Unused trailing choices are ignored; running out of them
    before reaching ``order`` is an error.  The result's
    ``family_coefficients`` maps each word's order to its engine coefficient.
    Its ``family`` and ``label`` are the defaults; a named family's formulas
    take theirs from the family's :data:`FAMILIES` row.  The residual error
    series is evaluated only where it is read.
    """
    if m < 0:
        raise ValueError("derivative order m must be nonnegative")
    if order < 1:
        raise ValueError("target order must be positive")
    if base is None:
        base = _default_seed(m)
    if base.diff_order != m:
        raise ValueError(
            f"seed word differentiates {base.diff_order} times, need {m}"
        )

    truncation = default_truncation(m, order)
    seed = error_series(base, truncation).coeffs

    # The residual is ``seed - sum_t c_t e_t``, evaluated only where it is
    # read: a step reads just the first nonzero entry, and the word of
    # order ``l`` changes no entry at or below ``l`` except ``l`` itself,
    # which it zeroes, so every entry before the next scan is final.  Each
    # entry is one integer sum of ``(num, den)`` pairs on their lattice; a
    # ``Fraction`` is made only of the nonzero entry that ends the scan.
    # ``(c_t, W_t, -c_t as (num, den), e_t)`` per correction
    corrections: list[tuple[Rational, OperatorExpr, int, int, Mapping[int, Rational]]] = []
    queue = iter(choices)
    leading = m
    while True:
        for leading in range(leading + 1, truncation + 1):
            pairs = [seed[leading].as_integer_ratio()] if leading in seed else []
            for _, _, c_num, c_den, coeffs in corrections:
                if leading in coeffs:
                    n, d = coeffs[leading].as_integer_ratio()
                    pairs.append((c_num * n, c_den * d))
            terms, den = lattice(pairs)
            total = sum(terms)
            if total:
                residual = Fraction(total, den)
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
        c_num, c_den = residual.as_integer_ratio()
        coeffs = error_series(choice, truncation).coeffs
        corrections.append((residual, choice, -c_num, c_den, coeffs))

    return CorrectionFormula(
        m=m,
        base_expr=base,
        terms=tuple((coeff, expr) for coeff, expr, *_ in corrections),
        order=achieved,
        error_constant=residual,
        family_coefficients={expr.diff_order: coeff for coeff, expr, *_ in corrections},
    )


def _generate(
    name: str, p: int, seed: OperatorExpr, words: Sequence[OperatorExpr], scale: int = 1
) -> CorrectionFormula:
    """The formula of registry row ``name`` at parameter ``p``.

    The row sets the lowest ``p``, the order, the family name and the label;
    ``seed`` sets ``m``.  ``scale`` multiplies the engine coefficients into
    the family's conventional ``family_coefficients``.
    """
    row = family_named(name)
    if p < row.min_p:
        raise ValueError(f"p must be at least {row.min_p}")
    order = row.order(p)
    owner = _owner(row)
    label = f"{owner.prefix}{order}" + ("" if owner is row else "-value")
    formula = general_defcor(seed.diff_order, order, words, base=seed)
    coeffs = {i: scale * c for i, c in formula.family_coefficients.items()}
    return replace(formula, family_coefficients=coeffs, family=owner.name, label=label)


def centered_formula(p: int) -> CorrectionFormula:
    """First derivative at a half-point, order ``2p + 2``.

    Seed: the two-point difference across the evaluation point.  Corrections:
    centered odd words of orders 3, 5, ..., 2p+1, each subtracted, each buying
    two orders.  ``family_coefficients[2i+1]`` is the subtracted multiple of
    the order-``2i+1`` word and the error constant continues the sequence.
    """
    words = [word(cent=1, fwd=i, bwd=i) for i in range(1, p + 1)]
    return _generate("centered", p, word(cent=1), words)


def centered_average_formula(p: int) -> CorrectionFormula:
    """Value (not derivative) at a half-point from the two-point average.

    The order-0 sibling of :func:`centered_formula`: corrections are the even
    centered words followed by an average, orders 2, 4, ..., 2p, achieving
    order ``2p + 2`` for the midpoint value itself.
    """
    words = [word(avg=1, fwd=i, bwd=i) for i in range(1, p + 1)]
    return _generate("centered-average", p, word(avg=1), words)


def interior_centered(p: int) -> tuple[CorrectionFormula, CorrectionFormula]:
    """Midpoint derivative/value formulas whose widest nodes are the endpoints.

    Split an interval into ``2p + 1`` equal steps; the midpoint falls halfway
    between grid nodes.  The seeds are the endpoint difference quotient and
    endpoint average, words with spacing factor ``2p + 1``, corrected by
    fine-spacing centered words, so every node stays inside the interval.
    Both formulas reach order ``2p + 2``.

    ``family_coefficients`` follows the convention in which the derivative
    identity carries an overall ``1 / (interval length)`` in front of its
    correction sum: odd entries are the engine coefficients times ``2p + 1``,
    even entries (from the value formula) are the engine coefficients.
    """
    span = 2 * p + 1
    odd = [word(cent=1, fwd=i, bwd=i) for i in range(1, p + 1)]
    deriv = _generate("interior-centered", p, word(cent=1, spacing=span), odd, scale=span)
    even = [word(avg=1, fwd=i, bwd=i) for i in range(1, p + 1)]
    value = _generate("interior-centered-value", p, word(avg=1, spacing=span), even)
    return deriv, value


def _mixed_words(upto: int) -> list[OperatorExpr]:
    # order-i word: bwd^(i % 2) (fwd bwd)^(i // 2); widest pattern that keeps
    # at most one node ahead of the evaluation point.
    return [word(fwd=i // 2, bwd=i // 2 + i % 2) for i in range(2, upto + 1)]


def forward_centered(p: int) -> CorrectionFormula:
    """Derivative at a node from the forward quotient plus near-centered words.

    Corrections of order ``i`` use ``bwd^(i % 2) (fwd bwd)^(i // 2)``, whose
    nodes hug the evaluation point instead of marching off one-sidedly; the
    resulting coefficients shrink factorially, unlike the ``1/i`` pattern of
    :func:`standard_forward`.  Achieves order ``p`` with error constant equal
    to the next coefficient in the family sequence.
    """
    return _generate("forward-centered", p, word(fwd=1), _mixed_words(p))


def backward_centered(p: int) -> CorrectionFormula:
    """Mirror of :func:`forward_centered` seeded by the backward quotient.

    Its defining identity *adds* the correction words, so
    ``family_coefficients`` are the negated engine coefficients: they share
    the order-2 entry with the forward variant and flip sign from order 3 on.
    """
    return _generate("backward-centered", p, word(bwd=1), _mixed_words(p), scale=-1)


def standard_forward(p: int) -> CorrectionFormula:
    """Classical one-sided forward formula of order ``p``.

    Corrections are the pure forward powers; the subtracted coefficients come
    out as ``(-1)**i / i`` with error constant ``(-1)**(p+1) / (p+1)``.
    """
    words = [word(fwd=i) for i in range(2, p + 1)]
    return _generate("standard-forward", p, word(fwd=1), words)


def standard_backward(p: int) -> CorrectionFormula:
    """Classical one-sided backward formula of order ``p``.

    The conventional statement adds ``(1/i) k**(i-1)`` times the backward
    powers, so ``family_coefficients[i] == 1/i`` while the stored engine
    coefficients are their negatives; the subtracted-side error constant is
    ``-1 / (p + 1)``.
    """
    words = [word(bwd=i) for i in range(2, p + 1)]
    return _generate("standard-backward", p, word(bwd=1), words, scale=-1)


# ---------------------------------------------------------------------------
# the family registry


@dataclass(frozen=True)
class Family:
    """One named family's one definition: ids, parameter range, order rule.

    Centered families have symmetric seeds, so parameter ``p`` reaches order
    ``2p + 2`` and only even orders exist; the others reach order ``p``.  The
    family's generator gives only a seed, the correction words and the scale
    of ``family_coefficients``; its ``p`` guard, order, family name and label
    come from this row.  ``build(p)`` calls the generator and returns every
    formula that one call yields; the first is the family's own formula.
    A ``<family>-value`` row's formulas, which ``<family>`` builds too, carry
    its name and label ``<prefix><order>-value``, and :func:`catalog` skips it.
    """

    name: str
    prefix: str | None
    aliases: tuple[str, ...]
    centered: bool
    min_p: int
    build: Callable[[int], tuple[CorrectionFormula, ...]]

    def order(self, p: int) -> int:
        return 2 * p + 2 if self.centered else p

    def param(self, order: int) -> int | None:
        """The parameter whose formula has accuracy ``order``, if there is one."""
        p = (order - 2) // 2 if self.centered else order
        return p if p >= self.min_p and self.order(p) == order else None


# Builders name the generators at call time rather than holding the function
# objects, so a rebinding of a module attribute reaches every registry call.
# The table order is the catalogue order.
FAMILIES: tuple[Family, ...] = (
    # name, prefix, aliases, centered, min_p, build
    Family("centered", "C", ("c",), True, 1,
           lambda p: (centered_formula(p),)),
    Family("centered-average", "CA", ("ca", "average"), True, 1,
           lambda p: (centered_average_formula(p),)),
    Family("interior-centered", "IC", ("ic", "interior"), True, 1,
           lambda p: interior_centered(p)),
    Family("interior-centered-value", None, (), True, 1,
           lambda p: interior_centered(p)[1:]),
    Family("forward-centered", "FC", ("fc",), False, 2,
           lambda p: (forward_centered(p),)),
    Family("backward-centered", "BC", ("bc",), False, 2,
           lambda p: (backward_centered(p),)),
    Family("standard-forward", "F", ("f", "forward"), False, 2,
           lambda p: (standard_forward(p),)),
    Family("standard-backward", "B", ("b", "backward"), False, 2,
           lambda p: (standard_backward(p),)),
)


# Not in ``__all__`` (nor is ``family_named``): ``verify-all`` runs through
# these, and the exported names are the ones the benchmark's tracer counts
# calls of.
def family_named(name: str) -> Family | None:
    """The row whose name or alias is ``name``, in any letter case."""
    key = name.lower()
    return next((f for f in FAMILIES if key == f.name or key in f.aliases), None)


def _owner(row: Family) -> Family:
    return family_named(row.name.removesuffix("-value"))


def catalog(max_order: int) -> Iterator[CorrectionFormula]:
    """Every family's formulas up to accuracy order ``max_order``, each once.

    Centered families come first, then the one-sided ones; within each group
    the parameter runs outermost and the families follow table order.
    """
    for centered in (True, False):
        group = [f for f in FAMILIES if _owner(f) is f and f.centered is centered]
        for p in range(1, max_order + 1):
            for family in group:
                if p >= family.min_p and family.order(p) <= max_order:
                    yield from family.build(p)
