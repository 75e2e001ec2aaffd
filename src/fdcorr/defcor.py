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

Each named family is defined once, by its row in :data:`FAMILIES`: seed,
correction words and order rule.  :meth:`Family.formula` makes one
:func:`general_defcor` call of them, and each named generator
(`centered_formula`, `forward_centered`, ...) returns its rows' formulas.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Mapping, Sequence
from fractions import Fraction

from .exactmath import Rational, format_rational, lattice
from .gridops import _ONE, OperatorExpr, word
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


class CorrectionFormula(namedtuple(
    "CorrectionFormula",
    "m base_expr terms order error_constant family_coefficients family label",
    defaults=("general", ""),
)):
    """A derivative approximation ``base - sum_t coeff_t k**(d_t - m) W_t``.

    ``terms`` holds the subtracted corrections in generation order, as
    ``(coeff_t, W_t)`` pairs; term ``t``'s word has differentiation order
    ``d_t`` and was scaled by the exact coefficient ``coeff_t``.
    ``family_coefficients`` (``{order: Rational}``) holds the same data
    relabelled in the family's conventional orientation (for families whose
    defining identity *adds* its corrections, these are the negated engine
    coefficients), keyed by the word order they multiply; the key
    ``order + m`` slot of that convention is the error constant.  ``family``
    (default ``"general"``) and ``label`` (default ``""``) name the formula.
    """

    __slots__ = ()

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
    series is evaluated only where it is read.  ``m`` and ``order`` must be
    ``int`` values; any other type, ``bool`` included, raises ``TypeError``
    naming the argument.
    """
    for label, value in (("derivative order m", m), ("target order", order)):
        if type(value) is not int and (isinstance(value, bool) or not isinstance(value, int)):
            raise TypeError(f"{label} must be an int, got {value!r}")
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


def centered_formula(p: int) -> CorrectionFormula:
    """First derivative at a half-point, order ``2p + 2``.

    Seed: the two-point difference across the evaluation point.  Corrections:
    centered odd words of orders 3, 5, ..., 2p+1, each subtracted, each buying
    two orders.  ``family_coefficients[2i+1]`` is the subtracted multiple of
    the order-``2i+1`` word and the error constant continues the sequence.
    """
    return family_named("centered").formula(p)


def centered_average_formula(p: int) -> CorrectionFormula:
    """Value (not derivative) at a half-point from the two-point average.

    The order-0 sibling of :func:`centered_formula`: corrections are the even
    centered words followed by an average, orders 2, 4, ..., 2p, achieving
    order ``2p + 2`` for the midpoint value itself.
    """
    return family_named("centered-average").formula(p)


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
    return (family_named("interior-centered").formula(p),
            family_named("interior-centered-value").formula(p))


def forward_centered(p: int) -> CorrectionFormula:
    """Derivative at a node from the forward quotient plus near-centered words.

    Corrections of order ``i`` use ``bwd^(i % 2) (fwd bwd)^(i // 2)``, whose
    nodes hug the evaluation point instead of marching off one-sidedly; the
    resulting coefficients shrink factorially, unlike the ``1/i`` pattern of
    :func:`standard_forward`.  Achieves order ``p`` with error constant equal
    to the next coefficient in the family sequence.
    """
    return family_named("forward-centered").formula(p)


def backward_centered(p: int) -> CorrectionFormula:
    """Mirror of :func:`forward_centered` seeded by the backward quotient.

    Its defining identity *adds* the correction words, so
    ``family_coefficients`` are the negated engine coefficients: they share
    the order-2 entry with the forward variant and flip sign from order 3 on.
    """
    return family_named("backward-centered").formula(p)


def standard_forward(p: int) -> CorrectionFormula:
    """Classical one-sided forward formula of order ``p``.

    Corrections are the pure forward powers; the subtracted coefficients come
    out as ``(-1)**i / i`` with error constant ``(-1)**(p+1) / (p+1)``.
    """
    return family_named("standard-forward").formula(p)


def standard_backward(p: int) -> CorrectionFormula:
    """Classical one-sided backward formula of order ``p``.

    The conventional statement adds ``(1/i) k**(i-1)`` times the backward
    powers, so ``family_coefficients[i] == 1/i`` while the stored engine
    coefficients are their negatives; the subtracted-side error constant is
    ``-1 / (p + 1)``.
    """
    return family_named("standard-backward").formula(p)


# ---------------------------------------------------------------------------
# the family registry


class Family(namedtuple("Family", "name prefix aliases centered seed word build")):
    """One named family's one definition: ids, order rule, seed and words.

    Centered families have symmetric seeds, so parameter ``p`` reaches order
    ``2p + 2`` and only even orders exist; the others reach order ``p``, and
    ``min_p`` is the first ``p`` with one correction word.  ``seed(p)`` is the
    quotient the family corrects (its differentiation order is ``m``) and
    ``word(d)`` its correction word of differentiation order ``d``;
    :meth:`formula` builds the row's formula from them.
    ``build(p)`` returns every formula the family's named generator yields,
    the row's own first; it stays only as the path by which :func:`catalog`
    and ``coeffs`` reach the generators, whose calls the benchmark counts.
    A ``<family>-value`` row has no ``prefix``; its formulas carry its owner's
    name and label ``<prefix><order>-value``, and :func:`catalog` skips it.
    :func:`family_named` finds a row by its name, prefix or alias, in any case.
    """

    __slots__ = ()

    @property
    def min_p(self) -> int:
        return 1 if self.centered else 2

    def order(self, p: int) -> int:
        return 2 * p + 2 if self.centered else p

    def param(self, order: int) -> int | None:
        """The parameter whose formula has accuracy ``order``, if there is one."""
        p = (order - 2) // 2 if self.centered else order
        return p if p >= self.min_p and self.order(p) == order else None

    def formula(self, p: int) -> CorrectionFormula:
        """The row's formula at parameter ``p``, and no other.

        The words of orders ``m + s, m + 2s, ...`` below ``m + order`` correct
        the seed, ``s`` being 2 on centered rows and 1 otherwise.  The usual
        statement adds the corrections of a backward seed, so a seed of spacing
        factor ``step`` scales ``family_coefficients`` by ``step**m``, negated
        when it leans backward.
        """
        if p < self.min_p:
            raise ValueError(f"p must be at least {self.min_p}")
        seed, order, s = self.seed(p), self.order(p), 1 + self.centered
        m = seed.diff_order
        formula = general_defcor(m, order, [self.word(d) for d in range(m + s, m + order, s)], seed)
        scale = seed.spacing_factor**m * (-1 if seed.p_bwd > seed.p_fwd else 1)
        coeffs = {i: c * scale for i, c in formula.family_coefficients.items()}
        owner = _ROWS[self.name.removesuffix("-value")]
        label = f"{owner.prefix}{order}" + ("" if owner is self else "-value")
        return formula._replace(family_coefficients=coeffs, family=owner.name, label=label)


def _centered(d: int, spacing: Rational | int = _ONE) -> OperatorExpr:
    # cent (fwd bwd)^(d // 2) at odd d, avg (fwd bwd)^(d // 2) at even d
    return word(fwd=d // 2, bwd=d // 2, cent=d % 2, avg=1 - d % 2, spacing=spacing)


def _hugging(d: int) -> OperatorExpr:
    # bwd^(d % 2) (fwd bwd)^(d // 2): widest with at most one node ahead of x
    return word(fwd=d // 2, bwd=d // 2 + d % 2)


# Rows and ``Family.formula`` look their functions up at call time rather than
# holding the function objects, so a rebinding of a module attribute reaches
# every registry call.  The table order is the catalogue order.
FAMILIES: tuple[Family, ...] = (
    # name, prefix, aliases, centered, seed, word, build
    Family("centered", "C", (), True, lambda p: _centered(1), _centered,
           lambda p: (centered_formula(p),)),
    Family("centered-average", "CA", ("average",), True, lambda p: _centered(0), _centered,
           lambda p: (centered_average_formula(p),)),
    Family("interior-centered", "IC", ("interior",), True, lambda p: _centered(1, 2 * p + 1),
           _centered, lambda p: interior_centered(p)),
    Family("interior-centered-value", None, (), True, lambda p: _centered(0, 2 * p + 1),
           _centered, lambda p: (family_named("interior-centered-value").formula(p),)),
    Family("forward-centered", "FC", (), False, lambda p: word(fwd=1), _hugging,
           lambda p: (forward_centered(p),)),
    Family("backward-centered", "BC", (), False, lambda p: word(bwd=1), _hugging,
           lambda p: (backward_centered(p),)),
    Family("standard-forward", "F", ("forward",), False, lambda p: word(fwd=1),
           lambda d: word(fwd=d), lambda p: (standard_forward(p),)),
    Family("standard-backward", "B", ("backward",), False, lambda p: word(bwd=1),
           lambda d: word(bwd=d), lambda p: (standard_backward(p),)),
)

# Every name, alias and lower-cased prefix, each naming its one row.
_ROWS = {key.lower(): f for f in FAMILIES for key in (f.name, *f.aliases, f.prefix or f.name)}


# Not in ``__all__`` (nor is ``family_named``): ``verify-all`` runs through
# these, and the exported names are the ones the benchmark's tracer counts
# calls of.
def family_named(name: str) -> Family | None:
    """The row whose name, prefix or alias is ``name``, in any letter case."""
    return _ROWS.get(name.lower())


def catalog(max_order: int) -> Iterator[CorrectionFormula]:
    """Every family's formulas up to accuracy order ``max_order``, each once.

    Centered families come first, then the one-sided ones; within each group
    the parameter runs outermost and the families follow table order.
    """
    for centered in (True, False):
        group = [f for f in FAMILIES if f.prefix and f.centered is centered]
        for p in range(1, max_order + 1):
            for family in group:
                if p >= family.min_p and family.order(p) <= max_order:
                    yield from family.build(p)
