"""Flat stencils, an independent moment-condition solver, and verification.

A stencil is the fully merged form of a correction formula:

    u^(m)(x0) ~ k**-m * sum_j w_j * u(x0 + o_j k)

It approximates to order ``q`` exactly when the moment conditions hold:
``sum_j w_j o_j**r`` is ``m!`` at ``r == m`` and zero for every other
``r < m + q``; the error constant is ``(1/(m+q)!) * sum_j w_j o_j**(m+q)``.

:func:`oracle_weights` solves the moment system directly, by differentiating
the Lagrange interpolant on integer-scaled offsets (Fornberg 1988, Math.
Comp. 51).  It reads only the offsets and ``m``, never the correction
engine's words, series or coefficients, so it stays the independent ground
truth every generated stencil is compared against.  :func:`verify` and
:func:`oracle_weights` check their inputs on every call and then answer a
stencil they have already done from a per-process memo keyed by integers.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .defcor import CorrectionFormula
from .exactmath import (
    Rational, RationalLike, exact, format_rational, lattice, power_sums, ratios
)
from .gridops import _CACHE_SIZE, expand

__all__ = [
    "Stencil",
    "StencilCheck",
    "FlattenError",
    "flatten",
    "oracle_weights",
    "verify",
]


class FlattenError(ValueError):
    """The formula's terms cannot be merged into a single stencil."""


class Stencil(namedtuple("Stencil", "m order offsets weights error_constant provenance")):
    """Sorted node offsets (units of k) and weights for one derivative.

    ``offsets`` and ``weights`` are equally long tuples of ``Rational``, the
    offsets ascending; ``provenance`` defaults to ``""``.  An immutable named
    tuple: ``stencil._replace(...)`` makes a checked copy.
    """

    __slots__ = ()

    def __new__(
        cls,
        m: int,
        order: int,
        offsets: tuple[Rational, ...],
        weights: tuple[Rational, ...],
        error_constant: Rational,
        provenance: str = "",
    ) -> Stencil:
        if len(offsets) != len(weights):
            raise ValueError("offsets and weights must have equal length")
        if list(offsets) != sorted(offsets):
            raise ValueError("offsets must be sorted ascending")
        return tuple.__new__(cls, (m, order, offsets, weights, error_constant, provenance))

    @classmethod
    def _make(cls, fields: Iterable) -> Stencil:
        return cls(*fields)  # so ``_replace`` checks its copy as ``__new__`` does

    def nodes(self) -> list[tuple[Rational, Rational]]:
        return list(zip(self.offsets, self.weights))

    def to_json_dict(self) -> dict:
        out = {
            "m": self.m,
            "order": self.order,
            "error_constant": format_rational(self.error_constant),
            "nodes": [
                {"offset": format_rational(o), "weight": format_rational(w)}
                for o, w in self.nodes()
            ],
        }
        if self.provenance:
            out["provenance"] = self.provenance
        return out


def flatten(formula: CorrectionFormula) -> Stencil:
    """Merge a formula's seed and correction words into one stencil.

    Requires every word to be anchored at the same evaluation point; words
    with different spacing factors merge fine because expansions are already
    expressed against the global spacing.  The moment conditions implied by
    the formula's claimed order are re-checked on the merged nodes.  A
    coefficient that is not an ``int`` or ``Fraction`` raises ``TypeError``.
    """
    anchor = formula.base_expr.base_shift
    if any(expr.base_shift != anchor for _, expr in formula.terms):
        anchors = {anchor, *(expr.base_shift for _, expr in formula.terms)}
        raise FlattenError(
            "formula terms are anchored at different evaluation points: "
            + ", ".join(sorted(format_rational(a) for a in anchors))
        )
    # Offsets go onto one lattice, and the coefficient-times-weight products,
    # each an integer pair ``(num, den)``, onto another.
    coeffs = ratios([coeff for coeff, _ in formula.terms])
    words = [((1, 1), expand(formula.base_expr))]
    words += [((-n, d), expand(expr)) for (n, d), (_, expr) in zip(coeffs, formula.terms)]
    points, scale = lattice(r for _, nodes in words for r in ratios(nodes))
    products = [(n * wn, d * wd) for (n, d), nodes in words for wn, wd in ratios(nodes.values())]
    weights, den = lattice(products)
    merged: dict[int, int] = {}
    for a, w in zip(points, weights):
        merged[a] = merged.get(a, 0) + w
    offsets = sorted(a for a, w in merged.items() if w)
    stencil = Stencil(
        m=formula.m,
        order=formula.order,
        offsets=tuple(Fraction(a, scale) for a in offsets),
        weights=tuple(Fraction(merged[a], den) for a in offsets),
        error_constant=formula.error_constant,
        provenance=formula.label or formula.family,
    )
    check = verify(stencil)
    if not check.ok:
        raise FlattenError(
            f"merged stencil violates its own moment conditions: {check.summary()}"
        )
    return stencil


def oracle_weights(
    offsets: Sequence[RationalLike], m: int, q: int | None = None
) -> list[Rational]:
    """Weights from the exact moment system, independent of any generator.

    Solves ``sum_j w_j o_j**r = m! [r == m]`` for ``r = 0 .. len(offsets)-1``,
    whose unique solution for distinct offsets is ``w_j = m! [t**m] l_j(t)``
    for the Lagrange basis polynomials ``l_j`` (Fornberg 1988, Math. Comp.
    51).  On integers ``a_j = L o_j`` (``L`` the least common denominator),
    with ``P(t) = prod_i (t - a_i)`` and ``Q_j = P / (t - a_j)``, that is
    ``w_j = m! L**m [t**m] Q_j / Q_j(a_j)``: one integer product, then one
    synthetic division and Horner evaluation per node, O(n**2) steps.
    Weights come back in input order.  ``q`` is an optional claimed order
    used only to check the node count can support it (``m + q`` nodes in
    general; symmetric node sets earn one parity order, so one fewer).  A
    float offset raises ``TypeError``.  These checks run on every call; the
    solve runs once per ``m`` and node set in a process, which
    :func:`_solved` keeps keyed by the offsets' integer ratios, and every
    call returns a fresh list.
    """
    pairs = tuple(ratios([exact(o) for o in offsets]))
    n = len(pairs)
    if len(set(pairs)) != n:
        raise ValueError("offsets must be distinct")
    if not 0 <= m < n:
        raise ValueError(f"need more than {m} nodes for derivative order {m}")
    if q is not None and n < m + q - 1:
        raise ValueError(
            f"{n} nodes cannot support derivative {m} at order {q}"
        )
    return list(_solved(m, pairs))


@functools.lru_cache(maxsize=_CACHE_SIZE, typed=True)
def _solved(m: int, offsets: tuple[tuple[int, int], ...]) -> tuple[Rational, ...]:
    # ``typed``: an ``m`` of another type (``1.0``, ``True``) is its own key,
    # so it fails or passes as an uncached call would.
    a, scale = lattice(offsets)
    n = len(a)
    product = [1]  # P's coefficients, highest power first
    for a_i in a:
        product = [hi - a_i * lo for hi, lo in zip(product + [0], [0] + product)]
    numerator, weights = math.factorial(m) * scale**m, []
    for a_j in a:
        # Synthetic division gives Q_j top coefficient first; Horner, Q_j(a_j).
        quotient, carry, value = [], 0, 0
        for c in product[:-1]:
            carry = c + a_j * carry
            value = value * a_j + carry
            quotient.append(carry)
        weights.append(Fraction(numerator * quotient[n - 1 - m], value))
    return tuple(weights)


class StencilCheck(namedtuple(
    "StencilCheck",
    "ok claimed_order first_failed_moment failed_value recomputed_error_constant "
    "error_constant_matches",
)):
    """Outcome of re-deriving a stencil's order from its moment sums.

    ``first_failed_moment`` and ``failed_value`` are ``None`` when every
    moment below the claimed order holds.
    """

    __slots__ = ()

    def summary(self) -> str:
        if self.ok:
            return (
                f"pass: order {self.claimed_order}, error constant "
                f"{format_rational(self.recomputed_error_constant)}"
            )
        if self.first_failed_moment is not None:
            return (
                f"fail: moment r={self.first_failed_moment} is "
                f"{format_rational(self.failed_value)}"
            )
        return "fail: stored error constant disagrees with the moment sums"


def verify(stencil: Stencil) -> StencilCheck:
    """Check every moment condition and recompute the error constant.

    Failures are reported, not raised, so callers can decide what a broken
    stencil means for them; a node or error constant that is not an ``int``
    or ``Fraction`` raises ``TypeError``.  Each distinct stencil is checked
    once per process: :func:`_checked` keeps its report keyed by ``m``, the
    order and the integer ratios of the nodes and the error constant.
    """
    return _checked(
        stencil.m,
        stencil.order,
        tuple(ratios(stencil.offsets)),
        tuple(ratios(stencil.weights)),
        *ratios([stencil.error_constant]),
    )


@functools.lru_cache(maxsize=_CACHE_SIZE, typed=True)
def _checked(m, order, offsets, weights, error_constant) -> StencilCheck:
    # ``typed`` as in ``_solved``; the report is an immutable tuple, so calls share it.
    top = m + order
    first_failed = failed_value = None
    factorial = 1
    sums = power_sums(*lattice(offsets), *lattice(weights))
    for r, (total, den, _) in zip(range(top + 1), sums):
        factorial *= r or 1
        if r == top:
            recomputed = Fraction(total, den * factorial)
        elif first_failed is None and total != (factorial * den if r == m else 0):
            first_failed, failed_value = r, Fraction(total, den)
    matches = recomputed.as_integer_ratio() == error_constant
    return StencilCheck(
        ok=first_failed is None and matches,
        claimed_order=order,
        first_failed_moment=first_failed,
        failed_value=failed_value,
        recomputed_error_constant=recomputed,
        error_constant_matches=matches,
    )
