"""Flat stencils, an independent moment-condition solver, and verification.

A stencil is the fully merged form of a correction formula:

    u^(m)(x0) ~ k**-m * sum_j w_j * u(x0 + o_j k)

It approximates to order ``q`` exactly when the moment conditions hold:
``sum_j w_j o_j**r`` is ``m!`` at ``r == m`` and zero for every other
``r < m + q``; the error constant is ``(1/(m+q)!) * sum_j w_j o_j**(m+q)``.

:func:`oracle_weights` solves the moment system directly: it is a
Vandermonde system, and the Bjorck-Pereyra algorithm (Bjorck & Pereyra 1970,
Math. Comp. 24; Golub & Van Loan, Alg. 4.6.2) solves it exactly in O(n**2)
steps, as integer sweeps over the offsets scaled onto an integer lattice
and one common denominator.  It reads only the offsets and ``m``, never the
correction engine's words, series or coefficients, so it stays the
independent ground truth every generated stencil is compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .defcor import CorrectionFormula
from .exactmath import Rational, RationalLike, format_rational, lattice, power_sums
from .gridops import expand

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


@dataclass(frozen=True)
class Stencil:
    """Sorted node offsets (units of k) and weights for one derivative."""

    m: int
    order: int
    offsets: tuple[Rational, ...]
    weights: tuple[Rational, ...]
    error_constant: Rational
    provenance: str = ""

    def __post_init__(self) -> None:
        if len(self.offsets) != len(self.weights):
            raise ValueError("offsets and weights must have equal length")
        if list(self.offsets) != sorted(self.offsets):
            raise ValueError("offsets must be sorted ascending")

    def nodes(self) -> list[tuple[Rational, Rational]]:
        return list(zip(self.offsets, self.weights))

    @cached_property
    def float_nodes(self) -> tuple[tuple[float, float], ...]:
        """Float ``(offset, weight)`` pairs in offset order, made on first use."""
        return tuple((float(o), float(w)) for o, w in self.nodes())

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
    the formula's claimed order are re-checked on the merged nodes.
    """
    anchors = {formula.base_expr.base_shift}
    anchors.update(expr.base_shift for _, expr in formula.terms)
    if len(anchors) != 1:
        raise FlattenError(
            "formula terms are anchored at different evaluation points: "
            + ", ".join(sorted(format_rational(a) for a in anchors))
        )
    # Offsets and coefficient-times-weight products each go onto one lattice.
    words = [(1, expand(formula.base_expr))]
    words += [(-coeff, expand(expr)) for coeff, expr in formula.terms]
    points, scale = lattice(o for _, nodes in words for o in nodes)
    weights, den = lattice(c * w for c, nodes in words for w in nodes.values())
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
    a square Vandermonde system with the unique solution for distinct
    offsets, by the Bjorck-Pereyra algorithm (Bjorck & Pereyra 1970, Math.
    Comp. 24; Golub & Van Loan, Alg. 4.6.2) in O(n**2) steps.  The offsets
    are scaled onto integers ``a_j = L o_j`` (``L`` the least common
    denominator), which turns the system into ``sum_j w_j a_j**r =
    m! L**m [r == m]`` with the same weights; both sweeps then run on
    integers, the second over one common denominator.  Weights come back in
    input order.  ``q`` is an optional claimed order used only to check the
    node count can support it (``m + q`` nodes in general; symmetric node
    sets earn one parity order, so one fewer suffices).
    """
    x = [Fraction(o) for o in offsets]
    n = len(x)
    if len(set(x)) != n:
        raise ValueError("offsets must be distinct")
    if not 0 <= m < n:
        raise ValueError(f"need more than {m} nodes for derivative order {m}")
    if q is not None and n < m + q - 1:
        raise ValueError(
            f"{n} nodes cannot support derivative {m} at order {q}"
        )

    scale = math.lcm(*(o.denominator for o in x))
    a = [o.numerator * (scale // o.denominator) for o in x]
    w = [0] * n
    w[m] = math.factorial(m) * scale**m
    # Two sets of n - 1 bidiagonal sweeps: the first multiplies by nodes ...
    for k in range(n - 1):
        for i in range(n - 1, k, -1):
            w[i] -= a[k] * w[i - 1]
    # ... the second divides by differences of distinct nodes, never zero.
    # Entry i stands for w[i] / den; dividing entries k+1.. by their
    # differences d_i means multiplying den by g = lcm(d_i), the divided
    # entries by g // d_i and the others by g.
    den = 1
    for k in range(n - 2, -1, -1):
        d = [a[i] - a[i - k - 1] for i in range(k + 1, n)]
        g = math.lcm(*d)
        den *= g
        for i in range(k + 1):
            w[i] *= g
        for i, d_i in enumerate(d, k + 1):
            w[i] *= g // d_i
        for i in range(k, n - 1):
            w[i] -= w[i + 1]
    return [Fraction(v, den) for v in w]


@dataclass(frozen=True)
class StencilCheck:
    """Outcome of re-deriving a stencil's order from its moment sums."""

    ok: bool
    claimed_order: int
    first_failed_moment: int | None
    failed_value: Rational | None
    recomputed_error_constant: Rational
    error_constant_matches: bool

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
    stencil means for them.
    """
    m, top = stencil.m, stencil.m + stencil.order
    first_failed = failed_value = None
    factorial = 1
    for r, (total, den) in zip(range(top + 1), power_sums(stencil.nodes())):
        factorial *= r or 1
        if r == top:
            recomputed = Fraction(total, den * factorial)
        elif first_failed is None and total != (factorial * den if r == m else 0):
            first_failed, failed_value = r, Fraction(total, den)
    matches = recomputed == stencil.error_constant
    return StencilCheck(
        ok=first_failed is None and matches,
        claimed_order=stencil.order,
        first_failed_moment=first_failed,
        failed_value=failed_value,
        recomputed_error_constant=recomputed,
        error_constant_matches=matches,
    )
