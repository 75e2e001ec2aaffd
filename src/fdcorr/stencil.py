"""Flat stencils, an independent moment-condition solver, and verification.

A stencil is the fully merged form of a correction formula:

    u^(m)(x0) ~ k**-m * sum_j w_j * u(x0 + o_j k)

It approximates to order ``q`` exactly when the moment conditions hold:
``sum_j w_j o_j**r`` is ``m!`` at ``r == m`` and zero for every other
``r < m + q``; the error constant is ``(1/(m+q)!) * sum_j w_j o_j**(m+q)``.

:func:`oracle_weights` solves the moment system directly by exact rational
elimination, with no reference to how formulas are generated; it is the
ground truth every generated stencil is compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .defcor import CorrectionFormula
from .exactmath import Rational, RationalLike, format_rational
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

    def moment(self, r: int) -> Rational:
        return sum(
            (w * o**r for o, w in zip(self.offsets, self.weights)),
            start=Fraction(0),
        )

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

    def format_table(self) -> str:
        lines = [
            f"# {self.provenance or 'stencil'}: derivative {self.m}, "
            f"order {self.order}, error constant "
            f"{format_rational(self.error_constant)}",
            f"{'offset':>12}  {'weight':>20}",
        ]
        for o, w in self.nodes():
            lines.append(f"{format_rational(o):>12}  {format_rational(w):>20}")
        return "\n".join(lines)


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
    merged: dict[Rational, Rational] = dict(expand(formula.base_expr))
    for coeff, expr in formula.terms:
        for offset, weight in expand(expr).items():
            merged[offset] = merged.get(offset, Fraction(0)) - coeff * weight
    merged = {o: w for o, w in merged.items() if w}
    offsets = tuple(sorted(merged))
    stencil = Stencil(
        m=formula.m,
        order=formula.order,
        offsets=offsets,
        weights=tuple(merged[o] for o in offsets),
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

    Solves ``sum_j w_j o_j**r = m! [r == m]`` for ``r = 0 .. len(offsets)-1``
    by fraction-preserving Gaussian elimination with partial pivoting.  The
    system is square and, for distinct offsets, uniquely solvable; ``q`` is an
    optional claimed order used only to check the node count can support it
    (``m + q`` nodes in general; symmetric node sets earn one parity order,
    so one fewer suffices).
    """
    points = [Fraction(o) for o in offsets]
    n = len(points)
    if len(set(points)) != n:
        raise ValueError("offsets must be distinct")
    if not 0 <= m < n:
        raise ValueError(f"need more than {m} nodes for derivative order {m}")
    if q is not None and n < m + q - 1:
        raise ValueError(
            f"{n} nodes cannot support derivative {m} at order {q}"
        )

    rows: list[list[Fraction]] = []
    power = [Fraction(1)] * n
    for r in range(n):
        rhs = Fraction(math.factorial(m)) if r == m else Fraction(0)
        rows.append(power + [rhs])
        power = [p * o for p, o in zip(power, points)]

    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(rows[r][col]))
        if not rows[pivot][col]:
            raise ValueError("moment system is singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        for r in range(n):
            if r == col or not rows[r][col]:
                continue
            factor = rows[r][col] / lead
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [rows[j][n] / rows[j][j] for j in range(n)]


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
    first_failed = None
    failed_value = None
    for r in range(stencil.m + stencil.order):
        expected = Fraction(math.factorial(stencil.m)) if r == stencil.m else Fraction(0)
        actual = stencil.moment(r)
        if actual != expected:
            first_failed = r
            failed_value = actual
            break
    top = stencil.m + stencil.order
    recomputed = stencil.moment(top) / math.factorial(top)
    matches = recomputed == stencil.error_constant
    return StencilCheck(
        ok=first_failed is None and matches,
        claimed_order=stencil.order,
        first_failed_moment=first_failed,
        failed_value=failed_value,
        recomputed_error_constant=recomputed,
        error_constant_matches=matches,
    )
