"""Exact Taylor error expansion of difference words applied to smooth functions.

For a word with flat nodes ``{o_j: w_j}`` and differentiation order ``m``,

    k**-m * sum_j w_j u(x + o_j k)
        = u^(m)(x) + sum_{i > m} e_i * k**(i-m) * u^(i)(x),

with ``e_i = (1/i!) * sum_j w_j o_j**i`` exactly.  All coefficients are
produced by this one node-sum path regardless of family; the per-family
closed forms live in the test suite as assertions against it.

The sums run on integer lattices: with ``o_j = a_j / L`` and ``w_j = b_j / D``
(``L``, ``D`` the least common denominators), ``e_i`` is the integer power
sum ``sum_j b_j a_j**i`` divided once by ``D * L**i * i!``.  Integer sums are
exact, so ``e_i`` is the same ``Fraction`` a rational loop would give.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .exactmath import Rational, format_rational, power_sums
from .gridops import OperatorExpr, expand

__all__ = [
    "ErrorSeries",
    "series_from_nodes",
    "error_series",
    "default_truncation",
]


@dataclass(frozen=True)
class ErrorSeries:
    """Coefficients ``e_i`` of ``k**(i - lead) u^(i)`` past the exact lead term.

    ``coefficient(lead)`` is 1 by construction and everything below the lead
    vanishes; ``coeffs`` stores only the nonzero entries with
    ``lead < i <= truncation``.
    """

    lead: int
    coeffs: Mapping[int, Rational]
    truncation: int

    def coefficient(self, i: int) -> Rational:
        if i == self.lead:
            return Fraction(1)
        if i > self.truncation:
            raise ValueError(f"series truncated at {self.truncation}, asked for {i}")
        return self.coeffs.get(i, Fraction(0))

    def indices(self) -> list[int]:
        return sorted(self.coeffs)

    def to_json_dict(self) -> dict:
        return {
            "lead": self.lead,
            "coeffs": {str(i): format_rational(self.coeffs[i]) for i in self.indices()},
        }


def default_truncation(lead: int, order: int) -> int:
    """Truncation deep enough to carry every cancellation up to ``order``."""
    return lead + 2 * order + 2


def series_from_nodes(
    nodes: Mapping[Rational, Rational], lead: int, truncation: int
) -> ErrorSeries:
    """Error series of ``k**-lead * sum w_j u(x + o_j k)`` from raw nodes.

    Raises if the node sums do not annihilate all powers below ``lead`` or
    fail to reproduce the lead derivative with coefficient exactly 1.
    """
    if truncation <= lead:
        raise ValueError(
            f"truncation must exceed the lead order {lead}, got {truncation}"
        )
    coeffs: dict[int, Rational] = {}
    factorial = 1
    for i, (total, den) in zip(range(truncation + 1), power_sums(nodes.items())):
        factorial *= i or 1
        if i < lead:
            if total:
                moment = Fraction(total, den)
                raise ValueError(f"nodes do not annihilate degree {i}: moment sum {moment}")
        elif i == lead:
            if total != factorial * den:
                raise ValueError(
                    f"lead moment is {Fraction(total, den)}, expected {lead}! "
                    "for a normalized derivative approximation"
                )
        elif total:
            coeffs[i] = Fraction(total, den * factorial)
    return ErrorSeries(lead=lead, coeffs=coeffs, truncation=truncation)


def error_series(expr: OperatorExpr, truncation: int) -> ErrorSeries:
    """Exact error expansion of a difference word up to ``truncation``."""
    return series_from_nodes(expand(expr), expr.diff_order, truncation)
