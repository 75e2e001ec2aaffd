"""Exact rational arithmetic and alternating binomial moment sums.

Every coefficient, node offset, and weight in this package is a
:class:`fractions.Fraction`, so formula generation never rounds.  The moment
sums collected here are the identities that make difference words act like
derivatives on polynomials; everything downstream leans on them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Rational = Fraction

RationalLike = Union[Rational, int, str]

__all__ = [
    "Rational",
    "RationalLike",
    "binom",
    "moment_sum",
    "format_rational",
]


def binom(n: int, j: int) -> int:
    """Exact binomial coefficient over arbitrary-precision integers."""
    if n < 0 or j < 0:
        raise ValueError(f"binom({n}, {j}): arguments must be nonnegative")
    if j > n:
        raise ValueError(f"binom({n}, {j}): lower index exceeds upper index")
    return math.comb(n, j)


def moment_sum(m: int, r: RationalLike, p: int) -> Rational:
    """Alternating binomial moment sum ``sum_j (-1)**j C(m, j) (m + r - j)**p``.

    For any rational shift ``r`` the sum vanishes for ``1 <= p < m`` and equals
    ``m!`` at ``p == m``; these cancellations are the source of every accuracy
    order claimed by the stencil generators.
    """
    if m < 1:
        raise ValueError(f"moment_sum: m must be positive, got {m}")
    if p < 0:
        raise ValueError(f"moment_sum: p must be nonnegative, got {p}")
    shift = Fraction(r)
    total = Fraction(0)
    for j in range(m + 1):
        term = binom(m, j) * (m + shift - j) ** p
        total += -term if j % 2 else term
    return total


def format_rational(value: RationalLike) -> str:
    """Render as ``"num/den"``, omitting the denominator when it is 1."""
    q = Fraction(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
