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

Many formulas share words, so :func:`series_from_nodes` keeps each node
set's coefficients for the rest of the process in a ``functools.lru_cache``
keyed by the nodes' ``(offset, weight)`` integer ratios, in dict order, and
the lead.  A miss builds the lattice, checks the moments through the lead
once and keeps the lattice with the series, so a hit costs only the ratios.
A series to truncation ``T`` is a prefix of the same series to any deeper
``T'``: a deeper request extends the kept entry from where it stopped, a
shallower one reads its prefix, and either way every coefficient is the
``Fraction`` a fresh computation gives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .exactmath import Rational, lattice, power_sums, ratios
from .gridops import _CACHE_SIZE, OperatorExpr, expand

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


def default_truncation(lead: int, order: int) -> int:
    """Truncation deep enough to carry every cancellation up to ``order``."""
    return lead + 2 * order + 2


def series_from_nodes(
    nodes: Mapping[Rational, Rational], lead: int, truncation: int
) -> ErrorSeries:
    """Error series of ``k**-lead * sum w_j u(x + o_j k)`` from raw nodes.

    Raises ``ValueError`` if the node sums do not annihilate all powers below
    ``lead`` or fail to reproduce the lead derivative with coefficient
    exactly 1, and ``TypeError`` if an offset or weight is neither an
    ``int`` nor a ``Fraction``.  Each node set's lattice and coefficients are kept by
    :func:`_kept`, keyed by the nodes' integer ratios and ``lead``: a deeper
    truncation extends them, a shallower one reads their prefix.  Every call
    returns a fresh ``coeffs`` dict.
    """
    if truncation <= lead:
        raise ValueError(
            f"truncation must exceed the lead order {lead}, got {truncation}"
        )
    kept = _kept(tuple(ratios(nodes)), tuple(ratios(nodes.values())), lead)
    grid, (done, coeffs) = kept
    if truncation > done:
        coeffs = dict(coeffs)
        factorial = math.factorial(done)
        sums = power_sums(*grid, done + 1)
        for i, (total, den_i) in zip(range(done + 1, truncation + 1), sums):
            factorial *= i
            if total:
                coeffs[i] = Fraction(total, den_i * factorial)
        kept[1] = truncation, coeffs
    prefix = {i: c for i, c in coeffs.items() if i <= truncation}
    return ErrorSeries(lead=lead, coeffs=prefix, truncation=truncation)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _kept(offsets, weights, lead) -> list:
    # ``[grid, (truncation, coeffs)]``: the lattices of the node set's offsets
    # and weights, and its deepest series so far, once its moments through
    # ``lead`` pass; a call that raises keeps nothing.  The one write,
    # ``kept[1] = ...``, swaps in a new pair and changes no dict a caller or
    # thread may be reading.  It needs no lock: of two threads extending at
    # once the later store wins, which loses depth, never a term.
    grid = (*lattice(offsets), *lattice(weights))
    sums = power_sums(*grid, 0)
    for i, (total, den_i) in zip(range(lead), sums):
        if total:
            raise ValueError(
                f"nodes do not annihilate degree {i}: moment sum {Fraction(total, den_i)}"
            )
    total, den_i = next(sums)
    if total != math.factorial(lead) * den_i:
        raise ValueError(
            f"lead moment is {Fraction(total, den_i)}, expected {lead}! "
            "for a normalized derivative approximation"
        )
    return [grid, (lead, {})]


def error_series(expr: OperatorExpr, truncation: int) -> ErrorSeries:
    """Exact error expansion of a difference word up to ``truncation``."""
    return series_from_nodes(expand(expr), expr.diff_order, truncation)
