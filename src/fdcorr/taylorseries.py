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
set's coefficients for the rest of the process, keyed by that integer
lattice and the lead.  A series to truncation ``T`` is a prefix of the same
series to any deeper ``T'``: a deeper request extends the kept entry from
where it stopped, a shallower one reads its prefix, and either way every
coefficient is the ``Fraction`` a fresh computation gives.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .exactmath import Rational, node_lattice, power_sums
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


def default_truncation(lead: int, order: int) -> int:
    """Truncation deep enough to carry every cancellation up to ``order``."""
    return lead + 2 * order + 2


# Each node set's series, by its lattice and lead, at the deepest truncation
# asked so far: ``{(a, L, b, D, lead): (truncation, coeffs)}``, oldest use
# first.  1024 holds every word the named families use up to the order cap.
_SERIES: dict[tuple, tuple[int, dict[int, Rational]]] = {}
_SERIES_CAP = 1024
_SERIES_LOCK = threading.Lock()


def series_from_nodes(
    nodes: Mapping[Rational, Rational], lead: int, truncation: int
) -> ErrorSeries:
    """Error series of ``k**-lead * sum w_j u(x + o_j k)`` from raw nodes.

    Raises if the node sums do not annihilate all powers below ``lead`` or
    fail to reproduce the lead derivative with coefficient exactly 1.
    Each node set's coefficients are computed once per process and kept for
    up to 1024 node sets, the least recently used dropped first.  A deeper
    truncation extends the kept series from where it stopped, into a new
    entry; a shallower one reads its prefix.  Every call returns a fresh
    ``coeffs`` dict.  A call that raises keeps nothing, and the running
    power products are never kept.
    """
    if truncation <= lead:
        raise ValueError(
            f"truncation must exceed the lead order {lead}, got {truncation}"
        )
    points, scale, terms, den = node_lattice(nodes.items())
    key = (points, scale, terms, den, lead)
    done, coeffs = _SERIES.get(key, (-1, {}))
    if truncation > done:
        coeffs = dict(coeffs)
        factorial = math.factorial(max(done, 0))
        sums = power_sums(points, scale, terms, den, done + 1)
        for i, (total, den_i) in zip(range(done + 1, truncation + 1), sums):
            factorial *= i or 1
            if i < lead:
                if total:
                    moment = Fraction(total, den_i)
                    raise ValueError(
                        f"nodes do not annihilate degree {i}: moment sum {moment}"
                    )
            elif i == lead:
                if total != factorial * den_i:
                    raise ValueError(
                        f"lead moment is {Fraction(total, den_i)}, expected {lead}! "
                        "for a normalized derivative approximation"
                    )
            elif total:
                coeffs[i] = Fraction(total, den_i * factorial)
        done = truncation
    with _SERIES_LOCK:
        _SERIES.pop(key, None)
        if len(_SERIES) >= _SERIES_CAP:
            del _SERIES[next(iter(_SERIES))]
        _SERIES[key] = done, coeffs
    prefix = {i: c for i, c in coeffs.items() if i <= truncation}
    return ErrorSeries(lead=lead, coeffs=prefix, truncation=truncation)


def error_series(expr: OperatorExpr, truncation: int) -> ErrorSeries:
    """Exact error expansion of a difference word up to ``truncation``."""
    return series_from_nodes(expand(expr), expr.diff_order, truncation)
