"""Difference-operator words on a uniform grid and their exact node expansions.

A word is a commuting product of powers of four elementary operators, all
tied to a step ``s = spacing_factor * k`` where ``k`` is the global grid
spacing:

    forward    (u(x + s) - u(x)) / s
    backward   (u(x) - u(x - s)) / s
    centered   (u(x + s/2) - u(x - s/2)) / s
    average    (u(x + s/2) + u(x - s/2)) / 2

The first three differentiate once each; the average does not.  Forward and
backward powers commute, and the centered/average factors act at half-steps,
which is how two-point-per-step families live on half-integer grids.

:func:`expand` turns a word into flat node/weight form.  Offsets are kept in
units of the *global* spacing with the word's own step folded into offsets
and weights, so words with different steps combine without rescaling:

    word(u)(x) = k**-m * sum_j w_j * u(x + o_j * k)

with ``m`` the word's total differentiation order.  With ``E`` the shift by
one step, each factor is ``E - 1`` or ``(E + 1)/2`` times a power of
``E**(1/2)``, so :func:`expand` has integer binomial weights on a half-step
lattice over the one denominator ``2**p_avg`` and folds the spacing in once
at the end: no rational arithmetic, and the expansion is exact.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from collections.abc import Iterable, Mapping
from fractions import Fraction

from .exactmath import Rational, RationalLike, exact, format_rational, node_sum

__all__ = [
    "OperatorExpr",
    "GridFunction",
    "GridRangeError",
    "word",
    "expand",
    "normalize_composite",
    "apply",
    "product_rule_check",
]

_ZERO, _ONE = Fraction(0), Fraction(1)  # every word's default anchor and step, shared


class OperatorExpr(
    namedtuple("OperatorExpr", "p_fwd p_bwd p_cent p_avg base_shift spacing_factor")
):
    """A difference word ``fwd^p_fwd bwd^p_bwd cent^p_cent avg^p_avg``.

    ``base_shift`` records where the word is anchored relative to the index it
    is applied at, in units of the global spacing (used by
    :func:`normalize_composite` to express equivalent re-anchored words).
    ``spacing_factor`` scales the word's step relative to the global spacing.
    Both are exact (``int``, ``Fraction`` or ``str``); a float raises ``TypeError``.
    The four powers are nonnegative ``int`` values; a power of another type,
    ``bool`` included, raises ``TypeError`` naming its field.  An immutable
    named tuple: ``expr._replace(...)`` makes a checked copy.
    """

    __slots__ = ()

    def __new__(
        cls,
        p_fwd: int = 0,
        p_bwd: int = 0,
        p_cent: int = 0,
        p_avg: int = 0,
        base_shift: RationalLike = _ZERO,
        spacing_factor: RationalLike = _ONE,
    ) -> OperatorExpr:
        for name, power in zip(cls._fields, (p_fwd, p_bwd, p_cent, p_avg)):
            # a plain ``int`` passes on its type alone; ``bool`` subclasses ``int``
            if type(power) is not int and (isinstance(power, bool) or not isinstance(power, int)):
                raise TypeError(f"{name} must be an int, got {power!r}")
            if power < 0:
                raise ValueError(f"{name} must be nonnegative")
        base_shift = exact(base_shift)
        spacing = exact(spacing_factor)
        if spacing.numerator <= 0:
            raise ValueError("spacing_factor must be positive")
        return tuple.__new__(cls, (p_fwd, p_bwd, p_cent, p_avg, base_shift, spacing))

    @classmethod
    def _make(cls, fields: Iterable) -> OperatorExpr:
        return cls(*fields)  # so ``_replace`` checks its copy as ``__new__`` does

    @property
    def diff_order(self) -> int:
        """Total differentiation order of the word."""
        return self.p_fwd + self.p_bwd + self.p_cent

    def to_json_dict(self) -> dict:
        return {
            "fwd": self.p_fwd,
            "bwd": self.p_bwd,
            "cent": self.p_cent,
            "avg": self.p_avg,
            "base_shift": format_rational(self.base_shift),
            "spacing_factor": format_rational(self.spacing_factor),
        }


def word(
    fwd: int = 0,
    bwd: int = 0,
    cent: int = 0,
    avg: int = 0,
    shift: RationalLike = _ZERO,
    spacing: RationalLike = _ONE,
) -> OperatorExpr:
    """Shorthand constructor for :class:`OperatorExpr`."""
    return OperatorExpr(fwd, bwd, cent, avg, shift, spacing)


def expand(expr: OperatorExpr) -> dict[Rational, Rational]:
    """Exact ``{offset: weight}`` expansion of a word.

    Pure composites come out with alternating binomial weights; the word's
    spacing factor is folded into offsets and weights so the result is always
    expressed against the global spacing.  The word's differentiation order
    and anchor stay on the word (``expr.diff_order``, ``expr.base_shift``).
    Each operator is expanded once per process, keyed by the five integers
    its expansion depends on, so words equal as operators (``cent^2`` and
    ``fwd bwd``, or one word at two anchors) share it; every call returns a
    fresh dict, so callers may change it.
    """
    s = expr.spacing_factor
    low = -(2 * expr.p_bwd + expr.p_cent + expr.p_avg)
    return dict(_expansion(expr.diff_order, low, expr.p_avg, s.numerator, s.denominator))


# One entry per operator here, per node set in ``taylorseries._kept``: the named
# families up to the order cap ``cli.MAX_ORDER`` use 997 of each.  The stencil
# memos ``stencil._checked`` and ``stencil._solved`` hold one per distinct stencil,
# 795 of them there.  ``cli._stencil`` holds one per formula id, ``(row, p)``:
# 1192 up to the cap, so past 1024 the least recently used id is built again.
_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _expansion(n: int, low: int, p_avg: int, p: int, q: int) -> dict[Rational, Rational]:
    # Half-steps from ``low``, step ``p/q``: (E - 1)**n as alternating
    # binomials, then one (E + 1) per average.
    weights = [(-1) ** (n - j) * math.comb(n, j) for j in range(n + 1)]
    for _ in range(p_avg):
        weights = [a + b for a, b in zip(weights + [0], [0] + weights)]
    scale, den = q**n, 2**p_avg * p**n
    return {
        Fraction((low + 2 * j) * p, 2 * q): Fraction(w * scale, den)
        for j, w in enumerate(weights)
        if w
    }


def normalize_composite(
    expr: OperatorExpr,
) -> tuple[OperatorExpr, Rational] | None:
    """Rewrite an even pure forward/backward word as a centered composite.

    ``fwd^a bwd^b`` with ``a + b`` even equals ``(fwd bwd)^((a+b)/2)`` anchored
    ``(a - b)/2`` steps away.  Returns the re-anchored word and the shift
    delta, or ``None`` when ``a + b`` is odd (no such rewrite exists).
    """
    if expr.p_cent or expr.p_avg:
        raise ValueError("normalize_composite applies to pure forward/backward words")
    total = expr.p_fwd + expr.p_bwd
    if total % 2:
        return None
    half = total // 2
    delta = Fraction(expr.p_fwd - half)
    normalized = OperatorExpr(
        p_fwd=half,
        p_bwd=half,
        base_shift=expr.base_shift + delta,
        spacing_factor=expr.spacing_factor,
    )
    return normalized, delta


class GridRangeError(LookupError):
    """A required grid sample is missing; the message names the index."""

    def __init__(self, index: Rational):
        self.index = index
        super().__init__(f"no sample at grid index {format_rational(index)}")


class GridFunction:
    """Samples of a function on (possibly half-integer) grid indices."""

    def __init__(self, samples: Mapping[RationalLike, object]):
        self.samples = {exact(i): v for i, v in samples.items()}

    def value(self, index: RationalLike):
        index = exact(index)
        try:
            return self.samples[index]
        except KeyError:
            raise GridRangeError(index) from None


def apply(expr: OperatorExpr, u: GridFunction, at: RationalLike, k):
    """Evaluate a word on grid samples at index ``at``.

    The same node sum as :func:`fdcorr.numdiff.apply_stencil`'s exact path:
    exact when samples and ``k`` are rational; nodes are visited in ascending
    offset order so float evaluations are reproducible too.
    """
    base = exact(at) + expr.base_shift
    nodes = sorted(expand(expr).items())
    return node_sum(nodes, lambda offset: u.value(base + offset), k, expr.diff_order)


def product_rule_check(
    m: int, f: GridFunction, g: GridFunction, n: RationalLike, k
) -> tuple[object, object]:
    """Evaluate both sides of the even composite's product expansion.

    One application of the second-difference composite ``A = fwd*bwd``
    distributes over a product as

        A(fg) = Af*g + f*Ag + fwd(f)*bwd(g) + bwd(f)*fwd(g) + k**2 * Af*Ag,

    and since the five pieces commute as difference symbols, ``A**m`` is
    their plain multinomial power: a sum over split counts (i1..i5) of

        m!/(i1!..i5!) * k**(2*i5) * word(fwd=i1+i3+i5, bwd=i1+i4+i5) f
                                  * word(fwd=i2+i4+i5, bwd=i2+i3+i5) g.

    Grouped by j = i5, the pair of words applied to f and g splits the
    double index (m+j, m+j); the multinomial weight counts how many ways
    the split arises.  Both sides are returned so a caller (or test) can
    report any discrepancy, which for exact samples must be zero.
    """
    if m < 1:
        raise ValueError("product_rule_check: m must be positive")
    base = exact(n)
    nodes = sorted(expand(word(fwd=m, bwd=m)).items())
    lhs = node_sum(nodes, lambda o: f.value(base + o) * g.value(base + o), k, 2 * m)
    factorial_m = math.factorial(m)
    rhs = 0
    for i1 in range(m + 1):
        for i2 in range(m + 1 - i1):
            for i3 in range(m + 1 - i1 - i2):
                for i4 in range(m + 1 - i1 - i2 - i3):
                    i5 = m - i1 - i2 - i3 - i4
                    split = (i1, i2, i3, i4, i5)
                    weight = factorial_m // math.prod(map(math.factorial, split))
                    left = apply(word(fwd=i1 + i3 + i5, bwd=i1 + i4 + i5), f, base, k)
                    right = apply(word(fwd=i2 + i4 + i5, bwd=i2 + i3 + i5), g, base, k)
                    rhs += weight * k ** (2 * i5) * left * right
    return lhs, rhs
