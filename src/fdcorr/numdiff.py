"""Stencil evaluation on functions and convergence studies.

One evaluator, :func:`apply_stencil`, takes its arithmetic from its inputs.
With a float point or spacing it mirrors how these formulas are used in
practice: each stencil converts its offsets and weights to float once, on
its first float evaluation (:attr:`fdcorr.stencil.Stencil.float_nodes`),
and every later one, such as each spacing of a convergence study, reuses
them; nodes are summed in ascending-offset order (identical inputs give
bit-identical outputs), and no compensated summation is applied, so the
roundoff plateau that every difference quotient hits at small spacing is
visible rather than masked.  With an int or rational point and spacing the
same sum is exact, which is how polynomial exactness is asserted without
any float tolerance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .exactmath import Rational
from .stencil import Stencil

__all__ = [
    "ConvergenceReport",
    "apply_stencil",
    "convergence_study",
]


def apply_stencil(s: Stencil, f: Callable, x0: float | Rational, h: float | Rational):
    """Evaluate ``h**-m * sum_j w_j f(x0 + o_j h)``.

    If ``x0`` or ``h`` is a float, the sum runs over ``s.float_nodes``, the
    offsets and weights the stencil converted to float on its first float
    evaluation, and the result is a float; nonfinite samples propagate into
    it, and a warning names the node's exact offset so the source is
    diagnosable.  If both are ints or rationals, every step is exact and so
    is the result for an exact ``f``.
    """
    if h <= 0:
        raise ValueError("spacing h must be positive")
    if not (isinstance(x0, float) or isinstance(h, float)):
        x = Fraction(x0)
        step = Fraction(h)
        total = Fraction(0)
        for offset, weight in zip(s.offsets, s.weights):
            total += weight * f(x + offset * step)
        return total / step**s.m
    x0 = float(x0)
    h = float(h)
    total = 0.0
    for exact_offset, (offset, weight) in zip(s.offsets, s.float_nodes):
        value = f(x0 + offset * h)
        if not math.isfinite(value):
            warnings.warn(
                f"nonfinite sample {value!r} at x = {x0 + offset * h!r} "
                f"(offset {exact_offset})",
                RuntimeWarning,
                stacklevel=2,
            )
        total += weight * value
    return total / h**s.m


@dataclass(frozen=True)
class ConvergenceReport:
    """Errors of one stencil over a decreasing spacing grid.

    ``observed_orders[i]`` is the pairwise slope between spacings ``i`` and
    ``i + 1``.  ``roundoff_floor_index`` flags where errors stop behaving:
    the first index whose error grew by more than a factor of two over its
    predecessor (``len(spacings)`` when that never happens); entries from
    there on say nothing about the formula's order.
    """

    formula_id: str
    spacings: tuple[float, ...]
    abs_errors: tuple[float, ...]
    observed_orders: tuple[float, ...]
    roundoff_floor_index: int

    def fit_window(self) -> list[int]:
        """Indices safe to fit an order against.

        The roundoff plateau announces itself where the pairwise observed
        order collapses below 1 (errors rising, or shrinking slower than the
        spacing) or an error hits exact zero.  A grid that never shows that
        signal sits entirely above the plateau and every point counts;
        otherwise the window stops at the signal (never past the detected
        floor) and entries within 50x of the smallest positive error are
        dropped as plateau-contaminated.
        """
        positive = [e for e in self.abs_errors if e > 0.0]
        if not positive:
            return []
        n = len(self.abs_errors)
        plateau_start = n
        for i in range(1, n):
            if self.abs_errors[i] == 0.0 or not self.observed_orders[i - 1] >= 1.0:
                plateau_start = i
                break
        if plateau_start == n:
            return list(range(n))
        stop = min(plateau_start, self.roundoff_floor_index)
        guard = 50.0 * min(positive)
        return [i for i in range(stop) if self.abs_errors[i] >= guard]

    def fitted_order(self) -> float:
        """Least-squares slope of log error against log spacing, pre-floor."""
        window = self.fit_window()
        if len(window) < 2:
            return math.nan
        xs = [math.log(self.spacings[i]) for i in window]
        ys = [math.log(self.abs_errors[i]) for i in window]
        x_mean = sum(xs) / len(xs)
        y_mean = sum(ys) / len(ys)
        sxx = sum((x - x_mean) ** 2 for x in xs)
        sxy = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
        return sxy / sxx

    def min_error(self) -> float:
        return min(self.abs_errors)

    def csv_rows(self) -> list[tuple[str, str, str]]:
        rows = [("h", "abs_error", "observed_order")]
        for i, (h, err) in enumerate(zip(self.spacings, self.abs_errors)):
            order = "" if i == 0 else repr(self.observed_orders[i - 1])
            rows.append((repr(h), repr(err), order))
        return rows

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as handle:
            handle.write("".join(",".join(row) + "\n" for row in self.csv_rows()))


def _pairwise_order(e0: float, e1: float, h0: float, h1: float) -> float:
    if e0 <= 0.0 or e1 <= 0.0:
        return math.inf if e1 == 0.0 and e0 > 0.0 else math.nan
    return math.log(e0 / e1) / math.log(h0 / h1)


def convergence_study(
    s: Stencil,
    f: Callable[[float], float],
    df_true: float,
    x0: float,
    h_list: Sequence[float] | Iterable[float],
    formula_id: str = "",
) -> ConvergenceReport:
    """Absolute errors of ``s`` against a known derivative on a spacing grid.

    ``h_list`` must be strictly decreasing with at least three entries, so
    pairwise orders and the floor heuristic are meaningful.  Evaluations are
    independent per spacing; results are assembled in grid order.
    """
    spacings = tuple(float(h) for h in h_list)
    if len(spacings) < 3:
        raise ValueError("need at least three spacings")
    if any(b >= a for a, b in zip(spacings, spacings[1:])):
        raise ValueError("spacings must be strictly decreasing")
    errors = tuple(abs(apply_stencil(s, f, x0, h) - df_true) for h in spacings)
    orders = tuple(
        _pairwise_order(errors[i], errors[i + 1], spacings[i], spacings[i + 1])
        for i in range(len(spacings) - 1)
    )
    floor = len(spacings)
    for i in range(1, len(errors)):
        if errors[i] > 2.0 * errors[i - 1]:
            floor = i
            break
    return ConvergenceReport(
        formula_id=formula_id or s.provenance,
        spacings=spacings,
        abs_errors=errors,
        observed_orders=orders,
        roundoff_floor_index=floor,
    )
