"""Stencil evaluation on functions and convergence studies.

One evaluator, :func:`apply_stencil`, takes its arithmetic from its inputs.
With an int or rational point and spacing every step is exact, which is how
polynomial exactness is asserted without any float tolerance; that path is
``exactmath.node_sum``, the node sum ``gridops.apply`` uses too.  In floats it
is a column sum over a batch of stencils: each distinct node offset ``o`` is
sampled once per spacing, ``f(x0 + o*h)``, and ``w * sample`` is added into
every stencil of the batch with that node.  :func:`apply_stencil` is a batch
of one at one spacing; :func:`convergence_studies` shares samples among many
stencils on one grid.  Either way each total starts at ``0.0`` and adds the
same products in ascending-offset order, and a sample is the same float
whichever stencil uses it, so results are bit-identical to summing each
stencil alone over its nodes converted to float.  Without compensated
summation the roundoff plateau at small spacing stays visible.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .exactmath import Rational, node_sum
from .stencil import Stencil

__all__ = [
    "ConvergenceReport",
    "apply_stencil",
    "convergence_studies",
    "convergence_study",
]


def apply_stencil(s: Stencil, f: Callable, x0: float | Rational, h: float | Rational):
    """Evaluate ``h**-m * sum_j w_j f(x0 + o_j h)``.

    If ``x0`` or ``h`` is a float, the sum runs over the stencil's offsets
    and weights converted to float, once per call, and the result is a
    float; nonfinite samples propagate into it, and a warning names the
    node's exact offset so the source is diagnosable; a nonfinite ``x0`` or
    ``h`` raises before any sample.  If both are ints or rationals, the
    shared node sum ``exactmath.node_sum`` runs in exact steps, and the
    result is exact for an exact ``f``.
    """
    if h <= 0:
        raise ValueError("spacing h must be positive")
    if not (isinstance(x0, float) or isinstance(h, float)):
        x, step = Fraction(x0), Fraction(h)
        return node_sum(s.nodes(), lambda offset: f(x + offset * step), step, s.m)
    x0, h = _finite("x0", x0), _finite("spacing h", h)
    return _column_sums([s], f, x0, (h,))[0][0] / h**s.m


def _finite(name: str, value) -> float:
    if not math.isfinite(value := float(value)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _column_sums(stencils, f: Callable, x0: float, spacings) -> list[list[float]]:
    """``sum_j w_j f(x0 + o_j h)`` of each stencil at each spacing, in floats."""
    users: dict[float, list[tuple[int, float, Rational]]] = {}
    for k, s in enumerate(stencils):
        for exact, weight in s.nodes():
            users.setdefault(float(exact), []).append((k, float(weight), exact))
    totals = [[0.0] * len(spacings) for _ in stencils]
    for offset in sorted(users):
        column = [f(x0 + offset * h) for h in spacings]
        # an inf or nan sample always makes the column's sum nonfinite
        bad = [] if math.isfinite(sum(column)) else [
            (x0 + offset * h, v) for h, v in zip(spacings, column) if not math.isfinite(v)]
        for k, weight, exact in users[offset]:
            for x, value in bad:
                warnings.warn(f"nonfinite sample {value!r} at x = {x!r} (offset {exact})",
                              RuntimeWarning, stacklevel=_outside_level())
            totals[k] = [t + weight * v for t, v in zip(totals[k], column)]
        del column
    return totals


def _outside_level() -> int:
    """The ``stacklevel`` that makes its caller's warning name the first frame outside."""
    frame, level = sys._getframe(1), 1
    while frame.f_globals["__name__"] == __name__:
        frame, level = frame.f_back, level + 1
    return level


@functools.lru_cache(maxsize=1)
def _spacing_texts(spacings: tuple[float, ...]) -> tuple[str, ...]:
    return tuple(map(repr, spacings))  # once per grid: a study's reports share it


@dataclass(frozen=True)
class ConvergenceReport:
    """Errors of one stencil over a decreasing spacing grid.

    ``observed_orders[i]`` is the pairwise slope between spacings ``i`` and
    ``i + 1``, ``-inf`` where error ``i + 1`` is infinite and error ``i``
    is not.  ``roundoff_floor_index`` flags where errors stop behaving:
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
        otherwise the window stops at the signal, which never comes after
        ``roundoff_floor_index``, and entries within 50x of the smallest
        positive error are dropped as plateau-contaminated.
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
        guard = 50.0 * min(positive)
        return [i for i in range(plateau_start) if self.abs_errors[i] >= guard]

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

    def write_csv(self, path) -> None:
        h_texts, errors = _spacing_texts(self.spacings), self.abs_errors
        rows = [f"h,abs_error,observed_order\n{h_texts[0]},{errors[0]!r},\n"]
        rows += [f"{h},{e!r},{o!r}\n"
                 for h, e, o in zip(h_texts[1:], errors[1:], self.observed_orders)]
        with open(path, "w", newline="") as handle:
            handle.write("".join(rows))


def convergence_studies(
    named: Sequence[tuple[str, Stencil]],
    f: Callable[[float], float],
    df_true: float,
    x0: float,
    h_list: Sequence[float] | Iterable[float],
) -> Iterator[ConvergenceReport]:
    """One report per ``(formula_id, stencil)`` pair of ``named``, in order.

    ``h_list`` must be finite, positive and strictly decreasing with at least
    three entries, so pairwise orders and the floor heuristic are meaningful,
    and ``x0`` and ``df_true`` finite; all are checked before any sample is
    taken.  The call samples each distinct node offset of the batch once per
    spacing; the iterator it returns builds each report only when asked, so a
    caller that writes and drops each one holds one at a time.  The reports
    share one ``spacings`` tuple, and a repeated pair gives a repeated report.
    """
    spacings = tuple(float(h) for h in h_list)
    if len(spacings) < 3:
        raise ValueError("need at least three spacings")
    if any(b >= a for a, b in zip(spacings, spacings[1:])):
        raise ValueError("spacings must be strictly decreasing")
    if any(h <= 0 for h in spacings):
        raise ValueError("spacing h must be positive")
    for h in spacings:
        _finite("spacing h", h)
    _finite("df_true", df_true)
    named = list(named)
    totals = _column_sums([s for _, s in named], f, _finite("x0", x0), spacings)
    log_steps = [math.log(a / b) for a, b in zip(spacings, spacings[1:])]
    return (
        _report(formula_id, s.m, total, df_true, spacings, log_steps)
        for (formula_id, s), total in zip(named, totals)
    )


def _report(formula_id, m, total, df_true, spacings, log_steps) -> ConvergenceReport:
    errors = tuple([abs(t / h**m - df_true) for t, h in zip(total, spacings)])
    orders = tuple([
        (math.inf if e1 == 0.0 and e0 > 0.0 else math.nan)
        if e0 <= 0.0 or e1 <= 0.0
        # a ratio of 0 (the next error is inf, or e0 / e1 underflows) is -inf
        else (math.log(ratio) / step if (ratio := e0 / e1) != 0.0 else -math.inf)
        for e0, e1, step in zip(errors, errors[1:], log_steps)
    ])
    floor = next(
        (i for i in range(1, len(errors)) if errors[i] > 2.0 * errors[i - 1]), len(errors)
    )
    return ConvergenceReport(formula_id, spacings, errors, orders, floor)


def convergence_study(
    s: Stencil,
    f: Callable[[float], float],
    df_true: float,
    x0: float,
    h_list: Sequence[float] | Iterable[float],
    formula_id: str = "",
) -> ConvergenceReport:
    """:func:`convergence_studies` of one stencil, named ``formula_id`` or its provenance."""
    named = [(formula_id or s.provenance, s)]
    return next(convergence_studies(named, f, df_true, x0, h_list))
