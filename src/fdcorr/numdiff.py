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
summation the roundoff plateau at small spacing stays visible; a spacing too
small for rounding to keep every node's point apart is refused unsampled.

The rules of ``fdcorr study`` live here too: its sample functions, checked
to stay finite, its spacing grid and the text it writes.  Bad input raises
``ValueError``.  Every sum that reaches the text adds left to right, as
``sum`` did before Python 3.12 compensated float sums, so the text is the
same on every version.  The module opens no file.
"""

from __future__ import annotations

import math
import re
import warnings
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction

from . import _SINES
from .exactmath import Rational, node_sum
from .stencil import Stencil

__all__ = [
    "ConvergenceReport",
    "apply_stencil",
    "convergence_studies",
]

# Longest spacing grid ``study`` accepts.
_MAX_SPACINGS = 100_000


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
                # level 3 is the caller of apply_stencil or convergence_studies
                warnings.warn(f"nonfinite sample {value!r} at x = {x!r} (offset {exact})",
                              RuntimeWarning, stacklevel=3)
            totals[k] = [t + weight * v for t, v in zip(totals[k], column)]
    return totals


def _require_resolution(offsets: Iterable[Rational], x0: float, h: float) -> None:
    """Raise unless distinct ``offsets`` sample distinct points at every spacing from ``h`` up."""
    # keyed by ratio, since hashing a Fraction runs Python code
    offsets = sorted({o.as_integer_ratio(): o for o in offsets}.values())
    floor = 2**-53 * 2.01 * abs(x0) + 2**-1073
    for a, b in zip(offsets, offsets[1:]):
        # x0 + float(o)*h is within u|x0| + 3u|o|h + 2*2**-1075 of x0 + o*h, u = 2**-53: the
        # offset's, product's and sum's rounding (Higham, Accuracy and Stability of Numerical
        # Algorithms, 2nd ed., 2.2).  A gap (b - a)h past both bounds keeps a < b apart and
        # outgrows them as h grows; 2.01 and 3.01 cover this test's own rounding, and
        # scaling by u first keeps the bound finite, leaving overflow to the samples.
        if not float(b - a) * h > floor + 2**-53 * 3.01 * float(abs(a) + abs(b)) * h:
            raise ValueError(f"offsets {a} and {b} may round to one point "
                             f"at x0 = {x0!r} and spacing h = {h!r}")


class ConvergenceReport(namedtuple(
    "ConvergenceReport", "formula_id spacings abs_errors observed_orders roundoff_floor_index"
)):
    """Errors of one stencil over a decreasing spacing grid.

    ``spacings``, ``abs_errors`` and ``observed_orders`` are tuples of
    floats.  ``observed_orders[i]`` is the pairwise slope between spacings
    ``i`` and ``i + 1``, ``-inf`` where error ``i + 1`` is infinite and error
    ``i`` is not.  ``roundoff_floor_index`` flags where errors stop behaving:
    the first index whose error grew by more than a factor of two over its
    predecessor (``len(spacings)`` when that never happens); entries from
    there on say nothing about the formula's order.
    """

    __slots__ = ()

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
        x_mean = _total(xs) / len(xs)
        y_mean = _total(ys) / len(ys)
        sxx = _total((x - x_mean) ** 2 for x in xs)
        sxy = _total((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
        return sxy / sxx

    def min_error(self) -> float:
        return min(self.abs_errors)


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
    and ``x0`` and ``df_true`` finite.  Two neighbouring offsets whose points
    a rounding bound cannot keep apart at every spacing fail too, and the call
    raises before any sample.  It samples each distinct node offset once per
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
    named, x0 = list(named), _finite("x0", x0)
    _require_resolution((o for _, s in named for o in s.offsets), x0, spacings[-1])
    totals = _column_sums([s for _, s in named], f, x0, spacings)
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


def _total(values: Iterable[float]) -> float:
    """``sum(values)`` of floats, added left to right on every Python version."""
    total = 0.0
    for value in values:
        total += value
    return total


def _parse_polynomial(text: str) -> dict[int, float]:
    """Parse ``x^3``, ``2x^4-3x+1`` style bodies into {degree: coefficient}."""
    body = text.replace(" ", "").replace("**", "^").replace("*", "")
    if not body:
        raise ValueError("empty polynomial")
    # Split before each sign but a leading one: a stray sign is a term that fails.
    terms = re.split(r"(?<=.)(?=[+-])", body)
    poly: dict[int, float] = {}
    for term in terms:
        match = re.fullmatch(r"([+-]?)(\d+(?:\.\d+)?|\d+/\d+)?(x(?:\^(\d+))?)?", term)
        if not match or (match.group(2) is None and match.group(3) is None):
            raise ValueError(f"cannot parse polynomial term {term!r}")
        sign, coeff_text, power, degree_text = match.groups()
        try:
            coeff = float(Fraction(coeff_text)) if coeff_text else 1.0
            degree = int(degree_text) if degree_text else int(power is not None)
            float(degree)  # the derivative's coefficient is ``coeff * degree``
        except (ZeroDivisionError, OverflowError, ValueError):
            # a zero denominator, a number past float range or past int's digit limit
            raise ValueError(f"cannot parse polynomial term {term!r}") from None
        poly[degree] = poly.get(degree, 0.0) + (-coeff if sign == "-" else coeff)
    return poly


def _checked(name: str, f: Callable[[float], float]) -> Callable[[float], float]:
    """``f``, raising ``ValueError`` wherever it overflows a float."""

    def evaluate(x: float) -> float:
        try:
            if math.isfinite(value := f(x)):
                return value
        except (OverflowError, ValueError):  # ``x**d`` past float range, ``sin(inf)``
            pass
        raise ValueError(f"function {name!r} overflows at x = {x!r}")

    return evaluate


def _polynomial(terms: list[tuple[int, float]]) -> Callable[[float], float]:
    """``x -> sum c * x**d`` over ``(d, c)`` in ``terms``, added in their order."""

    def evaluate(x: float) -> float:
        total = 0.0
        for d, c in terms:
            total += c * x**d
        return total

    return evaluate


def _resolve_function(name: str) -> tuple[Callable, Callable]:
    """(u, u') for a study function id, each through :func:`_checked`."""
    if name.startswith("poly:"):
        terms = sorted(_parse_polynomial(name[len("poly:") :]).items())
        pair = (_polynomial(terms), _polynomial([(d - 1, c * d) for d, c in terms if d]))
    elif (omega := _SINES.get(name)) is not None:
        pair = (lambda x: math.sin(omega * x), lambda x: omega * math.cos(omega * x))
    else:
        expected = ", ".join(_SINES)
        raise ValueError(f"unknown function id {name!r} (expected {expected}, or poly:...)")
    return _checked(name, pair[0]), _checked(name, pair[1])


def _study_input(function, x0, h_max, h_min, factor) -> tuple[Callable, float, list]:
    """``(u, u'(x0), spacings)`` of a ``fdcorr study`` request, or its first bad input raised."""
    u, du = _resolve_function(function)
    for name, value in (("x0", x0), ("--h-max", h_max), ("--h-min", h_min), ("--h-factor", factor)):
        _finite(name, value)
    if h_max <= 0 or h_min <= 0 or h_max < h_min:
        raise ValueError("need 0 < h-min <= h-max")
    if factor <= 1.0:
        raise ValueError("h-factor must exceed 1")
    # Size the grid before building it: a factor just above 1 or a huge
    # h-max/h-min ratio would otherwise allocate millions of spacings.
    if (math.log(h_max) - math.log(h_min)) / math.log(factor) >= _MAX_SPACINGS:
        raise ValueError(
            f"spacing grid from {h_max} to {h_min} by factor {factor} "
            f"has more than {_MAX_SPACINGS} spacings"
        )
    grid, h = [], h_max
    while h >= h_min * (1.0 - 1e-12):
        grid.append(h)
        if (h := h / factor) == grid[-1]:  # among subnormals h / factor can round to h
            raise ValueError(f"spacing grid stops shrinking at {h}: h / {factor} rounds to h")
    if len(grid) < 3:
        raise ValueError("spacing grid has fewer than 3 points")
    return u, du(x0), grid


def _csv_texts(reports: Iterable[ConvergenceReport], grid) -> Iterator[tuple[str, str]]:
    """Each report's CSV text and summary line, built as iterated."""
    h_texts = [*map(repr, grid)]  # once per request: every report shares the grid
    for report in reports:
        errors = report.abs_errors
        rows = [f"h,abs_error,observed_order\n{h_texts[0]},{errors[0]!r},\n"]
        rows += [f"{h},{e!r},{o!r}\n"
                 for h, e, o in zip(h_texts[1:], errors[1:], report.observed_orders)]
        fitted = report.fitted_order()
        fitted_text = "n/a" if math.isnan(fitted) else f"{fitted:.2f}"
        yield "".join(rows), f"fitted order {fitted_text}, min error {report.min_error():.3e}"


def _gnuplot_script(ids: Sequence[str]) -> str:
    """A script plotting each id's CSV, written beside them."""
    plots = ", ".join(f"'{i}.csv' using 1:2 with linespoints title '{i}'" for i in ids)
    return ("set datafile separator ','\nset logscale xy\nset xlabel 'h'\n"
            "set ylabel 'absolute error'\nset format y '%.0e'\nset key left top\n"
            f"plot {plots}\n")
