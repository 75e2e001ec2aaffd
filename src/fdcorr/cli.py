"""Command-line interface: coefficient tables, stencils, convergence studies.

Formula ids come in a short form, a family prefix plus accuracy order
(``B6``, ``BC10``, ``IC6``, ``C8``), and a long form naming the family
parameter directly (``centered:p=3``).  :data:`fdcorr.defcor.FAMILIES` lists
every family with its prefix and aliases.  Centered families only exist at
even orders.

Interior-centered formulas approximate at the midpoint of an interval whose
endpoints are their widest nodes; for ``study`` the given ``x0`` is that
midpoint and the interval endpoints follow from the spacing.

Commands: ``coeffs``, ``stencil``, ``study``, ``verify-all``.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .defcor import FAMILIES, CorrectionFormula, Family, catalog, family_named
from .exactmath import Rational, format_rational
from .numdiff import convergence_studies
from .stencil import FlattenError, flatten, oracle_weights, verify

__all__ = ["main", "console_main", "parse_formula_id", "formula_from_id"]

# Longest spacing grid ``study`` accepts.
_MAX_SPACINGS = 100_000
# Highest accuracy order any command builds (order 200 takes seconds).
MAX_ORDER = 200
# The sine study functions, ``sin(omega x)``, by name.
_SINES = {"sin100pi": 100.0 * math.pi, "sin1000pi": 1000.0 * math.pi}


class FormulaIdError(ValueError):
    pass


def _check_order(order: int, context: str) -> None:
    if order > MAX_ORDER:
        raise FormulaIdError(f"{context}: order {order} is above the cap {MAX_ORDER}")


def _check_param(family: Family, p: int, context: str) -> None:
    if p < family.min_p:
        raise FormulaIdError(f"{context}: {family.name} needs p >= {family.min_p}")
    _check_order(family.order(p), context)


def _number(digits: str, context: str) -> int:
    # A number with more digits than the cap is above it, and never reaches
    # ``int``, whose digit limit the environment can lower.
    digits = digits.lstrip("0") or "0"
    width = len(str(MAX_ORDER))
    if len(digits) > width:
        raise FormulaIdError(
            f"{context}: order of more than {width} digits is above the cap {MAX_ORDER}"
        )
    return int(digits)


def parse_formula_id(formula_id: str) -> tuple[str, int]:
    """Parse an id to ``(family, p)`` where ``p`` is the family parameter."""
    text = formula_id.strip()
    if long_form := re.fullmatch(r"([a-z-]+):p=(\d+)", text, re.IGNORECASE):
        family = family_named(long_form.group(1))
        if family is None:
            raise FormulaIdError(f"unknown family in {formula_id!r}")
        p = _number(long_form.group(2), repr(formula_id))
    elif short := re.fullmatch(r"([A-Za-z]+)(\d+)", text):
        family = next((f for f in FAMILIES if f.prefix == short.group(1).upper()), None)
        if family is None:
            raise FormulaIdError(f"unknown family prefix in {formula_id!r}")
        p = family.param(_number(short.group(2), repr(formula_id)))
        if p is None:
            orders = "even orders" if family.centered else "orders"
            lowest = family.order(family.min_p)
            raise FormulaIdError(
                f"{formula_id!r}: {family.name} formulas exist at {orders} >= {lowest}"
            )
    else:
        raise FormulaIdError(f"cannot parse formula id {formula_id!r}")
    _check_param(family, p, repr(formula_id))
    return family.name, p


def formula_from_id(formula_id: str) -> CorrectionFormula:
    name, p = parse_formula_id(formula_id)
    return family_named(name).build(p)[0]


def _json_dumps(obj: dict) -> str:
    import json

    return json.dumps(obj, indent=2, sort_keys=False)


# ---------------------------------------------------------------------------
# coeffs


def cmd_coeffs(args: argparse.Namespace) -> int:
    family = family_named(args.family)
    if family is None:
        raise FormulaIdError(f"unknown family {args.family!r}")
    p = args.p
    _check_param(family, p, "coeffs")
    # A family's build may yield a derivative and a value formula together;
    # they print as one table and one JSON object.
    formulas = family.build(p)
    roles = ("value", "derivative")
    if args.json:
        if len(formulas) == 1:
            payload = formulas[0].to_json_dict()
        else:
            payload = {roles[f.m]: f.to_json_dict() for f in formulas}
        print(_json_dumps(payload))
        return 0
    merged: dict[int, Rational] = {}
    for formula in formulas:
        merged.update(formula.family_coefficients)
    print(f"{family.name} coefficients, p={p} (order {formulas[0].order})")
    items = sorted(merged.items())
    print("  ".join(f"{f'i={i}':>14}" for i, _ in items))
    print("  ".join(f"{format_rational(v):>14}" for _, v in items))
    if len(formulas) == 1:
        print(f"error constant: {format_rational(formulas[0].error_constant)}")
    else:
        constants = ", ".join(
            f"{roles[f.m]} {format_rational(f.error_constant)}" for f in formulas
        )
        print(f"error constants: {constants}")
    return 0


# ---------------------------------------------------------------------------
# stencil


def cmd_stencil(args: argparse.Namespace) -> int:
    formula = formula_from_id(args.formula_id)
    st = flatten(formula)
    print(_json_dumps(st.to_json_dict()))
    return 0


# ---------------------------------------------------------------------------
# study


def _parse_polynomial(text: str) -> dict[int, float]:
    """Parse ``x^3``, ``2x^4-3x+1`` style bodies into {degree: coefficient}."""
    body = text.replace(" ", "").replace("**", "^").replace("*", "")
    if not body:
        raise FormulaIdError("empty polynomial")
    # Split before each sign but a leading one: a stray sign is a term that fails.
    terms = re.split(r"(?<=.)(?=[+-])", body)
    poly: dict[int, float] = {}
    for term in terms:
        match = re.fullmatch(r"([+-]?)(\d+(?:\.\d+)?|\d+/\d+)?(x(?:\^(\d+))?)?", term)
        if not match or (match.group(2) is None and match.group(3) is None):
            raise FormulaIdError(f"cannot parse polynomial term {term!r}")
        sign, coeff_text, power, degree_text = match.groups()
        try:
            coeff = float(Fraction(coeff_text)) if coeff_text else 1.0
            degree = int(degree_text) if degree_text else int(power is not None)
            float(degree)  # the derivative's coefficient is ``coeff * degree``
        except (ZeroDivisionError, OverflowError, ValueError):
            # a zero denominator, a number past float range or past int's digit limit
            raise FormulaIdError(f"cannot parse polynomial term {term!r}") from None
        poly[degree] = poly.get(degree, 0.0) + (-coeff if sign == "-" else coeff)
    return poly


def _polynomial(name: str, poly: Mapping[int, float]) -> Callable[[float], float]:
    terms = sorted(poly.items())

    def evaluate(x: float) -> float:
        try:
            value = sum([c * x**d for d, c in terms])
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise FormulaIdError(f"function {name!r} overflows at x = {x!r}")
        return value

    return evaluate


def _resolve_function(name: str) -> tuple[Callable[[float], float], Callable[[float], float]]:
    """Return (u, u') for a study function id."""
    if name.startswith("poly:"):
        poly = _parse_polynomial(name[len("poly:") :])
        derivative = {d - 1: c * d for d, c in poly.items() if d}
        return _polynomial(name, poly), _polynomial(name, derivative)
    if (omega := _SINES.get(name)) is None:
        raise FormulaIdError(
            f"unknown function id {name!r} (expected {', '.join(_SINES)}, or poly:...)"
        )
    return (lambda x: math.sin(omega * x)), (lambda x: omega * math.cos(omega * x))


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise FormulaIdError(f"{name} must be finite, got {value}")


def _spacing_grid(h_max: float, h_min: float, factor: float) -> list[float]:
    for name, value in (("--h-max", h_max), ("--h-min", h_min), ("--h-factor", factor)):
        _require_finite(name, value)
    if h_max <= 0 or h_min <= 0 or h_max < h_min:
        raise FormulaIdError("need 0 < h-min <= h-max")
    if factor <= 1.0:
        raise FormulaIdError("h-factor must exceed 1")
    # Size the grid before building it: a factor just above 1 or a huge
    # h-max/h-min ratio would otherwise allocate millions of spacings.
    if (math.log(h_max) - math.log(h_min)) / math.log(factor) >= _MAX_SPACINGS:
        raise FormulaIdError(
            f"spacing grid from {h_max} to {h_min} by factor {factor} "
            f"has more than {_MAX_SPACINGS} spacings"
        )
    grid = []
    h = h_max
    while h >= h_min * (1.0 - 1e-12):
        grid.append(h)
        h /= factor
    if len(grid) < 3:
        raise FormulaIdError("spacing grid has fewer than 3 points")
    return grid


_GNUPLOT_HEADER = """\
set datafile separator ','
set logscale xy
set xlabel 'h'
set ylabel 'absolute error'
set format y '%.0e'
set key left top
"""


def cmd_study(args: argparse.Namespace) -> int:
    ids = [part.strip() for part in args.formula_ids.split(",") if part.strip()]
    if not ids:
        raise FormulaIdError("no formula ids given")
    u, du = _resolve_function(args.function)
    _require_finite("x0", args.x0)
    grid = _spacing_grid(args.h_max, args.h_min, args.h_factor)
    x0 = args.x0
    df_true = du(x0)
    # Every id builds before any sample is taken or any CSV written.
    named = [(formula_id, flatten(formula_from_id(formula_id))) for formula_id in ids]
    # This call takes every sample, so a sample that fails leaves no directory.
    reports = convergence_studies(named, u, df_true, x0, grid)
    csv_dir = Path(args.csv_dir)
    lines: list[str] = []
    try:
        csv_dir.mkdir(parents=True, exist_ok=True)
        for report in reports:
            path = csv_dir / f"{report.formula_id}.csv"
            report.write_csv(path)
            fitted = report.fitted_order()
            fitted_text = "n/a" if math.isnan(fitted) else f"{fitted:.2f}"
            lines.append(
                f"{report.formula_id}: fitted order {fitted_text}, "
                f"min error {report.min_error():.3e}, csv {path}"
            )
        if args.gnuplot:
            script = csv_dir / "study.gp"
            plots = ", ".join(
                f"'{formula_id}.csv' using 1:2 with linespoints title '{formula_id}'"
                for formula_id in ids
            )
            script.write_text(_GNUPLOT_HEADER + f"plot {plots}\n")
    except OSError as exc:
        message = f"cannot write to --csv-dir {args.csv_dir!r}: {exc.strerror}"
        raise FormulaIdError(message) from exc
    for line in lines:
        print(line)
    if args.gnuplot:
        print(f"gnuplot script: {script}")
    return 0


# ---------------------------------------------------------------------------
# verify-all


def cmd_verify_all(args: argparse.Namespace) -> int:
    _check_order(args.max_order, "--max-order")
    checked = failures = 0
    for formula in catalog(args.max_order):
        checked += 1
        try:
            st = flatten(formula)
        except FlattenError as exc:
            print(f"FAIL {formula.label or formula.family}: {exc}")
            failures += 1
            continue
        check = verify(st)
        reference = oracle_weights(st.offsets, st.m, st.order)
        matches = list(st.weights) == reference
        ok = check.ok and matches
        status = "PASS" if ok else "FAIL"
        detail = check.summary()
        if not matches:
            detail += "; weights disagree with the moment-system solution"
        print(f"{status} {st.provenance}: {detail}")
        failures += 0 if ok else 1
    if not checked:
        raise FormulaIdError(f"--max-order {args.max_order} selects no formula")
    print(f"checked {checked} formulas, {failures} failed")
    if failures:
        print(f"{failures} formula(s) failed verification", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser wiring


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process: parsing leaves the parser unchanged, and every
    # parser holds about 190 objects in reference cycles that only the
    # cyclic collector frees.
    parser = argparse.ArgumentParser(
        prog="fdcorr",
        description="Finite-difference formulas by iterated error-series correction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    coeffs = sub.add_parser("coeffs", help="print a family's exact coefficient table")
    coeffs.add_argument(
        "family", help=" | ".join(f.name for f in FAMILIES) + ", or an alias"
    )
    coeffs.add_argument("p", type=int, help="family parameter")
    coeffs.add_argument("--json", action="store_true", help="emit JSON output")
    coeffs.set_defaults(func=cmd_coeffs)

    stencil_cmd = sub.add_parser("stencil", help="flatten a formula id to a JSON stencil")
    stencil_cmd.add_argument("formula_id", help="e.g. B6, BC10, IC6, C8, centered:p=3")
    stencil_cmd.set_defaults(func=cmd_stencil)

    study = sub.add_parser("study", help="convergence study on a decreasing h grid")
    study.add_argument("formula_ids", help="comma-separated formula ids")
    study.add_argument("function", help=" | ".join([*_SINES, "poly:<expr>"]))
    study.add_argument("x0", type=float, help="evaluation point")
    study.add_argument("--csv-dir", default=".", help="directory for CSV output")
    study.add_argument("--h-max", type=float, default=0.01, help="largest spacing")
    study.add_argument(
        "--h-min", type=float, default=0.01 * 2.0**-14, help="smallest spacing"
    )
    study.add_argument(
        "--h-factor", type=float, default=2.0, help="spacing reduction factor"
    )
    study.add_argument(
        "--gnuplot", action="store_true", help="write a plot script beside the CSVs"
    )
    study.set_defaults(func=cmd_study)

    verify_all = sub.add_parser(
        "verify-all", help="regenerate, flatten, and cross-check every family"
    )
    verify_all.add_argument(
        "--max-order", type=int, default=12, help="largest accuracy order to check"
    )
    verify_all.set_defaults(func=cmd_verify_all)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormulaIdError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except ValueError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
