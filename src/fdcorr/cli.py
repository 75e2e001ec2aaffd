"""Command-line interface: coefficient tables, stencils, convergence studies.

Formula ids come in a short form, a family prefix plus accuracy order
(``B6``, ``BC10``, ``IC6``, ``C8``), and a long form naming the family
parameter directly (``centered:p=3``).  :data:`fdcorr.defcor.FAMILIES` lists
every family with its prefix and aliases.  Centered families only exist at
even orders.

Interior-centered formulas approximate at the midpoint of an interval whose
endpoints are their widest nodes; for ``study`` the given ``x0`` is that
midpoint and the interval endpoints follow from the spacing.

Commands: ``coeffs``, ``stencil``, ``verify-all``, ``study`` (its rules: :mod:`fdcorr.numdiff`).
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from collections.abc import Sequence

from . import _SINES
from .defcor import FAMILIES, CorrectionFormula, Family, catalog, family_named
from .exactmath import Rational, format_rational
from .stencil import FlattenError, Stencil, flatten, oracle_weights, verify

__all__ = ["main", "console_main", "parse_formula_id", "formula_from_id"]

# Highest accuracy order any command builds (order 200 takes seconds).
MAX_ORDER = 200


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
        family = family_named(short.group(1))
        if family is None or family.prefix != short.group(1).upper():
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
    return family_named(name).formula(p)


def _json_dumps(obj: object, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` for the payloads ``stencil`` and ``coeffs --json`` print.

    Writes dicts with ``str`` keys, lists, ``str`` and ``int``, so no command
    imports :mod:`json`, whose indenting encoder leaves reference cycles
    behind.  A string is written only if ``json`` writes it verbatim
    (printable ASCII without ``"`` or ``\\``); any other string or type
    raises ``TypeError``.  ``pad`` starts each line of the enclosing level.
    """
    kind = type(obj)
    if kind is int:
        return repr(obj)
    if kind is str and obj.isascii() and obj.isprintable() and '"' not in obj and "\\" not in obj:
        return f'"{obj}"'
    inner = pad + "  "
    if kind is list:
        items = [_json_dumps(item, inner) for item in obj]
    elif kind is dict and all(type(key) is str for key in obj):
        items = [f"{_json_dumps(key)}: {_json_dumps(value, inner)}" for key, value in obj.items()]
    else:
        raise TypeError(f"cannot write {obj!r} as JSON verbatim")
    brackets = "[]" if kind is list else "{}"
    if not items:
        return brackets
    return f"{brackets[0]}{inner}{f',{inner}'.join(items)}{pad}{brackets[1]}"


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
    st = flatten(formula_from_id(args.formula_id))
    print(_json_dumps(st.to_json_dict()))
    return 0


# ---------------------------------------------------------------------------
# study


def cmd_study(args: argparse.Namespace) -> int:
    # Only ``study`` evaluates in floats and writes files; ``import fdcorr.cli`` skips both.
    from pathlib import Path

    from . import numdiff

    ids = [part.strip() for part in args.formula_ids.split(",") if part.strip()]
    if not ids:
        raise FormulaIdError("no formula ids given")
    # Each id writes its own CSV, so a formula given twice is refused, under
    # any spelling: ``C4.csv`` and ``c4.csv`` are one file on some file systems.
    firsts: dict[tuple[str, int], str] = {}
    for formula_id in ids:
        first = firsts.get(key := parse_formula_id(formula_id))
        if first == formula_id:
            raise FormulaIdError(f"formula id {formula_id!r} is given more than once")
        if first is not None:
            raise FormulaIdError(f"formula id {formula_id!r} names the same formula as {first!r}")
        firsts[key] = formula_id
    try:
        u, df_true, grid = numdiff._study_input(args.function, args.x0, args.h_max,
                                                args.h_min, args.h_factor)
    except ValueError as exc:
        raise FormulaIdError(str(exc)) from exc
    # Every id builds before any sample is taken or any CSV written.  Ids whose
    # stencils are equal (FC<p> and BC<p>, C<n> and IC<n>) share one report:
    # the first id of each group stands for all of them.
    groups: dict[tuple, tuple[Stencil, list[str]]] = {}
    for formula_id in ids:
        s = flatten(formula_from_id(formula_id))
        groups.setdefault((s.m, s.offsets, s.weights), (s, []))[1].append(formula_id)
    # This call takes every sample, so a sample that fails leaves no directory.
    named = [(group[0], s) for s, group in groups.values()]
    try:
        reports = numdiff.convergence_studies(named, u, df_true, args.x0, grid)
    except ValueError as exc:  # two nodes sample one point, or a sample overflows
        raise FormulaIdError(str(exc)) from exc
    csv_dir = Path(args.csv_dir)
    lines: dict[str, str] = {}
    try:
        csv_dir.mkdir(parents=True, exist_ok=True)
        for (text, summary), (_, group) in zip(numdiff._csv_texts(reports, grid), groups.values()):
            for formula_id in group:
                path = csv_dir / f"{formula_id}.csv"
                path.write_text(text, newline="")
                lines[formula_id] = f"{formula_id}: {summary}, csv {path}"
        if args.gnuplot:
            script = csv_dir / "study.gp"
            script.write_text(numdiff._gnuplot_script(ids))
    except OSError as exc:
        message = f"cannot write to --csv-dir {args.csv_dir!r}: {exc.strerror}"
        raise FormulaIdError(message) from exc
    for formula_id in ids:
        print(lines[formula_id])
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
    names = " | ".join(f.name for f in FAMILIES)
    coeffs.add_argument("family", help=f"{names}, or a prefix or alias")
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
