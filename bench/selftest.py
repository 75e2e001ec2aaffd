"""Self-test of the benchmark's checker and tracer: ``python3 bench/run.py --self-test``.

- The exactness checks must pass the program's real output, ignore extra
  lines, and count one altered weight, error constant or float row as a
  failure in ``failed_share``.
- The tracer must see every binding: ``verify-all --max-order 6`` traced
  in-process must give exactly the call counts derived below from the code.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import exactness
import tracing
import workloads

TRACE_MAX_ORDER = 6


def expected_calls(n: int) -> dict[str, int]:
    """Calls ``verify-all --max-order n`` makes to each public function.

    Centred families C, CA and IC (derivative and value) run for p = 1..P
    with p correction words each; the four one-sided families run for
    p = 2..n with p - 1 each.  Every formula expands its seed and each word
    twice (once for its series, once to flatten), and is verified twice
    (inside ``flatten`` and again by the command).
    """
    centred = range(1, (n - 2) // 2 + 1)
    one_sided = range(2, n + 1)
    formulas = 4 * len(centred) + 4 * len(one_sided)
    series = formulas + sum(4 * p for p in centred) + sum(4 * (p - 1) for p in one_sided)
    words = sum(4 * (p + 1) for p in centred) + sum(4 * p for p in one_sided)
    calls = {
        "cli.main": 1,
        "defcor.general_defcor": formulas,
        "taylorseries.default_truncation": formulas,
        "taylorseries.error_series": series,
        "taylorseries.series_from_nodes": series,
        "gridops.expand": 2 * series,
        "gridops.word": words,
        "stencil.flatten": formulas,
        "stencil.verify": 2 * formulas,
        "stencil.oracle_weights": formulas,
        "exactmath.format_rational": formulas,
    }
    for family in ("centered_formula", "centered_average_formula", "interior_centered"):
        calls[f"defcor.{family}"] = len(centred)
    for family in ("forward_centered", "backward_centered", "standard_forward", "standard_backward"):
        calls[f"defcor.{family}"] = len(one_sided)
    return calls


class _Run:
    def __init__(self, reference: dict, workdir: Path | None = None, inputs: dict | None = None):
        self.reference = reference
        self.workdir = workdir
        self.inputs = inputs or {}


def _stencil_json(entry: dict, weights: list[str]) -> str:
    nodes = [{"offset": o, "weight": w} for o, w in zip(entry["offsets"], weights)]
    return json.dumps({"m": entry["m"], "order": entry["order"], "error_constant": entry["error_constant"],
                       "nodes": nodes}, indent=2)


def _altered(values: list[str], index: int) -> list[str]:
    out = list(values)
    out[index] = str(Fraction(out[index]) * Fraction(1001, 1000))
    return out


def check_stencil_gate(reference: dict) -> None:
    label = "C40"
    entry = reference["formulas"][label]
    good = "a line printed before the stencil\n" + _stencil_json(entry, entry["weights"]) + "\ntrailing line\n"
    bad = _stencil_json(entry, _altered(entry["weights"], 3))
    result = {"samples": [{"label": label, "stdout": out, "status": 0, "error": None} for out in (good, bad)]}
    attempted, failed, messages = workloads.check_deep(_Run(reference), result)
    assert (attempted, failed) == (2, 1), (attempted, failed, messages)
    assert "weights differ" in messages[0], messages


def check_verify_all_gate(reference: dict) -> None:
    labels = reference["catalog"]["labels"]
    lines = [f"PASS {label}: pass: order {reference['formulas'][label]['order']}, error constant "
             f"{reference['formulas'][label]['error_constant']}" for label in labels]
    good = "\n".join(["a header line", *lines, "checked everything"])
    assert exactness.check_verify_all(good, 0, reference)[1] == 0
    constant = Fraction(reference["formulas"][labels[5]]["error_constant"]) + Fraction(1, 10**9)
    lines[5] = f"PASS {labels[5]}: pass: order {reference['formulas'][labels[5]]['order']}, error constant {constant}"
    attempted, failed, _ = exactness.check_verify_all("\n".join(lines), 0, reference)
    assert (attempted, failed) == (len(labels), 1), (attempted, failed)


def check_catalog_hash(reference: dict) -> None:
    import fdcorr

    entries = [exactness.canonical(f, fdcorr.flatten(f))
               for f in exactness.catalog_formulas(reference["catalog"]["max_order"])]
    assert exactness.check_catalog_exact(entries, reference)[1] == 0, "catalogue differs from the reference"
    nodes = entries[7]["stencil"]["nodes"]
    nodes[0]["weight"] = str(Fraction(nodes[0]["weight"]) * 2)
    assert exactness.check_catalog_exact(entries, reference)[1] == 1


def check_study_gate(reference: dict, workdir: Path) -> None:
    """A CSV built with the opposite summation order passes; one built with
    one weight off by 0.1% fails on every row; a missing row fails."""
    request = workloads.study_requests(random.Random(3))[0]
    label = "IC8"
    entry = reference["formulas"][label]
    offsets = [float(Fraction(o)) for o in entry["offsets"]]
    u, du, _ = exactness.study_function(request)
    df = du(request["x0"])
    grid = exactness.spacing_grid(request["h_max"], request["h_min"], request["h_factor"])

    def csv(weights: list[str], rows: int) -> str:
        w = [float(Fraction(x)) for x in weights]
        lines = ["h,abs_error,observed_order"]
        for h in grid[:rows]:
            total = 0.0
            for o, wt in reversed(list(zip(offsets, w))):
                total += wt * u(request["x0"] + o * h)
            lines.append(f"{h!r},{abs(total / h ** entry['m'] - df)!r},")
        return "\n".join(lines) + "\n"

    ok = exactness.check_study_csv(label, csv(entry["weights"], len(grid)), request, reference)
    assert ok[1] == 0, ok
    bad = exactness.check_study_csv(label, csv(_altered(entry["weights"], 2), len(grid)), request, reference)
    assert bad[1] == len(grid), bad[:2]
    short = exactness.check_study_csv(label, csv(entry["weights"], len(grid) - 1), request, reference)
    assert short[1] == 1, short[:2]

    # the same, through the workload's accounting of a whole request
    inputs = {"requests": [request]}
    sample_dir = workdir / "study-0"
    sample_dir.mkdir(parents=True)
    for other in workloads.STUDY_IDS:
        (sample_dir / f"{other}.csv").write_text(csv(entry["weights"], len(grid)) if other == label else "")
    result = {"samples": [{"index": 0, "status": 0, "error": None, "seconds": 1.0}]}
    attempted, failed, _ = workloads.check_study(_Run(reference, workdir, inputs), result)
    assert attempted == len(workloads.STUDY_IDS) * len(grid), attempted
    assert failed == attempted - len(grid), failed
    assert math.isclose(failed / attempted, 1 - 1 / len(workloads.STUDY_IDS))


def check_tracer() -> None:
    import fdcorr.cli

    tracer = tracing.Tracer()
    names = tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            status = fdcorr.cli.main(["verify-all", "--max-order", str(TRACE_MAX_ORDER)])
    finally:
        tracer.uninstall()
    assert status == 0
    summary = tracer.summary()
    expected = expected_calls(TRACE_MAX_ORDER)
    assert set(expected) <= set(names), sorted(set(expected) - set(names))
    assert summary["calls"] == expected, {
        name: (summary["calls"].get(name), expected.get(name))
        for name in set(summary["calls"]) | set(expected)
        if summary["calls"].get(name) != expected.get(name)
    }
    layers = tracing.per_layer(summary, 0.0)
    assert layers["defcor.truncation_used_share"][0] == 0.5
    assert layers["stencil.verify.per_formula"][0] == 2.0
    # uninstall restores every binding
    assert fdcorr.cli.verify is fdcorr.stencil.verify and not hasattr(fdcorr.stencil.verify, "span_name")


def main(root: Path) -> int:
    import tempfile

    sys.path.insert(0, str(root / "src"))
    import fdcorr

    if (root / "src").resolve() not in Path(fdcorr.__file__).resolve().parents:
        raise SystemExit(f"fdcorr resolved to {fdcorr.__file__}, not under {root / 'src'}")
    reference = exactness.load_reference()
    checks = [
        ("stencil JSON gate", lambda: check_stencil_gate(reference)),
        ("verify-all gate", lambda: check_verify_all_gate(reference)),
        ("catalogue hash", lambda: check_catalog_hash(reference)),
        ("tracer call counts", check_tracer),
    ]
    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        checks.append(("study float gate", lambda: check_study_gate(reference, Path(workdir))))
        for name, check in checks:
            check()
            print(f"ok {name}")
    return 0
