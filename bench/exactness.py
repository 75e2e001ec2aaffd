"""Exactness gate: the stored reference and the checks of each workload's output.

``reference.json`` holds, per formula label, the family coefficients, error
constant, offsets and weights in canonical ``num/den`` form, plus one SHA-256
over every catalogue formula and its flattened stencil.  The checks parse the
command's own output, pick out only the lines and keys they need (so extra
output does not break them) and compare values ``Fraction``-equal to the
reference.  Each check returns ``(attempted, failed, messages)``.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

_STATUS_LINE = re.compile(r"^(PASS|FAIL) (\S+): (.*)$")
_ORDER = re.compile(r"\border (\d+)")
_ERROR_CONSTANT = re.compile(r"\berror constant (-?\d+(?:/\d+)?)")


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# the catalogue: every formula `verify-all --max-order N` checks


def catalog_formulas(max_order: int) -> list:
    """Every formula through ``max_order``, built with the public generators."""
    import fdcorr

    formulas = []
    for p in range(1, (max_order - 2) // 2 + 1):
        formulas.append(fdcorr.centered_formula(p))
        formulas.append(fdcorr.centered_average_formula(p))
        formulas.extend(fdcorr.interior_centered(p))
    for p in range(2, max_order + 1):
        formulas.append(fdcorr.forward_centered(p))
        formulas.append(fdcorr.backward_centered(p))
        formulas.append(fdcorr.standard_forward(p))
        formulas.append(fdcorr.standard_backward(p))
    return formulas


_FORMULA_KEYS = ("family", "m", "order", "error_constant", "base", "terms", "family_coefficients")
_STENCIL_KEYS = ("m", "order", "error_constant", "nodes")


def canonical(formula, stencil) -> dict:
    """The hashed projection of one formula: today's ``to_json_dict()`` keys.

    Only these keys are kept, so a later key added to either dict does not
    change the hash; a changed coefficient, node or weight does.
    """
    f = formula.to_json_dict()
    s = stencil.to_json_dict()
    return {
        "label": formula.label,
        "formula": {key: f[key] for key in _FORMULA_KEYS},
        "stencil": {key: s[key] for key in _STENCIL_KEYS},
    }


def digest(entries: list[dict]) -> str:
    ordered = sorted(entries, key=lambda entry: entry["label"])
    text = json.dumps(ordered, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def reference_entry(entry: dict) -> dict:
    """Reference record of one formula from its canonical projection."""
    nodes = entry["stencil"]["nodes"]
    return {
        "m": entry["stencil"]["m"],
        "order": entry["stencil"]["order"],
        "error_constant": entry["stencil"]["error_constant"],
        "coefficients": entry["formula"]["family_coefficients"],
        "offsets": [node["offset"] for node in nodes],
        "weights": [node["weight"] for node in nodes],
    }


def _same(a, b) -> bool:
    return Fraction(a) == Fraction(b)


def _same_list(a: list, b: list) -> bool:
    return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))


def compare_entry(label: str, got: dict, ref: dict) -> str | None:
    """First disagreement between two reference records, or None."""
    for key in ("m", "order"):
        if got[key] != ref[key]:
            return f"{label}: {key} {got[key]} != {ref[key]}"
    if not _same(got["error_constant"], ref["error_constant"]):
        return f"{label}: error constant {got['error_constant']} != {ref['error_constant']}"
    if not _same_list(got["offsets"], ref["offsets"]):
        return f"{label}: offsets differ"
    if not _same_list(got["weights"], ref["weights"]):
        return f"{label}: weights differ"
    if "coefficients" in got:
        a, b = got["coefficients"], ref["coefficients"]
        if a.keys() != b.keys() or not all(_same(a[k], b[k]) for k in a):
            return f"{label}: coefficients differ"
    return None


def check_catalog_exact(entries: list[dict], reference: dict) -> tuple[int, int, list[str]]:
    """Compare regenerated catalogue formulas label by label, then the hash."""
    expected = reference["catalog"]["labels"]
    messages = []
    got = {entry["label"]: entry for entry in entries}
    failed = 0
    for label in expected:
        if label not in got:
            problem = f"{label}: not generated"
        else:
            problem = compare_entry(label, reference_entry(got[label]), reference["formulas"][label])
        if problem:
            failed += 1
            messages.append(problem)
    if digest(entries) != reference["catalog"]["sha256"] and not failed:
        failed = 1
        messages.append("catalogue hash differs from the reference")
    return len(expected), failed, messages


# ---------------------------------------------------------------------------
# verify-all output


def check_verify_all(stdout: str, status, reference: dict) -> tuple[int, int, list[str]]:
    """One operation per catalogue formula: a PASS line whose order and error
    constant equal the reference.  Lines that are not PASS/FAIL are ignored."""
    expected = reference["catalog"]["labels"]
    seen: dict[str, list[str]] = {}
    for line in stdout.splitlines():
        match = _STATUS_LINE.match(line)
        if match:
            seen.setdefault(match.group(2), []).append(line)
    messages = []
    failed = 0
    for label in expected:
        lines = seen.pop(label, [])
        problem = None
        if len(lines) != 1:
            problem = f"{label}: {len(lines)} status lines"
        else:
            status_word, detail = _STATUS_LINE.match(lines[0]).group(1, 3)
            order = _ORDER.search(detail)
            constant = _ERROR_CONSTANT.search(detail)
            ref = reference["formulas"][label]
            if status_word != "PASS":
                problem = lines[0]
            elif not order or int(order.group(1)) != ref["order"]:
                problem = f"{label}: order differs from the reference"
            elif not constant or not _same(constant.group(1), ref["error_constant"]):
                problem = f"{label}: error constant differs from the reference"
        if problem:
            failed += 1
            messages.append(problem)
    if status != 0:
        messages.append(f"verify-all exited with {status}")
        failed = len(expected)
    if seen:
        messages.append("status lines outside the reference (not counted): " + ", ".join(sorted(seen)))
    return len(expected), failed, messages


# ---------------------------------------------------------------------------
# stencil JSON output


def _first_json_object(text: str):
    decoder = json.JSONDecoder()
    for match in re.finditer(r"^\{", text, re.MULTILINE):
        try:
            return decoder.raw_decode(text, match.start())[0]
        except json.JSONDecodeError:
            continue
    return None


def check_stencil(label: str, stdout: str, status, reference: dict) -> str | None:
    """Problem with one ``stencil <label>`` response, or None if exact."""
    if status != 0:
        return f"{label}: exit status {status}"
    data = _first_json_object(stdout)
    if not isinstance(data, dict):
        return f"{label}: no JSON stencil in the output"
    try:
        got = {
            "m": data["m"],
            "order": data["order"],
            "error_constant": data["error_constant"],
            "offsets": [node["offset"] for node in data["nodes"]],
            "weights": [node["weight"] for node in data["nodes"]],
        }
        return compare_entry(label, got, reference["formulas"][label])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"{label}: malformed stencil JSON ({exc!r})"


# ---------------------------------------------------------------------------
# study: CSVs checked against an independent float evaluation


def spacing_grid(h_max: float, h_min: float, factor: float) -> list[float]:
    """The geometric grid ``study`` is asked for: h_max down to h_min."""
    grid = []
    h = h_max
    while h >= h_min * (1.0 - 1e-12):
        grid.append(h)
        h /= factor
    return grid


def study_function(request: dict):
    """(u, u', bound on |u| as evaluated) for a study request's function."""
    if request["poly"]:
        poly = request["poly"]

        def u(x):
            return sum(c * x**d for d, c in poly)

        def du(x):
            return sum(c * d * x ** (d - 1) for d, c in poly if d)

        def size(x):
            return sum(abs(c) * abs(x) ** d for d, c in poly)

        return u, du, size
    omega = {"sin100pi": 100.0, "sin1000pi": 1000.0}[request["function"]] * math.pi
    return (lambda x: math.sin(omega * x)), (lambda x: omega * math.cos(omega * x)), (lambda x: 1.0)


def check_study_csv(label: str, text: str, request: dict, reference: dict) -> tuple[int, int, list[str]]:
    """One operation per grid spacing: a row whose error matches a plain
    ``sum w u(x0 + o h) / h^m`` from the reference weights.

    The allowance is ``8 (n+2) eps (||w||_1 max|u| / h^m + |u'(x0)|)``: a
    reordered sum stays inside it, while a wrong node or weight moves the
    result by about ``|dw| |u| / h^m`` or ``|w| |u'| |do| h / h^m``, far
    outside.  ``max|u|`` is over the samples, as a sum of term magnitudes
    for a polynomial.
    """
    grid = spacing_grid(request["h_max"], request["h_min"], request["h_factor"])
    ref = reference["formulas"][label]
    offsets = [float(Fraction(o)) for o in ref["offsets"]]
    weights = [float(Fraction(w)) for w in ref["weights"]]
    m = ref["m"]
    u, du, size = study_function(request)
    x0 = request["x0"]
    df = du(x0)
    allowance = 8.0 * (len(weights) + 2) * sys.float_info.epsilon
    norm = sum(abs(w) for w in weights)
    constant_size = request["poly"] is None
    rows = [line.split(",") for line in text.splitlines()[1:] if line.strip()]
    messages = []
    failed = 0
    if len(rows) != len(grid):
        messages.append(f"{label}: {len(rows)} rows for {len(grid)} spacings")
    for i, h_expected in enumerate(grid):
        try:
            h, error = float(rows[i][0]), float(rows[i][1])
        except (IndexError, ValueError):
            failed += 1
            continue
        xs = [x0 + o * h for o in offsets]
        approx = sum(w * u(x) for x, w in zip(xs, weights)) / h**m
        scale = 1.0 if constant_size else max(size(x) for x in xs)
        tol = allowance * (norm * scale / h**m + abs(df))
        if not math.isclose(h, h_expected, rel_tol=1e-12) or not abs(error - abs(approx - df)) <= tol:
            failed += 1
            if len(messages) < 3:
                messages.append(f"{label}: row {i} (h={h!r}) error {error!r}, expected {abs(approx - df)!r}")
    failed += max(0, len(rows) - len(grid))
    return max(len(grid), len(rows)), failed, messages
