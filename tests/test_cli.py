"""Command-line surface: parsing, tables, stencil export, studies."""

import gc
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import fdcorr
from fdcorr.cli import (
    MAX_ORDER,
    FormulaIdError,
    _json_dumps,
    formula_from_id,
    main,
    parse_formula_id,
)
from fdcorr.defcor import FAMILIES, catalog, family_named
from fdcorr.numdiff import _resolve_function, convergence_studies
from fdcorr.stencil import FlattenError, flatten
from test_numdiff import STUDY_IDS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_process(*argv, preexec_fn=None, **env):
    """Run ``python -m fdcorr.cli *argv`` in a fresh process, ``env`` added to its environment."""
    env = dict(os.environ, PYTHONPATH=str(Path(fdcorr.__file__).parents[1]), **env)
    return subprocess.run(
        [sys.executable, "-m", "fdcorr.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=preexec_fn,
    )


def exits_2_before_generating(capsys, monkeypatch, *argv):
    """Run ``argv`` with generation disabled; return its stderr."""

    def no_generation(*args, **kwargs):
        raise AssertionError("a formula was generated")

    monkeypatch.setattr(fdcorr.defcor, "general_defcor", no_generation)
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 2
    return capsys.readouterr().err


class TestFormulaIds:
    @pytest.mark.parametrize(
        "formula_id, expected",
        [
            ("B6", ("standard-backward", 6)),
            ("F8", ("standard-forward", 8)),
            ("BC10", ("backward-centered", 10)),
            ("FC4", ("forward-centered", 4)),
            ("IC6", ("interior-centered", 2)),
            ("C8", ("centered", 3)),
            ("CA6", ("centered-average", 2)),
            ("centered:p=3", ("centered", 3)),
            ("standard-backward:p=6", ("standard-backward", 6)),
            ("ic:p=4", ("interior-centered", 4)),
            # more leading zeros than ``int`` takes in one string
            pytest.param("C" + "0" * 5000 + "8", ("centered", 3), id="C0x5000-8"),
        ],
    )
    def test_valid_ids(self, formula_id, expected):
        assert parse_formula_id(formula_id) == expected

    @pytest.mark.parametrize(
        "bad",
        ["C5", "C2", "IC7", "B1", "Q6", "centered", "x:p=2", "centered:p=0", "b:p=1"],
    )
    def test_invalid_ids(self, bad):
        with pytest.raises(FormulaIdError):
            parse_formula_id(bad)

    def test_order_cap_is_inclusive(self):
        assert MAX_ORDER == 200
        assert parse_formula_id("F200") == ("standard-forward", 200)
        assert parse_formula_id("centered:p=99") == ("centered", 99)

    @pytest.mark.parametrize("formula_id", ["C202", "F201", "centered:p=100", "ic:p=100"])
    def test_order_above_cap_exits_2(self, capsys, monkeypatch, formula_id):
        err = exits_2_before_generating(capsys, monkeypatch, "stencil", formula_id)
        assert f"above the cap {MAX_ORDER}" in err

    # ``int`` refuses a string of more than 4300 digits by default
    @pytest.mark.parametrize(
        "formula_id",
        ["F1000", "C" + "9" * 4301, "centered:p=" + "9" * 5000],
        ids=["F1000", "C9x4301", "p9x5000"],
    )
    def test_number_too_long_for_int_exits_2_with_the_cap(
        self, capsys, monkeypatch, formula_id
    ):
        err = exits_2_before_generating(capsys, monkeypatch, "stencil", formula_id)
        assert err.endswith(
            f": order of more than {len(str(MAX_ORDER))} digits is above the cap {MAX_ORDER}\n"
        )

    @pytest.mark.parametrize(
        "formula_id", ["C" + "9" * 1000, "centered:p=" + "9" * 700], ids=["C9x1000", "p9x700"]
    )
    def test_long_number_under_a_lowered_int_digit_limit_exits_2(self, formula_id):
        proc = run_process("stencil", formula_id, PYTHONINTMAXSTRDIGITS="640")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "Traceback" not in proc.stderr
        assert proc.stderr.endswith(f"is above the cap {MAX_ORDER}\n")


class TestFamilies:
    @pytest.mark.parametrize(
        "family", [f for f in FAMILIES if f.prefix], ids=lambda f: f.name
    )
    def test_short_ids_round_trip_through_the_table(self, family):
        for p in range(family.min_p, family.min_p + 3):
            formula_id = f"{family.prefix}{family.order(p)}"
            assert family.param(family.order(p)) == p
            assert parse_formula_id(formula_id) == (family.name, p)
            formula = formula_from_id(formula_id)
            assert (formula.label, formula.family, formula.order) == (
                formula_id,
                family.name,
                family.order(p),
            )

    @pytest.mark.parametrize(
        "family", [f for f in FAMILIES if f.prefix], ids=lambda f: f.name
    )
    def test_each_prefix_names_its_row_in_either_case_and_only_a_prefix_makes_a_short_id(
        self, family
    ):
        order = family.order(family.min_p)
        assert family.prefix.lower() not in family.aliases
        for prefix in (family.prefix, family.prefix.lower()):
            assert family_named(prefix) is family
            assert parse_formula_id(f"{prefix}{order}") == (family.name, family.min_p)
        for other in (family.name, *family.aliases):
            assert family_named(other) is family
            with pytest.raises(FormulaIdError):
                parse_formula_id(f"{other}{order}")

    def test_the_value_row_has_no_prefix_to_match(self):
        assert family_named("") is None
        assert family_named("interior-centered-value").prefix is None

    def test_below_minimum_has_no_parameter(self):
        for family in FAMILIES:
            assert family.param(family.order(family.min_p - 1)) is None

    @pytest.mark.parametrize(
        "formula_id",
        ["IC8", "interior-centered-value:p=3"]
        + [f"{f.prefix}{f.order(f.min_p + 1)}" for f in FAMILIES if f.prefix not in (None, "IC")],
    )
    def test_an_id_builds_only_the_formula_it_names(self, monkeypatch, formula_id):
        calls, engine = [], fdcorr.defcor.general_defcor

        def counted(*args, **kwargs):
            calls.append(args)
            return engine(*args, **kwargs)

        monkeypatch.setattr(fdcorr.defcor, "general_defcor", counted)
        formula_from_id(formula_id)
        assert len(calls) == 1

    def test_catalog_builds_each_label_once(self):
        labels = [formula.label for formula in catalog(8)]
        assert len(labels) == len(set(labels)) == 4 * 3 + 4 * 7


class TestCoeffs:
    def test_centered_table_row(self, capsys):
        code, out, _ = run(capsys, "coeffs", "centered", "5")
        assert code == 0
        assert "1/24" in out  # i=3 entry

    def test_interior_row(self, capsys):
        code, out, _ = run(capsys, "coeffs", "interior", "2")
        assert code == 0
        for value in ("25/8", "125/24", "125/128"):
            assert value in out

    def test_backward_centered_row_ends_with_error_constant(self, capsys):
        code, out, _ = run(capsys, "coeffs", "bc", "10")
        assert code == 0
        title, labels, values, constant = out.splitlines()
        assert title == "backward-centered coefficients, p=10 (order 10)"
        assert labels.split() == [f"i={i}" for i in range(2, 11)]
        assert values.split() == [
            "1/2", "-1/6", "-1/12", "1/30", "1/60", "-1/140", "-1/280", "1/630", "1/1260"
        ]
        assert constant == "error constant: 1/2772"

    @pytest.mark.parametrize("p", ["min_p", 5, 12])
    @pytest.mark.parametrize("row", FAMILIES, ids=lambda f: f.name)
    def test_text_agrees_with_json(self, capsys, row, p):
        p = row.min_p if p == "min_p" else p
        code, out, _ = run(capsys, "coeffs", row.name, str(p))
        assert code == 0
        _, labels, values, constants = out.splitlines()
        _, out, _ = run(capsys, "coeffs", row.name, str(p), "--json")
        payload = json.loads(out)
        if "family" in payload:
            formulas = [payload]
            expected = f"error constant: {payload['error_constant']}"
        else:  # interior-centered: one object per role
            formulas = list(payload.values())
            expected = "error constants: " + ", ".join(
                f"{role} {f['error_constant']}" for role, f in payload.items()
            )
        coefficients = {}
        for formula in formulas:
            coefficients.update(formula["family_coefficients"])
        indices = sorted(coefficients, key=int)
        assert labels.split() == [f"i={i}" for i in indices]
        assert values.split() == [coefficients[i] for i in indices]
        assert constants == expected

    def test_json_emits_formula_schema(self, capsys):
        code, out, _ = run(capsys, "coeffs", "centered", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["family"] == "centered"
        assert payload["order"] == 6
        assert payload["terms"][0]["coeff"] == "1/24"

    def test_value_row_table(self, capsys):
        code, out, _ = run(capsys, "coeffs", "interior-centered-value", "2")
        assert code == 0
        assert out.splitlines() == [
            "interior-centered-value coefficients, p=2 (order 6)",
            "           i=2             i=4",
            "          25/8         125/128",
            "error constant: 5/1024",
        ]

    def test_unknown_family_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["coeffs", "mystery", "3"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("family, p", [("centered", "0"), ("b", "1")])
    def test_parameter_below_minimum_exits_2(self, capsys, family, p):
        with pytest.raises(SystemExit) as excinfo:
            main(["coeffs", family, p])
        assert excinfo.value.code == 2
        assert "needs p >=" in capsys.readouterr().err

    @pytest.mark.parametrize("family, p", [("centered", "100000"), ("f", "201")])
    def test_order_above_cap_exits_2(self, capsys, monkeypatch, family, p):
        err = exits_2_before_generating(capsys, monkeypatch, "coeffs", family, p)
        assert f"above the cap {MAX_ORDER}" in err


class TestStencil:
    def test_half_point_order_four(self, capsys):
        code, out, _ = run(capsys, "stencil", "C4")
        assert code == 0
        payload = json.loads(out)
        weights = [node["weight"] for node in payload["nodes"]]
        assert weights == ["1/24", "-9/8", "9/8", "-1/24"]

    def test_backward_order_two(self, capsys):
        code, out, _ = run(capsys, "stencil", "B2")
        payload = json.loads(out)
        assert [n["weight"] for n in payload["nodes"]] == ["1/2", "-2", "3/2"]
        assert [n["offset"] for n in payload["nodes"]] == ["-2", "-1", "0"]

    def test_interior_order_six(self, capsys):
        code, out, _ = run(capsys, "stencil", "IC6")
        payload = json.loads(out)
        assert payload["order"] == 6
        assert payload["m"] == 1
        assert len(payload["nodes"]) == 6

    def test_value_row_id(self, capsys):
        code, out, _ = run(capsys, "stencil", "interior-centered-value:p=1")
        assert code == 0
        payload = json.loads(out)
        assert (payload["m"], payload["order"]) == (0, 4)
        assert payload["provenance"] == "IC4-value"
        weights = [node["weight"] for node in payload["nodes"]]
        assert weights == ["-1/16", "9/16", "9/16", "-1/16"]

    def test_flatten_error_exits_1(self, capsys, monkeypatch):
        def failing_flatten(formula):
            raise FlattenError(f"{formula.label}: moment 5 is off")

        monkeypatch.setattr(fdcorr.cli, "flatten", failing_flatten)
        assert run(capsys, "stencil", "C4") == (1, "", "fdcorr: error: C4: moment 5 is off\n")

    def test_bad_id_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["stencil", "Z9"])
        assert excinfo.value.code == 2


# Every id the benchmark's ``deep`` workload can draw.
DEEP_IDS = [f"{prefix}{order}" for prefix in ("B", "F", "BC", "FC") for order in range(33, 37)]
DEEP_IDS += ["C40", "C42", "CA40", "CA42", "IC36", "IC38"]


class TestJsonWriter:
    """``_json_dumps`` writes what ``json.dumps(obj, indent=2)`` writes, or refuses."""

    @pytest.mark.parametrize("formula_id", DEEP_IDS)
    def test_stencil_payload(self, formula_id):
        payload = flatten(formula_from_id(formula_id)).to_json_dict()
        assert _json_dumps(payload) == json.dumps(payload, indent=2)

    @pytest.mark.parametrize("p", [2, 7, 20])
    @pytest.mark.parametrize("row", FAMILIES, ids=lambda f: f.name)
    def test_coeffs_payload(self, capsys, row, p):
        code, out, _ = run(capsys, "coeffs", row.name, str(p), "--json")
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    @pytest.mark.parametrize(
        "obj",
        [{}, [], {"a": {}, "b": []}, [[], {}, [[]]], {"k": [0, -12, "x", {"n": {"m": []}}]}, "", 7],
    )
    def test_empty_and_nested_containers(self, obj):
        assert _json_dumps(obj) == json.dumps(obj, indent=2)

    def test_printable_ascii_but_quote_and_backslash_is_written_verbatim(self):
        text = "".join(chr(c) for c in range(32, 127) if chr(c) not in '"\\')
        obj = {text: [text]}
        assert _json_dumps(obj) == json.dumps(obj, indent=2)

    @pytest.mark.parametrize(
        "obj",
        ['a"b', "a\\b", "a\nb", "\t", "\x7f", "\u00e9", "\U0001f600", {"a\nb": 1}, {1: "a"},
         True, 1.0, None, (1,), ["ok", None]],
    )
    def test_anything_json_would_escape_or_convert_is_refused(self, obj):
        with pytest.raises(TypeError):
            _json_dumps(obj)


class TestStudy:
    def test_polynomial_study_floors(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "study",
            "C4",
            "poly:x^3",
            "0",
            "--csv-dir",
            str(tmp_path),
            "--h-max",
            "0.1",
            "--h-min",
            "0.01",
        )
        assert code == 0
        csv = (tmp_path / "C4.csv").read_text().splitlines()
        assert csv[0] == "h,abs_error,observed_order"
        errors = [float(line.split(",")[1]) for line in csv[1:]]
        assert max(errors) < 1e-12

    def test_six_formula_study_summary(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "study",
            "B6,B10,BC6,BC10,IC6,IC10",
            "sin100pi",
            "0",
            "--csv-dir",
            str(tmp_path),
            "--h-max",
            "1e-3",
            "--h-min",
            "1e-5",
            "--gnuplot",
        )
        assert code == 0
        for formula_id in ("B6", "B10", "BC6", "BC10", "IC6", "IC10"):
            assert (tmp_path / f"{formula_id}.csv").exists()
            assert formula_id in out
        script = (tmp_path / "study.gp").read_text()
        assert "logscale" in script and "B6.csv" in script

    def test_csv_output_is_byte_stable(self, capsys, tmp_path):
        for sub in ("one", "two"):
            code, _, _ = run(
                capsys,
                "study",
                "BC6",
                "sin100pi",
                "0",
                "--csv-dir",
                str(tmp_path / sub),
                "--h-max",
                "1e-3",
                "--h-min",
                "1e-4",
            )
            assert code == 0
        first = (tmp_path / "one" / "BC6.csv").read_bytes()
        second = (tmp_path / "two" / "BC6.csv").read_bytes()
        assert first == second

    def test_csv_bytes_are_pinned(self, capsys, tmp_path):
        code, _, _ = run(capsys, "study", "C4,B2", "poly:x^2", "0", "--csv-dir", str(tmp_path),
                         "--h-max", "0.5", "--h-min", "0.125")
        assert code == 0
        for formula_id in ("C4", "B2"):
            assert (tmp_path / f"{formula_id}.csv").read_bytes() == (
                b"h,abs_error,observed_order\n0.5,0.0,\n0.25,0.0,nan\n0.125,0.0,nan\n"
            )

    def test_csv_rows(self, capsys, tmp_path):
        # each value as its repr, and no order on the first row, which has no predecessor
        x0, grid = 0.1, [1e-3, 5e-4, 2.5e-4]
        code, _, _ = run(capsys, "study", "B6,IC6", "sin100pi", str(x0), "--csv-dir",
                         str(tmp_path), "--h-max", "1e-3", "--h-min", "2.5e-4")
        assert code == 0
        u, du = _resolve_function("sin100pi")
        named = [(fid, flatten(formula_from_id(fid))) for fid in ("B6", "IC6")]
        for report in convergence_studies(named, u, du(x0), x0, grid):
            errors, orders = report.abs_errors, report.observed_orders
            text = f"h,abs_error,observed_order\n{grid[0]!r},{errors[0]!r},\n"
            text += "".join(
                f"{h!r},{e!r},{o!r}\n" for h, e, o in zip(grid[1:], errors[1:], orders)
            )
            assert (tmp_path / f"{report.formula_id}.csv").read_bytes() == text.encode()

    @pytest.mark.parametrize(
        "ids, function, flags, named",
        [
            ("C4,C5", "sin100pi", [], "'C5'"),
            # C4's nodes stay in range at these spacings, B6's reach 6h and overflow
            ("C4,B6", "poly:x^2", ["--h-max", "5e153", "--h-min", "1e153"], "overflows"),
            ("C4", "sin100pi", ["--h-min", "0.02"], "need 0 < h-min <= h-max"),
            ("C4", "sin100pi", ["--h-factor", "1"], "h-factor must exceed 1"),
            ("C4", "sin100pi", ["--h-min", "0.006"], "spacing grid has fewer than 3 points"),
            (",", "sin100pi", [], "no formula ids given"),
            ("C4", "poly:", [], "empty polynomial"),
        ],
    )
    def test_bad_input_anywhere_exits_2_before_any_csv(
        self, capsys, tmp_path, ids, function, flags, named
    ):
        csv_dir = tmp_path / "D"
        with pytest.raises(SystemExit) as excinfo:
            main(["study", ids, function, "0", "--csv-dir", str(csv_dir), *flags])
        assert excinfo.value.code == 2
        assert named in capsys.readouterr().err
        assert not csv_dir.exists()

    def test_repeated_id_exits_2_before_generating_or_any_directory(
        self, capsys, monkeypatch, tmp_path
    ):
        # each id writes ``<id>.csv``: a repeat would write one file twice
        csv_dir = tmp_path / "D"
        err = exits_2_before_generating(
            capsys, monkeypatch, "study", "C4,B6, C4", "sin100pi", "0.1", "--csv-dir", str(csv_dir)
        )
        assert err.endswith("fdcorr: error: formula id 'C4' is given more than once\n")
        assert not csv_dir.exists()

    @pytest.mark.parametrize(
        "ids, message",
        [
            ("C4,c4", "formula id 'c4' names the same formula as 'C4'"),
            # the first repeat in id order is the one reported
            ("C4,c4,C4", "formula id 'c4' names the same formula as 'C4'"),
            # whitespace around an id is no second spelling
            (" C4 , C4", "formula id 'C4' is given more than once"),
            ("centered:p=1,C4", "formula id 'C4' names the same formula as 'centered:p=1'"),
        ],
    )
    def test_one_formula_under_two_spellings_exits_2_before_generating_or_any_directory(
        self, capsys, monkeypatch, tmp_path, ids, message
    ):
        # ``C4.csv`` and ``c4.csv`` are one file on a case-insensitive file system
        csv_dir = tmp_path / "D"
        err = exits_2_before_generating(
            capsys, monkeypatch, "study", ids, "sin100pi", "0.1", "--csv-dir", str(csv_dir)
        )
        assert err.endswith(f"fdcorr: error: {message}\n")
        assert not csv_dir.exists()

    def test_ids_sharing_a_stencil_write_the_bytes_each_writes_alone(self, capsys, tmp_path):
        # IC6 and C6 share a stencil, as do FC6 and BC6; IC6 comes first in its pair
        ids = ["IC6", "B6", "FC6", "C6", "BC6"]
        flags = ["sin100pi", "0.1", "--h-max", "1e-3", "--h-min", "1e-4"]
        code, out, _ = run(capsys, "study", ",".join(ids), *flags, "--csv-dir", str(tmp_path / "all"))
        assert code == 0
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines] == ids
        for formula_id, line in zip(ids, lines):
            assert line.endswith(f", csv {tmp_path / 'all' / f'{formula_id}.csv'}")
            alone = tmp_path / formula_id
            code, out_alone, _ = run(capsys, "study", formula_id, *flags, "--csv-dir", str(alone))
            assert code == 0
            assert out_alone.rsplit(", csv ", 1)[0] == line.rsplit(", csv ", 1)[0]
            got = (tmp_path / "all" / f"{formula_id}.csv").read_bytes()
            assert got == (alone / f"{formula_id}.csv").read_bytes()
        for pair in [("BC6", "FC6"), ("C6", "IC6")]:
            first, second = ((tmp_path / "all" / f"{fid}.csv").read_bytes() for fid in pair)
            assert first == second

    def test_each_distinct_stencil_is_reported_once(self, capsys, monkeypatch, tmp_path):
        received = []

        def recording(named, *args):
            received.extend(named)
            return convergence_studies(named, *args)

        monkeypatch.setattr(fdcorr.numdiff, "convergence_studies", recording)
        code, out, _ = run(capsys, "study", ",".join(STUDY_IDS), "sin100pi", "0.1",
                           "--csv-dir", str(tmp_path), "--h-max", "1e-3", "--h-min", "2.5e-4")
        assert code == 0
        assert len(received) == 35
        reported = [formula_id for formula_id, _ in received]
        skipped = [f"FC{order}" for order in range(2, 11)] + [f"IC{n}" for n in range(4, 11, 2)]
        assert [fid for fid in STUDY_IDS if fid not in reported] == skipped
        assert len(out.splitlines()) == len(list(tmp_path.iterdir())) == 48

    def test_csv_dir_naming_a_file_exits_2(self, capsys, tmp_path):
        csv_dir = tmp_path / "D"
        csv_dir.write_text("")
        with pytest.raises(SystemExit) as excinfo:
            main(["study", "C4", "sin100pi", "0", "--csv-dir", str(csv_dir), "--gnuplot"])
        assert excinfo.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            f"fdcorr: error: cannot write to --csv-dir {str(csv_dir)!r}: File exists\n"
        )

    def test_unknown_function_exits_2(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["study", "B6", "sin42", "0", "--csv-dir", str(tmp_path)])
        assert excinfo.value.code == 2

    def test_polynomial_parser_rejects_garbage(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["study", "B6", "poly:x^^3", "0", "--csv-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        # a sign the terms do not cover is a term of its own, and fails
        for body, term in [("--x", "-"), ("x^2-", "-"), ("x+-2", "+"), ("+", "+"), ("-", "-")]:
            with pytest.raises(SystemExit) as excinfo:
                main(["study", "C4", f"poly:{body}", "0", "--csv-dir", str(tmp_path)])
            assert excinfo.value.code == 2
            assert f"cannot parse polynomial term {term!r}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_function_names_come_from_one_table(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(["study", "C4", "--help"])
        assert "sin100pi | sin1000pi | poly:<expr>" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["study", "C4", "sin42", "0", "--csv-dir", str(tmp_path)])
        assert capsys.readouterr().err.endswith(
            "unknown function id 'sin42' (expected sin100pi, sin1000pi, or poly:...)\n"
        )

    def test_sin1000pi_study_converges_at_the_formula_order(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "study", "C4", "sin1000pi", "0.01", "--csv-dir", str(tmp_path),
            "--h-max", "1e-4", "--h-min", "1e-5",
        )
        assert code == 0
        assert out.startswith("C4: fitted order 4.0")
        first = (tmp_path / "C4.csv").read_text().splitlines()[1].split(",")
        omega = 1000 * math.pi
        h = 1e-4
        estimate = (
            -math.sin(omega * (0.01 + 1.5 * h)) + 27 * math.sin(omega * (0.01 + 0.5 * h))
            - 27 * math.sin(omega * (0.01 - 0.5 * h)) + math.sin(omega * (0.01 - 1.5 * h))
        ) / (24 * h)
        assert float(first[1]) == pytest.approx(abs(estimate - omega * math.cos(omega * 0.01)))

    @pytest.mark.parametrize(
        "x0, flags, named",
        [
            ("nan", [], "x0 must be finite, got nan"),
            ("0", ["--h-max", "inf"], "--h-max must be finite, got inf"),
            ("0", ["--h-min", "nan"], "--h-min must be finite, got nan"),
            ("0", ["--h-factor", "nan"], "--h-factor must be finite, got nan"),
        ],
    )
    def test_non_finite_input_exits_2(self, capsys, tmp_path, x0, flags, named):
        with pytest.raises(SystemExit) as excinfo:
            main(["study", "C4", "sin100pi", x0, "--csv-dir", str(tmp_path), *flags])
        assert excinfo.value.code == 2
        assert named in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_grid_longer_than_limit_exits_2(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["study", "C4", "sin100pi", "0", "--csv-dir", str(tmp_path),
                  "--h-factor", "1.000001"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "1.000001" in err and "100000 spacings" in err

    @pytest.mark.parametrize(
        "h_max, factor", [("1e-323", "1.5"), ("5e-324", "1.0000001")], ids=["subnormal", "near-1"]
    )
    def test_grid_that_stops_shrinking_exits_2_before_any_directory(self, tmp_path, h_max, factor):
        # 5e-324 / factor rounds back to 5e-324; a grid that kept appending it
        # would hit the address-space cap or the timeout rather than hang the suite
        resource = pytest.importorskip("resource")
        cap = 2**29
        csv_dir = tmp_path / "csv"
        proc = run_process(
            "study", "C4", "sin100pi", "0", "--csv-dir", str(csv_dir),
            "--h-max", h_max, "--h-min", "5e-324", "--h-factor", factor,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"fdcorr: error: spacing grid stops shrinking at 5e-324: h / {factor} rounds to h"
        ]
        assert not csv_dir.exists()

    def test_wide_spacing_range_is_counted_without_overflow(self, capsys, tmp_path):
        # h-max / h-min overflows a float, yet the grid has only 1994 spacings
        code, _, _ = run(capsys, "study", "C4", "sin100pi", "0", "--csv-dir",
                         str(tmp_path), "--h-max", "1e300", "--h-min", "1e-300")
        assert code == 0
        assert len((tmp_path / "C4.csv").read_text().splitlines()) == 1 + 1994

    @pytest.mark.parametrize(
        "ids, function, x0, offsets",
        [("C4,B2", "sin100pi", "1e300", "-2 and -3/2"), ("C4", "poly:x^2", "1e100", "-3/2 and -1/2")],
    )
    def test_x0_whose_nodes_round_to_one_point_exits_2_before_any_directory(
        self, tmp_path, ids, function, x0, offsets
    ):
        # x0 + o*h rounds to x0 for every node: the samples could not tell the nodes apart
        csv_dir = tmp_path / "csv"
        proc = run_process("study", ids, function, x0, "--csv-dir", str(csv_dir))
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"fdcorr: error: offsets {offsets} may round to one point "
            f"at x0 = {float(x0)!r} and spacing h = 6.103515625e-07"
        ]
        assert not csv_dir.exists()

    def test_spacing_just_above_where_nodes_meet_exits_2(self, capsys, tmp_path):
        # at x0 = 1, C4's points meet up to h of about 1.1e-16; the rounding bound
        # refuses up to 2.2e-16, where rounding moves the nodes by half their spacing
        csv_dir = tmp_path / "csv"
        proc = run_process("study", "C4", "sin100pi", "1", "--csv-dir", str(csv_dir),
                           "--h-max", "8e-16", "--h-min", "2e-16")
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "fdcorr: error: offsets -3/2 and -1/2 may round to one point at x0 = 1.0 "
            "and spacing h = 2e-16"
        ]
        assert not csv_dir.exists()
        code, _, _ = run(capsys, "study", "C4", "sin100pi", "1", "--csv-dir", str(csv_dir),
                         "--h-max", "1.6e-15", "--h-min", "4e-16")
        assert code == 0

    def test_points_past_float_range_exit_2_as_an_overflow(self, tmp_path):
        # the rounding bound stays finite at x0 = 1e308: the sample at inf reports it
        proc = run_process("study", "C4", "poly:x", "1e308", "--csv-dir", str(tmp_path / "csv"),
                           "--h-max", "1e308", "--h-min", "2.5e307")
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["fdcorr: error: function 'poly:x' overflows at x = inf"]

    def test_overflowing_polynomial_exits_2_without_traceback(self, tmp_path):
        proc = run_process("study", "C4", "poly:x^2", "0",
                           "--csv-dir", str(tmp_path), "--h-max", "1e300", "--h-min", "1e-300")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            "fdcorr: error: function 'poly:x^2' overflows at x = -1.5e+300"
        ]

    @pytest.mark.parametrize(
        "body, term",
        [
            ("1/0x^2", "1/0x^2"),  # a zero denominator
            ("3x-" + "9" * 400 + "x", "-" + "9" * 400 + "x"),  # a coefficient past float range
            ("x^" + "9" * 5000, "x^" + "9" * 5000),  # a degree past int's digit limit
            ("x^" + "9" * 400, "x^" + "9" * 400),  # a degree past float range
        ],
        ids=["zero-denominator", "huge-coefficient", "long-degree", "huge-degree"],
    )
    def test_unreadable_polynomial_term_exits_2_before_any_directory(self, tmp_path, body, term):
        csv_dir = tmp_path / "csv"
        proc = run_process("study", "C4", f"poly:{body}", "0", "--csv-dir", str(csv_dir))
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"fdcorr: error: cannot parse polynomial term {term!r}"
        ]
        assert not csv_dir.exists()

    def test_polynomial_overflowing_after_the_power_exits_2(self, tmp_path):
        # x**2 is finite at x = -6e153, but 9 * x**2 is inf without raising
        csv_dir = tmp_path / "csv"
        proc = run_process("study", "C4", "poly:9x^2", "0",
                           "--csv-dir", str(csv_dir), "--h-max", "4e153", "--h-min", "1e153")
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "fdcorr: error: function 'poly:9x^2' overflows at x = -5.9999999999999996e+153"
        ]
        assert not csv_dir.exists()

    @pytest.mark.parametrize("function", ["sin100pi", "sin1000pi"])
    @pytest.mark.parametrize(
        "where, flags, x",
        [
            ("1e307", [], "1e+307"),  # omega * x0 is inf, so u'(x0) is cos(inf)
            ("0", ["--h-max", "1e306", "--h-min", "1e300"], "-1.5e+306"),  # the widest sample
        ],
        ids=["huge-x0", "huge-spacing"],
    )
    def test_overflowing_sine_exits_2_before_any_directory(
        self, tmp_path, function, where, flags, x
    ):
        csv_dir = tmp_path / "csv"
        proc = run_process("study", "C4", function, where, "--csv-dir", str(csv_dir), *flags)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"fdcorr: error: function {function!r} overflows at x = {x}"
        ]
        assert not csv_dir.exists()


class TestVerifyAll:
    def test_everything_passes(self, capsys):
        code, out, _ = run(capsys, "verify-all", "--max-order", "8")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 30

    def test_ends_with_count_line(self, capsys):
        code, out, _ = run(capsys, "verify-all", "--max-order", "6")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "checked 28 formulas, 0 failed"
        assert len(lines) == 29
        assert all(line.startswith("PASS ") for line in lines[:-1])

    def test_order_thirty_within_budget(self, capsys):
        # The target is 5 s; the budget doubles it for hosts whose CPUs slow down.
        start = time.perf_counter()
        code, out, _ = run(capsys, "verify-all", "--max-order", "30")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert out.splitlines()[-1] == "checked 172 formulas, 0 failed"
        assert elapsed < 10, f"verify-all --max-order 30 took {elapsed:.2f}s"

    def test_weights_off_the_oracle_fail_and_exit_1(self, capsys, monkeypatch):
        oracle_weights = fdcorr.cli.oracle_weights
        calls = []

        def first_call_perturbed(offsets, m, order):
            calls.append(offsets)
            weights = oracle_weights(offsets, m, order)
            return [weights[0] + 1, *weights[1:]] if len(calls) == 1 else weights

        monkeypatch.setattr(fdcorr.cli, "oracle_weights", first_call_perturbed)
        code, out, err = run(capsys, "verify-all", "--max-order", "4")
        lines = out.splitlines()
        assert code == 1
        assert lines[0] == (
            "FAIL C4: pass: order 4, error constant -3/640; "
            "weights disagree with the moment-system solution"
        )
        assert all(line.startswith("PASS ") for line in lines[1:-1])
        assert lines[-1] == "checked 16 formulas, 1 failed"
        assert err == "1 formula(s) failed verification\n"

    def test_flatten_error_fails_one_formula_and_goes_on(self, capsys, monkeypatch):
        flatten = fdcorr.cli.flatten

        def failing_for_c6(formula):
            if formula.label == "C6":
                raise FlattenError("moment 5 is off")
            return flatten(formula)

        monkeypatch.setattr(fdcorr.cli, "flatten", failing_for_c6)
        code, out, err = run(capsys, "verify-all", "--max-order", "6")
        lines = out.splitlines()
        assert code == 1
        assert lines[4:6] == ["FAIL C6: moment 5 is off", "PASS CA6: pass: order 6, error constant 5/1024"]
        assert [line.split()[0] for line in lines[:-1]].count("PASS") == 27
        assert lines[-1] == "checked 28 formulas, 1 failed"
        assert err == "1 formula(s) failed verification\n"

    def test_checking_nothing_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify-all", "--max-order", "1"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""

    def test_max_order_above_cap_exits_2(self, capsys, monkeypatch):
        err = exits_2_before_generating(
            capsys, monkeypatch, "verify-all", "--max-order", str(MAX_ORDER + 1)
        )
        assert f"above the cap {MAX_ORDER}" in err


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["stencil", "C4", "--gnuplot", "--csv-dir", "x"],
            ["verify-all", "--json"],
            ["coeffs", "centered", "2", "--h-max", "0.1"],
        ],
    )
    def test_flags_of_other_commands_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestRepeatedCalls:
    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["stencil", "C4"],
            ["coeffs", "interior", "2", "--json"],
            ["stencil", "C5"],
            ["verify-all", "--json"],
        ],
    )
    def test_second_call_gives_the_same_output(self, capsys, argv):
        first = self.outcome(capsys, argv)
        assert self.outcome(capsys, argv) == first

    def test_second_verify_all_takes_no_fraction_slow_path(self, capsys, monkeypatch):
        # Once the caches are warm, values that are already exact are never
        # hashed, wrapped in a second ``Fraction`` or multiplied as ``int *
        # Fraction``: each is a Python-level path of ``fractions``.
        argv = ["verify-all", "--max-order", "12"]
        assert main(argv) == 0
        calls = {"hash": 0, "rewrap": 0, "rmul": 0}
        hash_, new, rmul = Fraction.__hash__, Fraction.__new__, Fraction.__rmul__

        def counted_hash(self):
            calls["hash"] += 1
            return hash_(self)

        # ``__new__`` takes ``_normalize`` on Python 3.10-3.11 only
        def counted_new(cls, *args, **kwargs):
            calls["rewrap"] += len(args) == 1 and isinstance(args[0], Fraction)
            return new(cls, *args, **kwargs)

        def counted_rmul(self, other, **kwargs):
            calls["rmul"] += 1
            return rmul(self, other, **kwargs)

        monkeypatch.setattr(Fraction, "__hash__", counted_hash)
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
        monkeypatch.setattr(Fraction, "__rmul__", counted_rmul)
        assert main(argv) == 0
        monkeypatch.undo()
        assert calls == {"hash": 0, "rewrap": 0, "rmul": 0}

    @pytest.mark.parametrize("argv", [["stencil", "C4"], ["coeffs", "interior", "2", "--json"]])
    def test_second_json_call_leaves_nothing_for_the_cyclic_collector(self, capsys, argv):
        # ``json.dumps(..., indent=2)`` left about 33 objects in cycles per call
        first = self.outcome(capsys, argv)
        gc.collect()
        gc.disable()
        try:
            assert self.outcome(capsys, argv) == first
            garbage = gc.collect()
        finally:
            gc.enable()
        assert garbage == 0

    def test_second_call_leaves_no_cyclic_garbage(self, capsys, tmp_path):
        argv = ["study", "C4,B6", "sin100pi", "0.1", "--csv-dir", str(tmp_path)]
        assert main(argv) == 0
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == 0
            garbage = gc.collect()
        finally:
            gc.enable()
        # a parser holds about 190 objects in cycles; one per call leaves them
        assert garbage <= 20
