"""Command-line surface: parsing, tables, stencil export, studies."""

import gc
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fdcorr
from fdcorr.cli import (
    MAX_ORDER, FormulaIdError, _parse_polynomial, formula_from_id, main, parse_formula_id
)
from fdcorr.defcor import FAMILIES, catalog
from fdcorr.stencil import FlattenError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(fdcorr.__file__).parents[1]),
            PYTHONINTMAXSTRDIGITS="640",
        )
        proc = subprocess.run(
            [sys.executable, "-m", "fdcorr.cli", "stencil", formula_id],
            capture_output=True, text=True, env=env, timeout=60,
        )
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

    def test_below_minimum_has_no_parameter(self):
        for family in FAMILIES:
            assert family.param(family.order(family.min_p - 1)) is None

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

    @pytest.mark.parametrize(
        "body, poly",
        [
            ("x^3", {3: 1.0}),
            ("2x^4-3x+1", {4: 2.0, 1: -3.0, 0: 1.0}),
            ("-1x^15-2x^5+8x^2-7", {15: -1.0, 5: -2.0, 2: 8.0, 0: -7.0}),
            ("+3x^12+9x^7-4x^1+5", {12: 3.0, 7: 9.0, 1: -4.0, 0: 5.0}),
        ],
    )
    def test_polynomial_parser_reads_each_term(self, body, poly):
        assert _parse_polynomial(body) == poly

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

    def test_wide_spacing_range_is_counted_without_overflow(self, capsys, tmp_path):
        # h-max / h-min overflows a float, yet the grid has only 1994 spacings
        code, _, _ = run(capsys, "study", "C4", "sin100pi", "0", "--csv-dir",
                         str(tmp_path), "--h-max", "1e300", "--h-min", "1e-300")
        assert code == 0
        assert len((tmp_path / "C4.csv").read_text().splitlines()) == 1 + 1994

    def test_overflowing_polynomial_exits_2_without_traceback(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(fdcorr.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "fdcorr.cli", "study", "C4", "poly:x^2", "0",
             "--csv-dir", str(tmp_path), "--h-max", "1e300", "--h-min", "1e-300"],
            capture_output=True, text=True, env=env, timeout=60,
        )
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
        env = dict(os.environ, PYTHONPATH=str(Path(fdcorr.__file__).parents[1]))
        csv_dir = tmp_path / "csv"
        proc = subprocess.run(
            [sys.executable, "-m", "fdcorr.cli", "study", "C4", f"poly:{body}", "0",
             "--csv-dir", str(csv_dir)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"fdcorr: error: cannot parse polynomial term {term!r}"
        ]
        assert not csv_dir.exists()

    def test_polynomial_overflowing_after_the_power_exits_2(self, tmp_path):
        # x**2 is finite at x = -6e153, but 9 * x**2 is inf without raising
        env = dict(os.environ, PYTHONPATH=str(Path(fdcorr.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "fdcorr.cli", "study", "C4", "poly:9x^2", "0",
             "--csv-dir", str(tmp_path), "--h-max", "4e153", "--h-min", "1e153"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "fdcorr: error: function 'poly:9x^2' overflows at x = -5.9999999999999996e+153"
        ]
        assert not list(tmp_path.glob("*.csv"))


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
