"""The package's public surface: each module's ``__all__``, re-exported once; what each import loads."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fdcorr

MODULES = ("exactmath", "gridops", "taylorseries", "defcor", "stencil", "numdiff")


def test_no_name_is_exported_twice():
    assert len(fdcorr.__all__) == len(set(fdcorr.__all__))


@pytest.mark.parametrize("short", MODULES)
def test_module_surface_is_in_the_package_surface(short):
    module = importlib.import_module(f"fdcorr.{short}")
    for name in module.__all__:
        assert name in fdcorr.__all__
        assert getattr(fdcorr, name) is getattr(module, name)


def _fresh(code: str, *args: str) -> str:
    """Stdout of ``code`` run on ``args`` in a fresh interpreter that finds this fdcorr."""
    # ``-S`` keeps site-packages and whatever ``site`` itself imports out
    env = dict(os.environ, PYTHONPATH=str(Path(fdcorr.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *args], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_by(statement: str) -> set[str]:
    """Every module loaded by the import ``statement`` in a fresh interpreter."""
    return set(_fresh(f"import sys; {statement}; print(*sys.modules)").split())


def test_the_cli_loads_only_the_standard_library():
    loaded = {name.partition(".")[0] for name in _loaded_by("import fdcorr.cli")}
    assert "fdcorr" in loaded
    assert sorted(loaded - {"fdcorr", "__main__"} - sys.stdlib_module_names) == []


# No command needs these at import time, and ``dataclasses`` alone (with the
# ``inspect``, ``ast`` and ``dis`` it loads) costs about as much to import as
# all of ``fdcorr.cli`` does without it.  Only ``study`` evaluates in floats.
_COLD = {"dataclasses", "inspect", "typing", "pathlib", "json", "fdcorr.numdiff"}
# The five exact modules, which ``fdcorr.cli`` imports; ``import fdcorr`` runs
# none of them, nor ``fractions`` (with the ``decimal`` it brings).
_EXACT = {f"fdcorr.{short}" for short in MODULES if short != "numdiff"}


@pytest.mark.parametrize(
    "statement, submodules, absent",
    [
        ("import fdcorr", set(), _COLD | {"argparse", "fractions", "decimal"}),
        ("import fdcorr.cli", _EXACT | {"fdcorr.cli"}, _COLD),
        # the import system first asks the package for ``cli``
        ("from fdcorr import cli", _EXACT | {"fdcorr.cli"}, _COLD),
        # a name loads the modules in dependency order up to the one exporting it
        ("from fdcorr import binom", {"fdcorr.exactmath"}, _COLD | {"argparse"}),
        ("from fdcorr import flatten", _EXACT, _COLD | {"argparse"}),
    ],
    ids=["fdcorr", "fdcorr.cli", "from fdcorr import cli", "from fdcorr import binom",
         "from fdcorr import flatten"],
)
def test_the_import_loads_nothing_its_commands_do_not_run(statement, submodules, absent):
    loaded = _loaded_by(statement)
    assert sorted(loaded & absent) == []
    assert sorted(name for name in loaded if name.startswith("fdcorr.")) == sorted(submodules)


_PROBES = """
import sys, fdcorr
def loaded():
    return sorted(name for name in sys.modules if name.startswith("fdcorr."))
print(hasattr(fdcorr, "_SINES"), hasattr(fdcorr, "_missing"), hasattr(fdcorr, "cli"), loaded())
print(fdcorr.gridops.__name__, loaded())
print(hasattr(fdcorr, "missing"), loaded() == [f"fdcorr.{short}" for short in sorted(fdcorr._MODULES)])
"""


def test_a_name_loads_only_the_modules_it_needs():
    # Underscore names and ``cli`` load nothing; a module's name loads it and
    # what it imports; a name no module exports is looked for in all six.
    assert _fresh(_PROBES).splitlines() == [
        "True False False []",
        "fdcorr.gridops ['fdcorr.exactmath', 'fdcorr.gridops']",
        "False True",
    ]


# The package's names before ``numdiff`` loaded on first use; the star-import binds them all.
_PUBLIC = (
    "ConvergenceReport CorrectionFormula DegenerateChoiceError ErrorSeries FlattenError "
    "GridFunction GridRangeError OperatorExpr Rational Stencil StencilCheck apply apply_stencil "
    "backward_centered binom centered_average_formula centered_formula convergence_studies "
    "default_truncation error_series expand flatten format_rational forward_centered "
    "general_defcor interior_centered moment_sum normalize_composite oracle_weights "
    "product_rule_check series_from_nodes standard_backward standard_forward verify word"
).split()

_COMMANDS = """
import contextlib, io, sys
from fdcorr.cli import main

def loaded():
    return sorted({"fdcorr.numdiff", "json"} & set(sys.modules))

with contextlib.redirect_stdout(io.StringIO()):
    main(["stencil", "C4"])
    main(["coeffs", "interior", "2", "--json"])
    one_shot = loaded()
    main(["study", "C4", "sin100pi", "0.1", "--csv-dir", sys.argv[1]])
print(one_shot, loaded())
"""


def test_only_study_loads_numdiff_and_no_command_loads_json(tmp_path):
    assert _fresh(_COMMANDS, str(tmp_path)) == "[] ['fdcorr.numdiff']\n"


def test_the_star_import_binds_every_name_numdiff_included():
    code = 'from fdcorr import *; print(*sorted(name for name in dir() if name[0] != "_"))'
    assert _fresh(code).split() == sorted(_PUBLIC)
    code = """
import fdcorr
listed = set(dir(fdcorr))
print({*fdcorr.__all__, "numdiff"} <= listed,
      fdcorr.convergence_studies is fdcorr.numdiff.convergence_studies)
"""
    assert _fresh(code) == "True True\n"


def test_dir_lists_every_public_name_and_module():
    code = 'import fdcorr; print(*(name for name in dir(fdcorr) if name[0] != "_"))'
    assert _fresh(code).split() == sorted([*_PUBLIC, *MODULES])
