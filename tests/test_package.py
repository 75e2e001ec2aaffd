"""The package's public surface: each module's ``__all__``, re-exported once; no dependencies."""

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


def _loaded_by(module: str) -> set[str]:
    """Top-level names of every module loaded by ``import <module>`` in a fresh interpreter."""
    # ``-S`` keeps site-packages and whatever ``site`` itself imports out
    env = dict(os.environ, PYTHONPATH=str(Path(fdcorr.__file__).parents[1]))
    code = f"import sys, {module}; print(*{{name.partition('.')[0] for name in sys.modules}})"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_the_cli_loads_only_the_standard_library():
    loaded = _loaded_by("fdcorr.cli")
    assert "fdcorr" in loaded
    assert sorted(loaded - {"fdcorr", "__main__"} - sys.stdlib_module_names) == []


# No command needs these at import time, and ``dataclasses`` alone (with the
# ``inspect``, ``ast`` and ``dis`` it loads) costs about as much to import as
# all of ``fdcorr.cli`` does without it.
_COLD = {"dataclasses", "inspect", "typing", "pathlib", "json"}


@pytest.mark.parametrize(
    "module, absent",
    [("fdcorr", _COLD | {"argparse"}), ("fdcorr.cli", _COLD)],
    ids=["fdcorr", "fdcorr.cli"],
)
def test_the_import_loads_nothing_its_commands_do_not_run(module, absent):
    assert sorted(_loaded_by(module) & absent) == []
