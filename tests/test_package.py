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


def test_the_cli_loads_only_the_standard_library():
    # ``-S`` keeps site-packages and whatever ``site`` itself imports out
    env = dict(os.environ, PYTHONPATH=str(Path(fdcorr.__file__).parents[1]))
    code = "import sys, fdcorr.cli; print(*{name.partition('.')[0] for name in sys.modules})"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "fdcorr" in loaded
    assert sorted(loaded - {"fdcorr", "__main__"} - sys.stdlib_module_names) == []
