"""The package's public surface: each module's ``__all__``, re-exported once."""

import importlib

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
