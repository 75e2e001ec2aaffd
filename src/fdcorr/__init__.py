"""Arbitrary-order finite-difference formulas by iterated error-series correction.

The pipeline: difference words on a uniform grid (:mod:`fdcorr.gridops`)
expand to exact node/weight form; their Taylor error series
(:mod:`fdcorr.taylorseries`) drive a cancellation engine
(:mod:`fdcorr.defcor`) whose output flattens to a single stencil verified
against an independent moment-condition solver (:mod:`fdcorr.stencil`);
:mod:`fdcorr.numdiff` evaluates stencils in floating point and runs
convergence studies, and :mod:`fdcorr.cli` exposes all of it on the command
line.  Every coefficient is an exact rational.

``import fdcorr`` runs only this file.  Every module loads on first use, under
one rule (PEP 562): reading a module's name imports that module, and reading
any other public name imports the modules of ``_MODULES``, in order, until one
exports it.  So ``from fdcorr import binom`` loads only :mod:`fdcorr.exactmath`,
and ``from fdcorr import flatten`` the five exact modules.  Reading
``fdcorr.__all__`` or ``dir(fdcorr)``, or ``from fdcorr import *``, imports all
six; the star-import binds the same names as an eager import would.
"""

from math import pi as _pi

__version__ = "0.1.0"

# ``fdcorr study``'s sine functions ``sin(omega x)``, by name, for :mod:`fdcorr.numdiff`,
# which samples them, and for the ``study`` help, which must not load ``numdiff``.
_SINES = {"sin100pi": 100.0 * _pi, "sin1000pi": 1000.0 * _pi}

# The library modules, each after every one it imports; ``__all__`` sums theirs in this order.
_MODULES = ("exactmath", "gridops", "taylorseries", "defcor", "stencil", "numdiff")


def __getattr__(name: str) -> object:
    # Called only for a name the namespace lacks; each value found is bound
    # here, so the next read is a plain attribute.  No module exports an
    # underscore name, so those load nothing, nor does ``cli``, which
    # ``from fdcorr import cli`` probes for before importing it.
    if (name.startswith("_") and name != "__all__") or name == "cli":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)  # the import binds it here
    public = []  # no module exports ``__all__``, so reading it sums all six lists
    for short in _MODULES:
        module = importlib.import_module(f".{short}", __name__)
        if name in module.__all__:
            value = getattr(module, name)
            break
        public += module.__all__
    else:
        if name != "__all__":
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = public
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    import sys

    public = sys.modules[__name__].__all__  # first, as it imports every module
    return sorted({*globals(), *public})
