"""Arbitrary-order finite-difference formulas by iterated error-series correction.

The pipeline: difference words on a uniform grid (:mod:`fdcorr.gridops`)
expand to exact node/weight form; their Taylor error series
(:mod:`fdcorr.taylorseries`) drive a cancellation engine
(:mod:`fdcorr.defcor`) whose output flattens to a single stencil verified
against an independent moment-condition solver (:mod:`fdcorr.stencil`);
:mod:`fdcorr.numdiff` evaluates stencils in floating point and runs
convergence studies, and :mod:`fdcorr.cli` exposes all of it on the command
line.  Every coefficient is an exact rational.

``import fdcorr`` loads the five exact modules.  :mod:`fdcorr.numdiff` loads
on first use (PEP 562): reading ``fdcorr.numdiff``, one of its names,
``fdcorr.__all__`` or ``dir(fdcorr)``, or ``from fdcorr import *``, which binds
the same names as an eager import would.
"""

from math import pi as _pi

from .exactmath import *
from .gridops import *
from .taylorseries import *
from .defcor import *
from .stencil import *

__version__ = "0.1.0"

# ``fdcorr study``'s sine functions ``sin(omega x)``, by name, for :mod:`fdcorr.numdiff`,
# which samples them, and for the ``study`` help, which must not load ``numdiff``.
_SINES = {"sin100pi": 100.0 * _pi, "sin1000pi": 1000.0 * _pi}


def __getattr__(name: str) -> object:
    # Called only for a name the namespace lacks; each value found is bound
    # here, so the next read is a plain attribute.  numdiff exports no
    # underscore name, so those never load it, nor does ``cli``, which
    # ``from fdcorr import cli`` probes for before importing it.
    if (name.startswith("_") and name != "__all__") or name == "cli":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    numdiff = importlib.import_module(".numdiff", __name__)  # binds ``numdiff`` here
    if name == "__all__":
        modules = (exactmath, gridops, taylorseries, defcor, stencil, numdiff)
        value = [public for module in modules for public in module.__all__]
    elif name in numdiff.__all__:
        value = getattr(numdiff, name)
    elif name == "numdiff":
        return numdiff
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    import sys

    public = sys.modules[__name__].__all__  # first, as it may bind ``numdiff``
    return sorted({*globals(), *public})
