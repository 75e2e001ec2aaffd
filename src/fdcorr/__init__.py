"""Arbitrary-order finite-difference formulas by iterated error-series correction.

The pipeline: difference words on a uniform grid (:mod:`fdcorr.gridops`)
expand to exact node/weight form; their Taylor error series
(:mod:`fdcorr.taylorseries`) drive a cancellation engine
(:mod:`fdcorr.defcor`) whose output flattens to a single stencil verified
against an independent moment-condition solver (:mod:`fdcorr.stencil`);
:mod:`fdcorr.numdiff` evaluates stencils in floating point and runs
convergence studies, and :mod:`fdcorr.cli` exposes all of it on the command
line.  Every coefficient is an exact rational.
"""

from .exactmath import *
from .gridops import *
from .taylorseries import *
from .defcor import *
from .stencil import *
from .numdiff import *

__version__ = "0.1.0"

__all__: list[str] = []
__all__ += exactmath.__all__
__all__ += gridops.__all__
__all__ += taylorseries.__all__
__all__ += defcor.__all__
__all__ += stencil.__all__
__all__ += numdiff.__all__
