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

from .defcor import (
    CorrectionFormula,
    DegenerateChoiceError,
    backward_centered,
    centered_average_formula,
    centered_formula,
    forward_centered,
    general_defcor,
    interior_centered,
    standard_backward,
    standard_forward,
)
from .exactmath import Rational, binom, format_rational, moment_sum
from .gridops import (
    GridFunction,
    GridRangeError,
    OperatorExpr,
    apply,
    expand,
    normalize_composite,
    product_rule_check,
    word,
)
from .numdiff import ConvergenceReport, apply_stencil, convergence_studies, convergence_study
from .stencil import FlattenError, Stencil, StencilCheck, flatten, oracle_weights, verify
from .taylorseries import ErrorSeries, default_truncation, error_series, series_from_nodes

__version__ = "0.1.0"

__all__ = [
    "CorrectionFormula",
    "ConvergenceReport",
    "DegenerateChoiceError",
    "ErrorSeries",
    "FlattenError",
    "GridFunction",
    "GridRangeError",
    "OperatorExpr",
    "Rational",
    "Stencil",
    "StencilCheck",
    "apply",
    "apply_stencil",
    "backward_centered",
    "binom",
    "centered_average_formula",
    "centered_formula",
    "convergence_studies",
    "convergence_study",
    "default_truncation",
    "error_series",
    "expand",
    "flatten",
    "format_rational",
    "forward_centered",
    "general_defcor",
    "interior_centered",
    "moment_sum",
    "normalize_composite",
    "oracle_weights",
    "product_rule_check",
    "series_from_nodes",
    "standard_backward",
    "standard_forward",
    "verify",
    "word",
]
