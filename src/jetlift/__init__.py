"""Exact skew-symmetric multilinear Leibniz maps on truncated polynomial
algebras: closed-form construction, dimension count, and a brute-force
linear-algebra cross-check.

The package root holds the library API shown in the README; everything else
is imported from its own module (``jetlift.oracle`` for the linear-system
side, ``jetlift.verifier`` for the individual checks, and so on)."""

from .weil_algebra import AlgebraElement, AlgebraParams
from .lift_space import (
    CoefficientAssignment,
    LiftParams,
    LiftTable,
    construct,
    dimension,
    evaluate,
    free_cells,
)
from .verifier import run_all_checks

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "AlgebraParams",
    "CoefficientAssignment",
    "LiftParams",
    "LiftTable",
    "construct",
    "dimension",
    "evaluate",
    "free_cells",
    "run_all_checks",
    "__version__",
]
