"""Exact-arithmetic classification of smooth varieties with two blow-up
structures over projective space.

The package enumerates candidate parameter tuples (n, a, c, d, m1, m2)
under a chain of lattice, numerical, and cohomological constraints,
excludes the nine-dimensional near-miss by a degree contradiction, and
certifies (4, 1, 3, 2, 2, 1) as the unique configuration. All arithmetic
is exact and in integers: no rationals, no floats. The one linear solve
eliminates without fractions.
"""

__version__ = "0.1.0"

from .classify import (
    CASE1,
    CASE2,
    ConfigTuple,
    ExclusionFailure,
    closed_form_dims,
    enumerate_candidates,
    exclude_case2,
    scan_backend,
    verify_main_theorem,
)
from .lattice import (
    BasisChange,
    ChartMismatch,
    ConstraintViolation,
    DivisorClass,
    GeometryParams,
    LatticeParams,
    canonical_class,
    solve_basis_change,
)
from .parser import ParseError, parse_expr, print_expr
from .evaluate import eval_expr
from .poly import Poly
from .ringeval import (
    DegreeMismatch,
    InconsistentSystem,
    IntersectionTable,
    LinearForm,
    NotIntegral,
    RankDeficient,
    solve_unknowns,
)

__all__ = [
    "__version__",
    "CASE1",
    "CASE2",
    "BasisChange",
    "ChartMismatch",
    "ConfigTuple",
    "ConstraintViolation",
    "DegreeMismatch",
    "DivisorClass",
    "ExclusionFailure",
    "GeometryParams",
    "InconsistentSystem",
    "IntersectionTable",
    "LatticeParams",
    "LinearForm",
    "NotIntegral",
    "ParseError",
    "Poly",
    "RankDeficient",
    "canonical_class",
    "closed_form_dims",
    "enumerate_candidates",
    "eval_expr",
    "exclude_case2",
    "parse_expr",
    "print_expr",
    "scan_backend",
    "solve_basis_change",
    "solve_unknowns",
    "verify_main_theorem",
]
