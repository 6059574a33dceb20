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
    ExclusionFailure,
    enumerate_candidates,
    exclude_case2,
    verify_main_theorem,
)
from .evaluate import eval_expr
from .parser import ParseError, parse_expr
from .ringeval import DegreeMismatch

__all__ = [
    "__version__",
    "CASE1",
    "CASE2",
    "DegreeMismatch",
    "ExclusionFailure",
    "ParseError",
    "enumerate_candidates",
    "eval_expr",
    "exclude_case2",
    "parse_expr",
    "verify_main_theorem",
]
