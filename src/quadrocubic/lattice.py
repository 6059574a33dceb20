"""Rank-2 Picard lattice of the double blow-up variety.

A divisor class lives in one of two chart bases, {H1, E1} or {H2, E2},
coming from the two blow-down maps to projective space. The pairing
numbers a, c, d of the hyperplane and exceptional classes against the
two contracted curve classes determine an integral basis change between
the charts with determinant -1.
"""

from __future__ import annotations

from fractions import Fraction


class ChartMismatch(ValueError):
    """Arithmetic attempted between divisor classes in different charts."""


class ConstraintViolation(ValueError):
    """A named integrality or positivity constraint failed."""

    def __init__(self, name: str, message: str):
        self.name = name
        super().__init__(f"{name}: {message}")


class GeometryParams:
    """Ambient dimension n and the two center dimensions m1 > m2."""

    __slots__ = ("n", "m1", "m2")

    def __init__(self, n: int, m1: int, m2: int):
        if n < 4:
            raise ConstraintViolation("dimension-floor", f"n={n} < 4")
        if not (n - 2 >= m1 > m2 >= 1):
            raise ConstraintViolation(
                "center-dims",
                f"need n-2 >= m1 > m2 >= 1, got n={n}, m1={m1}, m2={m2}",
            )
        self.n, self.m1, self.m2 = n, m1, m2


class LatticeParams:
    """Pairing numbers a = H1.F2, c = E1.F2, d = E2.F1.

    The basis change also takes H2.F1 = a: the symmetry of the two
    hyperplane pairings is part of the setting, not a checked number.
    """

    __slots__ = ("a", "c", "d")

    def __init__(self, a: int, c: int, d: int):
        if a <= 0 or c <= 0 or d <= 0:
            raise ConstraintViolation(
                "pairing-positivity", f"need a, c, d > 0, got {a}, {c}, {d}"
            )
        self.a, self.c, self.d = a, c, d


class DivisorClass:
    """Exact 2-vector in the basis {H, E} of one chart."""

    __slots__ = ("chart", "h", "e")

    def __init__(self, chart: int, h, e):
        if chart not in (1, 2):
            raise ValueError(f"chart must be 1 or 2, got {chart}")
        self.chart, self.h, self.e = chart, Fraction(h), Fraction(e)

    def __eq__(self, other):
        if not isinstance(other, DivisorClass):
            return NotImplemented
        return (self.chart, self.h, self.e) == (other.chart, other.h, other.e)

    def __repr__(self):
        return f"DivisorClass({self.chart}, {self.h!r}, {self.e!r})"


class BasisChange:
    """Integral 2x2 matrix sending chart-1 coordinates to chart-2 ones.

    Row 1 holds the chart-2 coordinates of H1, row 2 those of E1.
    """

    __slots__ = ("m11", "m12", "m21", "m22")

    def __init__(self, m11: int, m12: int, m21: int, m22: int):
        self.m11, self.m12, self.m21, self.m22 = m11, m12, m21, m22

    def determinant(self) -> int:
        return self.m11 * self.m22 - self.m12 * self.m21

    def apply(self, dc: DivisorClass) -> DivisorClass:
        if dc.chart != 1:
            raise ChartMismatch("basis change maps chart-1 classes to chart 2")
        return DivisorClass(
            2,
            dc.h * self.m11 + dc.e * self.m21,
            dc.h * self.m12 + dc.e * self.m22,
        )

    def inverse(self) -> "BasisChange":
        det = self.determinant()
        if det not in (1, -1):
            raise ConstraintViolation("unimodularity", f"determinant {det} is not a unit")
        return BasisChange(self.m22 // det, -self.m12 // det, -self.m21 // det, self.m11 // det)

    def apply_inverse(self, dc: DivisorClass) -> DivisorClass:
        if dc.chart != 2:
            raise ChartMismatch("inverse basis change maps chart-2 classes to chart 1")
        inv = self.inverse()
        return DivisorClass(
            1,
            dc.h * inv.m11 + dc.e * inv.m21,
            dc.h * inv.m12 + dc.e * inv.m22,
        )


def solve_basis_change(lp: LatticeParams) -> BasisChange:
    """Basis change determined by the pairing numbers.

    H1 = d*H2 - a*E2 and E1 = ((cd-1)/a)*H2 - c*E2; requires a | cd-1,
    and the resulting matrix always has determinant -1.
    """
    cd_minus_1 = lp.c * lp.d - 1
    if cd_minus_1 % lp.a != 0:
        raise ConstraintViolation(
            "a-divides-cd-minus-1", f"a={lp.a} does not divide c*d-1={cd_minus_1}"
        )
    bc = BasisChange(lp.d, -lp.a, cd_minus_1 // lp.a, -lp.c)
    assert bc.determinant() == -1
    return bc


def canonical_class(chart: int, gp: GeometryParams) -> DivisorClass:
    """-(n+1)*H + (n - m - 1)*E in the requested chart (m = that chart's
    center dimension)."""
    m = gp.m1 if chart == 1 else gp.m2
    return DivisorClass(chart, -(gp.n + 1), gp.n - m - 1)
