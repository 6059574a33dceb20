"""Rank-2 Picard lattice of the double blow-up variety.

A divisor class is a pair (h, e) of integers in one of two chart bases,
{H1, E1} or {H2, E2}, coming from the two blow-down maps to projective
space. The pairing numbers a, c, d of the hyperplane and exceptional
classes against the two contracted curve classes determine an integral
basis change between the charts with determinant -1, kept as the tuple
(m11, m12, m21, m22).
"""

from __future__ import annotations


def solve_basis_change(a: int, c: int, d: int) -> tuple[int, int, int, int]:
    """The basis change (m11, m12, m21, m22) sending chart-1 coordinates to
    chart-2 ones, from the pairings a = H1.F2, c = E1.F2, d = E2.F1.

    Row 1 holds the chart-2 coordinates of H1, row 2 those of E1:
    H1 = d*H2 - a*E2 and E1 = ((cd-1)/a)*H2 - c*E2. It also takes
    H2.F1 = a: the symmetry of the two hyperplane pairings is part of the
    setting, not a checked number. The determinant is
    -c*d + a*(cd-1)/a = -1. Raises ValueError unless a, c, d > 0 and
    a | cd-1.
    """
    if a <= 0 or c <= 0 or d <= 0:
        raise ValueError(f"need a, c, d > 0, got {a}, {c}, {d}")
    cd_minus_1 = c * d - 1
    if cd_minus_1 % a:
        raise ValueError(f"a={a} does not divide c*d-1={cd_minus_1}")
    return d, -a, cd_minus_1 // a, -c


def apply(m: tuple[int, int, int, int], h: int, e: int) -> tuple[int, int]:
    """The image of the class h*H + e*E under the basis change m."""
    m11, m12, m21, m22 = m
    return h * m11 + e * m21, h * m12 + e * m22


def inverse(m: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """The inverse of a basis change of determinant -1, which is integral:
    the adjugate (m22, -m12, -m21, m11) divided by -1."""
    m11, m12, m21, m22 = m
    return -m22, m12, m21, -m11


def canonical_class(n: int, m: int) -> tuple[int, int]:
    """-(n+1)*H + (n - m - 1)*E, the canonical class of the chart whose
    center has dimension m."""
    return -(n + 1), n - m - 1
