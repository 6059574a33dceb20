"""Symbolic evaluation of top intersection monomials on a blow-up chart.

The chart carries one hyperplane class H and one exceptional class E; a
top-degree monomial H^(n-i) E^i evaluates to 1 at i=0, to 0 below the
center codimension, to a signed center degree at the codimension itself,
and to a named unknown u_i above it. A product of divisor classes,
expanded by `evaluate.eval_expr` against such a table, is an
affine-linear form in those unknowns with polynomial constants; square
systems of such forms, rational in the unknowns' coefficients, are
solved by elimination; every division is a Fraction(a, b), so integral
entries never turn into floats.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping, Sequence

from .poly import Poly, as_poly, signed_join


class DegreeMismatch(ValueError):
    """Total degree of an expression does not match the chart dimension."""


class InconsistentSystem(ValueError):
    """Linear system has no solution; carries the violated combination."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"inconsistent system: 0 = {witness}")


class RankDeficient(ValueError):
    """Linear system does not pin every unknown; carries a rank report."""

    def __init__(self, rank: int, pinned: list[str], free: list[str]):
        self.rank = rank
        self.pinned = pinned
        self.free = free
        super().__init__(f"rank {rank}: free unknowns {free}")


def _unknown_key(name: str):
    m = re.fullmatch(r"([a-zA-Z]+)(\d+)", name)
    return (m.group(1), int(m.group(2))) if m else (name, -1)


def _coefficient(value) -> Poly:
    poly = as_poly(value)
    if poly is NotImplemented:
        raise TypeError(f"not an exact coefficient: {value!r}")
    return poly


class LinearForm:
    """constant + sum of coeff * unknown, all coefficients exact.

    Coefficients live in the polynomial ring over d1, d2; solve_unknowns
    takes only forms whose unknowns have rational coefficients. Zero
    coefficients are never stored; equality is coefficient-wise.
    """

    __slots__ = ("constant", "terms")

    def __init__(self, constant=0, terms: Mapping[str, object] | None = None):
        self.constant = _coefficient(constant)
        clean: dict[str, Poly] = {}
        if terms:
            for name, coeff in terms.items():
                coeff = _coefficient(coeff)
                if coeff:
                    clean[name] = coeff
        self.terms = clean

    @classmethod
    def unknown(cls, name: str) -> "LinearForm":
        return cls(0, {name: 1})

    def is_constant(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearForm):
            coerced = as_poly(other)
            if coerced is NotImplemented:
                return NotImplemented
            other = LinearForm(coerced)
        return self.constant == other.constant and self.terms == other.terms

    def __add__(self, other) -> "LinearForm":
        if not isinstance(other, LinearForm):
            other = LinearForm(other)
        terms = dict(self.terms)
        for name, coeff in other.terms.items():
            terms[name] = terms.get(name, Poly()) + coeff
        return LinearForm(self.constant + other.constant, terms)

    __radd__ = __add__

    def scale(self, factor) -> "LinearForm":
        factor = as_poly(factor)
        return LinearForm(
            self.constant * factor, {n: c * factor for n, c in self.terms.items()}
        )

    __rmul__ = scale
    __mul__ = scale

    def __str__(self) -> str:
        parts: list[tuple[str, str]] = []
        if self.constant or not self.terms:
            text = str(self.constant)
            parts.append(("-", text[1:].lstrip()) if text.startswith("-") else ("+", text))
        for name in sorted(self.terms, key=_unknown_key):
            coeff = self.terms[name]
            if coeff.is_constant():
                value = coeff.constant_value()
                sign = "-" if value < 0 else "+"
                body = name if abs(value) == 1 else f"{abs(value)}*{name}"
            else:
                sign = "+"
                body = f"({coeff})*{name}"
            parts.append((sign, body))
        return signed_join(parts)

    def __repr__(self) -> str:
        return f"LinearForm({self})"


class IntersectionTable:
    """Values of H^(n-i) E^i on a chart whose center has dimension m.

    deg is the center degree: an integer, or the symbol 'd1'/'d2'.
    Entries above the center codimension are the unknowns u_i.
    """

    __slots__ = ("n", "m", "deg")

    def __init__(self, n: int, m: int, deg):
        if not (1 <= m <= n - 2):
            raise ValueError(f"need 1 <= m <= n-2, got n={n}, m={m}")
        self.n, self.m, self.deg = n, m, deg

    def entry(self, i: int) -> LinearForm:
        if not (0 <= i <= self.n):
            raise DegreeMismatch(f"exponent {i} outside 0..{self.n}")
        codim = self.n - self.m
        if i == 0:
            return LinearForm(1)
        if i < codim:
            return LinearForm(0)
        if i == codim:
            sign = (-1) ** (codim - 1)
            return LinearForm(as_poly(self.deg) * sign)
        return LinearForm.unknown(f"u{i}")


def solve_unknowns(
    equations: Sequence[tuple[LinearForm, object]],
) -> dict[str, Poly]:
    """Solve a linear system over the unknowns by Gaussian elimination.

    Each equation is (form, required value); the value may be an int,
    Fraction, degree symbol, or Poly. Pivots are rationals, ints where
    integral, so every division is a Fraction(a, b): dividing two ints
    with `/` gives a float. A coefficient of an unknown that is not a
    rational raises ValueError naming it.
    Pivoting takes the first nonzero entry in the current column, lowest
    row index first, so repeated runs are byte-identical. Raises
    InconsistentSystem with the violated combination, or RankDeficient
    with the pinned/free split.
    """
    names: set[str] = set()
    for form, _ in equations:
        names.update(form.terms)
    order = sorted(names, key=_unknown_key)
    index = {name: i for i, name in enumerate(order)}
    width = len(order)

    # row = rational coefficients of the unknowns, then the Poly right side
    rows: list[list] = []
    for form, required in equations:
        row: list = [0] * width + [as_poly(required) - form.constant]
        for name, coeff in form.terms.items():
            if not coeff.is_constant():
                raise ValueError(f"coefficient of {name} is not a rational: {coeff}")
            row[index[name]] = coeff.constant_value()
        rows.append(row)

    pivot_cols: list[int] = []
    for col in range(width):
        r = len(pivot_cols)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for row in rows[r + 1:]:
            factor = Fraction(row[col], rows[r][col])
            for j in range(col, width + 1):
                row[j] -= factor * rows[r][j]
        pivot_cols.append(col)

    r = len(pivot_cols)
    for row in rows[r:]:
        if row[width]:
            raise InconsistentSystem(row[width])
    if r < width:
        free = [order[c] for c in range(width) if c not in pivot_cols]
        pinned = [order[c] for c in pivot_cols]
        raise RankDeficient(r, pinned, free)

    # full rank: row k pivots on column k
    solution: dict[str, Poly] = {}
    for k in reversed(range(width)):
        acc = rows[k][width]
        for j in range(k + 1, width):
            acc -= rows[k][j] * solution[order[j]]
        solution[order[k]] = acc * Fraction(1, rows[k][k])
    return {name: solution[name] for name in order}
