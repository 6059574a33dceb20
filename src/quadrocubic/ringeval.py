"""Symbolic evaluation of top intersection monomials on a blow-up chart.

The chart carries one hyperplane class H and one exceptional class E; a
top-degree monomial H^(n-i) E^i evaluates to 1 at i=0, to 0 below the
center codimension, to a signed center degree at the codimension itself,
and to a named unknown u_i above it. A product of divisor classes,
expanded by `evaluate.eval_expr` against such a table, is an
affine-linear form in those unknowns with polynomial constants; square
systems of such forms, integral in the unknowns' coefficients, are
solved by fraction-free elimination, in which every division is an exact
integer division.
"""

from __future__ import annotations

import re
from typing import Mapping, Sequence

from .poly import SYMBOLS, Poly, as_poly, signed_join


class DegreeMismatch(ValueError):
    """Total degree of an expression does not match the chart dimension."""


class InconsistentSystem(ValueError):
    """Linear system has no solution; carries the violated combination."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"inconsistent system: 0 = {witness}")


class NotIntegral(ValueError):
    """Linear system has a unique solution that is not integral; carries
    the positive common denominator and each unknown's numerator, so the
    solution is still exact: numerators[name] / denominator."""

    def __init__(self, denominator: int, numerators: dict[str, Poly]):
        self.denominator = denominator
        self.numerators = numerators
        name = next(name for name, num in numerators.items()
                    if any(c % denominator for c in num.terms.values()))
        super().__init__(
            f"solution is not integral: {name} = ({numerators[name]})/{denominator}")


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
    takes only forms whose unknowns have integer coefficients. Zero
    coefficients are never stored.
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

    def __add__(self, other) -> "LinearForm":
        if not isinstance(other, LinearForm):
            other = LinearForm(other)
        terms = dict(self.terms)
        for name, coeff in other.terms.items():
            terms[name] = terms.get(name, Poly()) + coeff
        return LinearForm(self.constant + other.constant, terms)

    def scale(self, factor) -> "LinearForm":
        factor = as_poly(factor)
        return LinearForm(
            self.constant * factor, {n: c * factor for n, c in self.terms.items()}
        )

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

    def value(self, i: int) -> str | tuple[int, tuple[int, int]]:
        """Entry i: the name of its unknown, or its constant value as the
        monomial (coefficient, exponents of d1 and d2)."""
        if not (0 <= i <= self.n):
            raise DegreeMismatch(f"exponent {i} outside 0..{self.n}")
        codim = self.n - self.m
        if i == 0:
            return 1, (0, 0)
        if i < codim:
            return 0, (0, 0)
        if i == codim:
            sign = (-1) ** (codim - 1)
            if self.deg in SYMBOLS:
                return sign, (1, 0) if self.deg == "d1" else (0, 1)
            return sign * self.deg, (0, 0)
        return f"u{i}"

    def entry(self, i: int) -> LinearForm:
        value = self.value(i)
        if type(value) is str:
            return LinearForm.unknown(value)
        coeff, exps = value
        return LinearForm(Poly({exps: coeff}))


def _exact(value: int, k: int) -> int:
    """value / k where the elimination proves that k divides value, so a
    remainder is a defect, never rounded away."""
    q, rest = divmod(value, k)
    if rest:
        raise ArithmeticError(f"inexact division of {value} by {k}")
    return q


def _combine(a: int, x: dict, b: int, y: dict) -> dict:
    """a*x - b*y on Poly terms, zeros dropped."""
    out = {exps: a * c for exps, c in x.items()}
    for exps, c in y.items():
        out[exps] = out.get(exps, 0) - b * c
    return {exps: c for exps, c in out.items() if c}


def solve_unknowns(
    equations: Sequence[tuple[LinearForm, object]],
) -> dict[str, Poly]:
    """Solve a linear system over the unknowns by fraction-free (Bareiss)
    elimination.

    Each equation is (form, required value); the value may be an int or
    a Poly. The unknowns' coefficients must be integers
    (a coefficient that is not raises ValueError naming it); the right
    sides are Polys. Every step of the elimination divides by the
    previous pivot, and by Sylvester's identity each such division is
    exact, so every entry stays an integer. Back substitution solves for
    |D| times each unknown, D the last pivot and so the determinant of
    the pivot rows, which by Cramer's rule is integral too.
    Pivoting takes the first nonzero entry in the current column, lowest
    row index first, so repeated runs are byte-identical. Raises
    InconsistentSystem with a violated integer combination, RankDeficient
    with the pinned/free split, or NotIntegral with the common
    denominator and the numerators when the unique solution is not
    integral.
    """
    names: set[str] = set()
    for form, _ in equations:
        names.update(form.terms)
    order = sorted(names, key=_unknown_key)
    index = {name: i for i, name in enumerate(order)}
    width = len(order)

    # row = integer coefficients of the unknowns, then the right side as
    # Poly terms
    rows: list[list] = []
    for form, required in equations:
        row: list = [0] * width + [(as_poly(required) - form.constant).terms]
        for name, coeff in form.terms.items():
            if not coeff.is_constant():
                raise ValueError(f"coefficient of {name} is not an integer: {coeff}")
            row[index[name]] = coeff.constant_value()
        rows.append(row)

    pivot_cols: list[int] = []
    previous = 1
    for col in range(width):
        r = len(pivot_cols)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        p = top[col]
        for row in rows[r + 1:]:
            f = row[col]
            row[col] = 0
            for j in range(col + 1, width):
                row[j] = _exact(p * row[j] - f * top[j], previous)
            row[width] = {e: _exact(c, previous)
                          for e, c in _combine(p, row[width], f, top[width]).items()}
        pivot_cols.append(col)
        previous = p

    r = len(pivot_cols)
    for row in rows[r:]:
        if row[width]:
            raise InconsistentSystem(Poly(row[width]))
    if r < width:
        free = [order[c] for c in range(width) if c not in pivot_cols]
        pinned = [order[c] for c in pivot_cols]
        raise RankDeficient(r, pinned, free)

    # full rank: row k pivots on column k, and the last pivot is the
    # determinant D of the pivot rows; numerators[k] = |D| * unknown k
    denominator = abs(previous)
    numerators: list[dict] = [{}] * width
    for k in reversed(range(width)):
        acc = {e: denominator * c for e, c in rows[k][width].items()}
        for j in range(k + 1, width):
            acc = _combine(1, acc, rows[k][j], numerators[j])
        numerators[k] = {e: _exact(c, rows[k][k]) for e, c in acc.items()}
    if any(c % denominator for terms in numerators for c in terms.values()):
        raise NotIntegral(denominator, {name: Poly(numerators[i])
                                        for i, name in enumerate(order)})
    return {name: Poly({e: c // denominator for e, c in numerators[i].items()})
            for i, name in enumerate(order)}
