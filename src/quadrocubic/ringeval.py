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

A polynomial in the degree symbols d1, d2 is a dict {(i, j): c} of the
integer coefficient c of d1^i d2^j, with no zero coefficient stored, so
two polynomials are equal exactly when their dicts are.
"""

from __future__ import annotations

from operator import index
from typing import Mapping, Sequence

SYMBOLS = ("d1", "d2")


def _terms(p: dict) -> list[tuple[str, str]]:
    """(sign, body) for each term of a polynomial: the constant first, then
    ascending total degree, d1 before d2 within a degree."""
    parts = []
    for i, j in sorted(p, key=lambda e: (e[0] + e[1], -e[0], e[1])):
        coeff = p[i, j]
        factors = [f"{sym}^{e}" if e > 1 else sym for sym, e in zip(SYMBOLS, (i, j)) if e]
        if abs(coeff) != 1 or not factors:
            factors.insert(0, str(abs(coeff)))
        parts.append(("-" if coeff < 0 else "+", "*".join(factors)))
    return parts


def signed_join(parts: list[tuple[str, str]]) -> str:
    """Render (sign, body) terms as "a - b + c", dropping a leading "+",
    and no terms as "0"."""
    text = " ".join(f"{sign} {body}" for sign, body in parts) or "+ 0"
    return text[2:] if text[0] == "+" else "-" + text[2:]


def format_poly(p: dict) -> str:
    """A polynomial as text: "512 - 2016*d2", "-37 - d1 + 12*d2", "0"."""
    return signed_join(_terms(p))


def _unknown_key(name: str) -> tuple[int, str]:
    """Solve order of the unknowns u0, u1, ..., u10, ...: every name is
    u{i} (IntersectionTable.value), so shorter sorts first."""
    return len(name), name


def _poly(value) -> dict:
    """An int, or a polynomial, as a polynomial with its zero coefficients
    dropped. A coefficient that is not an integer (a float, a rational)
    raises TypeError."""
    if type(value) is not dict:
        value = {(0, 0): value}
    return {exps: coeff for exps, coeff in zip(value, map(index, value.values())) if coeff}


class LinearForm:
    """constant + sum of coeff * unknown, each coefficient a polynomial.

    solve_unknowns takes only forms whose unknowns have integer
    coefficients. Zero coefficients are never stored. `+` and `scale`
    serve perfbench's eval oracle, which builds its expected value from
    table entries.
    """

    __slots__ = ("constant", "terms")

    def __init__(self, constant=0, terms: Mapping[str, object] | None = None):
        self.constant = _poly(constant)
        polys = {name: _poly(coeff) for name, coeff in (terms or {}).items()}
        self.terms = {name: p for name, p in polys.items() if p}

    def __add__(self, other: "LinearForm") -> "LinearForm":
        terms = dict(self.terms)
        for name, coeff in other.terms.items():
            terms[name] = _combine(1, terms.get(name, {}), -1, coeff)
        return LinearForm(_combine(1, self.constant, -1, other.constant), terms)

    def scale(self, factor: int) -> "LinearForm":
        factor = index(factor)
        return LinearForm({e: factor * c for e, c in self.constant.items()},
                          {n: {e: factor * c for e, c in p.items()}
                           for n, p in self.terms.items()})

    def __str__(self) -> str:
        parts = _terms(self.constant)
        for name in sorted(self.terms, key=_unknown_key):
            coeff = self.terms[name]
            if coeff.keys() == {(0, 0)}:
                value = coeff[(0, 0)]
                body = name if abs(value) == 1 else f"{abs(value)}*{name}"
                parts.append(("-" if value < 0 else "+", body))
            else:
                parts.append(("+", f"({format_poly(coeff)})*{name}"))
        return signed_join(parts)


class IntersectionTable:
    """Values of H^(n-i) E^i on a chart whose center has dimension m.

    deg is the center degree: an integer >= 1, or the symbol 'd1'/'d2'.
    Entries above the center codimension are the unknowns u_i.
    """

    __slots__ = ("n", "m", "deg")

    def __init__(self, n: int, m: int, deg):
        if not (1 <= m <= n - 2):
            raise ValueError(f"need 1 <= m <= n-2, got n={n}, m={m}")
        if not (deg in SYMBOLS or type(deg) is int and deg >= 1):  # a bool is refused
            raise ValueError(f"need deg d1, d2 or an integer >= 1, got {deg!r}")
        self.n, self.m, self.deg = n, m, deg

    def value(self, i: int) -> str | tuple[int, tuple[int, int]]:
        """Entry i: the name of its unknown, or its constant value as the
        monomial (coefficient, exponents of d1 and d2)."""
        if not (0 <= i <= self.n):
            raise ValueError(f"exponent {i} outside 0..{self.n}")
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
            return LinearForm(0, {value: 1})
        coeff, exps = value
        return LinearForm({exps: coeff})


def _exact(value: int, k: int) -> int:
    """value / k where the elimination proves that k divides value, so a
    remainder is a defect, never rounded away."""
    q, rest = divmod(value, k)
    if rest:
        raise ArithmeticError(f"inexact division of {value} by {k}")
    return q


def _combine(a: int, x: dict, b: int, y: dict) -> dict:
    """a*x - b*y on polynomials, zeros dropped."""
    out = {exps: a * c for exps, c in x.items()}
    for exps, c in y.items():
        out[exps] = out.get(exps, 0) - b * c
    return {exps: c for exps, c in out.items() if c}


def solve_unknowns(
    equations: Sequence[tuple[LinearForm, object]],
) -> dict[str, dict]:
    """Solve a linear system over the unknowns by fraction-free (Bareiss)
    elimination.

    Each equation is (form, required value); the value may be an int or
    a polynomial. The unknowns' coefficients must be integers
    (a coefficient that is not raises ValueError naming it); the right
    sides are polynomials. Every step of the elimination divides by the
    previous pivot, and by Sylvester's identity each such division is
    exact, so every entry stays an integer. Back substitution solves for
    |D| times each unknown, D the last pivot and so the determinant of
    the pivot rows, which by Cramer's rule is integral too.
    Pivoting takes the first nonzero entry in the current column, lowest
    row index first, so repeated runs are byte-identical. Raises
    ValueError naming the violated combination (0 = a nonzero right
    side), the free unknowns, or, when the unique solution is not
    integral, the first unknown in solve order that is not, with its
    numerator and the common denominator |D|.
    """
    names: set[str] = set()
    for form, _ in equations:
        names.update(form.terms)
    order = sorted(names, key=_unknown_key)
    column = {name: i for i, name in enumerate(order)}
    width = len(order)

    # row = integer coefficients of the unknowns, then the right side as
    # a polynomial
    rows: list[list] = []
    for form, required in equations:
        row: list = [0] * width + [_combine(1, _poly(required), 1, form.constant)]
        for name, coeff in form.terms.items():
            if coeff.keys() != {(0, 0)}:
                raise ValueError(f"coefficient of {name} is not an integer: {format_poly(coeff)}")
            row[column[name]] = coeff[(0, 0)]
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
            raise ValueError(f"inconsistent system: 0 = {format_poly(row[width])}")
    if r < width:
        free = [order[c] for c in range(width) if c not in pivot_cols]
        raise ValueError(f"rank {r}: free unknowns {free}")

    # full rank: row k pivots on column k, and the last pivot is the
    # determinant D of the pivot rows; numerators[k] = |D| * unknown k
    denominator = abs(previous)
    numerators: list[dict] = [{}] * width
    for k in reversed(range(width)):
        acc = {e: denominator * c for e, c in rows[k][width].items()}
        for j in range(k + 1, width):
            acc = _combine(1, acc, rows[k][j], numerators[j])
        numerators[k] = {e: _exact(c, rows[k][k]) for e, c in acc.items()}
    for name, numerator in zip(order, numerators):
        if any(c % denominator for c in numerator.values()):
            raise ValueError(f"solution is not integral: "
                             f"{name} = ({format_poly(numerator)})/{denominator}")
    return {name: {e: c // denominator for e, c in numerators[i].items()}
            for i, name in enumerate(order)}
