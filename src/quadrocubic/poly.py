"""Exact polynomials in the two degree symbols d1, d2 with integer
coefficients.

Everything downstream (intersection tables, linear forms, the symbolic
linear solve) carries its constants as these polynomials, so divisibility
and sign arguments stay exact end to end. Every coefficient is an int:
the solver eliminates without fractions and reports a solution that is
not integral with its common denominator (`ringeval.NotIntegral`).
"""

from __future__ import annotations

from operator import index

SYMBOLS = ("d1", "d2")

Exponents = tuple[int, int]


def _monomial_key(exps: Exponents):
    # constant first, then ascending total degree; d1 before d2 within a degree
    i, j = exps
    return (i + j, -i, j)


class Poly:
    """Polynomial in d1, d2 with integer coefficients.

    A coefficient that is not an integer (a float, a rational) raises
    TypeError. Arithmetic returns a new Poly and never changes one in
    place. Zero coefficients are never stored, so two polynomials are
    equal exactly when their `terms` are.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict[Exponents, int] = {}
        if terms:
            for exps, coeff in terms.items():
                if type(coeff) is not int:
                    coeff = index(coeff)
                if coeff:
                    i, j = exps
                    if i < 0 or j < 0:
                        raise ValueError(f"negative exponent in {exps}")
                    clean[(i, j)] = coeff
        self.terms = clean

    @classmethod
    def const(cls, value) -> "Poly":
        return cls({(0, 0): value})

    # -- predicates ------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or self.terms.keys() == {(0, 0)}

    def constant_value(self) -> int:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.terms.get((0, 0), 0)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return Poly(terms)

    def __sub__(self, other) -> "Poly":
        other = as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) - c
        return Poly(terms)

    def __mul__(self, other) -> "Poly":
        other = as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict[Exponents, int] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                e = (i1 + i2, j1 + j2)
                terms[e] = terms.get(e, 0) + c1 * c2
        return Poly(terms)

    # -- rendering -------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=_monomial_key):
            coeff = self.terms[exps]
            mono = "*".join(
                (sym if e == 1 else f"{sym}^{e}")
                for sym, e in zip(SYMBOLS, exps)
                if e
            )
            if not mono:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = mono
            else:
                body = f"{abs(coeff)}*{mono}"
            sign = "-" if coeff < 0 else "+"
            parts.append((sign, body))
        return signed_join(parts)


def signed_join(parts: list[tuple[str, str]]) -> str:
    """Render (sign, body) terms as "a - b + c": a leading "+" is dropped."""
    sign, body = parts[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def as_poly(value) -> Poly:
    """Coerce an int or Poly to a Poly."""
    if isinstance(value, Poly):
        return value
    if isinstance(value, int):
        return Poly.const(value)
    return NotImplemented
