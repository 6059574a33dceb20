"""Exact polynomials in the two degree symbols d1, d2 over the rationals.

Everything downstream (intersection tables, linear forms, the symbolic
linear solve) carries its constants as these polynomials, so divisibility
and sign arguments stay exact end to end. A coefficient is stored as an
int, or as a Fraction only when its value is not integral: the case-2
system and its solution are integral, and int arithmetic is the cheaper.
"""

from __future__ import annotations

from fractions import Fraction

SYMBOLS = ("d1", "d2")

Exponents = tuple[int, int]


def _monomial_key(exps: Exponents):
    # constant first, then ascending total degree; d1 before d2 within a degree
    i, j = exps
    return (i + j, -i, j)


class Poly:
    """Polynomial in d1, d2 with rational coefficients, each an int, or a
    Fraction when its value is not integral (Fraction(4, 2) is stored as 2).

    Immutable once constructed; zero coefficients are never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict[Exponents, int | Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                if type(coeff) is not int:
                    if type(coeff) is not Fraction:
                        coeff = Fraction(coeff)
                    if coeff.denominator == 1:
                        coeff = coeff.numerator
                if coeff:
                    i, j = exps
                    if i < 0 or j < 0:
                        raise ValueError(f"negative exponent in {exps}")
                    clean[(i, j)] = coeff
        self.terms = clean

    @classmethod
    def const(cls, value) -> "Poly":
        return cls({(0, 0): value})

    @classmethod
    def symbol(cls, name: str) -> "Poly":
        if name not in SYMBOLS:
            raise ValueError(f"unknown degree symbol {name!r}")
        exps = (1, 0) if name == "d1" else (0, 1)
        return cls({exps: 1})

    # -- predicates ------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or self.terms.keys() == {(0, 0)}

    def constant_value(self) -> int | Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.terms.get((0, 0), 0)

    def coeff(self, exps: Exponents) -> int | Fraction:
        return self.terms.get(tuple(exps), 0)

    # -- arithmetic ------------------------------------------------------

    def __eq__(self, other) -> bool:
        other = as_poly(other)
        return other is not NotImplemented and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self) -> "Poly":
        return Poly({e: -c for e, c in self.terms.items()})

    def __add__(self, other) -> "Poly":
        other = as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return Poly(terms)

    __radd__ = __add__

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
        terms: dict[Exponents, int | Fraction] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                e = (i1 + i2, j1 + j2)
                terms[e] = terms.get(e, 0) + c1 * c2
        return Poly(terms)

    __rmul__ = __mul__

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

    def __repr__(self) -> str:
        return f"Poly({self})"


def signed_join(parts: list[tuple[str, str]]) -> str:
    """Render (sign, body) terms as "a - b + c": a leading "+" is dropped."""
    sign, body = parts[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def as_poly(value) -> Poly:
    """Coerce an int, Fraction, symbol name, or Poly to a Poly."""
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(value)
    if isinstance(value, str) and value in SYMBOLS:
        return Poly.symbol(value)
    return NotImplemented
