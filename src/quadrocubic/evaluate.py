"""Expansion of parsed expressions and their evaluation against an
intersection table.

This is the package's one expander of products of H and E: the `eval`
command and the case-2 system of `classify` both go through `eval_expr`.
"""

from __future__ import annotations

from .parser import Add, Gen, Group, IntLit, Mul, Node, Pow, Sub, Sym
from .poly import Poly
from .ringeval import DegreeMismatch, IntersectionTable, LinearForm

# sparse polynomial in H, E, d1, d2: {(h, e, i, j): integer coefficient of
# H^h E^e d1^i d2^j}; zero coefficients are never stored
Expansion = dict[tuple[int, int, int, int], int]


def _mul(p: Expansion, q: Expansion, n: int) -> Expansion:
    """p*q, rejected unexpanded when its highest degree in (H, E) exceeds
    n: that part of p*q is the product of the factors' nonzero
    highest-degree parts, and Q[H, E, d1, d2] has no zero divisors, so it
    is nonzero. Every product that is kept has degree at most n."""
    if p and q:
        top = max(h + e for h, e, _, _ in p) + max(h + e for h, e, _, _ in q)
        if top > n:
            raise DegreeMismatch(f"expected homogeneous degree {n}, found a product of degree {top}")
    out: Expansion = {}
    for (h1, e1, i1, j1), c1 in p.items():
        for (h2, e2, i2, j2), c2 in q.items():
            key = (h1 + h2, e1 + e2, i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {key: coeff for key, coeff in out.items() if coeff}


def _expand(node: Node, n: int) -> Expansion:
    """Expand the expression. A power above n is rejected before any
    multiplication, so no power costs more than n products, and `_mul`
    rejects a product with any part above degree n before expanding it."""
    if isinstance(node, IntLit):
        return {(0, 0, 0, 0): node.value} if node.value else {}
    if isinstance(node, Gen):
        return {(1, 0, 0, 0) if node.name == "H" else (0, 1, 0, 0): 1}
    if isinstance(node, Sym):
        return {(0, 0, 1, 0) if node.name == "d1" else (0, 0, 0, 1): 1}
    if isinstance(node, Group):
        return _expand(node.inner, n)
    if isinstance(node, Pow):
        base = _expand(node.base, n)
        if node.exponent > n:
            if any(h + e for h, e, _, _ in base):
                raise DegreeMismatch(
                    f"exponent {node.exponent} exceeds n = {n} on a base of positive degree"
                )
            raise ValueError(f"exponent {node.exponent} exceeds n = {n} on a scalar base")
        result: Expansion = {(0, 0, 0, 0): 1}
        for _ in range(node.exponent):
            result = _mul(result, base, n)
        return result
    if isinstance(node, Mul):
        # the parser nests a product to the left, one level per factor, so
        # fold the chain in a loop, multiplying from the left as written
        rights = []
        while isinstance(node, Mul):
            rights.append(node.right)
            node = node.left
        result = _expand(node, n)
        for right in reversed(rights):
            result = _mul(result, _expand(right, n), n)
        return result
    if isinstance(node, (Add, Sub)):
        # A sum nests to the left too. When several terms are at fault, the
        # order the terms expand in decides which one the error names, and
        # that order is kept: the right side of a '-' expands before all
        # that is left of it, the right side of a '+' after.
        first: list[tuple[int, Node]] = []
        last: list[tuple[int, Node]] = []
        while isinstance(node, (Add, Sub)):
            if isinstance(node, Sub):
                first.append((-1, node.right))
            else:
                last.append((1, node.right))
            node = node.left
        total: Expansion = {}
        for sign, term in first + [(1, node)] + last[::-1]:
            for key, coeff in _expand(term, n).items():
                total[key] = total.get(key, 0) + sign * coeff
        return {key: coeff for key, coeff in total.items() if coeff}
    raise TypeError(f"not an expression node: {node!r}")


def eval_expr(ast: Node, n: int, m: int, deg) -> LinearForm:
    """Expand the expression and evaluate each monomial H^(n-k) E^k
    against the table for an m-dimensional center of degree `deg`."""
    table = IntersectionTable(n, m, deg)
    expansion = _expand(ast, n)
    bad = sorted(h + e for h, e, _, _ in expansion if h + e != n)
    if bad:
        raise DegreeMismatch(f"expected homogeneous degree {n}, found degree {bad[0]}")
    # the d1, d2 coefficient of each H^(n-k) E^k
    by_e: dict[int, dict[tuple[int, int], int]] = {}
    for (_, e, i, j), coeff in expansion.items():
        by_e.setdefault(e, {})[(i, j)] = coeff
    # each entry is a constant or one unknown u_e, so no unknown repeats
    constant, terms = Poly(), {}
    for e, coeffs in by_e.items():
        entry = table.entry(e).scale(Poly(coeffs))
        constant = constant + entry.constant
        terms.update(entry.terms)
    return LinearForm(constant, terms)
