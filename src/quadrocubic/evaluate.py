"""Evaluation of parsed expressions against an intersection table."""

from __future__ import annotations

from .parser import Add, Gen, Group, IntLit, Mul, Node, Pow, Sub, Sym
from .poly import Poly
from .ringeval import DegreeMismatch, IntersectionTable, LinearForm

# polynomial in the two chart generators: {(h_exp, e_exp): Poly coefficient}
TwoGen = dict[tuple[int, int], Poly]


def _add(p: TwoGen, q: TwoGen) -> TwoGen:
    out = dict(p)
    for key, coeff in q.items():
        total = out.get(key, Poly()) + coeff
        if total:
            out[key] = total
        elif key in out:
            del out[key]
    return out


def _mul(p: TwoGen, q: TwoGen, n: int) -> TwoGen:
    """p*q, rejected unexpanded when its highest total degree exceeds n: that
    part of p*q is the product of the factors' nonzero highest-degree parts,
    and the coefficients have no zero divisors, so it is nonzero. Every
    product that is kept has degree at most n."""
    if p and q:
        top = max(h + e for h, e in p) + max(h + e for h, e in q)
        if top > n:
            raise DegreeMismatch(f"expected homogeneous degree {n}, found a product of degree {top}")
    out: TwoGen = {}
    for (h1, e1), c1 in p.items():
        for (h2, e2), c2 in q.items():
            key = (h1 + h2, e1 + e2)
            total = out.get(key, Poly()) + c1 * c2
            if total:
                out[key] = total
            elif key in out:
                del out[key]
    return out


def _to_two_gen(node: Node, n: int) -> TwoGen:
    """Expand the expression. A power above n is rejected before any
    multiplication, so no power costs more than n products, and `_mul`
    rejects a product with any part above degree n before expanding it."""
    if isinstance(node, IntLit):
        return {(0, 0): Poly.const(node.value)} if node.value else {}
    if isinstance(node, Gen):
        return {(1, 0) if node.name == "H" else (0, 1): Poly.const(1)}
    if isinstance(node, Sym):
        return {(0, 0): Poly.symbol(node.name)}
    if isinstance(node, Group):
        return _to_two_gen(node.inner, n)
    if isinstance(node, Pow):
        base = _to_two_gen(node.base, n)
        if node.exponent > n:
            if any(h + e for h, e in base):
                raise DegreeMismatch(
                    f"exponent {node.exponent} exceeds n = {n} on a base of positive degree"
                )
            raise ValueError(f"exponent {node.exponent} exceeds n = {n} on a scalar base")
        result: TwoGen = {(0, 0): Poly.const(1)}
        for _ in range(node.exponent):
            result = _mul(result, base, n)
        return result
    if isinstance(node, Mul):
        return _mul(_to_two_gen(node.left, n), _to_two_gen(node.right, n), n)
    if isinstance(node, Add):
        return _add(_to_two_gen(node.left, n), _to_two_gen(node.right, n))
    if isinstance(node, Sub):
        neg = {k: -c for k, c in _to_two_gen(node.right, n).items()}
        return _add(_to_two_gen(node.left, n), neg)
    raise TypeError(f"not an expression node: {node!r}")


def eval_expr(ast: Node, n: int, m: int, deg) -> LinearForm:
    """Expand the expression and evaluate each monomial H^(n-k) E^k
    against the table for an m-dimensional center of degree `deg`."""
    table = IntersectionTable(n, m, deg)
    expansion = _to_two_gen(ast, n)
    bad = sorted(h + e for (h, e) in expansion if h + e != n)
    if bad:
        raise DegreeMismatch(f"expected homogeneous degree {n}, found degree {bad[0]}")
    result = LinearForm(0)
    for (_, e), coeff in sorted(expansion.items()):
        result = result + table.entry(e).scale(coeff)
    return result
