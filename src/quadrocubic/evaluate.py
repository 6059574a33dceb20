"""Expansion of parsed expressions and their evaluation against an
intersection table.

This is the package's one expander of products of H and E: the `eval`
command and the case-2 system of `classify` both go through `eval_expr`.
Every coefficient is an int.
"""

from __future__ import annotations

from .parser import Node, clip
from .ringeval import IntersectionTable, LinearForm

# sparse polynomial in H, E, d1, d2: {(t, e, i, j): integer coefficient of
# H^(t-e) E^e d1^i d2^j}, keyed by the degree t in (H, E) first, so that
# max(p)[0] is p's highest degree; zero coefficients are never stored
Expansion = dict[tuple[int, int, int, int], int]

# Each product costs one step per pair of terms, so a product of more pairs
# is refused before it starts and every `eval` ends in bounded time. The
# largest product the benchmark streams and the case-2 system make has 49
# pairs.
MAX_TERM_PAIRS = 100_000

# Multiplying two coefficients costs time and memory that grow with their
# bit lengths, so a product whose factors' largest coefficients have more
# bits than this between them is refused before it starts too, and no
# `eval` builds a coefficient much longer than that. The largest such sum in
# the benchmark streams is 32 bits, and 16 in the case-2 system.
MAX_COEFFICIENT_BITS = 100_000


def _mul(p: Expansion, q: Expansion, n: int) -> Expansion:
    """p*q, rejected unexpanded when its highest degree in (H, E) exceeds
    n: that part of p*q is the product of the factors' nonzero
    highest-degree parts, and Z[H, E, d1, d2] has no zero divisors, so it
    is nonzero. Every product that is kept has degree at most n. A product
    of more than MAX_TERM_PAIRS pairs of terms, or of coefficients of more
    than MAX_COEFFICIENT_BITS bits together, is refused too."""
    if p and q:
        top = max(p)[0] + max(q)[0]
        if top > n:
            raise ValueError(f"expected homogeneous degree {clip(n)}, "
                             f"found a product of degree {clip(top)}")
        p_bits = max(map(abs, p.values())).bit_length()
        q_bits = max(map(abs, q.values())).bit_length()
        if p_bits + q_bits > MAX_COEFFICIENT_BITS:
            raise ValueError(f"a product of coefficients of {p_bits} and {q_bits} bits exceeds "
                             f"the budget of {MAX_COEFFICIENT_BITS} bits")
    if len(p) * len(q) > MAX_TERM_PAIRS:
        raise ValueError(f"a product of {len(p)} by {len(q)} terms exceeds the budget "
                         f"of {MAX_TERM_PAIRS} term pairs")
    out: Expansion = {}
    for (t1, e1, i1, j1), c1 in p.items():
        for (t2, e2, i2, j2), c2 in q.items():
            key = (t1 + t2, e1 + e2, i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {key: coeff for key, coeff in out.items() if coeff}


# the key of each leaf's one term
_LEAVES = {"H": (1, 0, 0, 0), "E": (1, 1, 0, 0), "d1": (0, 0, 1, 0), "d2": (0, 0, 0, 1)}


def _expand(node: Node, n: int) -> Expansion:
    """Expand the expression. A power whose degree would exceed n is
    rejected before any multiplication, and the others are raised by
    squaring, so a power k costs at most 2*log2(k) products. `_mul`
    rejects a product with any part above degree n before expanding it."""
    if type(node) is int:
        return {(0, 0, 0, 0): node} if node else {}
    if type(node) is str:
        return {_LEAVES[node]: 1}
    kind = node[0]
    if kind == "pow":
        _, base, exponent = node
        base = _expand(base, n)
        top = max(base)[0] if base else 0
        if exponent > n:
            raise ValueError(f"exponent {clip(exponent)} exceeds n = {clip(n)} on a "
                             f"{'base of positive degree' if top else 'scalar base'}")
        if top * exponent > n:
            # the degree that multiplying by the base one factor at a time
            # would reach first
            raise ValueError(f"expected homogeneous degree {clip(n)}, "
                             f"found a product of degree {clip((n // top + 1) * top)}")
        result: Expansion = {(0, 0, 0, 0): 1}
        k = exponent
        while k:
            if k & 1:
                result = _mul(result, base, n)
            k >>= 1
            if k:
                base = _mul(base, base, n)
        return result
    if kind == "mul":
        # multiply from the left as written, each factor expanded just
        # before it is multiplied in
        result = _expand(node[1], n)
        for factor in node[2:]:
            result = _mul(result, _expand(factor, n), n)
        return result
    if kind == "sum":
        total: Expansion = {}
        for sign, term in node[1:]:
            for key, coeff in _expand(term, n).items():
                total[key] = total.get(key, 0) + sign * coeff
        return {key: coeff for key, coeff in total.items() if coeff}
    raise TypeError(f"not an expression node: {node!r}")


def eval_expr(ast: Node, n: int, m: int, deg) -> LinearForm:
    """Expand the expression and evaluate each monomial H^(n-k) E^k
    against the table for an m-dimensional center of degree `deg`."""
    table = IntersectionTable(n, m, deg)
    expansion = _expand(ast, n)
    bad = sorted(t for t, _, _, _ in expansion if t != n)
    if bad:
        raise ValueError(f"expected homogeneous degree {clip(n)}, found degree {clip(bad[0])}")
    # the d1, d2 coefficient of each H^(n-k) E^k
    by_e: dict[int, dict[tuple[int, int], int]] = {}
    for (_, e, i, j), coeff in expansion.items():
        by_e.setdefault(e, {})[(i, j)] = coeff
    # each entry is an unknown u_e, so none repeats, or a constant monomial
    constant: dict[tuple[int, int], int] = {}
    terms: dict[str, dict[tuple[int, int], int]] = {}
    for e, coeffs in by_e.items():
        value = table.value(e)
        if type(value) is str:
            terms[value] = coeffs
            continue
        factor, (di, dj) = value
        if factor:
            for (i, j), coeff in coeffs.items():
                key = (i + di, j + dj)
                constant[key] = constant.get(key, 0) + factor * coeff
    return LinearForm(constant, terms)
