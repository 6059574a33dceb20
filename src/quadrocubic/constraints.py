"""Named numerical constraints on a candidate parameter tuple.

Each predicate is side-effect-free, returns its verdict as a bool, and
mirrors one derived relation: cd-1 is a positive multiple of a^(n-m2),
and the degree bound on the smaller center. The chain keeps only
independent links; the docstring of `chain` proves that every clause it
dropped (the bound d >= 2 and the ordering c > d, the canonical-class
identities, the congruences on the center dimensions, the size estimate
with its positivity and divisibility, and the bound on a) follows from
the links it keeps and its premise a >= 1, 1 <= m2 < m1 <= n-2.

The cohomology gate of link 1 is not imported on its own: the docstring
of `betti.check_betti_gate` derives it from the blow-up formula and
Barth-Larsen, the facts of the "blowup-agreement" and "barth-larsen"
rows of verify's case-2 Betti step.

`chain` strings the predicates into the one constraint chain that both
the scan and the re-check of its survivors run.
"""

from __future__ import annotations

from collections.abc import Iterator

from .betti import check_betti_gate


def katz_cd(n: int, a: int, m1: int, m2: int) -> tuple[int, int] | None:
    """The unique (c, d) solving the canonical-class relations
    c*e1 + e2 = d*e2 + e1 = a*(n+1) for the tuple, with e1 = n-m1-1 and
    e2 = n-m2-1, or None when c or d is not an integer."""
    e1 = n - m1 - 1
    e2 = n - m2 - 1
    c, c_rest = divmod(a * (n + 1) - e2, e1)
    d, d_rest = divmod(a * (n + 1) - e1, e2)
    return None if c_rest or d_rest else (c, d)


def check_eh_divisibility(n: int, a: int, m2: int, cd_minus_1: int) -> bool:
    """cd-1 must be a positive multiple of a^(n-m2)."""
    return cd_minus_1 > 0 and cd_minus_1 % a ** (n - m2) == 0


def check_degree_bound(d2: int, d: int, a: int, n: int, m2: int) -> bool:
    """deg of the smaller center is bounded by (d/a)^(n-m2), strictly,
    compared as d2 * a^(n-m2) < d^(n-m2)."""
    if d2 <= 0 or d <= 0 or a <= 0:
        raise ValueError("inputs must be positive")
    return d2 * a ** (n - m2) < d ** (n - m2)


def chain(n: int, a: int, c: int, d: int, m1: int, m2: int) -> Iterator[tuple[str, bool]]:
    """The constraint chain on an assembled tuple, as (id, holds) pairs.

    Lazy: `all(ok for _, ok in chain(...))` stops at the first failing
    link. The premise is a >= 1 and the domain 1 <= m2 < m1 <= n-2; the
    caller keeps to it, takes (c, d) from katz_cd and keeps integral ones.
    With e1 = n-m1-1, e2 = n-m2-1 and N = n+1, so that 1 <= e1 < e2,
    the links, numbered as the proofs in `scan.visits` cite them, are:
      1. cohomology-gate: if 4*m1 >= 3n-2 then m2 <= n-m1-2,
      2. a^e1*(n-m1)*e1 <= N^2, implied by link 7 and the premise,
      4. integrality of c = (a*N-e2)/e1 and d = (a*N-e1)/e2 (the caller),
      7. the size estimate a^(e2-1)*e2*e1 < N^2, implied by link 8,
      8. eh-divisibility: cd-1 is a positive multiple of a^(n-m2).
    The pairs come in the order 8, 1.

    Every clause dropped from links 2, 7 and 8 is implied. Link 4 gives
    c*e1 + e2 = a*N and d*e2 + e1 = a*N. Then:
    - d >= 2, as cd-1 > 0 (link 8) is the same bound: with a >= 1,
      c*e1 = a*N - e2 >= m2 + 2 and d*e2 = a*N - e1 >= m1 + 2, so
      c, d >= 1. Subtracting, (c-1)*e1 = (d-1)*e2, so c = 1 exactly
      when d = 1, and cd-1 > 0 exactly when d >= 2.
    - c > d: with d-1 >= 1 and e2 > e1 >= 1, (c-1)*e1 = (d-1)*e2 is
      > (d-1)*e1, so c-1 > d-1.
    - a^(e2-1)*e2 >= a^e1*(e1+1) (once in link 7): a >= 1 and
      e2 >= e1 + 1 give a^(e2-1) >= a^e1. Times e1 and with link 7 this
      is link 2, as n-m1 = e1+1.
    - Canonical-class identities:
      e1*(cd-1) = d*(a*N - e2) - e1 = a*N*d - a*N = a*N*(d-1), and
      e2*(cd-1) = a*N*(c-1) likewise.
    - a | cd-1 follows from link 8, as n-m2 >= 1.
    - Congruences: m1+2 = N-e1 and m1-m2 = e2-e1, so
      m1-m2 - a*(m1+2) = e2-e1 - a*N + a*e1 = (a-1-c)*e1 = 0 (mod e1);
      m2-m1 - a*(m2+2) = (a-1-d)*e2 = 0 (mod e2) the same way.
    - Link 7 and the estimate's other clauses: its numerator is
      num = a*N^2 - N*(e1+e2) = N*(a*N - e1 - e2), and by the first
      identity (cd-1)*e1*e2 = a*N*(d-1)*e2 = a*N*(a*N - e1 - e2) = a*num.
      So e1*e2*a^e2 | num iff a^(e2+1) | cd-1, which is link 8
      (e2+1 = n-m2), and num > 0 because a*num = (cd-1)*e1*e2 and link 8
      makes cd-1 positive. As a*N - e1 - e2 < a*N, the identity also
      gives cd-1 < a^2*N^2/(e1*e2). Link 8 makes the positive cd-1 a
      multiple of a^(e2+1), so a^(e2+1) <= cd-1 < a^2*N^2/(e1*e2), that
      is a^(e2-1)*e2*e1 < N^2, which is link 7.
    """
    yield "eh-divisibility", check_eh_divisibility(n, a, m2, c * d - 1)
    yield "cohomology-gate", not (check_betti_gate(n, m1) and m2 > n - m1 - 2)
