"""Named numerical constraints on a candidate parameter tuple.

Each predicate is independent and side-effect-free, returns its verdict
as a bool, and mirrors one derived relation: canonical-class identities,
divisibility of cd-1, congruences on the center dimensions, positivity
and size estimates, and the degree bound on the smaller center.

Two predicates are imported facts rather than derivations: the
low-codimension criterion forcing multiplicity one (check_hc_gate), and
(in the cohomology module) the forced low-degree Betti numbers.

`chain` strings the predicates into the one constraint chain that both
the scan and the re-check of its survivors run.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction

from .betti import check_betti_gate


def katz_cd(n: int, a: int, m1: int, m2: int) -> tuple[Fraction, Fraction]:
    """Unique (c, d) solving the canonical-class relations for the tuple."""
    e1 = n - m1 - 1
    e2 = n - m2 - 1
    c = Fraction(a * (n + 1) - e2, e1)
    d = Fraction(a * (n + 1) - e1, e2)
    return c, d


def cd_minus_one(n: int, a: int, m1: int, m2: int) -> Fraction:
    """cd - 1 in closed form; identically equals the katz_cd product minus 1."""
    num = a * (n + 1) ** 2 - (n + 1) * (2 * n - 2 - m1 - m2)
    return Fraction(a * num, (n - m1 - 1) * (n - m2 - 1))


def check_eh_divisibility(n: int, a: int, m2: int, cd_minus_1: int) -> bool:
    """a^(n-m2) must divide cd-1."""
    return cd_minus_1 % a ** (n - m2) == 0


def check_estimate(n: int, a: int, m1: int, m2: int) -> bool:
    """Positivity, divisibility, and the two size inequalities bounding a."""
    e1 = n - m1 - 1
    e2 = n - m2 - 1  # e2 >= 2 since m2 <= n - 3
    numerator = a * (n + 1) ** 2 - (n + 1) * (2 * n - 2 - m1 - m2)
    middle = a ** (e2 - 1) * e2 * e1
    return (
        numerator > 0
        and numerator % (e1 * e2 * a**e2) == 0
        and (n + 1) ** 2 > middle >= a**e1 * (n - m1) * e1
    )


def check_congruences(n: int, a: int, m1: int, m2: int) -> bool:
    """The two congruences on the center dimensions; modulus 1 is vacuous."""
    return (
        (m1 - m2 - a * (m1 + 2)) % (n - m1 - 1) == 0
        and (m2 - m1 - a * (m2 + 2)) % (n - m2 - 1) == 0
    )


def check_degree_bound(d2: int, d: int, a: int, n: int, m2: int) -> bool:
    """deg of the smaller center is bounded by (d/a)^(n-m2), strictly."""
    if d2 <= 0 or d <= 0 or a <= 0:
        raise ValueError("inputs must be positive")
    return d2 < Fraction(d, a) ** (n - m2)


def check_katz_consistency(n: int, a: int, c: int, d: int, m1: int, m2: int) -> bool:
    """The assembled tuple satisfies both canonical-class identities,
    the divisibility a | cd-1, and c > d >= 2."""
    cdm1 = c * d - 1
    return (
        cdm1 % a == 0
        and a * (d - 1) * (n + 1) == (n - m1 - 1) * cdm1
        and a * (c - 1) * (n + 1) == (n - m2 - 1) * cdm1
        and c > d >= 2
    )


def check_hc_gate(n: int, a: int, m2: int) -> bool:
    """AXIOM: a small second center forces multiplicity a = 1.

    Contrapositive filter: reject a >= 2 whenever 3*m2 <= 2*n (integer
    form of m2 <= 2n/3). Imported, never re-derived here.
    """
    return not (a >= 2 and 3 * m2 <= 2 * n)


def chain(
    n: int, a: int, c: int, d: int, m1: int, m2: int, use_hc_axiom: bool
) -> Iterator[tuple[str, bool]]:
    """The constraint chain on an assembled tuple, as (id, holds) pairs.

    Lazy: `all(ok for _, ok in chain(...))` stops at the first failing
    link. The caller takes (c, d) from katz_cd and keeps integral ones.
    With e1 = n-m1-1, e2 = n-m2-1 and N = n+1, the links, numbered as the
    proofs in `scan.visits` cite them, are:
      1. cohomology-gate: if 4*m1 >= 3n-2 then m2 <= n-m1-2,
      2. a^e1*(n-m1)*e1 <= N^2, implied by link 7,
      3. hc-multiplicity-one, axiom on only: reject a >= 2 with 3*m2 <= 2n,
      4. integrality of c = (a*N-e2)/e1 and d = (a*N-e1)/e2 (the caller),
      5. katz-consistency: c > d >= 2, a | cd-1, canonical-class identities,
      6. congruences: the two dimension congruences,
      7. estimate: positivity, a^(e2-1)*e2*e1 < N^2, the second
         inequality, divisibility by e1*e2*a^e2,
      8. eh-divisibility: a^(n-m2) | cd-1.
    The pairs come in ConfigTuple.provenance's order: 5, 8, 7, 6, 1, 3.
    """
    yield "katz-consistency", check_katz_consistency(n, a, c, d, m1, m2)
    yield "eh-divisibility", check_eh_divisibility(n, a, m2, c * d - 1)
    yield "estimate", check_estimate(n, a, m1, m2)
    yield "congruences", check_congruences(n, a, m1, m2)
    yield "cohomology-gate", not (check_betti_gate(n, m1) and m2 > n - m1 - 2)
    if use_hc_axiom:
        yield "hc-multiplicity-one", check_hc_gate(n, a, m2)
