"""Scan kernel for the candidate enumeration.

This is the hot loop of the classification: every admissible
(n, m1, a, m2) is pushed through the constraint chain, and the handful of
survivors come back as plain 6-tuples (n, a, c, d, m1, m2).

The constraint chain (cheap kills first), with e1 = n-m1-1, e2 = n-m2-1:
  1. cohomology gate: if 4*m1 >= 3n-2 then m2 <= n - m1 - 2,
  2. a bounded by a^e1 * (n-m1) * e1 <= (n+1)^2,
  3. multiplicity-one axiom (optional): reject a >= 2 with 3*m2 <= 2n,
  4. integrality of c = (a(n+1)-e2)/e1 and d = (a(n+1)-e1)/e2,
  5. c > d >= 2, a | cd-1, both canonical-class identities,
  6. dimension congruences,
  7. estimate: positivity, a^(e2-1)*e2*e1 < (n+1)^2, the second
     inequality, divisibility by e1*e2*a^e2,
  8. a^(n-m2) | cd-1.

The kernel loops over (n, m1, a, m2), in that order. `visits` turns
links 1-3 and the integrality of c into loop bounds; `scan_chunk` checks
every other link per tuple.
"""

from __future__ import annotations

from collections.abc import Iterator

Survivor = tuple[int, int, int, int, int, int]


def _pow_capped(a: int, e: int, cap: int) -> int:
    """a**e, or cap+1 as soon as the partial product exceeds cap.

    Every caller passes cap >= 1, so 1**e never exceeds it."""
    if a == 1:
        return 1
    r = 1
    for _ in range(e):
        r *= a
        if r > cap:
            return cap + 1
    return r


def visits(
    n_lo: int,
    n_hi: int,
    a_max_override: int | None = None,
    use_hc_axiom: bool = True,
) -> Iterator[tuple[int, int, int, range]]:
    """Yield (n, m1, a, m2s), m2s a range of m2, for every tuple the
    chain can accept with n in [n_lo, n_hi] and a <= a_max_override.

    Each bound is exact: a tuple left out fails links 1-3, the integrality
    of c, or link 7's first inequality. With e1 = n-m1-1, e2 = n-m2-1:

    - Hoisted m2 bounds. Link 1 bounds m2 from above by a function of
      (n, m1) alone, so m2 runs over [1, m2_hi] with m2_hi = m1-1, or
      min(m1-1, n-m1-2) when 4*m1 >= 3n-2. Link 2 depends only on
      (n, m1) and a, and its left side does not decrease in a, so the
      a-loop stops at the first a that fails it.
    - Axiom start. With the axiom on and a >= 2, link 3 keeps exactly the
      m2 with 3*m2 > 2n, that is m2 >= 2n//3 + 1.
    - Stride. e1 | a(n+1) - e2 iff m2 = n-1-a(n+1) (mod e1), so m2 steps
      by e1 from the least m2 in range with that residue. These are
      exactly the m2 for which c is an integer.
    - Estimate cut. Write P(a, k) = _pow_capped(a, k, (n+1)^2), which is
      min(a^k, (n+1)^2 + 1). For a >= 1, P(a, k) does not decrease in a
      or in k, so P(a, e2-1)*e2*e1, the left side of link 7's first
      inequality, does not decrease in a or in e2. The smallest e2 in the
      m2 range is e2_min = n-m2_hi-1. Once P(a, e2_min-1)*e2_min*e1 >=
      (n+1)^2, every m2 in range fails link 7 at this a and at every
      larger a, so the a-loop stops.
    """
    for n in range(max(4, n_lo), n_hi + 1):
        n1sq = (n + 1) ** 2
        m2_axiom = 2 * n // 3 + 1 if use_hc_axiom else 1
        for m1 in range(2, n - 1):
            e1 = n - m1 - 1
            m2_hi = min(m1 - 1, n - m1 - 2) if 4 * m1 >= 3 * n - 2 else m1 - 1
            if m2_hi < 1:
                continue
            e2_min = n - m2_hi - 1
            a = 0
            while True:
                a += 1
                if a_max_override is not None and a > a_max_override:
                    break
                if _pow_capped(a, e1, n1sq) * (n - m1) * e1 > n1sq:
                    break
                if _pow_capped(a, e2_min - 1, n1sq) * e2_min * e1 >= n1sq:
                    break
                m2_lo = 1 if a == 1 else m2_axiom
                m2_first = m2_lo + (n - 1 - a * (n + 1) - m2_lo) % e1
                if m2_first <= m2_hi:
                    yield n, m1, a, range(m2_first, m2_hi + 1, e1)


def scan_chunk(
    n_lo: int,
    n_hi: int,
    a_max_override: int | None = None,
    use_hc_axiom: bool = True,
) -> list[Survivor]:
    """Survivors of the full constraint chain for n in [n_lo, n_hi]."""
    out: list[Survivor] = []
    for n, m1, a, m2s in visits(n_lo, n_hi, a_max_override, use_hc_axiom):
        n1sq = (n + 1) ** 2
        e1 = n - m1 - 1
        an1 = a * (n + 1)
        num_d = an1 - e1
        for m2 in m2s:
            e2 = n - m2 - 1
            if num_d % e2:
                continue
            c = (an1 - e2) // e1
            d = num_d // e2
            if not (c > d >= 2):
                continue
            cdm1 = c * d - 1
            if cdm1 % a:
                continue
            if a * (d - 1) * (n + 1) != e1 * cdm1:
                continue
            if a * (c - 1) * (n + 1) != e2 * cdm1:
                continue
            if (m1 - m2 - a * (m1 + 2)) % e1:
                continue
            if (m2 - m1 - a * (m2 + 2)) % e2:
                continue
            numer = a * n1sq - (n + 1) * (2 * n - 2 - m1 - m2)
            if numer <= 0:
                continue
            if _pow_capped(a, e2 - 1, n1sq) * e2 * e1 >= n1sq:
                continue
            if _pow_capped(a, e2 - 1 - e1, n - m1) * e2 < n - m1:
                continue
            divisor = e1 * e2 * _pow_capped(a, e2, numer)
            if divisor > numer or numer % divisor:
                continue
            eh_pow = _pow_capped(a, e2 + 1, cdm1)
            if eh_pow > cdm1 or cdm1 % eh_pow:
                continue
            out.append((n, a, c, d, m1, m2))
    return out
