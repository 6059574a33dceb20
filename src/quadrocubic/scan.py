"""Scan kernel for the candidate enumeration.

The kernel loops over (n, m1, a, m2), in that order. `visits` settles
a = 1 by a proved lemma (two tuples, for every n) and, for a >= 2, turns
links 1 and 2, the integrality of c and link 7's first inequality at the
smallest e2 into proved loop bounds. `scan_chunk` decides each tuple it
visits with `constraints.chain`, which defines the chain and numbers its
links, and returns the few survivors as plain 6-tuples
(n, a, c, d, m1, m2).
"""

from __future__ import annotations

from collections.abc import Iterator

from .betti import check_betti_gate
from .constraints import chain

Survivor = tuple[int, int, int, int, int, int]


def _pow_capped(a: int, e: int, cap: int) -> int:
    """a**e, or cap+1 as soon as the partial product exceeds cap."""
    r = 1
    for _ in range(e):
        r *= a
        if r > cap:
            return cap + 1
    return r


# n -> (m1, m2) of the only tuples with a = 1 that pass the chain, for any
# n; see the lemma in `visits`.
_A1_LEMMA = {4: (2, 1), 9: (6, 4)}


def visits(
    n_lo: int, n_hi: int, a_max_override: int | None = None
) -> Iterator[tuple[int, int, int, range]]:
    """Yield (n, m1, a, m2s), m2s a range of m2, for every tuple the
    chain can accept with n in [n_lo, n_hi] and a <= a_max_override.

    Each bound is exact: a tuple left out fails a link of the chain.
    With N = n+1, e1 = n-m1-1 and e2 = n-m2-1:

    - Lemma: with a = 1 only (n, m1, m2) = (4, 2, 1) and (9, 6, 4) can
      pass, for every n. Integrality of c and d means N = c*e1 + e2 =
      d*e2 + e1, so (c-1)*e1 = (d-1)*e2. Given c > d >= 2 (link 5), this
      identity implies links 2, 7 and 8: e2 = e1*(c-1)/(d-1) > e1 is the
      second inequality of link 7; e1*e2 < N^2 and (e1+1)*e1 <= N^2
      because N > e1 + e2 (the first inequality and link 2); a = 1
      divides everything (link 8). What is left is c > d >= 2 and
      link 1. The gate 4*m1 >= 3n-2 is N >= 4*e1 + 3, and then link 1
      asks m2 <= e1-1, i.e. N <= e1 + e2 + 1, impossible for c >= 3. So N <= 4*e1 + 2, and with
      e2 >= e1 + 1 this gives (c-3)*e1 <= 1. c = 4, e1 = 1 forces e2 = 2
      and d = 5/2. So c = 3, d = 2, e2 = 2*e1 <= e1 + 2, hence e1 = 1
      (n = 4) or e1 = 2 (n = 9). Each is yielded as a one-element range,
      so `scan_chunk` still checks it against the whole chain.
    - The rest loops over a >= 2 only, with e1 rising from 1. Link 2's
      left side a^e1*(e1+1)*e1 rises in a and in e1, so the e1-loop stops
      at the first e1 that fails it at a = 2, which is O(log n), and the
      a-loop at the first a that fails it.
    - Hoisted m2 bounds. Link 1 bounds m2 from above by a function of
      (n, m1) alone, so m2 <= m2_hi with m2_hi = m1-1, or
      min(m1-1, n-m1-2) when 4*m1 >= 3n-2.
    - Estimate cut. The left side of link 7's first inequality,
      a^(e2-1)*e2*e1 < N^2, rises in a and in e2. The smallest e2 in the
      m2 range is e2_min = n-m2_hi-1. If 2^(e2_min-1) alone reaches
      2^bit_length(N^2) > N^2, the pair (n, m1) fails at every a >= 2
      and m2, with no power taken. Where link 1's gate holds, e2_min =
      n-e1, so this settles every (n, m1) once n is large. Otherwise,
      once the inequality fails at e2_min, it fails at this a and every
      larger one for every m2 in range, and the a-loop stops.
    - Stride. e1 | a(n+1) - e2 iff m2 = n-1-a(n+1) (mod e1), so m2 steps
      by e1 from the least m2 >= 1 with that residue. These are exactly
      the m2 for which c is an integer.
    """
    with_a1 = a_max_override is None or a_max_override >= 1
    with_a2 = a_max_override is None or a_max_override >= 2
    for n in range(max(4, n_lo), n_hi + 1):
        if with_a1 and n in _A1_LEMMA:
            m1, m2 = _A1_LEMMA[n]
            yield n, m1, 1, range(m2, m2 + 1)
        if not with_a2:
            continue
        n1sq = (n + 1) ** 2
        n1sq_bits = n1sq.bit_length()
        for e1 in range(1, n - 2):
            if ((e1 + 1) * e1) << e1 > n1sq:
                break
            m1 = n - 1 - e1
            m2_hi = min(m1 - 1, n - m1 - 2) if check_betti_gate(n, m1) else m1 - 1
            e2_min = n - m2_hi - 1
            if e2_min - 1 >= n1sq_bits:
                continue
            a = 1
            while True:
                a += 1
                if a_max_override is not None and a > a_max_override:
                    break
                if _pow_capped(a, e1, n1sq) * (e1 + 1) * e1 > n1sq:
                    break
                if _pow_capped(a, e2_min - 1, n1sq) * e2_min * e1 >= n1sq:
                    break
                m2_first = 1 + (n - 2 - a * (n + 1)) % e1
                if m2_first <= m2_hi:
                    yield n, m1, a, range(m2_first, m2_hi + 1, e1)


def scan_chunk(
    n_lo: int, n_hi: int, a_max_override: int | None = None
) -> list[Survivor]:
    """Survivors of the constraint chain for n in [n_lo, n_hi]: each tuple
    `visits` yields with integral (c, d) that passes `constraints.chain`."""
    out: list[Survivor] = []
    for n, m1, a, m2s in visits(n_lo, n_hi, a_max_override):
        e1 = n - m1 - 1
        for m2 in m2s:
            e2 = n - m2 - 1
            c, c_rest = divmod(a * (n + 1) - e2, e1)
            d, d_rest = divmod(a * (n + 1) - e1, e2)
            if c_rest or d_rest:
                continue
            if all(ok for _, ok in chain(n, a, c, d, m1, m2)):
                out.append((n, a, c, d, m1, m2))
    return out
