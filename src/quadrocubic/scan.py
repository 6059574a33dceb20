"""Scan kernel for the candidate enumeration.

The kernel loops over (n, m1, a, m2), in that order. `visits` settles
a = 1 by a proved lemma (two tuples, for every n) and a >= 2 above
n = BASE_N_MAX by a second one (no tuple). On the base n <= BASE_N_MAX
it turns links 1, 2 and 7 (at the smallest e2) into proved loop
bounds. `scan_chunk` decides each tuple it visits with
`constraints.chain`, which defines the chain and numbers its links, and
returns the few survivors as plain 6-tuples (n, a, c, d, m1, m2).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from .betti import check_betti_gate
from .constraints import chain

Survivor = tuple[int, int, int, int, int, int]

# n -> (m1, m2) of the only tuples with a = 1 that pass the chain, for any
# n; see the lemma in `visits`.
_A1_LEMMA = {4: (2, 1), 9: (6, 4)}

# The last n the loops of `visits` reach; its lemmas leave no tuple above.
BASE_N_MAX = 37


def visits(n_lo: int, n_hi: int) -> Iterator[tuple[int, int, int, range]]:
    """Yield (n, m1, a, m2s), m2s a range of m2, for every tuple the
    chain can accept with n in [n_lo, n_hi].

    Each bound is exact: a tuple left out fails a link of the chain.
    With N = n+1, e1 = n-m1-1 and e2 = n-m2-1:

    - Lemma: with a = 1 only (n, m1, m2) = (4, 2, 1) and (9, 6, 4) can
      pass, for every n. Integrality of c and d means N = c*e1 + e2 =
      d*e2 + e1, so (c-1)*e1 = (d-1)*e2. The domain m2 < m1 gives
      e2 >= e1 + 1, so with d >= 2 (link 5) the identity gives c > d,
      hence c >= 3. It also implies links 2, 7 and 8: e1*e2 < N^2 and
      (e1+1)*e1 <= N^2 because N > e1 + e2; a = 1 divides everything.
      What is left is d >= 2 and link 1. The gate 4*m1 >= 3n-2 is
      N >= 4*e1 + 3, and then link 1 asks m2 <= e1-1, i.e.
      N <= e1 + e2 + 1, impossible for c >= 3. So N <= 4*e1 + 2, and
      with e2 >= e1 + 1 this gives (c-3)*e1 <= 1. c = 4, e1 = 1 forces
      e2 = 2 and d = 5/2. So c = 3, d = 2, e2 = 2*e1 <= e1 + 2, hence e1 = 1
      (n = 4) or e1 = 2 (n = 9). Each is yielded as a one-element range,
      so `scan_chunk` still checks it against the whole chain.
    - Lemma: with a >= 2 no tuple passes links 1, 2 and 7 once n >= 38,
      so every loop stops at n = BASE_N_MAX. Let L = bit_length(N^2).
      Link 2 gives 2^(e1+1) <= a^e1*(e1+1)*e1 <= N^2 < 2^L, so
      e1 <= L-2. If n >= 4L-6, then n >= 4*e1 + 2, which is link 1's
      gate 4*m1 >= 3n-2, so link 1 asks m2 <= e1-1 and e2 >= n-L+2.
      As L >= 5, n >= 2L-1 and a^(e2-1) >= 2^(n-L+1) >= 2^L > N^2:
      link 7 fails. Now n >= 4L-6 for n >= 38. For N in
      [2^k, 2^(k+1)), L <= 2k+2; for k >= 6, N >= 2^k >= 8k+3 >= 4L-5
      (2^k doubles as 8k+3 grows by 8). For 38 <= n <= 62, N^2 < 2^11
      up to n = 44 and N^2 < 2^12 above, so 4L-6 <= 38 and 42 there.
      At n = 37, L = 11 and 4L-6 = 38: 37 is the exact threshold.
    - On the base the loops run over a >= 2 only, with e1 rising from 1.
      Link 2's left side a^e1*(e1+1)*e1 rises in a and in e1, so the
      e1-loop stops at the first e1 that fails it at a = 2, and the
      a-loop at the first a that fails it.
    - Hoisted m2 bounds. Link 1 bounds m2 from above by a function of
      (n, m1) alone, so m2 <= m2_hi with m2_hi = m1-1, or
      min(m1-1, n-m1-2) when 4*m1 >= 3n-2. Every m2 in 1..m2_hi is
      yielded; `scan_chunk` drops those with non-integral (c, d).
    - Estimate cut. The left side of link 7, a^(e2-1)*e2*e1 < N^2,
      rises in a and in e2. The smallest e2 in the m2 range is
      e2_min = n-m2_hi-1. Once the inequality fails at e2_min, it fails
      at this a and every larger one for every m2 in range, and the
      a-loop stops.
    """
    for n in range(max(4, n_lo), min(n_hi, BASE_N_MAX) + 1):
        if n in _A1_LEMMA:
            m1, m2 = _A1_LEMMA[n]
            yield n, m1, 1, range(m2, m2 + 1)
        n1sq = (n + 1) ** 2
        for e1 in range(1, n - 2):
            if ((e1 + 1) * e1) << e1 > n1sq:
                break
            m1 = n - 1 - e1
            m2_hi = min(m1 - 1, n - m1 - 2) if check_betti_gate(n, m1) else m1 - 1
            e2_min = n - m2_hi - 1
            for a in itertools.count(2):
                if a**e1 * (e1 + 1) * e1 > n1sq:
                    break
                if a ** (e2_min - 1) * e2_min * e1 >= n1sq:
                    break
                yield n, m1, a, range(1, m2_hi + 1)


def scan_chunk(n_lo: int, n_hi: int) -> list[Survivor]:
    """Survivors of the constraint chain for n in [n_lo, n_hi]: each tuple
    `visits` yields with integral (c, d) that passes `constraints.chain`."""
    out: list[Survivor] = []
    for n, m1, a, m2s in visits(n_lo, n_hi):
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
