"""Scan kernel for the candidate enumeration.

The kernel loops over (n, m1, a, m2), in that order. `visits` settles
a = 1 by a proved lemma (two tuples, for every n), and a >= 2 with
link 1's gate on, or above n = BASE_N_MAX, by two more (no tuple). On
the base n <= BASE_N_MAX it turns links 2 and 7 into proved loop bounds.
`scan_chunk` decides each tuple it visits with `constraints.chain`,
which defines the chain and numbers its links, and returns the few
survivors as plain 6-tuples (n, a, c, d, m1, m2).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from .betti import check_betti_gate
from .constraints import chain, katz_cd

Survivor = tuple[int, int, int, int, int, int]

# The only tuples with a = 1 that pass the chain, for any n (lemma in `visits`).
CASE1 = (4, 1, 3, 2, 2, 1)
CASE2 = (9, 1, 3, 2, 6, 4)
_A1_LEMMA = {c[0]: c[4:] for c in (CASE1, CASE2)}

# The last n the loops of `visits` reach; its lemmas leave no tuple above.
BASE_N_MAX = 18


def visits(n_lo: int, n_hi: int) -> Iterator[tuple[int, int, int, range]]:
    """Yield (n, m1, a, m2s), m2s a range of m2, for every tuple the
    chain can accept with n in [n_lo, n_hi].

    Each bound is exact: a tuple left out fails link 1, 2 or 7, and
    `constraints.chain` proves that links 2 and 7 follow from the links
    it keeps. With N = n+1, e1 = n-m1-1 and e2 = n-m2-1:

    - Lemma: with a = 1 only (n, m1, m2) = (4, 2, 1) and (9, 6, 4) can
      pass, for every n. Integrality of c and d means N = c*e1 + e2 =
      d*e2 + e1, so (c-1)*e1 = (d-1)*e2. The domain m2 < m1 gives
      e2 >= e1 + 1. Link 8 asks cd-1 > 0, which is d >= 2 (see
      `constraints.chain`), and then the identity gives c > d, hence
      c >= 3. It also implies links 2 and 7 and the rest of link 8:
      e1*e2 < N^2 and (e1+1)*e1 <= N^2 because N > e1 + e2; a = 1
      divides everything. What is left is d >= 2 and link 1. The gate
      4*m1 >= 3n-2 is N >= 4*e1 + 3, and then link 1 asks m2 <= e1-1, i.e.
      N <= e1 + e2 + 1, impossible for c >= 3. So N <= 4*e1 + 2, and
      with e2 >= e1 + 1 this gives (c-3)*e1 <= 1. c = 4, e1 = 1 forces
      e2 = 2 and d = 5/2. So c = 3, d = 2, e2 = 2*e1 <= e1 + 2, hence e1 = 1
      (n = 4) or e1 = 2 (n = 9). Each is yielded as a one-element range,
      so `scan_chunk` still checks it against the whole chain.
    - Lemma: with a >= 2 and the gate on no tuple passes links 1 and 7,
      for every n. The gate is 4*e1 <= n-2, and link 1 then asks
      m2 <= e1-1, i.e. n <= e1 + e2. So 3*e1 <= e2-2; with e1 >= 1 this
      gives e2 >= 5 and N <= (4*e2+1)/3. Link 7's left side is then
      a^(e2-1)*e2*e1 >= 2^(e2-1)*e2 >= ((4*e2+1)/3)^2 >= N^2: at e2 = 5
      it is 80 >= 49, and per step in e2 the middle term at least
      doubles while the right one grows by at most (25/21)^2 < 2. So the
      e1-loop skips every e1 where `check_betti_gate` fires and loses
      nothing, and link 1 asks nothing more of m2 on the rest. For the
      real gate the first e1 visited is (n+2)//4.
    - Lemma: with a >= 2 and the gate off no tuple passes link 2 once
      n >= 19, so every loop stops at n = BASE_N_MAX. With the gate off,
      e1 >= e = ceil((n-2)/4), and link 2's left side
      a^e1*(e1+1)*e1 rises in a and in e1, so it is at least
      2^e*(e+1)*e = classify._a1_rhs(n). By the lemma of
      classify.a1_inequality_holds, the multiplicity-one inequality of
      the paper, that exceeds N^2 for every n >= 19; `verify` checks its
      base and its stride lemma in the a1-inequality-range step.
      At n = 18 it is 320 < 361, so 18 is the last n the lemma leaves.
    - On the base the loops run over a >= 2 only. Link 2's left side
      a^e1*(e1+1)*e1 rises in a and in e1, and it is link 7's left side
      a^(e2-1)*e2*e1 at the smallest e2 = e1+1, which rises in e2. So
      once it reaches N^2 every m2 fails link 7: the e1-loop stops at
      the first e1 where it does at a = 2, and the a-loop at the first a.
      Below that, link 7 holds at e2 = e1+1, and as its left side rises
      in e2, it holds exactly on e1+1..E for the last such E <= n-2.
      With m2 = n-1-e2, the m2-range is n-1-E..m1-1; `scan_chunk` drops
      the m2 with non-integral (c, d).
    """
    for n in range(max(4, n_lo), min(n_hi, BASE_N_MAX) + 1):
        if n in _A1_LEMMA:
            m1, m2 = _A1_LEMMA[n]
            yield n, m1, 1, range(m2, m2 + 1)
        n1sq = (n + 1) ** 2
        for e1 in range(1, n - 2):
            m1 = n - 1 - e1
            if check_betti_gate(n, m1):
                continue
            if ((e1 + 1) * e1) << e1 >= n1sq:
                break
            for a in itertools.count(2):
                if a**e1 * (e1 + 1) * e1 >= n1sq:
                    break
                e2 = e1 + 1  # the last e2 <= n-2 where link 7 holds
                while e2 < n - 2 and a**e2 * (e2 + 1) * e1 < n1sq:
                    e2 += 1
                yield n, m1, a, range(n - 1 - e2, m1)


def scan_chunk(n_lo: int, n_hi: int) -> list[Survivor]:
    """Survivors of the constraint chain for n in [n_lo, n_hi]: each tuple
    `visits` yields with integral (c, d) that passes `constraints.chain`."""
    out: list[Survivor] = []
    for n, m1, a, m2s in visits(n_lo, n_hi):
        for m2 in m2s:
            cd = katz_cd(n, a, m1, m2)
            if cd and all(ok for _, ok in chain(n, a, *cd, m1, m2)):
                out.append((n, a, *cd, m1, m2))
    return out
