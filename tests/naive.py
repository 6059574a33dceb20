"""The naive reference loop that the scan tests filter.

`naive_tuples` walks the premise of `constraints.chain`, the domain
1 <= m2 < m1 <= n-2, in the order n, m1, m2, a: n ascending from
max(4, n_lo) to n_hi, then m1 from 2 to n-2, then m2 from 1 to m1-1,
then a from a_lo. It uses none of the loop bounds that `scan.visits`
proves, only link 1's gate (when `gate` is set) and link 2's bound on
a, with e1 = n-m1-1, e2 = n-m2-1 and N = n+1 as in `chain`.
"""


def pow_capped(a, e, cap):
    """min(a**e, cap+1), with a**e = 1 for e <= 0: a power the naive loops
    compare with cap, bounded so that no loop builds a huge integer."""
    return min(a ** max(e, 0), cap + 1)


def passes_link7(n, m1, m2, a):
    """Link 7, the size estimate a^(e2-1)*e2*e1 < N^2."""
    n1sq = (n + 1) ** 2
    e1, e2 = n - m1 - 1, n - m2 - 1
    return pow_capped(a, e2 - 1, n1sq) * e2 * e1 < n1sq


def naive_tuples(n_lo, n_hi, a_lo=1, a_hi=None, gate=True):
    """Yield (n, m1, m2, a) over the domain, skipping the m2 that link 1
    rejects if `gate` is set; a runs from a_lo while a <= a_hi and link 2,
    a^e1*(n-m1)*e1 <= N^2, holds."""
    for n in range(max(4, n_lo), n_hi + 1):
        n1sq = (n + 1) ** 2
        a_top = n1sq if a_hi is None else a_hi  # link 2 alone keeps a <= N^2
        for m1 in range(2, n - 1):
            e1 = n - m1 - 1
            gated = gate and 4 * m1 >= 3 * n - 2
            for m2 in range(1, m1):
                if gated and m2 > n - m1 - 2:
                    continue
                a = a_lo
                while a <= a_top and min(a**e1, n1sq + 1) * (n - m1) * e1 <= n1sq:
                    yield n, m1, m2, a
                    a += 1
