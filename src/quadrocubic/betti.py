"""Even Betti numbers of the two blow-up centers.

The blow-up of projective space along a smooth center has even cohomology
built from shifted copies of the center's (`blowup_even_betti`). The two
charts of a double blow-up blow up to the same variety, so the formula
agrees for the two centers at every degree. With Poincare duality,
Barth-Larsen and Hard Lefschetz (both imported as axioms), this pins both
sequences in the nine-dimensional case (`derive_case2_betti`).

Note on the paper's difference relation: its printed form repeats the
first chart's offset on both sides, but the telescoping of the agreement,
and the paper's own special case, give
a_i - a_{i-(n-m1-1)} = b_i - b_{i-(n-m2-1)}. The derivation uses the
formula, not either form; tests/test_betti.py checks that this relation
is equivalent to the agreement and that the printed form is not.
"""

from __future__ import annotations

import itertools


def blowup_even_betti(center: tuple[int, ...], n: int, m: int, k: int) -> int:
    """h^(2k) of the blow-up of n-space along an m-dimensional center whose
    even Betti numbers are center = (h^0, h^2, ..., h^(2m))."""
    if len(center) != m + 1:
        raise ValueError(f"center has dimension {len(center) - 1}, expected {m}")
    # the ambient class, and the center's entries k-1 down to k-(n-m-1)
    low = k - (n - m - 1)
    return (0 <= k <= n) + sum(center[low if low > 0 else 0:k if k > 0 else 0])


def barth_larsen_forced(n: int, m: int, i: int) -> bool:
    """AXIOM: h^(2i) of an m-dimensional smooth subvariety of n-space is
    forced to 1 whenever 2i <= 2m - n."""
    if not (1 <= m <= n - 2) or i < 0:
        raise ValueError(f"need 1 <= m <= n-2 and i >= 0, got n={n}, m={m}, i={i}")
    return 2 * i <= 2 * m - n


def check_betti_gate(n: int, m1: int) -> bool:
    """Whether the large-m1 gate fires (4*m1 >= 3n - 2), in which case the
    second center must satisfy m2 <= n - m1 - 2."""
    return 4 * m1 >= 3 * n - 2


def derive_case2_betti(n: int, m1: int, m2: int) -> dict:
    """Derive the even Betti numbers a, b of the m1- and m2-dimensional
    centers from blowup_even_betti. Returns verify's `case2-betti` witness:
    "a", "b", and as "derivation" [step id, detail] rows that say how many
    candidate pairs each fact removed. Raises ValueError unless one pair
    survives.

    Candidates: b is palindromic (Poincare duality) with b_0 = 1 (the
    center is connected) and entries in 1..top. Agreement at degree k
    reads a_(k-1) and lower entries only, so k = 1..m1+1 fixes a from b in
    turn (k = 1 gives a_0 = b_0); a b that makes an entry negative is no
    candidate. The filters, in order: a is palindromic and positive
    (powers of a hyperplane class are nonzero); Barth-Larsen (AXIOM);
    Hard Lefschetz on both centers (AXIOM); agreement at every k = 0..n
    (above n both sides vanish), as both charts blow up to one variety.

    Lemma: for the case-2 tuple (n, m1, m2) = (9, 6, 4), no pair with an
    entry of b above 1 passes every filter, so the search loses nothing.
    Proof: the formula gives a_(k-1) + a_(k-2) on the first chart and
    b_(k-1) + ... + b_(k-4) on the second, next to the same ambient term.
    By induction on j, agreement at k = j+1 gives a_j = b_j + b_(j-2).
    So a_1 = b_1, and Barth-Larsen (2*1 <= 2*6 - 9) makes both 1; duality
    gives b_3 = b_1 and b_4 = b_0. Then a_3 = b_3 + b_1 = 2, and Hard
    Lefschetz gives b_2 < b_2 + b_0 = a_2 <= a_3 = 2. Yet top is 2, so
    that each imported fact is seen to remove a pair.
    """
    top = 2
    pairs = []
    for half in itertools.product(range(1, top + 1), repeat=m2 // 2):
        head = (1, *half)  # b_0..b_(m2//2); duality mirrors the rest
        b = tuple(head[min(i, m2 - i)] for i in range(m2 + 1))
        a = [0] * (m1 + 1)
        for k in range(1, m1 + 2):
            a[k - 1] = blowup_even_betti(b, n, m2, k) - blowup_even_betti(a, n, m1, k)
            if a[k - 1] < 0:
                break
        else:
            pairs.append((tuple(a), b))
    forced = [(s, i) for s, m in enumerate((m1, m2)) for i in range(m + 1)
              if barth_larsen_forced(n, m, i)]
    facts = [
        ("poincare-duality", "a palindromic and positive",
         lambda a, b: a == a[::-1] and min(a) >= 1),
        ("barth-larsen", (", ".join(f"{'ab'[s]}{i}" for s, i in forced) or "no entry")
         + " forced to 1 (AXIOM: 2i <= 2m - n)",
         lambda *ab: all(ab[s][i] == 1 for s, i in forced)),
        ("hard-lefschetz", "a and b rise to the middle degree (AXIOM)",
         lambda *ab: all(seq[i] <= seq[i + 1] for seq in ab for i in range((len(seq) - 1) // 2))),
        ("blowup-agreement", f"h^(2k) of the two blow-ups agree at k = 0..{n}",
         lambda a, b: all(blowup_even_betti(a, n, m1, k) == blowup_even_betti(b, n, m2, k)
                          for k in range(n + 1))),
    ]
    rows = [["candidates", f"b palindromic, b0 = b{m2} = 1, entries in 1..{top}; "
                           f"a from the formula at k = 1..{m1 + 1}: {len(pairs)} pairs"]]
    for step_id, detail, holds in facts:
        kept = [(a, b) for a, b in pairs if holds(a, b)]
        rows.append([step_id, f"{detail}: removes {len(pairs) - len(kept)}, {len(kept)} left"])
        pairs = kept
    if len(pairs) != 1:
        raise ValueError(f"{len(pairs)} (a, b) pairs survive: {pairs}")
    (a, b), = pairs
    return {"a": list(a), "b": list(b), "derivation": rows}
