"""Even Betti numbers of the two blow-up centers.

The blow-up of projective space along a smooth center has even cohomology
built from shifted copies of the center's, so the two chart descriptions
of the same variety force a difference relation between the two centers'
even Betti sequences. Combined with Poincare duality, forced low-degree
values (Barth-Larsen, imported as an axiom) and Hard Lefschetz
monotonicity, this pins both sequences in the nine-dimensional case.

Note on the difference relation: the printed form of the source identity
repeats the first chart's offset on both sides; the derivation and its
instantiated special case use the second chart's offset on the right.
We implement a_i - a_{i-(n-m1-1)} = b_i - b_{i-(n-m2-1)}, which is the
version forced by the underlying telescoping, and flag the discrepancy
in reports rather than silently absorbing it.
"""

from __future__ import annotations


class BettiSeq:
    """Even Betti numbers (h^0, h^2, ..., h^(2m)) of an m-dimensional center."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = tuple(values)
        if not self.values:
            raise ValueError("empty Betti sequence")
        if any(v < 0 for v in self.values):
            raise ValueError(f"negative Betti number in {self.values}")

    @property
    def dim(self) -> int:
        return len(self.values) - 1

    def at(self, i: int) -> int:
        """Entry i, with out-of-range indices reading as 0."""
        if 0 <= i < len(self.values):
            return self.values[i]
        return 0

    def is_palindromic(self) -> bool:
        return self.values == self.values[::-1]

    def is_positive(self) -> bool:
        return all(v >= 1 for v in self.values)


def blowup_even_betti(center: BettiSeq, n: int, m: int, k: int) -> int:
    """h^(2k) of the blow-up of n-space along an m-dimensional center."""
    if center.dim != m:
        raise ValueError(f"center has dimension {center.dim}, expected {m}")
    ambient = 1 if 0 <= k <= n else 0
    return sum(center.at(k - i - 1) for i in range(n - m - 1)) + ambient


def difference_relation(aseq: BettiSeq, bseq: BettiSeq, n: int, m1: int, m2: int) -> bool:
    """a_i - a_{i-(n-m1-1)} = b_i - b_{i-(n-m2-1)} at every index."""
    return all(
        aseq.at(i) - aseq.at(i - (n - m1 - 1)) == bseq.at(i) - bseq.at(i - (n - m2 - 1))
        for i in range(n + max(m1, m2) + 2)
    )


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


class BettiContradiction(RuntimeError):
    """A step of the hard-wired derivation failed its arithmetic check."""


def derive_case2_betti() -> dict:
    """Replay the forced Betti computation for n=9, m1=6, m2=4.

    Returns verify's `case2-betti` witness: the two sequences as "a" and
    "b", and as "derivation" the [step id, justification] pairs. Any
    arithmetic failure raises BettiContradiction with the offending step.
    """
    n, m1, m2 = 9, 6, 4
    steps: list[tuple[str, str]] = []
    a = [None] * (m1 + 1)
    b = [None] * (m2 + 1)

    a[0] = a[m1] = 1
    b[0] = b[m2] = 1
    steps.append(("connected-top", "a0 = a6 = b0 = b4 = 1"))

    if not barth_larsen_forced(n, m1, 1):
        raise BettiContradiction("low-degree forcing does not apply at i=1")
    a[1] = 1
    steps.append(("barth-larsen", "a1 = 1 (AXIOM: 2*1 <= 2*m1 - n)"))

    # indices up to n - m1 - 2 = 1 agree between the two centers
    b[1] = a[1]
    steps.append(("low-degree-agreement", "b1 = a1 = 1"))

    a[5] = a[1]
    b[3] = b[1]
    steps.append(("poincare-duality", "a5 = a1 = 1, b3 = b1 = 1"))

    # difference relation at i=3: a3 - a1 = b3 - b_{-1}
    a[3] = a[1] + b[3]
    steps.append(("difference-i3", f"a3 = a1 + b3 = {a[3]}"))

    # difference relation at i=2 leaves a2 = a0 + b2; Hard Lefschetz gives
    # a2 <= a3, so b2 <= a3 - a0 = 1; positivity gives b2 >= 1
    upper = a[3] - a[0]
    if upper != 1:
        raise BettiContradiction("bounds on b2 do not pin a unique value")
    b[2] = 1
    steps.append(("hard-lefschetz", "a2 <= a3 (AXIOM) forces b2 <= 1; positivity: b2 = 1"))

    a[2] = a[0] + b[2]
    a[4] = a[2]
    steps.append(("difference-i2", f"a2 = a0 + b2 = {a[2]}; duality a4 = a2"))

    aseq = BettiSeq(tuple(a))
    bseq = BettiSeq(tuple(b))
    if not (aseq.is_palindromic() and bseq.is_palindromic()):
        raise BettiContradiction("derived sequences are not palindromic")
    if not (aseq.is_positive() and bseq.is_positive()):
        raise BettiContradiction("derived sequences are not positive")
    if not difference_relation(aseq, bseq, n, m1, m2):
        raise BettiContradiction("derived sequences violate the difference relation")
    steps.append(("replay-invariants", "palindrome, positivity, difference relation"))
    return {"a": a, "b": b, "derivation": [list(s) for s in steps]}
