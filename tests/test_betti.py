"""Tests for the even-Betti-number machinery."""

import io
import itertools
import json
import random
from contextlib import redirect_stdout

import pytest

from quadrocubic import betti
from quadrocubic.betti import (
    barth_larsen_forced,
    blowup_even_betti,
    check_betti_gate,
    derive_case2_betti,
)
from quadrocubic.classify import CASE2
from quadrocubic.cli import run_cli

CASE2_DIMS = (CASE2[0], *CASE2[4:])  # (n, m1, m2) = (9, 6, 4)
DERIVED = ((1, 1, 2, 2, 2, 1, 1), (1, 1, 1, 1, 1))


def at(seq: tuple, i: int) -> int:
    """Entry i of a Betti sequence, with out-of-range indices reading as 0."""
    return seq[i] if 0 <= i < len(seq) else 0


def difference_relation(aseq: tuple, bseq: tuple, n: int, m1: int, m2: int) -> bool:
    """a_i - a_{i-(n-m1-1)} = b_i - b_{i-(n-m2-1)} at every index: the
    telescoped form of the blow-up agreement (see the betti docstring)."""
    return all(
        at(aseq, i) - at(aseq, i - (n - m1 - 1)) == at(bseq, i) - at(bseq, i - (n - m2 - 1))
        for i in range(n + max(m1, m2) + 2)
    )


def _printed_relation(aseq: tuple, bseq: tuple, n: int, m1: int) -> bool:
    """The paper's printed form, with the first chart's offset on both sides."""
    return all(
        at(aseq, i) - at(aseq, i - (n - m1 - 1)) == at(bseq, i) - at(bseq, i - (n - m1 - 1))
        for i in range(n + m1 + 2)
    )


def test_blowup_even_betti_examples():
    assert blowup_even_betti(((1, 1)), 4, 1, 1) == 2
    assert blowup_even_betti(((1, 1, 2, 2, 2, 1, 1)), 9, 6, 0) == 1
    # n=9, m=4, k=3: indices 2, 1, 0, -1 plus the ambient class
    assert blowup_even_betti(((1, 1, 1, 1, 1)), 9, 4, 3) == 4


def test_blowup_even_betti_out_of_range_k():
    seq = ((1, 1, 1, 1, 1))
    assert blowup_even_betti(seq, 9, 4, 20) == 0
    assert blowup_even_betti(seq, 9, 4, 9 + 4) == 0


def test_blowup_even_betti_is_a_sum_of_shifted_copies():
    # one copy of the center per level of the exceptional divisor, shifted
    # up by 1..n-m-1, plus the ambient class
    rng = random.Random(2323)
    for _ in range(2000):
        n = rng.randint(2, 12)
        m = rng.randint(0, n)
        seq = tuple(rng.randint(0, 4) for _ in range(m + 1))
        k = rng.randint(-3, 2 * n + 3)
        copies = sum(at(seq, k - shift) for shift in range(1, n - m))
        assert blowup_even_betti(seq, n, m, k) == copies + (0 <= k <= n)


def test_blowup_even_betti_dimension_guard():
    with pytest.raises(ValueError):
        blowup_even_betti(((1, 1)), 9, 4, 0)


def test_difference_relation_case2_instance():
    aseq = ((1, 1, 2, 2, 2, 1, 1))
    bseq = ((1, 1, 1, 1, 1))
    assert difference_relation(aseq, bseq, 9, 6, 4)
    # i=3 instance: a3 - a1 = b3 - b_{-1}
    assert at(aseq, 3) - at(aseq, 1) == at(bseq, 3) - at(bseq, -1) == 1


def test_difference_relation_low_degree_agreement():
    # for i <= n-m1-2 both offsets are negative and the relation reduces
    # to a_i = b_i
    aseq = ((1, 1, 2, 2, 2, 1, 1))
    bseq = ((1, 1, 1, 1, 1))
    n, m1 = 9, 6
    for i in range(n - m1 - 1):
        assert at(aseq, i) == at(bseq, i)


def test_difference_relation_case1_instance():
    # elliptic scroll (1,2,1) over the quintic elliptic curve (1,1)
    assert difference_relation(((1, 2, 1)), ((1, 1)), 4, 2, 1)
    # all-ones sequences do not satisfy the relation here: the offsets
    # differ, so a_1 - a_0 = 0 cannot match b_1 - b_{-1} = 1
    assert not difference_relation(((1, 1, 1)), ((1, 1)), 4, 2, 1)


def test_difference_relation_failure_detected():
    assert not difference_relation(((1, 3, 1)), ((1, 1)), 4, 2, 1)


def test_printed_difference_relation_rejects_the_derived_pair():
    # the module docstring's note: the printed form, with the first
    # chart's offset on both sides, fails at i = 2 on the sequences the
    # blow-up agreement forces, a2 - a0 = 1 against b2 - b0 = 0
    aseq, bseq = DERIVED
    assert _relation_via_blowup(aseq, bseq, *CASE2_DIMS)
    assert difference_relation(aseq, bseq, *CASE2_DIMS)
    assert not _printed_relation(aseq, bseq, *CASE2_DIMS[:2])


def _relation_via_blowup(aseq, bseq, n, m1, m2):
    return all(
        blowup_even_betti(aseq, n, m1, k) == blowup_even_betti(bseq, n, m2, k)
        for k in range(n + 1)
    )


def test_difference_relation_equivalent_to_blowup_agreement():
    rng = random.Random(6006)
    for _ in range(400):
        n = rng.randint(4, 10)
        m1 = rng.randint(2, n - 2)
        m2 = rng.randint(1, m1 - 1)
        aseq = tuple(rng.randint(1, 3) for _ in range(m1 + 1))
        bseq = tuple(rng.randint(1, 3) for _ in range(m2 + 1))
        assert difference_relation(aseq, bseq, n, m1, m2) == _relation_via_blowup(
            aseq, bseq, n, m1, m2
        )


def test_barth_larsen_forced():
    assert barth_larsen_forced(9, 6, 1)
    assert not barth_larsen_forced(9, 6, 2)
    assert barth_larsen_forced(8, 4, 0)
    with pytest.raises(ValueError):
        barth_larsen_forced(9, 8, 1)
    with pytest.raises(ValueError):
        barth_larsen_forced(9, 6, -1)


def test_check_betti_gate():
    assert not check_betti_gate(9, 6)  # 24 < 25
    assert check_betti_gate(10, 7)  # 28 >= 28
    assert not check_betti_gate(4, 2)  # 8 < 10


def test_derive_case2_betti_values():
    result = derive_case2_betti(*CASE2_DIMS)
    assert result["a"] == [1, 1, 2, 2, 2, 1, 1]
    assert result["b"] == [1, 1, 1, 1, 1]


def test_derive_case2_betti_invariants():
    result = derive_case2_betti(*CASE2_DIMS)
    aseq, bseq = tuple(result["a"]), tuple(result["b"])
    assert aseq == aseq[::-1] and bseq == bseq[::-1]
    assert min(aseq) >= 1 and min(bseq) >= 1
    assert difference_relation(aseq, bseq, 9, 6, 4)
    # Hard Lefschetz monotonicity over the first half
    for i in range((len(aseq) - 1) // 2):
        assert aseq[i] <= aseq[i + 1]


def test_derive_case2_betti_step_log():
    result = derive_case2_betti(*CASE2_DIMS)
    ids = [step_id for step_id, _ in result["derivation"]]
    assert ids == [
        "candidates",
        "poincare-duality",
        "barth-larsen",
        "hard-lefschetz",
        "blowup-agreement",
    ]
    details = dict(result["derivation"])
    assert details["candidates"].endswith(": 4 pairs")
    # what each fact removed, in order, from the 4 candidates to 1
    assert [details[i].rsplit(": ", 1)[1] for i in ids[1:]] == [
        "removes 0, 4 left", "removes 2, 2 left", "removes 1, 1 left", "removes 0, 1 left"]
    assert details["barth-larsen"].startswith("a0, a1 forced to 1 (AXIOM")
    axioms = [detail for _, detail in result["derivation"] if "AXIOM" in detail]
    assert len(axioms) == 2
    assert axioms == [details["barth-larsen"], details["hard-lefschetz"]]


@pytest.mark.parametrize("dims, a, b, rows", [
    # the formula gives a5 = b2 - b1, negative for b1 = 2 and b2 = 1, so 3
    # of the 4 b are candidates; duality removes 2 of them
    ((9, 5, 4), [1, 1, 2, 2, 1, 1], [1, 1, 2, 1, 1],
     {"candidates": ": 3 pairs", "poincare-duality": ": removes 2, 1 left",
      "barth-larsen": "a0 forced to 1 (AXIOM: 2i <= 2m - n): removes 0, 1 left"}),
    # b = (1, 2, 1) gives the positive a = (1, 2, 1, 1), which is not a
    # palindrome; no entry is forced, as 2i <= 2*3 - 7 never holds
    ((7, 3, 2), [1, 1, 1, 1], [1, 1, 1],
     {"candidates": ": 2 pairs", "poincare-duality": ": removes 1, 1 left",
      "barth-larsen": "no entry forced to 1 (AXIOM: 2i <= 2m - n): removes 0, 1 left"}),
])
def test_derivation_on_other_dimensions(dims, a, b, rows):
    result = derive_case2_betti(*dims)
    assert (result["a"], result["b"]) == (a, b)
    details = dict(result["derivation"])
    for step_id, ending in rows.items():
        assert details[step_id].endswith(ending)
    assert _relation_via_blowup(tuple(a), tuple(b), *dims)


def test_agreement_is_checked_at_every_degree(monkeypatch):
    # a second center whose blow-up differed from the first's only at
    # k = n, above the degrees k = 1..m1+1 that fix a
    formula = betti.blowup_even_betti
    n, _, m2 = CASE2_DIMS
    monkeypatch.setattr(betti, "blowup_even_betti", lambda center, n_, m, k:
                        formula(center, n_, m, k) + (m == m2 and k == n))
    with pytest.raises(ValueError, match=r"^0 \(a, b\) pairs survive"):
        derive_case2_betti(*CASE2_DIMS)


def _palindromes(m: int, top: int):
    """Every palindromic sequence of length m + 1 with entries in 1..top."""
    return [v for v in itertools.product(range(1, top + 1), repeat=m + 1) if v == v[::-1]]


def _barth_larsen(seq: tuple, n: int) -> bool:
    m = len(seq) - 1
    return all(seq[i] == 1 for i in range(m + 1) if barth_larsen_forced(n, m, i))


def _hard_lefschetz(seq: tuple) -> bool:
    return all(seq[i] <= seq[i + 1] for i in range((len(seq) - 1) // 2))


def _naive_pairs(use_barth_larsen: bool) -> set:
    """Brute search over palindromic a, b with entries in 1..6, filtered
    directly by the blow-up agreement and the imported facts."""
    n, m1, m2 = CASE2_DIMS
    keep = [[s for s in _palindromes(m, 6)
             if _hard_lefschetz(s) and (_barth_larsen(s, n) or not use_barth_larsen)]
            for m in (m1, m2)]
    return {(a, b) for a in keep[0] for b in keep[1]
            if _relation_via_blowup(a, b, n, m1, m2)}


def test_naive_search_finds_only_the_derived_pair():
    assert _naive_pairs(use_barth_larsen=True) == {DERIVED}
    result = derive_case2_betti(*CASE2_DIMS)
    assert (tuple(result["a"]), tuple(result["b"])) == DERIVED


def test_pair_is_not_unique_without_barth_larsen():
    pairs = _naive_pairs(use_barth_larsen=False)
    assert DERIVED in pairs and len(pairs) > 1
    # among them the one the derivation's own search (entries up to 2) keeps
    assert ((1, 2, 3, 4, 3, 2, 1), (1, 2, 2, 2, 1)) in pairs


@pytest.mark.parametrize("forced, survivors", [
    (False, 2),  # Barth-Larsen off: two pairs pass Hard Lefschetz
    (True, 0),  # every entry forced to 1: a3 = b3 + b1 = 2 never passes
])
def test_no_unique_pair_fails_the_step(monkeypatch, forced, survivors):
    monkeypatch.setattr(betti, "barth_larsen_forced", lambda n, m, i: forced)
    with pytest.raises(ValueError, match=f"^{survivors} \\(a, b\\) pairs survive"):
        derive_case2_betti(*CASE2_DIMS)
    out = io.StringIO()
    with redirect_stdout(out):
        assert run_cli(["verify", "--json"]) == 1
    document = json.loads(out.getvalue())
    steps = {s["id"]: s for s in document["steps"]}
    assert steps["case2-betti"]["status"] == "fail"
    assert steps["case2-betti"]["witness"]["error"].startswith(f"{survivors} (a, b) pairs survive")
    assert [s["id"] for s in document["steps"] if s["status"] == "fail"] == ["case2-betti"]
    assert document["conclusion"] == "refuted at step case2-betti"
