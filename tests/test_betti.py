"""Tests for the even-Betti-number machinery."""

import random

import pytest

from quadrocubic.betti import (
    BettiContradiction,
    BettiSeq,
    barth_larsen_forced,
    blowup_even_betti,
    check_betti_gate,
    derive_case2_betti,
    difference_relation,
)


def test_betti_seq_basics():
    seq = BettiSeq((1, 1, 2))
    assert seq.dim == 2
    assert seq.at(0) == 1
    assert seq.at(2) == 2
    assert seq.at(-1) == 0
    assert seq.at(3) == 0
    assert not seq.is_palindromic()
    assert seq.is_positive()
    assert BettiSeq((1, 2, 1)).is_palindromic()
    assert not BettiSeq((1, 0, 1)).is_positive()


def test_betti_seq_validation():
    with pytest.raises(ValueError):
        BettiSeq(())
    with pytest.raises(ValueError):
        BettiSeq((1, -1))


def test_blowup_even_betti_examples():
    assert blowup_even_betti(BettiSeq((1, 1)), 4, 1, 1) == 2
    assert blowup_even_betti(BettiSeq((1, 1, 2, 2, 2, 1, 1)), 9, 6, 0) == 1
    # n=9, m=4, k=3: indices 2, 1, 0, -1 plus the ambient class
    assert blowup_even_betti(BettiSeq((1, 1, 1, 1, 1)), 9, 4, 3) == 4


def test_blowup_even_betti_out_of_range_k():
    seq = BettiSeq((1, 1, 1, 1, 1))
    assert blowup_even_betti(seq, 9, 4, 20) == 0
    assert blowup_even_betti(seq, 9, 4, 9 + 4) == 0


def test_blowup_even_betti_dimension_guard():
    with pytest.raises(ValueError):
        blowup_even_betti(BettiSeq((1, 1)), 9, 4, 0)


def test_difference_relation_case2_instance():
    aseq = BettiSeq((1, 1, 2, 2, 2, 1, 1))
    bseq = BettiSeq((1, 1, 1, 1, 1))
    assert difference_relation(aseq, bseq, 9, 6, 4)
    # i=3 instance: a3 - a1 = b3 - b_{-1}
    assert aseq.at(3) - aseq.at(1) == bseq.at(3) - bseq.at(-1) == 1


def test_difference_relation_low_degree_agreement():
    # for i <= n-m1-2 both offsets are negative and the relation reduces
    # to a_i = b_i
    aseq = BettiSeq((1, 1, 2, 2, 2, 1, 1))
    bseq = BettiSeq((1, 1, 1, 1, 1))
    n, m1 = 9, 6
    for i in range(n - m1 - 1):
        assert aseq.at(i) == bseq.at(i)


def test_difference_relation_case1_instance():
    # elliptic scroll (1,2,1) over the quintic elliptic curve (1,1)
    assert difference_relation(BettiSeq((1, 2, 1)), BettiSeq((1, 1)), 4, 2, 1)
    # all-ones sequences do not satisfy the relation here: the offsets
    # differ, so a_1 - a_0 = 0 cannot match b_1 - b_{-1} = 1
    assert not difference_relation(BettiSeq((1, 1, 1)), BettiSeq((1, 1)), 4, 2, 1)


def test_difference_relation_failure_detected():
    assert not difference_relation(BettiSeq((1, 3, 1)), BettiSeq((1, 1)), 4, 2, 1)


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
        aseq = BettiSeq(tuple(rng.randint(1, 3) for _ in range(m1 + 1)))
        bseq = BettiSeq(tuple(rng.randint(1, 3) for _ in range(m2 + 1)))
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
    result = derive_case2_betti()
    assert result["a"] == [1, 1, 2, 2, 2, 1, 1]
    assert result["b"] == [1, 1, 1, 1, 1]


def test_derive_case2_betti_invariants():
    result = derive_case2_betti()
    aseq, bseq = BettiSeq(result["a"]), BettiSeq(result["b"])
    assert aseq.is_palindromic() and bseq.is_palindromic()
    assert aseq.is_positive() and bseq.is_positive()
    assert difference_relation(aseq, bseq, 9, 6, 4)
    # Hard Lefschetz monotonicity over the first half
    for i in range(aseq.dim // 2):
        assert aseq.at(i) <= aseq.at(i + 1)


def test_derive_case2_betti_step_log():
    result = derive_case2_betti()
    ids = [step_id for step_id, _ in result["derivation"]]
    assert ids == [
        "connected-top",
        "barth-larsen",
        "low-degree-agreement",
        "poincare-duality",
        "difference-i3",
        "hard-lefschetz",
        "difference-i2",
        "replay-invariants",
    ]
    axioms = [detail for _, detail in result["derivation"] if "AXIOM" in detail]
    assert len(axioms) == 2
