"""Tests for the named numerical constraint predicates."""

from fractions import Fraction

import pytest

from quadrocubic import constraints
from quadrocubic.constraints import (
    cd_minus_one,
    chain,
    check_congruences,
    check_degree_bound,
    check_eh_divisibility,
    check_estimate,
    check_hc_gate,
    check_katz_consistency,
    katz_cd,
)


def test_katz_cd_examples():
    assert katz_cd(4, 1, 2, 1) == (3, 2)
    assert katz_cd(9, 1, 6, 4) == (3, 2)
    assert katz_cd(5, 1, 3, 1) == (3, Fraction(5, 3))


def test_cd_minus_one_examples():
    assert cd_minus_one(4, 1, 2, 1) == 5
    assert cd_minus_one(9, 1, 6, 4) == 5


def test_cd_minus_one_identity():
    # cd_minus_one equals the katz_cd product minus one, identically
    for n in range(4, 40):
        for m1 in range(2, n - 1):
            for m2 in range(1, m1):
                for a in range(1, 4):
                    c, d = katz_cd(n, a, m1, m2)
                    assert cd_minus_one(n, a, m1, m2) == c * d - 1


def test_eh_divisibility():
    assert check_eh_divisibility(9, 1, 4, 5)
    assert not check_eh_divisibility(9, 2, 4, 5)
    assert check_eh_divisibility(6, 2, 1, 32)
    # the exponent is n - m2 = 5: 2^4 divides 16, 2^5 does not
    assert not check_eh_divisibility(9, 2, 4, 16)


def test_estimate_examples():
    assert check_estimate(4, 1, 2, 1)
    assert check_estimate(9, 1, 6, 4)
    # each fails one part only: numerator 0 is not positive; 8 does not
    # divide the numerator 35; 2*3^1 divides 60 but 2*3^2 does not
    assert not check_estimate(6, 1, 2, 1)
    assert not check_estimate(4, 2, 2, 1)
    assert not check_estimate(4, 3, 2, 1)


def test_congruences():
    assert check_congruences(4, 1, 2, 1)
    assert check_congruences(9, 1, 6, 4)
    assert not check_congruences(5, 1, 3, 2)
    # only the second, then only the first congruence fails
    assert not check_congruences(4, 2, 2, 1)
    assert not check_congruences(6, 5, 2, 1)


def test_degree_bound():
    assert check_degree_bound(31, 2, 1, 9, 4)
    assert not check_degree_bound(49, 2, 1, 9, 4)
    assert check_degree_bound(1, 2, 1, 9, 4)
    with pytest.raises(ValueError):
        check_degree_bound(0, 2, 1, 9, 4)


def test_degree_bound_is_strict_and_exact():
    # the bound for (d=2, a=1, n=9, m2=4) is exactly 32
    assert check_degree_bound(31, 2, 1, 9, 4)
    assert not check_degree_bound(32, 2, 1, 9, 4)
    # fractional bound: (3/2)^4 = 81/16, so d2 = 5 passes and 6 fails
    assert check_degree_bound(5, 3, 2, 5, 1)
    assert not check_degree_bound(6, 3, 2, 5, 1)


def test_katz_consistency():
    assert check_katz_consistency(4, 1, 3, 2, 2, 1)
    assert check_katz_consistency(9, 1, 3, 2, 6, 4)
    assert not check_katz_consistency(4, 1, 2, 2, 2, 1)  # c > d violated
    # each fails one part only: c > d (possible only with m1 = m2), a | cd-1,
    # then each identity
    assert not check_katz_consistency(4, 4, 9, 9, 1, 1)
    assert not check_katz_consistency(8, 2, 7, 4, 5, 3)
    assert not check_katz_consistency(6, 2, 5, 3, 2, 1)
    assert not check_katz_consistency(4, 2, 7, 3, 2, 1)


def test_katz_consistency_reproduces_cd():
    # any tuple passing the consistency check reproduces (c, d) in closed form
    for tup in [(4, 1, 3, 2, 2, 1), (9, 1, 3, 2, 6, 4)]:
        n, a, c, d, m1, m2 = tup
        assert check_katz_consistency(n, a, c, d, m1, m2)
        assert katz_cd(n, a, m1, m2) == (c, d)


def test_katz_identities_hold_for_integral_output():
    # whenever katz_cd returns integers, the two canonical-class identities
    # of the assembled tuple hold automatically
    for n in range(4, 60):
        for m1 in range(2, n - 1):
            for m2 in range(1, m1):
                c, d = katz_cd(n, 1, m1, m2)
                if c.denominator != 1 or d.denominator != 1:
                    continue
                cdm1 = c * d - 1
                assert (d - 1) * (n + 1) == (n - m1 - 1) * cdm1
                assert (c - 1) * (n + 1) == (n - m2 - 1) * cdm1


def test_hc_gate():
    assert check_hc_gate(9, 1, 4)
    assert not check_hc_gate(9, 2, 4)
    assert check_hc_gate(12, 2, 9)
    assert not check_hc_gate(9, 2, 6)  # 3*m2 = 2*n still triggers


CHAIN_IDS = ["katz-consistency", "eh-divisibility", "estimate", "congruences",
             "cohomology-gate", "hc-multiplicity-one"]


def test_chain_ids_and_order():
    for case in ((4, 1, 3, 2, 2, 1), (9, 1, 3, 2, 6, 4)):
        assert list(chain(*case, True)) == [(cid, True) for cid in CHAIN_IDS]
        assert list(chain(*case, False)) == [(cid, True) for cid in CHAIN_IDS[:-1]]
    # n = 14 with c = 3, d = 2 fails the cohomology gate only
    assert dict(chain(14, 1, 3, 2, 10, 7, True)) == {
        cid: cid != "cohomology-gate" for cid in CHAIN_IDS}


def test_chain_stops_at_the_first_failure(monkeypatch):
    def unreachable(*args):
        raise AssertionError("link after a failure was evaluated")

    monkeypatch.setattr(constraints, "check_eh_divisibility", unreachable)
    # c = d fails katz-consistency, the first link
    assert not all(ok for _, ok in chain(4, 1, 2, 2, 2, 1, True))
