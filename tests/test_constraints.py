"""Tests for the named numerical constraint predicates."""

import functools

import pytest

from quadrocubic import constraints
from quadrocubic.constraints import (
    chain,
    check_degree_bound,
    check_eh_divisibility,
    katz_cd,
)

from naive import naive_tuples


def test_katz_cd_examples():
    assert katz_cd(4, 1, 2, 1) == (3, 2)
    assert katz_cd(9, 1, 6, 4) == (3, 2)
    # c = 3 but d = 5/3, and c = 2 but d = 3/2: not integral
    assert katz_cd(5, 1, 3, 1) is None
    assert katz_cd(7, 1, 4, 2) is None


def test_eh_divisibility():
    assert check_eh_divisibility(9, 1, 4, 5)
    assert not check_eh_divisibility(9, 2, 4, 5)
    assert check_eh_divisibility(6, 2, 1, 32)
    # the exponent is n - m2 = 5: 2^4 divides 16, 2^5 does not
    assert not check_eh_divisibility(9, 2, 4, 16)
    # the multiple must be positive: 0 and -32 are refused
    assert not check_eh_divisibility(9, 1, 4, 0)
    assert not check_eh_divisibility(9, 2, 4, -32)
    # (n, a, m1, m2) = (6, 1, 2, 1) is in the domain, with c = d = 1, so
    # cd-1 = 0 and the chain refuses it at its first link
    assert katz_cd(6, 1, 2, 1) == (1, 1)
    assert dict(chain(6, 1, 1, 1, 2, 1))["eh-divisibility"] is False


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


def test_dropped_clauses_are_implied():
    # the proof in `chain`, on every tuple of the naive loop with integral
    # (c, d): each clause the chain dropped holds under the premise its
    # proof states, and the estimate's positivity and divisibility
    # together are exactly link 8
    met = {"integral": 0, "link 8": 0, "c = d = 1": 0}
    for n, m1, m2, a in naive_tuples(4, 60):
        cd = katz_cd(n, a, m1, m2)
        if cd is None:
            continue
        c, d = cd
        e1, e2, cdm1 = n - m1 - 1, n - m2 - 1, c * d - 1
        # integrality alone: the canonical-class identities, the congruences
        assert a * (d - 1) * (n + 1) == e1 * cdm1
        assert a * (c - 1) * (n + 1) == e2 * cdm1
        assert (m1 - m2 - a * (m1 + 2)) % e1 == 0
        assert (m2 - m1 - a * (m2 + 2)) % e2 == 0
        numer = a * (n + 1) ** 2 - (n + 1) * (2 * n - 2 - m1 - m2)
        link8 = check_eh_divisibility(n, a, m2, cdm1)
        assert (numer > 0 and numer % (e1 * e2 * a**e2) == 0) == link8
        if link8:
            assert cdm1 % a == 0 and c > d >= 2
        met["integral"] += 1
        met["link 8"] += link8
        met["c = d = 1"] += c == d == 1
    assert all(met.values()), met


@functools.lru_cache(maxsize=None)
def _integral_domain():
    """Every (n, m1, m2, a, c, d) of chain's premise a >= 1,
    1 <= m2 < m1 <= n-2 with n <= 80, a <= 8 and integral katz_cd, with
    neither link 1's gate nor link 2's bound on a, which the naive loop
    applies. Cached, so the identity tests below walk the domain once."""
    out = []
    for n in range(4, 81):
        for m1 in range(2, n - 1):
            for m2 in range(1, m1):
                for a in range(1, 9):
                    cd = katz_cd(n, a, m1, m2)
                    if cd is not None:
                        out.append((n, m1, m2, a) + cd)
    return tuple(out)


def test_cd_minus_one_identity():
    # the proof in `chain` rests on (cd-1)*e1*e2 = a*N*(a*N - e1 - e2) for
    # the (c, d) of the canonical-class relations; katz_cd's must meet it
    # wherever they are integral, which they are on 831 of the tuples with
    # n < 40 and a <= 3
    small = 0
    for n, m1, m2, a, c, d in _integral_domain():
        e1, e2, an = n - m1 - 1, n - m2 - 1, a * (n + 1)
        assert (c * d - 1) * e1 * e2 == an * (an - e1 - e2), (n, a, m1, m2)
        small += n < 40 and a <= 3
    assert small == 831


def test_katz_identities_hold_for_integral_output():
    # whenever katz_cd returns integers, the two canonical-class identities
    # of the assembled tuple hold automatically
    for n, m1, m2, a, c, d in _integral_domain():
        an, cdm1 = a * (n + 1), c * d - 1
        assert an * (d - 1) == (n - m1 - 1) * cdm1, (n, a, m1, m2)
        assert an * (c - 1) == (n - m2 - 1) * cdm1, (n, a, m1, m2)


def test_domain_implies_dropped_clauses():
    # the proof in `chain`: on its premise, every integral (c, d) of
    # _integral_domain has c, d >= 1, and cd-1 > 0 exactly when d >= 2;
    # then c > d and link 7's second inequality hold, and if link 8 holds
    # too, link 7 does
    integral = met = link8 = 0
    for n, m1, m2, a, c, d in _integral_domain():
        e1, e2, cdm1 = n - m1 - 1, n - m2 - 1, c * d - 1
        integral += 1
        assert c >= 1 and d >= 1, (n, a, m1, m2)
        assert (cdm1 > 0) == (d >= 2), (n, a, m1, m2)
        if d < 2:
            continue
        assert c > d, (n, a, m1, m2)
        assert a ** (e2 - 1) * e2 >= a**e1 * (e1 + 1), (n, a, m1, m2)
        if check_eh_divisibility(n, a, m2, cdm1):
            assert a ** (e2 - 1) * e2 * e1 < (n + 1) ** 2, (n, a, m1, m2)
            link8 += 1
        met += 1
    assert (integral, met, link8) == (6898, 5454, 573)


CHAIN_IDS = ["eh-divisibility", "cohomology-gate"]


def test_chain_ids_and_order():
    for case in ((4, 1, 3, 2, 2, 1), (9, 1, 3, 2, 6, 4)):
        assert list(chain(*case)) == [(cid, True) for cid in CHAIN_IDS]
    # n = 14 with c = 3, d = 2 fails the cohomology gate only
    assert dict(chain(14, 1, 3, 2, 10, 7)) == {
        cid: cid != "cohomology-gate" for cid in CHAIN_IDS}


def test_chain_stops_at_the_first_failure(monkeypatch):
    def unreachable(*args):
        raise AssertionError("link after a failure was evaluated")

    monkeypatch.setattr(constraints, "check_betti_gate", unreachable)
    # c = d = 1 makes cd-1 = 0, which fails eh-divisibility, the first link
    assert not all(ok for _, ok in chain(6, 1, 1, 1, 2, 1))
