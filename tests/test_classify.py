"""Tests for the classification pipeline and the case-2 exclusion."""

from fractions import Fraction

import pytest

from quadrocubic.classify import (
    CASE1,
    CASE2,
    _a1_rhs,
    a1_inequality_holds,
    a1_ratio_stride_increases,
    check_a1_inequality,
    closed_form_dims,
    enumerate_candidates,
    exclude_case2,
    scan_backend,
    verify_main_theorem,
)
from quadrocubic.constraints import check_degree_bound
from quadrocubic.scan import scan_chunk, visits


def _naive_pow_capped(a, e, cap):
    r = 1
    for _ in range(e):
        r *= a
        if r > cap:
            return cap + 1
    return r


def naive_scan(n_lo, n_hi, a_max_override=None, use_hc_axiom=True):
    """Reference for scan_chunk: every (n, m1, m2, a) up to the a-cap,
    each pushed through the whole constraint chain, with no loop bound
    derived from the chain."""
    out = []
    for n in range(max(4, n_lo), n_hi + 1):
        n1sq = (n + 1) ** 2
        for m1 in range(2, n - 1):
            e1 = n - m1 - 1
            gate = 4 * m1 >= 3 * n - 2
            for m2 in range(1, m1):
                if gate and m2 > n - m1 - 2:
                    continue
                e2 = n - m2 - 1
                a = 0
                while True:
                    a += 1
                    if a_max_override is not None and a > a_max_override:
                        break
                    if _naive_pow_capped(a, e1, n1sq) * (n - m1) * e1 > n1sq:
                        break
                    if use_hc_axiom and a >= 2 and 3 * m2 <= 2 * n:
                        continue
                    num_c = a * (n + 1) - e2
                    num_d = a * (n + 1) - e1
                    if num_c % e1 or num_d % e2:
                        continue
                    c = num_c // e1
                    d = num_d // e2
                    if not (c > d >= 2):
                        continue
                    cdm1 = c * d - 1
                    if cdm1 % a:
                        continue
                    if a * (d - 1) * (n + 1) != e1 * cdm1:
                        continue
                    if a * (c - 1) * (n + 1) != e2 * cdm1:
                        continue
                    if (m1 - m2 - a * (m1 + 2)) % e1:
                        continue
                    if (m2 - m1 - a * (m2 + 2)) % e2:
                        continue
                    numer = a * n1sq - (n + 1) * (2 * n - 2 - m1 - m2)
                    if numer <= 0:
                        continue
                    if _naive_pow_capped(a, e2 - 1, n1sq) * e2 * e1 >= n1sq:
                        continue
                    if _naive_pow_capped(a, e2 - 1 - e1, n - m1) * e2 < n - m1:
                        continue
                    divisor = e1 * e2 * _naive_pow_capped(a, e2, numer)
                    if divisor > numer or numer % divisor:
                        continue
                    eh_pow = _naive_pow_capped(a, e2 + 1, cdm1)
                    if eh_pow > cdm1 or cdm1 % eh_pow:
                        continue
                    out.append((n, a, c, d, m1, m2))
    return out


def test_a1_inequality_examples():
    r19 = check_a1_inequality(19)
    assert not r19.holds
    assert r19.witness[0] == {"op": "gt", "lhs": 400, "rhs": 960}
    r18 = check_a1_inequality(18)
    assert r18.holds
    assert r18.witness[0] == {"op": "gt", "lhs": 361, "rhs": 320}
    assert not check_a1_inequality(100).holds
    with pytest.raises(ValueError):
        check_a1_inequality(3)


def test_a1_inequality_small_range():
    # exact evaluation: the bound holds on 4..14 and 17..18 but dips below
    # the ceiling plateau at 15 and 16 (256 and 289 against 320)
    holds = {n for n in range(4, 19) if a1_inequality_holds(n)}
    assert holds == set(range(4, 15)) | {17, 18}


def test_a1_inequality_fails_for_all_large_n():
    assert not any(a1_inequality_holds(n) for n in range(19, 20000))


def test_a1_fast_path_agrees_with_direct_evaluation():
    for n in range(4, 3000):
        e = (n + 1) // 4
        direct = (n + 1) ** 2 > 2**e * e * ((n + 5) // 4)
        assert a1_inequality_holds(n) == direct


def test_a1_monotonicity_stride4():
    assert all(a1_ratio_stride_increases(n) for n in range(19, 5000))


def test_a1_stride_closed_form_matches_cross_multiplication():
    for n in range(4, 2001):
        bigint = _a1_rhs(n + 4) * (n + 1) ** 2 > _a1_rhs(n) * (n + 5) ** 2
        assert a1_ratio_stride_increases(n) == bigint, n


def test_closed_form_dims():
    assert closed_form_dims(4) == (2, 1)
    assert closed_form_dims(9) == (6, 4)
    m1, m2 = closed_form_dims(14)
    assert (m1, m2) == (10, 7)
    # n=14 integral but rejected by the strict gate m1 < (3n-2)/4
    assert 4 * m1 >= 3 * 14 - 2
    for n in range(4, 60):
        integral = closed_form_dims(n)[0].denominator == 1
        assert integral == (n % 5 == 4)


def test_enumerate_floor():
    assert [s.as_tuple() for s in enumerate_candidates(4)] == [CASE1]
    with pytest.raises(ValueError):
        enumerate_candidates(3)


def test_enumerate_full_range():
    survivors = enumerate_candidates(200)
    assert [s.as_tuple() for s in survivors] == [CASE1, CASE2]
    for s in survivors:
        assert "katz-consistency" in s.provenance
        assert "estimate" in s.provenance
        assert "hc-multiplicity-one" in s.provenance


def test_enumerate_sorted_by_n_a_m1():
    survivors = enumerate_candidates(200)
    keys = [(s.n, s.a, s.m1) for s in survivors]
    assert keys == sorted(keys)


def test_partition_independence():
    sequential = [s.as_tuple() for s in enumerate_candidates(60)]
    for workers in (2, 3, 5):
        parallel = [s.as_tuple() for s in enumerate_candidates(60, workers=workers)]
        assert parallel == sequential


def test_no_hc_axiom_gives_superset():
    with_axiom = {s.as_tuple() for s in enumerate_candidates(60)}
    without = {s.as_tuple() for s in enumerate_candidates(60, use_hc_axiom=False)}
    assert with_axiom <= without
    assert CASE1 in without and CASE2 in without


def test_a_max_override():
    # capping a at 0 removes everything; at 1 keeps the paper tuples
    assert enumerate_candidates(60, a_max_override=0) == []
    capped = [s.as_tuple() for s in enumerate_candidates(60, a_max_override=1)]
    assert capped == [CASE1, CASE2]


@pytest.mark.parametrize("use_hc_axiom", [True, False])
@pytest.mark.parametrize("a_max", [None, 1, 2, 5])
def test_kernel_agrees_with_naive_oracle(a_max, use_hc_axiom):
    expected = sorted(naive_scan(4, 60, a_max, use_hc_axiom))
    assert sorted(scan_chunk(4, 60, a_max, use_hc_axiom)) == expected
    split = scan_chunk(4, 30, a_max, use_hc_axiom) + scan_chunk(31, 60, a_max, use_hc_axiom)
    assert sorted(split) == expected


def _bounded_tuples(n_max, a_max_override, use_hc_axiom):
    """(all (n, m1, a, m2) passing links 1-3 and the integrality of c,
    the subset of those that also pass link 7's first inequality), from
    the naive loop."""
    domain, kept = set(), set()
    for n in range(4, n_max + 1):
        n1sq = (n + 1) ** 2
        for m1 in range(2, n - 1):
            e1 = n - m1 - 1
            for m2 in range(1, m1):
                if 4 * m1 >= 3 * n - 2 and m2 > n - m1 - 2:
                    continue
                e2 = n - m2 - 1
                a = 1
                while a_max_override is None or a <= a_max_override:
                    if min(a**e1, n1sq + 1) * (n - m1) * e1 > n1sq:
                        break
                    axiom_ok = not (use_hc_axiom and a >= 2 and 3 * m2 <= 2 * n)
                    if axiom_ok and (a * (n + 1) - e2) % e1 == 0:
                        domain.add((n, m1, a, m2))
                        if min(a ** (e2 - 1), n1sq + 1) * e2 * e1 < n1sq:
                            kept.add((n, m1, a, m2))
                    a += 1
    return domain, kept


@pytest.mark.parametrize("use_hc_axiom", [True, False])
@pytest.mark.parametrize("a_max", [None, 1, 2, 5])
def test_visits_skip_only_tuples_the_chain_rejects(a_max, use_hc_axiom):
    # the loop bounds in scan.visits must keep every tuple that can pass
    # the links they replace, and nothing outside the naive loop's domain
    domain, kept = _bounded_tuples(60, a_max, use_hc_axiom)
    visited = [(n, m1, a, m2) for n, m1, a, m2s in visits(4, 60, a_max, use_hc_axiom)
               for m2 in m2s]
    assert len(visited) == len(set(visited))
    assert kept <= set(visited) <= domain


def test_enumerate_large_n():
    assert [s.as_tuple() for s in enumerate_candidates(1000)] == [CASE1, CASE2]


def test_scan_backend_reported():
    assert scan_backend() == "python"


def test_exclusion_soundness():
    for d2 in (49, 289, 14161):
        assert not check_degree_bound(d2, 2, 1, 9, 4).holds


def test_exclude_case2_witness():
    witness = exclude_case2()
    assert witness.alpha == 1
    assert witness.beta_candidates == frozenset({7, 17, 119})
    assert witness.d2_bound == 32
    assert witness.contradiction == "49 > 31"
    ids = [step_id for step_id, _ in witness.steps]
    assert ids == [
        "solve-monomials",
        "modular-elimination",
        "alpha-beta",
        "degree-bound",
        "brute-scan",
    ]


def test_exclude_case2_solved_values():
    witness = exclude_case2()
    detail = dict(witness.steps)["solve-monomials"]
    assert "-37 - d1 + 12*d2" in detail
    assert "-399 - 14*d1 + 84*d2" in detail


def test_verify_main_theorem_default():
    report = verify_main_theorem(200)
    assert report.conclusion == "quadro-cubic unique"
    assert [s.as_tuple() for s in report.survivors] == [CASE1]
    assert [s.status for s in report.steps] == ["pass"] * len(report.steps)
    assert [s.id for s in report.steps] == [
        "lattice-basis-change",
        "a1-inequality-range",
        "a1-monotonicity-probe",
        "theorem-2case",
        "closed-form-crosscheck",
        "case2-betti",
        "case2-exclusion",
    ]


def test_verify_records_two_pre_exclusion_tuples():
    report = verify_main_theorem(200)
    step = next(s for s in report.steps if s.id == "theorem-2case")
    assert step.witness["survivors"] == [CASE1, CASE2]
    assert step.witness["extras"] == []


def test_verify_minimal_range():
    report = verify_main_theorem(9, ineq_max=1000)
    assert report.conclusion == "quadro-cubic unique"
    with pytest.raises(ValueError):
        verify_main_theorem(8)


def test_verify_deterministic():
    assert verify_main_theorem(30, ineq_max=2000) == verify_main_theorem(
        30, ineq_max=2000
    )


def test_verify_scope_stated_in_report():
    report = verify_main_theorem(30, ineq_max=3000)
    ineq_step = next(s for s in report.steps if s.id == "a1-inequality-range")
    assert ineq_step.witness["range"] == [19, 100000]
    assert ineq_step.status == "pass"
    assert ineq_step.witness["holds_above_18"] == []
    # the paper's 4..18 claim fails at 15 and 16; the report records it
    assert ineq_step.witness["low_range"] == [4, 18]
    assert ineq_step.witness["fails_in_low_range"] == [15, 16]
    assert ineq_step.witness["verdict_uses_low_range"] is False
    scan_step = next(s for s in report.steps if s.id == "theorem-2case")
    assert scan_step.witness["n_max"] == 30


def test_scan_never_evaluates_the_inequality(monkeypatch):
    # backs the report's "verdict_uses_low_range": False
    def refuse(n):
        raise AssertionError(f"scan evaluated the inequality at n={n}")

    monkeypatch.setattr("quadrocubic.classify.a1_inequality_holds", refuse)
    survivors = enumerate_candidates(30)
    assert [s.as_tuple() for s in survivors] == [CASE1, CASE2]
