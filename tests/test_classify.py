"""Tests for the classification pipeline and the case-2 exclusion."""

import functools
import json
import math
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest

from quadrocubic.classify import (
    CASE1,
    CASE2,
    _a1_rhs,
    _attribute,
    a1_inequality_holds,
    a1_ratio_stride_increases,
    enumerate_candidates,
    exclude_case2,
    scan_backend,
    verify_main_theorem,
)
from quadrocubic import betti, classify, constraints, scan
from quadrocubic.cli import run_cli
from quadrocubic.constraints import check_degree_bound
from quadrocubic.scan import BASE_N_MAX, scan_chunk, visits

from naive import naive_tuples, passes_link7, pow_capped


@functools.lru_cache(maxsize=None)
def naive_scan(n_lo, n_hi, a_hi=None):
    """Reference for scan_chunk: the set of (n, a, c, d, m1, m2) over
    naive_tuples, each pushed through the constraint chain with no loop
    bound derived from the chain, and with link 7 and the bound
    c > d >= 2 written out, which the chain proves from link 8. Cached,
    so the tests that filter one domain walk it once."""
    out = set()
    for n, m1, m2, a in naive_tuples(n_lo, n_hi, a_hi=a_hi):
        e1, e2 = n - m1 - 1, n - m2 - 1
        num_c, num_d = a * (n + 1) - e2, a * (n + 1) - e1
        if num_c % e1 or num_d % e2:
            continue
        c, d = num_c // e1, num_d // e2
        if not (c > d >= 2) or not passes_link7(n, m1, m2, a):
            continue
        if pow_capped(a, e2 - 1 - e1, n - m1) * e2 < n - m1:
            continue
        cdm1 = c * d - 1
        eh_pow = pow_capped(a, e2 + 1, cdm1)
        if eh_pow > cdm1 or cdm1 % eh_pow:
            continue
        out.add((n, a, c, d, m1, m2))
    return frozenset(out)


def _fails_implied_clauses(n, a, c, d, m1, m2):
    """True if (n, a, c, d, m1, m2) fails a clause dropped from the chain:
    a | cd-1, the canonical-class identities, the congruences, or the
    estimate's positivity and divisibility."""
    e1, e2 = n - m1 - 1, n - m2 - 1
    cdm1 = c * d - 1
    if cdm1 % a:
        return True
    if a * (d - 1) * (n + 1) != e1 * cdm1 or a * (c - 1) * (n + 1) != e2 * cdm1:
        return True
    if (m1 - m2 - a * (m1 + 2)) % e1 or (m2 - m1 - a * (m2 + 2)) % e2:
        return True
    numer = a * (n + 1) ** 2 - (n + 1) * (2 * n - 2 - m1 - m2)
    if numer <= 0:
        return True
    divisor = e1 * e2 * pow_capped(a, e2, numer)
    return divisor > numer or numer % divisor != 0


def naive_oracle(n_lo, n_hi, a_hi=None, implied_clauses=True):
    """naive_scan's set, and with implied_clauses only the tuples that
    also pass every clause `constraints.chain` drops as implied."""
    kept = naive_scan(n_lo, n_hi, a_hi)
    if not implied_clauses:
        return set(kept)
    return {t for t in kept if not _fails_implied_clauses(*t)}


def test_a1_inequality_examples():
    # (n+1)^2 against the right-hand side: 400 < 960 at 19, 361 > 320 at 18
    assert _a1_rhs(19) == 960 and not a1_inequality_holds(19)
    assert _a1_rhs(18) == 320 and a1_inequality_holds(18)
    assert not a1_inequality_holds(100)


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
    # the stride lemma's whole domain up to verify's default range
    assert all(a1_ratio_stride_increases(n) for n in range(9, 100001))


def test_a1_stride_lemma_threshold_is_exact():
    # the docstring's step 2(n+1)^2 >= (n+5)^2 starts at n = 9, not before
    assert 2 * (9 + 1) ** 2 >= (9 + 5) ** 2
    assert not 2 * (8 + 1) ** 2 >= (8 + 5) ** 2


def test_a1_stride_closed_form_matches_cross_multiplication():
    for n in range(4, 2001):
        bigint = _a1_rhs(n + 4) * (n + 1) ** 2 > _a1_rhs(n) * (n + 5) ** 2
        assert a1_ratio_stride_increases(n) == bigint, n


def test_enumerate_floor():
    assert enumerate_candidates(4) == [CASE1]
    with pytest.raises(ValueError):
        enumerate_candidates(3)


def test_enumerate_full_range():
    assert enumerate_candidates(200) == [CASE1, CASE2]


@pytest.mark.parametrize("predicate, value, link", [
    ("check_eh_divisibility", False, "eh-divisibility"),
    ("check_betti_gate", True, "cohomology-gate"),  # the gate on rejects m2 = 4
])
def test_attribute_names_the_link_a_survivor_fails(monkeypatch, predicate, value, link):
    # a survivor comes back as it went in; one that fails a link of the
    # chain is refused with that link's name
    assert _attribute(CASE2) == CASE2
    monkeypatch.setattr(constraints, predicate, lambda *args: value)
    with pytest.raises(RuntimeError, match=f"^kernel survivor {re.escape(str(CASE2))} "
                                           f"fails predicate {link}$"):
        _attribute(CASE2)


def test_enumerate_sorted_by_n_a_m1():
    survivors = enumerate_candidates(200)
    keys = [(n, a, m1) for n, a, _, _, m1, _ in survivors]
    assert keys == sorted(keys)


def test_partition_independence():
    sequential = enumerate_candidates(60)
    for workers in (2, 3, 5):
        parallel = enumerate_candidates(60, workers=workers)
        assert parallel == sequential


def _spy_scan_range(monkeypatch):
    """Record the (lo, hi) chunks enumerate_candidates hands to the kernel."""
    chunks = []

    def spy(lo, hi):
        chunks.append((lo, hi))
        return scan_chunk(lo, hi)

    monkeypatch.setattr(classify, "_scan_range", spy)
    return chunks


def test_enumerate_two_workers_scans_two_chunks_in_turn(monkeypatch):
    # the base 4..BASE_N_MAX is split into equal-width chunks, in order
    chunks = _spy_scan_range(monkeypatch)
    survivors = enumerate_candidates(200, workers=2)
    assert survivors == [CASE1, CASE2]
    assert chunks == [(4, 11), (12, 18)]


def test_enumerate_huge_range_and_workers_is_bounded(monkeypatch):
    # only the base 4..BASE_N_MAX is split, whatever n_max: one chunk per n,
    # where splitting 4..10^12 into 10^9 chunks would build about 10^9 of them
    chunks = _spy_scan_range(monkeypatch)
    survivors = enumerate_candidates(10**12, workers=10**9)
    assert survivors == [CASE1, CASE2]
    assert chunks == [(n, n) for n in range(4, BASE_N_MAX + 1)]


# implied_clauses: whether the oracle also runs the clauses the chain
# drops as implied; both cases filter one cached walk of the domain
@pytest.mark.parametrize("implied_clauses", [True, False])
def test_kernel_agrees_with_naive_oracle(implied_clauses):
    expected = naive_oracle(4, 60, implied_clauses=implied_clauses)
    assert sorted(scan_chunk(4, 60)) == sorted(expected)
    split = scan_chunk(4, 30) + scan_chunk(31, 60)
    assert sorted(split) == sorted(expected)


@functools.lru_cache(maxsize=None)
def _bounded_tuples(n_max):
    """(all (n, m1, a, m2) passing links 1 and 2, the subset of those that
    also pass the integrality of c and link 7), from the naive loop;
    cached, so both splits of the test below share one walk."""
    domain, kept = set(), set()
    for n, m1, m2, a in naive_tuples(4, n_max):
        domain.add((n, m1, a, m2))
        if (a * (n + 1) - (n - m2 - 1)) % (n - m1 - 1) == 0 and passes_link7(n, m1, m2, a):
            kept.add((n, m1, a, m2))
    return frozenset(domain), frozenset(kept)


@pytest.mark.parametrize("split", [True, False])
def test_visits_skip_only_tuples_the_chain_rejects(split):
    # for a >= 2 the loop bounds in scan.visits must keep every tuple that
    # can pass the links they replace, and nothing outside the naive loop's
    # domain; a = 1 is settled by the lemma, which leaves two tuples; the
    # bounds must not depend on how the n range is cut into chunks
    domain, kept = _bounded_tuples(60)
    ranges = [(4, 30), (31, 60)] if split else [(4, 60)]
    visited = [(n, m1, a, m2) for lo, hi in ranges
               for n, m1, a, m2s in visits(lo, hi) for m2 in m2s]
    assert len(visited) == len(set(visited))
    above_one = {t for t in visited if t[2] >= 2}
    assert {t for t in kept if t[2] >= 2} <= above_one <= domain
    assert set(visited) - above_one == {(4, 2, 1, 1), (9, 6, 1, 4)}


@pytest.mark.parametrize("implied_clauses", [True, False])
def test_a1_lemma_matches_naive_chain(implied_clauses):
    # the closed-form lemma in scan.visits: with a = 1 the whole chain
    # keeps exactly the two cases, whatever n, with or without the clauses
    # it drops as implied
    assert naive_oracle(4, 200, 1, implied_clauses) == {CASE1, CASE2}


def _passes_attribute(raw):
    try:
        _attribute(raw)
    except RuntimeError:
        return False
    return True


@functools.lru_cache(maxsize=None)
def _attribute_passing(n_lo, n_hi):
    """The (n, a, c, d, m1, m2) with integral c, d that _attribute passes,
    over naive_tuples without link 1's gate."""
    passing = set()
    for n, m1, m2, a in naive_tuples(n_lo, n_hi, gate=False):
        e1, e2 = n - m1 - 1, n - m2 - 1
        num_c, num_d = a * (n + 1) - e2, a * (n + 1) - e1
        if num_c % e1 == 0 and num_d % e2 == 0:
            raw = (n, a, num_c // e1, num_d // e2, m1, m2)
            if _passes_attribute(raw):
                passing.add(raw)
    return frozenset(passing)


@pytest.mark.parametrize("implied_clauses", [True, False])
def test_named_predicates_agree_with_naive_chain(implied_clauses):
    # every (n, m1, m2, a) of the naive loop with integral c, d, including
    # the m2 the cohomology gate rejects: the named predicates _attribute
    # re-checks pass exactly the tuples the naive chain keeps, with or
    # without every clause the reduced chain proves implied
    assert _attribute_passing(4, 40) == naive_oracle(4, 40, implied_clauses=implied_clauses)


def test_visits_settles_large_n_without_a_power(monkeypatch):
    # above BASE_N_MAX the lemmas in scan.visits leave no tuple, so visits
    # yields nothing there and does no work: it looks up no n in the a = 1
    # lemma, the first thing it does for each n of the base
    class Refuse(dict):
        def __contains__(self, n):
            raise AssertionError(f"visits looked at n={n}")

    monkeypatch.setattr(scan, "_A1_LEMMA", Refuse())
    assert list(visits(BASE_N_MAX + 1, 10**12)) == []
    with pytest.raises(AssertionError, match="n=4"):
        list(visits(4, 10**12))


def test_visits_work_is_pinned():
    # the loop bounds leave 46 tuples with a >= 2 to the chain, all at
    # n <= 17, and none above; a change that widens the loops shows here
    assert list(visits(18, 2000)) == []
    above_one = [(n, m1, a, m2) for n, m1, a, m2s in visits(4, BASE_N_MAX)
                 if a >= 2 for m2 in m2s]
    assert len(above_one) == 46
    assert max(n for n, *_ in above_one) == 17


def test_visits_first_e1_is_where_the_gate_turns_off():
    # the docstring of scan.visits: the e1-loop skips the e1 where the gate
    # fires, so for the real gate the first e1 it visits is (n+2)//4
    for n in range(4, 1000):
        first = next(e1 for e1 in range(1, n - 2) if not betti.check_betti_gate(n, n - 1 - e1))
        assert first == (n + 2) // 4, n


def test_scan_funnel_is_pinned():
    # the funnel of the scanned base: visits yields 44 ranges (42 with
    # a >= 2) covering 48 tuples, 40 of them with non-integral (c, d); of
    # the 8 that reach the chain, 6 fail eh-divisibility, none fails the
    # cohomology gate and 2 survive
    entries = list(visits(4, BASE_N_MAX))
    assert len(entries) == 44
    assert sum(a >= 2 for _, _, a, _ in entries) == 42
    tuples = [(n, a, m1, m2) for n, m1, a, m2s in entries for m2 in m2s]
    assert len(tuples) == 48
    reach = [(n, a, *cd, m1, m2) for n, a, m1, m2 in tuples
             if (cd := constraints.katz_cd(n, a, m1, m2))]
    assert len(reach) == 8
    first_failure = [next((cid for cid, ok in constraints.chain(*t) if not ok), None)
                     for t in reach]
    assert Counter(first_failure) == {"eh-divisibility": 6, None: 2}
    assert scan_chunk(4, BASE_N_MAX) == [t for t, cid in zip(reach, first_failure)
                                         if cid is None] == [CASE1, CASE2]


def test_gate_share_of_the_base_is_pinned():
    # without link 1's gate, the naive loop over the base: 1,666 of its
    # 14,247 tuples have integral (c, d), 41 of those pass link 8, the
    # gate removes 39 and 2 survive, so the gate does work no other link
    # does
    tuples = list(naive_tuples(4, BASE_N_MAX, gate=False))
    assert len(tuples) == 14247
    reach = [(n, a, *cd, m1, m2) for n, m1, m2, a in tuples
             if (cd := constraints.katz_cd(n, a, m1, m2))]
    assert len(reach) == 1666
    first_failure = [next((cid for cid, ok in constraints.chain(*t) if not ok), None)
                     for t in reach]
    assert Counter(first_failure) == {"eh-divisibility": 1625, "cohomology-gate": 39, None: 2}
    assert [t for t, cid in zip(reach, first_failure) if cid is None] == [CASE1, CASE2]


def _a_ge_2_passing(n_lo, n_hi):
    """Every (n, m1, a, m2) with a >= 2 that passes links 1, 2 and 7, from
    the naive loop with no bound of scan.visits used."""
    return [(n, m1, a, m2) for n, m1, m2, a in naive_tuples(n_lo, n_hi, a_lo=2)
            if passes_link7(n, m1, m2, a)]


def test_a_ge_2_lemma_threshold_is_exact(monkeypatch):
    # the a >= 2 lemmas in scan.visits leave no tuple above n = 18: with
    # the cut lifted, the loops find none on 19..5000. n = 17 still has a
    # tuple with a >= 2 that passes links 1, 2 and 7, so 18 is the exact cut
    assert BASE_N_MAX == 18
    monkeypatch.setattr(scan, "BASE_N_MAX", 5000)
    assert list(visits(19, 5000)) == []
    assert _a_ge_2_passing(17, 17) and not _a_ge_2_passing(18, 18)


def test_a_ge_2_lemma_matches_naive_loop():
    # no tuple with a >= 2 and 19 <= n <= 200 passes links 1 and 2 and
    # link 7, with no bound of scan.visits used
    assert _a_ge_2_passing(19, 200) == []


def test_scan_decides_with_the_named_predicates(monkeypatch):
    # scan_chunk keeps a tuple only when constraints.chain passes it, and
    # _attribute re-checks with the same chain: turn one predicate off and
    # both see it
    monkeypatch.setattr(constraints, "check_eh_divisibility", lambda *args: False)
    assert scan_chunk(4, 60) == []
    with pytest.raises(RuntimeError, match="fails predicate eh-divisibility"):
        _attribute(CASE1)


def test_attribute_refuses_a_below_one():
    # katz_cd reproduces (4, -1, -7, -3, 2, 1) and the chain passes it:
    # the proof that link 8's positivity is d >= 2 takes a >= 1 as its
    # premise, so the re-check refuses a <= 0 on the domain, before the
    # chain would divide by 0^(n-m2) = 0
    assert constraints.katz_cd(4, -1, 2, 1) == (-7, -3)
    assert all(ok for _, ok in constraints.chain(4, -1, -7, -3, 2, 1))
    for raw in ((4, -1, -7, -3, 2, 1), (4, 0, 2, 2, 2, 1)):
        with pytest.raises(RuntimeError, match=f"^kernel survivor {re.escape(str(raw))} is "
                                               f"outside the domain 1 <= m2 < m1 <= n-2, a >= 1$"):
            _attribute(raw)


def test_attribute_rejects_tuples_outside_the_domain():
    # m1 = m2 passes the reduced chain, whose proofs of the clauses it
    # drops take m2 < m1 as their premise; the re-check must reject it on
    # the domain
    raw = (5, 1, 2, 2, 2, 2)
    assert all(ok for _, ok in constraints.chain(*raw))
    with pytest.raises(RuntimeError, match="outside the domain 1 <= m2 < m1 <= n-2"):
        _attribute(raw)


def test_enumerate_large_n():
    assert enumerate_candidates(1000) == [CASE1, CASE2]
    assert enumerate_candidates(10**4) == [CASE1, CASE2]


def test_scan_backend_machine_fact():
    # perfbench's machine facts record it as scan_backend; no report states it
    assert scan_backend() == "python"


def test_exclusion_soundness():
    for d2 in (49, 289, 14161):
        assert not check_degree_bound(d2, 2, 1, 9, 4)


def test_exclude_case2_witness():
    witness = exclude_case2()
    assert witness["k_candidates"] == [7, 17, 119]
    assert witness["d2_bound"] == "32"
    assert witness["contradiction"] == "49 > 31"
    # negative factors are parenthesised, never printed as "- -1*399"
    assert witness["chain"][1] == ["modular-elimination", "k | (-14)*37 - (-1)*399, i.e. k | 119"]
    assert witness["chain"][2] == ["degree-bound",
                                   "d2 = k^2 in [49, 289, 14161]; bound is 32: 49 > 31"]
    ids = [step_id for step_id, _ in witness["chain"]]
    assert ids == [
        "solve-monomials",
        "modular-elimination",
        "degree-bound",
        "brute-scan",
    ]


def test_k_squared_rule_matches_the_alpha_beta_factorizations():
    # naive oracle for the symbolic path's rule, with its own loops: the
    # degrees d2 = alpha^4 * beta^2 >= 2 with alpha^2 * beta | r are the
    # k^2 with k | r and k >= 2 (alpha and beta divide r, so r's divisors
    # hold every candidate)
    for r in range(1, 2001):
        divisors = [q for q in range(1, r + 1) if r % q == 0]
        factored = {alpha**4 * beta**2 for alpha in divisors for beta in divisors
                    if r % (alpha**2 * beta) == 0 and alpha**4 * beta**2 >= 2}
        assert factored == {k * k for k in divisors if k >= 2}, r


def _shift_y(shift):
    """Patch the solve so that y's constant -399 moves by shift."""
    def patch(monkeypatch):
        solve = classify.solve_unknowns

        def shifted(equations):
            solution = solve(equations)
            solution["u7"] = {**solution["u7"], (0, 0): solution["u7"][(0, 0)] + shift}
            return solution

        monkeypatch.setattr(classify, "solve_unknowns", shifted)
    return patch


# y's constant -399 + 56 gives k | 14*37 - 343 = 175 = 5^2 * 7, whose
# divisor k = 5 gives d2 = 25, below the bound
_square_divisor = _shift_y(56)
_SQUARE_DIVISOR_ERROR = "k = 5 evades the degree bound: d2 = 25"
# y's constant -399 - 118 gives k | 14*37 - 517 = 1: no d2 = k^2 meets
# the premise d2 >= 2
_unit_divisor = _shift_y(-118)


def _no_premise(monkeypatch):
    """Drop the premise d2 >= 2: d2 = 1 is admitted, by both paths."""
    monkeypatch.setattr(classify, "D2_MIN", 1)


_NO_PREMISE_ERROR = "k = 1 evades the degree bound: d2 = 1"


def test_exclude_case2_refuses_a_square_divisor(monkeypatch):
    _square_divisor(monkeypatch)
    with pytest.raises(RuntimeError, match=f"^{_SQUARE_DIVISOR_ERROR}$"):
        exclude_case2()


@pytest.mark.parametrize("argv", [["verify", "--n-max", "9", "--json"],
                                  ["exclude-case2", "--json"]],
                         ids=["verify", "exclude-case2"])
def test_a_unit_divisor_leaves_no_degree_to_refute(argv, monkeypatch, capsys):
    # with k | 1, no k^2 meets the premise, so the symbolic path has no
    # candidate to refute, and the brute path finds none in 2..31
    _unit_divisor(monkeypatch)
    assert run_cli(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    witness = doc if argv[0] == "exclude-case2" else doc["steps"][4]["witness"]
    assert witness["k_candidates"] == []
    assert witness["contradiction"] == "no k with k^2 >= 2 divides 1"
    assert witness["chain"][3] == ["brute-scan", "no feasible (alpha, beta) for any d2 in 2..31"]


def test_exclude_case2_takes_its_bound_from_check_degree_bound(monkeypatch):
    # the bound is the least d2 that check_degree_bound refuses, so a
    # tighter predicate moves the contradiction and the brute range with it
    monkeypatch.setattr(classify, "check_degree_bound", lambda d2, d, a, n, m2: d2 < 20)
    witness = exclude_case2()
    assert witness["d2_bound"] == "20"
    assert witness["contradiction"] == "49 > 19"
    assert dict(witness["chain"])["brute-scan"] == "no feasible (alpha, beta) for any d2 in 2..19"


def test_exclude_case2_solved_values():
    witness = exclude_case2()
    detail = dict(witness["chain"])["solve-monomials"]
    assert "-37 - d1 + 12*d2" in detail
    assert "-399 - 14*d1 + 84*d2" in detail


def _perturbed_case2_system(monkeypatch, delta):
    """Make the case-2 system's last row read 2*form = 2*required + delta.
    Column 3 of the inverse matrix (criterion 3) is (-1, -14, -112, -672),
    so x = u6 moves by -delta/2 and y, u8, u9 stay integral."""
    system = classify._case2_system

    def perturbed():
        rows = system()
        form, required = rows[3]
        total = {e: 2 * c for e, c in required.items()}
        for e, c in delta.items():
            total[e] = total.get(e, 0) + c
        rows[3] = (form.scale(2), total)
        return rows

    monkeypatch.setattr(classify, "_case2_system", perturbed)


def test_exclude_case2_refuses_a_non_integral_coefficient(monkeypatch):
    # a 1/2*d1*d2 term in x is one the symbolic path (modulo d2) never
    # reads; the solve must refuse it before both paths, where int() would
    # truncate odd d1*d2
    _perturbed_case2_system(monkeypatch, {(1, 1): -1})
    with pytest.raises(RuntimeError,
                       match=r"^solution is not integral: u6 = "
                             r"\(-74 - 2\*d1 \+ 24\*d2 \+ d1\*d2\)/2$"):
        exclude_case2()


def test_exclude_case2_refuses_a_non_integral_constant(monkeypatch):
    # x's constant term is one the symbolic path reads: it must refuse it
    # as the brute path would, not truncate it
    _perturbed_case2_system(monkeypatch, {(0, 0): -1})
    with pytest.raises(RuntimeError,
                       match=r"^solution is not integral: u6 = \(-73 - 2\*d1 \+ 24\*d2\)/2$"):
        exclude_case2()


def _exact_coefficients(polys):
    coeffs = [c for p in polys for c in p.values()]
    assert coeffs
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in coeffs)


def test_case2_system_and_solution_stay_exact(monkeypatch):
    # an int / int division anywhere in the solve would leave a float
    rows = classify._case2_system()
    assert _exact_coefficients([p for form, required in rows
                                for p in (form.constant, required, *form.terms.values())])
    solve, solutions = classify.solve_unknowns, []

    def recording_solve(system):
        solutions.append(solve(system))
        return solutions[-1]

    monkeypatch.setattr(classify, "solve_unknowns", recording_solve)
    exclude_case2()
    assert len(solutions) == 1
    assert _exact_coefficients(solutions[0].values())


def test_lattice_symbolics_witness():
    assert classify._check_lattice_symbolics() == {"checked": 97}


def _wrong_inverse(monkeypatch):
    inverse = classify.inverse

    def off_by_one(m):
        m11, m12, m21, m22 = inverse(m)
        return m11 + 1, m12, m21, m22

    monkeypatch.setattr(classify, "inverse", off_by_one)


def test_lattice_symbolics_catches_a_wrong_inverse(monkeypatch):
    _wrong_inverse(monkeypatch)
    with pytest.raises(RuntimeError, match=r"^round trip at \(1, 1, 1\)$"):
        classify._check_lattice_symbolics()
    assert verify_main_theorem(9)["steps"][0] == {
        "id": "lattice-basis-change", "status": "fail",
        "witness": {"error": "round trip at (1, 1, 1)"}}


def _fraction_value(p, d1, d2):
    return sum((c * Fraction(d1) ** i * Fraction(d2) ** j for (i, j), c in p.items()),
               Fraction(0))


def test_brute_scan_integers_match_exact_fractions(monkeypatch):
    # every (d1, d2) the brute grid visits, x then y, evaluated both ways
    solution = classify.solve_unknowns(classify._case2_system())
    evaluate, seen = classify._eval_terms, []

    def spy(terms, d1, d2):
        seen.append((d1, d2, evaluate(terms, d1, d2)))
        return seen[-1][2]

    monkeypatch.setattr(classify, "_eval_terms", spy)
    exclude_case2()
    expected_points = []
    for d2 in range(classify.D2_MIN, 32):
        for alpha in (1, 2):  # alpha^4 <= d2 < 32
            beta = math.isqrt(d2 // alpha**4)
            if d2 == alpha**4 * beta**2:
                period = math.lcm(alpha**3 * beta**2, alpha**2 * beta)
                expected_points += [(d1, d2) for d1 in range(period)]
    assert len(seen) == 2 * len(expected_points) == 124
    for unknown, values in (("u6", seen[::2]), ("u7", seen[1::2])):
        assert [(d1, d2) for d1, d2, _ in values] == expected_points
        for d1, d2, value in values:
            assert value == _fraction_value(solution[unknown], d1, d2)


def test_the_brute_path_reads_the_premise(monkeypatch):
    # a premise d2 >= 5 keeps every k^2 >= 49 and drops d2 = 4 from the
    # brute range, whose other degrees alpha^4 * beta^2 are 9, 16 and 25
    evaluate, seen = classify._eval_terms, set()

    def spy(terms, d1, d2):
        seen.add(d2)
        return evaluate(terms, d1, d2)

    monkeypatch.setattr(classify, "_eval_terms", spy)
    monkeypatch.setattr(classify, "D2_MIN", 5)
    witness = exclude_case2()
    assert witness["k_candidates"] == [7, 17, 119]
    assert dict(witness["chain"])["brute-scan"] == "no feasible (alpha, beta) for any d2 in 5..31"
    assert seen == {9, 16, 25}


def test_verify_main_theorem_default():
    report = verify_main_theorem(200)
    assert report["conclusion"] == "quadro-cubic unique"
    assert report["survivors"] == [list(CASE1)]
    assert [s["status"] for s in report["steps"]] == ["pass"] * len(report["steps"])
    assert [s["id"] for s in report["steps"]] == [
        "lattice-basis-change",
        "a1-inequality-range",
        "theorem-2case",
        "case2-betti",
        "case2-exclusion",
    ]


def test_verify_records_two_pre_exclusion_tuples():
    report = verify_main_theorem(200)
    steps = {s["id"]: s["witness"] for s in report["steps"]}
    witness = steps["theorem-2case"]
    assert witness["survivors"] == [CASE1, CASE2]
    # the chain rests on no imported fact but those link 1's gate is
    # derived from, each a row of the case-2 Betti derivation
    assert witness["imported_facts"] == ["barth-larsen", "blowup-agreement"]
    rows = [row_id for row_id, _ in steps["case2-betti"]["derivation"]]
    assert set(witness["imported_facts"]) <= set(rows)


def test_verify_minimal_range():
    report = verify_main_theorem(9, ineq_max=1000)
    assert report["conclusion"] == "quadro-cubic unique"
    with pytest.raises(ValueError):
        verify_main_theorem(8)


def test_verify_deterministic():
    assert verify_main_theorem(30, ineq_max=2000) == verify_main_theorem(
        30, ineq_max=2000
    )


def test_verify_scope_stated_in_report():
    steps = {s["id"]: s for s in verify_main_theorem(30, ineq_max=3000)["steps"]}
    ineq_step = steps["a1-inequality-range"]
    assert ineq_step["witness"]["range"] == [19, 100000]
    assert ineq_step["status"] == "pass"
    assert ineq_step["witness"]["stride"] == 4
    # the paper's 4..18 claim fails at 15 and 16; the report records it
    assert ineq_step["witness"]["low_range"] == [4, 18]
    assert ineq_step["witness"]["fails_in_low_range"] == [15, 16]
    assert ineq_step["witness"]["verdict_uses_low_range"] is False
    wide = {s["id"]: s["witness"] for s in verify_main_theorem(9, ineq_max=200000)["steps"]}
    assert wide["a1-inequality-range"]["range"] == [19, 200000]
    scan_witness = steps["theorem-2case"]["witness"]
    assert scan_witness["n_max"] == 30
    assert scan_witness["coverage"] == {
        "a1": "all n, by the closed-form lemma",
        "a_ge_2": "all n, by the gate lemma and the inequality above n = 18",
        "a_ge_2_base": [4, 18]}


def test_verify_reads_the_base_from_scan(monkeypatch, capsys):
    # one patch of scan.BASE_N_MAX moves the scan's base and the
    # inequality's together, so the two still meet; the low range quotes
    # the paper and stays
    monkeypatch.setattr(scan, "BASE_N_MAX", 25)
    report = verify_main_theorem(9)
    assert report["conclusion"] == "quadro-cubic unique"
    steps = {s["id"]: s["witness"] for s in report["steps"]}
    assert steps["a1-inequality-range"]["range"][0] == 26
    assert steps["a1-inequality-range"]["low_range"] == [4, 18]
    assert steps["theorem-2case"]["coverage"]["a_ge_2_base"] == [4, 25]
    assert run_cli(["verify", "--n-max", "9"]) == 0
    assert capsys.readouterr().out.endswith("conclusion: quadro-cubic unique\n")


def test_verify_settles_the_inequality_with_a_fixed_call_budget(monkeypatch):
    # the lemmas leave 15 low-range and 4 base evaluations of the
    # inequality and 4 of the stride probe, whatever range is stated; the
    # base must meet every residue of n mod 4. perfbench marks its spans at
    # the first call of each name, in this order
    calls = []

    def record(name):
        original = getattr(classify, name)

        def wrapper(*args, **kwargs):
            calls.append((name, args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(classify, name, wrapper)

    names = ["a1_inequality_holds", "a1_ratio_stride_increases", "enumerate_candidates"]
    for name in names:
        record(name)
    report = verify_main_theorem(9, ineq_max=10**6)
    assert report["conclusion"] == "quadro-cubic unique"
    ineq = [n for name, n in calls if name == names[0]]
    probe = [n for name, n in calls if name == names[1]]
    assert len(ineq) <= 19 and sorted(ineq) == list(range(4, 23))
    assert len(probe) <= 4 and sorted(probe) == list(range(19, 23))
    first = [name for name, _ in calls]
    assert sorted(set(first), key=first.index) == names


def test_scan_never_evaluates_the_inequality(monkeypatch):
    # backs the report's "verdict_uses_low_range": False
    def refuse(n):
        raise AssertionError(f"scan evaluated the inequality at n={n}")

    monkeypatch.setattr("quadrocubic.classify.a1_inequality_holds", refuse)
    survivors = enumerate_candidates(30)
    assert survivors == [CASE1, CASE2]


# One failure path: a failed check is a failed `verify` step, or one
# `error:` line with exit 1 from `enumerate` and `exclude-case2`.

def _refused_survivor(monkeypatch):
    """The scan also yields a tuple that _attribute refuses."""
    monkeypatch.setattr(classify, "_scan_range",
                        lambda lo, hi: scan_chunk(lo, hi) + [(5, 1, 3, 2, 2, 1)])


def _doubled_survivor(monkeypatch):
    """The scan yields CASE1 twice."""
    monkeypatch.setattr(classify, "_scan_range", lambda lo, hi: scan_chunk(lo, hi) + [CASE1])


def _case2_rows(monkeypatch, rows):
    """The case-2 system becomes rows(original rows)."""
    system = classify._case2_system
    monkeypatch.setattr(classify, "_case2_system", lambda: rows(system()))


def _rank_deficient(monkeypatch):
    _case2_rows(monkeypatch, lambda rows: rows[:3])


def _inconsistent(monkeypatch):
    # row 0 again, with its required value moved by one
    _case2_rows(monkeypatch, lambda rows: rows + [
        (rows[0][0], {**rows[0][1], (0, 0): rows[0][1].get((0, 0), 0) + 1})])


def _wrong_gate(gate):
    """Patch every quadrocubic module's binding of check_betti_gate, as a
    wrong definition in betti.py would."""
    def patch(monkeypatch):
        real = betti.check_betti_gate
        for name, module in list(sys.modules.items()):
            if name.startswith("quadrocubic") and vars(module).get("check_betti_gate") is real:
                monkeypatch.setattr(module, "check_betti_gate", gate)
    return patch


def _case(step_id, break_step, error, suffix=""):
    """A way to break one step's check: the test id is the step id, with a
    suffix for a step's second way to fail."""
    return pytest.param(step_id, break_step, error, id=step_id + suffix)


# each step's id, how to break its check, and the start of its error
_BROKEN_STEPS = [
    _case("lattice-basis-change", _wrong_inverse, "round trip at (1, 1, 1)"),
    _case("a1-inequality-range",
          lambda mp: mp.setattr(classify, "a1_inequality_holds", lambda n: True),
          "the inequality holds above 18 at n = [19, 20, 21, 22]"),
    _case("a1-inequality-range",
          lambda mp: mp.setattr(classify, "a1_ratio_stride_increases", lambda n: False),
          "the ratio does not grow along the stride at n = [19, 20, 21, 22]", "-stride"),
    # the inequality's base is the stride after the scan's, so a scan cut
    # short leaves n = 18 to a base where the inequality still holds
    _case("a1-inequality-range", lambda mp: mp.setattr(scan, "BASE_N_MAX", 17),
          "the inequality holds above 17 at n = [18]", "-base-cut-short"),
    _case("theorem-2case", _refused_survivor,
          "kernel survivor (5, 1, 3, 2, 2, 1) does not reproduce under katz_cd"),
    # the scan reads the gate, so a wrong one lets it into the region the
    # gate-on lemma skips, where tuples pass the chain
    _case("theorem-2case", _wrong_gate(lambda n, m1: False),
          "survivors [(4, 1, 3, 2, 2, 1), (6, 3, 19, 10, 4, 3), (7, 2, 13, 5, 5, 3), ",
          "-gate-never-fires"),
    _case("theorem-2case", _wrong_gate(lambda n, m1: 4 * m1 >= 3 * n + 2),
          "survivors [(4, 1, 3, 2, 2, 1), (6, 3, 19, 10, 4, 3), (7, 2, 13, 5, 5, 3), "
          "(8, 3, 25, 13, 6, 5), (9, 1, 3, 2, 6, 4)], expected ", "-gate-shifted"),
    # a survivor list is compared as a list, so a repeat is not lost in a set
    _case("theorem-2case", _doubled_survivor,
          "survivors [(4, 1, 3, 2, 2, 1), (4, 1, 3, 2, 2, 1), (9, 1, 3, 2, 6, 4)], expected ",
          "-doubled-survivor"),
    _case("case2-betti",
          lambda mp: mp.setattr(betti, "barth_larsen_forced", lambda n, m, i: False),
          "2 (a, b) pairs survive"),
    _case("case2-exclusion", _rank_deficient, "rank 3: free unknowns ['u9']"),
    _case("case2-exclusion", _no_premise, _NO_PREMISE_ERROR, "-no-premise"),
]


@pytest.mark.parametrize("step_id, break_step, error", _BROKEN_STEPS)
def test_a_failed_check_fails_its_step_only(step_id, break_step, error, monkeypatch, capsys):
    break_step(monkeypatch)
    report = verify_main_theorem(9)
    failed = [s for s in report["steps"] if s["status"] == "fail"]
    assert [s["id"] for s in failed] == [step_id]
    assert list(failed[0]["witness"]) == ["error"]
    assert failed[0]["witness"]["error"].startswith(error)
    assert report["conclusion"] == f"refuted at step {step_id}"

    assert run_cli(["verify", "--n-max", "9"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert f"[fail] {step_id}\n    {error}" in captured.out
    assert captured.out.endswith(f"conclusion: refuted at step {step_id}\n")
    assert run_cli(["verify", "--n-max", "9", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    steps = json.loads(captured.out)["steps"]
    assert [s for s in steps if s["status"] == "fail"] == failed


@pytest.mark.parametrize("argv, break_check, error", [
    (["exclude-case2"], _rank_deficient, "rank 3: free unknowns ['u9']"),
    (["exclude-case2", "--json"], _inconsistent, "inconsistent system: 0 = 1"),
    (["exclude-case2"], _square_divisor, _SQUARE_DIVISOR_ERROR),
    (["exclude-case2"], _no_premise, _NO_PREMISE_ERROR),
    (["enumerate", "--json"], _refused_survivor,
     "kernel survivor (5, 1, 3, 2, 2, 1) does not reproduce under katz_cd"),
], ids=["rank-deficient", "inconsistent", "square-divisor", "no-premise", "refused-survivor"])
def test_a_failed_check_is_one_error_line(argv, break_check, error, monkeypatch, capsys):
    break_check(monkeypatch)
    assert run_cli(argv) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")
