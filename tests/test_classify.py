"""Tests for the classification pipeline and the case-2 exclusion."""

import math
import re
from fractions import Fraction

import pytest

from quadrocubic.classify import (
    CASE1,
    CASE2,
    _a1_rhs,
    _attribute,
    a1_inequality_holds,
    a1_ratio_stride_increases,
    closed_form_dims,
    enumerate_candidates,
    exclude_case2,
    scan_backend,
    verify_main_theorem,
)
from quadrocubic import classify, constraints, scan
from quadrocubic.constraints import check_degree_bound
from quadrocubic.scan import BASE_N_MAX, scan_chunk, visits


def _naive_pow_capped(a, e, cap):
    """min(a**e, cap+1), with a**e = 1 for e <= 0: a power the naive loops
    compare with cap, bounded so that no loop builds a huge integer."""
    return min(a ** max(e, 0), cap + 1)


def naive_scan(n_lo, n_hi, a_max=None, implied_clauses=True):
    """Reference for scan_chunk: every (n, m1, m2, a) with a <= a_max,
    each pushed through the constraint chain with no loop bound derived
    from the chain, and with the chain's full links 5 and 7. With
    implied_clauses, also through every other clause `constraints.chain`
    proves implied and drops."""
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
                    if a_max is not None and a > a_max:
                        break
                    if _naive_pow_capped(a, e1, n1sq) * (n - m1) * e1 > n1sq:
                        break
                    num_c = a * (n + 1) - e2
                    num_d = a * (n + 1) - e1
                    if num_c % e1 or num_d % e2:
                        continue
                    c = num_c // e1
                    d = num_d // e2
                    if not (c > d >= 2):
                        continue
                    cdm1 = c * d - 1
                    if implied_clauses and _fails_implied_clauses(n, a, c, d, m1, m2):
                        continue
                    if _naive_pow_capped(a, e2 - 1, n1sq) * e2 * e1 >= n1sq:
                        continue
                    if _naive_pow_capped(a, e2 - 1 - e1, n - m1) * e2 < n - m1:
                        continue
                    eh_pow = _naive_pow_capped(a, e2 + 1, cdm1)
                    if eh_pow > cdm1 or cdm1 % eh_pow:
                        continue
                    out.append((n, a, c, d, m1, m2))
    return out


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
    divisor = e1 * e2 * _naive_pow_capped(a, e2, numer)
    return divisor > numer or numer % divisor != 0


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


def test_closed_form_dims():
    assert closed_form_dims(4) == (2, 1)
    assert closed_form_dims(9) == (6, 4)
    m1, m2 = closed_form_dims(14)
    assert (m1, m2) == (10, 7)
    # n=14 integral but rejected by the strict gate m1 < (3n-2)/4
    assert 4 * m1 >= 3 * 14 - 2
    for n in range(4, 60):
        dims = closed_form_dims(n)
        assert (dims is not None) == (n % 5 == 4)
        if dims is not None:
            assert (5 * dims[0], 5 * dims[1]) == (4 * n - 6, 3 * n - 7)


def test_enumerate_floor():
    assert enumerate_candidates(4) == [CASE1]
    with pytest.raises(ValueError):
        enumerate_candidates(3)


def test_enumerate_full_range():
    assert enumerate_candidates(200) == [CASE1, CASE2]


@pytest.mark.parametrize("predicate, value, link", [
    ("check_katz_consistency", False, "katz-consistency"),
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
# drops as implied; the kernel must agree either way
@pytest.mark.parametrize("implied_clauses", [True, False])
def test_kernel_agrees_with_naive_oracle(implied_clauses):
    expected = sorted(naive_scan(4, 60, implied_clauses=implied_clauses))
    assert sorted(scan_chunk(4, 60)) == expected
    split = scan_chunk(4, 30) + scan_chunk(31, 60)
    assert sorted(split) == expected


def _bounded_tuples(n_max):
    """(all (n, m1, a, m2) passing links 1 and 2, the subset of those that
    also pass the integrality of c and link 7), from the naive loop."""
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
                while True:
                    if min(a**e1, n1sq + 1) * (n - m1) * e1 > n1sq:
                        break
                    domain.add((n, m1, a, m2))
                    if ((a * (n + 1) - e2) % e1 == 0
                            and min(a ** (e2 - 1), n1sq + 1) * e2 * e1 < n1sq):
                        kept.add((n, m1, a, m2))
                    a += 1
    return domain, kept


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
    # keeps exactly the two cases, whatever n
    assert naive_scan(4, 200, 1, implied_clauses) == [CASE1, CASE2]


def _passes_attribute(raw):
    try:
        _attribute(raw)
    except RuntimeError:
        return False
    return True


@pytest.mark.parametrize("implied_clauses", [True, False])
def test_named_predicates_agree_with_naive_chain(implied_clauses):
    # every (n, m1, m2, a) of the naive loop with integral c, d, including
    # the m2 the cohomology gate rejects: the named predicates _attribute
    # re-checks pass exactly the tuples the naive chain keeps, with or
    # without every clause the reduced chain proves implied
    passing = set()
    for n in range(4, 41):
        n1sq = (n + 1) ** 2
        for m1 in range(2, n - 1):
            e1 = n - m1 - 1
            for m2 in range(1, m1):
                e2 = n - m2 - 1
                a = 1
                while _naive_pow_capped(a, e1, n1sq) * (n - m1) * e1 <= n1sq:
                    num_c, num_d = a * (n + 1) - e2, a * (n + 1) - e1
                    if num_c % e1 == 0 and num_d % e2 == 0:
                        raw = (n, a, num_c // e1, num_d // e2, m1, m2)
                        if _passes_attribute(raw):
                            passing.add(raw)
                    a += 1
    assert passing == set(naive_scan(4, 40, implied_clauses=implied_clauses))


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


def _a_ge_2_passing(n_lo, n_hi):
    """Every (n, m1, a, m2) with a >= 2 that passes links 1, 2 and 7, from
    the naive loop with no bound of scan.visits used."""
    passing = []
    for n in range(n_lo, n_hi + 1):
        n1sq = (n + 1) ** 2
        for m1 in range(2, n - 1):
            e1 = n - m1 - 1
            gate = 4 * m1 >= 3 * n - 2
            for m2 in range(1, m1):
                if gate and m2 > n - m1 - 2:
                    continue
                e2 = n - m2 - 1
                a = 2
                while _naive_pow_capped(a, e1, n1sq) * (n - m1) * e1 <= n1sq:
                    if _naive_pow_capped(a, e2 - 1, n1sq) * e2 * e1 < n1sq:
                        passing.append((n, m1, a, m2))
                    a += 1
    return passing


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


def test_scan_backend_reported():
    assert scan_backend() == "python"


def test_exclusion_soundness():
    for d2 in (49, 289, 14161):
        assert not check_degree_bound(d2, 2, 1, 9, 4)


def test_exclude_case2_witness():
    witness = exclude_case2()
    assert witness["alpha"] == 1
    assert witness["beta_candidates"] == [7, 17, 119]
    assert witness["d2_bound"] == "32"
    assert witness["contradiction"] == "49 > 31"
    ids = [step_id for step_id, _ in witness["chain"]]
    assert ids == [
        "solve-monomials",
        "modular-elimination",
        "alpha-beta",
        "degree-bound",
        "brute-scan",
    ]


def test_exclude_case2_primes_come_from_the_divisors():
    detail = dict(exclude_case2()["chain"])["alpha-beta"]
    assert detail == "alpha = 1, beta in [7, 17, 119] (primes [7, 17])"


def test_exclude_case2_refuses_a_square_divisor(monkeypatch):
    # y's constant -399 + 56 gives k | 14*37 - 343 = 175 = 5^2 * 7, which
    # leaves room for alpha = 5
    solve = classify.solve_unknowns

    def shifted(equations):
        solution = solve(equations)
        solution["u7"] = {**solution["u7"], (0, 0): solution["u7"][(0, 0)] + 56}
        return solution

    monkeypatch.setattr(classify, "solve_unknowns", shifted)
    with pytest.raises(classify.ExclusionFailure,
                       match=r"^175 is not squarefree; alpha not forced to 1$"):
        exclude_case2()


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
    with pytest.raises(classify.ExclusionFailure,
                       match=r"^solution is not integral: u6 = "
                             r"\(-74 - 2\*d1 \+ 24\*d2 \+ d1\*d2\)/2$"):
        exclude_case2()


def test_exclude_case2_refuses_a_non_integral_constant(monkeypatch):
    # x's constant term is one the symbolic path reads: it must refuse it
    # as the brute path would, not truncate it
    _perturbed_case2_system(monkeypatch, {(0, 0): -1})
    with pytest.raises(classify.ExclusionFailure,
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
    assert classify._check_lattice_symbolics() == {"checked": 97, "failure": None}


def test_lattice_symbolics_catches_a_wrong_inverse(monkeypatch):
    inverse = classify.inverse

    def off_by_one(m):
        m11, m12, m21, m22 = inverse(m)
        return m11 + 1, m12, m21, m22

    monkeypatch.setattr(classify, "inverse", off_by_one)
    assert classify._check_lattice_symbolics() == {
        "checked": 0, "failure": "round trip at (1, 1, 1)"}


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
    for d2 in range(2, 32):
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


def test_verify_main_theorem_default():
    report = verify_main_theorem(200)
    assert report["conclusion"] == "quadro-cubic unique"
    assert report["survivors"] == [list(CASE1)]
    assert [s["status"] for s in report["steps"]] == ["pass"] * len(report["steps"])
    assert [s["id"] for s in report["steps"]] == [
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
    witness = next(s["witness"] for s in report["steps"] if s["id"] == "theorem-2case")
    assert witness["survivors"] == [CASE1, CASE2]
    assert witness["extras"] == []
    # the chain rests on no imported fact but link 1's gate
    assert witness["imported_facts"] == ["cohomology-gate"]


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
    assert ineq_step["witness"]["holds_above_18"] == []
    # the paper's 4..18 claim fails at 15 and 16; the report records it
    assert ineq_step["witness"]["low_range"] == [4, 18]
    assert ineq_step["witness"]["fails_in_low_range"] == [15, 16]
    assert ineq_step["witness"]["verdict_uses_low_range"] is False
    probe_step = steps["a1-monotonicity-probe"]
    assert probe_step["status"] == "pass"
    assert probe_step["witness"] == {"stride": 4, "range": [19, 100000], "violations": []}
    wide = {s["id"]: s["witness"] for s in verify_main_theorem(9, ineq_max=200000)["steps"]}
    assert wide["a1-inequality-range"]["range"] == [19, 200000]
    assert wide["a1-monotonicity-probe"]["range"] == [19, 200000]
    scan_witness = steps["theorem-2case"]["witness"]
    assert scan_witness["n_max"] == 30
    assert scan_witness["coverage"] == {
        "a1": "all n, by the closed-form lemma",
        "a_ge_2": "all n, by the gate lemma and the inequality above n = 18",
        "a_ge_2_base": [4, 18]}


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
