"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS/FAIL line before
asserting, so the verdict for every criterion is visible even when a
later assertion stops the run. All checks are exact arithmetic.
"""

import math
import random
from fractions import Fraction

from quadrocubic.classify import (
    CASE1,
    CASE2,
    a1_inequality_holds,
    enumerate_candidates,
    exclude_case2,
    verify_main_theorem,
)
from quadrocubic.cli import run_cli
from quadrocubic.constraints import katz_cd
from quadrocubic.evaluate import eval_expr
from quadrocubic.lattice import apply, inverse, solve_basis_change
from quadrocubic.parser import parse_expr
from quadrocubic.ringeval import IntersectionTable, LinearForm, solve_unknowns

from naive import naive_tuples
from test_parser import _random_expr, print_expr
from test_ringeval import (
    CASE2_SOLUTION,
    CASE2_SYSTEM_ROWS,
    _case2_factors,
    _eval_product,
    _naive_expand,
    _product_text,
    form_terms,
)


def _verdict(num, description, ok):
    print(f"criterion {num} ({description}): {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_two_case_reproduction():
    survivors = enumerate_candidates(200)
    ok = survivors == [CASE1, CASE2]
    assert _verdict(1, "two-case reproduction at n_max=200", ok)


def test_criterion_2_symbolic_solve_exactness():
    table2 = IntersectionTable(9, 4, "d2")
    rows_ok = True
    equations = []
    for k, (constant, coeffs) in enumerate(CASE2_SYSTEM_ROWS):
        form = _eval_product(_case2_factors(k), table2)
        rows_ok &= form_terms(form) == (
            constant, {f"u{i}": {(0, 0): v} for i, v in zip(range(6, 10), coeffs)})
        equations.append((form, IntersectionTable(9, 6, "d1").entry(k).constant))
    solution_ok = solve_unknowns(equations) == CASE2_SOLUTION
    ok = rows_ok and solution_ok
    assert _verdict(2, "cross-chart system rows, constants, and solution", ok)


def test_criterion_3_matrix_inverse():
    matrix = [
        [672, -144, 18, -1],
        [1904, -416, 53, -3],
        [5390, -1201, 156, -9],
        [15245, -3465, 459, -27],
    ]
    inverse = [
        [27, -27, 9, -1],
        [369, -372, 125, -14],
        [2883, -2929, 992, -112],
        [16901, -17298, 5904, -672],
    ]
    product = [
        [sum(matrix[i][k] * inverse[k][j] for k in range(4)) for j in range(4)]
        for i in range(4)
    ]
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    ok = product == identity
    assert _verdict(3, "4x4 matrix times stated inverse is the identity", ok)


def _a1_sides(n):
    """(n+1)^2 and 2^ceil((n-2)/4) * ceil((n-2)/4) * ceil((n+2)/4), with the
    ceilings taken over Fractions rather than classify's floor identities."""
    e = math.ceil(Fraction(n - 2, 4))
    return (n + 1) ** 2, 2**e * e * math.ceil(Fraction(n + 2, 4))


def test_criterion_4_a1_inequality_split():
    # The paper states the inequality for all of 4..18; exact arithmetic
    # refutes that at n = 15 and n = 16, where (n+1)^2 falls below the
    # plateau value 2^4 * 4 * 5 = 320. The verdict line names the exceptions.
    fails_high = not any(a1_inequality_holds(n) for n in range(19, 100001))
    largest_holding = max(n for n in range(4, 19) if a1_inequality_holds(n))
    sides = {n: _a1_sides(n) for n in range(4, 19)}
    agrees = all(a1_inequality_holds(n) == (lhs > rhs) for n, (lhs, rhs) in sides.items())
    low_exceptions = [n for n, (lhs, rhs) in sides.items() if lhs <= rhs]
    witnesses = (sides[15], sides[16])
    ok = (
        fails_high
        and largest_holding == 18
        and agrees
        and low_exceptions == [15, 16]
        and witnesses == ((256, 320), (289, 320))
    )
    assert _verdict(
        4,
        "fails on 19..100000; holds on 4..18 except n = 15, 16 "
        "(the paper states all of 4..18)",
        ok,
    ), dict(fails_high=fails_high, largest_holding=largest_holding, agrees=agrees,
            low_exceptions=low_exceptions, witnesses=witnesses)


def test_criterion_5_case2_betti():
    report = verify_main_theorem(9, ineq_max=1000)
    step = next(s for s in report["steps"] if s["id"] == "case2-betti")
    ok = (
        step["status"] == "pass"
        and step["witness"]["a"] == [1, 1, 2, 2, 2, 1, 1]
        and step["witness"]["b"] == [1, 1, 1, 1, 1]
    )
    assert _verdict(5, "n=9 Betti derivation", ok)


def test_criterion_6_case2_exclusion():
    witness = exclude_case2()
    ok = (
        witness["k_candidates"] == [7, 17, 119]
        and witness["d2_bound"] == "32"
        and witness["contradiction"] == "49 > 31"
        and dict(witness["chain"])["brute-scan"].startswith("no feasible")
    )
    assert _verdict(6, "case-2 exclusion, symbolic and brute paths agree", ok)


def test_criterion_7_end_to_end_verdict(capsys):
    code = run_cli(["verify", "--n-max", "200", "--json"])
    capsys.readouterr()
    report = verify_main_theorem(200)
    ok = (
        code == 0
        and report["conclusion"] == "quadro-cubic unique"
        and report["survivors"] == [list(CASE1)]
    )
    assert _verdict(7, "verify exits 0 with the unique survivor", ok)


def _times_monomial(form, c, i, j):
    """form times c d1^i d2^j."""
    def shift(p):
        return {(a + i, b + j): c * v for (a, b), v in p.items()}
    return LinearForm(shift(form.constant), {name: shift(p) for name, p in form.terms.items()})


def test_criterion_8_property_suites():
    rng = random.Random(271828)

    expansion_ok = True
    for _ in range(1000):
        n = rng.randint(4, 12)
        m = rng.randint(1, n - 2)
        table = IntersectionTable(n, m, rng.choice([rng.randint(2, 9), "d1", "d2"]))
        factors = []
        remaining = n
        while remaining > 0:
            exp = rng.randint(1, remaining)
            factors.append((rng.randint(-9, 9), rng.randint(-9, 9), exp))
            remaining -= exp
        # a scalar c d1^i d2^j in front takes the degree symbols through
        # the expander
        c, i, j = rng.randint(-9, 9), rng.randint(0, 2), rng.randint(0, 2)
        text = f"{c} d1^{i} d2^{j} {_product_text(factors)}"
        expected = _times_monomial(_naive_expand(factors, table), c, i, j)
        got = eval_expr(parse_expr(text), n, m, table.deg)
        expansion_ok &= form_terms(got) == form_terms(expected)

    lattice_ok = True
    for _ in range(1000):
        a = rng.randint(1, 20)
        c = rng.randint(1, 30)
        d = rng.randint(1, 30)
        if (c * d - 1) % a:
            continue
        m11, m12, m21, m22 = m = solve_basis_change(a, c, d)
        lattice_ok &= m11 * m22 - m12 * m21 == -1
        h, e = rng.randint(-9, 9), rng.randint(-9, 9)
        lattice_ok &= apply(inverse(m), *apply(m, h, e)) == (h, e)

    parser_ok = True
    for _ in range(1000):
        ast = _random_expr(rng, rng.randint(1, 5))
        parser_ok &= parse_expr(print_expr(ast)) == ast

    ok = expansion_ok and lattice_ok and parser_ok
    assert _verdict(8, "property suites (expansion, basis change, parser)", ok)


def test_criterion_9_cd_identity_on_scan():
    # the identity (cd-1)*e1*e2 = a*num of the proof in constraints.chain,
    # num = a*N^2 - N*(e1+e2): for c*e1 = a*N - e2 and d*e2 = a*N - e1,
    # cross-multiplied by e1*e2 so that every tuple compares in integers,
    # and on katz_cd's (c, d) itself where it is integral
    ok = True
    count = 0
    for n, m1, m2, a in naive_tuples(4, 200):
        e1, e2, an = n - m1 - 1, n - m2 - 1, a * (n + 1)
        a_num = an * (an - e1 - e2)  # a*num
        ok &= (an - e2) * (an - e1) - e1 * e2 == a_num
        cd = katz_cd(n, a, m1, m2)
        if cd is not None:
            ok &= (cd[0] * cd[1] - 1) * e1 * e2 == a_num
        count += 1
    ok &= count > 0
    assert _verdict(9, f"cd-1 identity on all {count} visited scan tuples", ok)
