"""Tests for intersection tables, symbolic expansion, and the exact solver."""

import random
from fractions import Fraction

import pytest

from quadrocubic.evaluate import eval_expr
from quadrocubic.lattice import solve_basis_change
from quadrocubic.parser import parse_expr
from quadrocubic.ringeval import (
    DegreeMismatch,
    InconsistentSystem,
    IntersectionTable,
    LinearForm,
    NotIntegral,
    RankDeficient,
    solve_unknowns,
)

D1 = {(1, 0): 1}

# LinearForm defines no equality: tests compare its dicts.
# The four monomial expansions (2H-E)^(9-k) (5H-3E)^k on the chart-2 table,
# frozen as (constant terms, u6, u7, u8, u9 coefficients); the right-hand
# sides are the chart-1 values 1, 0, 0, d1.
CASE2_SYSTEM_ROWS = [
    ({(0, 0): 512, (0, 1): -2016}, (672, -144, 18, -1)),
    ({(0, 0): 1280, (0, 1): -5600}, (1904, -416, 53, -3)),
    ({(0, 0): 3200, (0, 1): -15540}, (5390, -1201, 156, -9)),
    ({(0, 0): 8000, (0, 1): -43080}, (15245, -3465, 459, -27)),
]

# each unknown's terms
CASE2_SOLUTION = {
    "u6": {(0, 0): -37, (1, 0): -1, (0, 1): 12},
    "u7": {(0, 0): -399, (1, 0): -14, (0, 1): 84},
    "u8": {(0, 0): -2493, (1, 0): -112, (0, 1): 448},
    "u9": {(0, 0): -11771, (1, 0): -672, (0, 1): 2016},
}


def form_terms(form):
    """A LinearForm as plain dicts: its constant, and each unknown's
    coefficient."""
    return form.constant, form.terms


def unknown(name):
    return LinearForm(0, {name: 1})


def _add(p, q):
    return {e: c for e in p.keys() | q.keys() if (c := p.get(e, 0) + q.get(e, 0))}


def _mul(p, q):
    out = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            out[i1 + i2, j1 + j2] = out.get((i1 + i2, j1 + j2), 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _case2_factors(k):
    """(h, e, exp) for (2H - E)^(9-k) (5H - 3E)^k, from the basis change."""
    m11, m12, m21, m22 = solve_basis_change(1, 3, 2)
    return [(m11, m12, 9 - k), (m21, m22, k)]


def _product_text(factors):
    return " ".join(f"({h}H {e:+d}E)^{exp}" for h, e, exp in factors)


def _eval_product(factors, table):
    """The product of (hH + eE)^exp over the factors, through eval's path."""
    return eval_expr(parse_expr(_product_text(factors)), table.n, table.m, table.deg)


def test_table_entry_examples():
    table = IntersectionTable(9, 4, "d2")
    assert form_terms(table.entry(5)) == ({(0, 1): 1}, {})
    assert form_terms(table.entry(3)) == ({}, {})
    assert form_terms(IntersectionTable(4, 2, "d1").entry(2)) == ({(1, 0): -1}, {})
    assert form_terms(table.entry(0)) == ({(0, 0): 1}, {})
    assert form_terms(table.entry(7)) == ({}, {"u7": {(0, 0): 1}})


def test_table_entry_range_error():
    table = IntersectionTable(9, 4, "d2")
    with pytest.raises(DegreeMismatch):
        table.entry(10)
    with pytest.raises(DegreeMismatch):
        table.entry(-1)


def test_table_entry_sign_parity():
    # the codimension entry flips sign exactly when n - m changes parity
    for n in range(4, 12):
        for m in range(1, n - 1):
            value = IntersectionTable(n, m, 3).entry(n - m)
            assert form_terms(value) == ({(0, 0): 3 * (-1) ** (n - m - 1)}, {})


def test_table_validation():
    with pytest.raises(ValueError):
        IntersectionTable(9, 8, "d2")
    with pytest.raises(ValueError):
        IntersectionTable(9, 0, "d2")


def test_expand_first_system_equation():
    assert _product_text(_case2_factors(0)) == "(2H -1E)^9 (5H -3E)^0"
    form = _eval_product(_case2_factors(0), IntersectionTable(9, 4, "d2"))
    assert form_terms(form) == ({(0, 0): 512, (0, 1): -2016}, {
        "u6": {(0, 0): 672},
        "u7": {(0, 0): -144},
        "u8": {(0, 0): 18},
        "u9": {(0, 0): -1},
    })
    assert str(form) == "512 - 2016*d2 + 672*u6 - 144*u7 + 18*u8 - u9"


def test_expand_all_system_rows():
    table = IntersectionTable(9, 4, "d2")
    for k, (constant, coeffs) in enumerate(CASE2_SYSTEM_ROWS):
        form = _eval_product(_case2_factors(k), table)
        names = ("u6", "u7", "u8", "u9")
        assert form_terms(form) == (constant, {u: {(0, 0): c} for u, c in zip(names, coeffs)})


def test_expand_trivial_h_power():
    assert form_terms(eval_expr(parse_expr("H^9"), 9, 4, "d2")) == ({(0, 0): 1}, {})


def test_expand_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        eval_expr(parse_expr("H^8"), 9, 4, "d2")


def _naive_expand(factors, table):
    """Oracle: multiply out one linear factor at a time, tracking the
    E-exponent coefficient list, then substitute table entries."""
    coeffs = [1]
    for h, e, exp in factors:
        for _ in range(exp):
            new = [0] * (len(coeffs) + 1)
            for k, ck in enumerate(coeffs):
                new[k] += ck * h
                new[k + 1] += ck * e
            coeffs = new
    total = LinearForm(0)
    for k, ck in enumerate(coeffs):
        if ck:
            total = total + table.entry(k).scale(ck)
    return total


def test_oracle_equivalence_random():
    rng = random.Random(40961)
    for _ in range(1100):
        n = rng.randint(4, 12)
        m = rng.randint(1, n - 2)
        deg = rng.choice([rng.randint(2, 9), "d1", "d2"])
        table = IntersectionTable(n, m, deg)
        factors = []
        remaining = n
        while remaining > 0:
            exp = rng.randint(1, remaining)
            factors.append((rng.randint(-9, 9), rng.randint(-9, 9), exp))
            remaining -= exp
        expected = _naive_expand(factors, table)
        assert form_terms(_eval_product(factors, table)) == form_terms(expected)


def test_expand_multilinearity():
    rng = random.Random(5150)
    for _ in range(250):
        n = rng.randint(4, 9)
        m = rng.randint(1, n - 2)
        table = IntersectionTable(n, m, "d2")
        fh, fe, gh, ge = (rng.randint(-5, 5) for _ in range(4))
        rest = [(rng.randint(-5, 5), rng.randint(-5, 5), n - 1)]
        combined = _eval_product([(fh + gh, fe + ge, 1)] + rest, table)
        split = _eval_product([(fh, fe, 1)] + rest, table) + _eval_product(
            [(gh, ge, 1)] + rest, table
        )
        assert form_terms(combined) == form_terms(split)


def _case2_monomial_system():
    table2 = IntersectionTable(9, 4, "d2")
    table1 = IntersectionTable(9, 6, "d1")
    return [
        (_eval_product(_case2_factors(k), table2), table1.entry(k).constant)
        for k in range(4)
    ]


def test_solve_case2_monomial_system():
    solution = solve_unknowns(_case2_monomial_system())
    assert solution == CASE2_SOLUTION


def test_case2_substitute_back():
    solution = solve_unknowns(_case2_monomial_system())
    required = [{(0, 0): 1}, {}, {}, {(1, 0): 1}]
    for (form, _), target in zip(_case2_monomial_system(), required):
        value = form.constant
        for name, coeff in form.terms.items():
            value = _add(value, _mul(coeff, solution[name]))
        assert value == target


def test_case2_numeric_substitution():
    solution = solve_unknowns(_case2_monomial_system())
    # x = -(37 - 12*d2 + d1), which vanishes at d2=4, d1=11
    x = solution["u6"]
    assert sorted(x) == [(0, 0), (0, 1), (1, 0)]
    c0, c1, c2 = x[(0, 0)], x[(1, 0)], x[(0, 1)]
    assert (c0, c1, c2) == (-37, -1, 12)
    assert c0 + 11 * c1 + 4 * c2 == 0


def test_solve_inconsistent():
    eqs = [(unknown("u1"), 1), (unknown("u1"), 2)]
    with pytest.raises(InconsistentSystem) as info:
        solve_unknowns(eqs)
    assert info.value.witness == {(0, 0): 1}
    assert str(info.value) == "inconsistent system: 0 = 1"


def test_solve_rank_deficient():
    form = LinearForm(0, {"u1": 1, "u2": 1})
    with pytest.raises(RankDeficient) as info:
        solve_unknowns([(form, 3)])
    assert info.value.rank == 1
    assert info.value.pinned == ["u1"]
    assert info.value.free == ["u2"]


def test_solve_rejects_a_coefficient_that_is_not_an_integer():
    form = LinearForm(0, {"u1": 1, "u2": D1})
    with pytest.raises(ValueError, match="coefficient of u2 is not an integer"):
        solve_unknowns([(form, 3), (unknown("u1"), 1)])


def test_solve_overdetermined_consistent():
    u = unknown("u1")
    solution = solve_unknowns([(u, 5), (u.scale(2), 10)])
    assert solution == {"u1": {(0, 0): 5}}


def test_solve_random_integer_systems():
    rng = random.Random(999)
    for _ in range(150):
        size = rng.randint(1, 4)
        values = [rng.randint(-9, 9) for _ in range(size)]
        eqs = []
        for _ in range(size + rng.randint(0, 1)):
            coeffs = [rng.randint(-5, 5) for _ in range(size)]
            form = LinearForm(0, {f"u{i}": c for i, c in enumerate(coeffs)})
            rhs = sum(c * v for c, v in zip(coeffs, values))
            eqs.append((form, rhs))
        try:
            solution = solve_unknowns(eqs)
        except (RankDeficient, InconsistentSystem):
            continue  # random system happened to be singular
        for i, v in enumerate(values):
            # an unknown whose coefficients were all zero never enters the
            # system; solve_unknowns cannot see it
            if f"u{i}" in solution:
                assert solution[f"u{i}"] == ({(0, 0): v} if v else {})


def _cramer(matrix, rhs):
    """Naive oracle: Cramer's rule, determinants by Laplace expansion."""
    def det(m):
        if len(m) == 1:
            return Fraction(m[0][0])
        return sum((-1) ** j * m[0][j] * det([row[:j] + row[j + 1:] for row in m[1:]])
                   for j in range(len(m)))

    d = det(matrix)
    return [det([row[:j] + [b] + row[j + 1:] for row, b in zip(matrix, rhs)]) / d
            for j in range(len(matrix))]


def test_solve_with_pivots_two_and_three_is_exact():
    # elimination pivots on 2, then 3, then 1: every step divides. The
    # solution is not integral, so it comes back as a common denominator
    # and integer numerators, which must equal Cramer's rule exactly
    matrix = [[2, 1, 0], [4, 5, 1], [2, 4, 2]]
    rhs = [1, 4, 4]
    eqs = [(LinearForm(0, {f"u{j}": c for j, c in enumerate(row)}), b)
           for row, b in zip(matrix, rhs)]
    with pytest.raises(NotIntegral) as info:
        solve_unknowns(eqs)
    expected = _cramer(matrix, rhs)
    assert any(v.denominator != 1 for v in expected)
    denominator, numerators = info.value.denominator, info.value.numerators
    assert denominator > 0 and sorted(numerators) == ["u0", "u1", "u2"]
    for j, value in enumerate(expected):
        assert numerators[f"u{j}"].keys() <= {(0, 0)}
        numerator = numerators[f"u{j}"].get((0, 0), 0)
        assert type(numerator) is int
        assert Fraction(numerator, denominator) == value
    assert str(info.value) == "solution is not integral: u0 = (2)/6"


def test_solve_integral_systems_match_cramer():
    # Bareiss elimination on random integral systems with polynomial right
    # sides, against Cramer's rule: an integral solution comes back as
    # polynomials, any other one as NotIntegral with the same exact values
    rng = random.Random(4242)
    seen = {"integral": 0, "not integral": 0}
    for _ in range(120):
        size = rng.randint(1, 4)
        matrix = [[rng.randint(-4, 4) for _ in range(size)] for _ in range(size)]
        rhs = [{e: c for e, c in {(rng.randint(0, 1), rng.randint(0, 1)): rng.randint(-9, 9),
                                  (0, 0): rng.randint(-9, 9)}.items() if c}
               for _ in range(size)]
        eqs = [(LinearForm(0, {f"u{j}": c for j, c in enumerate(row)}), b)
               for row, b in zip(matrix, rhs)]
        if any(not any(row[j] for row in matrix) for j in range(size)):
            continue  # an unknown that no equation names
        try:
            solution = solve_unknowns(eqs)
            denominator, numerators = 1, solution
            seen["integral"] += 1
        except NotIntegral as exc:
            denominator, numerators = exc.denominator, exc.numerators
            seen["not integral"] += 1
        except (RankDeficient, InconsistentSystem):
            continue  # singular
        for exps in {(0, 0), (1, 0), (0, 1), (1, 1)}:
            expected = _cramer(matrix, [b.get(exps, 0) for b in rhs])
            got = [Fraction(numerators[f"u{j}"].get(exps, 0), denominator)
                   for j in range(size)]
            assert got == expected
    assert all(seen.values()), seen


def test_linear_form_basics():
    u = unknown("u3")
    assert form_terms(u.scale(0)) == ({}, {})
    assert str(LinearForm(0)) == "0"
    assert str(LinearForm(-1, {"u2": -1})) == "-1 - u2"


def test_linear_form_rejects_inexact_values():
    # a degree symbol enters a form as a polynomial, not as its name
    for bad in ("x", "d1", 1.5, None, Fraction(1, 2), Fraction(4, 2)):
        with pytest.raises(TypeError):
            LinearForm(bad)
        with pytest.raises(TypeError):
            LinearForm(0, {"u1": bad})
    assert form_terms(LinearForm(D1, {"u1": 2})) == ({(1, 0): 1}, {"u1": {(0, 0): 2}})


def test_linear_form_unknown_ordering():
    form = LinearForm(0, {"u10": 1, "u2": 1})
    assert str(form) == "u2 + u10"
