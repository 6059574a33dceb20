"""Tests for polynomials in d1, d2: plain {(i, j): int} dicts, printed by
`format_poly`, and carried by `LinearForm`."""

import random
from fractions import Fraction

import pytest

from quadrocubic.evaluate import eval_expr
from quadrocubic.parser import parse_expr
from quadrocubic.ringeval import IntersectionTable, LinearForm, format_poly, solve_unknowns

from test_ringeval import D1, form_terms


def test_construction_drops_zero_coefficients():
    form = LinearForm({(1, 0): 3, (0, 1): 0}, {"u1": {(0, 0): 0}, "u2": 0, "u3": {(1, 0): 2}})
    assert form_terms(form) == ({(1, 0): 3}, {"u3": {(1, 0): 2}})


def test_const_and_symbol():
    assert LinearForm(5).constant == {(0, 0): 5}
    # the exponents are those of d1, then d2
    assert (format_poly(D1), format_poly({(0, 1): 1})) == ("d1", "d2")
    assert format_poly({(0, 0): 5}) == "5"


def test_arithmetic_identities():
    # the two operations perfbench's eval oracle calls: + and scale by an int
    f = LinearForm({(0, 0): 2, (1, 0): -1}, {"u3": 1, "u4": D1})
    g = LinearForm({(1, 0): 1}, {"u3": -1})
    assert form_terms(f + g) == ({(0, 0): 2}, {"u4": D1})
    assert form_terms(f.scale(2)) == form_terms(f + f)
    assert form_terms(f + f.scale(-1)) == ({}, {})
    assert form_terms(f.scale(0)) == ({}, {})
    assert form_terms(LinearForm(0) + f) == form_terms(f)


def test_equality_with_scalars():
    # a scalar enters a form as the constant polynomial, zero as no term
    assert LinearForm(7).constant == {(0, 0): 7}
    assert LinearForm(-3).constant == {(0, 0): -3}
    assert LinearForm(0).constant == {}
    assert str(LinearForm(0)) == "0"


def test_str_ordering():
    # constant first, then ascending degree with d1 before d2
    assert format_poly({(0, 1): -2016, (0, 0): 512}) == "512 - 2016*d2"
    assert format_poly({(0, 0): -37, (1, 0): -1, (0, 1): 12}) == "-37 - d1 + 12*d2"
    assert format_poly({}) == "0"
    assert format_poly({(2, 0): 1, (1, 1): -3, (0, 2): 4}) == "d1^2 - 3*d1*d2 + 4*d2^2"


def test_integral_coefficients_are_stored_as_int():
    # an integer of another type is stored as an int, and + and scale keep
    # every coefficient an int
    form = LinearForm({(0, 0): True, (1, 0): 0, (0, 1): -3}, {"u1": {(0, 0): True}})
    assert form_terms(form) == ({(0, 0): 1, (0, 1): -3}, {"u1": {(0, 0): 1}})
    for f in (form, form + form, form.scale(4), form.scale(True)):
        coeffs = [*f.constant.values(), *(c for p in f.terms.values() for c in p.values())]
        assert all(type(c) is int for c in coeffs)


def test_non_integer_coefficients_are_refused():
    # a rational or float coefficient, even one with an integral value, is
    # a TypeError: no value that is not an int enters a form
    for bad in (Fraction(1, 2), Fraction(4, 2), 1.0, 0.5, "3", "d1", None):
        with pytest.raises(TypeError):
            LinearForm(bad)
        with pytest.raises(TypeError):
            LinearForm({(0, 0): bad})
        with pytest.raises(TypeError):
            LinearForm(0, {"u1": bad})
        with pytest.raises(TypeError):
            LinearForm(1).scale(bad)


def _oracle_text(n, m, deg, coeffs):
    """What perfbench's eval oracle prints for the sum of coeffs[k]
    H^(n-k) E^k on the chart (n, m, deg): its own calls, in its order."""
    table = IntersectionTable(n, m, deg)
    result = LinearForm(0)
    for k, c in enumerate(coeffs):
        if c:
            result = result + table.entry(k).scale(c)
    return str(result)


def test_oracle_calls_print_what_eval_prints():
    rng = random.Random(1066)
    for _ in range(300):
        n = rng.randint(3, 12)
        m = rng.randint(1, n - 2)
        deg = rng.choice(["d1", "d2", rng.randint(1, 9)])
        coeffs = [rng.choice([0, 0, rng.randint(-50, 50)]) for _ in range(n + 1)]
        text = " + ".join(f"({c}) H^{n - k} E^{k}" for k, c in enumerate(coeffs))
        assert _oracle_text(n, m, deg, coeffs) == str(eval_expr(parse_expr(text), n, m, deg))


def _polys(form):
    return [form.constant, *form.terms.values()]


def test_results_hold_only_nonzero_int_coefficients():
    # every polynomial that eval_expr and solve_unknowns return
    rng = random.Random(77)
    seen = []
    for _ in range(200):
        n = rng.randint(3, 9)
        m = rng.randint(1, n - 2)
        a, b, c = (rng.randint(-3, 3) for _ in range(3))
        text = f"({a}H + {b}E)^{n} - {c} d1 d2 H^{n} + (H - E)^{n}"
        seen += _polys(eval_expr(parse_expr(text), n, m, rng.choice(["d1", "d2", 2])))
    table = IntersectionTable(9, 4, "d2")
    rows = [(eval_expr(parse_expr(f"(2H - E)^{9 - k} (5H - 3E)^{k}"), 9, 4, "d2"),
             IntersectionTable(9, 6, "d1").entry(k).constant) for k in range(4)]
    seen += list(solve_unknowns(rows).values())
    seen += _polys(table.entry(5)) + _polys(table.entry(7))
    assert seen
    for p in seen:
        assert all(type(c) is int and c for c in p.values()), p
