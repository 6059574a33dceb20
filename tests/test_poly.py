"""Tests for the exact polynomial ring in d1, d2."""

from fractions import Fraction

import pytest

from quadrocubic.poly import Poly, as_poly

ZERO = Poly()
ONE = Poly.const(1)


def test_construction_drops_zero_coefficients():
    p = Poly({(1, 0): 3, (0, 1): 0})
    assert p.terms == {(1, 0): Fraction(3)}


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Poly({(-1, 0): 1})


def test_const_and_symbol():
    assert Poly.const(5).constant_value() == 5
    assert Poly.symbol("d1").terms == {(1, 0): Fraction(1)}
    assert Poly.symbol("d2").terms == {(0, 1): Fraction(1)}
    with pytest.raises(ValueError):
        Poly.symbol("d3")


def test_is_constant():
    assert ZERO.is_constant()
    assert ONE.is_constant()
    assert not Poly.symbol("d1").is_constant()
    with pytest.raises(ValueError):
        Poly.symbol("d1").constant_value()


def test_arithmetic_identities():
    d1 = Poly.symbol("d1")
    d2 = Poly.symbol("d2")
    assert d1 + d2 - d1 == d2
    assert d1 * ZERO == ZERO
    assert d1 * ONE == d1
    assert (d1 + d2) * (d1 - d2) == d1 * d1 - d2 * d2
    assert -(-d1) == d1
    assert 2 * d1 == d1 + d1


def test_equality_with_scalars():
    assert Poly.const(7) == 7
    assert Poly.const(Fraction(1, 2)) == Fraction(1, 2)
    assert ZERO == 0
    assert Poly.symbol("d1") != 1


def test_hash_consistency():
    assert hash(Poly.const(4)) == hash(Poly({(0, 0): 4}))
    d = {Poly.symbol("d1"): "a"}
    assert d[Poly.symbol("d1")] == "a"


def test_str_ordering():
    # constant first, then ascending degree with d1 before d2
    p = Poly({(0, 1): -2016, (0, 0): 512})
    assert str(p) == "512 - 2016*d2"
    q = Poly({(0, 0): -37, (1, 0): -1, (0, 1): 12})
    assert str(q) == "-37 - d1 + 12*d2"
    assert str(ZERO) == "0"
    assert str(Poly.symbol("d1") * Poly.symbol("d1")) == "d1^2"


def test_as_poly():
    assert as_poly(3) == Poly.const(3)
    assert as_poly("d1") == Poly.symbol("d1")
    assert as_poly(object()) is NotImplemented


def test_integral_coefficients_are_stored_as_int():
    p = Poly({(0, 0): Fraction(4, 2), (1, 0): Fraction(1, 2), (0, 1): -3})
    assert p.terms == {(0, 0): 2, (1, 0): Fraction(1, 2), (0, 1): -3}
    assert type(p.coeff((0, 0))) is int and type(p.coeff((0, 1))) is int
    assert type(p.coeff((1, 0))) is Fraction
    # arithmetic whose exact result is integral gives an int back
    half = Poly.const(Fraction(1, 2))
    for q in (half + half, half * 4, half - Fraction(5, 2), Poly.const(Fraction(6, 3))):
        assert type(q.constant_value()) is int


def test_int_and_fraction_inputs_agree():
    cases = [
        ({(0, 0): 512, (0, 1): -2016}, {(0, 0): Fraction(512), (0, 1): Fraction(-4032, 2)}),
        ({(1, 1): Fraction(1, 2), (0, 0): 7}, {(1, 1): Fraction(2, 4), (0, 0): Fraction(14, 2)}),
        ({(2, 0): 1}, {(2, 0): Fraction(3, 3)}),
    ]
    for ints, fractions in cases:
        p, q = Poly(ints), Poly(fractions)
        assert p == q
        assert hash(p) == hash(q)
        assert str(p) == str(q)
        assert p.terms == q.terms
