"""Tests for the exact polynomial ring in d1, d2."""

from fractions import Fraction

import pytest

from quadrocubic.poly import Poly, as_poly

ZERO = Poly()
ONE = Poly.const(1)
D1 = Poly({(1, 0): 1})
D2 = Poly({(0, 1): 1})


def test_construction_drops_zero_coefficients():
    p = Poly({(1, 0): 3, (0, 1): 0})
    assert p.terms == {(1, 0): Fraction(3)}


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Poly({(-1, 0): 1})


def test_const_and_symbol():
    assert Poly.const(5).constant_value() == 5
    assert Poly.const(5).terms == {(0, 0): 5}
    # the exponents are those of d1, then d2
    assert (str(D1), str(D2)) == ("d1", "d2")


def test_is_constant():
    assert ZERO.is_constant()
    assert ONE.is_constant()
    assert not D1.is_constant()
    with pytest.raises(ValueError):
        D1.constant_value()


def test_arithmetic_identities():
    assert (D1 + D2 - D1).terms == D2.terms
    assert (D1 * ZERO).terms == ZERO.terms == {}
    assert (D1 * ONE).terms == D1.terms
    assert ((D1 + D2) * (D1 - D2)).terms == (D1 * D1 - D2 * D2).terms
    assert (ZERO - (ZERO - D1)).terms == D1.terms
    assert (D1 * 2).terms == (D1 + D1).terms == {(1, 0): 2}


def test_equality_with_scalars():
    # a scalar operand is coerced to the constant polynomial
    assert (ZERO + 7).terms == Poly.const(7).terms == {(0, 0): 7}
    assert (ZERO - 3).terms == Poly.const(-3).terms
    assert (ZERO + 0).terms == {}
    assert (D1 + 1).terms != D1.terms
    assert ZERO.__add__(Fraction(2)) is NotImplemented  # no rational enters the ring


def test_str_ordering():
    # constant first, then ascending degree with d1 before d2
    p = Poly({(0, 1): -2016, (0, 0): 512})
    assert str(p) == "512 - 2016*d2"
    q = Poly({(0, 0): -37, (1, 0): -1, (0, 1): 12})
    assert str(q) == "-37 - d1 + 12*d2"
    assert str(ZERO) == "0"
    assert str(D1 * D1) == "d1^2"


def test_as_poly():
    assert as_poly(3).terms == {(0, 0): 3}
    assert as_poly(D1) is D1
    assert as_poly("d1") is NotImplemented
    assert as_poly(object()) is NotImplemented


def test_integral_coefficients_are_stored_as_int():
    # an integer of another type is stored as an int, and arithmetic keeps
    # every coefficient an int
    p = Poly({(0, 0): True, (1, 0): 0, (0, 1): -3})
    assert p.terms == {(0, 0): 1, (0, 1): -3}
    for q in (p, p + p, p * 4, p - D1, p * D1, ZERO - p):
        assert all(type(c) is int for c in q.terms.values())


def test_non_integer_coefficients_are_refused():
    # a rational or float coefficient, even one with an integral value, is
    # a TypeError: no value that is not an int enters the ring
    for bad in (Fraction(1, 2), Fraction(4, 2), 1.0, 0.5, "3"):
        with pytest.raises(TypeError):
            Poly({(0, 0): bad})
        with pytest.raises(TypeError):
            Poly.const(bad)
    assert as_poly(Fraction(4, 2)) is NotImplemented
