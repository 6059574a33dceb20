"""Tests for the rank-2 Picard lattice and the chart basis change."""

import random
from fractions import Fraction

import pytest

from quadrocubic.lattice import (
    BasisChange,
    ChartMismatch,
    ConstraintViolation,
    DivisorClass,
    GeometryParams,
    LatticeParams,
    canonical_class,
    solve_basis_change,
)


def test_basis_change_case1_params():
    bc = solve_basis_change(LatticeParams(a=1, c=3, d=2))
    # H1 = 2*H2 - E2, E1 = 5*H2 - 3*E2
    assert (bc.m11, bc.m12, bc.m21, bc.m22) == (2, -1, 5, -3)
    assert bc.apply(DivisorClass(1, 1, 0)) == DivisorClass(2, 2, -1)
    assert bc.apply(DivisorClass(1, 0, 1)) == DivisorClass(2, 5, -3)
    assert bc.determinant() == -1


def test_basis_change_smallest_instance():
    bc = solve_basis_change(LatticeParams(a=1, c=1, d=1))
    assert (bc.m11, bc.m12, bc.m21, bc.m22) == (1, -1, 0, -1)
    assert bc.determinant() == -1


def test_basis_change_a2():
    bc = solve_basis_change(LatticeParams(a=2, c=3, d=3))
    assert (bc.m11, bc.m12, bc.m21, bc.m22) == (3, -2, 4, -3)
    assert bc.determinant() == -1


def test_basis_change_divisibility_failure():
    with pytest.raises(ConstraintViolation) as info:
        solve_basis_change(LatticeParams(a=2, c=2, d=2))
    assert info.value.name == "a-divides-cd-minus-1"


def test_lattice_params_positivity():
    with pytest.raises(ConstraintViolation):
        LatticeParams(a=0, c=1, d=1)
    with pytest.raises(ConstraintViolation):
        LatticeParams(a=1, c=-3, d=1)


def test_divisor_class_chart_checks():
    with pytest.raises(ValueError):
        DivisorClass(3, 1, 0)
    bc = solve_basis_change(LatticeParams(a=1, c=3, d=2))
    with pytest.raises(ChartMismatch):
        bc.apply(DivisorClass(2, 1, 0))
    # coordinates are integers; a rational one, even an integral one, is refused
    for bad in (Fraction(1, 2), Fraction(2, 1), 0.5):
        with pytest.raises(TypeError):
            DivisorClass(1, bad, 0)
        with pytest.raises(TypeError):
            DivisorClass(1, 0, bad)


def _random_valid_params(rng):
    while True:
        a = rng.randint(1, 20)
        c = rng.randint(1, 30)
        d = rng.randint(1, 30)
        if (c * d - 1) % a == 0:
            return LatticeParams(a=a, c=c, d=d)


def test_random_determinant_and_round_trip():
    rng = random.Random(1291)
    for _ in range(1200):
        lp = _random_valid_params(rng)
        bc = solve_basis_change(lp)
        assert bc.determinant() == -1
        # the maps are linear, so integral probes cover the rational ones
        h, e = rng.randint(-450, 450), rng.randint(-450, 450)
        image = bc.apply(DivisorClass(1, h, e))
        inv = bc.inverse()
        assert (image.h * inv.m11 + image.e * inv.m21,
                image.h * inv.m12 + image.e * inv.m22) == (h, e)


def test_chart_symmetry_swapped_matrix_is_inverse():
    # swapping the chart roles exchanges c and d; the swapped matrix must
    # compose with the original to the identity
    rng = random.Random(77)
    for _ in range(400):
        lp = _random_valid_params(rng)
        fwd = solve_basis_change(lp)
        back = solve_basis_change(LatticeParams(a=lp.a, c=lp.d, d=lp.c))
        prod = (
            back.m11 * fwd.m11 + back.m21 * fwd.m12,
            back.m12 * fwd.m11 + back.m22 * fwd.m12,
            back.m11 * fwd.m21 + back.m21 * fwd.m22,
            back.m12 * fwd.m21 + back.m22 * fwd.m22,
        )
        assert prod == (1, 0, 0, 1)


def test_canonical_class_values():
    assert canonical_class(1, GeometryParams(n=4, m1=2, m2=1)) == DivisorClass(1, -5, 1)
    assert canonical_class(2, GeometryParams(n=9, m1=6, m2=4)) == DivisorClass(2, -10, 4)


@pytest.mark.parametrize("tup", [(4, 1, 3, 2, 2, 1), (9, 1, 3, 2, 6, 4)])
def test_canonical_class_agrees_across_charts(tup):
    n, a, c, d, m1, m2 = tup
    bc = solve_basis_change(LatticeParams(a=a, c=c, d=d))
    gp = GeometryParams(n=n, m1=m1, m2=m2)
    assert bc.apply(canonical_class(1, gp)) == canonical_class(2, gp)


def test_canonical_class_disagrees_for_wrong_params():
    # lattice parameters not satisfying the canonical-class relations for
    # this geometry must fail the transport identity
    bc = solve_basis_change(LatticeParams(a=1, c=2, d=1))
    gp = GeometryParams(n=4, m1=2, m2=1)
    assert bc.apply(canonical_class(1, gp)) != canonical_class(2, gp)


def test_geometry_params_validation():
    with pytest.raises(ConstraintViolation):
        GeometryParams(n=3, m1=1, m2=1)
    with pytest.raises(ConstraintViolation):
        GeometryParams(n=4, m1=3, m2=1)  # m1 > n-2
    with pytest.raises(ConstraintViolation):
        GeometryParams(n=4, m1=1, m2=1)  # m1 = m2


def test_basis_change_inverse_unimodularity_guard():
    with pytest.raises(ConstraintViolation):
        BasisChange(2, 0, 0, 2).inverse()
