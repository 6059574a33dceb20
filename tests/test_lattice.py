"""Tests for the rank-2 Picard lattice and the chart basis change."""

import random

import pytest

from quadrocubic.lattice import apply, canonical_class, inverse, solve_basis_change


def _det(m):
    m11, m12, m21, m22 = m
    return m11 * m22 - m12 * m21


def test_basis_change_case1_params():
    m = solve_basis_change(1, 3, 2)
    # H1 = 2*H2 - E2, E1 = 5*H2 - 3*E2
    assert m == (2, -1, 5, -3)
    assert apply(m, 1, 0) == (2, -1)
    assert apply(m, 0, 1) == (5, -3)
    assert _det(m) == -1


def test_basis_change_smallest_instance():
    m = solve_basis_change(1, 1, 1)
    assert m == (1, -1, 0, -1)
    assert _det(m) == -1


def test_basis_change_a2():
    m = solve_basis_change(2, 3, 3)
    assert m == (3, -2, 4, -3)
    assert _det(m) == -1


def test_basis_change_divisibility_failure():
    with pytest.raises(ValueError, match=r"^a=2 does not divide c\*d-1=3$"):
        solve_basis_change(2, 2, 2)


def test_lattice_params_positivity():
    # the pairing numbers a, c, d must all be positive
    for a, c, d in ((0, 1, 1), (1, -3, 1), (1, 1, 0)):
        with pytest.raises(ValueError, match=r"^need a, c, d > 0"):
            solve_basis_change(a, c, d)


def _random_valid_params(rng):
    while True:
        a = rng.randint(1, 20)
        c = rng.randint(1, 30)
        d = rng.randint(1, 30)
        if (c * d - 1) % a == 0:
            return a, c, d


def test_random_determinant_and_round_trip():
    rng = random.Random(1291)
    for _ in range(1200):
        m = solve_basis_change(*_random_valid_params(rng))
        assert _det(m) == -1
        # the maps are linear, so integral probes cover the rational ones
        h, e = rng.randint(-450, 450), rng.randint(-450, 450)
        assert apply(inverse(m), *apply(m, h, e)) == (h, e)


def test_chart_symmetry_swapped_matrix_is_inverse():
    # swapping the chart roles exchanges c and d; the swapped matrix must
    # compose with the original to the identity
    rng = random.Random(77)
    for _ in range(400):
        a, c, d = _random_valid_params(rng)
        fwd = solve_basis_change(a, c, d)
        back = solve_basis_change(a, d, c)
        assert back == inverse(fwd)
        # the rows of fwd, carried back, are the unit vectors H1 and E1
        assert apply(back, fwd[0], fwd[1]) == (1, 0)
        assert apply(back, fwd[2], fwd[3]) == (0, 1)


def test_canonical_class_values():
    assert canonical_class(4, 2) == (-5, 1)
    assert canonical_class(9, 4) == (-10, 4)


@pytest.mark.parametrize("tup", [(4, 1, 3, 2, 2, 1), (9, 1, 3, 2, 6, 4)])
def test_canonical_class_agrees_across_charts(tup):
    n, a, c, d, m1, m2 = tup
    m = solve_basis_change(a, c, d)
    assert apply(m, *canonical_class(n, m1)) == canonical_class(n, m2)


def test_canonical_class_disagrees_for_wrong_params():
    # lattice parameters not satisfying the canonical-class relations for
    # this geometry must fail the transport identity
    m = solve_basis_change(1, 2, 1)
    assert apply(m, *canonical_class(4, 2)) != canonical_class(4, 1)
