from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbitlab.scalar import (INF, LocalField, legendre, smallest_nonresidue,
                             unit_part, valuation)

nonzero = st.fractions(min_value=-200, max_value=200,
                       max_denominator=60).filter(lambda x: x != 0)


@given(nonzero, nonzero)
def test_valuation_is_additive(x, y):
    assert valuation(x * y, 3) == valuation(x, 3) + valuation(y, 3)


@given(nonzero)
def test_unit_part(x):
    u = unit_part(x, 5)
    assert valuation(u, 5) == 0
    assert u * Fraction(5) ** valuation(x, 5) == x


def test_valuation_of_zero():
    assert valuation(0, 3) is INF


def _valuation_by_coercion(x, p):
    """valuation as first written: coerce to Fraction, compare to 0."""
    x = Fraction(x)
    if x == 0:
        return INF
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


@pytest.mark.parametrize("p", [3, 5, 7])
def test_valuation_matches_the_coercing_version(p):
    ints = [0, 1, -1, p, -p, p**3, -2 * p**2, 7 * 5 * 3, 10**9 + 7]
    fracs = [Fraction(n, d) for n in range(-2 * p**2, 2 * p**2 + 1, 3)
             for d in (1, 2, p, p**2, 4 * p, 7 * 5 * 3)]
    for x in ints + fracs + [Fraction(0), Fraction(-p**4, 11)]:
        assert valuation(x, p) == _valuation_by_coercion(x, p), x


def test_legendre_detects_squares():
    for p in (3, 5, 7, 11):
        squares = {(a * a) % p for a in range(1, p)}
        for a in range(1, p):
            assert legendre(a, p) == (1 if a in squares else -1)
        assert smallest_nonresidue(p) not in squares


def test_square_class_reps_cover(lf3):
    reps = lf3.square_class_reps()
    assert len({lf3.square_class(r) for r in reps}) == 4
    for r in reps:
        assert lf3.square_class_rep(r * 49) == r  # 49 is a square unit


@given(nonzero, nonzero)
def test_chi_is_multiplicative(x, y):
    lf = LocalField(3, Fraction(2))
    assert lf.chi(x * y) == lf.chi(x) * lf.chi(y)


def test_chi_kernel_is_norms(lf3):
    # norms from the unramified extension are exactly the even-valuation
    # elements
    for x in (1, 2, 4, Fraction(1, 9), 18):
        assert lf3.chi(x) == (-1) ** valuation(x, 3)


@given(nonzero, nonzero, nonzero)
def test_hilbert_symmetry_and_bilinearity(a, b, c):
    lf = LocalField(5, Fraction(2))
    assert lf.hilbert(a, b) == lf.hilbert(b, a)
    assert lf.hilbert(a * b, c) == lf.hilbert(a, c) * lf.hilbert(b, c)


@given(nonzero)
def test_hilbert_norm_relations(a):
    lf = LocalField(5, Fraction(2))
    assert lf.hilbert(a, -a) == 1
    if a != 1:
        assert lf.hilbert(a, 1 - a) == 1


def test_even_prime_rejected():
    with pytest.raises(ValueError):
        LocalField(2)
    with pytest.raises(ValueError):
        LocalField(3, Fraction(4))
