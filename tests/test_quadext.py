from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from orbitlab.quadext import Q2

D0 = Fraction(2)

coords = st.fractions(min_value=-30, max_value=30, max_denominator=10)
elements = st.tuples(coords, coords).map(lambda ab: Q2(D0, *ab))
nonzero = elements.filter(lambda z: z.a != 0 or z.b != 0)


@given(elements, elements, elements)
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)


@given(nonzero)
def test_inverse(x):
    one = Q2(D0, Fraction(1), Fraction(0))
    assert x * x.inverse() == one


@given(elements, elements)
def test_norm_is_multiplicative(x, y):
    assert (x * y).norm() == x.norm() * y.norm()


@given(elements)
def test_conjugation(x):
    n = x * x.conj()
    assert n.b == 0
    assert n.a == x.norm()
