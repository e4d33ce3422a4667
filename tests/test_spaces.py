import random
from fractions import Fraction

import pytest
import sympy

from orbitlab.linalg import char_poly, d_resultant, mat_det, mat_mul
from orbitlab.scalar import LocalField
from orbitlab.spaces import (GLTriple, HermitianSpace,
                             construct_unitary_match, match_predicate)


def _rand_mat(rng, n, lo=-4, hi=4):
    return [[Fraction(rng.randrange(lo, hi + 1)) for _ in range(n)]
            for _ in range(n)]


def test_det_and_charpoly_against_sympy():
    rng = random.Random(1)
    for n in (1, 2, 3):
        for _ in range(5):
            m = _rand_mat(rng, n)
            sm = sympy.Matrix([[sympy.Rational(c) for c in row] for row in m])
            assert mat_det(m) == Fraction(str(sm.det()))
            cp = char_poly(m)
            x = sympy.Symbol("x")
            sp = sm.charpoly(x).all_coeffs()  # descending, monic
            # char_poly stores cp[i] = coefficient of x^i below the top
            for i in range(n):
                assert cp[i] == Fraction(str(sp[n - i]))


def test_invariants_are_conjugation_invariant():
    rng = random.Random(2)
    for _ in range(10):
        g = _rand_mat(rng, 2)
        v = [Fraction(rng.randrange(-3, 4)) for _ in range(2)]
        vs = [Fraction(rng.randrange(-3, 4)) for _ in range(2)]
        d = GLTriple(g, v, vs)
        # conjugate by a random unimodular integer matrix
        a = rng.randrange(-2, 3)
        A = [[Fraction(1), Fraction(a)], [Fraction(0), Fraction(1)]]
        Ainv = [[Fraction(1), Fraction(-a)], [Fraction(0), Fraction(1)]]
        g2 = mat_mul(mat_mul(A, g), Ainv)
        v2 = [sum(A[i][j] * v[j] for j in range(2)) for i in range(2)]
        vs2 = [sum(vs[i] * Ainv[i][j] for i in range(2)) for j in range(2)]
        assert GLTriple(g2, v2, vs2).invariants() == d.invariants()


def test_construct_unitary_match():
    lf = LocalField(3, Fraction(2))
    d = GLTriple([[0, -1], [1, 0]], [1, 0], [0, 1])
    delta, w = construct_unitary_match(lf, d)
    assert match_predicate(d, delta, w)
    d1 = GLTriple([[Fraction(5)]], [Fraction(2)], [Fraction(3)])
    delta1, w1 = construct_unitary_match(lf, d1)
    assert match_predicate(d1, delta1, w1)


def test_match_rejects_degenerate():
    lf = LocalField(3, Fraction(2))
    d = GLTriple([[Fraction(1)]], [Fraction(0)], [Fraction(1)])
    with pytest.raises(ValueError):
        construct_unitary_match(lf, d)


def test_resultant_against_sympy():
    rng = random.Random(3)
    x = sympy.Symbol("x")
    for _ in range(8):
        # full ascending coefficient lists, monic
        c1 = [Fraction(rng.randrange(-3, 4)) for _ in range(2)] + [Fraction(1)]
        c2 = [Fraction(rng.randrange(-3, 4)) for _ in range(3)] + [Fraction(1)]
        p1 = sum(sympy.Rational(c) * x**i for i, c in enumerate(c1))
        p2 = sum(sympy.Rational(c) * x**i for i, c in enumerate(c2))
        r = sympy.resultant(p1, p2, x)
        assert d_resultant(c1, c2) == Fraction(str(r))


def test_hermitian_classes():
    for tau in (Fraction(2), Fraction(3)):
        lf = LocalField(3, tau)
        s = next(c for c in lf.square_class_reps() if lf.chi(c) == -1)
        for n in (1, 2, 3):
            assert HermitianSpace.split(lf, n).class_bit() == 0
            # scaling one diagonal entry by a non-norm flips the class
            w0 = HermitianSpace.diagonal(lf, [1] * n)
            w1 = HermitianSpace.diagonal(lf, [1] * (n - 1) + [s])
            assert w0.class_bit() != w1.class_bit()


def test_hermitian_pairing_symmetry():
    lf = LocalField(3, Fraction(2))
    from orbitlab.spaces import e_scalar
    w = HermitianSpace.diagonal(lf, [1, 2])
    u = [e_scalar(lf, 1, 2), e_scalar(lf, 0, 1)]
    v = [e_scalar(lf, 3, 1), e_scalar(lf, 1, 1)]
    assert w.pair(u, v) == w.pair(v, u).conj()


def test_degenerate_gram_rejected():
    lf = LocalField(3, Fraction(2))
    with pytest.raises(ValueError):
        HermitianSpace(lf, [[0]])
    with pytest.raises(ValueError):
        HermitianSpace(lf, [[0, 1], [2, 0]])  # not conjugate-symmetric
