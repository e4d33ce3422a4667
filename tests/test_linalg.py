"""The exact linear algebra against sympy as an oracle: seeded Fraction
matrices up to n = 5 and matrices over Q(sqrt(d)) up to n = 3."""

import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from orbitlab.linalg import (char_poly, mat_det, mat_inverse, mat_mul,
                             nullspace, solve)
from orbitlab.quadext import Q2


def _frac_mat(rng, rows, cols):
    return [[Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
             for _ in range(cols)] for _ in range(rows)]


def _low_rank(rng, rows, cols, rank):
    """A rows x cols matrix of rank at most `rank`."""
    return mat_mul(_frac_mat(rng, rows, rank), _frac_mat(rng, rank, cols))


def _sym(m):
    return sympy.Matrix([[sympy.Rational(c) for c in row] for row in m])


def _frac(x) -> Fraction:
    return Fraction(str(x))


def test_fraction_det_inverse_solve_charpoly():
    rng = random.Random(11)
    for n in range(1, 6):
        for _ in range(6):
            m = _frac_mat(rng, n, n)
            sm = _sym(m)
            assert mat_det(m) == _frac(sm.det())
            cp = char_poly(m)
            sp = sm.charpoly(sympy.Symbol("x")).all_coeffs()
            assert list(cp) == [_frac(c) for c in reversed(sp)]
            if sm.det() == 0:
                continue
            want = [[_frac(c) for c in row] for row in sm.inv().tolist()]
            assert mat_inverse(m) == want
            b = [Fraction(rng.randrange(-5, 6)) for _ in range(n)]
            x = sm.LUsolve(_sym([[c] for c in b]))
            assert solve(m, b) == [_frac(c) for c in x]


def test_fraction_nullspace_and_singular_det():
    rng = random.Random(12)
    for rows, cols in ((1, 1), (2, 3), (3, 3), (4, 4), (5, 5), (4, 6)):
        for rank in range(0, min(rows, cols) + 1):
            m = _low_rank(rng, rows, cols, rank) if rank else \
                [[Fraction(0)] * cols for _ in range(rows)]
            sm = _sym(m)
            want = [[_frac(c) for c in v] for v in sm.nullspace()]
            assert nullspace(m) == want
            if rows == cols:
                assert mat_det(m) == _frac(sm.det())


def _q2_mat(rng, d, n):
    return [[Q2(Fraction(d), Fraction(rng.randrange(-3, 4)),
                Fraction(rng.randrange(-3, 4))) for _ in range(n)]
            for _ in range(n)]


class _Field:
    """Q(sqrt(d)) as a sympy algebraic field, fed from Q2 values."""

    def __init__(self, d):
        self.d = d
        self.root = sympy.sqrt(d)
        self.K = sympy.QQ.algebraic_field(self.root)

    def expr(self, q: Q2):
        return sympy.Rational(q.a) + sympy.Rational(q.b) * self.root

    def matrix(self, m):
        rows = [[self.K.from_sympy(self.expr(c)) for c in row] for row in m]
        return DomainMatrix(rows, (len(m), len(m[0])), self.K)

    def same(self, q: Q2, elt) -> bool:
        return sympy.expand(self.expr(q) - self.K.to_sympy(elt)) == 0


@pytest.mark.parametrize("d", [2, -3])
def test_q2_det_inverse_solve_charpoly(d):
    rng = random.Random(13 + d)
    F = _Field(d)
    for n in (1, 2, 3):
        for _ in range(4):
            m = _q2_mat(rng, d, n)
            dm = F.matrix(m)
            det = mat_det(m)
            assert isinstance(det, Q2) and F.same(det, dm.det())
            cp = char_poly(m)
            assert all(F.same(a, b)
                       for a, b in zip(cp, reversed(dm.charpoly())))
            if not det:
                continue
            inv = mat_inverse(m)
            dinv = dm.inv()
            assert all(F.same(inv[i][j], dinv[i, j].element)
                       for i in range(n) for j in range(n))
            b = [Q2(Fraction(d), Fraction(i), Fraction(1)) for i in range(n)]
            x = solve(m, b)
            dx = dinv * F.matrix([[c] for c in b])
            assert all(F.same(x[i], dx[i, 0].element) for i in range(n))


@pytest.mark.parametrize("d", [2, -3])
def test_q2_nullspace_against_rref(d):
    rng = random.Random(17 + d)
    F = _Field(d)
    for rows, cols, rank in ((2, 3, 1), (3, 3, 2), (3, 3, 1), (2, 2, 2)):
        k = max(rows, cols)
        left, right = _q2_mat(rng, d, k), _q2_mat(rng, d, k)
        m = mat_mul([row[:rank] for row in left[:rows]],
                    [row[:cols] for row in right[:rank]])
        R, pivots = F.matrix(m).rref()
        free = [c for c in range(cols) if c not in pivots]
        basis = nullspace(m)
        assert len(basis) == len(free)
        for v, fc in zip(basis, free):
            for c in range(cols):
                if c in pivots:
                    want = -R[pivots.index(c), fc].element
                    assert F.same(v[c], want)
                else:
                    assert v[c] == (1 if c == fc else 0)


def test_singular_input_raises():
    zero_row = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(0)]]
    dup = [[Fraction(1), Fraction(2), Fraction(3)],
           [Fraction(0), Fraction(1), Fraction(1)],
           [Fraction(2), Fraction(4), Fraction(6)]]
    s2 = Q2(Fraction(2), Fraction(0), Fraction(1))
    one = Q2(Fraction(2), Fraction(1), Fraction(0))
    q2_sing = [[one, s2], [s2, one + one]]  # det = 2 - 2 = 0
    for m in (zero_row, dup, q2_sing):
        assert not mat_det(m)
        with pytest.raises(ValueError):
            mat_inverse(m)
        with pytest.raises(ValueError):
            solve(m, [m[0][0]] * len(m))
