"""Hermitian spaces over the quadratic extension, twisted self-adjoint
Lie-algebra elements, general-linear triples (x, v, v*), their complete
invariant vectors and orbit matching.

Matrices are lists of row lists; entries are Fraction over the base field
and Q2 (with d = lf.d0, the squarefree kernel of tau) over the extension.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import (char_poly, mat_det, mat_mul, mat_pow_vec,
                     mat_transpose, mat_vec, vec_mat)
from .quadext import Q2
from .scalar import LocalField


def mat_conj(A):
    return [[c.conj() if isinstance(c, Q2) else c for c in row] for row in A]


# ---------------------------------------------------------------------------
# general-linear triples


class GLTriple:
    """A triple (gamma, v, v*) with gamma an n x n rational matrix, v a
    column vector and v* a row vector."""

    def __init__(self, gamma, v, vstar):
        self.gamma = [[Fraction(c) for c in row] for row in gamma]
        self.v = [Fraction(c) for c in v]
        self.vstar = [Fraction(c) for c in vstar]
        self.n = len(self.gamma)

    def char_poly(self):
        return char_poly(self.gamma)

    def b_invariant(self, i: int) -> Fraction:
        w = mat_pow_vec(self.gamma, i, self.v)
        return sum(a * b for a, b in zip(self.vstar, w))

    def invariants(self):
        cp = self.char_poly()
        a = tuple(cp[i] for i in range(self.n))
        b = tuple(self.b_invariant(i) for i in range(self.n))
        return a, b

    def moment_matrix(self):
        n = self.n
        return [[self.b_invariant(i + j) for j in range(n)] for i in range(n)]

    def delta(self) -> Fraction:
        return mat_det(self.moment_matrix())

    def is_rss(self) -> bool:
        return self.delta() != 0

    def krylov_matrix(self):
        """Columns v, gamma v, ..., gamma^{n-1} v."""
        cols = [self.v]
        for _ in range(self.n - 1):
            cols.append(mat_vec(self.gamma, cols[-1]))
        return mat_transpose(cols)

    def omega(self, lf: LocalField) -> int:
        d = mat_det(self.krylov_matrix())
        if d == 0:
            raise ValueError("degenerate wedge")
        return lf.chi(d)

    def translate_vstar(self, x_matrix) -> "GLTriple":
        """The triple (gamma, v, v* x) for a matrix x commuting with gamma."""
        return GLTriple(self.gamma, self.v, vec_mat(self.vstar, x_matrix))

    def to_json(self):
        enc = lambda c: [c.numerator, c.denominator]
        return {"gamma": [[enc(c) for c in row] for row in self.gamma],
                "v": [enc(c) for c in self.v],
                "vstar": [enc(c) for c in self.vstar]}


# ---------------------------------------------------------------------------
# Hermitian spaces and twisted Lie-algebra elements


def e_scalar(lf: LocalField, a, b=0) -> Q2:
    return Q2(lf.d0, Fraction(a), Fraction(b))


def e_matrix(lf: LocalField, rows):
    d = lf.d0
    out = []
    for row in rows:
        out.append([c if isinstance(c, Q2) else Q2(d, Fraction(c), Fraction(0))
                    for c in row])
    return out


class HermitianSpace:
    """A nondegenerate Hermitian space, stored by its Gram matrix H with
    pairing <u, v> = conj(u)^t H v (conjugate-linear in the first slot)."""

    def __init__(self, lf: LocalField, gram):
        self.lf = lf
        self.gram = e_matrix(lf, gram)
        self.n = len(self.gram)
        ct = mat_conj(mat_transpose(self.gram))
        if ct != self.gram:
            raise ValueError("Gram matrix must be conjugate-symmetric")
        if not mat_det(self.gram):
            raise ValueError("degenerate Hermitian form")

    @staticmethod
    def split(lf: LocalField, n: int) -> "HermitianSpace":
        rows = [[1 if i + j == n - 1 else 0 for j in range(n)]
                for i in range(n)]
        return HermitianSpace(lf, rows)

    @staticmethod
    def diagonal(lf: LocalField, entries) -> "HermitianSpace":
        n = len(entries)
        rows = [[entries[i] if i == j else 0 for j in range(n)]
                for i in range(n)]
        return HermitianSpace(lf, rows)

    def det_F(self) -> Fraction:
        d = mat_det(self.gram)
        if d.b != 0:
            raise AssertionError("Hermitian determinant must lie in F")
        return d.a

    def class_bit(self) -> int:
        """0 for the split class (normalized via the anti-diagonal form)."""
        split_det = Fraction(-1) ** (self.n * (self.n - 1) // 2)
        return 0 if self.lf.chi(self.det_F() / split_det) == 1 else 1

    def pair(self, u, v) -> Q2:
        hu = mat_vec(self.gram, list(v))
        return sum((x.conj() * y for x, y in zip(u, hu)),
                   e_scalar(self.lf, 0))


class UnitaryLieElement:
    """A self-adjoint endomorphism of a Hermitian space:
    <delta u, v> = <u, delta v>, i.e. conj(delta)^t H = H delta."""

    def __init__(self, space: HermitianSpace, mat):
        self.space = space
        self.mat = e_matrix(space.lf, mat)
        lhs = mat_mul(mat_conj(mat_transpose(self.mat)), space.gram)
        rhs = mat_mul(space.gram, self.mat)
        if lhs != rhs:
            raise ValueError("matrix is not self-adjoint for the form")

    @property
    def n(self):
        return self.space.n

    def char_poly(self):
        cp = char_poly(self.mat)
        out = []
        for c in cp:
            if c.b != 0:
                raise AssertionError("characteristic polynomial not over F")
            out.append(c.a)
        return tuple(out)

    def b_invariant(self, w, i: int) -> Fraction:
        x = mat_pow_vec(self.mat, i, list(w))
        b = self.space.pair(w, x)
        if b.b != 0:
            raise AssertionError("pairing invariant must lie in F")
        return b.a

    def invariants(self, w):
        cp = self.char_poly()
        a = tuple(cp[i] for i in range(self.n))
        b = tuple(self.b_invariant(w, i) for i in range(self.n))
        return a, b


def match_predicate(d: GLTriple, u: UnitaryLieElement, w) -> bool:
    return d.invariants() == u.invariants(w)


def construct_unitary_match(lf: LocalField, d: GLTriple):
    """The matching pair (delta, w): delta the companion matrix of gamma's
    characteristic polynomial, Gram matrix the Hankel moment matrix, and
    w the first basis vector."""
    if not d.is_rss():
        raise ValueError("triple is not regular semisimple")
    n = d.n
    cp = d.char_poly()
    comp = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n - 1):
        comp[i + 1][i] = Fraction(1)
    for i in range(n):
        comp[i][n - 1] = -cp[i]
    gram = [[d.b_invariant(i + j) for j in range(n)] for i in range(n)]
    space = HermitianSpace(lf, gram)
    delta = UnitaryLieElement(space, comp)
    w = [e_scalar(lf, 1 if i == 0 else 0) for i in range(n)]
    if not match_predicate(d, delta, w):
        raise AssertionError("construction failed to match invariants")
    return delta, w
