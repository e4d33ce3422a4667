"""Class-group bookkeeping for the twisted forms attached to a regular
semisimple element: bit-vector classes over the factors not containing E,
the family of twisted matching pairs, per-factor discriminant classes,
invariant differences, the subset pairing and the endoscopic sign.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .etale import EtaleAlgebra
from .linalg import mat_mul, mat_vec, solve
from .scalar import smallest_nonresidue
from .spaces import (GLTriple, HermitianSpace, UnitaryLieElement,
                     construct_unitary_match)


class H1Class:
    """A bit vector indexed by the factors of the algebra that do not
    contain E, with componentwise xor as the group law."""

    def __init__(self, alg: EtaleAlgebra, bits):
        self.alg = alg
        self.bits = tuple(int(b) % 2 for b in bits)
        if len(self.bits) != len(alg.S1()):
            raise ValueError("one bit per factor without E")

    @staticmethod
    def zero(alg: EtaleAlgebra) -> "H1Class":
        return H1Class(alg, [0] * len(alg.S1()))

    def __add__(self, other: "H1Class") -> "H1Class":
        return H1Class(self.alg, [a ^ b
                                  for a, b in zip(self.bits, other.bits)])

    def __eq__(self, other):
        return isinstance(other, H1Class) and self.bits == other.bits

    def __hash__(self):
        return hash(self.bits)

    def __repr__(self):
        return f"H1Class{self.bits}"


def all_classes(alg: EtaleAlgebra):
    for bits in itertools.product((0, 1), repeat=len(alg.S1())):
        yield H1Class(alg, bits)


def subset_pairing(alg: EtaleAlgebra, lam, x: H1Class) -> int:
    """(-1)^(sum of x_i over the factors outside lam); lam is a subset of
    the factor indices without E."""
    S1 = alg.S1()
    lam = frozenset(lam)
    s = sum(b for i, b in zip(S1, x.bits) if i not in lam)
    return -1 if s % 2 else 1


def kappa_sign(alg: EtaleAlgebra, block, x: H1Class) -> int:
    """The sign character cutting out one endoscopic block: (-1)^(sum of
    x_i over the given factor indices)."""
    block = frozenset(block)
    s = sum(b for i, b in zip(alg.S1(), x.bits) if i in block)
    return -1 if s % 2 else 1


# ---------------------------------------------------------------------------
# polynomial representatives of algebra elements


def poly_coeffs(alg: EtaleAlgebra, elt):
    """Coefficients (c_0, ..., c_{n-1}) with sum c_k gamma^k = elt."""
    n = alg.dim()
    rows, rhs = [], []
    for fac, c in zip(alg.factors, elt):
        if fac.degree == 1:
            rows.append([fac.root**k for k in range(n)])
            rhs.append(Fraction(c))
        else:
            pows = [fac.one()]
            for _ in range(n - 1):
                pows.append(pows[-1] * fac.gamma)
            rows.append([w.a for w in pows])
            rhs.append(c.a)
            rows.append([w.b for w in pows])
            rhs.append(c.b)
    return solve(rows, rhs)


def matrix_of(alg: EtaleAlgebra, elt, gamma_matrix):
    """The matrix sum c_k gamma^k acting wherever gamma_matrix acts,
    evaluated by Horner's rule."""
    cs = poly_coeffs(alg, elt)
    n = len(gamma_matrix)
    zero = gamma_matrix[0][0] - gamma_matrix[0][0]
    out = [[zero + cs[-1] if i == j else zero for j in range(n)]
           for i in range(n)]
    for c in reversed(cs[:-1]):
        out = mat_mul(gamma_matrix, out)
        for i in range(n):
            out[i][i] = out[i][i] + c
    return out


def vector_of(alg: EtaleAlgebra, elt, gamma_matrix, vec):
    """The vector (sum c_k gamma^k) vec, evaluated on the vector by
    Horner's rule (u <- gamma u + c vec) without forming the matrix."""
    cs = poly_coeffs(alg, elt)
    vec = list(vec)
    u = [x * cs[-1] for x in vec]
    for c in reversed(cs[:-1]):
        u = [y + x * c for y, x in zip(mat_vec(gamma_matrix, u), vec)]
    return u


def factor_idempotent(alg: EtaleAlgebra, i: int):
    return alg.element([f.one() if j == i else f.zero()
                        for j, f in enumerate(alg.factors)])


def twist_element(alg: EtaleAlgebra, x: H1Class):
    """A unit whose per-factor chi values realize the given class (and 1
    on the factors containing E)."""
    bit_of = dict(zip(alg.S1(), x.bits))
    coords = []
    u = smallest_nonresidue(alg.lf.p)
    for i, fac in enumerate(alg.factors):
        target = (-1) ** bit_of.get(i, 0)
        cand = [fac.from_rational(c) for c in
                (1, u, alg.lf.p, u * alg.lf.p, -1, -u)]
        if fac.degree == 2:
            cand += [fac.from_coords((Fraction(a), Fraction(1)))
                     for a in range(alg.lf.p)]
        for c in cand:
            if c != fac.zero() and fac.chi(c) == target:
                coords.append(c)
                break
        else:
            raise ValueError("no representative of the requested class")
    return alg.element(coords)


# ---------------------------------------------------------------------------
# twisted matching pairs and their discriminant classes


def delta_family(lf, d: GLTriple, alg: EtaleAlgebra):
    """For each class x, the matching pair built from (gamma, v, v* e_x)
    with e_x a unit realizing x.  Returns a dict x -> (delta, w)."""
    out = {}
    for x in all_classes(alg):
        eps = twist_element(alg, x)
        mat = matrix_of(alg, eps, d.gamma)
        out[x] = construct_unitary_match(lf, d.translate_vstar(mat))
    return out


def rho(alg: EtaleAlgebra, delta: UnitaryLieElement, w) -> H1Class:
    """The per-factor discriminant class of the form restricted to each
    isotypic piece of a cyclic pair (delta, w).

    Each piece is spanned from the projection of w, computed by vector_of
    on w alone.  Nothing is cached; callers that need a class more than
    once compute it once."""
    lf = delta.space.lf
    bits = []
    for i in alg.S1():
        fac = alg.factors[i]
        basis = [vector_of(alg, factor_idempotent(alg, i), delta.mat, w)]
        for _ in range(fac.degree - 1):
            basis.append(mat_vec(delta.mat, basis[-1]))
        gram = [[delta.space.pair(a, b) for b in basis] for a in basis]
        sub = HermitianSpace(lf, gram)
        bits.append(sub.class_bit())
    return H1Class(alg, bits)


def inv(alg: EtaleAlgebra, pair1, pair2) -> H1Class:
    """The difference class of two matching pairs with a common
    characteristic polynomial."""
    d1, w1 = pair1
    d2, w2 = pair2
    return rho(alg, d1, w1) + rho(alg, d2, w2)
