import itertools
import random
from fractions import Fraction

import pytest

from orbitlab.cohomology import (H1Class, all_classes, delta_family,
                                 factor_idempotent, inv, kappa_sign,
                                 matrix_of, poly_coeffs, rho,
                                 subset_pairing, vector_of)
from orbitlab.etale import EtaleAlgebra, LineFactor, QuadFactor
from orbitlab.harness import _companion_triple
from orbitlab.linalg import mat_mul, mat_vec
from orbitlab.scalar import LocalField, smallest_nonresidue
from orbitlab.spaces import HermitianSpace


def _alg(lf, factors):
    return EtaleAlgebra(lf, factors)


def test_h1_is_an_elementary_group(lf3):
    alg = _alg(lf3, [LineFactor(lf3, Fraction(0)),
                     LineFactor(lf3, Fraction(1))])
    classes = list(all_classes(alg))
    assert len(classes) == 4
    zero = H1Class.zero(alg)
    for x in classes:
        assert x + x == zero
        assert x + zero == x


def test_pairing_is_perfect(lf3):
    alg = _alg(lf3, [LineFactor(lf3, Fraction(0)),
                     LineFactor(lf3, Fraction(1)),
                     QuadFactor(lf3, 2)])
    S1 = alg.S1()
    assert S1 == [0, 1]  # the quadratic factor contains E
    classes = list(all_classes(alg))
    subsets = [lam for r in range(len(S1) + 1)
               for lam in itertools.combinations(S1, r)]
    chars = {lam: tuple(subset_pairing(alg, lam, x) for x in classes)
             for lam in subsets}
    assert len(set(chars.values())) == len(chars)
    for lam in subsets:
        for x in classes:
            for y in classes:
                assert subset_pairing(alg, lam, x + y) == \
                    subset_pairing(alg, lam, x) * subset_pairing(alg, lam, y)


def test_delta_family_is_a_torsor(lf3):
    rng = random.Random(5)
    alg = _alg(lf3, [LineFactor(lf3, Fraction(0)),
                     LineFactor(lf3, Fraction(1))])
    d = _companion_triple(alg, rng)
    fam = delta_family(lf3, d, alg)
    classes = list(all_classes(alg))
    for x in classes:
        for y in classes:
            assert inv(alg, fam[x], fam[y]) == x + y


def test_kappa_sign_restricts_the_pairing(lf3):
    alg = _alg(lf3, [LineFactor(lf3, Fraction(0)),
                     LineFactor(lf3, Fraction(1))])
    for x in all_classes(alg):
        assert kappa_sign(alg, [0, 1], x) == subset_pairing(alg, (), x)
        assert kappa_sign(alg, [0], x) * kappa_sign(alg, [1], x) == \
            kappa_sign(alg, [0, 1], x)


def _power_sum(cs, g):
    """sum c_k g^k from explicit powers of g."""
    n = len(g)
    zero = g[0][0] - g[0][0]
    P = [[zero + 1 if i == j else zero for j in range(n)] for i in range(n)]
    out = [[zero] * n for _ in range(n)]
    for c in cs:
        out = [[a + b * c for a, b in zip(r, s)] for r, s in zip(out, P)]
        P = mat_mul(g, P)
    return out


def test_matrix_of_on_companion_triples(lf3):
    rng = random.Random(6)
    for factors in ([LineFactor(lf3, Fraction(0)),
                     LineFactor(lf3, Fraction(1))],
                    [LineFactor(lf3, Fraction(2)), QuadFactor(lf3, 2),
                     QuadFactor(lf3, 3)]):
        alg = _alg(lf3, factors)
        d = _companion_triple(alg, rng)
        delta, _ = delta_family(lf3, d, alg)[H1Class.zero(alg)]
        n = alg.dim()
        for g in (d.gamma, delta.mat):
            zero = g[0][0] - g[0][0]
            ident = [[zero + 1 if i == j else zero for j in range(n)]
                     for i in range(n)]
            assert matrix_of(alg, alg.one(), g) == ident
            gamma = alg.element([f.gamma if f.degree == 2 else f.root
                                 for f in alg.factors])
            assert matrix_of(alg, gamma, g) == g
            elt = alg.element([f.from_coords([Fraction(k + 1, 2)] *
                                             f.degree)
                               for k, f in enumerate(alg.factors)])
            assert matrix_of(alg, elt, g) == \
                _power_sum(poly_coeffs(alg, elt), g)


def _rho_by_projection(alg, delta, w):
    """rho through the n x n projection matrix_of(e_i) applied to w."""
    bits = []
    for i in alg.S1():
        P = matrix_of(alg, factor_idempotent(alg, i), delta.mat)
        basis = [mat_vec(P, list(w))]
        for _ in range(alg.factors[i].degree - 1):
            basis.append(mat_vec(delta.mat, basis[-1]))
        gram = [[delta.space.pair(a, b) for b in basis] for a in basis]
        bits.append(HermitianSpace(delta.space.lf, gram).class_bit())
    return H1Class(alg, bits)


@pytest.mark.parametrize("p", (3, 5, 7))
def test_rho_matches_the_projection_matrix(p):
    rng = random.Random(p)
    u = smallest_nonresidue(p)
    for tau in (u, p):
        lf = LocalField(p, tau)
        quad = [QuadFactor(lf, d0) for d0 in (u, p, u * p)]
        outside = [q for q in quad if not q.contains_E()]
        for factors in ([LineFactor(lf, Fraction(0)),
                         LineFactor(lf, Fraction(1))],
                        [LineFactor(lf, Fraction(2)), outside[0]],
                        [LineFactor(lf, Fraction(-1))] + outside[:2]):
            alg = EtaleAlgebra(lf, factors)
            d = _companion_triple(alg, rng)
            fam = delta_family(lf, d, alg)
            for x in all_classes(alg):
                delta, w = fam[x]
                for i in alg.S1():
                    e_i = factor_idempotent(alg, i)
                    assert vector_of(alg, e_i, delta.mat, w) == \
                        mat_vec(matrix_of(alg, e_i, delta.mat), list(w))
                assert rho(alg, delta, w) == _rho_by_projection(alg, delta, w)
