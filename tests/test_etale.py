from fractions import Fraction

import pytest
import sympy

from orbitlab.etale import (EtaleAlgebra, LineFactor, QuadFactor,
                            UnsupportedAlgebraError, _e_residue_key,
                            squarefree_kernel, u1_cosets)
from orbitlab.quadext import Q2
from orbitlab.scalar import LocalField, smallest_nonresidue


def test_squarefree_kernel():
    assert squarefree_kernel(Fraction(12)) == 3
    assert squarefree_kernel(Fraction(9, 4)) == 1
    assert squarefree_kernel(Fraction(18)) == 2
    assert squarefree_kernel(Fraction(-8)) == -2


def _kernel_by_factorint(n: int) -> int:
    d0 = -1 if n < 0 else 1
    for prime, exp in sympy.factorint(abs(n)).items():
        if exp % 2:
            d0 *= prime
    return d0


def test_squarefree_kernel_against_sympy():
    for n in range(1, 3001):
        for m in (n, -n):
            assert squarefree_kernel(Fraction(m)) == _kernel_by_factorint(m)
    for x in (Fraction(2, 9), Fraction(-27, 50), Fraction(49, 12),
              Fraction(1, 2999), Fraction(-4096, 675),
              Fraction(3 * 7919**2, 5), Fraction(1, 36)):
        n = x.numerator * x.denominator
        assert squarefree_kernel(x) == _kernel_by_factorint(n)
    with pytest.raises(ValueError):
        squarefree_kernel(Fraction(0))


def test_quad_factor_classification(lf3):
    assert not QuadFactor(lf3, 2).ramified
    assert QuadFactor(lf3, 3).ramified
    assert QuadFactor(lf3, 2).q == 9
    assert QuadFactor(lf3, 3).q == 3
    with pytest.raises(UnsupportedAlgebraError):
        QuadFactor(lf3, 7)  # 7 is a square in Q_3


def test_contains_E(lf3):
    assert QuadFactor(lf3, 2).contains_E()
    assert not QuadFactor(lf3, 3).contains_E()
    assert not LineFactor(lf3, Fraction(1)).contains_E()


def test_repeated_factors_rejected(lf3):
    with pytest.raises(UnsupportedAlgebraError):
        EtaleAlgebra(lf3, [LineFactor(lf3, Fraction(1)),
                           LineFactor(lf3, Fraction(1))])


def test_u1_cosets_have_norm_one():
    for tau in (Fraction(2), Fraction(3)):
        lf = LocalField(3, tau)
        for k in (1, 2):
            reps = u1_cosets(lf, k)
            assert len(reps) == len(set(map(repr, reps)))
            for z in reps:
                assert z.norm() == 1


def test_u1_coset_counts_stabilize():
    lf = LocalField(3, Fraction(2))
    n1, n2 = len(u1_cosets(lf, 1)), len(u1_cosets(lf, 2))
    assert n2 == 3 * n1  # index of successive congruence subgroups


def _u1_cosets_by_scan(lf, k):
    """Brute-force oracle: scan every w mod p^(k+1) of valuation 0 or 1
    and keep one w / conj(w) per level-k residue class."""
    p = lf.p
    fac = QuadFactor(lf, squarefree_kernel(lf.tau))
    d0 = fac.d0
    if k == 0:
        return [fac.one()]
    mod = p ** (k + 1)
    seen = {}
    for xa in range(mod):
        for xb in range(mod):
            w = Q2(d0, Fraction(xa), Fraction(xb))
            # w matters only up to F^x, so valuations 0 and 1 suffice
            if fac.val(w) not in (0, 1):
                continue
            z = w / w.conj()
            seen.setdefault(_e_residue_key(fac, z, k), z)
    return list(seen.values())


def _keys(lf, k, reps):
    fac = QuadFactor(lf, squarefree_kernel(lf.tau))
    return {_e_residue_key(fac, z, k) for z in reps}


@pytest.mark.parametrize("p,kmax", [(3, 3), (5, 2), (7, 2)])
def test_u1_cosets_match_brute_force_scan(p, kmax):
    u = smallest_nonresidue(p)
    for tau in (Fraction(u), Fraction(p), Fraction(u * p)):
        lf = LocalField(p, tau)
        d0 = squarefree_kernel(tau)
        for k in range(kmax + 1):
            reps = u1_cosets(lf, k)
            keys = _keys(lf, k, reps)
            assert len(keys) == len(reps)
            assert keys == _keys(lf, k, _u1_cosets_by_scan(lf, k))
            for z in reps:
                assert z.d == d0 and z.norm() == 1
            if k == 0:
                assert len(reps) == 1
            elif lf.unramified:
                assert len(reps) == (p + 1) * p ** (k - 1)
            else:
                assert len(reps) == 2 * p ** (k // 2)


def test_u1_cosets_are_one_cached_tuple():
    lf = LocalField(5, Fraction(2))
    first = u1_cosets(lf, 2)
    assert isinstance(first, tuple)
    assert u1_cosets(LocalField(5, Fraction(2)), 2) is first
