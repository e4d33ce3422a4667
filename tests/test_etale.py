from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitlab.etale import (EtaleAlgebra, LineFactor, QuadFactor,
                            UnsupportedAlgebraError, _e_residue_key,
                            squarefree_kernel, u1_cosets)
from orbitlab.integrals import deep_element
from orbitlab.quadext import Q2
from orbitlab.scalar import (LocalField, legendre, rational_mod,
                             smallest_nonresidue)


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
    fac = QuadFactor(lf, lf.d0)
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
    fac = QuadFactor(lf, lf.d0)
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


# squarefree d0 that are non-squares in Q_p, per p: (unramified, ramified)
QUAD_D0 = {3: ((-1, 2, 5), (3, -3, 6)),
           5: ((2, 3, -2), (5, -5, 10)),
           7: ((-1, 3, 5), (7, -7, 21))}


def _residue_legendre_by_division(fac, x):
    """The residue symbol through Q2 division by uniformizer() ** v."""
    p = fac.lf.p
    u = x / fac.uniformizer() ** fac.val(x)
    if fac.ramified:
        return legendre(rational_mod(u.a, p, 1), p)
    return legendre(rational_mod(u.norm(), p, 1), p)


def _tame_symbol(fac, a, b):
    """Oracle: the tame Hilbert symbol (a, b) over the quadratic factor,
    from the valuations and residue symbols of a and b."""
    va, vb = fac.val(a), fac.val(b)
    s = (-1) ** (va * vb * ((fac.q - 1) // 2))
    s *= _residue_legendre_by_division(fac, a) ** vb
    s *= _residue_legendre_by_division(fac, b) ** va
    return s


@st.composite
def quad_points(draw):
    """(factor, x) over either class of tau, with val(x) anywhere in
    -6..30."""
    p = draw(st.sampled_from(sorted(QUAD_D0)))
    ramified = draw(st.booleans())
    d0 = draw(st.sampled_from(QUAD_D0[p][ramified]))
    tau = draw(st.sampled_from((smallest_nonresidue(p), p)))
    fac = QuadFactor(LocalField(p, tau), d0)
    prime_to_p = st.integers(1, 30).filter(lambda n: n % p)
    a = Fraction(draw(st.integers(-60, 60)), draw(prime_to_p))
    b = Fraction(draw(st.integers(-60, 60)), draw(prime_to_p))
    unit = fac.from_coords((a, b))
    if not unit or fac.val(unit) != 0:
        unit = fac.from_coords((Fraction(1), b))
    x = unit * fac.uniformizer() ** draw(st.integers(-6, 30))
    return fac, x


@given(quad_points())
@settings(max_examples=300, deadline=None)
def test_chi_of_the_norm_is_the_tame_symbol_with_tau(point):
    fac, x = point
    lf = fac.lf
    assert fac.chi(x) == _tame_symbol(fac, x, fac.from_rational(lf.tau))
    assert fac.chi(fac.zero()) == 0
    line = LineFactor(lf, Fraction(0))
    for r in (x.norm(), x.a, x.b):
        assert line.chi(r) == lf.chi(r)


@given(st.sampled_from((3, 5, 7)), st.booleans(),
       st.fractions(-5, 5, max_denominator=4),
       st.fractions(-5, 5, max_denominator=4))
@settings(deadline=None)
def test_factors_are_equal_exactly_when_their_keys_are(p, ramified_tau,
                                                       r, s):
    tau = p if ramified_tau else smallest_nonresidue(p)
    lf, other = LocalField(p, tau), LocalField(p, p * smallest_nonresidue(p))
    a, b = LineFactor(lf, r), LineFactor(LocalField(p, tau), r)
    assert a == b and hash(a) == hash(b)
    assert (a == LineFactor(lf, s)) == (r == s)
    assert a != LineFactor(other, r)
    for d0 in QUAD_D0[p][0] + QUAD_D0[p][1]:
        q = QuadFactor(lf, d0)
        assert q == QuadFactor(LocalField(p, tau), d0)
        assert hash(q) == hash(QuadFactor(LocalField(p, tau), d0))
        assert q != QuadFactor(other, d0)
        assert q != a
        assert all(q != QuadFactor(lf, e)
                   for e in QUAD_D0[p][0] + QUAD_D0[p][1] if e != d0)


@pytest.mark.parametrize("p", (3, 5, 7))
def test_d0_is_the_squarefree_kernel_and_leaves_the_field_key(p):
    u = smallest_nonresidue(p)
    for tau in (u, p, 4 * u * p, Fraction(p, 9)):
        lf = LocalField(p, tau)
        key = hash(lf)
        reps = u1_cosets(lf, 2)
        fac = QuadFactor(lf, p)
        depth_one = deep_element(fac, 1, 1)
        assert lf.d0 == squarefree_kernel(lf.tau)
        assert isinstance(lf.d0, Fraction)
        twin = LocalField(p, tau)
        assert lf == twin and hash(lf) == key == hash(twin)
        assert u1_cosets(twin, 2) is reps
        assert deep_element(QuadFactor(twin, p), 1, 1) is depth_one


def test_contains_e_is_computed_once(lf3, monkeypatch):
    fac = QuadFactor(lf3, 2)
    calls = []
    real = LocalField.square_class
    monkeypatch.setattr(LocalField, "square_class",
                        lambda self, x: calls.append(x) or real(self, x))
    assert [fac.contains_E() for _ in range(3)] == [True] * 3
    assert len(calls) == 2
