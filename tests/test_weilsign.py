from fractions import Fraction

from orbitlab.cyclo import Cyc
from orbitlab.scalar import LocalField
from orbitlab.spaces import HermitianSpace
from orbitlab.weilsign import (class_representatives, index_ratio,
                               selfadjoint_basis, trace_form_diagonal,
                               trace_pairing)


def test_selfadjoint_space_has_dimension_n_squared():
    for tau in (Fraction(2), Fraction(3)):
        lf = LocalField(3, tau)
        for n in (1, 2):
            w = HermitianSpace.split(lf, n)
            assert len(selfadjoint_basis(w)) == n * n


def test_trace_form_is_nondegenerate():
    lf = LocalField(3, Fraction(2))
    w = HermitianSpace.diagonal(lf, [1, 2])
    diag = trace_form_diagonal(w)
    assert len(diag) == 4
    assert all(d != 0 for d in diag)


def test_trace_pairing_lands_in_f():
    lf = LocalField(5, Fraction(2))
    w = HermitianSpace.split(lf, 2)
    basis = selfadjoint_basis(w)
    for a in basis:
        for b in basis:
            trace_pairing(a, b)  # raises if the value leaves F


def test_class_representatives_are_distinct():
    lf = LocalField(3, Fraction(3))
    w0, w1 = class_representatives(lf, 2)
    assert w0.class_bit() != w1.class_bit()


def test_sign_identity_small_ranks():
    for p in (3, 5):
        for tau in (None, Fraction(p)):
            lf = LocalField(p, tau)
            for n in (1, 2):
                assert index_ratio(lf, n) == \
                    Cyc.rational(Fraction((-1) ** (n - 1)), lf.p)
