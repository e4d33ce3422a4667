from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitlab.cyclo import Cyc
from orbitlab.etale import LineFactor, QuadFactor
from orbitlab.scalar import LocalField, smallest_nonresidue
from orbitlab.zeta import (Cell, ZetaElement, ZetaPoleError, factor_zeta,
                           geometric_shells)

P = 3

ratios = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(
    lambda z: z != 0 and z != 1)


@given(ratios, st.integers(-2, 2).filter(bool), st.integers(-3, 3))
def test_geometric_value(z, k, a0):
    # sum over a >= a0 of z^a, continued to u = 1
    val = geometric_shells(z, k, a0, P).value_at_one()
    assert val == Cyc.rational(z**a0 / (1 - z), P)


@given(ratios, st.integers(1, 2), st.integers(-2, 2), st.integers(1, 5))
@settings(max_examples=40)
def test_truncation_is_a_finite_sum(z, k, a0, n):
    whole = geometric_shells(z, k, a0, P)
    tail = geometric_shells(z, k, a0 + n, P)
    finite = sum(z**a for a in range(a0, a0 + n))
    assert (whole - tail).value_at_one() == Cyc.rational(finite, P)


def test_pole_detected():
    with pytest.raises(ZetaPoleError):
        geometric_shells(Fraction(1), 1, 0, P).value_at_one()
    # but a difference cancelling the pole evaluates fine
    d = geometric_shells(Fraction(1), 1, 0, P) - \
        geometric_shells(Fraction(1), 1, 4, P)
    assert d.value_at_one() == Cyc.rational(Fraction(4), P)


def test_divergent_shell_rejected():
    with pytest.raises(ValueError):
        geometric_shells(Fraction(2), 0, 0, P)


@given(ratios, ratios)
@settings(max_examples=40)
def test_arithmetic_commutes_with_evaluation(z, w):
    a = geometric_shells(z, 1, 0, P)
    b = geometric_shells(w, -1, 0, P)
    va, vb = a.value_at_one(), b.value_at_one()
    assert (a + b).value_at_one() == va + vb
    assert (a * b).value_at_one() == va * vb
    assert (a - b).value_at_one() == va - vb


def test_monomial_and_one():
    c = Cyc.rational(Fraction(5, 2), P)
    assert ZetaElement.monomial(c, 3, P).value_at_one() == c
    assert ZetaElement.monomial(Cyc.one(P), 0, P).value_at_one() == \
        Cyc.one(P)


def _window_by_shells(fac, lo, hi, sigma, p):
    """The finite shell window as one Cyc addition per shell."""
    if fac.chi_ramified_on_units():
        return ZetaElement.zero(p)
    z = Fraction(fac.chi(fac.uniformizer()))
    num = {}
    for a in range(lo, hi + 1):
        e = fac.f * sigma * a
        num[e] = num.get(e, Cyc.zero(p)) + Cyc.rational(z**a, p)
    return ZetaElement(p, num)


# squarefree d0 that are non-squares in Q_p (unramified and ramified)
QUAD_D0 = {3: (-1, 2, 3, 6), 5: (2, 3, 5, 10), 7: (-1, 3, 7, 21)}


@given(st.sampled_from(sorted(QUAD_D0)), st.booleans(), st.data(),
       st.integers(-2, 2), st.integers(-8, 8), st.integers(0, 30))
@settings(max_examples=150, deadline=None)
def test_factor_zeta_window_matches_the_shell_sum(p, ramified_tau, data,
                                                  sigma, lo, width):
    lf = LocalField(p, p if ramified_tau else smallest_nonresidue(p))
    d0 = data.draw(st.sampled_from((None,) + QUAD_D0[p]))
    fac = LineFactor(lf, Fraction(0)) if d0 is None else QuadFactor(lf, d0)
    cell = Cell()
    cell.vmin, cell.vmax = lo, lo + width
    got = factor_zeta(fac, cell, sigma, p)
    want = _window_by_shells(fac, lo, lo + width, sigma, p)
    assert got.num == want.num and got.den == want.den == {}
