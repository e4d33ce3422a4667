import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitlab import integrals, steps
from orbitlab.cyclo import Cyc
from orbitlab.integrals import (_action_matrix_gl2, _k_quotient_level,
                                _k_reps, chi_average_compact, deep_element,
                                gl_orbit_integral, support_radius,
                                unitary_orbit_integral, weil_index,
                                weil_index_form)
from orbitlab.etale import EtaleAlgebra, LineFactor, QuadFactor, u1_cosets
from orbitlab.quadext import Q2
from orbitlab.scalar import LocalField, smallest_nonresidue, valuation
from orbitlab.spaces import GLTriple
from orbitlab.steps import LineBlock, QuadBlock, Space, StepFunction, Term


def _brute_gl_orbit(lf, f, d, r=2, jmax=6):
    """Independent oracle: sum chi(t) f(gamma, t v, v*/t) over cosets
    t (1 + p^r O) of F^x, with vol(O^x) = 1."""
    p = lf.p
    acc = Cyc.zero(p)
    w = Fraction(1, (p - 1) * p ** (r - 1))
    units = [u for u in range(1, p**r) if u % p != 0]
    for j in range(-jmax, jmax + 1):
        for u in units:
            t = Fraction(u) * Fraction(p) ** j
            val = f.eval((d.gamma[0][0], t * d.v[0], d.vstar[0] / t))
            if val:
                acc = acc + val * Fraction(lf.chi(t)) * w
    return acc


def test_gl_orbit_against_brute_force():
    rng = random.Random(3)
    for tau in (Fraction(2), Fraction(3)):
        lf = LocalField(3, tau)
        space = Space.lines(lf, 3)
        for _ in range(6):
            terms = [Term(Cyc.rational(Fraction(rng.randrange(1, 4)), 3),
                          [Fraction(rng.randrange(-3, 4)) for _ in range(3)],
                          [rng.randrange(-1, 2)] * 3)
                     for _ in range(2)]
            f = StepFunction(space, terms)
            d = GLTriple([[Fraction(rng.randrange(-2, 3))]],
                         [Fraction(rng.choice([1, 2, 9]))],
                         [Fraction(rng.choice([1, 1, 3]))])
            assert gl_orbit_integral(lf, f, d) == _brute_gl_orbit(lf, f, d)


def test_gl_orbit_of_unit_lattice():
    lf = LocalField(3, Fraction(2))
    space = Space.lines(lf, 3)
    f = StepFunction.indicator(space, [0, 0, 0], [0, 0, 0])
    d = GLTriple([[Fraction(1)]], [Fraction(1)], [Fraction(1)])
    assert gl_orbit_integral(lf, f, d) == Cyc.one(3)
    # scaling v by p makes the invariant b = v* v odd-valuation: the
    # chi-weighted shells cancel pairwise except the surviving range
    d2 = GLTriple([[Fraction(1)]], [Fraction(3)], [Fraction(1)])
    assert gl_orbit_integral(lf, f, d2) == Cyc.zero(3)


def test_unitary_orbit_unit_mass():
    for tau in (Fraction(2), Fraction(3)):
        lf = LocalField(3, tau)
        from orbitlab.etale import squarefree_kernel
        from orbitlab.steps import LineBlock, QuadBlock
        d0 = Fraction(squarefree_kernel(tau))
        ram = valuation(d0, 3) % 2 == 1
        space = Space(lf, [LineBlock(lf), QuadBlock(lf, d0, ram)])
        f = StepFunction.indicator(space, [0, 0, 0], [0, 0])
        assert unitary_orbit_integral(lf, f, Fraction(0), Fraction(1)) \
            == Cyc.one(3)
        # w outside the support
        assert unitary_orbit_integral(lf, f, Fraction(0), Fraction(1, 3)) \
            == Cyc.zero(3)


@pytest.mark.parametrize("tau,d0,ramified", [(12, 3, True), (18, 2, False)])
def test_unitary_orbit_integral_sees_only_the_class_of_tau(tau, d0, ramified):
    # tau = d0 * (rational square) gives the same field E as tau = d0; the
    # cosets and w live in the squarefree model Q_3(sqrt(d0)) for both
    rng = random.Random(24)
    raw = [(Cyc.rational(Fraction(rng.randrange(1, 4)), 3),
            [Fraction(rng.randrange(-2, 3)) for _ in range(3)],
            [rng.randrange(0, 2), rng.randrange(0, 3)]) for _ in range(4)]
    ws = [Q2(Fraction(d0), Fraction(a), Fraction(b))
          for a, b in ((1, 0), (1, 1), (0, 1), (2, 1), (Fraction(1, 3), 1))]
    values = {}
    for t in (tau, d0):
        lf = LocalField(3, Fraction(t))
        space = Space(lf, [LineBlock(lf), QuadBlock(lf, Fraction(d0),
                                                    ramified)])
        f = StepFunction(space, [Term(c, x, l) for c, x, l in raw])
        values[t] = [unitary_orbit_integral(lf, f, delta, w)
                     for delta in (Fraction(-1), Fraction(0), Fraction(1))
                     for w in ws]
    assert values[tau] == values[d0]
    assert any(values[d0])


def test_weil_index_unit_and_inverses():
    for p in (3, 5):
        lf = LocalField(p)
        assert weil_index(lf, Fraction(1)) == Cyc.one(p)
        for a in lf.square_class_reps():
            g = weil_index(lf, a)
            assert g * weil_index(lf, -a) == Cyc.one(p)
            assert g * g.conj() == Cyc.one(p)  # eighth root of unity


def test_weil_index_product_rule():
    for p in (3, 5):
        lf = LocalField(p)
        for a in lf.square_class_reps():
            for b in lf.square_class_reps():
                lhs = weil_index(lf, a) * weil_index(lf, b)
                rhs = (weil_index(lf, Fraction(1)) * weil_index(lf, a * b)
                       * Fraction(lf.hilbert(a, b)))
                assert lhs == rhs


def test_weil_index_form_properties():
    lf = LocalField(3)
    coeffs = [Fraction(1), Fraction(2), Fraction(-3)]
    direct = Cyc.one(3)
    for c in coeffs:
        direct = direct * weil_index(lf, c)
    assert weil_index_form(lf, coeffs) == direct
    assert weil_index_form(lf, list(reversed(coeffs))) == direct


@pytest.mark.parametrize("p", (3, 5, 7))
def test_weil_index_is_computed_once_per_class(p, monkeypatch):
    calls = {}
    real = integrals._phase_sum

    def counted(lf, a, m):
        calls[(lf, a)] = calls.get((lf, a), 0) + 1
        return real(lf, a, m)

    integrals._weil_index_of_class.cache_clear()
    monkeypatch.setattr(integrals, "_phase_sum", counted)
    inputs = [(LocalField(p, tau), rep * scale)
              for tau in (smallest_nonresidue(p), p)
              for rep in LocalField(p, tau).square_class_reps()
              for scale in (1, 4, p**2)]
    values = [weil_index(lf, a) for lf, a in inputs]
    assert len(calls) == 8
    assert all(n <= 2 for n in calls.values())
    monkeypatch.undo()
    uncached = integrals._weil_index_of_class.__wrapped__
    assert values == [uncached(lf, lf.square_class_rep(a))
                      for lf, a in inputs]


@pytest.mark.parametrize("p", (3, 5))
def test_weil_index_of_class_rejects_a_non_representative(p):
    lf = LocalField(p)
    with pytest.raises(ValueError):
        integrals._weil_index_of_class(lf, Fraction(p**3))


def _shell_reps_closed_form(p, k, r, ramified):
    """Oracle: the shell representatives written out per ramification."""
    reps = []
    if not ramified:
        s = Fraction(p) ** k
        for a in range(p**r):
            for b in range(p**r):
                if a % p == 0 and b % p == 0:
                    continue
                reps.append((s * a, s * b))
    else:
        sa = Fraction(p) ** (-((-k) // 2))
        sb = Fraction(p) ** (k // 2)
        for a in range(p**r):
            for b in range(p**r):
                if (k % 2 == 0 and a % p == 0) or \
                        (k % 2 == 1 and b % p == 0):
                    continue
                reps.append((sa * a, sb * b))
    return reps


@pytest.mark.parametrize("p,rmax", [(3, 3), (5, 3), (7, 2)])
def test_shell_reps_match_the_closed_form(p, rmax):
    lf = LocalField(p)
    for d0, ramified in ((smallest_nonresidue(p), False), (p, True)):
        blk = QuadBlock(lf, Fraction(d0), ramified)
        for k in range(-6, 9):
            for r in range(rmax + 1):
                assert integrals._shell_reps(blk, k, r) == \
                    _shell_reps_closed_form(p, k, r, ramified)


# squarefree d0 that are non-squares in Q_p (unramified and ramified)
QUAD_D0 = {3: (-1, 2, 3, 6), 5: (2, 3, 5, 10), 7: (-1, 3, 7, 21)}


@st.composite
def deep_element_keys(draw):
    p = draw(st.sampled_from(sorted(QUAD_D0)))
    lf = LocalField(p, draw(st.sampled_from((smallest_nonresidue(p), p))))
    if draw(st.booleans()):
        fac = LineFactor(lf, draw(st.fractions(-3, 3, max_denominator=3)))
    else:
        fac = QuadFactor(lf, draw(st.sampled_from(QUAD_D0[p])))
    sign = 1 if fac.contains_E() else draw(st.sampled_from((1, -1)))
    return fac, draw(st.integers(0, 8)), sign


@given(deep_element_keys())
@settings(deadline=None)
def test_deep_element_cache_matches_the_uncached_search(key):
    fac, depth, sign = key
    x = deep_element(fac, depth, sign)
    assert x == deep_element.__wrapped__(fac, depth, sign)
    assert fac.val(x) >= depth and fac.chi(x) == sign
    twin = (LineFactor(LocalField(fac.lf.p, fac.lf.tau), fac.root)
            if fac.degree == 1 else
            QuadFactor(LocalField(fac.lf.p, fac.lf.tau), int(fac.d0)))
    assert deep_element(twin, depth, sign) is x


def test_support_radius():
    lf = LocalField(3, Fraction(2))
    alg = EtaleAlgebra(lf, [LineFactor(lf, Fraction(0))])
    space = Space.lines(lf, 2)
    f = StepFunction.indicator(space, [0, 0], [-2, -2])
    assert support_radius(alg, f) >= 2


def _unmerged_average(lf, f):
    """The chi(det k)-weighted average as the plain sum of its pullbacks,
    with no merging."""
    terms, count = [], 0
    for k in _k_reps(lf.p, _k_quotient_level(f)):
        det = k[0][0] * k[1][1] - k[0][1] * k[1][0]
        g = f.affine_pullback(_action_matrix_gl2(k)).scale(lf.chi(det))
        terms.extend(g.terms)
        count += 1
    return StepFunction(f.space, terms).scale(Fraction(1, count))


def _gl2_vv_function(lf, rng, level, nterms=3, phases=False):
    p = lf.p
    terms = []
    for _ in range(nterms):
        center = [Fraction(rng.randrange(-p, p + 1)) for _ in range(8)]
        phase = ([Fraction(rng.randrange(-p, p + 1), p) for _ in range(8)]
                 if phases else None)
        terms.append(Term(Cyc.rational(Fraction(rng.randrange(1, 4)), p),
                          center, [level] * 8, phase))
    return StepFunction(Space.lines(lf, 8), terms)


def _check_against_the_unmerged_average(p, rng):
    """Compare at both tau classes; return the pairs of term counts."""
    sizes = []
    for tau in (smallest_nonresidue(p), p):
        lf = LocalField(p, Fraction(tau))
        f = _gl2_vv_function(lf, rng, level=1, phases=True)
        fK = chi_average_compact(lf, f)
        plain = _unmerged_average(lf, f)
        sizes.append((len(fK.terms), len(plain.terms)))
        assert fK == plain
        for _ in range(40):
            x = [Fraction(rng.randrange(-p**2, p**2 + 1), rng.choice((1, p)))
                 for _ in range(8)]
            assert fK.eval(x) == plain.eval(x)
        for t in f.terms:
            assert fK.eval(t.center) == plain.eval(t.center)
    return sizes


def test_chi_average_compact_equals_the_unmerged_average():
    for merged, plain in _check_against_the_unmerged_average(
            3, random.Random(21)):
        assert merged < plain


def test_chi_average_compact_equals_the_unmerged_average_at_p5():
    _check_against_the_unmerged_average(5, random.Random(25))


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (3, 2)])
def test_k_group_is_gl2_mod_p_power_with_exact_inverses(p, m):
    group = integrals._k_group(p, m)
    assert integrals._k_group(p, m) is group
    assert len(group) == p ** (4 * (m - 1)) * (p**2 - 1) * (p**2 - p)
    identity = [[int(i == j) for j in range(8)] for i in range(8)]
    for (det, R, R_inv), k in zip(group, _k_reps(p, m)):
        assert det == k[0][0] * k[1][1] - k[0][1] * k[1][0]
        assert valuation(det, p) == 0
        assert [list(row) for row in R] == _action_matrix_gl2(k)
        # R R^{-1} over the nonzero entries of R
        assert [[sum(c * R_inv[t][j] for t, c in enumerate(row) if c)
                 for j in range(8)] for row in R] == identity


def test_chi_average_compact_inverts_no_matrix(monkeypatch):
    def no_inverse(A):
        raise AssertionError("Gauss-Jordan inversion in the average")

    monkeypatch.setattr(steps, "mat_inverse", no_inverse)
    integrals._k_group.cache_clear()
    rng = random.Random(26)
    lf = LocalField(3, Fraction(2))
    f = _gl2_vv_function(lf, rng, level=1, phases=True)
    f.terms[0].levels = (1, 0, 1, 1, 0, 1, 1, 1)
    assert chi_average_compact(lf, f).terms


@pytest.mark.parametrize("tau", [2, 3])
def test_chi_average_compact_matches_the_brute_force_average_at_mixed_levels(
        tau):
    # levels that differ between the blocks gl_2, V and V*: the pullbacks
    # by the non-monomial R(k) cut each box into several (_lattice_boxes).
    # Centers with denominators p put support off Z_p^8.  The oracle is
    # (1/|K|) sum chi(det k) f(R(k) x) over K = GL_2(Z/3), point by point.
    lf = LocalField(3, Fraction(tau))
    p = lf.p
    rng = random.Random(f"mixed/{tau}")
    # (levels, denominator) per block, for gl_2, V and V*
    shapes = (((0, p), (0, p), (-1, 1)), ((0, p), (-1, 1), (0, p)),
              ((1, 1), (0, 1), (1, 1)))
    terms = []
    for shape in shapes:
        levels, center = [], []
        for (level, den), size in zip(shape, (4, 2, 2)):
            levels += [level] * size
            center += [Fraction(rng.randrange(-p * den, p * den + 1), den)
                       for _ in range(size)]
        terms.append(Term(Cyc.rational(Fraction(rng.randrange(1, 4)), p),
                          center, levels))
    f = StepFunction(Space.lines(lf, 8), terms)
    assert _k_quotient_level(f) == 1
    fK = chi_average_compact(lf, f)
    group = integrals._k_group(p, 1)

    def act(R, x):
        return [sum(c * xj for c, xj in zip(row, x)) for row in R]

    def brute(x):
        total = Cyc.zero(p)
        for det, R, _ in group:
            total = total + f.eval(act(R, x)) * lf.chi(det)
        return total * Cyc.rational(Fraction(1, len(group)), p)

    # each center, points of each box moved by random group elements, and
    # random points with and without denominators
    pts = [list(t.center) for t in terms]
    for t in terms:
        for _ in range(5):
            x = [c + Fraction(p) ** l * rng.randrange(-p, p + 1)
                 for c, l in zip(t.center, t.levels)]
            pts.append(act(rng.choice(group)[1], x))
    pts += [[Fraction(rng.randrange(-p, p + 1), rng.choice((1, p)))
             for _ in range(8)] for _ in range(6)]
    values = [fK.eval(x) for x in pts]
    assert values == [brute(x) for x in pts]
    assert any(v for x, v in zip(pts, values)
               if any(c.denominator > 1 for c in x))
    assert any(v for x, v in zip(pts, values)
               if all(c.denominator == 1 for c in x))


def test_chi_average_compact_of_level_zero_is_one_term():
    rng = random.Random(22)
    for tau in (Fraction(2), Fraction(3)):
        lf = LocalField(3, tau)
        f = _gl2_vv_function(lf, rng, level=0, nterms=4)
        assert len(chi_average_compact(lf, f).terms) <= 1


def test_chi_average_compact_certification_keeps_its_points(monkeypatch):
    lf = LocalField(3, Fraction(2))
    p = lf.p
    f = _gl2_vv_function(lf, random.Random(23), level=0)
    calls = []
    original = StepFunction.eval

    def counting(self, x):
        calls.append(tuple(x))
        return original(self, x)

    monkeypatch.setattr(StepFunction, "eval", counting)
    chi_average_compact(lf, f)
    # the 12 points, each evaluated once, and their images under the 2
    # group elements: 24 comparisons f(k x) = chi(det k) f(x)
    pts = [tuple(Fraction((7 * i + 3 * j + i * j) % 5 - 2)
                 for j in range(8)) for i in range(8)]
    pts += [tuple(Fraction((7 * i + 3 * j + i * j) % (p**2), p)
                  for j in range(8)) for i in range(3)]
    pts += [(Fraction(0),) * 8]
    images = []
    for k in (((1, 1), (1, 2)), ((2, 1), (p, 1))):
        R = _action_matrix_gl2(tuple(tuple(map(Fraction, r)) for r in k))
        images += [tuple(sum(R[i][j] * x[j] for j in range(8))
                         for i in range(8)) for x in pts]
    assert Counter(calls) == Counter(pts + images)


def _u1_average(lf, f, delta, w, k):
    """The average of f(delta, z w) over the level-k U(1) cosets."""
    reps = u1_cosets(lf, k)
    acc = Cyc.zero(lf.p)
    for z in reps:
        zw = z * w
        acc = acc + f.eval((delta, zw.a, zw.b))
    return acc * Cyc.rational(Fraction(1, len(reps)), lf.p)


@pytest.mark.xfail(strict=True, reason="unitary_orbit_integral stops when "
                   "two consecutive levels agree, and at ramified tau the "
                   "level-2 and level-3 U(1) subgroups are equal")
def test_unitary_orbit_integral_at_ramified_tau_sees_fine_functions():
    lf = LocalField(3, Fraction(3))
    w = Q2(lf.d0, Fraction(1), Fraction(0))
    space = Space(lf, [LineBlock(lf), QuadBlock(lf, lf.d0, True)])
    f = StepFunction.indicator(space, [0, 1, 0], [0, 4])
    fine = _u1_average(lf, f, Fraction(0), w, 8)
    assert fine == Cyc.rational(Fraction(1, 18), 3)
    assert unitary_orbit_integral(lf, f, Fraction(0), w) == fine
