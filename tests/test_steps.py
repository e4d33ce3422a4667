import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from orbitlab.cyclo import Cyc
from orbitlab.linalg import mat_inverse
from orbitlab.scalar import LocalField, valuation
from orbitlab.steps import (LineBlock, MonomialGram, QuadBlock, Space,
                            StepFunction, Term, frac_mod_one, frac_mod_power)

P = 3
LF = LocalField(P, Fraction(2))


def _points(rng, n, count=25):
    for _ in range(count):
        yield [Fraction(rng.randrange(-2 * P**3, 2 * P**3), P**rng.randrange(3))
               for _ in range(n)]


def _random_f(rng, n=2, nterms=3, with_phase=False):
    space = Space.lines(LF, n)
    terms = []
    for _ in range(nterms):
        coeff = Cyc.rational(Fraction(rng.randrange(1, 5)), P)
        center = [Fraction(rng.randrange(-4, 5), P**rng.randrange(2))
                  for _ in range(n)]
        levels = [rng.randrange(-1, 3) for _ in range(n)]
        phase = ([Fraction(rng.randrange(-2, 3), P**rng.randrange(2))
                  for _ in range(n)] if with_phase else None)
        terms.append(Term(coeff, center, levels, phase))
    return StepFunction(space, terms)


@given(st.fractions(min_value=-50, max_value=50, max_denominator=81))
def test_frac_mod_one(x):
    from orbitlab.scalar import valuation
    r = frac_mod_one(x, P)
    assert 0 <= r < 1
    assert r == 0 or set(_prime_factors(r.denominator)) <= {P}
    assert r == x or valuation(x - r, P) >= 0


def _prime_factors(n):
    out, d = [], 2
    while n > 1:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    return out


def test_frac_mod_power():
    assert frac_mod_power(Fraction(10, 9) + 9, 3, 2) == Fraction(10, 9)
    assert frac_mod_power(Fraction(5), 3, 1) == 2
    assert frac_mod_power(Fraction(1, 2), 3, 1) == 2  # 1/2 = 2 mod 3


def test_indicator_eval():
    space = Space.lines(LF, 2)
    f = StepFunction.indicator(space, [0, 0], [0, 1])
    one, zero = Cyc.one(P), Cyc.zero(P)
    assert f.eval([0, 0]) == one
    assert f.eval([2, 3]) == one
    assert f.eval([2, 1]) == zero
    assert f.eval([Fraction(1, 3), 0]) == zero


def test_quad_block_valuation():
    unram = QuadBlock(LF, Fraction(2), False)
    assert unram.shape(2) == (2, 2)
    ram = QuadBlock(LF, Fraction(3), True)
    assert ram.shape(3) == (2, 1)
    assert ram.val((Fraction(3), Fraction(1))) == 1  # v_E(3a + sqrt(3) b)


def test_linearity_of_eval():
    rng = random.Random(7)
    f, g = _random_f(rng), _random_f(rng)
    for x in _points(rng, 2):
        assert (f + g).eval(x) == f.eval(x) + g.eval(x)
        assert (f - g).eval(x) == f.eval(x) - g.eval(x)
        assert f.scale(Fraction(3, 2)).eval(x) == f.eval(x) * Fraction(3, 2)


def test_translate_and_phase():
    rng = random.Random(8)
    f = _random_f(rng, with_phase=True)
    a = [Fraction(1, 3), Fraction(2)]
    g = f.translate(a)
    lam = [Fraction(1, 3), Fraction(0)]
    h = f.mul_phase(lam)
    for x in _points(rng, 2):
        assert g.eval(x) == f.eval([xi + ai for xi, ai in zip(x, a)])
        ph = sum(l * xi for l, xi in zip(lam, x))
        assert h.eval(x) == f.eval(x) * LF.psi(ph)


def test_affine_pullback_matches_composition():
    rng = random.Random(10)
    mats = [
        [[1, 1], [0, 1]],                       # unimodular
        [[3, 0], [0, Fraction(1, 3)]],          # monomial, mixed scales
        [[0, 2], [Fraction(1, 3), 0]],          # monomial with swap
        [[1, 2], [Fraction(1, 3), 1]],          # generic
    ]
    for A in mats:
        f = _random_f(rng, with_phase=True)
        b = [Fraction(rng.randrange(-3, 4), 3) for _ in range(2)]
        g = f.affine_pullback(A)
        gb = f.translate(b).affine_pullback(A)
        # a caller that knows A^{-1} passes it instead of inverting A
        gi = f.affine_pullback(
            A, inverse=mat_inverse([[Fraction(c) for c in r] for r in A]))
        assert gi == g
        for x in _points(rng, 2):
            Ax = [sum(Fraction(A[i][j]) * x[j] for j in range(2))
                  for i in range(2)]
            assert g.eval(x) == f.eval(Ax)
            assert gi.eval(x) == f.eval(Ax)
            # a shifted pullback f(A x + b) is translate(b), then pull back
            assert gb.eval(x) == f.eval([a + bi for a, bi in zip(Ax, b)])


def test_partial_integrate_is_box_volume():
    space = Space.lines(LF, 2)
    f = StepFunction.indicator(space, [0, 0], [2, -1])
    m = f.partial_integrate([0, 1])
    assert m.eval([]) == Cyc.rational(Fraction(3, 9), P)


def test_restrict_zero():
    rng = random.Random(11)
    f = _random_f(rng, n=3)
    g = f.restrict_zero([1])
    for x in _points(rng, 2):
        assert g.eval(x) == f.eval([x[0], 0, x[1]])


def test_canonicalize_preserves_values():
    rng = random.Random(12)
    f = _random_f(rng)
    g = f.canonicalize()
    for x in _points(rng, 2):
        assert g.eval(x) == f.eval(x)


def test_equality_is_pointwise():
    space = Space.lines(LF, 1)
    f = StepFunction.indicator(space, [Fraction(0)], [0])
    split = StepFunction(space, [
        Term(Cyc.one(P), [Fraction(c)], (1,)) for c in range(P)])
    assert f == split


def test_fourier_is_involutive_up_to_parity():
    rng = random.Random(13)
    for _ in range(10):
        f = _random_f(rng, with_phase=True)
        assert f.fourier().fourier() == f.parity_flip()
    gram = MonomialGram([1, 0], [Fraction(2), Fraction(2)])
    f = _random_f(rng, with_phase=True)
    assert f.fourier(gram).fourier(gram) == f.parity_flip()


def test_fourier_of_unit_lattice_is_itself():
    space = Space.lines(LF, 2)
    f = StepFunction.indicator(space, [0, 0], [0, 0])
    assert f.fourier() == f


def test_json_round_trip():
    rng = random.Random(14)
    f = _random_f(rng, with_phase=True)
    g = StepFunction.from_json(f.to_json(), LF)
    assert g == f
    space = Space(LF, [LineBlock(LF), QuadBlock(LF, Fraction(2), False)])
    h = StepFunction.indicator(space, [0, 0, 0], [0, 1])
    assert StepFunction.from_json(h.to_json(), LF) == h


# ---------------------------------------------------------------------------
# merging at the terms' own level, against the full refinement


def _canonicalize_full_refinement(f):
    """Reference: refine every term to the finest level in every block and
    merge the sub-boxes, with no merge before the refinement."""
    if not f.terms:
        return f
    lf = f.space.lf
    p = lf.p
    nb = len(f.space.blocks)
    levels = tuple(max(t.levels[i] for t in f.terms) for i in range(nb))
    shapes = f.space.coord_shapes(levels)
    acc = {}
    for t in f.terms:
        tshapes = f.space.coord_shapes(t.levels)
        ranges = [p ** (S - s) for s, S in zip(tshapes, shapes)]
        lam = tuple(frac_mod_power(v, p, -S) for v, S in zip(t.phase, shapes))
        dlam = tuple(a - b for a, b in zip(t.phase, lam))
        idx = [0] * len(ranges)
        while True:
            center = tuple(
                frac_mod_power(c + Fraction(p) ** s * k, p, S)
                for c, s, S, k in zip(t.center, tshapes, shapes, idx))
            ph = sum((dv * c for dv, c in zip(dlam, center)), Fraction(0))
            ph += sum((lv * c for lv, c in zip(lam, center)), Fraction(0))
            key = (center, lam)
            acc[key] = acc.get(key, Cyc.zero(p)) + t.coeff * lf.psi(ph)
            j = 0
            while j < len(idx):
                idx[j] += 1
                if idx[j] < ranges[j]:
                    break
                idx[j] = 0
                j += 1
            else:
                break
    out = []
    for (center, lam), coeff in acc.items():
        if coeff.is_zero():
            continue
        ph = sum((lv * c for lv, c in zip(lam, center)), Fraction(0))
        out.append(Term(coeff * lf.psi(-ph), center, levels, lam))
    return StepFunction(f.space, out)


FIELDS = {p: LocalField(p, Fraction(2)) for p in (3, 5)}


def _form(f):
    return {(t.center, t.levels, t.phase): t.coeff for t in f.terms}


@st.composite
def _spaces(draw):
    p = draw(st.sampled_from(sorted(FIELDS)))
    lf = FIELDS[p]
    # d0 = 2 is a non-square unit at p = 3, 5; d0 = p is ramified
    kinds = draw(st.lists(st.sampled_from(("line", "unram", "ram")),
                          min_size=1, max_size=2))
    return Space(lf, [LineBlock(lf) if k == "line"
                      else QuadBlock(lf, Fraction(2 if k == "unram" else p),
                                     k == "ram")
                      for k in kinds])


@st.composite
def _terms(draw, space, lo):
    """Terms on a few shared centers and phases, so that keys repeat; the
    box levels are lo or lo + 1 in each block."""
    p = space.lf.p
    rat = st.builds(Fraction, st.integers(-p, p),
                    st.sampled_from((1, p)))
    out = []
    for _ in range(draw(st.integers(1, 6))):
        coeff = Cyc.rational(draw(st.sampled_from((1, -1, 2, Fraction(1, 3)))),
                             p)
        if draw(st.booleans()):
            coeff = coeff * space.lf.psi(Fraction(draw(st.integers(1, p - 1)),
                                                  p))
        center = [draw(rat) for _ in range(space.dim)]
        levels = [lo + draw(st.integers(0, 1)) for _ in space.blocks]
        phase = [draw(rat) / draw(st.sampled_from((1, p)))
                 for _ in range(space.dim)]
        out.append(Term(coeff, center, levels, phase))
    return out


@st.composite
def _step_functions(draw, space=None):
    space = space or draw(_spaces())
    lo = draw(st.sampled_from((-1, 0) if space.lf.p == 3 else (0,)))
    return StepFunction(space, draw(_terms(space, lo)))


@st.composite
def _rewritten(draw, f):
    """The same function written with other centers and phases: each
    center moves within its box and each phase within the box's dual
    lattice, with the coefficient corrected by psi(-d . c)."""
    lf, p = f.space.lf, f.space.lf.p
    out = []
    for t in f.terms:
        shapes = f.space.coord_shapes(t.levels)
        dc = [Fraction(p) ** s * draw(st.integers(-p, p)) for s in shapes]
        dl = [Fraction(p) ** -s * draw(st.integers(-p, p)) for s in shapes]
        ph = sum((d * c for d, c in zip(dl, t.center)), Fraction(0))
        out.append(Term(t.coeff * lf.psi(-ph),
                        [c + d for c, d in zip(t.center, dc)], t.levels,
                        [v + d for v, d in zip(t.phase, dl)]))
    return StepFunction(f.space, draw(st.permutations(out)))


@st.composite
def _pairs(draw):
    f = draw(_step_functions())
    g = draw(_rewritten(f))
    how = draw(st.sampled_from(("same", "extra", "other")))
    if how == "extra":
        g = g + draw(_step_functions(f.space))
    elif how == "other":
        g = draw(_step_functions(f.space))
    return f, g


def _fine_points(draw, f, count=12):
    """Points on the grid one level finer than the finest box, covering
    the coarsest box and center."""
    p = f.space.lf.p
    shapes = [s for t in f.terms for s in f.space.coord_shapes(t.levels)]
    lo = min(shapes + [min(valuation(c, p), 0)
                       for t in f.terms for c in t.center])
    span = p ** (max(shapes) + 1 - lo)
    unit = Fraction(p) ** lo
    return [[unit * draw(st.integers(0, span - 1)) for _ in range(f.space.dim)]
            for _ in range(count)] + [list(t.center) for t in f.terms]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_merged_agrees_pointwise(data):
    f = data.draw(_step_functions())
    g = f.merged()
    assert len(g.terms) <= len(f.terms)
    for x in _fine_points(data.draw, f):
        assert g.eval(x) == f.eval(x)


@settings(max_examples=60, deadline=None)
@given(_pairs())
def test_equality_agrees_with_full_refinement(fg):
    f, g = fg
    d = f - g
    oracle = _canonicalize_full_refinement(d)
    c = d.canonicalize()
    # the refinement stops at the survivors' finest level, so c is in the
    # reference's canonical form, possibly at a coarser level
    assert _form(_canonicalize_full_refinement(c)) == _form(c)
    assert not _canonicalize_full_refinement(c - oracle).terms
    assert d.is_zero() == (not oracle.terms)
    assert (f == g) == (not oracle.terms)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rewritten_function_is_equal_and_merges_away(data):
    f = data.draw(_step_functions())
    g = data.draw(_rewritten(f))
    assert f == g
    assert not (f - g).merged().terms


@settings(max_examples=60, deadline=None)
@given(_step_functions())
def test_merged_is_idempotent(f):
    g = f.merged()
    h = g.merged()
    assert [(t.center, t.levels, t.phase, t.coeff) for t in h.terms] == \
        [(t.center, t.levels, t.phase, t.coeff) for t in g.terms]
