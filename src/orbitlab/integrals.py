"""Orbit-integral engines: torus orbit integrals with germ-expansion
extraction, rank <= 2 general-linear and unitary orbit integrals,
nilpotent orbit integrals by analytic continuation, the rank-one
matching-function construction, parabolic descent, and Weil indices.
Everything is exact; s = 0 evaluations go through ZetaElement, never
through numeric limits.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from .cyclo import Cyc, sqrt_p
from .etale import EtaleAlgebra, LineFactor, u1_cosets
from .quadext import Q2
from .scalar import INF, LocalField, ratsqrt, smallest_nonresidue, valuation
from .spaces import GLTriple
from .steps import (LineBlock, QuadBlock, Space, StepFunction, Term,
                    frac_mod_power)
from .zeta import FactorMode, ZetaElement, mult_zeta


def algebra_space(alg: EtaleAlgebra) -> Space:
    """The space A x A that mult_zeta integrates over, with one coordinate
    block per factor per copy."""
    return Space(alg.lf, [f.block for f in alg.factors] * 2)


def log_norm(fac, v) -> Fraction:
    """log_q |x|_i for v = val_i(x), with |.|_i the unique extension of
    the absolute value of F (so log_q |pi_i| = -1/e_i)."""
    return Fraction(-v, fac.e)


# ---------------------------------------------------------------------------
# torus orbit integrals and germ expansions


def torus_orbit_integral(alg: EtaleAlgebra, f: StepFunction, eps) -> Cyc:
    """Integral over T of f(t, eps t^{-1}) chi(t) dt, as an exact value.
    eps is an element of the algebra: a tuple with one coordinate per
    factor (Fraction or Q2), as alg.element builds it."""
    if not all(eps):
        raise ValueError("eps must be invertible")
    modes = [FactorMode(eps=c) for c in eps]
    return mult_zeta(alg, f, modes).value_at_one()


def c_empty_zeta(alg: EtaleAlgebra, f: StepFunction, signs) -> ZetaElement:
    """The analytic continuation defining c_empty: the sum over subsets
    L of the factors-without-E index set of

        int f(t_L, (t^{-1})_rest) chi(t) prod_rest chi(eps_i) dt

    with |t_i|^{+s} on L and |t_i|^{-s} on the rest; signs supplies
    chi(eps_i) per such factor."""
    S1 = alg.S1()
    sign_of = dict(zip(S1, signs))
    total = ZetaElement.zero(alg.lf.p)
    for lam in _subsets(S1):
        modes = []
        prefactor = 1
        for i in range(alg.m):
            if i not in S1:
                modes.append(FactorMode(slot1=False, slot2=False))
            elif i in lam:
                modes.append(FactorMode(slot2=False, sigma=1))
            else:
                modes.append(FactorMode(slot1=False, sigma=-1))
                prefactor *= sign_of[i]
        total = total + mult_zeta(alg, f, modes) * Fraction(prefactor)
    return total


def c_empty_closed_form(alg: EtaleAlgebra, f: StepFunction, signs) -> Cyc:
    return c_empty_zeta(alg, f, signs).value_at_one()


def _subsets(xs):
    xs = list(xs)
    for r in range(len(xs) + 1):
        yield from (frozenset(c) for c in itertools.combinations(xs, r))


@functools.cache
def deep_element(fac, depth: int, sign: int):
    """An element of the factor with valuation >= depth and chi value equal
    to sign (the factor must not contain E when sign = -1).

    Cached on (fac, depth, sign): factors hash by their value key (kind,
    field, root or d0), so equal factors built apart share one entry.  The
    result is an immutable scalar (Fraction or Q2)."""
    pi = fac.uniformizer()
    for a in (2 * depth, 2 * depth + 1):
        for unit in _unit_reps(fac):
            x = pi**a * unit
            if fac.chi(x) == sign:
                return x
    raise ValueError("no element of the requested norm class")


def _unit_reps(fac):
    yield fac.one()
    u = smallest_nonresidue(fac.lf.p)
    if fac.degree == 1:
        yield Fraction(u)
    else:
        yield fac.from_rational(u)
        for a in range(fac.lf.p):
            cand = fac.from_coords((Fraction(a), Fraction(1)))
            if fac.val(cand) == 0:
                yield cand


class GermExpansion:
    """The exact finite expansion of deep torus orbit integrals.

    predict(eps) = sum over L2 inside S2 of
        (-1)^{|S2 minus L2|} c_{L2}(signs(eps)) prod_{i in S2 minus L2} log_q|eps_i|
    valid once val(eps_i) >= radius on every factor.
    """

    def __init__(self, alg: EtaleAlgebra, radius: int, coeffs: dict):
        self.alg = alg
        self.radius = radius
        self.coeffs = coeffs  # (frozenset L2, sign tuple) -> Cyc

    def signs_of(self, eps):
        return tuple(self.alg.factors[i].chi(eps[i])
                     for i in self.alg.S1())

    def c_empty(self, signs) -> Cyc:
        return self.coeffs[(frozenset(), tuple(signs))]

    def predict(self, eps) -> Cyc:
        S2 = self.alg.S2()
        signs = self.signs_of(eps)
        p = self.alg.lf.p
        out = Cyc.zero(p)
        for lam2 in _subsets(S2):
            rest = [i for i in S2 if i not in lam2]
            c = self.coeffs[(lam2, signs)]
            reg = Fraction(1)
            for i in rest:
                fac = self.alg.factors[i]
                reg *= log_norm(fac, fac.val(eps[i]))
            out = out + c * Cyc.rational(Fraction(-1) ** len(rest) * reg, p)
        return out


def support_radius(alg: EtaleAlgebra, f: StepFunction) -> int:
    """A conservative depth beyond which the germ expansion is exact,
    read off from the box levels and center valuations in f."""
    m = alg.m
    bound = 1
    for t in f.terms:
        for i in range(m):
            fac = alg.factors[i]
            for c, l in ((f.space.block_coords(t.center, i), t.levels[i]),
                         (f.space.block_coords(t.center, m + i), t.levels[m + i])):
                v = fac.val(fac.from_coords(c))
                spread = abs(l) + (abs(v) if v != INF else 0)
                bound = max(bound, spread + 1)
    return 2 * bound


# the deepest radius germ_extract tries before giving up
MAX_GERM_RADIUS = 24


def germ_extract(alg: EtaleAlgebra, f: StepFunction) -> GermExpansion:
    """Solve for the expansion coefficients from torus orbit integrals on a
    grid of deep valuations, starting at support_radius(alg, f), then
    certify out of sample; deepen by 2 on failure, up to MAX_GERM_RADIUS."""
    N = support_radius(alg, f)
    while True:
        exp = _extract_at_radius(alg, f, N)
        if _certify(alg, f, exp):
            return exp
        N += 2
        if N > MAX_GERM_RADIUS:
            raise ArithmeticError("germ expansion inconsistent within radius bound")


def _extract_at_radius(alg, f, N):
    S1, S2 = alg.S1(), alg.S2()
    p = alg.lf.p
    coeffs = {}
    for signs in itertools.product((1, -1), repeat=len(S1)):
        s1_parts = {i: deep_element(alg.factors[i], N, s)
                    for i, s in zip(S1, signs)}
        # sample the multilinear polynomial in the S2 log variables on a
        # 2^{|S2|} grid and take finite differences
        samples = {}
        for ks in itertools.product((0, 1), repeat=len(S2)):
            coords = []
            for i in range(alg.m):
                if i in s1_parts:
                    coords.append(s1_parts[i])
                else:
                    fac = alg.factors[i]
                    k = N * fac.e + ks[S2.index(i)]
                    coords.append(fac.uniformizer() ** k)
            eps = alg.element(coords)
            xs = tuple(log_norm(alg.factors[i], alg.factors[i].e * N + ks[j])
                       for j, i in enumerate(S2))
            samples[xs] = torus_orbit_integral(alg, f, eps)
        multi = _solve_multilinear(samples, len(S2), p)
        for lam2 in _subsets(S2):
            rest = frozenset(S2) - lam2
            key = frozenset(j for j, i in enumerate(S2) if i in rest)
            c = multi[key] * Cyc.rational(Fraction(-1) ** len(rest), p)
            coeffs[(lam2, signs)] = c
    return GermExpansion(alg, N, coeffs)


def _solve_multilinear(samples: dict, nvars: int, p) -> dict:
    """Given values of a multilinear polynomial on a full 2-point grid per
    variable, return its coefficients indexed by frozensets of variables."""
    if nvars == 0:
        return {frozenset(): next(iter(samples.values()))}
    # split on the last variable
    lows = {}
    highs = {}
    vals = sorted({xs[nvars - 1] for xs in samples})
    a, b = vals[0], vals[1]
    for xs, val in samples.items():
        head = xs[:-1]
        if xs[-1] == a:
            lows[head] = val
        else:
            highs[head] = val
    slope = {head: (highs[head] - lows[head]) * Cyc.rational(
        Fraction(1) / (b - a), p) for head in lows}
    const = {head: lows[head] - slope[head] * Cyc.rational(a, p)
             for head in lows}
    out = {}
    for key, c in _solve_multilinear(const, nvars - 1, p).items():
        out[key] = c
    for key, c in _solve_multilinear(slope, nvars - 1, p).items():
        out[key | {nvars - 1}] = c
    return out


def _certify(alg, f, exp: GermExpansion) -> bool:
    """Out-of-sample checks at deeper valuations and varied unit parts."""
    S1, S2 = alg.S1(), alg.S2()
    N = exp.radius
    for signs in itertools.product((1, -1), repeat=len(S1)):
        for shift in (2, 3):
            coords = []
            si = 0
            for i in range(alg.m):
                fac = alg.factors[i]
                if i in S1:
                    coords.append(deep_element(fac, N + shift, signs[si]))
                    si += 1
                else:
                    coords.append(fac.uniformizer() ** (N * fac.e + shift))
            eps = alg.element(coords)
            if torus_orbit_integral(alg, f, eps) != exp.predict(eps):
                return False
    return True


# ---------------------------------------------------------------------------
# rank-1 multiplicative reductions


def rank1_slice(f: StepFunction, gamma) -> StepFunction:
    """The slice f(gamma, ., .) on F x F of f on F x F x F."""
    g = f.translate((Fraction(gamma), Fraction(0), Fraction(0)))
    return g.restrict_zero([0])


def _rank1_zeta(lf: LocalField, f: StepFunction, gamma, v, vs,
                sigma) -> ZetaElement:
    """The zeta element of int f(gamma, t v, t^{-1} vs) chi(t)|t|^{sigma s} dt
    for f on F x F x F; a zero v (resp. vs) pins that argument to 0."""
    alg = EtaleAlgebra(lf, [LineFactor(lf, Fraction(gamma))])
    sv = Fraction(v) if v else Fraction(1)
    sw = Fraction(vs) if vs else Fraction(1)
    g = rank1_slice(f, gamma).affine_pullback(
        [[sv, Fraction(0)], [Fraction(0), sw]])
    mode = FactorMode(slot1=bool(v), slot2=bool(vs), sigma=sigma)
    return mult_zeta(alg, g, [mode])


def gl_orbit_integral(lf: LocalField, f: StepFunction, d) -> Cyc:
    """Orbit integral of a regular semisimple rank-1 triple:
    int over F^x of f(gamma, t v, v* t^{-1}) chi(t) dt (a finite sum)."""
    if d.n != 1:
        raise NotImplementedError("regular semisimple orbit integrals "
                                  "implemented at rank 1")
    if not d.is_rss():
        raise ValueError("triple is not regular semisimple")
    z = _rank1_zeta(lf, f, d.gamma[0][0], d.v[0], d.vstar[0], 0)
    return z.value_at_one()


def nilpotent_orbit_integral_gl(lf: LocalField, f: StepFunction, d) -> Cyc:
    """Orbit integral of a gamma-nilpotent triple, by evaluating the
    |t|^{+-s}-regularized torus integral at s = 0.

    Rank 1: exactly one of v, v* is nonzero; the group is its own torus.
    Rank 2: gamma diagonal with distinct rational eigenvalues, v = (v1, 0)
    and v* = (0, v2*); the Iwasawa decomposition reduces the integral to a
    compact chi-weighted average, a unipotent (additive) integration and a
    two-factor torus zeta integral.
    """
    if d.n == 1:
        v, vs = d.v[0], d.vstar[0]
        if bool(v) == bool(vs):
            raise ValueError("exactly one of v, v* must vanish")
        sigma = 1 if v else -1
        z = _rank1_zeta(lf, f, d.gamma[0][0], v, vs, sigma)
        return z.value_at_one()
    if d.n != 2:
        raise NotImplementedError("nilpotent orbit integrals implemented "
                                  "at rank <= 2")
    g = d.gamma
    if g[0][1] or g[1][0] or g[0][0] == g[1][1]:
        raise ValueError("gamma must be diagonal with distinct eigenvalues")
    l1, l2 = g[0][0], g[1][1]
    v1, v2 = d.v
    w1, w2 = d.vstar
    if not (v1 and w2) or v2 or w1:
        raise NotImplementedError("rank-2 engine needs v = (v1, 0) and "
                                  "v* = (0, v2*)")
    fK = chi_average_compact(lf, f)
    h = fK.translate((l1, Fraction(0), Fraction(0), l2,
                      Fraction(0), Fraction(0), Fraction(0), Fraction(0)))
    h = h.restrict_zero([0, 2, 3])  # pin x11, x21, x22; coords (u,v1,v2,w1,w2)
    scales = (l2 - l1, v1, Fraction(1), Fraction(1), w2)
    diag = [[scales[i] if i == j else Fraction(0) for j in range(5)]
            for i in range(5)]
    h = h.affine_pullback(diag)
    h = h.partial_integrate([0])  # the unipotent coordinate
    return _rank2_torus_value(lf, h, l1, l2)


def _rank2_torus_value(lf: LocalField, h: StepFunction, l1, l2) -> Cyc:
    """The s = 0 value of the two-factor torus zeta integral of h on
    (v1, v2, w1, w2) over F[diag(l1, l2)], with v1 weighted by |t|^s and
    w2 by |t|^{-s}; the other two coordinates are pinned to 0."""
    # EtaleAlgebra keeps its factors in the given order, so (v1, v2, w1, w2)
    # already is the algebra's (slot1, slot1, slot2, slot2)
    alg = EtaleAlgebra(lf, [LineFactor(lf, l1), LineFactor(lf, l2)])
    modes = [FactorMode(slot2=False, sigma=1),
             FactorMode(slot1=False, sigma=-1)]
    return mult_zeta(alg, h, modes).value_at_one()


# ---------------------------------------------------------------------------
# rank-one matching-function construction


def nonnorm_scalar(lf: LocalField) -> Fraction:
    """The first square-class representative outside the norm group."""
    return next(c for c in lf.square_class_reps() if lf.chi(c) == -1)


def _slot_bounds(f: StepFunction, i: int):
    """(min valuation on the support, max box level) of coordinate i."""
    lo, hi = INF, 0
    for t in f.terms:
        v = valuation(t.center[i], f.space.lf.p)
        lo = min(lo, min(v, t.levels[i]))
        hi = max(hi, t.levels[i])
    return lo, hi


def _shell_reps(blk: QuadBlock, k: int, r: int):
    """Centers of level-(k + e r) boxes covering the elements of exact
    valuation k in the block, in coordinates over the basis (1, sqrt(d0)):
    coordinate j runs over p^s_j * range(p^r) with s = blk.shape(k), less
    the points that lie in pi^(k+1) O (every coordinate in p^t_j Z_p,
    t = blk.shape(k + 1))."""
    p = blk.lf.p
    axes = [[(Fraction(p) ** s * c, c % p ** (t - s) != 0)
             for c in range(p**r)]
            for s, t in zip(blk.shape(k), blk.shape(k + 1))]
    return [tuple(x for x, _ in pt) for pt in itertools.product(*axes)
            if any(off for _, off in pt)]


def construct_jr_transfer_n1(lf: LocalField, f: StepFunction,
                             certify_samples: int = 4, rng=None):
    """The explicit rank-one matching pair: one function per Hermitian
    class on the scalar-by-vector space, assembled box by box from the
    weighted orbit integrals of f at the matched invariants, with the
    deep ball around the vector origin filled by the constant term of
    the germ expansion.  Optionally certified by refined-point sampling."""
    p, d0 = lf.p, lf.d0
    blk = QuadBlock(lf, d0, not lf.unramified)
    e = blk.e
    target = Space(lf, [LineBlock(lf), blk])
    hs = [Fraction(1), nonnorm_scalar(lf)]

    # scalar-coordinate boxes: the common level refinement of the
    # term supports
    Lx = max([t.levels[0] for t in f.terms] + [0])
    centers = set()
    for t in f.terms:
        c, l = t.center[0], t.levels[0]
        for j in range(p ** max(0, Lx - l)):
            centers.add(frac_mod_power(c + Fraction(p) ** l * j, p, Lx))
    centers = sorted(centers)

    # support bounds of the two vector slots
    a2, _ = _slot_bounds(f, 1)
    a3, l3 = _slot_bounds(f, 2)
    b_lo = 0 if (a2 is INF or a3 is INF) else a2 + a3
    r = max(1, l3 - (0 if a3 is INF else min(a3, 0)) + 1)
    # shell values are constant on b(1 + p^j Z_p): a slot-2 box c + p^l
    # holds y iff it holds y(1 + p^j Z_p), as val(y) >= min(val c, l); the
    # level-(k + e j) box around w has its norms in N(w)(1 + p^j Z_p)
    j = max([1] + [t.levels[2] - min(valuation(t.center[2], p), t.levels[2])
                   for t in f.terms])

    out = []
    for h in hs:
        vh = valuation(h, p)
        terms = []
        for dc in centers:
            fd0 = rank1_slice(f, dc)
            alg = EtaleAlgebra(lf, [LineFactor(lf, dc)])
            deep = c_empty_closed_form(alg, fd0, (lf.chi(h),))
            radius = support_radius(alg, fd0)
            k_lo = (e * (b_lo - vh)) // 2
            k_min_hi = -(-(e * (radius - vh)) // 2) + 1
            k = k_lo
            consecutive_deep = 0
            shell_value = {}  # b mod p^(val b + j), the class of b -> value
            while consecutive_deep < e or k < k_min_hi:
                all_deep = True
                for (wa, wb) in _shell_reps(blk, k, j):
                    b = h * (wa * wa - d0 * wb * wb)
                    key = frac_mod_power(b, p, valuation(b, p) + j)
                    if key not in shell_value:
                        # the GL-side orbit integral at (dc, b) on the
                        # slice already taken for this center: t^{-1} b
                        # feeds the second slot through mult_zeta's eps
                        shell_value[key] = mult_zeta(
                            alg, fd0, [FactorMode(eps=b)]).value_at_one()
                    val = shell_value[key]
                    if val != deep:
                        all_deep = False
                    if val:
                        terms.append(Term(val, (dc, wa, wb),
                                          (Lx, k + e * j)))
                consecutive_deep = consecutive_deep + 1 if all_deep else 0
                k += 1
                if k > k_min_hi + 4 * e + 8:
                    raise ArithmeticError("shell values failed to "
                                          "stabilize at the deep constant")
            if deep:
                terms.append(Term(deep, (dc, Fraction(0), Fraction(0)),
                                  (Lx, k)))
        out.append(StepFunction(target, terms))

    if certify_samples and rng is not None:
        for h, fi in zip(hs, out):
            lo_k = min(0, (e * (b_lo - valuation(h, p))) // 2)
            for _ in range(certify_samples):
                dc = rng.choice(centers) + Fraction(p) ** Lx * \
                    rng.randint(0, p - 1)
                k = rng.randint(lo_k, 6)
                reps = _shell_reps(blk, k, r + 1)
                wa, wb = reps[rng.randrange(len(reps))]
                b = h * (wa * wa - d0 * wb * wb)
                if b == 0:
                    continue
                d = GLTriple([[dc]], [1], [b])
                if fi.eval((dc, wa, wb)) != gl_orbit_integral(lf, f, d):
                    raise ArithmeticError("matching function failed "
                                          "local-constancy certification")
    return out[0], out[1]



# ---------------------------------------------------------------------------
# compact chi-weighted averaging and parabolic descent (rank 2)


def _k_quotient_level(f: StepFunction) -> int:
    """A congruence level at which every term's box is stable under the
    compact group action (box level plus center denominator depth)."""
    bound = 1
    for t in f.terms:
        depth = max(0, -min((valuation(c, f.space.lf.p) for c in t.center),
                            default=0))
        bound = max(bound, max(t.levels) + depth)
    return bound


def _k_reps(p: int, m: int):
    """Representatives of GL_2(Z_p) modulo the level-m principal congruence
    subgroup: matrices mod p^m with unit determinant."""
    q = p**m
    for a in range(q):
        for b in range(q):
            for c in range(q):
                for e in range(q):
                    if (a * e - b * c) % p:
                        yield ((Fraction(a), Fraction(b)),
                               (Fraction(c), Fraction(e)))


def _inverse_gl2(k):
    """The exact inverse of the 2 x 2 matrix k."""
    (a, b), (c, e) = k
    det = a * e - b * c
    return ((e / det, -b / det), (-c / det, a / det))


def _action_matrix_gl2(k):
    """The 8 x 8 matrix of xi -> (k X k^{-1}, k v, v* k^{-1}) in the
    coordinates (x11, x12, x21, x22, v1, v2, w1, w2)."""
    ki = _inverse_gl2(k)
    n = 8
    R = [[Fraction(0)] * n for _ in range(n)]
    for r in range(2):
        for s in range(2):
            for i in range(2):
                for j in range(2):
                    R[2 * r + s][2 * i + j] += k[r][i] * ki[j][s]
    for r in range(2):
        for i in range(2):
            R[4 + r][4 + i] = k[r][i]
            R[6 + r][6 + i] = ki[i][r]
    return R


@functools.cache
def _k_group(p: int, m: int):
    """The elements of GL_2(Z/p^m) (the _k_reps representatives), built
    once per (p, m): a tuple of (det k, R(k), R(k^{-1})) with R the
    _action_matrix_gl2 action, as row tuples.  The action is a
    representation, so R(k^{-1}) is the exact inverse of R(k)."""
    return tuple((k[0][0] * k[1][1] - k[0][1] * k[1][0],
                  tuple(map(tuple, _action_matrix_gl2(k))),
                  tuple(map(tuple, _action_matrix_gl2(_inverse_gl2(k)))))
                 for k in _k_reps(p, m))


def chi_average_compact(lf: LocalField, f: StepFunction) -> StepFunction:
    """The chi(det k)-weighted average of f over the maximal compact
    subgroup acting on gl_2 x V x V*.

    The average runs over the congruence quotient GL_2(Z/p^m) with
    m = _k_quotient_level(f), whose elements and action matrices (with
    their exact inverses) _k_group builds once per (p, m): one pullback
    per element, merged and scaled by 1/|K|.  A covariance spot check at
    12 points and 2 group elements certifies the level; the average is
    evaluated once at each point and once at each of its 24 images."""
    if f.space.dim != 8:
        raise ValueError("expected a function on gl_2 x V x V*")
    group = _k_group(lf.p, _k_quotient_level(f))
    p = lf.p
    terms = []
    for det, R, R_inv in group:
        w = Cyc.rational(Fraction(lf.chi(det)), p)
        terms.extend(f.affine_pullback(R, inverse=R_inv).scale(w).terms)
    fK = StepFunction(f.space, terms).merged().scale(
        Cyc.rational(Fraction(1, len(group)), p))
    pts = [tuple(Fraction((7 * i + 3 * j + i * j) % 5 - 2)
                 for j in range(8)) for i in range(8)]
    pts += [tuple(Fraction((7 * i + 3 * j + i * j) % (p**2), p)
                  for j in range(8)) for i in range(3)]
    pts += [tuple(Fraction(0) for _ in range(8))]
    at = [fK.eval(x) for x in pts]
    for k in (((Fraction(1), Fraction(1)), (Fraction(1), Fraction(2))),
              ((Fraction(2), Fraction(1)), (Fraction(p), Fraction(1)))):
        det = k[0][0] * k[1][1] - k[0][1] * k[1][0]
        rows = [[(j, c) for j, c in enumerate(row) if c]
                for row in _action_matrix_gl2(k)]
        w = Cyc.rational(Fraction(lf.chi(det)), p)
        for x, fx in zip(pts, at):
            y = tuple(sum((c * x[j] for j, c in row), Fraction(0))
                      for row in rows)
            if fK.eval(y) != fx * w:
                raise ArithmeticError("compact averaging level too coarse")
    return fK


def parabolic_descent(lf: LocalField, f: StepFunction) -> StepFunction:
    """The descent of f along the (1,1) block decomposition: chi-weighted
    compact average (chi_average_compact), lower-left block pinned to 0,
    upper-right block integrated out.  Output coordinates:
    (x11, x22, v1, v2, w1, w2)."""
    fK = chi_average_compact(lf, f)
    h = fK.restrict_zero([2])
    return h.partial_integrate([1])


# ---------------------------------------------------------------------------
# unitary orbit integrals at rank 1


# the finest congruence level unitary_orbit_integral averages at
MAX_U1_LEVEL = 16


def unitary_orbit_integral(lf: LocalField, f: StepFunction, delta, w) -> Cyc:
    """int over U(1) of f(delta, g w) dg for f on F x E, with total mass 1;
    computed by congruence-coset averaging at a stabilized level.  E is
    the squarefree model F(sqrt(d0)), in which w and the cosets live."""
    if not isinstance(w, Q2):
        w = Q2(lf.d0, Fraction(w), Fraction(0))
    prev = None
    k = 1
    while k <= MAX_U1_LEVEL:
        acc = Cyc.zero(lf.p)
        reps = u1_cosets(lf, k)
        for z in reps:
            zw = z * w
            acc = acc + f.eval((delta, zw.a, zw.b))
        val = acc * Cyc.rational(Fraction(1, len(reps)), lf.p)
        if prev is not None and val == prev:
            return val
        prev = val
        k += 1
    raise ArithmeticError("unitary average did not stabilize")


# ---------------------------------------------------------------------------
# Weil indices


def weil_index(lf: LocalField, a) -> Cyc:
    """The normalized Weil index of the quadratic form a x^2: the phase of
    the stabilized-lattice integral int psi(a x^2) dx, an eighth root of
    unity.

    The index only depends on the square class of a; it is computed once
    per (lf, square-class representative) by _weil_index_of_class and
    cached there."""
    a = Fraction(a)
    if a == 0:
        raise ValueError("nondegenerate form required")
    return _weil_index_of_class(lf, lf.square_class_rep(a))


@functools.cache
def _weil_index_of_class(lf: LocalField, a: Fraction) -> Cyc:
    """weil_index for a square-class representative a (valuation 0 or
    1, so the lattice sum is stable from level 1), with its stabilization
    and unitarity checks; cached on (lf, a)."""
    if a not in lf.square_class_reps():
        raise ValueError("not a square-class representative")
    p = lf.p
    i_m = _phase_sum(lf, a, 1)
    if i_m != _phase_sum(lf, a, 2):
        raise ArithmeticError("lattice sum did not stabilize")
    rho_sq = (i_m * i_m.conj()).as_rational()
    if rho_sq is None or rho_sq <= 0:
        raise ArithmeticError("phase-sum norm is not a positive rational")
    w = valuation(rho_sq, p)
    root = ratsqrt(rho_sq / Fraction(p) ** w)
    if w % 2 == 0:
        rho_inv = Cyc.rational(1 / (root * Fraction(p) ** (w // 2)), p)
    else:
        rho_inv = sqrt_p(p) * Cyc.rational(
            1 / (root * Fraction(p) ** ((w + 1) // 2)), p)
    gamma = i_m * rho_inv
    if gamma * gamma.conj() != Cyc.one(p):
        raise ArithmeticError("normalized index is not unitary")
    return gamma


def _phase_sum(lf: LocalField, a: Fraction, m: int) -> Cyc:
    """int over p^{-m} Z_p of psi(a x^2) dx as an exact finite sum."""
    p = lf.p
    v = valuation(a, p)
    r = max(0, m - v, -(-(-v) // 2))
    total = Cyc.zero(p)
    q = Fraction(1, p**m)
    for j in range(p ** (m + r)):
        x = Fraction(j) * q
        total = total + lf.psi(a * x * x)
    return total * Cyc.rational(Fraction(1, p**r), p)


def weil_index_form(lf: LocalField, coeffs) -> Cyc:
    """Weil index of the diagonal form sum a_i x_i^2 (product of the
    one-variable indices)."""
    out = Cyc.one(lf.p)
    for a in coeffs:
        out = out * weil_index(lf, a)
    return out
