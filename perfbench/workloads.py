"""The four workloads: seeded instance generation and exact identity checks.

An instance is a JSON record (its witness) holding everything needed to
rebuild its inputs: p, tau, the parameters and, where there is one, the
input step function.  Each workload is a list of slots; a slot fixes the
shape of an instance (prime, extension, factor mix, level pattern) and has
a small pool of seeded variants.  A run seed picks one variant per slot and
an order, so every seed runs the same mix of shapes on different inputs
while every possible input keeps a stored digest of its exact results.

A check returns the exact values it compared (for the digest) and a list
of problems; the instance passes when the list is empty.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

WORKLOADS = ("germ", "transfer", "descent", "signs")
VARIANTS = 4

# Deep-grid base valuation for the germ check.  It is fixed, not the
# germ's own radius, so that the compared values do not move when an
# engine derives a different (valid) radius.  The germ radii of these
# inputs reach 6; a radius above the base fails the instance.
GERM_DEPTH = 12

# 6-coordinate points at which both descended functions are evaluated for
# the digest; they mix integral, non-integral and zero coordinates.
DESCENT_POINTS = (
    (0, 0, 0, 0, 0, 0),
    (1, 1, 1, 1, 1, 1),
    (1, 0, -1, 1, 0, 2),
    (Fraction(1, 3), 0, 1, -1, Fraction(2, 3), 0),
    (0, Fraction(1, 3), 0, 0, 1, 1),
    (2, -1, Fraction(1, 3), 1, 0, -1),
    (Fraction(1, 9), Fraction(-1, 3), 0, 0, 0, 0),
    (-1, 0, 0, Fraction(1, 3), 1, 0),
)

# (p, n): the primes of the Weil-index relations and the Hermitian
# dimension of the index ratio checked at each
WEIL_PRIMES = ((3, 2), (5, 1), (7, 1))

# The mixed-level descent anchor: one fixed input, the same for every seed.
# Random mixed-level inputs cost 0.04 s to 18 s each in the equality alone,
# which would make a seed's run length depend on one draw.
DESCENT_ANCHOR = [
    (1, (1, 1, -1, 0, 0, 0, 0, -1), 1),
    (-2, (0, 0, -1, 0, 0, 0, 1, 0), 0),
]


def frac_pair(x) -> list:
    """A rational as a JSON pair [numerator, denominator]."""
    x = Fraction(x)
    return [x.numerator, x.denominator]


def pair_frac(v) -> Fraction:
    """The rational of a JSON pair."""
    return Fraction(v[0], v[1])


def _gram8(E):
    return E.MonomialGram([0, 2, 1, 3, 6, 7, 4, 5], [Fraction(1)] * 8)


def _gram6(E):
    return E.MonomialGram([0, 1, 4, 5, 2, 3], [Fraction(1)] * 6)


def _nonnorm(lf) -> Fraction:
    return next(c for c in lf.square_class_reps() if lf.chi(c) == -1)


def random_function(E, space, rng, levels, span=1):
    """A sum of box indicators, one per entry of levels, with integer
    centers in [-span, span] and nonzero coefficients."""
    p = space.lf.p
    terms = []
    for lv in levels:
        coeff = E.Cyc.rational(
            Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2)), p)
        center = tuple(Fraction(rng.randint(-span, span))
                       for _ in range(space.dim))
        terms.append(E.Term(coeff, center, lv))
    return E.StepFunction(space, terms)


# ---------------------------------------------------------------------------
# slots


def slots(workload: str) -> list[dict]:
    """The instance shapes of a workload, in a fixed order."""
    out = []
    if workload == "germ":
        # the two costliest mixes get a third copy, so that the eleven
        # slowest instances all come from them
        for p in (3, 5):
            for mix in range(10):
                copies = ((0, 1, 1), (1, 0, 0), (1, 1, 0))[:3 if mix >= 8
                                                             else 2]
                for copy, levels in enumerate(copies):
                    out.append({"name": f"p{p}-mix{mix}-{copy}",
                                "kind": "germ", "p": p, "mix": mix,
                                "levels": levels})
    elif workload == "transfer":
        for copy, tau_kind in enumerate(("unramified", "ramified",
                                         "unramified")):
            out.append({"name": f"nilpotent-{tau_kind}-{copy}",
                        "kind": "nilpotent", "p": 3, "tau_kind": tau_kind})
        # (val gamma, val b) per slot; units are drawn.  Split points (even
        # val b) reach the unitary side, non-split ones stop at the
        # general-linear side.
        for p, label, vals in (
                (3, "split", ((-1, 0), (1, 2))),
                (3, "nonsplit", ((0, 1),)),
                (5, "split", ((-1, -2), (0, 0), (1, 2), (2, 0)))):
            for copy, (jg, jb) in enumerate(vals):
                out.append({"name": f"unit-p{p}-{label}-{copy}",
                            "kind": "unit_point", "p": p, "jg": jg,
                            "jb": jb})
    elif workload == "descent":
        for copy, level in enumerate((0, 0, 0, 1)):
            out.append({"name": f"same-level{level}-{copy}", "kind": "descent",
                        "level": level})
        out.append({"name": "mixed-anchor", "kind": "descent", "level": None,
                    "variants": 1})
    elif workload == "signs":
        # each torsor mix runs under one extension class, alternating; the
        # six light mixes share one instance
        parts = [(mix, ("ramified", "unramified")[mix % 2])
                 for mix in range(9)]
        # the two costliest mixes are fixed inputs, the same for every
        # seed, as their cost moves by half with the drawn vectors
        for name, group, variants in (
                ("light", parts[:6], VARIANTS), ("mix6", parts[6:7], 1),
                ("mix7", parts[7:8], VARIANTS), ("mix8", parts[8:], 1)):
            out.append({"name": f"torsor-{name}", "kind": "torsor",
                        "parts": group, "variants": variants})
        # Weil indices depend on the square class only, so each slot fixes
        # the classes of a and b and the variants draw representatives; two
        # slots of equal cost per extension class keep the median among them
        for tau_kind, classes in (("unramified", (1, 2)),
                                  ("ramified", (3, 0))):
            for copy in range(2):
                out.append({"name": f"weil-{tau_kind}-{copy}", "kind": "weil",
                            "tau_kind": tau_kind, "classes": classes})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def _tau(E, p: int, tau_kind: str) -> Fraction:
    return Fraction(E.smallest_nonresidue(p) if tau_kind == "unramified"
                    else p)


def run_keys(workload: str, seed: int) -> list[str]:
    """The pool keys one run executes, in order: one variant per slot."""
    rng = random.Random(f"{workload}:{seed}")
    keys = [f"{s['name']}/{rng.randrange(s.get('variants', VARIANTS))}"
            for s in slots(workload)]
    rng.shuffle(keys)
    return keys


def pool_keys(workload: str) -> list[str]:
    return [f"{s['name']}/{v}" for s in slots(workload)
            for v in range(s.get("variants", VARIANTS))]


# ---------------------------------------------------------------------------
# record generation


def make_record(E, workload: str, key: str) -> dict:
    """The witness record of one pool instance, generated from its key."""
    name = key.rsplit("/", 1)[0]
    slot = next(s for s in slots(workload) if s["name"] == name)
    rng = random.Random(f"{workload}/{key}")
    kind = slot["kind"]
    rec = {"workload": workload, "key": key, "kind": kind}
    if kind == "germ":
        p = slot["p"]
        lf = E.LocalField(p, Fraction(E.smallest_nonresidue(p)))
        alg = E.EtaleAlgebra(lf, E.germ_mixes(lf)[slot["mix"]])
        sp = E.algebra_space(alg)
        nb = len(sp.blocks)
        f = random_function(E, sp, rng,
                            [(lv,) * nb for lv in slot["levels"]])
        rec.update(p=p, tau=frac_pair(lf.tau), mix=slot["mix"], f=f.to_json())
    elif kind == "nilpotent":
        p = slot["p"]
        lf = E.LocalField(p, _tau(E, p, slot["tau_kind"]))
        # the construction's cost follows the box levels, so they are
        # fixed; centers, coefficients, gamma and v are drawn
        f = random_function(E, E.Space.lines(lf, 3), rng,
                            [(1, 1, 1), (1, 1, 1), (0, 0, 0)], span=2)
        gamma = Fraction(rng.randint(-2, 2))
        v = Fraction(rng.choice([2, E.smallest_nonresidue(p), p]))
        rec.update(p=p, tau=frac_pair(lf.tau), gamma=frac_pair(gamma),
                   v=frac_pair(v), f=f.to_json())
    elif kind == "unit_point":
        p = slot["p"]
        u = E.smallest_nonresidue(p)
        units = (1, -1, u, -u)
        gamma = Fraction(rng.choice(units)) * Fraction(p) ** slot["jg"]
        b = Fraction(rng.choice(units)) * Fraction(p) ** slot["jb"]
        rec.update(p=p, tau=frac_pair(u), gamma=frac_pair(gamma),
                   b=frac_pair(b))
    elif kind == "descent":
        lf = E.LocalField(3, Fraction(E.smallest_nonresidue(3)))
        sp = E.Space.lines(lf, 8)
        if slot["level"] is None:
            f = E.StepFunction(sp, [
                E.Term(E.Cyc.rational(c, 3), [Fraction(x) for x in center],
                       (lv,) * 8) for c, center, lv in DESCENT_ANCHOR])
        else:
            f = random_function(E, sp, rng, [(slot["level"],) * 8] * 2)
        rec.update(p=3, tau=frac_pair(lf.tau), f=f.to_json())
    elif kind == "torsor":
        parts = []
        for mix, tau_kind in slot["parts"]:
            lf = E.LocalField(3, _tau(E, 3, tau_kind))
            alg = E.EtaleAlgebra(lf, _torsor_mix(E, lf, mix))
            parts.append({"p": 3, "tau": frac_pair(lf.tau), "mix": mix,
                          "triple": _companion_triple(E, alg, rng).to_json()})
        rec["parts"] = parts
    elif kind == "weil":
        parts = []
        for p, n in WEIL_PRIMES:
            lf = E.LocalField(p, _tau(E, p, slot["tau_kind"]))
            units = [c for c in range(1, 2 * p) if c % p]
            a, b = (lf.square_class_reps()[c]
                    * Fraction(rng.choice(units), rng.choice(units)) ** 2
                    * Fraction(p) ** (2 * rng.randint(-1, 1))
                    for c in slot["classes"])
            parts.append({"p": p, "tau": frac_pair(lf.tau),
                          "a": frac_pair(a), "b": frac_pair(b),
                          "n": n})
        rec["parts"] = parts
    return rec


def _torsor_mix(E, lf, mix: int):
    """The nine factor mixes of the class-group torsor check."""
    p = lf.p
    u = E.smallest_nonresidue(p)
    t0 = E.squarefree_kernel(lf.tau)
    others = [d for d in (u, p, u * p)
              if E.squarefree_kernel(Fraction(d)) != t0]
    L = lambda r: E.LineFactor(lf, Fraction(r))
    Q = lambda d: E.QuadFactor(lf, d)
    return [[L(0)], [Q(t0)], [Q(others[0])], [L(0), L(1)], [L(0), Q(t0)],
            [Q(t0), Q(others[0])], [L(0), L(1), L(-1)], [L(0), L(1), Q(t0)],
            [L(0), Q(t0), Q(others[0])]][mix]


def _companion_triple(E, alg, rng):
    """A regular semisimple triple whose matrix is the block companion
    matrix of the factor polynomials, with random small vectors."""
    n = alg.dim()
    g = [[Fraction(0)] * n for _ in range(n)]
    off = 0
    for fac in alg.factors:
        cs = fac.poly()  # descending, monic
        d = fac.degree
        for i in range(d - 1):
            g[off + i + 1][off + i] = Fraction(1)
        for i in range(d):
            g[off + i][off + d - 1] = -Fraction(cs[d - i])
        off += d
    for _ in range(60):
        d = E.GLTriple(g, [Fraction(rng.randint(1, 2)) for _ in range(n)],
                       [Fraction(rng.randint(1, 2)) for _ in range(n)])
        if d.is_rss():
            return d
    raise RuntimeError("no regular semisimple companion triple found")


# ---------------------------------------------------------------------------
# building inputs from records


class Instance:
    """A record together with the objects built from it: one argument set,
    or one per part for records made of parts (the torsor over several
    mixes, the Weil relations at several primes)."""

    __slots__ = ("record", "parts")

    def __init__(self, record: dict, parts: list):
        self.record = record
        self.parts = parts

    def check(self, E, ledger):
        values, problems = [], []
        for args in self.parts:
            v, pr = CHECKS[self.record["kind"]](E, ledger, **args)
            values += v
            problems += pr
        return values, problems


def build(E, rec: dict) -> Instance:
    """Rebuild the inputs of a record exactly."""
    return Instance(rec, [_build_part(E, rec["kind"], part, rec.get("key"))
                          for part in rec.get("parts", [rec])])


def _build_part(E, kind, rec, key):
    lf = E.LocalField(rec["p"], pair_frac(rec["tau"]))
    args = {"lf": lf}
    if "f" in rec:
        args["f"] = E.StepFunction.from_json(rec["f"], lf)
    if kind == "germ":
        args["alg"] = E.EtaleAlgebra(lf, E.germ_mixes(lf)[rec["mix"]])
    elif kind == "nilpotent":
        args.update(gamma=pair_frac(rec["gamma"]), v=pair_frac(rec["v"]),
                    certify_seed=key)
    elif kind == "unit_point":
        p = lf.p
        d0 = Fraction(E.squarefree_kernel(lf.tau))
        one = E.Cyc.one(p)
        args.update(
            gamma=pair_frac(rec["gamma"]), b=pair_frac(rec["b"]), d0=d0,
            unit_f=E.StepFunction(E.Space.lines(lf, 3), [
                E.Term(one, (Fraction(0),) * 3, (0, 0, 0))]),
            unit_w=E.StepFunction(
                E.Space(lf, [E.LineBlock(lf), E.QuadBlock(lf, d0, False)]),
                [E.Term(one, (Fraction(0),) * 3, (0, 0))]))
    elif kind == "descent":
        args.update(gram8=_gram8(E), gram6=_gram6(E))
    elif kind == "torsor":
        alg = E.EtaleAlgebra(lf, _torsor_mix(E, lf, rec["mix"]))
        t = rec["triple"]
        args.update(alg=alg, triple=E.GLTriple(
            [[pair_frac(c) for c in row] for row in t["gamma"]],
            [pair_frac(c) for c in t["v"]],
            [pair_frac(c) for c in t["vstar"]]))
    elif kind == "weil":
        args.update(a=pair_frac(rec["a"]), b=pair_frac(rec["b"]), n=rec["n"])
    return args


# ---------------------------------------------------------------------------
# checks


def check_germ(E, ledger, lf, f, alg):
    """Germ expansion: constant term against its closed form for every
    sign pattern, then the deep grid against the expansion's prediction."""
    values, problems = [], []
    germ = E.germ_extract(alg, f)
    S1 = alg.S1()
    patterns = list(itertools.product((1, -1), repeat=len(S1)))
    for signs in patterns:
        a, b = germ.c_empty(signs), E.c_empty_closed_form(alg, f, signs)
        values += [a.to_json(), b.to_json()]
        if a != b:
            problems.append(f"constant term mismatch at signs {signs}")
    if germ.radius > GERM_DEPTH:
        problems.append(f"germ radius {germ.radius} beyond the grid base")
    for gi, depths in enumerate(itertools.product(range(4), repeat=alg.m)):
        sign_of = dict(zip(S1, patterns[gi % len(patterns)]))
        eps = alg.element([
            E.deep_element(fac, GERM_DEPTH + depths[i], sign_of.get(i, 1))
            for i, fac in enumerate(alg.factors)])
        got, want = E.torus_orbit_integral(alg, f, eps), germ.predict(eps)
        values += [got.to_json(), want.to_json()]
        if got != want:
            problems.append(f"grid mismatch at depths {depths}")
    return values, problems


def check_nilpotent(E, ledger, lf, f, gamma, v, certify_seed):
    """Rank-one nilpotent identity, then the full transfer construction
    re-verified through both orbit-integral engines."""
    p = lf.p
    zero = E.Cyc.zero(p)
    values, problems = [], []
    alg = E.EtaleAlgebra(lf, [E.LineFactor(lf, gamma)])
    f0 = f.translate((gamma, Fraction(0), Fraction(0))).restrict_zero([0])
    c_plus = E.c_empty_closed_form(alg, f0, (1,))
    c_minus = E.c_empty_closed_form(alg, f0, (-1,))
    nil = lambda vv, ww: E.nilpotent_orbit_integral_gl(
        lf, f, E.GLTriple([[gamma]], [vv], [ww]))
    n_v, n_w = nil(1, 0), nil(0, 1)
    lhs_v = nil(v, 0)
    values += [c.to_json() for c in (c_plus, c_minus, n_v, n_w, lhs_v)]
    for s, c in ((1, c_plus), (-1, c_minus)):
        if c != n_v + n_w * Fraction(s):
            problems.append(f"constant-term decomposition failed (sign {s})")
    if lhs_v * Fraction(lf.chi(v)) != n_v:
        problems.append("vector-scale independence failed")
    for full in (True, False):
        lhs = n_v if full else n_w
        rhs = c_plus + c_minus * Fraction(1 if full else -1)
        if lhs == zero:
            if rhs != zero:
                problems.append("zero side mismatch")
        elif not ledger.record("nilpotent-identity-n1", rhs * lhs.inverse()):
            problems.append("calibration drift")
    f_split, f_nonsplit = E.construct_jr_transfer_n1(
        lf, f, certify_samples=3, rng=random.Random(certify_seed))
    for fi in (f_split, f_nonsplit):
        for wa, wb in ((0, 0), (1, 0), (0, 1), (1, 1), (p, 1)):
            values.append(fi.eval((gamma, Fraction(wa),
                                   Fraction(wb))).to_json())
    if f_split.eval((gamma, Fraction(0), Fraction(0))) != c_plus:
        problems.append("constructed split deep value mismatch")
    if f_nonsplit.eval((gamma, Fraction(0), Fraction(0))) != c_minus:
        problems.append("constructed non-split deep value mismatch")
    d0 = Fraction(E.squarefree_kernel(lf.tau))
    w = E.Q2(d0, Fraction(1), Fraction(0) if lf.unramified else Fraction(1))
    for h, fi in ((Fraction(1), f_split), (_nonnorm(lf), f_nonsplit)):
        b = h * w.norm()
        want = E.gl_orbit_integral(lf, f, E.GLTriple([[gamma]], [1], [b]))
        got = E.unitary_orbit_integral(lf, fi, gamma, w)
        values += [want.to_json(), got.to_json()]
        if got != want:
            problems.append(f"orbit matching re-verification failed (h={h})")
    return values, problems


def check_unit_point(E, ledger, lf, gamma, b, d0, unit_f, unit_w):
    """Unit-function matching at one (gamma, b): the general-linear orbit
    integral equals the unitary one on the split class, 0 otherwise."""
    p = lf.p
    lhs = E.gl_orbit_integral(lf, unit_f, E.GLTriple([[gamma]], [1], [b]))
    if lf.chi(b) == 1:
        w = E.Q2(d0, Fraction(p) ** (E.valuation(b, p) // 2), Fraction(0))
        rhs = E.unitary_orbit_integral(lf, unit_w, gamma, w)
    else:
        rhs = E.Cyc.zero(p)
    problems = [] if lhs == rhs else ["unit matching failed"]
    return [lhs.to_json(), rhs.to_json()], problems


def check_descent(E, ledger, lf, f, gram8, gram6):
    """Descent commutes with the partial Fourier transforms."""
    a = E.parabolic_descent(lf, f.fourier(gram8))
    b = E.parabolic_descent(lf, f).fourier(gram6)
    values = [g.eval(x).to_json() for g in (a, b) for x in DESCENT_POINTS]
    return values, ([] if a == b else ["descent-Fourier mismatch"])


def check_torsor(E, ledger, lf, alg, triple):
    """The norm-class torsor: inv is the group law on the twisted family,
    subset pairings are characters and perfect, and the block sign of the
    last factor pulls back to the complementary subset pairing."""
    values, problems = [], []
    fam = E.delta_family(lf, triple, alg)
    classes = list(E.all_classes(alg))
    for x in classes:
        for y in classes:
            d = E.inv(alg, fam[x], fam[y])
            values.append(list(d.bits))
            if d != x + y:
                problems.append(f"inv({x}, {y}) != x + y")
    S1 = alg.S1()
    subsets = [lam for r in range(len(S1) + 1)
               for lam in itertools.combinations(S1, r)]
    chars = set()
    for lam in subsets:
        row = tuple(E.subset_pairing(alg, lam, x) for x in classes)
        values.append(list(row))
        chars.add(row)
        for x in classes:
            for y in classes:
                if E.subset_pairing(alg, lam, x + y) != \
                        row[classes.index(x)] * row[classes.index(y)]:
                    problems.append(f"pairing {lam} not a character")
    if len(chars) != len(subsets):
        problems.append("subset pairing not perfect")
    block2 = [i for i in S1 if i == alg.m - 1]
    lam1 = [i for i in S1 if i != alg.m - 1]
    base = fam[E.H1Class.zero(alg)]
    for x in classes:
        k = E.kappa_sign(alg, block2, E.inv(alg, base, fam[x]))
        values.append(k)
        if k != E.subset_pairing(alg, lam1, x):
            problems.append(f"block sign pullback failed at {x}")
    return values, problems


def check_weil(E, ledger, lf, a, b, n):
    """Weil-index relations: normalization, inverse, product with the
    Hilbert symbol, the non-norm scaling defect and the index ratio."""
    p = lf.p
    gi = lambda x: E.weil_index(lf, x)
    one = E.Cyc.one(p)
    g1, ga, gb, gab, gma = gi(1), gi(a), gi(b), gi(a * b), gi(-a)
    c = _nonnorm(lf)
    scaled = E.weil_index_form(lf, [c, -lf.tau * c])
    plain = E.weil_index_form(lf, [1, -lf.tau])
    ratio = E.index_ratio(lf, n)
    values = [x.to_json() for x in (g1, ga, gb, gab, gma, scaled, plain,
                                    ratio)]
    problems = []
    if g1 != one:
        problems.append("unit index is not 1")
    if gma != ga.inverse():
        problems.append("index of -a is not the inverse")
    if ga * gb != gab * lf.hilbert(a, b):
        problems.append("product relation failed")
    if scaled != plain * Fraction(-1):
        problems.append("non-norm scaling defect is not -1")
    if ratio != E.Cyc.rational(Fraction((-1) ** (n - 1)), p):
        problems.append(f"index ratio at n={n} is not (-1)^(n-1)")
    return values, problems


CHECKS = {
    "germ": check_germ,
    "nilpotent": check_nilpotent,
    "unit_point": check_unit_point,
    "descent": check_descent,
    "torsor": check_torsor,
    "weil": check_weil,
}
