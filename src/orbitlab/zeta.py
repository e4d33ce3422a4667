"""Rational functions in u = q^{-s} and exact multiplicative integrals.

ZetaElement carries the meromorphic continuation of Tate-type shell sums:
a Laurent numerator with cyclotomic coefficients over a denominator kept
as a factored product of terms (1 - z u^k) with rational z.  Evaluation
at u = 1 (that is, s = 0) cancels structural zeros exactly; genuine poles
are reported with their order, never approximated.

mult_zeta integrates a step function on an etale algebra against
per-factor characters and |t|^{±s} twists, with every shell sum in
closed form.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclo import Cyc
from .scalar import INF
from .steps import StepFunction


class ZetaPoleError(ArithmeticError):
    def __init__(self, order):
        super().__init__(f"pole of order {order} at u=1")
        self.order = order


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict[int, Cyc] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            w = out.get(e)
            w = c1 * c2 if w is None else w + c1 * c2
            if w.is_zero():
                out.pop(e, None)
            else:
                out[e] = w
    return out


class ZetaElement:
    """num(u) / prod (1 - z u^k)^mult, num a Laurent polynomial."""

    __slots__ = ("p", "num", "den")

    def __init__(self, p, num: dict | None = None, den: dict | None = None):
        self.p = p
        self.num = {e: c for e, c in (num or {}).items() if not c.is_zero()}
        self.den = {zk: m for zk, m in (den or {}).items() if m > 0}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(p) -> "ZetaElement":
        return ZetaElement(p)

    @staticmethod
    def monomial(coeff: Cyc, e: int, p=None) -> "ZetaElement":
        p = p if p is not None else coeff.p
        return ZetaElement(p, {e: coeff})

    def is_zero_poly(self) -> bool:
        return not self.num

    # -- arithmetic --------------------------------------------------------

    def _den_poly(self, extra: dict) -> dict:
        out = {0: Cyc.one(self.p)}
        for (z, k), m in extra.items():
            fac = {0: Cyc.one(self.p), k: Cyc.rational(-z, self.p)}
            for _ in range(m):
                out = _poly_mul(out, fac)
        return out

    def __add__(self, other: "ZetaElement") -> "ZetaElement":
        den: dict = {}
        for zk in set(self.den) | set(other.den):
            den[zk] = max(self.den.get(zk, 0), other.den.get(zk, 0))
        ex1 = {zk: den[zk] - self.den.get(zk, 0) for zk in den}
        ex2 = {zk: den[zk] - other.den.get(zk, 0) for zk in den}
        n1 = _poly_mul(self.num, self._den_poly(ex1))
        n2 = _poly_mul(other.num, other._den_poly(ex2))
        num = dict(n1)
        for e, c in n2.items():
            w = num.get(e)
            w = c if w is None else w + c
            if w.is_zero():
                num.pop(e, None)
            else:
                num[e] = w
        return ZetaElement(self.p, num, den)

    def __neg__(self):
        return ZetaElement(self.p, {e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other) -> "ZetaElement":
        if isinstance(other, ZetaElement):
            den = dict(self.den)
            for zk, m in other.den.items():
                den[zk] = den.get(zk, 0) + m
            return ZetaElement(self.p, _poly_mul(self.num, other.num), den)
        c = other if isinstance(other, Cyc) else Cyc.rational(other, self.p)
        return ZetaElement(self.p, {e: v * c for e, v in self.num.items()},
                           self.den)

    __rmul__ = __mul__

    # -- evaluation at u = 1 ----------------------------------------------

    def pole_order_at_one(self) -> int:
        r_den = sum(m for (z, k), m in self.den.items() if z == 1)
        if r_den == 0:
            return 0
        coeffs = self._num_coeffs()
        order = 0
        while order < r_den:
            if sum(coeffs, Cyc.zero(self.p)).is_zero():
                coeffs = _divide_by_one_minus_u(coeffs, self.p)
                order += 1
            else:
                break
        return r_den - order

    def _num_coeffs(self) -> list[Cyc]:
        """Numerator as an ascending coefficient list (u-shift is harmless
        at u=1)."""
        if not self.num:
            return [Cyc.zero(self.p)]
        lo = min(self.num)
        hi = max(self.num)
        return [self.num.get(e, Cyc.zero(self.p)) for e in range(lo, hi + 1)]

    def value_at_one(self) -> Cyc:
        r = sum(m for (z, k), m in self.den.items() if z == 1)
        coeffs = self._num_coeffs()
        for _ in range(r):
            if not sum(coeffs, Cyc.zero(self.p)).is_zero():
                raise ZetaPoleError(self.pole_order_at_one())
            coeffs = _divide_by_one_minus_u(coeffs, self.p)
        val = sum(coeffs, Cyc.zero(self.p))
        den_val = Cyc.one(self.p)
        for (z, k), m in self.den.items():
            if z == 1:
                # (1 - u^k) = (1 - u)(1 + u + ... + u^{k-1}); cofactor at 1 is k
                den_val = den_val * Cyc.rational(Fraction(k) ** m, self.p)
            else:
                den_val = den_val * Cyc.rational((1 - z) ** m, self.p)
        return val * den_val.inverse()

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ZetaElement):
            return NotImplemented
        n1 = _poly_mul(self.num, other._den_poly(other.den))
        n2 = _poly_mul(other.num, self._den_poly(self.den))
        diff = dict(n1)
        for e, c in n2.items():
            w = diff.get(e)
            w = -c if w is None else w - c
            if w.is_zero():
                diff.pop(e, None)
            else:
                diff[e] = w
        return not diff

    def __repr__(self):
        return f"ZetaElement(num={self.num}, den={self.den})"


def _divide_by_one_minus_u(coeffs: list[Cyc], p) -> list[Cyc]:
    """Exact division of a polynomial (ascending coeffs, vanishing at 1)
    by (1 - u)."""
    # p(u) = (1-u) h(u): h_j = sum_{i <= j} a_i, for j = 0..n-2
    out = []
    acc = Cyc.zero(p)
    for c in coeffs[:-1]:
        acc = acc + c
        out.append(acc)
    return out or [Cyc.zero(p)]


def geometric_shells(z: Fraction, k: int, a0: int, p) -> ZetaElement:
    """Sum over a >= a0 of z^a u^{k a} as a ZetaElement (k nonzero)."""
    z = Fraction(z)
    if k > 0:
        num = {k * a0: Cyc.rational(z**a0, p)}
        return ZetaElement(p, num, {(z, k): 1})
    if k < 0:
        # 1/(1 - z u^k) = -z^{-1} u^{-k} / (1 - z^{-1} u^{-k})
        num = {k * (a0 - 1): Cyc.rational(-(z ** (a0 - 1)), p)}
        return ZetaElement(p, num, {(1 / z, -k): 1})
    raise ValueError("divergent geometric shell sum (k = 0)")


# ---------------------------------------------------------------------------
# per-factor multiplicative cells and their zeta integrals


class Cell:
    """A multiplicative integration domain in one factor: an optional
    standard coset c(1 + pi^j O) recorded additively as (center, level),
    intersected with a valuation window."""

    __slots__ = ("coset", "vmin", "vmax", "empty")

    def __init__(self):
        self.coset = None  # (element, level) with val(element) < level
        self.vmin = -INF
        self.vmax = INF
        self.empty = False

    def meet_coset(self, fac, c, level: int):
        """Intersect with the additive coset c + pi^level O."""
        if self.empty:
            return
        v = fac.val(c)
        if v >= level:
            # the coset is the lattice pi^level O: a valuation constraint
            self.vmin = max(self.vmin, level)
            return
        if self.coset is None:
            self.coset = (c, level)
        else:
            c0, l0 = self.coset
            lo = min(l0, level)
            if fac.val(c0 - c) < lo:
                self.empty = True
                return
            if level > l0:
                self.coset = (c, level)
        cv = fac.val(self.coset[0])
        if not (self.vmin <= cv <= self.vmax):
            self.empty = True

    def meet_inverse_coset(self, fac, c, level: int):
        """Intersect with {t : t^{-1} in c + pi^level O}."""
        if self.empty:
            return
        v = fac.val(c)
        if v >= level:
            # t^{-1} in pi^level O means val(t) <= -level
            self.vmax = min(self.vmax, -level)
            if self.vmin > self.vmax:
                self.empty = True
            return
        # unit-type coset: inverse is c^{-1}(1 + pi^{level-v} O)
        inv = c.inverse() if hasattr(c, "inverse") else Fraction(1) / c
        self.meet_coset(fac, inv, level - 2 * v)


def factor_zeta(fac, cell: Cell, sigma: int, p) -> ZetaElement:
    """Closed form of the integral over the cell of chi_i(t) |t|_i^{sigma s}
    with multiplicative measure vol(O_i^x) = 1.  Nothing is cached: a
    finite valuation window is summed as rationals per exponent of u and
    becomes one Cyc per exponent."""
    if cell.empty:
        return ZetaElement.zero(p)
    q_i, f_i = fac.q, fac.f
    k = f_i * sigma
    if cell.coset is not None:
        c, level = cell.coset
        a = fac.val(c)
        if not (cell.vmin <= a <= cell.vmax):
            return ZetaElement.zero(p)
        j = level - a
        vol = Fraction(1, (q_i - 1) * q_i ** (j - 1))
        coeff = Fraction(fac.chi(c))
        return ZetaElement.monomial(Cyc.rational(coeff * vol, p), k * a, p)
    # full shells over the valuation window
    if fac.chi_ramified_on_units():
        return ZetaElement.zero(p)
    z = Fraction(fac.chi(fac.uniformizer()))
    if z not in (1, -1):
        raise ArithmeticError("chi of a uniformizer is not a sign")
    lo, hi = cell.vmin, cell.vmax
    if lo == -INF and hi == INF:
        raise ValueError("divergent: unconstrained multiplicative integral")
    if lo != -INF and hi != INF:
        # z = +-1, so z^a is the sign z_pow[a % 2] and each exponent k a
        # gets a count or an alternating count; with sigma = 0 the whole
        # window lands on exponent 0
        z_pow = (1, int(z))
        sums = {}
        for a in range(int(lo), int(hi) + 1):
            sums[k * a] = sums.get(k * a, 0) + z_pow[a % 2]
        return ZetaElement(p, {e: Cyc.rational(c, p) for e, c in sums.items()})
    if k == 0:
        raise ValueError("divergent shell sum with no |t|^s damping")
    if hi == INF:
        return geometric_shells(z, k, int(lo), p)
    # lo = -inf: sum over a <= hi: substitute a -> -a
    return geometric_shells(1 / z, -k, -int(hi), p)


# ---------------------------------------------------------------------------
# the multiplicative zeta integral over an etale algebra


class FactorMode:
    """How one factor of the algebra enters the integral.

    slot1/slot2: whether t (resp. eps * t^{-1}) feeds that copy of the
    factor in f's argument; a disabled slot is pinned to 0.  A factor with
    both slots pinned is not integrated: it contributes the constant 0 or
    1.  Every integrated factor carries chi(t_i) |t_i|^{sigma s}.
    """

    def __init__(self, slot1=True, slot2=True, eps=None, sigma=0):
        self.slot1 = slot1
        self.slot2 = slot2
        self.eps = eps
        self.sigma = sigma


def mult_zeta(alg, f: StepFunction, modes) -> ZetaElement:
    """Integral over the product of the integrated factors' unit groups of

        f(t_slot1-args, (eps t^{-1})_slot2-args)
        * prod chi_i(t_i) * prod |t_i|^{sigma_i s} dt

    as an exact ZetaElement.  f lives on A x A (one block per factor,
    twice); pinned slots evaluate f's argument at 0."""
    m = alg.m
    if len(f.space.blocks) != 2 * m:
        raise ValueError("function must live on A x A")
    p = alg.lf.p
    out = ZetaElement.zero(p)
    for t in f.terms:
        if any(v for v in t.phase):
            raise ValueError("phases unsupported in multiplicative integrals")
        prod = ZetaElement.monomial(t.coeff, 0, p)
        dead = False
        for i, (fac, mode) in enumerate(zip(alg.factors, modes)):
            c1 = fac.from_coords(f.space.block_coords(t.center, i))
            l1 = t.levels[i]
            c2 = fac.from_coords(f.space.block_coords(t.center, m + i))
            l2 = t.levels[m + i]
            cell = Cell()
            if mode.slot1:
                cell.meet_coset(fac, c1, l1)
            elif fac.val(c1) < l1:
                dead = True
                break
            if mode.slot2:
                eps = mode.eps if mode.eps is not None else fac.one()
                ve = fac.val(eps)
                einv = (eps.inverse() if hasattr(eps, "inverse")
                        else Fraction(1) / eps)
                cell.meet_inverse_coset(fac, einv * c2, l2 - ve)
            elif fac.val(c2) < l2:
                dead = True
                break
            if not (mode.slot1 or mode.slot2):
                continue  # both slots pinned: the factor is not integrated
            prod = prod * factor_zeta(fac, cell, mode.sigma, p)
            if prod.is_zero_poly():
                dead = True
                break
        if not dead:
            out = out + prod
    return out
