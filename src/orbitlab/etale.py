"""Etale algebras F[gamma] = prod F_i over the base field, with exact
per-factor arithmetic, valuations, residue symbols and norm tests.

Supported factors are F itself and quadratic field extensions F(sqrt(d0))
with d0 a squarefree rational integer that is a non-square in Q_p.  The
ring of integers of a quadratic factor is Z_p[sqrt(d0)] (p odd, d0
squarefree), so coordinates in the basis (1, sqrt(d0)) are exact.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .quadext import Q2
from .scalar import (INF, LocalField, legendre, rational_mod, unit_part,
                     valuation)


class UnsupportedAlgebraError(ValueError):
    """Raised when an algebra falls outside the exactly representable
    classes: repeated factors (gamma not regular semisimple), or a
    quadratic factor F(sqrt(d0)) with d0 a square in Q_p."""


def squarefree_kernel(x) -> int:
    """The squarefree integer d0 with x = d0 * (rational square)."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("squarefree kernel of 0")
    n = x.numerator * x.denominator
    d0 = -1 if n < 0 else 1
    n = abs(n)
    k = 2
    while k * k <= n:  # trial division: inputs are small
        e = 0
        while n % k == 0:
            n //= k
            e += 1
        if e % 2:
            d0 *= k
        k += 1
    return d0 * n  # what is left is 1 or a prime


class _ValueKeyed:
    """Factors compare and hash by their value key, so that per-class
    results (deep elements, norm classes) can be cached on them."""

    def __eq__(self, other):
        return isinstance(other, _ValueKeyed) and self.key == other.key

    def __hash__(self):
        return hash(self.key)


class LineFactor(_ValueKeyed):
    """The factor F itself, attached to a rational eigenvalue."""

    degree = 1
    f = 1
    e = 1

    def __init__(self, lf: LocalField, root: Fraction):
        self.lf = lf
        self.root = Fraction(root)
        self.q = lf.q
        self.key = ("line", lf, self.root)

    @property
    def gamma(self):
        return self.root

    def contains_E(self) -> bool:
        return False

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_rational(self, x):
        return Fraction(x)

    def coords(self, x):
        return (Fraction(x),)

    def from_coords(self, c):
        return Fraction(c[0])

    def uniformizer(self):
        return Fraction(self.lf.p)

    def val(self, x):
        return valuation(x, self.lf.p)

    def residue_legendre(self, x) -> int:
        """Square test of the unit part of x in the residue field."""
        u = unit_part(x, self.lf.p)
        return legendre(rational_mod(u, self.lf.p, 1), self.lf.p)

    def hilbert(self, a, b) -> int:
        return self.lf.hilbert(a, b)

    def chi(self, x) -> int:
        """chi composed with the norm F_i -> F (here the identity)."""
        if x == 0:
            return 0
        return self.lf.chi(x)

    def chi_ramified_on_units(self) -> bool:
        """Whether chi (composed with the norm to F) is nontrivial on the
        unit group of this factor.  Its conductor is always at most 1."""
        return not self.lf.unramified

    def poly(self):
        return (Fraction(1), -self.root)

    def sort_key(self):
        return (1, (-self.root,))

    def __repr__(self):
        return f"LineFactor(root={self.root})"


class QuadFactor(_ValueKeyed):
    """A quadratic field factor F(sqrt(d0)), d0 squarefree and non-square
    in Q_p, with ring of integers Z_p[sqrt(d0)] and eigenvalue
    gamma = sqrt(d0)."""

    degree = 2

    def __init__(self, lf: LocalField, d0: int):
        self.lf = lf
        self.d0 = Fraction(d0)
        if squarefree_kernel(d0) != d0:
            raise ValueError("d0 must be a squarefree integer")
        if lf.is_square(self.d0):
            raise UnsupportedAlgebraError("d0 is a square in Q_p")
        vp = valuation(self.d0, lf.p)
        self.ramified = vp % 2 == 1
        self.f = 1 if self.ramified else 2
        self.e = 2 if self.ramified else 1
        self.q = lf.q**self.f
        self.gamma = Q2(self.d0, Fraction(0), Fraction(1))
        self.key = ("quad", lf, self.d0)
        self._contains_E = None  # computed on the first contains_E() call

    def contains_E(self) -> bool:
        if self._contains_E is None:
            self._contains_E = (self.lf.square_class(self.d0) ==
                                self.lf.square_class(self.lf.tau))
        return self._contains_E

    def zero(self):
        return Q2(self.d0, Fraction(0), Fraction(0))

    def one(self):
        return Q2(self.d0, Fraction(1), Fraction(0))

    def from_rational(self, x):
        return Q2(self.d0, Fraction(x), Fraction(0))

    def coords(self, x):
        x = self._lift(x)
        return (x.a, x.b)

    def from_coords(self, c):
        return Q2(self.d0, Fraction(c[0]), Fraction(c[1]))

    def _lift(self, x) -> Q2:
        if isinstance(x, Q2):
            if x.d != self.d0:
                raise ValueError("element from a different quadratic factor")
            return x
        return self.from_rational(x)

    def uniformizer(self):
        if self.ramified:
            return Q2(self.d0, Fraction(0), Fraction(1))  # sqrt(d0)
        return self.from_rational(self.lf.p)

    def val(self, x):
        x = self._lift(x)
        p = self.lf.p
        va, vb = valuation(x.a, p), valuation(x.b, p)
        if self.ramified:
            return min(2 * va, 2 * vb + 1)
        return min(va, vb)

    def residue_legendre(self, x) -> int:
        """Square test of the unit part u = x / pi^v (v = val(x)) in the
        residue field, read off in closed form from x's coordinates.

        Unramified (pi = p, residue field F_{p^2}): z^((q-1)/2) is the
        Legendre symbol of Nm(u) = Nm(x) / p^(2v) over F_p.  Ramified
        (pi = sqrt(d0), residue field F_p): the residue of u is that of
        its rational coordinate, a / d0^(v/2) for even v and
        b / d0^((v-1)/2) for odd v, since x sqrt(d0) = b d0 + a sqrt(d0).
        """
        x = self._lift(x)
        v = self.val(x)
        if v == INF:
            raise ValueError("residue symbol of 0")
        p = self.lf.p
        if self.ramified:
            r = (x.b if v % 2 else x.a) / self.d0 ** (v // 2)
        else:
            r = x.norm() / Fraction(p) ** (2 * v)
        return legendre(rational_mod(r, p, 1), p)

    def hilbert(self, a, b) -> int:
        """Tame Hilbert symbol over the quadratic factor."""
        a, b = self._lift(a), self._lift(b)
        va, vb = self.val(a), self.val(b)
        if va == INF or vb == INF:
            raise ValueError("Hilbert symbol needs nonzero arguments")
        eps = (self.q - 1) // 2
        s = (-1) ** (va * vb * eps)
        s *= self.residue_legendre(a) ** vb
        s *= self.residue_legendre(b) ** va
        return 1 if s == 1 else -1

    def chi(self, x) -> int:
        """chi composed with the norm F_i -> F."""
        x = self._lift(x)
        if not x:
            return 0
        if self.contains_E():
            return 1
        return self.hilbert(x, self.from_rational(self.lf.tau))

    def chi_ramified_on_units(self) -> bool:
        """Whether chi composed with the norm is nontrivial on units.

        Ramified factor: unit norms are squares times principal units, so
        any quadratic character of F is trivial on them.  Unramified
        factor: the norm is surjective on units, so this matches whether
        chi itself is ramified.  Conductor is at most 1 in all cases.
        """
        if self.ramified:
            return False
        return not self.lf.unramified

    def poly(self):
        g = self.gamma
        return (Fraction(1), -g.trace(), g.norm())

    def sort_key(self):
        _, c1, c0 = self.poly()
        return (2, (c1, c0))

    def __repr__(self):
        return f"QuadFactor(d0={self.d0}, gamma={self.gamma})"


class EtaleAlgebra:
    """A product of line and quadratic factors, as F[gamma] for a regular
    semisimple gamma."""

    def __init__(self, lf: LocalField, factors):
        self.lf = lf
        self.factors = list(factors)
        keys = [f.sort_key() for f in self.factors]
        if len(set(keys)) != len(keys):
            raise UnsupportedAlgebraError("repeated factors: not regular semisimple")

    @property
    def m(self) -> int:
        return len(self.factors)

    def S1(self) -> list[int]:
        """Indices of factors not containing E."""
        return [i for i, f in enumerate(self.factors) if not f.contains_E()]

    def S2(self) -> list[int]:
        return [i for i, f in enumerate(self.factors) if f.contains_E()]

    def dim(self) -> int:
        return sum(f.degree for f in self.factors)

    def gamma_element(self) -> "AlgElement":
        return AlgElement(self, [f.gamma for f in self.factors])

    def zero(self) -> "AlgElement":
        return AlgElement(self, [f.zero() for f in self.factors])

    def one(self) -> "AlgElement":
        return AlgElement(self, [f.one() for f in self.factors])

    def from_rational(self, x) -> "AlgElement":
        return AlgElement(self, [f.from_rational(x) for f in self.factors])

    def element(self, coords) -> "AlgElement":
        return AlgElement(self, list(coords))

    def __repr__(self):
        return f"EtaleAlgebra({self.factors})"


class AlgElement:
    """An element of an etale algebra, stored per factor."""

    def __init__(self, algebra: EtaleAlgebra, coords):
        self.algebra = algebra
        self.coords = list(coords)

    def _binop(self, other, op):
        if isinstance(other, AlgElement):
            return AlgElement(self.algebra,
                              [op(a, b) for a, b in zip(self.coords, other.coords)])
        other = self.algebra.from_rational(other)
        return self._binop(other, op)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    __radd__ = __add__

    def __neg__(self):
        return AlgElement(self.algebra, [-c for c in self.coords])

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def inverse(self) -> "AlgElement":
        out = []
        for f, c in zip(self.algebra.factors, self.coords):
            if isinstance(c, Q2):
                out.append(c.inverse())
            else:
                out.append(Fraction(1) / Fraction(c))
        return AlgElement(self.algebra, out)

    def is_unit(self) -> bool:
        return all(bool(c) for c in self.coords)

    def vals(self) -> list:
        return [f.val(c) for f, c in zip(self.algebra.factors, self.coords)]

    def chi(self, indices=None) -> int:
        """Product of the per-factor chi values over the given indices."""
        idx = range(len(self.coords)) if indices is None else indices
        out = 1
        for i in idx:
            out *= self.algebra.factors[i].chi(self.coords[i])
        return out

    def __eq__(self, other):
        if not isinstance(other, AlgElement):
            return NotImplemented
        return self.coords == other.coords

    def __repr__(self):
        return f"AlgElement({self.coords})"


@functools.cache
def u1_cosets(lf: LocalField, k: int) -> tuple[Q2, ...]:
    """Exact representatives of U(1)(F) modulo the principal congruence
    subgroup of level k in E, in the squarefree model E = F(sqrt(d0)),
    d0 = squarefree_kernel(tau): each is a + b sqrt(d0).

    By Hilbert 90, w -> w / conj(w) maps E^x / F^x = P^1(F) onto U(1), so
    the representatives come from a walk over P^1(F):
    w = a + sqrt(d0) for a mod p^(k+1), and w = 1 + c sqrt(d0) for c in
    pZ_p mod p^(k+1) (c = 0 gives w = 1).  Both truncations move
    w / conj(w) only inside the level-k subgroup; classes are told apart
    by _e_residue_key.  Each representative has norm exactly 1.  For
    k >= 1 there are (p + 1) p^(k-1) classes for unramified E and
    2 p^(k // 2) for ramified E; level 0 has one.

    The result is cached per (lf, k); it is an immutable tuple.
    """
    if k < 0:
        raise ValueError("level must be nonnegative")
    fac = QuadFactor(lf, squarefree_kernel(lf.tau))
    d0 = fac.d0
    if k == 0:
        return (fac.one(),)
    p, d = lf.p, int(d0)
    mod = p ** (k + 1)
    cands = [(a, 1) for a in range(mod)]
    cands += [(1, c) for c in range(0, mod, p)]
    seen = {}
    for xa, xb in cands:
        # w / conj(w) = w^2 / N(w) for w = xa + xb sqrt(d0), in integers
        n = xa * xa - d * xb * xb
        z = Q2(d0, Fraction(xa * xa + d * xb * xb, n),
               Fraction(2 * xa * xb, n))
        seen.setdefault(_e_residue_key(fac, z, k), z)
    return tuple(seen.values())


def _e_residue_key(fac: QuadFactor, z: Q2, k: int):
    p = fac.lf.p
    if fac.ramified:
        ka, kb = (k + 1) // 2, k // 2
    else:
        ka = kb = k
    return (rational_mod(z.a, p, ka) if ka else 0,
            rational_mod(z.b, p, kb) if kb else 0)
