"""Etale algebras F[gamma] = prod F_i over the base field, with exact
per-factor arithmetic, valuations and norm tests.

Supported factors are F itself and quadratic field extensions F(sqrt(d0))
with d0 a squarefree rational integer that is a non-square in Q_p.  The
ring of integers of a quadratic factor is Z_p[sqrt(d0)] (p odd, d0
squarefree), so coordinates in the basis (1, sqrt(d0)) are exact.  Each
factor reads its valuation, e, f and q from its coordinate block in
steps, and its character chi_i is chi composed with the norm to F.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .quadext import Q2
from .scalar import LocalField, rational_mod, squarefree_kernel, valuation
from .steps import LineBlock, QuadBlock


class UnsupportedAlgebraError(ValueError):
    """Raised when an algebra falls outside the exactly representable
    classes: repeated factors (gamma not regular semisimple), or a
    quadratic factor F(sqrt(d0)) with d0 a square in Q_p."""


class _Factor:
    """What both factor kinds share.  Factors compare and hash by their
    value key, so that per-class results (deep elements, norm classes) can
    be cached on them; their coordinate model is their steps block."""

    def __init__(self, lf: LocalField, key, block):
        self.lf = lf
        self.key = key
        self.block = block
        self.e, self.f, self.q = block.e, block.f, block.q

    def __eq__(self, other):
        return isinstance(other, _Factor) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def val(self, x):
        return self.block.val(self.coords(x))

    def chi(self, x) -> int:
        """chi composed with the norm F_i -> F; chi(0) = 0 flag."""
        if not x:
            return 0
        if self.contains_E():
            return 1
        return self.lf.chi(self.norm(x))

    def chi_ramified_on_units(self) -> bool:
        """Whether chi composed with the norm is nontrivial on the unit
        group of this factor.  A ramified factor's unit norms are squares
        times principal units, so any quadratic character of F is trivial
        on them; an unramified factor's norm is onto the units of F, so
        this matches whether chi itself is ramified.  The conductor is at
        most 1 in all cases."""
        return self.e == 1 and not self.lf.unramified


class LineFactor(_Factor):
    """The factor F itself, attached to a rational eigenvalue."""

    degree = 1

    def __init__(self, lf: LocalField, root: Fraction):
        self.root = Fraction(root)
        super().__init__(lf, ("line", lf, self.root), LineBlock(lf))

    def contains_E(self) -> bool:
        return False

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_rational(self, x):
        return Fraction(x)

    def coords(self, x):
        return (x,)

    def from_coords(self, c):
        return Fraction(c[0])

    def norm(self, x):
        return x

    def uniformizer(self):
        return Fraction(self.lf.p)

    def poly(self):
        return (Fraction(1), -self.root)

    def __repr__(self):
        return f"LineFactor(root={self.root})"


class QuadFactor(_Factor):
    """A quadratic field factor F(sqrt(d0)), d0 squarefree and non-square
    in Q_p, with ring of integers Z_p[sqrt(d0)] and eigenvalue
    gamma = sqrt(d0)."""

    degree = 2

    def __init__(self, lf: LocalField, d0: int):
        self.d0 = Fraction(d0)
        if squarefree_kernel(d0) != d0:
            raise ValueError("d0 must be a squarefree integer")
        if lf.is_square(self.d0):
            raise UnsupportedAlgebraError("d0 is a square in Q_p")
        self.ramified = valuation(self.d0, lf.p) % 2 == 1
        super().__init__(lf, ("quad", lf, self.d0),
                         QuadBlock(lf, self.d0, self.ramified))
        self.gamma = Q2(self.d0, Fraction(0), Fraction(1))
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

    def norm(self, x):
        return self._lift(x).norm()

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

    def poly(self):
        g = self.gamma
        return (Fraction(1), -g.trace(), g.norm())

    def __repr__(self):
        return f"QuadFactor(d0={self.d0}, gamma={self.gamma})"


class EtaleAlgebra:
    """A product of line and quadratic factors, as F[gamma] for a regular
    semisimple gamma."""

    def __init__(self, lf: LocalField, factors):
        self.lf = lf
        self.factors = list(factors)
        if len(set(self.factors)) != len(self.factors):
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

    def one(self):
        return tuple(f.one() for f in self.factors)

    def element(self, coords):
        """An element of the algebra: a tuple with one coordinate per
        factor (Fraction for a line factor, Q2 for a quadratic one)."""
        return tuple(coords)

    def __repr__(self):
        return f"EtaleAlgebra({self.factors})"


@functools.cache
def u1_cosets(lf: LocalField, k: int) -> tuple[Q2, ...]:
    """Exact representatives of U(1)(F) modulo the principal congruence
    subgroup of level k in E, in the squarefree model E = F(sqrt(d0)),
    d0 = lf.d0: each is a + b sqrt(d0).

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
    fac = QuadFactor(lf, lf.d0)
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
    """z's coordinates modulo the exponents of pi^k O in the basis
    (1, sqrt(d0)): the class of z modulo the level-k subgroup."""
    p = fac.lf.p
    return tuple(rational_mod(c, p, s) if s else 0
                 for c, s in zip(fac.coords(z), fac.block.shape(k)))
