"""Base-field arithmetic: valuations, square classes, Hilbert symbols,
the quadratic character of E/F and the fixed additive character psi.

The base field F is Q_p with p an odd prime; elements are exact rationals
viewed inside Q_p.  E = F(sqrt(tau)) for a rational non-square tau, in
the squarefree model F(sqrt(d0)), d0 the squarefree kernel of tau.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .cyclo import Cyc

INF = math.inf


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(n**0.5) + 1):
        if n % d == 0:
            return False
    return True


def valuation(x, p: int):
    """p-adic valuation of an int or a Fraction; infinity for 0."""
    num = x.numerator
    if not num:
        return INF
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    den = x.denominator
    while den % p == 0:
        den //= p
        v -= 1
    return v


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for odd prime p; 0 when p | a."""
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def smallest_nonresidue(p: int) -> int:
    for u in range(2, p):
        if legendre(u, p) == -1:
            return u
    raise ValueError("no nonresidue found; p not an odd prime?")


def unit_part(x, p: int) -> Fraction:
    x = Fraction(x)
    v = valuation(x, p)
    return x / Fraction(p) ** v


def ratsqrt(x) -> Fraction:
    """The nonnegative exact square root of a rational square."""
    x = Fraction(x)
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn != n or rd * rd != d:
        raise ValueError("not a rational square")
    return Fraction(rn, rd)


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


def rational_mod(x, p: int, k: int) -> int:
    """Residue of x (a p-adic integer) modulo p^k, as an int in [0, p^k)."""
    x = Fraction(x)
    if valuation(x, p) < 0:
        raise ValueError("not a p-adic integer")
    m = p**k
    return (x.numerator * pow(x.denominator, -1, m)) % m


@dataclass(frozen=True)
class LocalField:
    """F = Q_p together with the quadratic extension E = F(sqrt(tau))."""

    p: int
    tau: Fraction | None = None

    def __post_init__(self):
        if not is_prime(self.p) or self.p == 2:
            raise ValueError("p must be an odd prime")
        if self.tau is None:
            # default: the unramified extension
            object.__setattr__(self, "tau", Fraction(smallest_nonresidue(self.p)))
        else:
            object.__setattr__(self, "tau", Fraction(self.tau))
        if self.tau == 0 or self.square_class(self.tau) == (0, 1):
            raise ValueError("tau must be a nonzero non-square in Q_p")

    @property
    def q(self) -> int:
        return self.p

    @functools.cached_property
    def d0(self) -> Fraction:
        """The squarefree integer generating E = F(sqrt(d0)) over F."""
        return Fraction(squarefree_kernel(self.tau))

    @property
    def unramified(self) -> bool:
        return valuation(self.tau, self.p) % 2 == 0

    # -- square classes ----------------------------------------------------

    def square_class(self, x) -> tuple[int, int]:
        """Class of x in F^x/(F^x)^2 as (v mod 2, legendre of unit part)."""
        x = Fraction(x)
        if x == 0:
            raise ValueError("square class of 0")
        v = valuation(x, self.p)
        u = x / Fraction(self.p) ** v
        return (v % 2, legendre(rational_mod(u, self.p, 1), self.p))

    def square_class_rep(self, x) -> Fraction:
        """Canonical representative in {1, u, p, u*p}, u a fixed nonresidue."""
        ve, lg = self.square_class(x)
        u = Fraction(1) if lg == 1 else Fraction(smallest_nonresidue(self.p))
        return u * (Fraction(self.p) if ve else 1)

    def square_class_reps(self) -> list[Fraction]:
        u = Fraction(smallest_nonresidue(self.p))
        p = Fraction(self.p)
        return [Fraction(1), u, p, u * p]

    def is_square(self, x) -> bool:
        return self.square_class(x) == (0, 1)

    # -- Hilbert symbol and the character chi ------------------------------

    def hilbert(self, a, b) -> int:
        """Tame Hilbert symbol (a,b)_F for odd p."""
        a, b = Fraction(a), Fraction(b)
        if a == 0 or b == 0:
            raise ValueError("Hilbert symbol needs nonzero arguments")
        p = self.p
        al, be = valuation(a, p), valuation(b, p)
        ua = rational_mod(unit_part(a, p), p, 1)
        ub = rational_mod(unit_part(b, p), p, 1)
        eps = (p - 1) // 2
        s = (-1) ** (al * be * eps) * legendre(ua, p) ** be * legendre(ub, p) ** al
        return 1 if s == 1 else -1

    def chi(self, x) -> int:
        """Quadratic character of F^x attached to E/F; chi(0) = 0 flag."""
        x = Fraction(x)
        if x == 0:
            return 0
        return self.hilbert(x, self.tau)

    # -- additive character ------------------------------------------------

    def psi(self, x) -> Cyc:
        """Level-0 additive character: trivial on Z_p, zeta_{p^k} below."""
        x = Fraction(x)
        v = valuation(x, self.p)
        if v >= 0:
            return Cyc.one(self.p)
        k = -int(v)
        pk = self.p**k
        # x = m / p^k with m invertible mod p^k
        m = (x * pk)
        mm = (m.numerator * pow(m.denominator, -1, pk)) % pk
        return Cyc.root_of_unity(self.p, k, mm)
