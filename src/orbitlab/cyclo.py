"""Exact cyclotomic-rational scalars.

Values live in Q(zeta_4, zeta_{p^k}) for a fixed odd prime p and varying k.
An element is stored as a Q-linear combination of the canonical monomials

    zeta_4^a * zeta_{p^j}^e,   a in {0,1},  j >= 0,

where for j >= 1 the exponent e is coprime to p and 1 <= e < (p-1)*p^(j-1)
(the power-basis range of the p^j-th cyclotomic polynomial), and j = 0 forces
e = 0.  These monomials are linearly independent over Q, so the representation
is canonical: two values are equal iff their coefficient dicts are equal.
"""

from __future__ import annotations

from fractions import Fraction

Key = tuple[int, int, int]  # (a, j, e) for zeta_4^a * zeta_{p^j}^e


def _reduce_monomial(p: int, a: int, j: int, e: int) -> list[tuple[Key, int]]:
    """Rewrite zeta_4^a * zeta_{p^j}^e in canonical monomials, with signs."""
    sign = 1
    a %= 4
    if a >= 2:
        sign = -sign
        a -= 2
    e %= p**j if j > 0 else 1
    while j > 0 and e % p == 0:
        e //= p
        j -= 1
    if e == 0:
        j = 0
    if j == 0 or e < (p - 1) * p ** (j - 1):
        return [((a, j, e), sign)]
    # e = (p-1)p^(j-1) + r: apply the p^j-th cyclotomic relation.
    r = e - (p - 1) * p ** (j - 1)
    out: list[tuple[Key, int]] = []
    for c in range(p - 1):
        e2 = c * p ** (j - 1) + r
        j2, s = j, -sign
        while j2 > 0 and e2 % p == 0:
            e2 //= p
            j2 -= 1
        if e2 == 0:
            j2 = 0
        out.append(((a, j2, e2), s))
    return out


class Cyc:
    """Immutable exact element of the cyclotomic coefficient field."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p, coeffs: dict[Key, Fraction] | None = None):
        self.p = p
        self.coeffs = coeffs or {}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(x, p=None) -> "Cyc":
        x = Fraction(x)
        if x == 0:
            return Cyc(p, {})
        return Cyc(p, {(0, 0, 0): x})

    @staticmethod
    def zero(p=None) -> "Cyc":
        return Cyc(p, {})

    @staticmethod
    def one(p=None) -> "Cyc":
        return Cyc.rational(1, p)

    @staticmethod
    def i(p=None) -> "Cyc":
        return Cyc(p, {(1, 0, 0): Fraction(1)})

    @staticmethod
    def root_of_unity(p: int, j: int, e: int) -> "Cyc":
        """zeta_{p^j}^e for the fixed odd prime p."""
        acc: dict[Key, Fraction] = {}
        for key, s in _reduce_monomial(p, 0, j, e):
            acc[key] = acc.get(key, Fraction(0)) + s
        return Cyc(p, {k: v for k, v in acc.items() if v != 0})

    # -- helpers -----------------------------------------------------------

    def _compat(self, other: "Cyc") -> int | None:
        if self.p is not None and other.p is not None and self.p != other.p:
            raise ValueError("mixing cyclotomic scalars for different primes")
        return self.p if self.p is not None else other.p

    @staticmethod
    def _coerce(x) -> "Cyc":
        if isinstance(x, Cyc):
            return x
        return Cyc.rational(x)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = Cyc._coerce(other)
        p = self._compat(other)
        acc = dict(self.coeffs)
        for k, v in other.coeffs.items():
            w = acc.get(k, Fraction(0)) + v
            if w == 0:
                acc.pop(k, None)
            else:
                acc[k] = w
        return Cyc(p, acc)

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.p, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-Cyc._coerce(other))

    def __rsub__(self, other):
        return Cyc._coerce(other) + (-self)

    def __mul__(self, other):
        other = Cyc._coerce(other)
        p = self._compat(other)
        acc: dict[Key, Fraction] = {}
        for (a1, j1, e1), v1 in self.coeffs.items():
            for (a2, j2, e2), v2 in other.coeffs.items():
                j = max(j1, j2)
                pw = p if p is not None else 2  # irrelevant when j == 0
                e = e1 * pw ** (j - j1) + e2 * pw ** (j - j2)
                v = v1 * v2
                for key, s in _reduce_monomial(pw, a1 + a2, j, e):
                    w = acc.get(key, Fraction(0)) + s * v
                    if w == 0:
                        acc.pop(key, None)
                    else:
                        acc[key] = w
        return Cyc(p, acc)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Cyc):
            return self * other.inverse()
        return self * Cyc.rational(Fraction(1) / Fraction(other))

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = Cyc.one(self.p)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conj(self) -> "Cyc":
        """Complex conjugation (an involutive field automorphism)."""
        p = self.p if self.p is not None else 2
        acc: dict[Key, Fraction] = {}
        for (a, j, e), v in self.coeffs.items():
            sign = 1
            if a == 1:  # conj(zeta_4) = -zeta_4
                sign = -1
            for key, s in _reduce_monomial(p, a, j, (p**j - e) % (p**j if j else 1)):
                w = acc.get(key, Fraction(0)) + sign * s * v
                if w == 0:
                    acc.pop(key, None)
                else:
                    acc[key] = w
        return Cyc(self.p, acc)

    def norm_sq(self) -> "Cyc":
        return self * self.conj()

    def inverse(self) -> "Cyc":
        """Inverse, available whenever z * conj(z) is rational (all our uses)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic scalar")
        n = self.norm_sq()
        r = n.as_rational()
        if r is None:
            raise ValueError("inverse needs rational z*conj(z); got %r" % (n,))
        return self.conj() * Cyc.rational(Fraction(1) / r)

    # -- predicates and conversions ---------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def as_rational(self) -> Fraction | None:
        if not self.coeffs:
            return Fraction(0)
        if len(self.coeffs) == 1 and (0, 0, 0) in self.coeffs:
            return self.coeffs[(0, 0, 0)]
        return None

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyc.rational(other)
        if not isinstance(other, Cyc):
            return NotImplemented
        if self.p is not None and other.p is not None and self.p != other.p:
            return self.coeffs == {} and other.coeffs == {}
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        if not self.coeffs:
            return "Cyc(0)"
        bits = []
        for (a, j, e), v in sorted(self.coeffs.items()):
            mono = []
            if a:
                mono.append("i")
            if j:
                mono.append(f"z[{self.p}^{j}]^{e}")
            mono = "*".join(mono) if mono else "1"
            bits.append(f"{v}*{mono}")
        return "Cyc(" + " + ".join(bits) + ")"

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return [[a, j, e, v.numerator, v.denominator]
                for (a, j, e), v in sorted(self.coeffs.items())]

    @staticmethod
    def from_json(data, p=None) -> "Cyc":
        out = Cyc.zero(p)
        for a, j, e, num, den in data:
            mono = Cyc(p, {(0, 0, 0): Fraction(num, den)})
            if a:
                mono = mono * Cyc.i(p)
            if j:
                mono = mono * Cyc.root_of_unity(p, j, e)
            out = out + mono
        return out


def gauss_sum(p: int) -> Cyc:
    """The quadratic Gauss sum sum_t zeta_p^{t^2} over t mod p."""
    out = Cyc.zero(p)
    for t in range(p):
        out = out + Cyc.root_of_unity(p, 1, (t * t) % p)
    return out


def sqrt_p(p: int) -> Cyc:
    """The positive square root of p inside Q(zeta_4, zeta_p)."""
    g = gauss_sum(p)
    if p % 4 == 1:
        return g
    # g = i*sqrt(p) when p = 3 mod 4
    return g * Cyc.i(p).inverse()
