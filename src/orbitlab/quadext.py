"""Quadratic extensions Q_p(sqrt(d)) with exact arithmetic.

Q2(d, a, b) models a + b*sqrt(d) with rational a and b (Fraction): the
extension E = F(sqrt(tau)) and the quadratic factors F_i = F(sqrt(d0)).
Conjugation flips the sign of b.
"""

from __future__ import annotations

from fractions import Fraction


class Q2:
    __slots__ = ("d", "a", "b")

    def __init__(self, d, a, b=None):
        self.d = d
        self.a = a
        self.b = b if b is not None else Fraction(0)

    def _lift(self, x):
        if isinstance(x, Q2) and x.d == self.d:
            return x
        return Q2(self.d, Fraction(x), Fraction(0))

    def __add__(self, other):
        o = self._lift(other)
        return Q2(self.d, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return Q2(self.d, -self.a, -self.b)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        return Q2(self.d, self.a * o.a + self.d * self.b * o.b,
                  self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def conj(self):
        return Q2(self.d, self.a, -self.b)

    def norm(self):
        """Norm to the base ring: a^2 - d*b^2."""
        return self.a * self.a - self.d * self.b * self.b

    def trace(self):
        return self.a + self.a

    def inverse(self):
        n = self.norm()
        if not n:
            raise ZeroDivisionError("non-invertible quadratic element")
        ninv = Fraction(1) / n
        return Q2(self.d, self.a * ninv, -self.b * ninv)

    def __truediv__(self, other):
        o = self._lift(other)
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._lift(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self._lift(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, Q2) and other.d == self.d:
            return self.a == other.a and self.b == other.b
        return not self.b and self.a == other

    def __hash__(self):
        return hash((self.d, self.a, self.b))

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt({self.d}))"
