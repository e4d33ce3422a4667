"""Locally constant compactly supported functions with exact arithmetic.

A function is a finite sum of phase-box terms

    coeff * psi(lambda . x) * 1_{c + L},

where L is a product over coordinate blocks of pi^l O_i for the block's
ring of integers.  Blocks are either a line (Z_p) or the integers of a
quadratic extension in the basis (1, sqrt(d0)).  This family is closed
under addition, products, translation, monomial linear pullbacks,
integration and Fourier transform, with every operation exact.

The additive measure gives each block's ring of integers volume 1, and the
additive character has level 0, so the Fourier transform is involutive up
to parity flip without volume constants.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .cyclo import Cyc
from .linalg import mat_inverse, smith_zp
from .scalar import LocalField, valuation


# ---------------------------------------------------------------------------
# blocks and spaces


class LineBlock:
    """One coordinate carrying Z_p."""

    dim = 1

    def __init__(self, lf: LocalField):
        self.lf = lf
        self.q = lf.q
        self.f = 1
        self.e = 1

    def shape(self, level: int) -> tuple[int, ...]:
        """Per-coordinate p-power exponents of the box pi^level O."""
        return (level,)

    def val(self, coords) -> int:
        return valuation(coords[0], self.lf.p)

    def descriptor(self):
        return ["line"]

    def __eq__(self, other):
        return isinstance(other, LineBlock) and other.lf == self.lf

    def __repr__(self):
        return "LineBlock"


class QuadBlock:
    """Two coordinates carrying Z_p[sqrt(d0)], d0 squarefree non-square."""

    dim = 2

    def __init__(self, lf: LocalField, d0, ramified: bool):
        self.lf = lf
        self.d0 = Fraction(d0)
        self.ramified = ramified
        self.f = 1 if ramified else 2
        self.e = 2 if ramified else 1
        self.q = lf.q**self.f

    def shape(self, level: int) -> tuple[int, ...]:
        if self.ramified:
            return ((level + 1) // 2, level // 2)
        return (level, level)

    def val(self, coords):
        p = self.lf.p
        va, vb = valuation(coords[0], p), valuation(coords[1], p)
        if self.ramified:
            return min(2 * va, 2 * vb + 1)
        return min(va, vb)

    def descriptor(self):
        return ["quad", str(self.d0), self.ramified]

    def __eq__(self, other):
        return (isinstance(other, QuadBlock) and other.lf == self.lf
                and other.d0 == self.d0 and other.ramified == self.ramified)

    def __repr__(self):
        return f"QuadBlock(d0={self.d0}, ram={self.ramified})"


class Space:
    """An ordered list of coordinate blocks over a fixed base field."""

    def __init__(self, lf: LocalField, blocks):
        self.lf = lf
        self.blocks = list(blocks)
        self.offsets = []
        d = 0
        for b in self.blocks:
            self.offsets.append(d)
            d += b.dim
        self.dim = d

    @staticmethod
    def lines(lf: LocalField, n: int) -> "Space":
        return Space(lf, [LineBlock(lf) for _ in range(n)])

    def block_coords(self, x, i):
        off = self.offsets[i]
        return tuple(x[off:off + self.blocks[i].dim])

    def coord_shapes(self, levels) -> tuple[int, ...]:
        out = []
        for b, l in zip(self.blocks, levels):
            out.extend(b.shape(l))
        return tuple(out)

    def complement(self, block_indices):
        """The blocks outside block_indices: their indices, the space they
        span, and the coordinates they occupy here."""
        drop = set(block_indices)
        keep = [i for i in range(len(self.blocks)) if i not in drop]
        coords = [j for i in keep for j in range(
            self.offsets[i], self.offsets[i] + self.blocks[i].dim)]
        return keep, Space(self.lf, [self.blocks[i] for i in keep]), coords

    def __eq__(self, other):
        return isinstance(other, Space) and self.blocks == other.blocks

    def __repr__(self):
        return f"Space({self.blocks})"


# ---------------------------------------------------------------------------
# canonical p-adic residues for exact rationals


def frac_mod_one(x: Fraction, p: int) -> Fraction:
    """Canonical representative of x modulo Z_p, in [0,1) with p-power
    denominator."""
    x = Fraction(x)
    e = max(0, -valuation(x, p)) if x else 0
    if e == 0:
        return Fraction(0)
    pe = p**e
    # x = n / (p^e * d') with d' prime to p
    dprime = x.denominator // (p**e)
    n = x.numerator
    r = (n * pow(dprime, -1, pe)) % pe
    return Fraction(r, pe)


def frac_mod_power(x: Fraction, p: int, m: int) -> Fraction:
    """Canonical representative of x modulo p^m Z_p (m of either sign)."""
    pm = Fraction(p) ** m
    return pm * frac_mod_one(Fraction(x) / pm, p)


# ---------------------------------------------------------------------------
# terms and functions


class Term:
    __slots__ = ("coeff", "center", "levels", "phase")

    def __init__(self, coeff: Cyc, center, levels, phase=None):
        self.coeff = coeff
        self.center = tuple(Fraction(c) for c in center)
        self.levels = tuple(int(l) for l in levels)
        if phase is None:
            phase = (Fraction(0),) * len(self.center)
        self.phase = tuple(Fraction(t) for t in phase)

    def __repr__(self):
        return (f"Term({self.coeff!r}, c={self.center}, l={self.levels}, "
                f"ph={self.phase})")


class StepFunction:
    def __init__(self, space: Space, terms=None):
        self.space = space
        self.terms = list(terms or [])

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(space: Space) -> "StepFunction":
        return StepFunction(space, [])

    @staticmethod
    def indicator(space: Space, center, levels) -> "StepFunction":
        """The indicator of the box center + pi^levels O."""
        return StepFunction(space, [Term(Cyc.one(space.lf.p), center,
                                         levels)])

    # -- evaluation --------------------------------------------------------

    def eval(self, x) -> Cyc:
        x = tuple(Fraction(c) for c in x)
        lf = self.space.lf
        out = Cyc.zero(lf.p)
        for t in self.terms:
            shapes = self.space.coord_shapes(t.levels)
            if all(valuation(xi - ci, lf.p) >= s
                   for xi, ci, s in zip(x, t.center, shapes)):
                ph = sum((l * xi for l, xi in zip(t.phase, x)), Fraction(0))
                out = out + t.coeff * lf.psi(ph)
        return out

    # -- linear structure --------------------------------------------------

    def __add__(self, other: "StepFunction") -> "StepFunction":
        if self.space != other.space:
            raise ValueError("adding functions on different spaces")
        return StepFunction(self.space, self.terms + other.terms)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "StepFunction":
        c = c if isinstance(c, Cyc) else Cyc.rational(c, self.space.lf.p)
        return StepFunction(self.space,
                            [Term(t.coeff * c, t.center, t.levels, t.phase)
                             for t in self.terms])

    def mul_phase(self, lam) -> "StepFunction":
        """Multiply by psi(lam . x)."""
        lam = tuple(Fraction(v) for v in lam)
        return StepFunction(self.space,
                            [Term(t.coeff, t.center, t.levels,
                                  tuple(a + b for a, b in zip(t.phase, lam)))
                             for t in self.terms])

    def translate(self, a) -> "StepFunction":
        """Return g with g(x) = f(x + a)."""
        a = tuple(Fraction(v) for v in a)
        lf = self.space.lf
        out = []
        for t in self.terms:
            ph = sum((l * ai for l, ai in zip(t.phase, a)), Fraction(0))
            out.append(Term(t.coeff * lf.psi(ph),
                            tuple(c - ai for c, ai in zip(t.center, a)),
                            t.levels, t.phase))
        return StepFunction(self.space, out)

    # -- integration -------------------------------------------------------

    def _term_integral(self, t: Term, block_indices) -> Cyc | None:
        """Integral of the term over the chosen blocks' coordinates, or
        None when the oscillating phase kills it."""
        lf = self.space.lf
        val = Cyc.one(lf.p)
        ph = Fraction(0)
        for i in block_indices:
            blk = self.space.blocks[i]
            off = self.space.offsets[i]
            for j, s in enumerate(blk.shape(t.levels[i])):
                lam = t.phase[off + j]
                if lam and valuation(lam, lf.p) < -s:
                    return None
                ph += lam * t.center[off + j]
                val = val * Cyc.rational(Fraction(lf.p) ** (-s), lf.p)
        return val * lf.psi(ph) * t.coeff

    def _on_complement(self, block_indices, coeff_of) -> "StepFunction":
        """The function on the blocks outside block_indices with one term
        coeff_of(t) per term t, dropping the terms where it is None."""
        keep, sub, coords = self.space.complement(block_indices)
        out = []
        for t in self.terms:
            c = coeff_of(t)
            if c is not None:
                out.append(Term(c, tuple(t.center[j] for j in coords),
                                tuple(t.levels[i] for i in keep),
                                tuple(t.phase[j] for j in coords)))
        return StepFunction(sub, out)

    def partial_integrate(self, block_indices) -> "StepFunction":
        """Integrate out the chosen blocks, leaving a function on the rest."""
        return self._on_complement(
            block_indices, lambda t: self._term_integral(t, block_indices))

    def restrict_zero(self, block_indices) -> "StepFunction":
        """Set the chosen blocks' coordinates to 0."""
        space, p = self.space, self.space.lf.p

        def at_zero(t):
            for i in block_indices:
                off = space.offsets[i]
                for j, s in enumerate(space.blocks[i].shape(t.levels[i])):
                    if valuation(t.center[off + j], p) < s:
                        return None
            return t.coeff

        return self._on_complement(block_indices, at_zero)

    # -- Fourier transform -------------------------------------------------

    def fourier(self, gram: "MonomialGram | None" = None) -> "StepFunction":
        """Fourier transform on a space of line blocks:

            F(f)(x) = integral of f(y) psi(<x, G y>) dy,

        exact term by term, with G a symmetric monomial matrix (the
        identity by default).  On line blocks the block index of a
        coordinate is the coordinate index.
        """
        if any(not isinstance(b, LineBlock) for b in self.space.blocks):
            raise ValueError("Fourier transform needs line blocks")
        n = self.space.dim
        lf = self.space.lf
        if gram is None:
            gram = MonomialGram.identity(n)
        if len(gram.perm) != n:
            raise ValueError("Gram size mismatch")
        out = []
        for t in self.terms:
            vol = Fraction(1)
            ph_const = Fraction(0)
            for j in range(n):
                vol /= Fraction(lf.p) ** t.levels[j]
                ph_const += t.phase[j] * t.center[j]
            center = [None] * n
            levels = [None] * n
            phase = [None] * n
            for a in range(n):
                sa = gram.perm[a]
                g = gram.scales[a]
                # condition (Gx)_a + lambda_a in p^{-k} Z_p on x_{perm(a)}
                center[sa] = -t.phase[a] / g
                levels[sa] = -t.levels[a] - valuation(g, lf.p)
                phase[a] = g * t.center[sa]
            out.append(Term(t.coeff * Cyc.rational(vol, lf.p) * lf.psi(ph_const),
                            center, levels, phase))
        return StepFunction(self.space, out)

    def parity_flip(self) -> "StepFunction":
        """g(x) = f(-x)."""
        return StepFunction(self.space,
                            [Term(t.coeff, tuple(-c for c in t.center), t.levels,
                                  tuple(-v for v in t.phase))
                             for t in self.terms])

    # -- pullbacks ---------------------------------------------------------

    def affine_pullback(self, mat, inverse=None) -> "StepFunction":
        """g(x) = f(A x) for invertible rational A (line blocks only); a
        shift f(A x + b) is translate(b) followed by the pullback.  A caller
        that knows A^{-1} exactly passes it as inverse, which is then used
        in place of a Gauss-Jordan inversion.

        Only the nonzero entries are read: column j of A gives
        (A^T lam)_j and row i of A^{-1} gives (A^{-1} c)_i."""
        if any(not isinstance(b, LineBlock) for b in self.space.blocks):
            raise ValueError("affine pullback needs line blocks")
        n = self.space.dim
        p = self.space.lf.p
        if inverse is None:
            inverse = mat_inverse([[Fraction(c) for c in row] for row in mat])
        cols = [[(i, Fraction(mat[i][j])) for i in range(n) if mat[i][j]]
                for j in range(n)]
        inv_rows = [[(j, Fraction(c)) for j, c in enumerate(row) if c]
                    for row in inverse]
        out = []
        # A is in GL_n(Z_p) exactly when A and its inverse are integral
        # (zero entries have valuation infinity)
        unimodular = all(valuation(c, p) >= 0 for M in (cols, inv_rows)
                         for line in M for _, c in line)
        monomial = (all(len(col) == 1 for col in cols)
                    and len({col[0][0] for col in cols}) == n)
        for t in self.terms:
            lam = t.phase
            phase = (tuple(sum(c * lam[i] for i, c in col) for col in cols)
                     if any(lam) else lam)
            new_center = tuple(sum(c * t.center[j] for j, c in row)
                               for row in inv_rows)
            if unimodular and len(set(t.levels)) == 1:
                out.append(Term(t.coeff, new_center, t.levels, phase))
                continue
            if monomial:
                # column j is read by row i alone: one box maps to one box
                levels = [0] * n
                for j, ((i, c),) in enumerate(cols):
                    levels[j] = t.levels[i] - valuation(c, p)
                out.append(Term(t.coeff, new_center, tuple(levels), phase))
                continue
            # general case: decompose A^{-1} * diag(p^k) Z_p^n into boxes
            B = [[Fraction(0)] * n for _ in range(n)]
            for i, row in enumerate(inv_rows):
                for j, c in row:
                    B[i][j] = c * Fraction(p) ** t.levels[j]
            for box_center, box_levels in _lattice_boxes(B, p):
                c2 = tuple(a + dd for a, dd in zip(new_center, box_center))
                out.append(Term(t.coeff, c2, box_levels, phase))
        return StepFunction(self.space, out)

    # -- canonical form and equality ---------------------------------------

    def merged(self) -> "StepFunction":
        """Sum the terms that are one character on one box, and drop the
        sums that vanish.

        Terms are grouped by (levels, center modulo the box, phase modulo
        the box's dual lattice).  With lam* the canonical phase and c* the
        canonical center, psi(lam . x) = psi((lam - lam*) . c*) psi(lam* . x)
        on the box, so each group is one term and the result is exact.
        """
        lf = self.space.lf
        p = lf.p
        acc: dict[tuple, Cyc] = {}
        for t in self.terms:
            shapes = self.space.coord_shapes(t.levels)
            center = tuple(frac_mod_power(c, p, s)
                           for c, s in zip(t.center, shapes))
            lam = tuple(frac_mod_power(v, p, -s)
                        for v, s in zip(t.phase, shapes))
            ph = sum(((v - l) * c for v, l, c in zip(t.phase, lam, center)),
                     Fraction(0))
            key = (t.levels, center, lam)
            acc[key] = acc.get(key, Cyc.zero(p)) + t.coeff * lf.psi(ph)
        return StepFunction(self.space, [
            Term(coeff, center, levels, lam)
            for (levels, center, lam), coeff in acc.items()
            if not coeff.is_zero()])

    def canonicalize(self) -> "StepFunction":
        """Merge matching terms, refine the survivors to a common box level
        per block, and merge again: the unique form of the function at that
        level."""
        f = self.merged()
        if not f.terms:
            return f
        p = self.space.lf.p
        nb = len(self.space.blocks)
        levels = tuple(max(t.levels[i] for t in f.terms) for i in range(nb))
        shapes = self.space.coord_shapes(levels)
        refined = []
        for t in f.terms:
            tshapes = self.space.coord_shapes(t.levels)
            steps = [Fraction(p) ** s for s in tshapes]
            for idx in product(*(range(p ** (S - s))
                                 for s, S in zip(tshapes, shapes))):
                center = tuple(c + st * k
                               for c, st, k in zip(t.center, steps, idx))
                refined.append(Term(t.coeff, center, levels, t.phase))
        return StepFunction(self.space, refined).merged()

    def is_zero(self) -> bool:
        return not self.canonicalize().terms

    def __eq__(self, other):
        if not isinstance(other, StepFunction) or self.space != other.space:
            return NotImplemented
        return (self - other).is_zero()

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return {
            "space": [b.descriptor() for b in self.space.blocks],
            "terms": [{
                "center": [[c.numerator, c.denominator] for c in t.center],
                "level": list(t.levels),
                "phase": [[v.numerator, v.denominator] for v in t.phase],
                "coeff": t.coeff.to_json(),
            } for t in self.terms],
        }

    @staticmethod
    def from_json(data, lf: LocalField) -> "StepFunction":
        blocks = []
        for desc in data["space"]:
            if desc[0] == "line":
                blocks.append(LineBlock(lf))
            else:
                blocks.append(QuadBlock(lf, Fraction(desc[1]), desc[2]))
        space = Space(lf, blocks)
        terms = []
        for td in data["terms"]:
            terms.append(Term(
                Cyc.from_json(td["coeff"], lf.p),
                [Fraction(n, d) for n, d in td["center"]],
                td["level"],
                [Fraction(n, d) for n, d in td.get(
                    "phase", [[0, 1]] * sum(
                        2 if b[0] == "quad" else 1 for b in data["space"]))]))
        return StepFunction(space, terms)

    def __repr__(self):
        return f"StepFunction({len(self.terms)} terms on {self.space})"


class MonomialGram:
    """A symmetric monomial matrix G with G[j, perm[j]] = scales[j]."""

    def __init__(self, perm, scales):
        self.perm = tuple(perm)
        self.scales = tuple(Fraction(s) for s in scales)
        for j, sj in enumerate(self.perm):
            if self.perm[sj] != j or self.scales[sj] != self.scales[j]:
                raise ValueError("Gram matrix not symmetric")

    @staticmethod
    def identity(n: int) -> "MonomialGram":
        return MonomialGram(range(n), [1] * n)


# ---------------------------------------------------------------------------
# box decompositions over Z_p


def _lattice_boxes(B, p: int):
    """Decompose the lattice B Z_p^n into standard boxes.

    Yields pairs (center, per-coordinate levels) so that the lattice is the
    disjoint union of center + diag(p^levels) Z_p^n.
    """
    n = len(B)
    U, d = smith_zp(B, p)
    # U is in GL_n(Z_p), so p^K Z^n sits inside the lattice once K >= max d
    K = max(d)
    levels = (K,) * n
    ranges = [p ** (K - di) for di in d]
    idx = [0] * n
    while True:
        vec = [Fraction(p) ** di * k for di, k in zip(d, idx)]
        center = tuple(
            sum(U[i][j] * vec[j] for j in range(n)) for i in range(n))
        yield center, levels
        j = 0
        while j < n:
            idx[j] += 1
            if idx[j] < ranges[j]:
                break
            idx[j] = 0
            j += 1
        else:
            break
