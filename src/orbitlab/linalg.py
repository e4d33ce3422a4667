"""Exact linear algebra over the fields orbitlab computes in.

Matrices are lists of row lists.  Entries are Fraction over the base field
or Q2 over a quadratic extension; every routine takes its zero and one from
the entries themselves, so one implementation serves both.  Determinant,
inverse, linear solve and nullspace share a single Gauss-Jordan reduction
(Cohen, A Course in Computational Algebraic Number Theory, GTM 138, 2.2).
"""

from __future__ import annotations

from fractions import Fraction

from .scalar import valuation


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    return [[sum((A[i][t] * B[t][j] for t in range(k)),
                 A[0][0] - A[0][0]) for j in range(m)] for i in range(n)]


def mat_vec(A, v):
    return [sum((A[i][j] * v[j] for j in range(len(v))), A[0][0] - A[0][0])
            for i in range(len(A))]


def vec_mat(v, A):
    return [sum((v[i] * A[i][j] for i in range(len(v))), A[0][0] - A[0][0])
            for j in range(len(A[0]))]


def mat_pow_vec(A, k, v):
    for _ in range(k):
        v = mat_vec(A, v)
    return v


def mat_transpose(A):
    return [list(col) for col in zip(*A)]


def char_poly(A):
    """Coefficients (c_0, ..., c_n) of det(tI - A), ascending, c_n = 1.
    Faddeev-LeVerrier; needs only division by integers."""
    n = len(A)
    zero = A[0][0] - A[0][0]
    one = zero + 1
    coeffs = [one]  # leading
    M = [row[:] for row in A]
    for k in range(1, n + 1):
        tr = sum((M[i][i] for i in range(n)), zero)
        c = -tr / k
        coeffs.append(c)
        if k < n:
            for i in range(n):
                M[i][i] = M[i][i] + c
            M = mat_mul(A, M)
    return tuple(reversed(coeffs))


# ---------------------------------------------------------------------------
# Gauss-Jordan reduction and what is built on it


def _gauss_jordan(rows, ncols):
    """Reduced row echelon form of rows, pivoting in the first ncols
    columns only.

    Returns (R, pivots, factor): R is the reduced copy (pivot entries 1,
    pivot columns otherwise 0), pivots[i] is the pivot column of row i,
    and factor is the product of the pivots before scaling, signed by the
    row swaps.  When the first ncols columns form a square matrix of full
    rank, factor is its determinant.
    """
    M = [row[:] for row in rows]
    zero = M[0][0] - M[0][0]
    one = zero + 1
    factor = one
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            M[r], M[piv] = M[piv], M[r]
            factor = -factor
        factor = factor * M[r][c]
        inv = one / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
        if len(pivots) == len(M):
            break
    return M, pivots, factor


def mat_det(A):
    n = len(A)
    _, pivots, factor = _gauss_jordan(A, n)
    return factor if len(pivots) == n else A[0][0] - A[0][0]


def mat_inverse(A):
    """The inverse of a square matrix; ValueError when it is singular."""
    n = len(A)
    zero = A[0][0] - A[0][0]
    one = zero + 1
    aug = [row[:] + [one if i == j else zero for j in range(n)]
           for i, row in enumerate(A)]
    R, pivots, _ = _gauss_jordan(aug, n)
    if len(pivots) < n:
        raise ValueError("singular matrix")
    return [row[n:] for row in R]


def solve(A, b):
    """The solution x of A x = b for square A; ValueError when A is
    singular."""
    n = len(A)
    R, pivots, _ = _gauss_jordan([row[:] + [c] for row, c in zip(A, b)], n)
    if len(pivots) < n:
        raise ValueError("singular matrix")
    return [row[n] for row in R]


def nullspace(A):
    """A basis of {x : A x = 0}, one vector per free column of the reduced
    form, with 1 in that column and 0 in the other free columns."""
    ncols = len(A[0])
    R, pivots, _ = _gauss_jordan(A, ncols)
    zero = A[0][0] - A[0][0]
    one = zero + 1
    out = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [zero] * ncols
        vec[fc] = one
        for i, pc in enumerate(pivots):
            vec[pc] = -R[i][fc]
        out.append(vec)
    return out


def d_resultant(coeffs1, coeffs2) -> Fraction:
    """prod (x1 - x2) over roots x1 of the first monic polynomial and x2
    of the second (ascending coefficients), as the determinant of their
    Sylvester matrix."""
    f = [Fraction(c) for c in reversed(coeffs1)]
    g = [Fraction(c) for c in reversed(coeffs2)]
    m, n = len(f) - 1, len(g) - 1
    zero = Fraction(0)
    rows = [[zero] * i + f + [zero] * (n - 1 - i) for i in range(n)]
    rows += [[zero] * i + g + [zero] * (m - 1 - i) for i in range(m)]
    return mat_det(rows)


# ---------------------------------------------------------------------------
# lattices over Z_p


def smith_zp(B, p: int):
    """Z_p-Smith form: returns (U, d) with B Z_p^n = U diag(p^{d_i}) Z_p^n
    and U in GL_n(Z_p), all entries exact rationals.

    Row operations E on the working matrix are compensated by the column
    operation U -> U E^{-1}, keeping B Z_p^n = U M Z_p^n; column operations
    on M leave the lattice unchanged.
    """
    n = len(B)
    M = [row[:] for row in B]
    U = [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
         for i in range(n)]
    d = [0] * n
    for k in range(n):
        best = None
        bv = None
        for i in range(k, n):
            for j in range(k, n):
                if M[i][j]:
                    v = valuation(M[i][j], p)
                    if bv is None or v < bv:
                        bv, best = v, (i, j)
        if best is None:
            raise ValueError("singular lattice matrix")
        bi, bj = best
        if bi != k:
            M[k], M[bi] = M[bi], M[k]
            for row in U:
                row[k], row[bi] = row[bi], row[k]
        for row in M:
            row[k], row[bj] = row[bj], row[k]
        piv = M[k][k]
        # clear the column below using integral multipliers
        for i in range(k + 1, n):
            if M[i][k]:
                fac = M[i][k] / piv
                M[i] = [a - fac * b for a, b in zip(M[i], M[k])]
                for row in U:
                    row[k] += fac * row[i]
        # clear the row to the right (column ops on M only)
        for j in range(k + 1, n):
            if M[k][j]:
                fac = M[k][j] / piv
                for row in M:
                    row[j] -= fac * row[k]
        d[k] = valuation(piv, p)
        # absorb the unit part of the pivot by a unit column op on M
        unit = piv / Fraction(p) ** d[k]
        for row in M:
            row[k] /= unit
    return U, d
