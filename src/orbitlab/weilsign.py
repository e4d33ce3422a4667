"""Quadratic-form indices on twisted self-adjoint matrix spaces: exact
F-bases, trace-form diagonalization, and the sign comparing the indices
attached to the two classes of Hermitian spaces of a given dimension.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclo import Cyc
from .integrals import nonnorm_scalar, weil_index_form
from .linalg import mat_mul, nullspace
from .quadext import Q2
from .scalar import LocalField
from .spaces import HermitianSpace


def selfadjoint_basis(space: HermitianSpace):
    """An F-basis of the self-adjoint matrices of a Hermitian space
    (conj(X)^t H = H X), found by exact nullspace computation."""
    n = space.n
    d0 = space.lf.d0
    N = 2 * n * n  # coords: (re, im) per matrix entry, row-major

    def entry(vec, i, j):
        k = 2 * (n * i + j)
        return Q2(d0, vec[k], vec[k + 1])

    rows = []
    H = space.gram
    for r in range(n):
        for s in range(n):
            # (sum_k conj(X)[r][k] H[k][s]) - (sum_k H[r][k] X[k][s]) = 0
            re = [Fraction(0)] * N
            im = [Fraction(0)] * N
            for k in range(n):
                # conj(X)[r][k] = conj of entry (k, r)
                a_idx = 2 * (n * k + r)
                h = H[k][s]
                re[a_idx] += h.a
                re[a_idx + 1] += -d0 * h.b
                im[a_idx] += h.b
                im[a_idx + 1] += -h.a
                b_idx = 2 * (n * k + s)
                h2 = H[r][k]
                re[b_idx] -= h2.a
                re[b_idx + 1] -= d0 * h2.b
                im[b_idx] -= h2.b
                im[b_idx + 1] -= h2.a
            rows.append(re)
            rows.append(im)
    basis_vecs = nullspace(rows)
    out = []
    for vec in basis_vecs:
        out.append([[entry(vec, i, j) for j in range(n)] for i in range(n)])
    return out


def trace_pairing(X, Y) -> Fraction:
    Z = mat_mul(X, Y)
    t = sum((Z[i][i] for i in range(len(Z))), Z[0][0] - Z[0][0])
    if t.b != 0:
        raise AssertionError("trace pairing of self-adjoint matrices "
                             "must lie in F")
    return t.a


def trace_form_diagonal(space: HermitianSpace):
    """Diagonal entries of tr(X^2) on the self-adjoint matrices, by exact
    Gram-Schmidt over F."""
    basis = selfadjoint_basis(space)
    gram = [[trace_pairing(a, b) for b in basis] for a in basis]
    return _diagonalize_sym(gram)


def _diagonalize_sym(G):
    n = len(G)
    if n == 0:
        return []
    # find a vector with nonzero self-pairing
    v = None
    for i in range(n):
        if G[i][i] != 0:
            v = [Fraction(1) if j == i else Fraction(0) for j in range(n)]
            break
    if v is None:
        for i in range(n):
            for j in range(i + 1, n):
                if G[i][j] != 0:
                    v = [Fraction(0)] * n
                    v[i] = v[j] = Fraction(1)
                    break
            if v is not None:
                break
    if v is None:
        raise ValueError("degenerate trace form")
    bv = lambda x, y: sum(x[i] * G[i][j] * y[j]
                          for i in range(n) for j in range(n))
    d = bv(v, v)
    # the G-orthogonal complement of v: the kernel of the row (G v)^t
    gv = [sum(G[i][j] * v[j] for j in range(n)) for i in range(n)]
    red = nullspace([gv])
    sub = [[bv(a, b) for b in red] for a in red]
    return [d] + _diagonalize_sym(sub)


def unitary_trace_index(lf: LocalField, space: HermitianSpace) -> Cyc:
    """The index of tr(X^2) on the self-adjoint matrices of the space."""
    return weil_index_form(lf, trace_form_diagonal(space))


def class_representatives(lf: LocalField, n: int):
    """Hermitian spaces of dimension n in the two classes."""
    s = nonnorm_scalar(lf)
    split = HermitianSpace.diagonal(lf, [1] * n)
    other = HermitianSpace.diagonal(lf, [1] * (n - 1) + [s])
    if split.class_bit() == other.class_bit():
        raise AssertionError("representatives fail to separate classes")
    return split, other


def index_ratio(lf: LocalField, n: int) -> Cyc:
    """The ratio of the trace-form indices over the two classes of
    n-dimensional Hermitian spaces."""
    w0, w1 = class_representatives(lf, n)
    return unitary_trace_index(lf, w0) * unitary_trace_index(lf, w1).inverse()
