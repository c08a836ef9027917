"""Exact matrix log/exp on unitriangular matrices, and Tr_0(n, Q) as data.

Matrices are tuples of row tuples of Fractions.  Both series are finite for
(uni)triangular input, so the maps are exact mutually inverse bijections.
"""

from __future__ import annotations

from fractions import Fraction

from .liealg import NilpotentLieAlgebra
from .linalg import mat_mul


def as_matrix(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(a, b))


def mat_scale(q, a):
    q = Fraction(q)
    return tuple(tuple(q * x for x in row) for row in a)


def identity(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def zero(n):
    return tuple((Fraction(0),) * n for _ in range(n))


def is_strictly_upper(m) -> bool:
    n = len(m)
    return all(len(row) == n for row in m) and \
        all(m[i][j] == 0 for i in range(n) for j in range(n) if j <= i)


def is_unitriangular(m) -> bool:
    n = len(m)
    return all(len(row) == n for row in m) and \
        all(m[i][j] == (1 if i == j else 0)
            for i in range(n) for j in range(n) if j <= i)


def matrix_exp(nilpotent):
    """exp(N) = sum N^i / i! -- finite since N is strictly upper triangular."""
    N = as_matrix(nilpotent)
    if not is_strictly_upper(N):
        raise ValueError("matrix_exp needs a strictly upper triangular matrix")
    n = len(N)
    out = identity(n)
    term = identity(n)
    fact = 1
    for i in range(1, n):
        term = mat_mul(term, N)
        fact *= i
        out = mat_add(out, mat_scale(Fraction(1, fact), term))
    return out


def matrix_log(unitriangular):
    """log(U) = sum (-1)^(i+1) (U-I)^i / i -- finite, exact inverse of exp."""
    U = as_matrix(unitriangular)
    if not is_unitriangular(U):
        raise ValueError("matrix_log needs a unitriangular matrix")
    n = len(U)
    N = mat_add(U, mat_scale(-1, identity(n)))
    out = zero(n)
    term = identity(n)
    for i in range(1, n):
        term = mat_mul(term, N)
        out = mat_add(out, mat_scale(Fraction((-1) ** (i + 1), i), term))
    return out


def commutator(a, b):
    return mat_add(mat_mul(a, b), mat_scale(-1, mat_mul(b, a)))


def tr0_pairs(n):
    """Basis index order for Tr_0(n): pairs (i, j), i<j, graded by j - i."""
    return [(i, i + w) for w in range(1, n) for i in range(n - w)]


def tr0_algebra(n: int):
    """Tr_0(n, Q) as an abstract structure-constant algebra.

    Returns (algebra, pairs) where pairs[l] is the matrix position of basis
    vector l; [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb.
    """
    pairs = tr0_pairs(n)
    index = {p: l for l, p in enumerate(pairs)}
    k = len(pairs)
    table = {}
    for l1, (a, b) in enumerate(pairs):
        for l2, (c, d) in enumerate(pairs):
            if l1 >= l2:
                continue
            out = [Fraction(0)] * k
            if b == c:
                out[index[(a, d)]] += 1
            if d == a:
                out[index[(c, b)]] -= 1
            if any(out):
                table[(l1, l2)] = tuple(out)
    return NilpotentLieAlgebra(k, table, max(n - 1, 0)), pairs


def coords_from_matrix(n, m, pairs=None):
    pairs = pairs or tr0_pairs(n)
    return tuple(Fraction(m[i][j]) for (i, j) in pairs)


def matrix_from_coords(n, coords, pairs=None):
    pairs = pairs or tr0_pairs(n)
    out = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), c in zip(pairs, coords):
        out[i][j] = Fraction(c)
    return tuple(tuple(row) for row in out)
