"""Exact integer / rational linear algebra kernels.

All arithmetic is done with Python ints and ``fractions.Fraction``; nothing
in this package ever touches floating point.  Matrices are sequences of row
vectors.  Integer routines (HNF, SNF, kernels) never leave the integers;
rational routines are plain Gaussian elimination over Fraction.
"""

from __future__ import annotations

from fractions import Fraction


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (x, y, g) with x*a + y*b == g == gcd(a, b) and g >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def hnf(rows, transform: bool = False):
    """Row-style Hermite normal form of an integer matrix.

    Returns the list of nonzero HNF rows (pivots positive, entries above a
    pivot reduced into [0, pivot)).  With ``transform=True`` also returns a
    unimodular U with ``U * rows == H`` padded by zero rows, so the tail rows
    of U are a basis of the left kernel.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    H = [list(map(int, r)) for r in rows]
    U = [[int(i == j) for j in range(m)] for i in range(m)] if transform else None
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if H[i][c]), None)
        if piv is None:
            continue
        H[r], H[piv] = H[piv], H[r]
        if U is not None:
            U[r], U[piv] = U[piv], U[r]
        for i in range(r + 1, m):
            if not H[i][c]:
                continue
            a, b = H[r][c], H[i][c]
            x, y, g = xgcd(a, b)
            ag, bg = a // g, b // g
            Hr, Hi = H[r], H[i]
            for j in range(n):
                t = x * Hr[j] + y * Hi[j]
                Hi[j] = ag * Hi[j] - bg * Hr[j]
                Hr[j] = t
            if U is not None:
                Ur, Ui = U[r], U[i]
                for j in range(m):
                    t = x * Ur[j] + y * Ui[j]
                    Ui[j] = ag * Ui[j] - bg * Ur[j]
                    Ur[j] = t
        if H[r][c] < 0:
            H[r] = [-v for v in H[r]]
            if U is not None:
                U[r] = [-v for v in U[r]]
        p = H[r][c]
        for i in range(r):
            q = H[i][c] // p
            if q:
                Hi, Hr = H[i], H[r]
                for j in range(n):
                    Hi[j] -= q * Hr[j]
                if U is not None:
                    Ui, Ur = U[i], U[r]
                    for j in range(m):
                        Ui[j] -= q * Ur[j]
        r += 1
        if r == m:
            break
    result = [tuple(row) for row in H[:r]]
    if transform:
        return result, [tuple(row) for row in U]
    return result


def unimodular_inverse(rows):
    """Integer inverse of a square integer matrix, or None if it is not
    unimodular: exactly then its HNF is the identity, and the HNF transform
    is the inverse."""
    n = len(rows)
    H, U = hnf(rows, transform=True)
    if H != [tuple(int(i == j) for j in range(n)) for i in range(n)]:
        return None
    return U


def left_kernel(rows):
    """Basis of {x in Z^m : x * rows == 0} (combinations of rows vanishing).

    The returned basis is saturated (it spans the full rational kernel and
    the quotient is torsion free); this is automatic for kernels.
    """
    m = len(rows)
    if m == 0:
        return []
    H, U = hnf(rows, transform=True)
    return [list(U[i]) for i in range(len(H), m)]


def right_kernel(rows, n_cols):
    """Basis of {v in Z^n : rows * v == 0}."""
    t = [[rows[i][j] for i in range(len(rows))] for j in range(n_cols)]
    return left_kernel(t)


def saturate_rows(rows, n_cols):
    """Saturation of the row lattice: (Q-row-span) intersected with Z^n.

    Computed as the kernel of the kernel; needs no fraction arithmetic.
    """
    live = [r for r in rows if any(r)]
    if not live:
        return []
    ker = right_kernel(live, n_cols)
    if not ker:
        return [list(r) for r in hnf([[int(i == j) for j in range(n_cols)]
                                      for i in range(n_cols)])]
    t = [[ker[i][j] for i in range(len(ker))] for j in range(n_cols)]
    return [list(r) for r in hnf(left_kernel(t))]


def snf_invariants(rows):
    """Nontrivial invariant factors d1 | d2 | ... of an integer matrix."""
    diag, _, _ = snf_with_transforms(rows)
    return [d for d in diag if d != 1]


def _hnf_beside(A, T, width):
    """Row HNF of [A | T] split back into its two parts.  T is unimodular,
    so no row vanishes, and the transform applied to A rides along in T."""
    H = hnf([list(a) + list(t) for a, t in zip(A, T)])
    return [h[:width] for h in H], [h[width:] for h in H]


def snf_with_transforms(rows, n_cols=None):
    """Smith form with transforms: returns (diag, U, V) with U*A*V diagonal.

    diag holds the positive diagonal entries, a divisibility chain, with the
    zeros omitted; U is m x m and V is n x n, both unimodular.  Row HNFs of
    A and of its transpose alternate until A is diagonal (Kannan and Bachem,
    1979): the leading pivot only shrinks, and once it stops shrinking its
    row and column stay clear.  A gcd/lcm step on each pair of diagonal
    entries then restores the divisibility chain (Cohen, GTM 138, 2.4).
    """
    m = len(rows)
    n = n_cols if n_cols is not None else (len(rows[0]) if m else 0)
    U = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    Vt = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    if not m or not n:
        return [], U, Vt
    A = rows
    while True:
        A, U = _hnf_beside(A, U, n)
        At, Vt = _hnf_beside(zip(*A), Vt, m)
        if not any(x for i, row in enumerate(At) for j, x in enumerate(row)
                   if i != j):
            break
        A = list(zip(*At))
    diag = [At[i][i] for i in range(min(m, n)) if At[i][i]]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            if b % a:
                # [[x, y], [-b/g, a/g]] diag(a, b) [[1, -yb/g], [1, xa/g]]
                # is diag(g, lcm(a, b)): one row and one column operation
                x, y, g = xgcd(a, b)
                ag, bg = a // g, b // g
                diag[i], diag[j] = g, ag * b
                Ui, Uj, Vi, Vj = U[i], U[j], Vt[i], Vt[j]
                U[i] = tuple(x * p + y * q for p, q in zip(Ui, Uj))
                U[j] = tuple(ag * q - bg * p for p, q in zip(Ui, Uj))
                Vt[i] = tuple(p + q for p, q in zip(Vi, Vj))
                Vt[j] = tuple(x * ag * q - y * bg * p for p, q in zip(Vi, Vj))
    return diag, U, list(zip(*Vt))


# ---------------------------------------------------------------------------
# rational elimination

def rref(rows):
    """Reduced row echelon form over Q.  Returns (rows, pivot_columns)."""
    M = [[x if type(x) is Fraction else Fraction(x) for x in r] for r in rows]
    m = len(M)
    n = len(M[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = 1 / M[r][c]
        # zero entries are skipped and kept as the objects they are
        M[r] = [v * inv if v else v for v in M[r]]
        for i in range(m):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [a - f * b if b else a for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return [tuple(row) for row in M[:r]], pivots


def span_basis(rows):
    """Echelonized basis of the Q-span of the given row vectors."""
    basis, _ = rref([r for r in rows if any(r)])
    return basis


def mat_apply(A, v):
    """Apply matrix A (list of rows) to column vector v."""
    return tuple(sum(a * x for a, x in zip(row, v)) for row in A)


def mat_mul(A, B):
    n = len(B)
    p = len(B[0])
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(n))
                       for j in range(p)) for i in range(len(A)))


def mat_identity(n, one=1):
    zero = 0 * one
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
