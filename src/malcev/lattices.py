"""Z-lattices inside Q^k with a syntactic canonical form.

A :class:`Lattice` stores the Hermite normal form of the denominator-cleared
basis together with the single common denominator, normalized so that two
lattices are equal iff their stored data are identical.  All queries
(membership, index, quotient invariants, sums, intersections) are exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from . import linalg
from .errors import DimensionMismatch, SublatticeError


def _as_fraction_vec(v, dim):
    if len(v) != dim:
        raise DimensionMismatch(f"vector of length {len(v)} in ambient dimension {dim}")
    return tuple(Fraction(x) for x in v)


class Lattice:
    """A finitely generated Z-submodule of Q^k in canonical form.

    ``rows`` is the integer HNF basis and ``den`` the common denominator:
    the lattice is spanned by ``rows[i] / den``.  The pair is reduced so the
    representation is unique; equality and hashing are syntactic.
    """

    __slots__ = ("dim", "den", "rows")

    def __init__(self, dim: int, den: int, rows):
        # trusted constructor: use hnf_lattice / from_den_rows to build
        self.dim = dim
        self.den = den
        self.rows = rows

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_den_rows(dim: int, den: int, int_rows) -> "Lattice":
        """Canonicalize the lattice spanned by int_rows / den."""
        if den <= 0:
            raise ValueError("denominator must be positive")
        rows = linalg.hnf([r for r in int_rows if any(r)])
        g = den
        for row in rows:
            for x in row:
                g = gcd(g, x)
            if g == 1:
                break
        if g > 1:
            rows = [tuple(x // g for x in row) for row in rows]
            den //= g
        return Lattice(dim, den, tuple(tuple(r) for r in rows))

    # -- basic queries -----------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.rows)

    def basis(self):
        """Basis as tuples of Fractions (rows of the canonical form / den)."""
        d = self.den
        return tuple(tuple(Fraction(x, d) for x in row) for row in self.rows)

    def member(self, v) -> bool:
        """True iff v is a Z-combination of the basis."""
        v = _as_fraction_vec(v, self.dim)
        w = []
        for x in v:
            y = x * self.den
            if y.denominator != 1:
                return False
            w.append(y.numerator)
        for row in self.rows:
            c = next((j for j, x in enumerate(row) if x), None)
            if c is None:
                continue
            if w[c] % row[c]:
                return False
            q = w[c] // row[c]
            if q:
                w = [a - q * b for a, b in zip(w, row)]
        return not any(w)

    def coords(self, v):
        """Integer coordinates of v in the basis, or None."""
        v = _as_fraction_vec(v, self.dim)
        c = linalg.solve_coords(self.basis(), v)
        if c is None or any(x.denominator != 1 for x in c):
            return None
        return tuple(int(x) for x in c)

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Lattice) and self.dim == other.dim
                and self.den == other.den and self.rows == other.rows)

    def __hash__(self):
        return hash((self.dim, self.den, self.rows))

    def __repr__(self):
        return f"Lattice(dim={self.dim}, den={self.den}, rows={self.rows})"

    def scale(self, s) -> "Lattice":
        """The lattice s * self for a nonzero rational s."""
        s = Fraction(s)
        num, d = abs(s.numerator), s.denominator
        return Lattice.from_den_rows(
            self.dim, self.den * d,
            [tuple(x * num for x in row) for row in self.rows])


def hnf_lattice(vectors, dim: int | None = None) -> Lattice:
    """Z-span of the given rational row vectors, in canonical form."""
    vectors = list(vectors)
    if not vectors and dim is None:
        raise ValueError("empty generating set needs an explicit dimension")
    if dim is None:
        dim = len(vectors[0])
    vecs = [_as_fraction_vec(v, dim) for v in vectors]
    den = lcm(*(x.denominator for v in vecs for x in v))
    int_rows = [tuple(int(x * den) for x in v) for v in vecs]
    return Lattice.from_den_rows(dim, den, int_rows)


def lattice_sum(a: Lattice, b: Lattice) -> Lattice:
    if a.dim != b.dim:
        raise DimensionMismatch("lattice sum of different ambient dimensions")
    return hnf_lattice(list(a.basis()) + list(b.basis()), a.dim)


def lattice_intersect(a: Lattice, b: Lattice) -> Lattice:
    """Exact intersection, via the kernel of the stacked basis matrix."""
    if a.dim != b.dim:
        raise DimensionMismatch("lattice intersection of different ambient dimensions")
    if not a.rows or not b.rows:
        return hnf_lattice([], a.dim)
    den = lcm(a.den, b.den)
    arows = [[x * (den // a.den) for x in row] for row in a.rows]
    brows = [[x * (den // b.den) for x in row] for row in b.rows]
    stacked = arows + [[-x for x in row] for row in brows]
    kernel = linalg.left_kernel(stacked)
    ra = len(arows)
    rows = []
    for combo in kernel:
        rows.append(tuple(sum(combo[i] * arows[i][j] for i in range(ra))
                          for j in range(a.dim)))
    return Lattice.from_den_rows(a.dim, den, rows)


def _coordinate_matrix(outer: Lattice, inner: Lattice):
    """Rational matrix T with inner basis == T * outer basis (rows)."""
    if outer.dim != inner.dim:
        raise DimensionMismatch("lattices in different ambient dimensions")
    ob = outer.basis()
    rows = []
    for v in inner.basis():
        c = linalg.solve_coords(ob, v)
        if c is None:
            raise SublatticeError("unequal spans: inner basis vector outside outer span")
        rows.append(c)
    return rows


def lattice_index(outer: Lattice, inner: Lattice) -> int:
    """|outer / inner| for full-rank inner <= outer in the same Q-span."""
    T = _coordinate_matrix(outer, inner)
    if len(T) != outer.rank:
        raise SublatticeError("unequal spans: ranks differ")
    for row in T:
        if any(x.denominator != 1 for x in row):
            raise SublatticeError("not a sublattice: non-integer coordinates")
    d = linalg.det(T)
    if d == 0:
        raise SublatticeError("unequal spans: inner basis is degenerate")
    return abs(int(d))

def smith_quotient(outer: Lattice, inner: Lattice):
    """Invariant factors d1 | d2 | ... of outer/inner (factors 1 omitted)."""
    T = _coordinate_matrix(outer, inner)
    if len(T) != outer.rank:
        raise SublatticeError("unequal spans: ranks differ")
    int_rows = []
    for row in T:
        if any(x.denominator != 1 for x in row):
            raise SublatticeError("not a sublattice: non-integer coordinates")
        int_rows.append([int(x) for x in row])
    return linalg.snf_invariants(int_rows)


def intersect_subspace(lat: Lattice, subspace_rows) -> Lattice:
    """The sublattice of lat lying in the Q-span of subspace_rows."""
    if not lat.rows:
        return lat
    basis = lat.basis()
    sub = [r for r in subspace_rows if any(Fraction(x) for x in r)]
    if not sub:
        return hnf_lattice([], lat.dim)
    # integer conditions cutting out the subspace: c with S * c == 0
    S = []
    for row in sub:
        row = [Fraction(x) for x in row]
        den = lcm(*(x.denominator for x in row))
        S.append([int(x * den) for x in row])
    cond = linalg.right_kernel(S, lat.dim)
    if not cond:
        return lat
    # evaluate each condition on each lattice basis vector
    M = [[sum(v[j] * c[j] for j in range(lat.dim)) for c in cond] for v in basis]
    den = lcm(*(x.denominator for row in M for x in row))
    Mi = [[int(x * den) for x in row] for row in M]
    combos = linalg.left_kernel(Mi)
    vecs = [tuple(sum(Fraction(cb[i]) * basis[i][j] for i in range(len(basis)))
                  for j in range(lat.dim)) for cb in combos]
    return hnf_lattice(vecs, lat.dim)
