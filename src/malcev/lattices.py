"""Z-lattices inside Q^k with a syntactic canonical form.

A :class:`Lattice` stores the Hermite normal form of the denominator-cleared
basis together with the single common denominator, normalized so that two
lattices are equal iff their stored data are identical.  All queries
(membership, index, quotient invariants, sums, intersections) are exact and
read the integer rows over the one denominator.  Input vectors are read on
their entries' integer numerators, with no Fraction made: constructors clear
denominators with :func:`integer_rows`, and membership and coordinates are
one back-substitution, :meth:`Lattice.coords`, which :class:`Coordinates`
turns into exact coordinates in any basis of rational rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from . import linalg
from .errors import DimensionMismatch, SublatticeError


_ZERO = Fraction(0)
_RATIONAL = (int, Fraction)


def integer_rows(vectors, dim: int | None = None):
    """(den, rows): the vectors as integer rows over their entries' least
    common denominator, read on each int or Fraction entry's numerator and
    denominator (any other entry goes through Fraction first)."""
    pairs = []
    for v in vectors:
        if dim is not None and len(v) != dim:
            raise DimensionMismatch(
                f"vector of length {len(v)} in ambient dimension {dim}")
        pairs.append([(x if type(x) in _RATIONAL else Fraction(x)).as_integer_ratio()
                      for x in v])
    den = lcm(*{d for p in pairs for _, d in p})
    return den, [tuple([n * (den // d) for n, d in p]) for p in pairs]


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
        return self.coords(v) is not None

    def coords(self, v, n: int = 1):
        """Integer coordinates of n * v in the basis, or None.

        One back-substitution of n * v * den, read on the entries' integer
        numerators (one divmod each: a remainder means it is outside), along
        the pivots of the HNF rows: each coordinate is the quotient at its
        row's pivot column, and it is in the lattice iff nothing is left over.
        """
        if len(v) != self.dim:
            raise DimensionMismatch(f"vector of length {len(v)} in ambient dimension {self.dim}")
        nd, w = n * self.den, []
        for x in v:
            q, r = divmod(x.numerator * nd, x.denominator)
            if r:
                return None
            w.append(q)
        out = []
        for row in self.rows:
            c = next(j for j, x in enumerate(row) if x)
            q = w[c] // row[c]
            if q:
                w = [a - q * b for a, b in zip(w, row)]
            out.append(q)
        return None if any(w) else tuple(out)

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


def hnf_lattice(vectors, dim: int | None = None, den: int | None = None) -> Lattice:
    """Z-span of the given rational row vectors, in canonical form; with
    ``den``, of integer rows over den, which go to the HNF as they are."""
    vectors = list(vectors)
    if not vectors and dim is None:
        raise ValueError("empty generating set needs an explicit dimension")
    if dim is None:
        dim = len(vectors[0])
    if den is None:
        den, vectors = integer_rows(vectors, dim)
    return Lattice.from_den_rows(dim, den, vectors)


class Coordinates:
    """Exact coordinates in ``rows``, a Z-basis of ``lattice``.

    The rows' lattice coordinates form a unimodular matrix; the columns of
    its integer inverse turn lattice coordinates into row coordinates (an
    identity inverse, when the rows are the HNF basis, is not stored).  For
    v in the Q-span, N * v is in the lattice when N is the lcm of v's
    denominators times the product of the HNF pivots (Cramer on the pivot
    columns), so one :meth:`Lattice.coords` of N * v answers every query;
    the only Fractions it makes are the returned coordinates.
    """

    __slots__ = ("lattice", "_columns", "_pivots")

    def __init__(self, lattice: Lattice, rows):
        if len(rows) != lattice.rank:
            raise ValueError("basis rows are linearly dependent")
        A = [lattice.coords(r) for r in rows]
        inv = None if None in A else linalg.unimodular_inverse(A)
        if inv is None:
            raise ValueError("rows are not a Z-basis of the lattice")
        self.lattice = lattice
        self._columns = (None if tuple(inv) == linalg.mat_identity(len(inv))
                         else tuple(zip(*inv)))
        self._pivots = prod(next(x for x in row if x) for row in lattice.rows)

    @staticmethod
    def of_rows(rows, dim: int) -> "Coordinates":
        """Coordinates in linearly independent rational rows of length dim."""
        return Coordinates(hnf_lattice(rows, dim), rows)

    def integer(self, v):
        """Integer coordinates of v, or None when v is outside the lattice."""
        c = self.lattice.coords(v)
        return (c if c is None or self._columns is None
                else linalg.mat_apply(self._columns, c))

    def __call__(self, v):
        """Rational coordinates of v, or None when v is outside the Q-span."""
        n = lcm(*(x.denominator for x in v)) * self._pivots
        c = self.lattice.coords(v, n)
        if c is None:
            return None
        if self._columns is not None:
            c = linalg.mat_apply(self._columns, c)
        return tuple(Fraction(x, n) if x else _ZERO for x in c)


def lattice_sum(a: Lattice, b: Lattice) -> Lattice:
    if a.dim != b.dim:
        raise DimensionMismatch("lattice sum of different ambient dimensions")
    den = lcm(a.den, b.den)
    return hnf_lattice([tuple(x * (den // l.den) for x in row)
                        for l in (a, b) for row in l.rows], a.dim, den)


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
    """Integer matrix T with inner basis == T * outer basis (rows), for a
    sublattice inner of outer with the same rank."""
    if outer.dim != inner.dim:
        raise DimensionMismatch("lattices in different ambient dimensions")
    if inner.rank != outer.rank:
        raise SublatticeError("unequal spans: ranks differ")
    rows = [outer.coords(v) for v in inner.basis()]
    if None in rows:
        raise SublatticeError("not a sublattice: inner basis vector outside"
                              " the outer lattice")
    return rows


def lattice_index(outer: Lattice, inner: Lattice) -> int:
    """|outer / inner| for full-rank inner <= outer in the same Q-span: the
    product of the HNF pivots of the (nonsingular) coordinate matrix."""
    H = linalg.hnf(_coordinate_matrix(outer, inner))
    return prod(row[i] for i, row in enumerate(H))


def smith_quotient(outer: Lattice, inner: Lattice):
    """Invariant factors d1 | d2 | ... of outer/inner (factors 1 omitted)."""
    return linalg.snf_invariants(_coordinate_matrix(outer, inner))


def intersect_subspace(lat: Lattice, subspace_rows) -> Lattice:
    """The sublattice of lat lying in the Q-span of subspace_rows."""
    if not lat.rows:
        return lat
    # integer conditions cutting out the subspace: c with S * c == 0
    S = [row for row in integer_rows(subspace_rows)[1] if any(row)]
    if not S:
        return hnf_lattice([], lat.dim)
    cond = linalg.right_kernel(S, lat.dim)
    if not cond:
        return lat
    # the integer combinations of the HNF rows on which every condition vanishes
    M = [[sum(a * b for a, b in zip(row, c)) for c in cond] for row in lat.rows]
    combos = linalg.left_kernel(M)
    return Lattice.from_den_rows(
        lat.dim, lat.den,
        [tuple(sum(cb[i] * row[j] for i, row in enumerate(lat.rows))
               for j in range(lat.dim)) for cb in combos])
