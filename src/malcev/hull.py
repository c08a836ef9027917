"""Lattice hulls, adapted bases, congruence sublattices, finite quotients.

The hull of a generated group is the minimal BCH-closed lattice containing
the generator logs.  Each closure round adds the coefficient vectors of BCH,
written in a basis of the current lattice, in the binomial basis: finite
differences of BCH values on the lattice, so every round stays inside the
hull, and the round cap only turns a bug into an error instead of a hang.
A lattice holding all of them is BCH-closed (Polya), so the fixed point is
the hull.  The adapted basis refines it along the lower central series.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import compiled, linalg
from .errors import CapExceeded, SublatticeError, UnsupportedInputForm
from .finite import FiniteGroup
from .lattices import (Coordinates, Lattice, hnf_lattice, intersect_subspace,
                       lattice_sum)
from .liealg import GroupElement, NilpotentLieAlgebra, vec

_ZERO = Fraction(0)


@dataclass(frozen=True)
class GenGroup:
    """A subgroup of exp(L) given by generator log vectors."""

    algebra: NilpotentLieAlgebra
    gen_logs: tuple
    filtered: bool = False

    def generators(self):
        return tuple(GroupElement(self.algebra, vec(g)) for g in self.gen_logs)


@dataclass
class HullResult:
    """The lattice hull with its adapted basis and coordinates.

    ``algebra`` is the working algebra: the original one, or its restriction
    to the Lie span of the generators (then ``embedding`` maps working
    coordinates back to the original ones).  ``basis`` is the adapted basis,
    made of per-layer bases of the lattice along the lower central series;
    ``layers[i]`` is its 1-based layer and ``d`` the abelianized rank.
    The coordinate maps read ``basis`` and the :class:`Coordinates` of the
    adapted basis in ``lattice`` (the lattice and one integer inverse).
    """

    algebra: NilpotentLieAlgebra
    lattice: Lattice
    basis: tuple
    layers: tuple
    d: int
    embedding: tuple | None = None
    adapted_algebra: NilpotentLieAlgebra = field(repr=False, default=None)
    _coordinates: Coordinates = field(repr=False, default=None)

    @property
    def layer_sizes(self):
        sizes = []
        for l in self.layers:
            while len(sizes) < l:
                sizes.append(0)
            sizes[l - 1] += 1
        return tuple(sizes)

    def to_adapted(self, v):
        """Adapted coordinates of a working vector."""
        return self._coordinates(v)

    def to_working(self, u):
        """The working vector with adapted coordinates u, summed over the
        nonzero coordinates and basis entries only."""
        out = [_ZERO] * self.algebra.dim
        for x, b in zip(u, self.basis):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[j] += x * y
        return tuple(out)

    def to_adapted_int(self, v):
        """Integer adapted coordinates of v, or None when v is outside the
        lattice: its lattice coordinates times the stored integer inverse."""
        return self._coordinates.integer(v)


def _closure_candidates(alg, lat):
    """Binomial-basis coefficient vectors of BCH written in the basis of lat:
    exp(lat) is closed under products exactly when all of them lie in lat."""
    return compiled.binomial_vectors(compiled.bch_symbolic(alg, lat.basis()))


def lattice_hull(group: GenGroup, max_rounds: int = 64) -> HullResult:
    """Minimal BCH-closed lattice containing the generator logs.

    If the generators do not span the algebra as a Lie algebra, the algebra
    is then restricted to the span of the hull, which is their Lie span.
    """
    alg = group.algebra
    lat = hnf_lattice([vec(g) for g in group.gen_logs], alg.dim)
    for _ in range(max_rounds):
        grown = lattice_sum(lat, hnf_lattice(_closure_candidates(alg, lat), alg.dim))
        if grown == lat:
            break
        lat = grown
    else:
        raise CapExceeded(f"hull closure did not stabilize in {max_rounds} rounds")
    embedding = None
    if lat.rank < alg.dim:
        embedding = tuple(linalg.span_basis(lat.basis()))
        coords = Coordinates.of_rows(embedding, alg.dim)
        alg = alg.restrict(embedding)
        lat = hnf_lattice([coords(b) for b in lat.basis()], alg.dim)
    basis, layers = adapted_basis(lat, alg)
    hull = HullResult(algebra=alg, lattice=lat, basis=tuple(basis),
                      layers=tuple(layers), d=layers.count(1),
                      embedding=embedding)
    _attach_adapted(hull)
    return hull


def hull_of_lattice(alg: NilpotentLieAlgebra, lat: Lattice) -> HullResult:
    """Hull of the group generated by exponentials of a lattice basis."""
    return lattice_hull(GenGroup(alg, tuple(lat.basis()), filtered=True))


def closure_certificate(hull: HullResult) -> bool:
    """Exact test that exp(hull.lattice) is closed under every product:
    true if and only if each binomial coefficient vector of BCH, written in
    the lattice basis, lies in the lattice (Polya; Cahen-Chabert 1997)."""
    return all(hull.lattice.member(c)
               for c in _closure_candidates(hull.algebra, hull.lattice))


def _attach_adapted(hull: HullResult) -> None:
    hull.adapted_algebra = hull.algebra.change_basis(hull.basis)[0]
    try:
        hull._coordinates = Coordinates(hull.lattice, hull.basis)
    except ValueError:
        raise RuntimeError("adapted basis is not a Z-basis of the hull"
                           " lattice") from None


def adapted_basis(lat: Lattice, alg: NilpotentLieAlgebra):
    """Adapted lattice basis: per-layer HNF bases of (lat & g_j)/(lat & g_j+1).

    Requires lat to be full rank in the algebra.  Returns (basis, layers)
    with layers[i] the 1-based lower-central-series layer of basis[i]; the
    vectors form a Z-basis of lat ordered by non-decreasing layer.
    """
    if lat.rank != alg.dim:
        raise SublatticeError("adapted basis needs a full-rank lattice")
    gammas = alg.lcs()  # gamma_1 .. gamma_{c+1}; last is empty
    basis = []
    layers = []
    for j in range(1, len(gammas)):
        upper = intersect_subspace(lat, gammas[j - 1])
        lower_space = gammas[j]
        layer_vectors = _layer_basis(upper, lower_space)
        basis.extend(layer_vectors)
        layers.extend([j] * len(layer_vectors))
    if len(basis) != alg.dim:
        raise SublatticeError("adapted basis construction did not fill the rank")
    return tuple(basis), tuple(layers)


def _layer_basis(upper_lat: Lattice, lower_space_rows):
    """Vectors of upper_lat whose classes give an HNF basis mod the subspace."""
    if upper_lat.rank == 0:
        return []
    # the lower space rows are independent: an lcs entry
    W = list(lower_space_rows)
    gens = upper_lat.basis()
    # the greedy complement E: the generators that are pivot columns of
    # the matrix with columns W, then gens
    pivots = linalg.rref(list(zip(*W, *gens)))[1]
    E = [gens[c - len(W)] for c in pivots[len(W):]]
    if not E:
        return []
    # coordinates of each generator along the complement part
    coords = Coordinates.of_rows(W + E, upper_lat.dim)
    proj = [coords(g)[len(W):] for g in gens]
    den = math.lcm(*(x.denominator for p in proj for x in p))
    int_rows = [[int(x * den) for x in p] for p in proj]
    H, U = linalg.hnf(int_rows, transform=True)
    # U * gens, read as integer combinations of the lattice rows over den
    cols, zero = tuple(zip(*upper_lat.rows)), Fraction(0)
    out = [tuple(Fraction(x, upper_lat.den) if x else zero
                 for x in linalg.mat_apply(cols, U[i])) for i in range(len(H))]
    if len(out) != len(E):
        raise RuntimeError("complement basis must have one vector per"
                           " extension generator")
    return out


def derived_lattice_data(group: GenGroup, hull: HullResult):
    """(d, lattice of log delta): rank of the free abelianization and L & L'."""
    derived = hull.algebra.derived_subspace()
    return hull.d, intersect_subspace(hull.lattice, derived)


ESCALATION_CAP = 6


def congruence_quotient(hull: HullResult, m: int):
    """(s, exp(lat)/exp(s*lat)) for the smallest s = m * lcm(1..c)^e
    (e <= ESCALATION_CAP) with exp(s*lat) a verified normal subgroup."""
    if m < 1:
        raise ValueError("level must be >= 1")
    P = math.lcm(*range(1, hull.algebra.nilpotency_class + 1))
    s = m
    for _ in range(ESCALATION_CAP + 1):
        try:
            return s, LatticeQuotient(hull, s)
        except SublatticeError:
            s *= P
    raise CapExceeded("no BCH-closed scaled lattice within the escalation cap")


def congruence_scale(hull: HullResult, m: int) -> int:
    """The scale s of ``congruence_quotient(hull, m)``."""
    return congruence_quotient(hull, m)[0]


class LatticeQuotient:
    """The congruence quotient exp(lat)/exp(s*lat) without a Cayley table.

    The adapted basis is a Z-basis of lat, so s*lat is s*Z^k there and the
    elements are the points of the box [0, s)^k, reduced entrywise mod s.
    Every operation works on the reps mod s: a product is one compiled-BCH
    ``eval_mod`` of the concatenated reps, and since these are exp
    coordinates, a power scales the rep by n and the inverse negates it.
    """

    def __init__(self, hull: HullResult, s: int):
        if type(s) is not int or s < 1:
            raise ValueError(f"congruence scale must be an int >= 1, got {s!r}")
        self.hull = hull
        self.s = s
        self.k = hull.adapted_algebra.dim
        self.order = s ** self.k
        self._bch = hull.adapted_algebra.bch_compiled()
        self._verify_normal()

    def _in_sub(self, w) -> bool:
        return all(x.denominator == 1 and x.numerator % self.s == 0 for x in w)

    def _verify_normal(self):
        """exp(s*lat) is a normal subgroup: the binomial coefficient vectors
        of BCH in its basis (the compiled BCH, a degree-d coefficient num/den
        read as num*s^d/den) and its k^2 conjugates u*(s*e_j)*u^-1 by unit
        vectors u stay in s*lat.  ``eval_int`` is exact on a BCH-closed lat;
        a lat built by hand that is not falls back to ``eval_rat``."""
        s, k, bch = self.s, self.k, self._bch
        scaled = [{mono: Fraction(num * s ** len(mono), den) for num, mono in terms}
                  for den, terms in bch.coords]
        if not all(map(self._in_sub, compiled.binomial_vectors(scaled))):
            raise SublatticeError("sublattice is not BCH-closed")
        for i, j in itertools.product(range(k), repeat=2):
            u = tuple(int(i == t) for t in range(k))
            args = tuple(s * (j == t) for t in range(k)) + tuple(-x for x in u)
            try:
                conj = bch.eval_int(u + bch.eval_int(args))
            except ArithmeticError:
                conj = bch.eval_rat(u + bch.eval_rat(args))
            if not self._in_sub(conj):
                raise SublatticeError("sublattice is not normal in the hull")

    def reduce(self, v):
        """Canonical coset representative of an integer adapted vector."""
        s = self.s
        return tuple([x % s for x in v])

    def index_of(self, rep) -> int:
        """rep read as base-s digits, most significant first."""
        idx = 0
        for x in rep:
            idx = idx * self.s + x
        return idx

    def elements(self):
        """The box [0, s)^k in lexicographic order, which is index order."""
        return itertools.product(range(self.s), repeat=self.k)

    def mul(self, a, b):
        return self._bch.eval_mod(a + b, self.s)

    def inv(self, a):
        s = self.s
        return tuple([-x % s for x in a])

    def power(self, a, n: int):
        s = self.s
        return tuple([n * x % s for x in a])

    def reduce_working(self, v):
        """Reduce a working-coordinate lattice vector to its representative."""
        u = self.hull.to_adapted_int(v)
        if u is None:
            raise SublatticeError("vector is not in the hull lattice")
        return self.reduce(u)


def finite_quotient(q: LatticeQuotient, cap: int = 4096) -> FiniteGroup:
    """Cayley-table group of q on its canonical reps; identity has index 0."""
    if q.order > cap:
        raise CapExceeded(f"quotient order {q.order} exceeds cap {cap}")
    reps = list(q.elements())
    return FiniteGroup(tuple(tuple(q.index_of(q.mul(a, b)) for b in reps)
                             for a in reps))


def group_index_in_hull(group: GenGroup, hull: HullResult) -> int:
    """[hull group : generated group] for a filtered generating sequence.

    Exact subgroup indices for arbitrary generator sets would need polycyclic
    collection, which is out of scope; for a filtered (Mal'cev) sequence the
    index is |det| of the generator log coordinates in the hull lattice
    basis: the product of the pivots of their HNF.
    """
    if not group.filtered:
        raise UnsupportedInputForm("index computation needs a filtered sequence")
    logs = group.gen_logs
    if hull.embedding is not None:
        raise UnsupportedInputForm("index computation needs full-span generators")
    k = hull.algebra.dim
    if len(logs) != k:
        raise UnsupportedInputForm("filtered sequence must have one generator"
                                   " per dimension")
    rows = []
    for g in logs:
        c = hull.lattice.coords(vec(g))
        if c is None:
            raise SublatticeError("generator log outside the hull lattice")
        rows.append(c)
    H = linalg.hnf(rows)
    if len(H) < k:
        raise UnsupportedInputForm("generator logs are linearly dependent")
    return math.prod(row[i] for i, row in enumerate(H))
