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
from functools import cached_property

from . import compiled, linalg
from .errors import CapExceeded, SublatticeError, UnsupportedInputForm
from .finite import FiniteGroup
from .lattices import (Coordinates, Lattice, hnf_lattice, integer_rows,
                       intersect_subspace, lattice_index)
from .liealg import NilpotentLieAlgebra, vec

_ZERO = Fraction(0)


@dataclass(frozen=True)
class GenGroup:
    """A subgroup of exp(L) given by generator log vectors."""

    algebra: NilpotentLieAlgebra
    gen_logs: tuple
    filtered: bool = False


@dataclass
class HullResult:
    """The lattice hull with its adapted basis and coordinates.

    ``algebra`` is the working algebra: the original one, or its restriction
    to the Lie span of the generators (then ``embedding`` maps working
    coordinates back to the original ones).  ``basis`` is the adapted basis,
    made of per-layer bases of the lattice along the lower central series;
    ``layers[i]`` is its 1-based layer and ``d`` the abelianized rank.
    The coordinate maps read ``basis`` and the :class:`Coordinates` of the
    adapted basis in ``lattice`` (the lattice and one integer inverse),
    built with the hull.  ``adapted_algebra``, the structure constants in
    ``basis``, and the binomial table and conjugation verdict that every
    :class:`LatticeQuotient` of the hull reads are built on first read: a
    hull that is never asked for them does not pay for them.
    """

    algebra: NilpotentLieAlgebra
    lattice: Lattice
    basis: tuple
    layers: tuple
    d: int
    embedding: tuple | None = None
    _coordinates: Coordinates = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            self._coordinates = Coordinates(self.lattice, self.basis)
        except ValueError:
            raise RuntimeError("adapted basis is not a Z-basis of the hull"
                               " lattice") from None

    @cached_property
    def adapted_algebra(self) -> NilpotentLieAlgebra:
        return self.algebra.change_basis(self.basis)[0]

    @cached_property
    def _conjugates_integral(self) -> bool:
        """Whether every conjugate u*e_j*u^-1 of adapted unit vectors has
        integer adapted coordinates: k^2 exact ``eval_rat`` conjugates."""
        bch = self.adapted_algebra.bch_compiled()
        k = self.adapted_algebra.dim
        units = [tuple(int(i == t) for t in range(k)) for i in range(k)]
        for u in units:
            u_inv = tuple(-x for x in u)
            for e in units:
                if any(x.denominator != 1
                       for x in bch.eval_rat(u + bch.eval_rat(e + u_inv))):
                    return False
        return True

    @cached_property
    def _bch_binomial_table(self) -> tuple:
        """The adapted compiled BCH in the binomial basis, which the
        normality test of every LatticeQuotient reads: a pair
        (den, (c_1, .., c_top)) per binomial key and output coordinate, den
        the coordinate's denominator and c_d the key's coefficient in its
        degree-d monomials reduced mod den (BCH has no constant term).
        Pairs that are zero mod den, and repeats, are dropped."""
        bch = self.adapted_algebra.bch_compiled()
        top = bch.top
        by_degree = [{mono: num for num, mono in terms if len(mono) == d}
                     for _, terms in bch.coords for d in range(1, top + 1)]
        table = {}
        for v in compiled.binomial_vectors(by_degree):
            for l, (den, _) in enumerate(bch.coords):
                cs = tuple(c % den for c in v[l * top:(l + 1) * top])
                if any(cs):
                    table[den, cs] = None
        return tuple(table)

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

    def to_adapted_int(self, v):
        """Integer adapted coordinates of v, or None when v is outside the
        lattice: its lattice coordinates times the stored integer inverse."""
        return self._coordinates.integer(v)


def _closure_candidates(alg, lat):
    """Binomial-basis coefficient vectors of BCH written in the basis of lat,
    as integer rows over ``compiled.bch_denominator(alg, lat.den)``: exp(lat)
    is closed under products exactly when all of them lie in lat."""
    _, polys = compiled.bch_integer(alg, lat.den, lat.rows)
    return compiled.binomial_vectors(polys)


def _closure_round(alg, lat) -> Lattice:
    """lat plus the span of its closure candidates, in one HNF over
    T = ``compiled.bch_denominator(alg, lat.den)``: the lattice rows, scaled
    to T, go first, so the elimination pivots on them before it reaches the
    large candidate entries.  A Lattice is canonical, so this is the sum of
    lat and the candidates' own HNF.  No Fraction is made on the way."""
    T = compiled.bch_denominator(alg, lat.den)
    q, r = divmod(T, lat.den)
    if r:
        raise RuntimeError("BCH denominator is not a multiple of the lattice's")
    return hnf_lattice([tuple(q * x for x in row) for row in lat.rows]
                       + _closure_candidates(alg, lat), alg.dim, T)


def lattice_hull(group: GenGroup, max_rounds: int = 64) -> HullResult:
    """Minimal BCH-closed lattice containing the generator logs.

    If the generators do not span the algebra as a Lie algebra, the algebra
    is then restricted to the span of the hull, which is their Lie span.
    """
    alg = group.algebra
    lat = hnf_lattice([vec(g) for g in group.gen_logs], alg.dim)
    for _ in range(max_rounds):
        grown = _closure_round(alg, lat)
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
    return HullResult(algebra=alg, lattice=lat, basis=tuple(basis),
                      layers=tuple(layers), d=layers.count(1),
                      embedding=embedding)


def hull_of_lattice(alg: NilpotentLieAlgebra, lat: Lattice) -> HullResult:
    """Hull of the group generated by exponentials of a lattice basis."""
    return lattice_hull(GenGroup(alg, tuple(lat.basis()), filtered=True))


def closure_certificate(hull: HullResult) -> bool:
    """Exact test that exp(hull.lattice) is closed under every product:
    true if and only if each binomial coefficient vector of BCH, written in
    the lattice basis, lies in the lattice (Polya; Cahen-Chabert 1997)."""
    return _closure_round(hull.algebra, hull.lattice) == hull.lattice


def adapted_basis(lat: Lattice, alg: NilpotentLieAlgebra):
    """Adapted lattice basis: per-layer HNF bases of (lat & g_j)/(lat & g_j+1).

    Requires lat to be full rank in the algebra.  Returns (basis, layers)
    with layers[i] the 1-based lower-central-series layer of basis[i]; the
    vectors form a Z-basis of lat ordered by non-decreasing layer.

    When every g_j is spanned by the last dim g_j unit vectors (a coordinate
    flag, as on Hall bases and Tr_0(n); the algebra records this once, with
    its lower central series), the HNF rows of lat are already adapted: row i
    has its pivot at column i, and in echelon form the rows with pivot
    >= k - dim g_j span lat & g_j.  Otherwise the lattice chain lat & g_j is
    walked down, one intersection and one :func:`_layer_basis` per layer.
    """
    if lat.rank != alg.dim:
        raise SublatticeError("adapted basis needs a full-rank lattice")
    gammas = alg.lcs()  # gamma_1 (the identity rows) .. gamma_{c+1} = empty
    if alg._on_flag:
        den = lat.den
        return (tuple(tuple(Fraction(x, den) if x else _ZERO for x in row)
                      for row in lat.rows),
                tuple(j for j in range(1, len(gammas))
                      for _ in range(len(gammas[j - 1]) - len(gammas[j]))))
    basis = []
    layers = []
    upper = lat  # lat & gamma_1; each later term is cut from the one before
    for j in range(1, len(gammas)):
        if j > 1:
            upper = intersect_subspace(upper, gammas[j - 1])
        layer_vectors = _layer_basis(upper, gammas[j])
        basis.extend(layer_vectors)
        layers.extend([j] * len(layer_vectors))
    if len(basis) != alg.dim:
        raise SublatticeError("adapted basis construction did not fill the rank")
    return tuple(basis), tuple(layers)


def _layer_basis(upper_lat: Lattice, lower_space_rows):
    """Vectors of upper_lat whose classes give an HNF basis mod the subspace.

    The rref R of the columns [W | gens] picks the greedy complement E (the
    gens that are pivot columns), and column len(W) + t of R holds gens[t]
    along the pivot columns W + E (Cohen, GTM 138, 2.3): its rows past
    len(W) are the projections onto E mod W, with no second solve.
    """
    if upper_lat.rank == 0:
        return []
    # the lower space rows are independent (an lcs entry): the first w pivots
    W = list(lower_space_rows)
    w, gens = len(W), upper_lat.basis()
    R, pivots = linalg.rref(list(zip(*W, *gens)))
    if len(pivots) == w:
        return []
    proj = list(zip(*(row[w:] for row in R[w:])))
    H, U = linalg.hnf(integer_rows(proj)[1], transform=True)
    # U * gens, read as integer combinations of the lattice rows over den
    cols, zero = tuple(zip(*upper_lat.rows)), Fraction(0)
    out = [tuple(Fraction(x, upper_lat.den) if x else zero
                 for x in linalg.mat_apply(cols, U[i])) for i in range(len(H))]
    if len(out) != len(pivots) - w:
        raise RuntimeError("complement basis must have one vector per"
                           " extension generator")
    return out


def derived_lattice_data(hull: HullResult):
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
    Every operation works on the reps mod s: a product is the compiled-BCH
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

    def _verify_normal(self):
        """exp(s*lat) is a normal subgroup: the binomial coefficient vectors
        of BCH in its basis and its k^2 conjugates u*(s*e_j)*u^-1 by unit
        vectors u stay in s*lat.  A degree-d coefficient num/den of the
        compiled BCH reads num*s^d/den in the basis s*e_i, so a binomial
        coefficient sum_d c_d s^d / den lies in sZ exactly when
        sum_d c_d s^(d-1) = 0 mod den: the hull's table of the c_d, built
        once, is tested on ints for each s.  Conjugation is linear in exp
        coordinates, log(u*exp(s*X)*u^-1) = s*e^(ad u)X, so the second test
        does not depend on s: it is the hull's verdict on the conjugates
        u*e_j*u^-1, computed once per hull and read after the first test."""
        s = self.s
        for den, cs in self.hull._bch_binomial_table:
            t = 0
            for c in reversed(cs):
                t = (t * s + c) % den
            if t:
                raise SublatticeError("sublattice is not BCH-closed")
        if not self.hull._conjugates_integral:
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

    def rep_at(self, idx: int):
        """The rep with index idx: the inverse of ``index_of``."""
        return tuple([idx // self.s ** p % self.s for p in range(self.k - 1, -1, -1)])

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
    index is the lattice index of the logs' Z-span in the hull lattice.
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
    span = hnf_lattice(logs, k)
    if span.rank < k:
        raise UnsupportedInputForm("generator logs are linearly dependent")
    return lattice_index(hull.lattice, span)
