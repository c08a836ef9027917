"""Lattice hulls, adapted bases, congruence sublattices, finite quotients.

The hull of a generated group is the minimal BCH-closed lattice containing
the generator logs, computed by iterated closure; the ascending chain lives
inside the (existing) hull lattice, so it stabilizes and the round cap only
turns a bug into an error instead of a hang.  The adapted basis refines the
hull basis along the lower central series, layer by layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .errors import CapExceeded, SublatticeError, UnsupportedInputForm
from .finite import FiniteGroup
from .lattices import (Lattice, hnf_lattice, intersect_subspace,
                       lattice_sum)
from .liealg import GroupElement, NilpotentLieAlgebra, scale_vec, vec


@dataclass(frozen=True)
class GenGroup:
    """A subgroup of exp(L) given by generator log vectors."""

    algebra: NilpotentLieAlgebra
    gen_logs: tuple
    filtered: bool = False

    @staticmethod
    def from_elements(algebra, elements, filtered=False) -> "GenGroup":
        logs = tuple(g.log if isinstance(g, GroupElement) else vec(g)
                     for g in elements)
        if not logs:
            raise ValueError("generator list must be nonempty")
        return GenGroup(algebra, logs, filtered)

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
    """

    algebra: NilpotentLieAlgebra
    lattice: Lattice
    basis: tuple
    layers: tuple
    d: int
    embedding: tuple | None = None
    adapted_algebra: NilpotentLieAlgebra = field(repr=False, default=None)
    _to_adapted: object = field(repr=False, default=None)
    _to_working: object = field(repr=False, default=None)

    @property
    def layer_sizes(self):
        sizes = []
        for l in self.layers:
            while len(sizes) < l:
                sizes.append(0)
            sizes[l - 1] += 1
        return tuple(sizes)

    @property
    def layer_boundaries(self):
        out = []
        total = 0
        for s in self.layer_sizes:
            total += s
            out.append(total)
        return tuple(out)

    def to_adapted(self, v):
        return self._to_adapted(v)

    def to_working(self, u):
        return self._to_working(u)

    def to_adapted_int(self, v):
        u = self._to_adapted(v)
        if any(x.denominator != 1 for x in u):
            return None
        return tuple(int(x) for x in u)


def lie_span(alg: NilpotentLieAlgebra, gens):
    """Echelon basis of the smallest bracket-closed subspace containing gens."""
    basis = list(linalg.span_basis([vec(g) for g in gens]))
    while True:
        new = []
        for u in basis:
            for v in basis:
                w = alg.bracket(u, v)
                if any(w) and not linalg.in_span(basis, w):
                    new.append(w)
        if not new:
            return tuple(basis)
        basis = list(linalg.span_basis(basis + new))


def _closure_candidates(alg, lat):
    """BCH values of the signed basis pairs, one per value up to sign.

    Since bch(-u,-v) = -bch(v,u), bch(u,-v) = -bch(v,-u) and
    bch(-u,v) = -bch(-v,u), every signed pair is, up to sign, an ordered
    pair (u, v) or one of (u, -v), (-u, v) with u before v in the basis:
    2k^2 - k evaluations span the same lattice as all 4k^2.
    """
    basis = lat.basis()
    negs = [scale_vec(-1, u) for u in basis]
    out = {}
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            pairs = ((u, v),) if j <= i else ((u, v), (u, negs[j]), (negs[i], v))
            for a, b in pairs:
                w = alg.bch(a, b)
                out.setdefault(max(w, scale_vec(-1, w)))
    return list(out)


def lattice_hull(group: GenGroup, max_rounds: int = 64) -> HullResult:
    """Minimal BCH-closed lattice containing the generator logs.

    If the generators do not span the algebra as a Lie algebra, the algebra
    is first restricted to their Lie span.
    """
    alg = group.algebra
    logs = [vec(g) for g in group.gen_logs]
    span = lie_span(alg, logs)
    embedding = None
    if len(span) < alg.dim:
        sub, embed = alg.restrict(span)
        embedding = tuple(embed(tuple(int(i == t) for t in range(len(span))))
                          for i in range(len(span)))
        logs = [linalg.solve_coords(span, g) for g in logs]
        alg = sub
    lat = hnf_lattice(logs, alg.dim)
    for _ in range(max_rounds):
        grown = lattice_sum(lat, hnf_lattice(_closure_candidates(alg, lat), alg.dim))
        if grown == lat:
            break
        lat = grown
    else:
        raise CapExceeded(f"hull closure did not stabilize in {max_rounds} rounds")
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
    """Exact certificate that the hull is BCH-closed for ALL lattice pairs.

    The closure iteration checks (signed) basis pairs; this goes further:
    if every coordinate of the compiled BCH map in adapted coordinates has
    integer coefficients, then BCH maps Z^k x Z^k into Z^k as a polynomial
    identity, i.e. exp(lattice) is closed under every product.  Sufficient,
    not necessary; it holds on the whole shipped catalog.
    """
    comp = hull.adapted_algebra.bch_compiled()
    return all(den == 1 for den, _ in comp.coords)


def _attach_adapted(hull: HullResult) -> None:
    adapted, to_new, to_old = hull.algebra.change_basis(hull.basis)
    hull.adapted_algebra = adapted
    hull._to_adapted = to_new
    hull._to_working = to_old


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
    W = list(linalg.span_basis(lower_space_rows)) if lower_space_rows else []
    gens = list(upper_lat.basis())
    # extend W to a basis of the span of the layer, tracking a complement E
    E = []
    current = list(W)
    for g in gens:
        if not linalg.in_span(current, g):
            E.append(g)
            current = list(linalg.span_basis(current + [g]))
    if not E:
        return []
    WE = W + E
    s = len(E)
    # coordinates of each generator along the complement part
    proj = []
    for g in gens:
        c = linalg.solve_coords(WE, g)
        proj.append(tuple(c[len(W):]))
    den = math.lcm(*(x.denominator for p in proj for x in p))
    int_rows = [[int(x * den) for x in p] for p in proj]
    H, U = linalg.hnf(int_rows, transform=True)
    out = []
    for i in range(len(H)):
        combo = U[i]
        out.append(tuple(sum(Fraction(combo[t]) * gens[t][j]
                             for t in range(len(gens)))
                         for j in range(upper_lat.dim)))
    if len(out) != s:
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
            return s, LatticeQuotient(hull, hull.lattice.scale(s))
        except SublatticeError:
            s *= P
    raise CapExceeded("no BCH-closed scaled lattice within the escalation cap")


def congruence_scale(hull: HullResult, m: int) -> int:
    """The scale s of ``congruence_quotient(hull, m)``."""
    return congruence_quotient(hull, m)[0]


class LatticeQuotient:
    """Coset arithmetic for exp(lat)/exp(sub) without a Cayley table.

    Elements are canonical integer representative vectors in adapted
    coordinates (the mixed-radix box cut out by the HNF of sub).
    """

    def __init__(self, hull: HullResult, sub: Lattice):
        self.hull = hull
        k = hull.adapted_algebra.dim
        rows = []
        for b in sub.basis():
            u = hull.to_adapted_int(b)
            if u is None:
                raise SublatticeError("sublattice not contained in the hull lattice")
            rows.append(u)
        H = linalg.hnf(rows)
        if len(H) != k:
            raise SublatticeError("finite quotient needs a full-rank sublattice")
        self.sub_hnf = [list(row) for row in H]
        self.diag = [H[i][i] for i in range(k)]
        order = 1
        for x in self.diag:
            order *= x
        self.order = order
        self._weights = [1] * k
        for i in range(k - 2, -1, -1):
            self._weights[i] = self._weights[i + 1] * self.diag[i + 1]
        self._bch = hull.adapted_algebra.bch_compiled()
        self._verify_normal()

    def _in_sub(self, w) -> bool:
        return all(x.denominator == 1 for x in w) and \
            not any(self.reduce(tuple(int(x) for x in w)))

    def _verify_normal(self):
        """exp(sub) is a normal subgroup: products of signed basis pairs and
        conjugates by the lattice basis stay in sub."""
        alg = self.hull.adapted_algebra
        k = alg.dim
        basis = [vec(row) for row in self.sub_hnf]
        for i in range(k):
            for j in range(k):
                for sign in (1, -1):
                    if not self._in_sub(alg.bch(basis[i], scale_vec(sign, basis[j]))):
                        raise SublatticeError("sublattice is not BCH-closed")
            u = tuple(Fraction(int(i == t)) for t in range(k))
            nu = scale_vec(-1, u)
            for j in range(k):
                if not self._in_sub(alg.bch(u, alg.bch(basis[j], nu))):
                    raise SublatticeError("sublattice is not normal in the hull")

    def reduce(self, v):
        """Canonical coset representative of an integer adapted vector."""
        w = list(v)
        H = self.sub_hnf
        for i in range(len(w)):
            q = w[i] // H[i][i]
            if q:
                row = H[i]
                for j in range(i, len(w)):
                    w[j] -= q * row[j]
        return tuple(w)

    def index_of(self, rep) -> int:
        return sum(x * wgt for x, wgt in zip(rep, self._weights))

    def rep_of_index(self, idx: int):
        out = []
        for i in range(len(self.diag)):
            out.append(idx // self._weights[i])
            idx %= self._weights[i]
        return tuple(out)

    def elements(self):
        for idx in range(self.order):
            yield self.rep_of_index(idx)

    def mul(self, a, b):
        return self.reduce(self._bch.eval_int(a + b))

    def inv(self, a):
        return self.reduce(tuple(-x for x in a))

    def power(self, a, n: int):
        # exp coordinates: powers are scalar multiples of the log
        return self.reduce(tuple(n * x for x in a))

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
    index is the determinant of the generator log coordinates in the hull
    lattice basis.
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
    d = linalg.det(rows)
    if d == 0:
        raise UnsupportedInputForm("generator logs are linearly dependent")
    return abs(int(d))
