import math
import operator
import random
from fractions import Fraction as F

import pytest

from malcev import linalg, unitriangular as ut
from malcev.catalog import (CATALOG, TORSION_NAMES, build_fiber, build_group,
                            build_hull)
from malcev.errors import CapExceeded, SublatticeError, UnsupportedInputForm
from malcev.freenil import _commutator, _expand, free_algebra, hall_basis, psi_group
from malcev.hull import (GenGroup, HullResult, LatticeQuotient, _attach_adapted,
                         _layer_basis, adapted_basis, closure_certificate,
                         congruence_quotient, congruence_scale,
                         derived_lattice_data, finite_quotient,
                         group_index_in_hull, hull_of_lattice, lattice_hull)
from malcev.lattices import (Coordinates, Lattice, _coordinate_matrix,
                             hnf_lattice, intersect_subspace, lattice_index,
                             smith_quotient)
from malcev.liealg import GroupElement, NilpotentLieAlgebra
from malcev.linalg import hnf


def heis_group():
    alg, _ = ut.tr0_algebra(3)
    return GenGroup.from_elements(alg, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


HEIS_HULL = hnf_lattice([(1, 0, 0), (0, 1, 0), (0, 0, F(1, 2))])


def test_lie_span_examples():
    """A hull spans the Lie span of its generators."""
    ab = NilpotentLieAlgebra.abelian(2)
    assert len(lattice_hull(GenGroup(ab, ((1, 0),))).basis) == 1
    alg, _ = ut.tr0_algebra(3)
    assert len(lattice_hull(GenGroup(alg, ((1, 0, 0), (0, 1, 0)))).basis) == 3
    f = free_algebra(2, 3)
    gens = tuple(tuple(int(i == t) for t in range(5)) for i in range(2))
    assert len(lattice_hull(GenGroup(f, gens)).basis) == 5


def test_hull_abelian():
    ab = NilpotentLieAlgebra.abelian(3)
    g = GenGroup.from_elements(
        ab, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], filtered=True)
    h = lattice_hull(g)
    assert h.lattice == hnf_lattice([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert h.d == 3 and h.layers == (1, 1, 1)


def test_hull_heisenberg():
    h = lattice_hull(heis_group())
    assert h.lattice == HEIS_HULL
    assert lattice_index(h.lattice,
                         hnf_lattice([(1, 0, 0), (0, 1, 0), (0, 0, 1)])) == 2
    assert h.basis == ((F(1), F(0), F(0)), (F(0), F(1), F(0)),
                       (F(0), F(0), F(1, 2)))
    assert h.layers == (1, 1, 2) and h.d == 2
    assert h.layer_boundaries == (2, 3)


def test_hull_single_generator_restricts():
    alg, _ = ut.tr0_algebra(3)
    g = GenGroup.from_elements(alg, [(2, 0, 0)])
    h = lattice_hull(g)
    assert h.algebra.dim == 1
    assert h.lattice == hnf_lattice([(2,)])
    assert h.embedding == ((F(1), F(0), F(0)),)


def test_hull_idempotent_and_monotone():
    h = lattice_hull(heis_group())
    again = hull_of_lattice(h.algebra, h.lattice)
    assert again.lattice == h.lattice
    sub = lattice_hull(GenGroup(h.algebra, heis_group().gen_logs[:2]))
    assert all(h.lattice.member(b) for b in sub.lattice.basis())


def test_adapted_basis_full_rank_needed():
    alg, _ = ut.tr0_algebra(3)
    with pytest.raises(SublatticeError):
        adapted_basis(hnf_lattice([(1, 0, 0)], 3), alg)


def test_derived_lattice_data():
    h = lattice_hull(heis_group())
    d, lat = derived_lattice_data(heis_group(), h)
    assert d == 2
    assert lat.basis() == ((F(0), F(0), F(1, 2)),)
    ab = NilpotentLieAlgebra.abelian(2)
    g = GenGroup.from_elements(ab, [(1, 0), (0, 1)])
    h2 = lattice_hull(g)
    d2, lat2 = derived_lattice_data(g, h2)
    assert d2 == 2 and lat2.rank == 0
    from malcev.freenil import psi_group
    psi = psi_group(3, 2)
    d3, lat3 = derived_lattice_data(psi.group(), psi.hull)
    assert d3 == 3 and lat3.rank == 3


def test_congruence_sublattice():
    ab = NilpotentLieAlgebra.abelian(2)
    h = lattice_hull(GenGroup.from_elements(ab, [(1, 0), (0, 1)]))
    assert congruence_scale(h, 3) == 3
    heis = lattice_hull(heis_group())
    assert congruence_scale(heis, 2) == 2
    sub = heis.lattice.scale(congruence_scale(heis, 2))
    assert sub == heis.lattice.scale(2)
    from malcev.freenil import psi_group
    psi23 = psi_group(2, 3)
    s = congruence_scale(psi23.hull, 1)
    assert s >= 1  # the closure check itself certifies the returned scale
    # automorphism stability: IA* elements fix the sublattice setwise
    from malcev.autos import enumerate_ia_star
    for aut in enumerate_ia_star(heis, 2):
        assert all(sub.member(aut.apply(b)) for b in sub.basis())


def _check_congruence_quotients(h, scales, name):
    """congruence_quotient returns the pinned scale and a quotient whose
    order is the lattice index, an independent determinant."""
    for m, want in enumerate(scales, 1):
        s, q = congruence_quotient(h, m)
        assert s == want == congruence_scale(h, m), name
        assert q.order == lattice_index(h.lattice, h.lattice.scale(s)), name


def test_congruence_scale_catalog_values():
    # recorded before the scaled-lattice check moved into LatticeQuotient:
    # every catalog hull is BCH-closed in adapted coordinates, so s = m
    for entry in CATALOG:
        _check_congruence_quotients(build_hull(entry), [1, 2, 3, 4, 5, 6],
                                    entry.name)
    # Z^3 in the Heisenberg algebra is not BCH-closed (bch(x, y) has z/2),
    # so odd levels escalate once, by lcm(1, 2)
    alg, _ = ut.tr0_algebra(3)
    h = _hull_on(alg, hnf_lattice([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3))
    _check_congruence_quotients(h, [2, 2, 6, 4, 10, 6], "Z^3")


def test_finite_quotient_orders_and_axioms():
    ab = NilpotentLieAlgebra.abelian(2)
    h = lattice_hull(GenGroup.from_elements(ab, [(1, 0), (0, 1)]))
    klein = finite_quotient(LatticeQuotient(h, 2))
    assert klein.order == 4
    assert all(klein.mul(a, a) == 0 for a in range(4))  # Klein four-group
    heis = lattice_hull(heis_group())
    _, quo = congruence_quotient(heis, 2)
    grp = finite_quotient(quo, cap=8)
    assert grp.order == 8
    assert grp.validate() == []
    with pytest.raises(CapExceeded, match="quotient order 8 exceeds cap 7"):
        finite_quotient(quo, cap=7)
    trivial = finite_quotient(LatticeQuotient(heis, 1))
    assert trivial.order == 1
    # BCH-closure failures are rejected (center too sparse for the halves)
    alg, _ = ut.tr0_algebra(3)
    z3 = _hull_on(alg, hnf_lattice([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3))
    with pytest.raises(SublatticeError):
        LatticeQuotient(z3, 3)


def test_quotient_reduce_roundtrip():
    heis = lattice_hull(heis_group())
    _, quo = congruence_quotient(heis, 3)
    rng = random.Random(0)
    for _ in range(50):
        v = tuple(rng.randint(-9, 9) for _ in range(3))
        rep = quo.reduce(v)
        assert quo.reduce(rep) == rep
        assert 0 <= quo.index_of(rep) < quo.order
        assert quo.rep_of_index(quo.index_of(rep)) == rep


def reference_reduce(hull, s, vectors):
    """The general sublattice reduction: row-reduce each vector by the HNF
    of s*lat written in adapted coordinates."""
    H = hnf([hull.to_adapted_int(b) for b in hull.lattice.scale(s).basis()])
    out = []
    for v in vectors:
        w = list(v)
        for i in range(len(w)):
            q = w[i] // H[i][i]
            for j in range(i, len(w)):
                w[j] -= q * H[i][j]
        out.append(tuple(w))
    return out


def test_box_quotient_matches_hnf_reduction():
    """Entrywise reduction mod s is the HNF row reduction by s*lat, and the
    box [0, s)^k is listed in index order."""
    hulls = [(e.name, build_hull(e)) for e in CATALOG] + \
        [(name, build_fiber(name).hull) for name in TORSION_NAMES]
    rng = random.Random(10)
    for name, h in hulls:
        k = h.adapted_algebra.dim
        for s in (1, 2, 3, 4, 5, 6, 12):
            q = LatticeQuotient(h, s)
            assert q.order == s ** k, name
            vs = [tuple(rng.randint(-50, 50) for _ in range(k))
                  for _ in range(200)]
            assert [q.reduce(v) for v in vs] == reference_reduce(h, s, vs), \
                (name, s)
            if q.order <= 1000:
                reps = list(q.elements())
                assert reps == [q.rep_of_index(i) for i in range(q.order)]
                assert [q.index_of(r) for r in reps] == list(range(q.order))
        for bad in (0, -2, True, 2.0, h.lattice):
            with pytest.raises(ValueError):
                LatticeQuotient(h, bad)


def test_root():
    heis = lattice_hull(heis_group())
    alg = heis.algebra
    g = GroupElement.from_log(alg, (1, 0, 0)) * GroupElement.from_log(alg, (0, 1, 0))
    r = g.root(2)
    assert (r * r).log == g.log
    e = GroupElement.identity(alg)
    assert e.root(7).is_identity()
    assert g.root(1).log == g.log


def test_group_index():
    alg, _ = ut.tr0_algebra(3)
    g = GenGroup.from_elements(alg, [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                               filtered=True)
    h = lattice_hull(g)
    assert group_index_in_hull(g, h) == 2
    unflagged = GenGroup.from_elements(alg, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(UnsupportedInputForm):
        group_index_in_hull(unflagged, h)


def test_degenerate_trivial_algebra():
    triv = NilpotentLieAlgebra(0, {}, 0)
    assert triv.nilpotency_class == 0
    assert triv.bch((), ()) == ()


def test_closure_certificate():
    h = lattice_hull(heis_group())
    assert closure_certificate(h)
    assert closure_certificate(psi_group(2, 3).hull)
    # Z^3 misses bch(x, y) = x + y + z/2
    assert not closure_certificate(_hull_on(ut.tr0_algebra(3)[0], hnf_lattice(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)))


def _hull_on(alg, lat):
    """A HullResult on a given full-rank lattice, closed or not."""
    basis, layers = adapted_basis(lat, alg)
    h = HullResult(alg, lat, basis, layers, layers.count(1))
    _attach_adapted(h)
    return h


def _unit(k, i):
    return tuple(F(int(i == t)) for t in range(k))


def _nielsen(alg, gens, rng, moves=2):
    """Random moves g_i -> g_i * g_j^(+-1), then a shuffle: same group."""
    gens = list(gens)
    for _ in range(moves):
        i, j = rng.sample(range(len(gens)), 2)
        sign = rng.choice((1, -1))
        gens[i] = alg.bch(gens[i], tuple(sign * x for x in gens[j]))
    rng.shuffle(gens)
    return tuple(gens)


# name -> (algebra builder, number of generators, matrix size for UT(n))
SHAPES = {"Psi(2,3)": (lambda: free_algebra(2, 3), 2, None),
          "Psi(3,2)": (lambda: free_algebra(3, 2), 3, None),
          "Psi(2,4)": (lambda: free_algebra(2, 4), 2, None),
          "Psi(3,3)": (lambda: free_algebra(3, 3), 3, None),
          "Psi(2,5)": (lambda: free_algebra(2, 5), 2, None),
          "UT(4)": (lambda: ut.tr0_algebra(4)[0], 3, 4),
          "UT(5)": (lambda: ut.tr0_algebra(5)[0], 4, 5)}


def _moved_generators(name, rng, moves=2):
    """Nielsen-moved unit generators: Hall generators of Psi(n, c), or the
    superdiagonal elementary matrices of UT(n)."""
    build, ngens, ut_n = SHAPES[name]
    alg = build()
    gens = _nielsen(alg, [_unit(alg.dim, i) for i in range(ngens)], rng, moves)
    return alg, gens, ut_n


def _word_logs(alg, gens, ut_n, rng, count, length=6):
    """(word, log) for random words in the generators and their inverses:
    exact matrix products in UT(n), the group law otherwise."""
    if ut_n is None:
        one, mul, log = GroupElement.identity(alg), operator.mul, \
            operator.attrgetter("log")
        factor = {(i, e): GroupElement(alg, g) ** e
                  for i, g in enumerate(gens) for e in (1, -1)}
    else:
        one, mul = ut.identity(ut_n), ut.mat_mul

        def log(M):
            return ut.coords_from_matrix(ut_n, ut.matrix_log(M))

        factor = {(i, e): ut.matrix_exp(ut.matrix_from_coords(
            ut_n, tuple(e * x for x in g)))
            for i, g in enumerate(gens) for e in (1, -1)}
    for _ in range(count):
        word = [(rng.randrange(len(gens)), rng.choice((1, -1)))
                for _ in range(length)]
        g = one
        for letter in word:
            g = mul(g, factor[letter])
        yield word, log(g)


def _check_closed_hull(alg, gens, ut_n, rng, words=12):
    h = lattice_hull(GenGroup(alg, gens))
    assert h.embedding is None
    assert closure_certificate(h)
    for word, log in _word_logs(alg, gens, ut_n, rng, words):
        assert h.lattice.member(log), word
    return h


@pytest.mark.parametrize("name", ["Psi(3,3)", "UT(4)", "UT(5)", "Psi(2,5)"])
def test_moved_generators_give_closed_hulls(name):
    """Basis-pair closure left exp(L) unclosed on each of these."""
    rng = random.Random(1)
    alg, gens, ut_n = _moved_generators(name, rng)
    _check_closed_hull(alg, gens, ut_n, rng)


# Lattices that basis-pair closure returned (den, HNF rows).
PSI33_PAIR_CLOSED = (12, [[12 * int(i == j) // d for j in range(14)]
                          for i, d in enumerate((1, 1, 1, 2, 2, 2, 12, 12, 12,
                                                 4, 12, 4, 12, 12))])
PSI25_PAIR_CLOSED = (720, [
    [720, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 720, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 360, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 60, 0, 0, 0, 0, 0, 0, 0, 0, 0, 10],
    [0, 0, 0, 0, 60, 0, 0, 0, 0, 0, 0, 0, 5, 0],
    [0, 0, 0, 0, 0, 30, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 30, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 30, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 12],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 4, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 15, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 15]])
UT4_PAIR_CLOSED = (12, [[12, 0, 0, 0, 0, 1], [0, 12, 0, 0, 0, 0],
                        [0, 0, 12, 0, 0, 0], [0, 0, 0, 6, 0, 0],
                        [0, 0, 0, 0, 6, 0], [0, 0, 0, 0, 0, 3]])


@pytest.mark.parametrize("n,c,old,index", [(3, 3, PSI33_PAIR_CLOSED, 3),
                                           (2, 5, PSI25_PAIR_CLOSED, 225)])
def test_psi_hulls_grew_over_pair_closure(n, c, old, index):
    h = psi_group(n, c).hull
    old = Lattice.from_den_rows(h.algebra.dim, *old)
    assert not closure_certificate(_hull_on(h.algebra, old))
    assert closure_certificate(h)
    assert lattice_index(h.lattice, old) == index


def test_pair_closed_ut4_lattice_fails_the_certificate():
    alg, gens, _ = _moved_generators("UT(4)", random.Random(1))
    old = Lattice.from_den_rows(alg.dim, *UT4_PAIR_CLOSED)
    assert all(old.member(g) for g in gens)
    assert not closure_certificate(_hull_on(alg, old))
    assert lattice_index(lattice_hull(GenGroup(alg, gens)).lattice, old) == 3


@pytest.mark.parametrize("name,seeds", [("Psi(2,3)", 20), ("Psi(3,2)", 20),
                                        ("UT(4)", 20), ("Psi(2,4)", 12),
                                        ("UT(5)", 12)])
def test_generated_hulls(name, seeds):
    """Seeded Nielsen-moved generators: the hull contains every sampled word
    log, passes the exact certificate and is its own hull.  The two larger
    shapes get fewer seeds to keep the test near 10 s."""
    for seed in range(seeds):
        rng = random.Random(seed)
        alg, gens, ut_n = _moved_generators(name, rng, rng.randint(1, 4))
        h = _check_closed_hull(alg, gens, ut_n, rng, words=6)
        assert hull_of_lattice(alg, h.lattice).lattice == h.lattice, seed


# Fraction definitions of the integer lattice queries, kept as references.

def _ref_rref(M):
    """Gauss-Jordan elimination over Fraction: (reduced rows, pivot columns)."""
    M = [[F(x) for x in row] for row in M]
    pivots = []
    for c in range(len(M[0]) if M else 0):
        p = next((i for i in range(len(pivots), len(M)) if M[i][c]), None)
        if p is None:
            continue
        r = len(pivots)
        row = [x / M[p][c] for x in M[p]]
        M[p] = M[r]
        M[r] = row
        for i in range(len(M)):
            if i != r and M[i][c]:
                M[i] = [a - M[i][c] * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
    return M[:len(pivots)], pivots


def _ref_solve(rows, v):
    """x with x * rows == v, from the augmented system [rows^T | v], or None;
    ValueError when the rows are dependent."""
    r = len(rows)
    reduced, pivots = _ref_rref([[rows[i][j] for i in range(r)] + [v[j]]
                                 for j in range(len(v))])
    if r in pivots:
        return None
    if len(pivots) < r:
        raise ValueError("dependent rows")
    return tuple(row[r] for row in reduced)


def _ref_mat_inv(A):
    """The Fraction inverse of a square matrix, by elimination of [A | I]."""
    n = len(A)
    reduced, pivots = _ref_rref([list(A[i]) + [int(i == j) for j in range(n)]
                                 for i in range(n)])
    assert pivots == list(range(n))
    return tuple(tuple(row[n:]) for row in reduced)


def _ref_coords(lat, v):
    c = _ref_solve(lat.basis(), v)
    if c is None or any(x.denominator != 1 for x in c):
        return None
    return tuple(int(x) for x in c)


def _ref_coordinate_matrix(outer, inner):
    T = [_ref_solve(outer.basis(), v) for v in inner.basis()]
    if None in T or len(T) != outer.rank or \
            any(x.denominator != 1 for row in T for x in row):
        raise SublatticeError("reference")
    return tuple(tuple(int(x) for x in row) for row in T)


def _ref_index(outer, inner):
    from test_linalg import _ref_det
    return abs(int(_ref_det(_ref_coordinate_matrix(outer, inner))))


def _ref_smith(outer, inner):
    return linalg.snf_invariants(_ref_coordinate_matrix(outer, inner))


def _ref_intersect_subspace(lat, subspace_rows):
    if not lat.rows:
        return lat
    basis = lat.basis()
    sub = [r for r in subspace_rows if any(F(x) for x in r)]
    if not sub:
        return hnf_lattice([], lat.dim)
    S = []
    for row in sub:
        row = [F(x) for x in row]
        den = math.lcm(*(x.denominator for x in row))
        S.append([int(x * den) for x in row])
    cond = linalg.right_kernel(S, lat.dim)
    if not cond:
        return lat
    M = [[sum(v[j] * c[j] for j in range(lat.dim)) for c in cond] for v in basis]
    den = math.lcm(*(x.denominator for row in M for x in row))
    combos = linalg.left_kernel([[int(x * den) for x in row] for row in M])
    return hnf_lattice([tuple(sum(F(cb[i]) * basis[i][j]
                                  for i in range(len(basis)))
                              for j in range(lat.dim)) for cb in combos],
                       lat.dim)


def _ref_to_adapted_int(hull, v):
    u = _ref_solve(hull.basis, v)
    if u is None or any(x.denominator != 1 for x in u):
        return None
    return tuple(int(x) for x in u)


def _outcome(f, *args):
    try:
        return f(*args)
    except SublatticeError:
        return SublatticeError


def _probe_vectors(lat, rng, count=6):
    """Lattice points, and the same points shifted by 1/2 or 1/3 in one
    coordinate: off the lattice, and off its Q-span when it is not full rank."""
    out = list(lat.basis())
    for _ in range(count):
        v = [sum(rng.randint(-3, 3) * b[j] for b in lat.basis())
             for j in range(lat.dim)]
        out.append(tuple(F(x) for x in v))
        j = rng.randrange(lat.dim)
        v[j] += F(1, rng.choice((2, 3)))
        out.append(tuple(F(x) for x in v))
    return out


def _shear(k, rng):
    """A product of 2k random rational shears of Q^k."""
    T = [[F(int(i == j)) for j in range(k)] for i in range(k)]
    for _ in range(2 * k):
        i, j = rng.sample(range(k), 2)
        q = F(rng.randint(-2, 2), rng.randint(1, 2))
        T[i] = [a + q * b for a, b in zip(T[i], T[j])]
    return T


def _twisted(group, rng):
    """The group in coordinates changed by random rational shears, so the
    adapted basis of its hull is not the HNF basis of the hull lattice."""
    alg, to_new, _ = group.algebra.change_basis(_shear(group.algebra.dim, rng))
    return GenGroup(alg, tuple(to_new(tuple(map(F, g))) for g in group.gen_logs))


def _lattice_queries(lat, rng):
    """(query name, *args) tuples for the integer queries on lat."""
    k = lat.dim
    calls = [("coords", lat, v) for v in _probe_vectors(lat, rng)]
    combos = [[rng.randint(-2, 2) for _ in range(lat.rank)]
              for _ in range(lat.rank)]
    inners = [lat.scale(2), lat.scale(F(1, 2)), hnf_lattice(lat.basis()[1:], k),
              hnf_lattice([tuple(sum(c * b[j] for c, b in zip(row, lat.basis()))
                                 for j in range(k)) for row in combos], k)]
    calls += [(name, lat, inner) for inner in inners
              for name in ("matrix", "index", "smith")]
    for _ in range(3):
        rows = [tuple(F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(k))
                for _ in range(rng.randint(0, k))]
        calls.append(("intersect", lat, rows))
    return calls


_INTEGER_QUERIES = {
    "coords": Lattice.coords,
    "member": Lattice.member,
    "matrix": lambda a, b: tuple(map(tuple, _coordinate_matrix(a, b))),
    "index": lattice_index,
    "smith": smith_quotient,
    "intersect": intersect_subspace,
    "adapted": HullResult.to_adapted_int,
}
_REFERENCES = {
    "coords": _ref_coords,
    "member": lambda lat, v: _ref_coords(lat, v) is not None,
    "matrix": _ref_coordinate_matrix,
    "index": _ref_index,
    "smith": _ref_smith,
    "intersect": _ref_intersect_subspace,
    "adapted": _ref_to_adapted_int,
}


def test_integer_lattice_queries_match_fraction_references(monkeypatch):
    """Lattice coordinates, membership, coordinate matrices, index, Smith
    invariants, subspace intersections and integer adapted coordinates agree
    with their Fraction definitions, and run with no rational elimination.
    Inputs: the seeded lattices of test_lattices.py's idempotence test, the
    catalog hulls, the catalog groups in sheared coordinates, and
    Nielsen-moved hulls."""
    rng = random.Random(0)
    lattices = []
    for _ in range(30):
        k = rng.randint(1, 4)
        lattices.append(hnf_lattice(
            [tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(k))
             for _ in range(rng.randint(1, 4))], k))
    hulls = [build_hull(entry) for entry in CATALOG]
    groups = [build_group(entry) for entry in CATALOG]
    hulls += [lattice_hull(_twisted(g, rng)) for g in groups if g.algebra.dim > 1]
    for name in ("Psi(2,3)", "Psi(3,2)", "UT(4)", "Psi(3,3)"):
        alg, gens, _ = _moved_generators(name, random.Random(1))
        hulls.append(lattice_hull(GenGroup(alg, gens)))
    calls = []
    for lat in lattices:
        calls += _lattice_queries(lat, rng)
    for h in hulls:
        calls += _lattice_queries(h.lattice, rng)
        calls += [("intersect", h.lattice, space) for space in h.algebra.lcs()]
        calls += [("adapted", h, v) for v in _probe_vectors(h.lattice, rng)]
    calls += [("member", lat, v) for name, lat, v in calls if name == "coords"]
    want = [_outcome(_REFERENCES[name], *args) for name, *args in calls]

    def rational_elimination(*args):
        raise AssertionError("an integer lattice query ran rational elimination")

    monkeypatch.setattr(linalg, "rref", rational_elimination)
    got = [_outcome(_INTEGER_QUERIES[name], *args) for name, *args in calls]
    for (name, *_), g, w in zip(calls, got, want):
        assert g == w, name


def _ref_hall_table(n, c):
    """free_algebra's structure constants by one Fraction solve per bracket
    pair, as free_algebra used to compute them."""
    trees, weight = hall_basis(n, c)
    k = len(trees)
    cache = {}
    expansions = [_expand(trees, i, cache) for i in range(k)]
    table = {}
    for i in range(k):
        for j in range(i + 1, k):
            w = weight[i] + weight[j]
            prod = _commutator(expansions[i], expansions[j]) if w <= c else {}
            if not prod:
                continue
            idxs = [t for t in range(k) if weight[t] == w]
            words = sorted({wd for t in idxs for wd in expansions[t]})
            assert set(prod) <= set(words)
            rows = [[expansions[t].get(wd, 0) for wd in words] for t in idxs]
            x = _ref_solve(rows, [prod.get(wd, 0) for wd in words])
            out = [F(0)] * k
            for t, v in zip(idxs, x):
                out[t] = v
            table[(i, j)] = tuple(out)
    return table


def test_coordinates_match_a_fraction_solve(monkeypatch):
    """Coordinates agrees with a Fraction solve of the augmented system on
    seeded rational bases, with None exactly off the span, ValueError on
    dependent rows, and the empty basis; it runs no rational elimination.
    change_basis on sheared bases agrees with the dense Fraction inverse it
    used to apply, and free_algebra with one Fraction solve per bracket."""
    rng = random.Random(0)

    def rational():
        return F(rng.randint(-4, 4), rng.randint(1, 4))

    cases = [([(1, 0, 1), (0, 1, 1)], [(2, 3, 5), (0, 0, 1)]),
             ([], [(0, 0), (1, 0)])]
    dependent = []
    for _ in range(40):
        k = rng.randint(1, 5)
        rows = [tuple(rational() for _ in range(k))
                for _ in range(rng.randint(1, k))]
        combos = [tuple(sum(x * r[j] for x, r in zip(coeffs, rows))
                        for j in range(k))
                  for coeffs in ([rational() for _ in rows] for _ in range(3))]
        try:
            _ref_solve(rows, rows[0])
        except ValueError:
            dependent.append(rows)
            continue
        dependent.append(rows + combos[:1])
        cases.append((rows, combos + [tuple(rational() for _ in range(k))
                                      for _ in range(3)]))
    want = [[_ref_solve(rows, v) for v in vectors] for rows, vectors in cases]
    assert want[0] == [(2, 3), None] and want[1] == [(), None]
    assert sum(x is None for w in want for x in w) > 10

    def rational_elimination(*args):
        raise AssertionError("Coordinates ran rational elimination")

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "rref", rational_elimination)
        got = [[Coordinates.of_rows(rows, len(vectors[0]))(v) for v in vectors]
               for rows, vectors in cases]
        for rows in dependent:
            with pytest.raises(ValueError):
                Coordinates.of_rows(rows, len(rows[0]))
    assert got == want

    groups = [g for g in map(build_group, CATALOG) if g.algebra.dim > 1]
    for name in ("Psi(2,3)", "UT(4)"):
        alg, gens, _ = _moved_generators(name, random.Random(1))
        groups.append(GenGroup(alg, gens))
    for group in groups:
        old, k = group.algebra, group.algebra.dim
        T = _shear(k, rng)
        alg, to_new, to_old = old.change_basis(T)
        inv_cols = _ref_mat_inv([[T[i][j] for i in range(k)] for j in range(k)])
        table = {}
        for i in range(k):
            for j in range(i + 1, k):
                w = linalg.mat_apply(inv_cols, old.bracket(T[i], T[j]))
                if any(w):
                    table[(i, j)] = w
        assert alg.brackets == table
        for v in _probe_vectors(hnf_lattice(T, k), rng):
            assert to_new(v) == linalg.mat_apply(inv_cols, v)
            assert to_old(to_new(v)) == v

    for n, c in ((2, 5), (3, 3), (4, 3)):
        assert free_algebra(n, c).brackets == _ref_hall_table(n, c), (n, c)


# The lower central series and the layer bases against their old definitions:
# a unit-vector bracket over the whole table, then a Fraction span; and the
# greedy complement that rebuilds its coordinates for every added vector.

def _ref_bracket(brackets, x, y):
    """[x, y] = sum over the table of (x_i y_j - x_j y_i) [e_i, e_j]."""
    out = [F(0)] * len(x)
    for (i, j), v in brackets.items():
        c = x[i] * y[j] - x[j] * y[i]
        if c:
            out = [o + c * w for o, w in zip(out, v)]
    return tuple(out)


def _ref_lcs(k, brackets):
    chain = [[_unit(k, i) for i in range(k)]]
    while chain[-1]:
        gens = [w for u in chain[-1] for b in range(k)
                if any(w := _ref_bracket(brackets, u, _unit(k, b)))]
        nxt = [tuple(row) for row in _ref_rref(gens)[0]]
        if len(nxt) == len(chain[-1]):
            raise ValueError("structure constants are not nilpotent")
        chain.append(nxt)
    return [[tuple(row) for row in g] for g in chain]


def _ref_layer_basis(upper_lat, lower_space_rows):
    if upper_lat.rank == 0:
        return []
    W = list(lower_space_rows)
    gens = list(upper_lat.basis())
    E = []
    coords = Coordinates.of_rows(W, upper_lat.dim)
    for g in gens:
        if coords(g) is None:
            E.append(g)
            coords = Coordinates.of_rows(W + E, upper_lat.dim)
    if not E:
        return []
    proj = [coords(g)[len(W):] for g in gens]
    den = math.lcm(*(x.denominator for p in proj for x in p))
    H, U = hnf([[int(x * den) for x in p] for p in proj], transform=True)
    return [tuple(sum(F(U[i][t]) * gens[t][j] for t in range(len(gens)))
                  for j in range(upper_lat.dim)) for i in range(len(H))]


def test_lcs_matches_unit_vector_brackets():
    rng = random.Random(0)
    algebras = [free_algebra(n, c)
                for n, c in ((2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4))]
    algebras += [ut.tr0_algebra(n)[0] for n in (4, 5, 6)]
    groups = [build_group(entry) for entry in CATALOG]
    algebras += [g.algebra for g in groups]
    for g in groups:
        if g.algebra.dim > 1:
            twisted = _twisted(g, rng)
            algebras += [twisted.algebra, lattice_hull(twisted).adapted_algebra]
    restricted = lattice_hull(GenGroup(free_algebra(3, 3),
                                       (_unit(14, 0), _unit(14, 1))))
    assert restricted.embedding is not None
    algebras.append(restricted.algebra)
    for alg in algebras:
        assert [[tuple(row) for row in g] for g in alg.lcs()] == \
            _ref_lcs(alg.dim, alg.brackets)

    for dim, table in ((2, {(0, 1): (0, 1)}),
                       (3, {(0, 1): (0, 0, 1), (0, 2): (0, 1, 0)})):
        with pytest.raises(ValueError, match="structure constants are not nilpotent"):
            NilpotentLieAlgebra(dim, table)
        with pytest.raises(ValueError, match="structure constants are not nilpotent"):
            _ref_lcs(dim, {key: tuple(map(F, v)) for key, v in table.items()})


def test_bracket_matches_the_dense_formula():
    rng = random.Random(0)
    algebras = [free_algebra(3, 3), ut.tr0_algebra(5)[0]]
    algebras += [build_group(entry).algebra for entry in CATALOG]

    def draw(k, density):
        return tuple(F(rng.randint(-4, 4), rng.randint(1, 3))
                     if rng.random() < density else F(0) for _ in range(k))

    for alg in algebras:
        for density in (1.0, 0.3, 0.1):
            for _ in range(10):
                x, y = draw(alg.dim, density), draw(alg.dim, density)
                assert alg.bracket(x, y) == _ref_bracket(alg.brackets, x, y)
        for i in range(alg.dim):
            for j in range(alg.dim):
                assert alg.bracket_basis(i, j) == _ref_bracket(
                    alg.brackets, _unit(alg.dim, i), _unit(alg.dim, j))


def test_layer_basis_matches_the_greedy_rebuild():
    rng = random.Random(2)
    groups = [build_group(entry) for entry in CATALOG]
    hulls = [lattice_hull(_twisted(g, rng)) for g in groups if g.algebra.dim > 1]
    for name in ("Psi(2,3)", "Psi(3,2)", "Psi(2,4)", "UT(4)", "UT(5)"):
        for seed in (1, 2):
            alg, gens, _ = _moved_generators(name, random.Random(seed))
            hulls.append(lattice_hull(GenGroup(alg, gens)))
    for h in hulls:
        gammas = h.algebra.lcs()
        basis = []
        for j in range(1, len(gammas)):
            upper = intersect_subspace(h.lattice, gammas[j - 1])
            got = _layer_basis(upper, gammas[j])
            assert got == _ref_layer_basis(upper, gammas[j])
            basis += got
        assert tuple(basis) == h.basis
