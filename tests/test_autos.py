import copy
import dataclasses
import itertools
import random
from fractions import Fraction as F
from math import gcd, lcm, prod
from types import SimpleNamespace

import pytest

from malcev import autos, linalg, unitriangular as ut
from malcev.autos import (IAStarEquations, LieAutomorphism, _Stratum,
                          adapted_matrix, aut_star_image, csp_witness,
                          enumerate_ia_star, ia_star_positions, is_ia_star,
                          make_ia_star, matrix_from_adapted, mod_m_group,
                          strong_approx_check, subgroup_closure_mod)
from malcev.catalog import CATALOG, CSP_SUBGROUPS, build_hull, entry_by_name
from malcev.errors import CapExceeded, DimensionMismatch, IndexMismatch
from malcev.finite import closure
from malcev.hull import GenGroup, lattice_hull
from malcev.lattices import Lattice
from malcev.liealg import NilpotentLieAlgebra
from test_cli_outputs import sheared_group
from test_hull import _ref_from_elements


def _ref_is_lie_aut(alg, matrix):
    """(ok, witness): do the bracket equations hold on all basis pairs of
    ``alg``, read in its own coordinates?

    Raises ValueError on a singular matrix.  On failure the witness is the
    offending basis pair.
    """
    M = tuple(tuple(F(x) for x in row) for row in matrix)
    k = alg.dim
    den = lcm(*(x.denominator for row in M for x in row))
    if len(linalg.hnf([[x.numerator * (den // x.denominator) for x in row]
                       for row in M])) < k:
        raise ValueError("singular matrix is not an automorphism candidate")
    cols = [tuple(M[r][c] for r in range(k)) for c in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            if alg.bracket(cols[i], cols[j]) != \
                    linalg.mat_apply(M, alg.bracket_basis(i, j)):
                return False, (i, j)
    return True, None


def _ref_stabilizes_lattice(aut, lat):
    """True iff the matrix maps the lattice onto itself: its matrix in the
    lattice basis is integral and unimodular."""
    M = aut.matrix if isinstance(aut, LieAutomorphism) else aut
    A = [lat.coords(linalg.mat_apply(M, b)) for b in lat.basis()]
    return None not in A and linalg.unimodular_inverse(A) is not None


def heis_hull():
    alg, _ = ut.tr0_algebra(3)
    return lattice_hull(_ref_from_elements(
        alg, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))


# Heisenberg maps by adapted matrix: -1 on part of L/L' (in Aut(Gamma)),
# a central shift by 3/2 (a Lie automorphism outside Aut(Gamma)), an
# integral map of det 4 (not onto the lattice), and a singular one.
DIAG = ((-1, 0, 0), (0, 1, 0), (0, 0, -1))
ODD = ((1, 0, 0), (0, 1, 0), (F(3, 2), 0, 1))
DOUBLE = ((2, 0, 0), (0, 1, 0), (0, 0, 2))
SINGULAR = ((1, 0, 0), (1, 0, 0), (0, 0, 1))


def adapted_map(h, A):
    """The map whose matrix in the adapted basis of h is A."""
    A = tuple(tuple(F(x) for x in row) for row in A)
    return LieAutomorphism(h.algebra, matrix_from_adapted(h, A))


def test_is_lie_aut():
    h = heis_hull()
    ident = tuple(tuple(F(int(i == j)) for j in range(3)) for i in range(3))
    ok, wit = _ref_is_lie_aut(h.algebra, ident)
    assert ok and wit is None
    # the (alpha, beta) family in the adapted basis is always an automorphism
    for a, b in ((1, 0), (2, -3), (0, 0)):
        aut = make_ia_star(h, {(2, 0): a, (2, 1): b})
        ok, _ = _ref_is_lie_aut(h.algebra, aut.matrix)
        assert ok
    # swapping b1 and b3 breaks the bracket at pair (0, 1)
    swap = ((F(0), F(0), F(1)), (F(0), F(1), F(0)), (F(1), F(0), F(0)))
    ok, wit = _ref_is_lie_aut(h.algebra, swap)
    assert not ok and wit == (0, 1)
    singular = ((F(1), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(0), F(1)))
    with pytest.raises(ValueError):
        _ref_is_lie_aut(h.algebra, singular)


def test_is_lie_aut_rejects_exactly_the_singular_matrices():
    """The rank test on the denominator-cleared rows against a determinant
    over Q, on seeded rational matrices with forced rank drops."""
    from test_linalg import _ref_det
    h = heis_hull()
    rng = random.Random(17)
    singular = 0
    for _ in range(60):
        M = [[F(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(3)]
             for _ in range(3)]
        if rng.random() < 0.4:
            q = F(rng.randint(-3, 3), 2)
            M[2] = [q * a + b for a, b in zip(M[0], M[1])]
        if _ref_det(M) == 0:
            singular += 1
            with pytest.raises(ValueError, match="singular matrix"):
                _ref_is_lie_aut(h.algebra, M)
        else:
            _ref_is_lie_aut(h.algebra, M)
    assert 10 < singular < 50


def test_stabilizes_lattice():
    h = heis_hull()
    ident = make_ia_star(h, {})
    assert _ref_stabilizes_lattice(ident, h.lattice)
    a10 = make_ia_star(h, {(2, 0): 1})
    assert _ref_stabilizes_lattice(a10, h.lattice)
    # alpha = 1/2 in adapted coordinates leaves the lattice
    half_adapted = ((F(1), F(0), F(0)), (F(0), F(1), F(0)),
                    (F(1, 2), F(0), F(1)))
    half = LieAutomorphism(h.algebra, matrix_from_adapted(h, half_adapted))
    ok, _ = _ref_is_lie_aut(h.algebra, half.matrix)
    assert ok
    assert not _ref_stabilizes_lattice(half, h.lattice)
    # diag(2, 1, 2) sends the lattice into itself, but not onto it
    double = LieAutomorphism(h.algebra, matrix_from_adapted(
        h, ((F(2), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(2)))))
    assert _ref_is_lie_aut(h.algebra, double.matrix)[0]
    assert not _ref_stabilizes_lattice(double, h.lattice)


def test_is_ia_star():
    h = heis_hull()
    assert is_ia_star(make_ia_star(h, {}), h)
    for a in (-2, 1, 3):
        for b in (-1, 0, 2):
            assert is_ia_star(make_ia_star(h, {(2, 0): a, (2, 1): b}), h)
    # diag(-1, 1, -1) is an automorphism but acts as -1 on part of L/L'
    diag = ((F(-1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(-1)))
    aut = LieAutomorphism(h.algebra, matrix_from_adapted(h, diag))
    ok, _ = _ref_is_lie_aut(h.algebra, aut.matrix)
    assert ok and _ref_stabilizes_lattice(aut, h.lattice)
    assert not is_ia_star(aut, h)
    assert not is_ia_star(adapted_map(h, SINGULAR), h)

    # the definition as an oracle: automorphism, stabilizes the lattice,
    # identity on the first d x d adapted block
    def by_definition(aut, hull):
        ok, _ = _ref_is_lie_aut(hull.algebra, aut.matrix)
        if not ok or not _ref_stabilizes_lattice(aut, hull.lattice):
            return False
        A = adapted_matrix(hull, aut)
        return all(A[i][j] == int(i == j)
                   for i in range(hull.d) for j in range(hull.d))

    psi = build_hull(entry_by_name("psi23"))
    pool = [(h, make_ia_star(h, {(2, 0): a, (2, 1): b}))
            for a, b in ((0, 0), (1, -2), (3, 1))]
    pool += [(psi, make_ia_star(psi, e))
             for entry, _, gens, _ in CSP_SUBGROUPS if entry == "psi23"
             for e in gens]
    pool += [(psi, make_ia_star(psi, {(2, 0): 1}))]
    pool += [(h, adapted_map(h, A)) for A in (DIAG, ODD, DOUBLE)]
    verdicts = [is_ia_star(a, hull) for hull, a in pool]
    assert verdicts == [by_definition(a, hull) for hull, a in pool]
    assert True in verdicts and False in verdicts


def _oracle_accepts(hull, aut):
    """The working-coordinate definition of a hull automorphism."""
    try:
        ok, _ = _ref_is_lie_aut(hull.algebra, aut.matrix)
    except ValueError:
        return False
    return ok and _ref_stabilizes_lattice(aut, hull.lattice)


def _seeded_adapted_matrices(hull, rng):
    """Seeded adapted matrices: IA* points, the same points with one entry
    moved by +-1, random rational matrices and sign diagonals."""
    k = hull.algebra.dim
    eq = IAStarEquations(hull)
    points = [p for p in (eq.random_point(rng) for _ in range(10))
              if p is not None]
    mats = [eq.adapted_matrix(p) for p in points]
    for A in mats[:]:
        A = [list(row) for row in A]
        A[rng.randrange(k)][rng.randrange(k)] += rng.choice((-1, 1))
        mats.append(A)
    for _ in range(10):
        mats.append([[F(rng.randint(-2, 2), rng.choice((1, 1, 1, 2)))
                      for _ in range(k)] for _ in range(k)])
    for _ in range(10):
        mats.append([[rng.choice((-1, 1)) if i == j else 0 for j in range(k)]
                     for i in range(k)])
    return mats


def _ref_adapted_matrix(hull, aut):
    """The dense hull-automorphism test (an oracle): M b and A [e_i, e_j]
    through linalg.mat_apply over every entry, zero or not."""
    M = aut.matrix if isinstance(aut, LieAutomorphism) else aut
    cols = [hull.to_adapted_int(linalg.mat_apply(M, b)) for b in hull.basis]
    if None in cols:
        raise ValueError("map does not send the hull lattice into itself")
    A = tuple(zip(*cols))
    if linalg.unimodular_inverse(A) is None:
        raise ValueError("map does not send the hull lattice onto itself")
    broken = _broken_pairs(hull, A)
    if broken:
        raise ValueError("map is not a Lie automorphism"
                         f" (basis pair {broken[0]})")
    return A


def _broken_pairs(hull, A):
    """The basis pairs, in order, whose bracket equation the adapted matrix
    A breaks: A [e_i, e_j] through a dense linalg.mat_apply."""
    alg = hull.adapted_algebra
    cols = list(zip(*A))
    return [(i, j) for i, j in itertools.combinations(range(len(A)), 2)
            if alg.bracket(cols[i], cols[j]) !=
            linalg.mat_apply(A, alg.bracket_basis(i, j))]


def _ref_matrix_from_adapted(hull, adapted):
    """The dense conversion to working coordinates (an oracle)."""
    k = hull.algebra.dim
    cols = []
    for e in linalg.mat_identity(k, F(1)):
        w = linalg.mat_apply(adapted, hull.to_adapted(e))
        cols.append(tuple(sum(x * b[j] for x, b in zip(w, hull.basis))
                          for j in range(k)))
    return tuple(zip(*cols))


def _outcome(test, hull, aut):
    """The matrix a hull-automorphism test returns, or its ValueError text."""
    try:
        return test(hull, aut)
    except ValueError as e:
        return str(e)


def _scaled(hull, t=F(2, 3)):
    """The hull with every adapted structure constant multiplied by t.

    x -> t x is an isomorphism onto the original bracket, and scalars
    commute with every map, so the automorphisms (and the first basis pair
    a map breaks) are unchanged while the constants stop being integers.
    """
    alg = hull.adapted_algebra
    scaled = copy.copy(hull)
    scaled.adapted_algebra = NilpotentLieAlgebra(
        alg.dim, {ij: tuple(t * x for x in v) for ij, v in alg.brackets.items()})
    return scaled


def _top_layer_flips(hull, A):
    """A with the sign of one top-layer column flipped, for each such
    column: unimodular and integral, breaking the pairs whose bracket
    reaches that column."""
    top = max(hull.layers)
    out = []
    for l in range(len(A)):
        if hull.layers[l] == top:
            B = [list(row) for row in A]
            for row in B:
                row[l] = -row[l]
            out.append(B)
    return out


def _oracle_hulls():
    """The catalog hulls and seeded rational shears of two of them."""
    hulls = [(entry.name, build_hull(entry)) for entry in CATALOG]
    hulls += [(f"{name} shear {seed}", lattice_hull(sheared_group(name, seed)))
              for name in ("heisenberg", "psi23") for seed in (0, 1)]
    return hulls


def test_adapted_matrix_matches_working_coordinate_oracle():
    """adapted_matrix accepts a map exactly when it is a Lie automorphism in
    working coordinates that maps the hull lattice onto itself, and returns
    the dense routine's matrix or its exact ValueError text, also with
    non-integer adapted structure constants."""
    rng = random.Random(18)
    integral_not_onto = integral_not_lie = single_pair = 0
    for name, h in _oracle_hulls():
        mats = _seeded_adapted_matrices(h, rng)
        mats += _top_layer_flips(h, mats[0]) + _top_layer_flips(
            h, linalg.mat_identity(h.algebra.dim))
        if name == "heisenberg":
            mats += [DOUBLE, SINGULAR]
        scaled = _scaled(h)
        verdicts = []
        for A in mats:
            aut = adapted_map(h, A)
            want = _oracle_accepts(h, aut)
            got = _outcome(adapted_matrix, h, aut)
            assert got == _outcome(_ref_adapted_matrix, h, aut), (name, A)
            assert _outcome(adapted_matrix, scaled, aut) == got == \
                _outcome(_ref_adapted_matrix, scaled, aut), (name, A)
            if isinstance(got, str):
                assert not want, (name, A)
                assert "hull lattice" in got or "Lie automorphism" in got, got
                integral_not_onto += "onto" in got
                integral_not_lie += "Lie automorphism" in got
                broken = _broken_pairs(h, A) if "Lie" in got else []
                single_pair += len(broken) == 1 and broken[0] != (0, 1)
                verdicts.append(False)
                continue
            assert want, (name, A)
            assert got == tuple(tuple(row) for row in A)
            assert all(type(x) is int for row in got for x in row)
            verdicts.append(True)
        assert True in verdicts and False in verdicts, name
    assert integral_not_onto and integral_not_lie and single_pair


def test_matrix_from_adapted_matches_dense_conversion():
    """Bit-identical Fraction entries, on the oracle maps and the CSP
    generators."""
    rng = random.Random(19)
    for name, h in _oracle_hulls():
        cases = [(A, matrix_from_adapted(h, A)) for A in (
            tuple(tuple(F(x) for x in row) for row in A)
            for A in _seeded_adapted_matrices(h, rng))]
        cases += [(_adapted_entries(h, e), make_ia_star(h, e).matrix)
                  for entry, _, gens, _ in CSP_SUBGROUPS if entry == name
                  for e in gens]
        for A, got in cases:
            assert got == _ref_matrix_from_adapted(h, A), (name, A)
            assert all(type(x) is F for row in got for x in row), (name, A)


def _adapted_entries(h, entries):
    """The Fraction adapted matrix make_ia_star builds from its entries."""
    k = h.algebra.dim
    A = [[F(int(i == j)) for j in range(k)] for i in range(k)]
    for (r, c), v in entries.items():
        A[r][c] = F(v)
    return tuple(tuple(row) for row in A)


def test_adapted_matrix_rejects_maps_that_are_not_k_by_k():
    """A 3 x 4 map used to pass: mat_apply's zip dropped the extra column."""
    h = heis_hull()
    ident = linalg.mat_identity(3)
    for M in (tuple(row + (0,) for row in ident),
              (ident[0], ident[1] + (0,), ident[2]),
              ident[:2], linalg.mat_identity(4), linalg.mat_identity(2)):
        with pytest.raises(DimensionMismatch, match="3 x 3"):
            adapted_matrix(h, M)
        assert not is_ia_star(LieAutomorphism(h.algebra, M), h)


def _count_mat_apply(monkeypatch):
    calls = [0]
    apply = linalg.mat_apply

    def counted(A, v):
        calls[0] += 1
        return apply(A, v)

    monkeypatch.setattr(linalg, "mat_apply", counted)
    return calls


def _psi23_csp_generators():
    h = build_hull(entry_by_name("psi23"))
    return h, [make_ia_star(h, e) for entry, _, gen_entries, _ in CSP_SUBGROUPS
               if entry == "psi23" for e in gen_entries]


def test_adapted_matrix_applies_only_the_coordinate_maps(monkeypatch):
    """On a map given by its working matrix, only the k to_adapted_int
    calls read lattice coordinates (Lattice.coords): the columns and the
    bracket check read nonzero entries themselves (the dense routine made
    2k + k(k-1)/2 mat_apply calls)."""
    h, gens = _psi23_csp_generators()
    maps = [LieAutomorphism(h.algebra, g.matrix) for g in gens]
    h.adapted_algebra  # built on first read, outside the counted calls
    calls = [0]
    coords = Lattice.coords

    def counted(lat, v, n=1):
        calls[0] += 1
        return coords(lat, v, n)

    monkeypatch.setattr(Lattice, "coords", counted)
    for g in maps:
        calls[0] = 0
        adapted_matrix(h, g)
        assert 0 < calls[0] <= h.algebra.dim, calls[0]


def test_adapted_matrix_of_an_adapted_built_map_converts_nothing(
        monkeypatch):
    """A make_ia_star element keeps its integer adapted matrix: testing it
    on its own hull makes no mat_apply call and never builds the working
    matrix."""
    h, gens = _psi23_csp_generators()
    h.adapted_algebra  # built on first read, outside the counted calls
    calls = _count_mat_apply(monkeypatch)
    for g in gens:
        assert adapted_matrix(h, g) == g.adapted
        assert "matrix" not in vars(g)
    assert calls[0] == 0


def test_csp_suite_builds_no_working_matrix(monkeypatch):
    """verify's csp suite certifies every row without converting a single
    IA* element to working coordinates."""
    from malcev import verify
    calls = [0]
    convert = autos.matrix_from_adapted

    def counted(hull, adapted):
        calls[0] += 1
        return convert(hull, adapted)

    monkeypatch.setattr(autos, "matrix_from_adapted", counted)
    monkeypatch.setattr(verify, "matrix_from_adapted", counted)
    assert verify.SUITE_FUNCS["csp"](seed=0).passed
    assert calls[0] == 0


def _ia_star_points(h, rng):
    """Seeded IA* entry dicts on h: exact integral points, and the same
    points with one entry moved by +-1 (most then break the equations)."""
    eq = IAStarEquations(h)
    points = [p for p in (eq.random_point(rng) for _ in range(10))
              if p is not None]
    moved = []
    for p in points if eq.nvars else ():
        i = rng.randrange(eq.nvars)
        moved.append(p[:i] + (p[i] + rng.choice((-1, 1)),) + p[i + 1:])
    return [dict(zip(eq.positions, p)) for p in points + moved]


def test_lazy_matrix_is_the_fraction_conversion():
    """The working matrix a make_ia_star element builds on first use equals
    matrix_from_adapted of its Fraction adapted matrix, Fraction for
    Fraction, on seeded points of every oracle hull, the CSP generators and
    the Heisenberg bound-2 enumeration; adapted_entries reads the entries
    back in ia_star_positions order."""
    rng = random.Random(21)
    heis = build_hull(entry_by_name("heisenberg"))
    cases = [(heis, dict(zip(ia_star_positions(heis), a.adapted_entries)))
             for a in enumerate_ia_star(heis, 2)]
    for name, h in _oracle_hulls():
        cases += [(h, e) for e in _ia_star_points(h, rng)]
        cases += [(h, e) for entry, _, gens, _ in CSP_SUBGROUPS
                  if entry == name for e in gens]
    for h, e in cases:
        aut = make_ia_star(h, e)
        assert "matrix" not in vars(aut)
        want = matrix_from_adapted(h, _adapted_entries(h, e))
        assert aut.matrix == want == _ref_matrix_from_adapted(
            h, _adapted_entries(h, e))
        assert all(type(x) is F for row in aut.matrix for x in row)
        assert aut.matrix is aut.matrix
        assert aut.adapted_entries == tuple(
            e.get(p, 0) for p in ia_star_positions(h))
        assert all(type(x) is int for row in aut.adapted for x in row)


def _ia_star_shaped(h, A):
    """The IA* entries of A when A is I plus integers at IA* positions,
    else None."""
    k = h.algebra.dim
    pos = set(ia_star_positions(h))
    if any(F(A[i][j]) != int(i == j) for i in range(k) for j in range(k)
           if (i, j) not in pos) or \
            any(F(A[r][c]).denominator != 1 for r, c in pos):
        return None
    return {(r, c): int(A[r][c]) for r, c in pos}


def test_adapted_matrix_gives_one_verdict_for_kept_and_working_matrices():
    """The same matrix or the same ValueError text, whether the map keeps
    its integer adapted matrix or is given by its working matrix, on every
    integral map of the working-coordinate oracle test (the same seeded
    draws) and on seeded IA* entry sets that break the equations.  On
    another hull object, even an equal copy, the map is tested through its
    working matrix."""
    rng, extra = random.Random(18), random.Random(23)
    shaped = broken = moved_verdicts = 0
    seen = set()
    hulls = _oracle_hulls()
    for name, h in hulls:
        # another hull of the same dimension, where A means another map
        away = next((g for _, g in hulls if g is not h and
                     g.algebra.dim == h.algebra.dim), dataclasses.replace(h))
        mats = _seeded_adapted_matrices(h, rng)
        mats += _top_layer_flips(h, mats[0]) + _top_layer_flips(
            h, linalg.mat_identity(h.algebra.dim))
        if name == "heisenberg":
            mats += [DOUBLE, SINGULAR]
        entries = [_ia_star_shaped(h, A) for A in mats]
        kept = [make_ia_star(h, e) for e in entries if e is not None]
        shaped += len(kept)
        kept += [LieAutomorphism(h.algebra, hull=h, adapted=tuple(
            tuple(int(x) for x in row) for row in A))
            for A, e in zip(mats, entries) if e is None
            and all(F(x).denominator == 1 for row in A for x in row)]
        moved = [make_ia_star(h, e) for e in _ia_star_points(h, extra)]
        for aut in kept + moved:
            working = LieAutomorphism(h.algebra, aut.matrix)
            got = _outcome(adapted_matrix, h, aut)
            assert got == _outcome(adapted_matrix, h, working), (name, aut)
            assert got == _outcome(_ref_adapted_matrix, h, working)
            seen.add(got if isinstance(got, str) else "ok")
            broken += aut in moved and "(basis pair" in str(got)
            there = _outcome(adapted_matrix, away, aut)
            assert there == _outcome(adapted_matrix, away, LieAutomorphism(
                away.algebra, aut.matrix)), (name, aut)
            moved_verdicts += there != got
            assert _outcome(adapted_matrix, dataclasses.replace(h), aut) == got
    assert shaped and broken and moved_verdicts
    assert "ok" in seen and any("onto" in x for x in seen) and \
        any("Lie automorphism (basis pair" in x for x in seen), seen


def test_compose_multiplies_the_kept_adapted_matrices():
    """compose of two elements on one hull multiplies their integer adapted
    matrices and agrees with the working-matrix product; with a working
    factor, or factors on different hull objects, it multiplies the
    working matrices."""
    rng = random.Random(22)
    for name, h in _oracle_hulls():
        auts = [make_ia_star(h, e) for e in _ia_star_points(h, rng)[:4]]
        for a, b in itertools.product(auts, repeat=2):
            ab = a.compose(b)
            assert ab.hull is h and "matrix" not in vars(ab)
            assert ab.adapted == linalg.mat_mul(a.adapted, b.adapted)
            assert all(type(x) is int for row in ab.adapted for x in row)
            product = linalg.mat_mul(a.matrix, b.matrix)
            assert ab.matrix == product, name
            mixed = a.compose(LieAutomorphism(h.algebra, b.matrix))
            assert mixed.adapted is None and mixed.matrix == product
            apart = make_ia_star(dataclasses.replace(h), dict(
                zip(ia_star_positions(h), b.adapted_entries)))
            assert a.compose(apart).adapted is None
            assert a.compose(apart).matrix == product


def test_aut_star_image():
    h = heis_hull()
    ident = make_ia_star(h, {(2, 0): 2, (2, 1): -1})
    assert aut_star_image(ident, h) == ((1, 0), (0, 1))
    # b1 <-> b2, b3 -> -b3 is an automorphism ([b2,b1] = -2 b3)
    perm = ((F(0), F(1), F(0)), (F(1), F(0), F(0)), (F(0), F(0), F(-1)))
    aut = LieAutomorphism(h.algebra, matrix_from_adapted(h, perm))
    ok, _ = _ref_is_lie_aut(h.algebra, aut.matrix)
    assert ok
    assert aut_star_image(aut, h) == ((0, 1), (1, 0))
    # a Lie automorphism outside Aut(Gamma) is rejected, not truncated to
    # its first block
    odd = adapted_map(h, ODD)
    assert _ref_is_lie_aut(h.algebra, odd.matrix)[0]
    assert not _ref_stabilizes_lattice(odd, h.lattice)
    with pytest.raises(ValueError, match="hull lattice"):
        aut_star_image(odd, h)


def test_positions_and_enumeration():
    h = heis_hull()
    assert ia_star_positions(h) == [(2, 0), (2, 1)]
    lst = enumerate_ia_star(h, 3)
    assert len(lst) == 49
    assert {a.adapted_entries for a in lst} == {
        (x, y) for x in range(-3, 4) for y in range(-3, 4)}
    ab = lattice_hull(_ref_from_elements(
        __import__("malcev.liealg", fromlist=["NilpotentLieAlgebra"])
        .NilpotentLieAlgebra.abelian(2), [(1, 0), (0, 1)]))
    assert len(enumerate_ia_star(ab, 3)) == 1


def test_aut_star_multiplicative():
    h = heis_hull()
    rng = random.Random(0)
    perm = LieAutomorphism(h.algebra, matrix_from_adapted(
        h, ((F(0), F(1), F(0)), (F(1), F(0), F(0)), (F(0), F(0), F(-1)))))
    pool = [make_ia_star(h, {(2, 0): rng.randint(-2, 2),
                             (2, 1): rng.randint(-2, 2)})
            for _ in range(5)] + [perm]
    for a in pool:
        for b in pool:
            lhs = aut_star_image(a.compose(b), h)
            import malcev.linalg as lin
            rhs = lin.mat_mul(aut_star_image(a, h), aut_star_image(b, h))
            assert lhs == tuple(tuple(int(x) for x in row) for row in rhs)


def test_strong_approx_basics():
    h = heis_hull()
    r = strong_approx_check(h, 1)
    assert r["surjective"] and r["solution_count"] == 1
    r = strong_approx_check(h, 6)
    assert r["surjective"] and r["solution_count"] == 36
    # raw (unsaturated) equations on a class-3 hull have extra mod-2 points
    from malcev.freenil import psi_group
    psi = psi_group(2, 3)
    raw = IAStarEquations(psi.hull, saturate=False)
    r_raw = strong_approx_check(psi.hull, 2, eq=raw)
    assert not r_raw["surjective"] and r_raw["failure_witnesses"]
    sat = IAStarEquations(psi.hull)
    r_sat = strong_approx_check(psi.hull, 2, eq=sat)
    assert r_sat["surjective"] and r_sat["solution_count"] == 64


def test_lift_reduces_correctly():
    from malcev.freenil import psi_group
    psi = psi_group(2, 3)
    eq = IAStarEquations(psi.hull)
    for m in (2, 3, 4):
        for a in eq.solutions_mod(m):
            exact = eq.lift(a, m)
            assert exact is not None
            assert all((e - v) % m == 0 for e, v in zip(exact, a))
            assert eq.check_assignment(exact)


def test_csp_witness_examples():
    h = heis_hull()
    eq = IAStarEquations(h)
    full = [make_ia_star(h, {(2, 0): 1}), make_ia_star(h, {(2, 1): 1})]
    rep = csp_witness(h, full, eq=eq)
    assert rep["status"] == "certified" and rep["m"] == 1
    g1 = [make_ia_star(h, {(2, 0): 2}), make_ia_star(h, {(2, 1): 1})]
    rep = csp_witness(h, g1, eq=eq)
    assert rep["m"] == 2 and rep["index"] == 2
    evens = [make_ia_star(h, {(2, 0): 1, (2, 1): 1}),
             make_ia_star(h, {(2, 1): 2})]
    rep = csp_witness(h, evens, eq=eq)
    assert rep["m"] == 2 and rep["index"] == 2
    # caps produce "inconclusive", never refutation
    g7 = [make_ia_star(h, {(2, 0): 7}), make_ia_star(h, {(2, 1): 1})]
    rep = csp_witness(h, g7, index=7, level_cap=5, eq=eq)
    assert rep["status"] == "inconclusive"
    # a map outside Aut(Gamma) has no integer adapted matrix to reduce
    odd = adapted_map(h, ODD)
    with pytest.raises(ValueError, match="hull lattice"):
        autos._abelian_index(eq, [adapted_matrix(h, g) for g in
                                  (odd, make_ia_star(h, {(2, 1): 1}))])
    with pytest.raises(ValueError, match="hull lattice"):
        subgroup_closure_mod(h, [adapted_matrix(h, odd)], 2)
    with pytest.raises(ValueError, match="must pass is_ia_star"):
        csp_witness(h, [odd, make_ia_star(h, {(2, 1): 1})], eq=eq)


def test_csp_witness_rejects_a_wrong_supplied_index():
    """IA* of the Heisenberg hull is Z^2, so the index is computed even when
    one is supplied, and a different one raises instead of certifying."""
    h = build_hull(entry_by_name("heisenberg"))
    eq = IAStarEquations(h)
    rows = [row for row in CSP_SUBGROUPS if row[0] == "heisenberg"]
    assert len(rows) == 10
    for _, desc, gen_entries, index in rows:
        gens = [make_ia_star(h, e) for e in gen_entries]
        assert csp_witness(h, gens, eq=eq)["index"] == index, desc
        assert csp_witness(h, gens, index=index, eq=eq)["status"] == \
            "certified"
        for wrong in (index - 1, index + 1, 2 * index):
            with pytest.raises(IndexMismatch, match=(
                    rf"supplied index {wrong} is not \[IA\* : <gens>\]"
                    rf" = {index}$")):
                csp_witness(h, gens, index=wrong, eq=eq)
    assert issubclass(IndexMismatch, ValueError)


def _csp_row(entry, desc):
    return next(row for row in CSP_SUBGROUPS if row[:2] == (entry, desc))


def test_a_point_cap_inside_the_level_loop_is_inconclusive():
    """Twice the true index of psi23 "a1 even" matches no level, and the
    level whose points pass the cap ends the search as inconclusive instead
    of raising CapExceeded (4^6 points fit the cap, 5^6 do not)."""
    h = build_hull(entry_by_name("psi23"))
    eq = IAStarEquations(h)
    gens = [make_ia_star(h, e) for e in _csp_row("psi23", "a1 even")[2]]
    with pytest.raises(CapExceeded):
        eq.count_mod(5, 4 ** 6)
    assert csp_witness(h, gens, index=4, eq=eq, point_cap=4 ** 6) == {
        "m": None, "index": 4, "status": "inconclusive", "level_cap": 16,
        "capped_at": 5}
    # below the capped level the report keeps its shape
    assert csp_witness(h, gens, index=4, eq=eq, point_cap=4 ** 6,
                       level_cap=4) == {
        "m": None, "index": 4, "status": "inconclusive", "level_cap": 4}


def test_uncertified_levels_count_only_points_that_lift():
    """On the raw psi23 equations (free_rank None) only 64 of the 256 mod-2
    points lift, so U_2 overcounts the image of IA*(Z): the index that
    256 / |image| gives at m = 2 must not certify there.  Every mod-3 point
    lifts, so "a2 = 0 mod 3" still certifies at m = 3 with its true index."""
    h = build_hull(entry_by_name("psi23"))
    raw = IAStarEquations(h, saturate=False)
    assert raw.free_rank is None
    points = raw.solutions_mod(2)
    assert len(points) == 256
    assert sum(raw.lift(a, 2) is not None for a in points) == 64
    indices = []
    for entry, desc, gen_entries, _ in CSP_SUBGROUPS:
        if entry != "psi23":
            continue
        gens = [make_ia_star(h, e) for e in gen_entries]
        image = subgroup_closure_mod(h, [adapted_matrix(h, g) for g in gens], 2)
        indices.append(256 // len(image))
        rep = csp_witness(h, gens, index=indices[-1], eq=raw, level_cap=2)
        assert rep["status"] == "inconclusive", (desc, rep)
    assert indices == [8, 4, 16]
    gens = [make_ia_star(h, e) for e in _csp_row("psi23", "a2 = 0 mod 3")[2]]
    rep = csp_witness(h, gens, index=3, eq=raw, level_cap=3)
    assert (rep["status"], rep["m"], rep["universe"]) == ("certified", 3, 729)


def test_csp_witness_converts_each_generator_a_fixed_number_of_times(
        monkeypatch):
    """"beta = 0 mod 16" certifies at m = 16; one adapted matrix per
    generator and level tried would take more than 32 calls."""
    from malcev import autos
    calls = [0]
    adapted = autos.adapted_matrix

    def counted(hull, aut):
        calls[0] += 1
        return adapted(hull, aut)

    monkeypatch.setattr(autos, "adapted_matrix", counted)
    for entry, desc, m in (("psi23", "a2 = 0 mod 3", 3),
                           ("heisenberg", "beta = 0 mod 16", 16)):
        _, _, gen_entries, index = next(row for row in CSP_SUBGROUPS
                                        if row[:2] == (entry, desc))
        h = build_hull(entry_by_name(entry))
        gens = [make_ia_star(h, e) for e in gen_entries]
        calls[0] = 0
        # the Heisenberg index is computed, the psi(2,3) one supplied
        rep = csp_witness(h, gens, index=index if entry == "psi23" else None)
        assert (rep["m"], rep["index"]) == (m, index)
        assert calls[0] <= 2 * len(gens), (desc, calls[0])


def _ref_csp_witness(hull, gens, index=None, level_cap=16, eq=None,
                     point_cap=200_000, samples=100, seed=0):
    """csp_witness with the reduced matrix of every kernel sample built and
    compared with the identity (an oracle)."""
    eq = eq or IAStarEquations(hull)
    mats = [autos._ia_star_matrix(g, hull) for g in gens]
    if None in mats:
        raise ValueError("subgroup generators must pass is_ia_star")
    if index is None:
        index = autos._abelian_index(eq, mats)
    rng = random.Random(seed)
    for m in range(1, level_cap + 1):
        universe = eq.count_mod(m, point_cap)
        image = subgroup_closure_mod(hull, mats, m)
        if universe % len(image) or universe // len(image) != index:
            continue
        kernel_checked = 0
        ident = eq.adapted_matrix((0,) * eq.nvars, mod=m)
        for _ in range(samples):
            point = eq.random_point(rng, spread=3, multiple=m)
            if point is None:
                continue
            reduced = eq.adapted_matrix(point, mod=m)
            if reduced != ident:
                continue
            if reduced not in image:
                raise RuntimeError("kernel element escapes the image")
            kernel_checked += 1
        return {"m": m, "index": index, "universe": universe,
                "image": len(image), "kernel_samples": kernel_checked,
                "status": "certified"}
    return {"m": None, "index": index, "status": "inconclusive",
            "level_cap": level_cap}


def _off_kernel_draws(monkeypatch):
    """Make random_point return None or move one seeded coordinate by +-1
    for about two thirds of the draws, from the same generator, so that
    some samples are absent or do not reduce to the identity."""
    real = IAStarEquations.random_point

    def draw(self, rng, spread=3, multiple=1):
        point = real(self, rng, spread, multiple)
        kind = rng.randrange(3)
        if point is None or kind == 0:
            return point
        if kind == 1:
            return None
        i = rng.randrange(self.nvars)
        return point[:i] + (point[i] + rng.choice((-1, 1)),) + point[i + 1:]

    monkeypatch.setattr(IAStarEquations, "random_point", draw)


@pytest.mark.parametrize("off_kernel", [False, True])
def test_csp_witness_matches_per_sample_matrix_oracle(monkeypatch, off_kernel):
    """Testing each kernel sample's point mod m gives the report of building
    its reduced matrix, on every CSP row at seeds 0-3.  The exact draws all
    reduce to the identity; the off-kernel ones mostly do not."""
    if off_kernel:
        _off_kernel_draws(monkeypatch)
    hulls = {n: build_hull(entry_by_name(n)) for n in ("heisenberg", "psi23")}
    eqs = {n: IAStarEquations(h) for n, h in hulls.items()}
    counts = set()
    for entry, desc, gen_entries, index in CSP_SUBGROUPS:
        h, eq = hulls[entry], eqs[entry]
        gens = [make_ia_star(h, e) for e in gen_entries]
        for seed in range(4):
            rep = csp_witness(h, gens, index=index, eq=eq, seed=seed)
            assert rep == _ref_csp_witness(h, gens, index=index, eq=eq,
                                           seed=seed), (desc, seed)
            counts.add(rep["kernel_samples"])
    if off_kernel:
        assert 0 < min(counts) and max(counts) < 60, counts
    else:
        assert counts == {100}, counts


def test_mod_m_group_is_a_group():
    h = heis_hull()
    U = mod_m_group(h, 4)
    assert len(U) == 16
    for A in list(U)[:6]:
        for B in list(U)[:6]:
            prod = tuple(tuple(sum(A[i][t] * B[t][j] for t in range(3)) % 4
                               for j in range(3)) for i in range(3))
            assert prod in U


def test_enumeration_dimension_cap():
    from malcev.errors import CapExceeded
    from malcev.freenil import psi_group
    psi = psi_group(2, 4)  # dim 8 > 6
    with pytest.raises(CapExceeded):
        enumerate_ia_star(psi.hull, 1)


def test_strong_approx_psi32():
    from malcev.freenil import psi_group
    psi = psi_group(3, 2)
    eq = IAStarEquations(psi.hull)
    for m in (2, 3):
        r = strong_approx_check(psi.hull, m, eq=eq)
        assert r["surjective"]
        assert r["solution_count"] == m ** 9  # nine free positions, class 2


def test_integral_solutions_reduce_into_mod_m_sets():
    from malcev.freenil import psi_group
    psi = psi_group(2, 3)
    eq = IAStarEquations(psi.hull)
    integral = eq.enumerate_integral(2)
    for m in (2, 3, 5):
        sols = set(eq.solutions_mod(m))
        for point in integral:
            assert tuple(v % m for v in point) in sols


def _ref_row_values(eq, point):
    """The value of every IA* row of ``eq`` at an integer point."""
    return [sum(c * prod(point[v] for v in mono) for mono, c in rem)
            + sum(c * point[v] for c, v in zip(lin, s.vars))
            for s in eq.strata for lin, rem in s.rows]


def _ref_solutions_mod(eq, m):
    """Every point of range(m)^nvars at which every row is 0 mod m."""
    return [p for p in itertools.product(range(m), repeat=eq.nvars)
            if all(t % m == 0 for t in _ref_row_values(eq, p))]


def _ref_enumerate_integral(eq, bound):
    """Every point of [-bound, bound]^nvars that passes check_assignment."""
    return [p for p in itertools.product(range(-bound, bound + 1),
                                         repeat=eq.nvars)
            if eq.check_assignment(p)]


def test_strata_search_matches_brute_force():
    """solutions_mod and enumerate_integral list exactly the points of the
    whole box that solve the rows (mod m, or over Z), each once, on catalog
    systems saturated and raw, on the raw filiform system, whose middle
    stratum has a remainder term in a depth-1 unknown, and on 2y + x = 0,
    which has no solution mod 2 at an odd x."""
    systems = [(name, saturate,
                IAStarEquations(build_hull(entry_by_name(name)), saturate))
               for name in ("heisenberg", "psi22", "psi32", "abelian2", "psi23")
               for saturate in (True, False)]
    systems.append(("filiform", False,
                    IAStarEquations(filiform_hull(), saturate=False)))
    systems.append(("parity", False, _parity_equations()))
    for name, saturate, eq in systems:
        assert 3 ** eq.nvars < 20000, name
        for m in (1, 2, 3):
            got = eq.solutions_mod(m)
            assert len(set(got)) == len(got), (name, saturate, m)
            assert sorted(got) == _ref_solutions_mod(eq, m), (name, saturate, m)
        assert sorted(eq.enumerate_integral(1)) == \
            _ref_enumerate_integral(eq, 1), (name, saturate)


def test_make_ia_star_rejects_shallow_positions():
    h = heis_hull()
    with pytest.raises(ValueError):
        make_ia_star(h, {(0, 2): 1})  # layer(row) <= layer(col)
    with pytest.raises(ValueError, match="must be integers"):
        make_ia_star(h, {(2, 0): F(3, 2)})


def _random_unimodular(rng, k):
    """Product of random elementary integer matrices (det +-1)."""
    from test_linalg import _ref_det
    M = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(3 * k):
        i, j = rng.randrange(k), rng.randrange(k)
        if i == j:
            continue
        q = rng.randint(-2, 2)
        for t in range(k):
            M[i][t] += q * M[j][t]
    assert abs(_ref_det(M)) == 1
    return M


@pytest.mark.parametrize("builder,counts", [
    ("heis", {2: 4, 3: 9, 4: 16}),
    ("psi23", {2: 64, 3: 729}),
])
def test_mod_m_counts_are_coordinate_independent(builder, counts):
    """The mod-m point counts are invariants of the group, so they must not
    change under a unimodular change of the ambient coordinates."""
    from malcev.freenil import psi_group
    from malcev.hull import lattice_hull
    from malcev.liealg import NilpotentLieAlgebra
    import malcev.linalg as lin

    if builder == "heis":
        alg, _ = __import__("malcev.unitriangular",
                            fromlist=["tr0_algebra"]).tr0_algebra(3)
        gen_logs = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    else:
        psi = psi_group(2, 3)
        alg = psi.algebra
        gen_logs = psi.generator_logs()
    rng = random.Random(11)
    T = _random_unimodular(rng, alg.dim)
    twisted, to_new, _ = alg.change_basis(T)
    hull = lattice_hull(_ref_from_elements(
        twisted, [to_new(tuple(map(F, g))) for g in gen_logs]))
    eq = IAStarEquations(hull)
    for m, expected in counts.items():
        assert len(eq.solutions_mod(m)) == expected
        r = strong_approx_check(hull, m, eq=eq)
        assert r["surjective"]


def test_mod_m_counts_multiplicative_over_coprime_levels():
    from malcev.freenil import psi_group
    h = heis_hull()
    eq = IAStarEquations(h)
    assert len(eq.solutions_mod(6)) == \
        len(eq.solutions_mod(2)) * len(eq.solutions_mod(3))
    psi = psi_group(2, 3)
    eq23 = IAStarEquations(psi.hull)
    assert len(eq23.solutions_mod(6)) == \
        len(eq23.solutions_mod(2)) * len(eq23.solutions_mod(3))


def test_subgroup_closure_mod_is_closed_under_inverses():
    hulls = {name: build_hull(entry_by_name(name))
             for name in ("heisenberg", "psi23")}
    levels = {"heisenberg": range(2, 7), "psi23": (2, 3)}

    def reduced(A, m):
        return tuple(tuple(int(x) % m for x in row) for row in A)

    for entry, desc, gen_entries, _ in CSP_SUBGROUPS:
        h = hulls[entry]
        gens = [make_ia_star(h, e) for e in gen_entries]
        for m in levels[entry]:
            image = subgroup_closure_mod(h, [adapted_matrix(h, g) for g in gens], m)
            assert all(reduced(adapted_matrix(h, g), m) in image for g in gens)
            for A in image:
                assert reduced(linalg.unimodular_inverse(A), m) in image, (desc, m, A)


def _ref_subgroup_closure_mod(hull, mats, m):
    """The closure by dense k x k products reduced mod m (an oracle)."""
    k = hull.algebra.dim
    start = [tuple(tuple(x % m for x in row) for row in A) for A in mats]
    ident = tuple(tuple(int(i == j) % m for j in range(k)) for i in range(k))
    return set(closure(ident, start, lambda x, g: tuple(
        tuple(v % m for v in row) for row in linalg.mat_mul(x, g))))


def _no_dense_products(*args):
    raise AssertionError("subgroup_closure_mod made a dense matrix product")


def test_subgroup_closure_mod_matches_dense_oracle_on_catalog(monkeypatch):
    """Every CSP row, at every level up to the one that certifies it."""
    hulls = {}
    for entry, desc, gen_entries, index in CSP_SUBGROUPS:
        h = hulls.setdefault(entry, build_hull(entry_by_name(entry)))
        gens = [make_ia_star(h, e) for e in gen_entries]
        top = csp_witness(h, gens, index=index)["m"]
        mats = [adapted_matrix(h, g) for g in gens]
        for m in range(1, top + 1):
            expected = _ref_subgroup_closure_mod(h, mats, m)
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "mat_mul", _no_dense_products)
                assert subgroup_closure_mod(h, mats, m) == expected, (desc, m)
    assert {h.algebra.dim for h in hulls.values()} == {3, 5}


def _conjugated_small_group(rng, k, m):
    """Integer generators of T H T^-1 for a random unimodular T, where H is
    generated by a diagonal D of units mod m and I + a e_rc, I + b e_rd.
    D scales the two square-zero, commuting e_rc and e_rd, so
    |H| <= ord(D) * m^2."""
    T = _random_unimodular(rng, k)
    Tinv = linalg.unimodular_inverse(T)
    units = [u for u in range(1, m + 1) if gcd(u, m) == 1]
    r, c, d = rng.sample(range(k), 3)
    hs = [[[rng.choice(units) * (i == j) for j in range(k)] for i in range(k)]]
    for col in (c, d):
        E = [[int(i == j) for j in range(k)] for i in range(k)]
        E[r][col] = rng.randint(1, m)
        hs.append(E)
    return [linalg.mat_mul(linalg.mat_mul(T, A), Tinv) for A in hs]


@pytest.mark.parametrize("k", [3, 5])
def test_subgroup_closure_mod_matches_dense_oracle_on_random_sets(
        monkeypatch, k):
    """Seeded integer generator sets, not reduced and not unitriangular:
    one raw matrix (its cyclic monoid, often singular mod m) and conjugates
    of a small group, whose diagonals are rarely 1 mod m."""
    rng = random.Random(23 + k)
    hull = SimpleNamespace(algebra=SimpleNamespace(dim=k))
    off_diagonal = 0
    for m in range(1, 7):
        for _ in range(3):
            raw = [[rng.randint(-m, 2 * m) for _ in range(k)] for _ in range(k)]
            for mats in ([raw], _conjugated_small_group(rng, k, m)):
                off_diagonal += any(A[i][i] % m != 1 % m
                                    for A in mats for i in range(k))
                expected = _ref_subgroup_closure_mod(hull, mats, m)
                with monkeypatch.context() as patch:
                    patch.setattr(linalg, "mat_mul", _no_dense_products)
                    assert subgroup_closure_mod(hull, mats, m) == expected, \
                        (m, mats)
    assert off_diagonal > 20


# -- the lift against a reference lift written out stratum by stratum ---------


def reference_lift(eq, assignment, m):
    """The straight-line lift, written out: each stratum solved over Z."""
    exact = [None] * eq.nvars
    for s in eq.strata:
        u = len(s.vars)
        xbar = [assignment[v] % m for v in s.vars]
        if not s.rows:
            for v, val in zip(s.vars, xbar):
                exact[v] = val
            continue
        resid = []
        for lin, rem in s.rows:
            t = eq._rem_value(rem, exact) + sum(c * x for c, x in zip(lin, xbar))
            if t % m:
                return None
            resid.append(-(t // m))
        diag, U, V = s.snf
        c = [sum(U[i][j] * resid[j] for j in range(len(resid)))
             for i in range(len(resid))]
        rank = len(diag)
        if any(c[i] for i in range(rank, len(c))):
            return None
        w = [0] * u
        for i in range(rank):
            if c[i] % diag[i]:
                return None
            w[i] = c[i] // diag[i]
        z = [sum(V[t][j] * w[j] for j in range(u)) for t in range(u)]
        for t, v in enumerate(s.vars):
            exact[v] = xbar[t] + m * z[t]
    return tuple(exact)


def filiform_hull():
    """A non-graded class-4 algebra: [e1,ei] = e(i+1) for i = 2..4 and
    [e2,e3] = e5.  The bracket [e2,e3] skips a layer, so its middle IA*
    stratum has a remainder term in a depth-1 unknown."""
    def e(i):
        return tuple(int(i == j) for j in range(5))

    alg = NilpotentLieAlgebra(5, {(0, 1): e(2), (0, 2): e(3), (0, 3): e(4),
                                  (1, 2): e(4)})
    return lattice_hull(_ref_from_elements(alg, [e(0), e(1)]))


def _oracle_equations(name):
    """A fresh equations object, its levels, and two levels to alternate."""
    from malcev.freenil import psi_group
    if name == "psi23":
        return IAStarEquations(psi_group(2, 3).hull), (2, 3, 4, 5), (4, 5)
    if name == "psi24":
        return IAStarEquations(psi_group(2, 4).hull), (2,), None
    if name == "psi23-raw":
        return (IAStarEquations(psi_group(2, 3).hull, saturate=False), (2,),
                None)
    if name == "filiform":
        return IAStarEquations(filiform_hull()), (2, 3, 4), (3, 4)
    return (IAStarEquations(filiform_hull(), saturate=False), (2, 3),
            (2, 3))


def _assert_lifts_match(eq, points, m):
    found = 0
    for a in points:
        want = reference_lift(eq, a, m)
        assert eq.lift(a, m) == want, (m, a)
        found += want is not None
    return found


ORACLE_CASES = ["psi23", "psi24", "psi23-raw", "filiform", "filiform-raw"]


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_lift_matches_reference_in_enumeration_order(name):
    eq, levels, _ = _oracle_equations(name)
    for m in levels:
        _assert_lifts_match(eq, eq.solutions_mod(m), m)


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_lift_matches_reference_in_shuffled_order(name):
    eq, levels, _ = _oracle_equations(name)
    rng = random.Random(5)
    for m in levels:
        points = eq.solutions_mod(m)
        rng.shuffle(points)
        _assert_lifts_match(eq, points, m)


@pytest.mark.parametrize("name", ["psi23", "filiform", "filiform-raw"])
def test_lift_matches_reference_across_alternating_moduli(name):
    eq, _, (m1, m2) = _oracle_equations(name)
    points = {m: eq.solutions_mod(m) for m in (m1, m2)}
    for m in (m1, m2, m1):
        _assert_lifts_match(eq, points[m], m)
    # point by point, the modulus changes on every call
    for a1, a2 in zip(points[m1], points[m2]):
        _assert_lifts_match(eq, [a1], m1)
        _assert_lifts_match(eq, [a2], m2)


def _ref_random_point(eq, rng, spread=3, multiple=1):
    """random_point with the Smith back-solve written out per stratum."""
    exact = [None] * eq.nvars
    for s in eq.strata:
        u = len(s.vars)
        diag, U, V = s.snf
        rank = len(diag)
        if not s.rows:
            for v in s.vars:
                exact[v] = multiple * rng.randint(-spread, spread)
            continue
        b = [-eq._rem_value(rem, exact) for _, rem in s.rows]
        c = [sum(U[i][j] * b[j] for j in range(len(b)))
             for i in range(len(b))]
        if any(c[i] for i in range(rank, len(c))):
            return None
        w = [0] * u
        for i in range(rank):
            if c[i] % diag[i]:
                return None
            w[i] = c[i] // diag[i]
        for i in range(rank, u):
            w[i] = multiple * rng.randint(-spread, spread)
        for t, v in enumerate(s.vars):
            exact[v] = sum(V[t][j] * w[j] for j in range(u))
    return tuple(exact)


def _parity_equations():
    """Two unknowns: x free, then 2y + x = 0, so only an even x extends."""
    eq = object.__new__(IAStarEquations)
    eq.nvars = 2
    free, bound = _Stratum(1, [0]), _Stratum(2, [1])
    free.snf = ([], [], [(1,)])
    bound.rows = [((2,), (((0,), 1),))]
    bound.snf = linalg.snf_with_transforms([[2]], 1)
    eq.strata = [free, bound]
    return eq


@pytest.mark.parametrize("name", ORACLE_CASES + ["abelian2", "heisenberg",
                                                 "parity"])
def test_random_point_matches_reference_draws(name):
    """Same points and the same random draws, failed points included, so
    a generator shared across calls stays in step."""
    if name == "abelian2":
        eq = _abelian2_equations()
    elif name == "heisenberg":
        eq = IAStarEquations(heis_hull())
    elif name == "parity":
        eq = _parity_equations()
    else:
        eq = _oracle_equations(name)[0]
    got_rng, want_rng = random.Random(7), random.Random(7)
    points = failed = 0
    for spread, multiple in ((3, 1), (2, 3), (5, 2)) * 10:
        got = eq.random_point(got_rng, spread, multiple)
        assert got == _ref_random_point(eq, want_rng, spread, multiple)
        assert got_rng.getstate() == want_rng.getstate()
        if got is None:
            failed += 1
        else:
            points += 1
            assert eq.check_assignment(got)
    assert points and (failed or name != "parity")


def test_raw_psi23_lifts_64_of_256_points_at_level_2():
    """Raw psi(2,3) equations at m = 2: 256 points of which 64 lift; the
    other 192 share prefixes that have no exact lift."""
    eq, _, _ = _oracle_equations("psi23-raw")
    points = eq.solutions_mod(2)
    assert len(points) == 256
    assert _assert_lifts_match(eq, points, 2) == 64
    assert _assert_lifts_match(eq, points, 2) == 64
    r = strong_approx_check(eq.hull, 2, eq=eq, witness_cap=300)
    assert (r["solution_count"], r["lifted"]) == (256, 64)
    assert len(r["failure_witnesses"]) == 192


def test_lift_with_no_strata():
    ab = lattice_hull(_ref_from_elements(NilpotentLieAlgebra.abelian(2),
                                         [(1, 0), (0, 1)]))
    eq = IAStarEquations(ab)
    assert eq.strata == [] and eq.lift((), 3) == ()
    for m in (1, 2, 5):
        assert strong_approx_check(ab, m, eq=eq) == {
            "m": m, "solution_count": 1, "lifted": 1, "surjective": True,
            "failure_witnesses": []}


def test_invariant_failures_raise_runtime_error(monkeypatch):
    """Library invariants raise RuntimeError, which survives ``python -O``."""
    h = heis_hull()
    eq = IAStarEquations(h)
    monkeypatch.setattr(eq, "lift", lambda a, m: tuple(v + 1 for v in a))
    with pytest.raises(RuntimeError, match="lift does not reduce to its point"):
        strong_approx_check(h, 2, eq=eq)
    monkeypatch.setattr("malcev.autos.is_ia_star", lambda aut, hull: False)
    with pytest.raises(RuntimeError, match="failed is_ia_star validation"):
        enumerate_ia_star(h, 0)


# -- the free-rank certificate against enumeration -----------------------------


def enumerated_check(eq, m, witness_cap=5):
    """strong_approx_check's result by listing and lifting every mod-m point."""
    sols = eq.solutions_mod(m)
    failures, lifted = [], 0
    for a in sols:
        exact = eq.lift(a, m)
        if exact is None:
            failures.append(a)
            if len(failures) >= witness_cap:
                break
            continue
        assert all((e - v) % m == 0 for e, v in zip(exact, a))
        assert eq.check_assignment(exact)
        lifted += 1
    return {"m": m, "solution_count": len(sols), "lifted": lifted,
            "surjective": not failures, "failure_witnesses": failures}


def _abelian2_equations():
    return IAStarEquations(lattice_hull(_ref_from_elements(
        NilpotentLieAlgebra.abelian(2), [(1, 0), (0, 1)])))


@pytest.mark.parametrize("name,levels", [("psi23", range(1, 7)),
                                         ("psi24", (2,)),
                                         ("filiform", range(1, 5)),
                                         ("abelian2", (1, 2, 5))])
def test_certificate_matches_enumeration(name, levels):
    eq = _abelian2_equations() if name == "abelian2" else \
        _oracle_equations(name)[0]
    assert eq.free_rank is not None
    for m in levels:
        assert strong_approx_check(eq.hull, m, eq=eq) == \
            enumerated_check(eq, m), m


@pytest.mark.parametrize("name,seeds", [("Psi(2,3)", 5), ("Psi(3,2)", 3),
                                        ("UT(4)", 3), ("Psi(2,4)", 2),
                                        ("UT(5)", 1)])
def test_certificate_matches_enumeration_on_generated_hulls(name, seeds):
    """Seeded Nielsen-moved generators give other coordinates for the same
    groups; the saturated systems stay certified, and where m^f is small
    the certificate agrees with enumeration."""
    from test_hull import _moved_generators
    for seed in range(seeds):
        rng = random.Random(seed)
        alg, gens, _ = _moved_generators(name, rng, rng.randint(1, 4))
        h = lattice_hull(GenGroup(alg, gens))
        eq = IAStarEquations(h)
        assert eq.free_rank is not None, seed
        for m in (2, 3):
            if m ** eq.free_rank <= 10_000:
                assert strong_approx_check(h, m, eq=eq) == \
                    enumerated_check(eq, m), (seed, m)


def test_free_rank_certificate_and_its_fallback():
    from malcev.freenil import psi_group
    assert IAStarEquations(heis_hull()).free_rank == 2
    for (n, c), f in (((2, 3), 6), ((2, 4), 12), ((3, 3), 33), ((2, 5), 24)):
        assert IAStarEquations(psi_group(n, c).hull).free_rank == f, (n, c)
    # raw Smith diagonals (2, 2) and ((2, 6), (2)): points that do not lift
    for name, count, lifted in (("psi23-raw", 256, 64),
                                ("filiform-raw", 512, 64)):
        eq = _oracle_equations(name)[0]
        assert eq.free_rank is None
        assert eq.count_mod(2) == count
        r = strong_approx_check(eq.hull, 2, eq=eq, witness_cap=count)
        assert r == enumerated_check(eq, 2, witness_cap=count)
        assert (r["solution_count"], r["lifted"]) == (count, lifted)
        assert len(r["failure_witnesses"]) == count - lifted


def test_count_mod_is_the_order_of_the_mod_m_group():
    from malcev.errors import CapExceeded
    from malcev.freenil import psi_group
    for h in (heis_hull(), psi_group(2, 3).hull):
        eq = IAStarEquations(h)
        for m in range(1, 5):
            assert eq.count_mod(m) == len(mod_m_group(h, m, eq)), m
    for eq, f in ((IAStarEquations(heis_hull()), 2),
                  (_oracle_equations("psi23-raw")[0], 8)):
        assert eq.count_mod(2, cap=2 ** f) == 2 ** f
        with pytest.raises(CapExceeded, match="more than 3 mod-2 points"):
            eq.count_mod(2, cap=3)
        with pytest.raises(ValueError):
            eq.count_mod(0)


def test_certified_checks_do_not_enumerate(monkeypatch):
    from malcev.catalog import build_hull, entry_by_name
    hulls = {n: build_hull(entry_by_name(n)) for n in ("heisenberg", "psi23")}
    eqs = {n: IAStarEquations(h) for n, h in hulls.items()}

    def enumerate_points(self, m, cap=None):
        raise AssertionError("a certified check listed its points")

    monkeypatch.setattr(IAStarEquations, "solutions_mod", enumerate_points)
    for name, f in (("heisenberg", 2), ("psi23", 6)):
        assert strong_approx_check(hulls[name], 8, eq=eqs[name]) == {
            "m": 8, "solution_count": 8 ** f, "lifted": 8 ** f,
            "surjective": True, "failure_witnesses": []}
    _, _, gen_entries, index = next(row for row in CSP_SUBGROUPS
                                    if row[:2] == ("psi23", "a2 = 0 mod 3"))
    h = hulls["psi23"]
    gens = [make_ia_star(h, e) for e in gen_entries]
    assert csp_witness(h, gens, index=index, eq=eqs["psi23"]) == {
        "m": 3, "index": 3, "universe": 729, "image": 243,
        "kernel_samples": 100, "status": "certified"}


# -- the integer IA* equations against their Fraction build -------------------


def _ref_ia_star_rows(hull, saturate):
    """(strata, free_rank) of IAStarEquations(hull, saturate) built on
    Fraction polynomials, the build that its integer core replaced: each
    equation [A e_i, A e_j] - A [e_i, e_j] is read off the Fraction bracket
    of the symbolic columns of A = I + N, cleared by ``integer_rows`` and
    split into its linear part and remainder.  The strata are
    (depth, vars, rows, Smith data) tuples."""
    from malcev.lattices import integer_rows
    from test_liealg import (_ref_poly_add, _ref_poly_scale, _ref_poly_sub,
                             _ref_sym_bracket)
    adapted, layers = hull.adapted_algebra, hull.layers
    k = adapted.dim
    var_of = {p: v for v, p in enumerate(ia_star_positions(hull))}
    depth_of = [layers[r] - layers[c] for r, c in var_of]
    strata = {w: _Stratum(w, [v for v, d in enumerate(depth_of) if d == w])
              for w in sorted(set(depth_of))}
    cols = [[{(): F(1)} if r == c else {(var_of[r, c],): F(1)}
             if (r, c) in var_of else {} for r in range(k)] for c in range(k)]
    for i, j in itertools.combinations(range(k), 2):
        lhs = _ref_sym_bracket(adapted, cols[i], cols[j])
        w = adapted.bracket_basis(i, j)
        for r in range(k):
            rhs = {}
            for c in range(k):
                if w[c]:
                    rhs = _ref_poly_add(rhs, _ref_poly_scale(w[c], cols[c][r]))
            p = _ref_poly_sub(lhs[r], rhs)
            if not p:
                continue
            s = strata[layers[r] - layers[i] - layers[j]]
            lin, rem = [0] * len(s.vars), {}
            for mono, coeff in zip(p, integer_rows([p.values()])[1][0]):
                if len(mono) == 1 and mono[0] in s.vars:
                    lin[s.vars.index(mono[0])] += coeff
                else:
                    rem[mono] = coeff
            s.rows.append((tuple(lin), tuple(sorted(rem.items()))))
    out = []
    for s in strata.values():
        if saturate and s.rows:
            monos = sorted({m for _, rem in s.rows for m, _ in rem})
            u = len(s.vars)
            sat = linalg.saturate_rows(
                [list(lin) + [dict(rem).get(m, 0) for m in monos]
                 for lin, rem in s.rows], u + len(monos))
            s.rows = [(tuple(row[:u]), tuple((m, x) for m, x in
                                             zip(monos, row[u:]) if x))
                      for row in sat]
        s.snf = linalg.snf_with_transforms([list(lin) for lin, _ in s.rows],
                                           len(s.vars))
        out.append((s.depth, s.vars, s.rows, s.snf))
    onto = all(len(s.snf[0]) == len(s.rows) and all(d == 1 for d in s.snf[0])
               for s in strata.values())
    return out, (sum(len(s.vars) - len(s.rows) for s in strata.values())
                 if onto else None)


def _sheared_adapted_hull(n, c, seed):
    """A HullResult on Z^k in a seeded rational shear of the free algebra
    (``test_liealg._sheared_adapted``): its adapted structure constants are
    not integers, so each equation is cleared by a D > 1."""
    from malcev.compiled import _int_structure
    from malcev.freenil import free_algebra
    from malcev.lattices import hnf_lattice
    from test_hull import _hull_on
    from test_liealg import _sheared_adapted
    alg = _sheared_adapted(free_algebra(n, c), random.Random(seed))
    k = alg.dim
    h = _hull_on(alg, hnf_lattice(
        [[int(i == j) for j in range(k)] for i in range(k)], k))
    assert _int_structure(h.adapted_algebra)[0] > 1
    return h


def _ia_star_oracle_hulls():
    """(name, hull, Psi (n, c) or None): the catalog hulls and their shears
    (``_oracle_hulls``), seed-1 Nielsen-moved hulls of the hull-ladder
    shapes, Psi(2,6), Psi(3,4) and Psi(4,3), and two sheared free algebras
    whose equations are cleared by D > 1."""
    from malcev.freenil import psi_group
    from test_hull import LADDER_SHAPES, _moved_generators
    for name, h in _oracle_hulls():
        yield name, h, None
    for name in LADDER_SHAPES:
        alg, gens, _ = _moved_generators(name, random.Random(1))
        yield "moved " + name, lattice_hull(GenGroup(alg, gens)), \
            tuple(map(int, name[4:-1].split(",")))
    for n, c in ((2, 6), (3, 4), (4, 3)):
        yield f"Psi({n},{c})", psi_group(n, c).hull, (n, c)
    yield "sheared free(2,3)", _sheared_adapted_hull(2, 3, 4), None
    yield "sheared free(2,4)", _sheared_adapted_hull(2, 4, 1), None


def test_ia_star_strata_match_the_fraction_build():
    """The integer IA* equations equal their Fraction build stratum by
    stratum (linear parts, remainders, Smith data) with the same free_rank,
    saturated and raw; on a Psi(n, c) hull a set free_rank is n(k - n)."""
    for name, h, psi in _ia_star_oracle_hulls():
        for saturate in (True, False):
            eq = IAStarEquations(h, saturate=saturate)
            got = [(s.depth, s.vars, s.rows, s.snf) for s in eq.strata]
            assert (got, eq.free_rank) == _ref_ia_star_rows(h, saturate), \
                (name, saturate)
            if psi is not None and saturate:
                n, k = psi[0], h.algebra.dim
                assert eq.free_rank in (None, n * (k - n)), name


def test_ia_star_build_and_normality_test_make_no_fraction(monkeypatch):
    """On a moved Psi(2,4), neither ``compiled``, ``autos`` nor ``hull``
    makes a Fraction while IAStarEquations is built; nor while
    LatticeQuotient(h, s) runs at s = 1..12 once the hull's tables are
    built, on that hull and on Z^5 in Psi(2,3), which rejects scales."""
    from malcev import compiled, hull as hull_module
    from malcev.errors import SublatticeError
    from malcev.freenil import free_algebra
    from malcev.hull import LatticeQuotient
    from malcev.lattices import hnf_lattice
    from test_hull import _hull_on, _moved_generators
    alg, gens, _ = _moved_generators("Psi(2,4)", random.Random(1))
    h = lattice_hull(GenGroup(alg, gens))
    h.adapted_algebra.bch_compiled()
    made = [0]
    for module in (compiled, autos, hull_module):
        def counted(*args, _make=module.Fraction):
            made[0] += 1
            return _make(*args)
        monkeypatch.setattr(module, "Fraction", counted)
    eq = IAStarEquations(h)
    assert eq.free_rank == 12 and made[0] == 0
    z5 = _hull_on(free_algebra(2, 3), hnf_lattice(
        [[int(i == j) for j in range(5)] for i in range(5)], 5))
    verdicts = []
    for q in (h, z5):
        q._bch_binomial_table, q._conjugates_integral
        made[0] = 0
        for s in range(1, 13):
            try:
                LatticeQuotient(q, s)
                verdicts.append("accepted")
            except SublatticeError as exc:
                verdicts.append(str(exc))
        assert made[0] == 0
    assert verdicts[:12] == ["accepted"] * 12
    assert set(verdicts[12:]) == {"sublattice is not BCH-closed",
                                  "sublattice is not normal in the hull"}


def _commutator_product(gens, rng, factors=3):
    """A seeded product of powers of commutators [a, b] = a b a^-1 b^-1 of
    the group elements gens and their pairwise products: an element of
    gamma_2."""
    letters = list(gens) + [a * b for a, b in itertools.combinations(gens, 2)]
    out = gens[0] ** 0
    for _ in range(factors):
        a, b = rng.sample(letters, 2)
        comm = a * b * a.inverse() * b.inverse()
        out = out * comm ** rng.choice((-2, -1, 1, 2))
    return out


@pytest.mark.parametrize("n,c", [(2, 3), (3, 2), (4, 2), (5, 2), (6, 2),
                                 (2, 4), (2, 5), (3, 3), (2, 6)])
def test_free_nilpotent_automorphisms_solve_the_ia_star_equations(n, c):
    """An independent oracle for the equations: on the free nilpotent group
    Psi(n, c), x_i -> x_i g_i with g_i in gamma_2 is an automorphism (onto
    mod [Psi, Psi], and Psi is Hopfian) that fixes the hull, so its matrix
    (``endo_matrix``) is an IA* point; so is each product of two, and each
    inverse (the integer inverse of its adapted matrix, which composes with
    it to the identity).  On the hull of seed-1 Nielsen-moved generators each
    passes is_ia_star and check_assignment, and free_rank is n(k - n), the
    dimension of gamma_2^n, or None (uncertified).  Where m^free_rank <=
    5,000, each map reduced mod m is a point of solutions_mod(m), and lift
    takes that point to an exact solution congruent to it."""
    from malcev.freenil import FreeNilpotent, endo_matrix, hall_basis
    from malcev.liealg import GroupElement
    from test_hull import _moved_generators
    alg, gens, _ = _moved_generators(f"Psi({n},{c})", random.Random(1))
    h = lattice_hull(GenGroup(alg, gens))
    psi = FreeNilpotent(n, c, alg, *hall_basis(n, c), h)
    eq = IAStarEquations(h)
    f = eq.free_rank
    assert f == n * (alg.dim - n) or (n, c) == (2, 6) and f is None
    moved = [GroupElement(alg, g) for g in gens]
    rng = random.Random(c)
    auts = []
    for _ in range(3):
        images = [(x * _commutator_product(moved, rng)).log
                  for x in psi.generators()]
        aut = LieAutomorphism(alg, endo_matrix(psi, images))
        assert is_ia_star(aut, h)
        auts.append(LieAutomorphism(alg, hull=h,
                                    adapted=adapted_matrix(h, aut)))
    one = tuple(tuple(int(i == j) for j in range(alg.dim))
                for i in range(alg.dim))
    inverses = []
    for aut in auts:
        inv = LieAutomorphism(alg, hull=h, adapted=tuple(
            map(tuple, linalg.unimodular_inverse(aut.adapted))))
        assert tuple(map(tuple, aut.compose(inv).adapted)) == one
        inverses.append(inv)
    maps = auts + inverses + [a.compose(b)
                              for a, b in itertools.permutations(auts, 2)]
    for aut in maps:
        assert is_ia_star(aut, h)
        assert eq.check_assignment(aut.adapted_entries)
    assert len({a.adapted_entries for a in auts}) == len(auts)
    for m in itertools.takewhile(lambda m: f and m ** f <= 5000,
                                 itertools.count(2)):
        points = set(eq.solutions_mod(m))
        for aut in maps:
            point = tuple(x % m for x in aut.adapted_entries)
            assert point in points
            exact = eq.lift(point, m)
            assert eq.check_assignment(exact)
            assert tuple(x % m for x in exact) == point
