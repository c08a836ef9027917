"""Lattice constructors on integer numerators, against the Fraction versions.

``hnf_lattice``, ``lattice_sum`` and ``intersect_subspace`` clear
denominators on the entries' integer numerators.  The ``_ref_*`` functions
below are the Fraction versions they replaced, kept as oracles: each entry
is made a Fraction and every scaling is Fraction arithmetic.
"""

import random
from decimal import Decimal
from fractions import Fraction as F
from math import lcm

import pytest

from malcev import lattices, linalg
from malcev.catalog import build_hull, entry_by_name
from malcev.errors import DimensionMismatch
from malcev.lattices import (Coordinates, Lattice, hnf_lattice, integer_rows,
                             intersect_subspace, lattice_sum)


def _ref_hnf_lattice(vectors, dim=None):
    vectors = list(vectors)
    if not vectors and dim is None:
        raise ValueError("empty generating set needs an explicit dimension")
    if dim is None:
        dim = len(vectors[0])
    vecs = []
    for v in vectors:
        if len(v) != dim:
            raise DimensionMismatch(f"vector of length {len(v)} in ambient dimension {dim}")
        vecs.append(tuple(F(x) for x in v))
    den = lcm(*(x.denominator for v in vecs for x in v))
    return Lattice.from_den_rows(dim, den, [tuple(int(x * den) for x in v) for v in vecs])


def _ref_lattice_sum(a, b):
    if a.dim != b.dim:
        raise DimensionMismatch("lattice sum of different ambient dimensions")
    return _ref_hnf_lattice(list(a.basis()) + list(b.basis()), a.dim)


def _ref_intersect_subspace(lat, subspace_rows):
    if not lat.rows:
        return lat
    sub = [r for r in subspace_rows if any(F(x) for x in r)]
    if not sub:
        return _ref_hnf_lattice([], lat.dim)
    S = []
    for row in sub:
        row = [F(x) for x in row]
        den = lcm(*(x.denominator for x in row))
        S.append([int(x * den) for x in row])
    cond = linalg.right_kernel(S, lat.dim)
    if not cond:
        return lat
    M = [[sum(a * b for a, b in zip(row, c)) for c in cond] for row in lat.rows]
    combos = linalg.left_kernel(M)
    return Lattice.from_den_rows(
        lat.dim, lat.den,
        [tuple(sum(cb[i] * row[j] for i, row in enumerate(lat.rows))
               for j in range(lat.dim)) for cb in combos])


def _entry(rng, kind):
    """A random entry: an int, a Fraction, or either (mixed); a quarter of
    them zero."""
    if rng.random() < 0.25:
        return 0 if rng.random() < 0.5 else F(0)
    if kind == "mixed":
        kind = rng.choice(("int", "fraction"))
    if kind == "int":
        return rng.randint(-9, 9)
    return F(rng.randint(-9, 9), rng.randint(1, 12))


def _vectors(rng, kind, n_rows, dim, rank=None):
    """n_rows random vectors; with rank, combinations of rank of them, so
    the matrix is rank-deficient; some rows are replaced by zero rows."""
    if rank is None:
        rows = [tuple(_entry(rng, kind) for _ in range(dim)) for _ in range(n_rows)]
    else:
        base = [[_entry(rng, kind) for _ in range(dim)] for _ in range(rank)]
        rows = [tuple(sum((rng.randint(-2, 2) * b[j] for b in base), 0)
                      for j in range(dim)) for _ in range(n_rows)]
    return [tuple(0 for _ in range(dim)) if rng.random() < 0.15 else r
            for r in rows]


CASES = [(kind, seed) for kind in ("int", "fraction", "mixed") for seed in range(12)]


@pytest.mark.parametrize("kind,seed", CASES)
def test_hnf_lattice_matches_the_fraction_version(kind, seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 6)
    shapes = [(rng.randint(1, dim), None),                 # short
              (dim + rng.randint(1, 6), None),             # tall
              (dim + 2, rng.randint(0, max(dim - 1, 0)))]  # rank-deficient
    for n_rows, rank in shapes:
        vecs = _vectors(rng, kind, n_rows, dim, rank)
        assert hnf_lattice(vecs, dim) == _ref_hnf_lattice(vecs, dim)
        assert hnf_lattice(vecs) == _ref_hnf_lattice(vecs)


@pytest.mark.parametrize("kind,seed", CASES)
def test_lattice_sum_matches_the_fraction_version(kind, seed):
    rng = random.Random(100 + seed)
    dim = rng.randint(1, 5)
    a = hnf_lattice(_vectors(rng, kind, rng.randint(0, dim + 2), dim), dim)
    b = hnf_lattice(_vectors(rng, kind, rng.randint(0, dim + 2), dim,
                             rng.randint(0, dim)), dim)
    assert lattice_sum(a, b) == _ref_lattice_sum(a, b)
    assert lattice_sum(a, a) == a


@pytest.mark.parametrize("kind,seed", CASES)
def test_intersect_subspace_matches_the_fraction_version(kind, seed):
    rng = random.Random(200 + seed)
    dim = rng.randint(1, 5)
    lat = hnf_lattice(_vectors(rng, kind, dim + rng.randint(0, 3), dim), dim)
    for n_rows in range(dim + 2):
        rows = _vectors(rng, kind, n_rows, dim)
        assert intersect_subspace(lat, rows) == _ref_intersect_subspace(lat, rows)


def test_empty_sets_and_zero_rows():
    for dim in range(1, 4):
        zero = tuple([0] * dim)
        assert hnf_lattice([], dim) == _ref_hnf_lattice([], dim) == Lattice(dim, 1, ())
        assert hnf_lattice([zero, tuple([F(0)] * dim)]) == hnf_lattice([], dim)
        empty = hnf_lattice([], dim)
        assert lattice_sum(empty, empty) == _ref_lattice_sum(empty, empty) == empty
        full = hnf_lattice([tuple(F(int(i == j), 2) for j in range(dim))
                            for i in range(dim)])
        assert lattice_sum(empty, full) == _ref_lattice_sum(empty, full) == full
        assert intersect_subspace(full, [zero]) == _ref_intersect_subspace(full, [zero])
        assert intersect_subspace(empty, [zero]) == empty
    with pytest.raises(ValueError):
        hnf_lattice([])


def test_other_entry_types_still_go_through_fraction():
    """Strings, floats, Decimals and bools are accepted as before, and an
    entry Fraction rejects raises what it raised."""
    vecs = [("1/2", 0.25, Decimal("0.2")), (True, False, "3")]
    assert hnf_lattice(vecs) == _ref_hnf_lattice(vecs)
    assert integer_rows(vecs) == (20, [(10, 5, 4), (20, 0, 60)])
    for bad in (None, "x", [1]):
        with pytest.raises(Exception) as ref:
            _ref_hnf_lattice([(1, bad)])
        with pytest.raises(ref.type):
            hnf_lattice([(1, bad)])


def test_dimension_mismatches():
    for vecs, dim in ([[(1, 2), (1, 2, 3)], None], [[(1, 2)], 3],
                      [[(F(1, 2),), (1, F(1, 3))], 1]):
        with pytest.raises(DimensionMismatch):
            _ref_hnf_lattice(vecs, dim)
        with pytest.raises(DimensionMismatch):
            hnf_lattice(vecs, dim)
    with pytest.raises(DimensionMismatch):
        lattice_sum(hnf_lattice([(1, 0)]), hnf_lattice([(1, 0, 0)]))
    with pytest.raises(DimensionMismatch):
        integer_rows([(1, 2), (3,)], 2)


def test_integer_rows_reads_numerators_over_one_denominator():
    assert integer_rows([]) == (1, [])
    assert integer_rows([(F(1, 2), 3), (F(-2, 3), 0)]) == (6, [(3, 18), (-4, 0)])
    den, rows = integer_rows([(F(1, 4), F(1, 6))])
    assert den == 12 and rows == [(3, 2)]


def _count_fraction_calls(monkeypatch):
    calls = [0]
    make = lattices.Fraction

    def counted(*args):
        calls[0] += 1
        return make(*args)

    monkeypatch.setattr(lattices, "Fraction", counted)
    return calls


def test_hnf_lattice_and_lattice_sum_make_no_fraction(monkeypatch):
    """On Fraction and int input, denominators are cleared on the entries'
    numerators: neither routine calls Fraction once."""
    rng = random.Random(7)
    vecs = _vectors(rng, "mixed", 12, 5)
    expected = _ref_hnf_lattice(vecs)
    a = _ref_hnf_lattice(vecs[:6])
    b = _ref_hnf_lattice(vecs[6:])
    calls = _count_fraction_calls(monkeypatch)
    assert hnf_lattice(vecs) == expected
    assert lattice_sum(a, b) == expected
    assert calls[0] == 0


def _ref_solve(rows, v):
    """Rational c with sum c_i rows[i] == v, by rref of [rows^T | v], or
    None when v is outside the span."""
    R, pivots = linalg.rref([list(col) for col in zip(*rows, v)])
    if len(rows) in pivots:
        return None
    c = [F(0)] * len(rows)
    for row, p in zip(R, pivots):
        c[p] = row[-1]
    return tuple(c)


def _check_coordinates(coords, rows, rng):
    dim = len(rows[0])
    for _ in range(20):
        v = tuple(sum(F(rng.randint(-6, 6), rng.randint(1, 4)) * r[j] for r in rows)
                  for j in range(dim))
        ref = _ref_solve(rows, v)
        assert coords(v) == ref
        assert coords.integer(v) == (tuple(map(int, ref)) if all(
            x.denominator == 1 for x in ref) else None)
    outside = tuple(F(1, 7) if j == 0 else 0 for j in range(dim))
    assert coords(outside) == _ref_solve(rows, outside)


def test_coordinates_of_the_hnf_basis_store_no_inverse():
    """The catalog hull's adapted basis is the HNF basis of its lattice, so
    no unimodular inverse is computed or stored."""
    h = build_hull(entry_by_name("psi23"))
    coords = Coordinates(h.lattice, h.basis)
    assert coords._columns is None
    _check_coordinates(coords, h.basis, random.Random(1))


def test_coordinates_of_a_sheared_permuted_basis(monkeypatch):
    """Another Z-basis of the same lattice, or the HNF rows in another
    order: each goes through ``unimodular_inverse``, the stored inverse is
    applied, and the coordinates agree with an rref solve."""
    calls, inverse = [], linalg.unimodular_inverse
    monkeypatch.setattr(linalg, "unimodular_inverse",
                        lambda rows: calls.append(rows) or inverse(rows))
    h = build_hull(entry_by_name("psi23"))
    B = list(h.basis)
    k = len(B)
    sheared = [tuple(x + 2 * y for x, y in zip(B[0], B[k - 1]))] + B[1:]
    permuted = sheared[1:] + sheared[:1]
    for rows in (sheared, permuted, B[::-1], B[1:] + B[:1]):
        before = len(calls)
        coords = Coordinates(h.lattice, rows)
        assert len(calls) == before + 1 and coords._columns is not None
        _check_coordinates(coords, rows, random.Random(2))
    with pytest.raises(ValueError):
        Coordinates(h.lattice, [tuple(2 * x for x in B[0])] + B[1:])


def test_hnf_rows_are_told_before_any_back_substitution(monkeypatch):
    """Rows equal to the HNF basis over den need no inverse: with
    ``linalg.unimodular_inverse`` made to raise, the seed-1 hull-ladder hulls
    (their adapted bases are the HNF rows) build, and store none."""
    from test_hull import LADDER_SHAPES, _moved_generators
    from malcev.hull import GenGroup, lattice_hull
    groups = [GenGroup(*_moved_generators(name, random.Random(1))[:2])
              for name in LADDER_SHAPES]

    def refuse(rows):
        raise AssertionError("unimodular_inverse called")

    monkeypatch.setattr(linalg, "unimodular_inverse", refuse)
    for name, group in zip(LADDER_SHAPES, groups):
        h = lattice_hull(group)
        assert h._coordinates._columns is None, name
        _check_coordinates(h._coordinates, h.basis, random.Random(3))
