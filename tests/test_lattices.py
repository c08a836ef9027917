import itertools
import random
from fractions import Fraction as F

import pytest

from malcev.errors import DimensionMismatch, SublatticeError
from malcev.lattices import (hnf_lattice, intersect_subspace, lattice_index,
                             lattice_intersect, lattice_sum, smith_quotient)


def Z(n):
    return hnf_lattice([tuple(int(i == j) for j in range(n)) for i in range(n)])


def test_hnf_lattice_examples():
    assert hnf_lattice([(1, 0), (0, 1)]) == Z(2)
    assert hnf_lattice([(2, 0), (0, 3), (1, 1)]) == Z(2)
    one = hnf_lattice([(2, 0)])
    assert one.rank == 1 and one.basis() == ((F(2), F(0)),)


def test_hnf_idempotent_on_lattices():
    rng = random.Random(0)
    for _ in range(30):
        k = rng.randint(1, 4)
        vecs = [tuple(F(rng.randint(-5, 5), rng.randint(1, 3))
                      for _ in range(k)) for _ in range(rng.randint(1, 4))]
        lat = hnf_lattice(vecs, k)
        assert hnf_lattice(lat.basis(), k) == lat


def test_member_examples():
    assert Z(2).member((1, 0))
    assert not Z(2).member((F(1, 3), 0))
    heis_hull = hnf_lattice([(1, 0, 0), (0, 1, 0), (0, 0, F(1, 2))])
    assert heis_hull.member((0, 0, F(1, 2)))
    assert not heis_hull.member((0, 0, F(1, 4)))


def test_member_bruteforce_oracle():
    """Membership and coordinates agree with a bounded-coefficient search
    (entries <= 10, ambient dimension <= 5) on integer and rational bases,
    for vectors whose denominators do and do not divide the lattice's."""
    rng = random.Random(1)
    seen = set()
    for trial in range(50):
        k = rng.randint(2, 5)
        rank = rng.randint(1, min(3, k))
        dens = (1,) if trial < 25 else (1, 2, 3, 4)
        basis = [tuple(F(rng.randint(-10, 10), rng.choice(dens))
                       for _ in range(k)) for _ in range(rank)]
        lat = hnf_lattice(basis, k)
        rows = lat.basis()
        for _ in range(8):
            coeffs = [rng.randint(-4, 4) for _ in range(lat.rank)]
            v = tuple(sum(F(c) * row[j] for c, row in zip(coeffs, rows))
                      for j in range(k))
            shift = rng.choice((0, 2, lat.den, 2 * lat.den))
            if shift:
                v = tuple(x + F(1, shift) for x in v)
            v = tuple(int(x) if x.denominator == 1 else x for x in v)
            found = next(
                (combo for combo in itertools.product(range(-4, 5), repeat=lat.rank)
                 if all(sum(F(c) * row[j] for c, row in zip(combo, rows)) == v[j]
                        for j in range(k))), None)
            assert lat.member(v) == (found is not None)
            assert lat.coords(v) == found
            divides = all(lat.den % F(x).denominator == 0 for x in v)
            seen.add((lat.den > 1, divides, found is not None))
    assert seen >= {(True, True, True), (True, True, False), (True, False, False),
                    (False, True, True), (False, False, False)}, seen


def test_index_and_smith():
    assert lattice_index(Z(2), Z(2).scale(2)) == 4
    assert smith_quotient(Z(2), Z(2).scale(2)) == [2, 2]
    assert smith_quotient(Z(2), hnf_lattice([(2, 0), (0, 1)])) == [2]
    assert lattice_index(Z(2), Z(2)) == 1
    heis_hull = hnf_lattice([(1, 0, 0), (0, 1, 0), (0, 0, F(1, 2))])
    std = Z(3)
    assert lattice_index(heis_hull, std) == 2
    assert smith_quotient(heis_hull, std) == [2]


def test_smith_product_equals_index():
    rng = random.Random(2)
    for _ in range(20):
        k = rng.randint(1, 4)
        outer = Z(k)
        rows = []
        while True:
            rows = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
            inner = hnf_lattice(rows, k)
            if inner.rank == k:
                break
        idx = lattice_index(outer, inner)
        prod = 1
        for d in smith_quotient(outer, inner):
            prod *= d
        assert prod == idx


def test_index_errors():
    with pytest.raises(SublatticeError):
        lattice_index(Z(2).scale(2), Z(2))  # not a sublattice
    with pytest.raises(SublatticeError):
        lattice_index(hnf_lattice([(1, 0)], 2), hnf_lattice([(0, 1)], 2))
    with pytest.raises(DimensionMismatch):
        lattice_sum(Z(2), Z(3))


def test_sum_intersect_examples():
    assert lattice_sum(Z(2).scale(2), Z(2).scale(3)) == Z(2)
    assert lattice_intersect(Z(2).scale(2), Z(2).scale(3)) == Z(2).scale(6)
    lat = hnf_lattice([(1, 2), (0, 5)])
    assert lattice_sum(lat, lat) == lat
    assert lattice_intersect(lat, lat) == lat


def test_sum_intersect_sandwich():
    rng = random.Random(3)
    for _ in range(20):
        k = rng.randint(2, 4)
        a = hnf_lattice([[rng.randint(-4, 4) for _ in range(k)]
                         for _ in range(k)], k)
        b = hnf_lattice([[rng.randint(-4, 4) for _ in range(k)]
                         for _ in range(k)], k)
        meet = lattice_intersect(a, b)
        join = lattice_sum(a, b)
        for lat in (a, b):
            assert all(lat.member(v) for v in meet.basis())
            assert all(join.member(v) for v in lat.basis())


def test_intersect_subspace():
    heis_hull = hnf_lattice([(1, 0, 0), (0, 1, 0), (0, 0, F(1, 2))])
    line = intersect_subspace(heis_hull, [(0, 0, 1)])
    assert line.basis() == ((F(0), F(0), F(1, 2)),)
    nothing = intersect_subspace(heis_hull, [])
    assert nothing.rank == 0
