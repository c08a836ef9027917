import itertools
from collections import Counter
from fractions import Fraction as F

import pytest

from malcev.autos import (IAStarEquations, LieAutomorphism, adapted_matrix,
                          enumerate_ia_star, is_ia_star)
from malcev.errors import CapExceeded
from malcev.freenil import (central_tuple_iso, aut_restriction, center,
                            endo_matrix, evaluate_word, free_algebra,
                            hall_basis, is_word_automorphism,
                            psi_algebra_only, psi_group, witt_dimension,
                            word_endo_matrix)
from malcev.lattices import hnf_lattice
from malcev.liealg import GroupElement, vec


def _ref_lyndon_count(n: int, w: int) -> int:
    """Counting oracle: Lyndon words of length w by enumeration."""
    count = 0
    for word in itertools.product(range(n), repeat=w):
        if all(word < word[i:] + word[:i] for i in range(1, w)):
            count += 1
    return count


def _ref_abelianized_matrix(psi, words):
    """The integer action of a word map on Psi / [Psi, Psi]."""
    M = word_endo_matrix(psi, words)
    return tuple(tuple(int(M[i][j]) for j in range(psi.n))
                 for i in range(psi.n))


def test_hall_sizes():
    trees, wts = hall_basis(2, 2)
    assert len(trees) == 3 and trees[2] == (1, 0)  # [x2, x1]
    trees, wts = hall_basis(2, 3)
    assert len(trees) == 5 and Counter(wts) == {1: 2, 2: 1, 3: 2}
    trees, wts = hall_basis(3, 2)
    assert len(trees) == 6 and Counter(wts) == {1: 3, 2: 3}


def test_hall_counts_match_oracles():
    for n in (2, 3, 4):
        for c in (1, 2, 3, 4, 5):
            trees, wts = hall_basis(n, c, cap=300)
            cnt = Counter(wts)
            for w in range(1, c + 1):
                assert cnt[w] == witt_dimension(n, w)
                assert cnt[w] == _ref_lyndon_count(n, w)


def test_hall_prefix_property():
    low, _ = hall_basis(2, 3)
    high, _ = hall_basis(2, 4)
    assert high[:len(low)] == low


def test_hall_cap():
    with pytest.raises(CapExceeded):
        hall_basis(4, 5, cap=200)


def test_free_algebra_heisenberg():
    alg = free_algebra(2, 2)
    # [x1, x2] = -h with h = [x2, x1]
    assert alg.brackets == {(0, 1): (F(0), F(0), F(-1))}
    assert alg.validate()["valid"]
    ab = free_algebra(3, 1)
    assert ab.brackets == {} and ab.nilpotency_class == 1


def test_free_algebra_class3():
    alg = free_algebra(2, 3)
    assert alg.validate()["valid"] and alg.nilpotency_class == 3
    # [[x2,x1],x1] and [[x2,x1],x2] are Hall basis elements 3 and 4
    z = vec((0, 0, 1, 0, 0))
    x1 = vec((1, 0, 0, 0, 0))
    x2 = vec((0, 1, 0, 0, 0))
    assert alg.bracket(z, x1) == vec((0, 0, 0, 1, 0))
    assert alg.bracket(z, x2) == vec((0, 0, 0, 0, 1))
    # structure constants are integers in the Hall basis
    for v in alg.brackets.values():
        assert all(x.denominator == 1 for x in v)


def test_psi_hulls():
    psi1 = psi_group(3, 1)
    assert psi1.hull.lattice == hnf_lattice([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    psi22 = psi_group(2, 2)
    assert psi22.hull.lattice == hnf_lattice(
        [(1, 0, 0), (0, 1, 0), (0, 0, F(1, 2))])
    psi23 = psi_group(2, 3)
    dens = {x.denominator for b in psi23.hull.basis for x in b}
    assert dens <= {1, 2, 3, 6, 12, 24}
    assert psi23.hull.layer_sizes == (2, 1, 2)
    assert psi23.hull.d == 2


def test_center():
    psi22 = psi_group(2, 2)
    z_rows, hull_center, group_center = center(psi22)
    assert len(z_rows) == 1
    assert group_center == hnf_lattice([(0, 0, 1)])
    assert hull_center == hnf_lattice([(0, 0, F(1, 2))])
    psi23 = psi_group(2, 3)
    z_rows, _, gc = center(psi23)
    assert len(z_rows) == 2 == witt_dimension(2, 3)
    psi1 = psi_group(2, 1)
    z_rows, hc, gc = center(psi1)
    assert len(z_rows) == 2  # abelian: everything is central


def test_a_iso_roundtrip_and_composition():
    psi = psi_group(2, 2)
    iso = central_tuple_iso(psi)
    tup = [vec((0, 0, 2)), vec((0, 0, -1))]
    images = iso.backward(tup)
    assert [tuple(v) for v in iso.forward(images)] == [tuple(t) for t in tup]
    # zero tuple -> identity
    zero = iso.backward([vec((0, 0, 0)), vec((0, 0, 0))])
    assert zero == [g.log for g in psi.generators()]
    # composition law: (beta o alpha)(x_i) = x_i v_i u_i
    tu = [vec((0, 0, 1)), vec((0, 0, 1))]
    comp = iso.compose(iso.backward(tu), images)
    gens = psi.generators()
    for i in range(2):
        expected = (gens[i] * GroupElement(psi.algebra, tu[i])
                    * GroupElement(psi.algebra, tup[i])).log
        assert comp[i] == expected
    # non-central entries are rejected
    with pytest.raises(ValueError):
        iso.backward([vec((1, 0, 0)), vec((0, 0, 0))])
    with pytest.raises(ValueError):
        iso.backward([vec((0, 0, F(1, 2))), vec((0, 0, 0))])


def test_a_iso_names_each_failure(monkeypatch):
    """An entry outside the group center fails with one of two messages:
    "not central" when it is not in the center at all, the other one when
    it is central but not in the group center (here (0, 0, 1/2)).  The
    generators are read once per iso, not on every call."""
    from malcev.freenil import FreeNilpotent
    reads = []
    generators = FreeNilpotent.generators
    monkeypatch.setattr(FreeNilpotent, "generators",
                        lambda self: reads.append(1) or generators(self))
    iso = central_tuple_iso(psi_group(2, 2))
    zero, half = vec((0, 0, 0)), vec((0, 0, F(1, 2)))
    with pytest.raises(ValueError, match="^tuple entry is not central$"):
        iso.backward([vec((1, 0, 0)), zero])
    with pytest.raises(ValueError,
                       match="^tuple entry is not in the group center$"):
        iso.backward([zero, half])
    with pytest.raises(ValueError, match="^map is not a central shift"):
        iso.forward([vec((1, 1, 0)), vec((0, 1, 0))])
    with pytest.raises(ValueError,
                       match="^central part leaves the group center$"):
        iso.forward([vec((1, 0, F(1, 2))), vec((0, 1, 0))])
    assert iso.forward(iso.backward([zero, vec((0, 0, 3))])) == \
        [zero, vec((0, 0, 3))]
    assert len(reads) == 1


def test_a_iso_matches_ia_star_enumeration():
    psi = psi_group(2, 2)
    iso = central_tuple_iso(psi)
    eq = IAStarEquations(psi.hull)
    enumerated = {a.adapted_entries for a in enumerate_ia_star(psi.hull, 4, eq=eq)}
    seen = set()
    for a in range(-2, 3):
        for b in range(-2, 3):
            imgs = iso.backward([vec((0, 0, a)), vec((0, 0, b))])
            aut = LieAutomorphism(psi.algebra, endo_matrix(psi, imgs))
            assert is_ia_star(aut, psi.hull)
            am = adapted_matrix(psi.hull, aut)
            entries = tuple(int(am[r][c]) for (r, c) in eq.positions)
            seen.add(entries)
    assert len(seen) == 25 and seen <= enumerated
    # the group center sits at index 2 in the hull center, so the adapted
    # entries are even: (a, b) -> (2a, -2b) here
    assert all(x % 2 == 0 and y % 2 == 0 for (x, y) in seen)


def brute_box_roundtrip(iso, bound):
    """Test oracle: forward(backward(t)) == t on every tuple of the whole
    box, through the Fraction group law of ``backward`` and ``forward``;
    returns (tuples checked, whether the images are pairwise distinct)."""
    psi = iso.psi
    k = psi.algebra.dim
    top = [i for i, w in enumerate(psi.weights) if w == psi.c]
    r = len(top)
    seen = set()
    count = 0
    for flat in itertools.product(range(-bound, bound + 1), repeat=psi.n * r):
        tup = []
        for i in range(psi.n):
            u = [F(0)] * k
            for t, z in enumerate(top):
                u[z] = F(flat[i * r + t])
            tup.append(tuple(u))
        images = iso.backward(tup)
        assert [tuple(v) for v in iso.forward(images)] == tup, flat
        seen.add(tuple(tuple(im) for im in images))
        count += 1
    return count, len(seen) == count


def test_box_roundtrip_small():
    psi = psi_group(2, 2)
    iso = central_tuple_iso(psi)
    count, injective = iso.box_roundtrip(2)
    assert count == 25 and injective


@pytest.mark.parametrize("n,c,bound", [(2, 2, 0), (2, 2, 2), (2, 3, 1),
                                       (3, 2, 1)])
def test_box_roundtrip_matches_brute_force(n, c, bound):
    iso = central_tuple_iso(psi_group(n, c))
    assert iso.box_roundtrip(bound) == brute_box_roundtrip(iso, bound)


def test_box_roundtrip_rejects_tampered_generator_map(monkeypatch):
    iso = central_tuple_iso(psi_group(2, 3))
    bch = iso.psi.algebra.bch_compiled()
    real = bch.eval_int
    k = iso.psi.algebra.dim
    x0, x1 = (tuple(int(i == t) for t in range(k)) for i in range(2))
    # generator 1 sent to itself whatever the shift: the round trip loses it
    monkeypatch.setattr(bch, "eval_int", lambda args: x1 if args[:k] == x1
                        else real(args))
    with pytest.raises(RuntimeError, match="roundtrip failed"):
        iso.box_roundtrip(1)
    # generator 0 "inverted" by x0 itself: the recovered shift is not central
    x0_inv = tuple(-x for x in x0)
    monkeypatch.setattr(bch, "eval_int", lambda args: real(x0 + args[k:])
                        if args[:k] == x0_inv else real(args))
    with pytest.raises(RuntimeError, match="not central"):
        iso.box_roundtrip(1)


def test_word_maps_and_restriction():
    low = psi_algebra_only(2, 2)
    high = psi_algebra_only(2, 3)
    words = [[(0, 1), (1, 1)], [(1, 1)]]  # x1 -> x1 x2, x2 -> x2
    assert is_word_automorphism(low, words)
    M = aut_restriction(low, high, words)
    assert _ref_abelianized_matrix(high, words) == ((1, 0), (1, 1))
    swap = [[(1, 1)], [(0, 1)]]
    aut_restriction(low, high, swap)
    assert _ref_abelianized_matrix(high, swap) == ((0, 1), (1, 0))
    ident = [[(0, 1)], [(1, 1)]]
    assert aut_restriction(low, high, ident) is not None
    # x1 -> x1^2 is not an automorphism (abelianized det 2)
    notaut = [[(0, 2)], [(1, 1)]]
    assert not is_word_automorphism(low, notaut)
    with pytest.raises(ValueError):
        aut_restriction(low, high, notaut)


def test_evaluate_word():
    psi = psi_algebra_only(2, 2)
    w = evaluate_word(psi, [(0, 1), (1, 1), (0, -1), (1, -1)])
    # the group commutator [exp x1, exp x2] = exp([x1, x2]) = exp(-z)
    assert w.log == vec((0, 0, -1))
