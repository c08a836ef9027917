import itertools

import pytest

from malcev.catalog import build_fiber
from malcev.errors import CapExceeded
from malcev.fiber import FiberQuotient, hom_test_scale
from malcev.finite import (FiniteGroup, check_onto, closure, cosets,
                           extend_hom, induced_map, subgroup)


def _ref_is_normal(g, subgroup_set):
    """Is the subgroup closed under conjugation by every element of g?"""
    return all(g.mul(g.mul(x, h), g.inverse[x]) in subgroup_set
               for x in range(g.order) for h in subgroup_set)


def _ref_compose_perms(outer, inner):
    return tuple(outer[x] for x in inner)


def _ref_quotient(g, normal_set):
    """(quotient group, projection list) of g by a normal subgroup set."""
    reps, index = cosets(range(g.order), normal_set, g.mul, 0)
    coset_of = [index[a] for a in range(g.order)]
    m = len(reps)
    table = [[coset_of[g.cayley[reps[i]][reps[j]]] for j in range(m)]
             for i in range(m)]
    return FiniteGroup(table), coset_of


def test_cyclic_and_product():
    z6 = FiniteGroup.cyclic(6)
    assert z6.order == 6 and z6.validate() == []
    assert z6.element_order(1) == 6 and z6.element_order(3) == 2
    v4 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    assert v4.validate() == []
    assert all(v4.mul(a, a) == 0 for a in range(4))


def swapped_cyclic_table(n=520):
    """Z/n with the entries 5*7 and 5*11 swapped: a table that keeps the
    identity and inverse laws and fails associativity at few triples."""
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    table[5][7], table[5][11] = table[5][11], table[5][7]
    return table


def test_validation_catches_bad_tables():
    table = [[0, 1], [1, 1]]  # not a group (1*1 = 1 breaks inverses)
    with pytest.raises(ValueError):
        FiniteGroup(table)
    # Light's test runs at every order, above 512 elements too
    with pytest.raises(ValueError, match="associativity"):
        FiniteGroup(swapped_cyclic_table())


def test_empty_table_is_not_a_group():
    """A table of order 0 has no identity, so validate reports it."""
    for make in (lambda: FiniteGroup([]), lambda: FiniteGroup.cyclic(0)):
        with pytest.raises(ValueError, match="empty Cayley table"):
            make()


def test_light_associativity_complete():
    # a latin square with identity that is NOT associative
    # (rows/cols 0 are identity; 1*1=0, 1*2=3, ... a non-group quasigroup)
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(ValueError):
        FiniteGroup(table)


def _verbal_power_subgroup(g, t):
    """The subgroup generated by all t-th powers (normal by construction)."""
    return g.subgroup_closure({g.power(a, t) for a in range(g.order)})


def test_power_and_verbal():
    z12 = FiniteGroup.cyclic(12)
    assert z12.power(5, 0) == 0
    assert z12.power(5, 7) == (5 * 7) % 12
    assert z12.power(5, -1) == z12.inverse[5]
    sq = _verbal_power_subgroup(z12, 2)
    assert sq == {0, 2, 4, 6, 8, 10}
    assert _ref_is_normal(z12, sq)
    quo, proj = _ref_quotient(z12, sq)
    assert quo.order == 2 and proj[1] == 1


def test_subgroup_as_group():
    z8 = FiniteGroup.cyclic(8)
    sub, elems = z8.subgroup_as_group({0, 2, 4, 6})
    assert sub.order == 4 and elems == [0, 2, 4, 6]
    assert sub.element_order(1) == 4  # the image of 2 generates


def test_hom_from_generators():
    z4 = FiniteGroup.cyclic(4)
    z2 = FiniteGroup.cyclic(2)
    phi = z4.hom_from_generators([1], [1], z2)
    assert phi == (0, 1, 0, 1)
    assert z4.hom_from_generators([1], [1], z4) == (0, 1, 2, 3)
    # x -> x + x is not injective but is a hom
    dbl = z4.hom_from_generators([1], [2], z4)
    assert dbl == (0, 2, 0, 2)


def test_automorphisms():
    z4 = FiniteGroup.cyclic(4)
    auts = z4.automorphisms()
    assert len(auts) == 2
    assert tuple(range(4)) in auts
    v4 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    assert len(v4.automorphisms()) == 6  # GL(2, F2)
    z2z4 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(4))
    auts = z2z4.automorphisms()
    assert len(auts) == 8
    for a in auts:
        for b in auts:
            assert _ref_compose_perms(a, b) in auts
    with pytest.raises(CapExceeded):
        FiniteGroup.cyclic(97).automorphisms(cap=10)


# -- closure and hom extension against brute force ---------------------------


def s3():
    """S3 as permutations of (0, 1, 2) under composition, identity first."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return FiniteGroup([[index[tuple(p[q[x]] for x in range(3))] for q in perms]
                        for p in perms])


def small_groups():
    v4 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    return {"Z/2": FiniteGroup.cyclic(2), "Z/4": FiniteGroup.cyclic(4),
            "Z/2xZ/2": v4, "S3": s3(), "P2 of z2z2z4": build_fiber("z2z2z4").p2}


def brute_closure(g, elements):
    """All products of length <= |G| over S and S^-1."""
    letters = set(elements) | {g.inverse[a] for a in elements}
    words = {0}
    for _ in range(g.order):
        words |= {g.mul(w, a) for w in words for a in letters}
    return words


def brute_homs(g, t):
    """Every homomorphism g -> t, by enumerating all |t|^|g| maps."""
    homs = []
    for phi in itertools.product(range(t.order), repeat=g.order):
        if all(phi[g.mul(a, b)] == t.mul(phi[a], phi[b])
               for a in range(g.order) for b in range(g.order)):
            homs.append(phi)
    return homs


def test_closure_tree_reaches_each_element_from_its_parent():
    z12 = FiniteGroup.cyclic(12)
    tree = closure(0, [8, 3], z12.mul)
    assert set(tree) == set(range(12)) and tree[0] is None
    assert list(tree)[:3] == [0, 8, 3]  # breadth-first order
    for y, edge in tree.items():
        if edge is not None:
            x, i = edge
            assert z12.mul(x, [8, 3][i]) == y


def test_subgroup_closure_matches_brute_force():
    for name, g in small_groups().items():
        for size in range(3):
            for elements in itertools.combinations(range(g.order), size):
                assert g.subgroup_closure(elements) == \
                    brute_closure(g, elements), (name, elements)


def test_dimino_subgroup_matches_brute_force():
    """finite.subgroup, by Dimino's rule, on every sequence of up to three
    elements of the small groups and up to two of S3 x Z/4, repeats and the
    identity included."""
    groups = dict(small_groups())
    groups["S3xZ/4"] = FiniteGroup.direct_product(s3(), FiniteGroup.cyclic(4))
    for name, g in groups.items():
        for size in range(3 if g.order > 16 else 4):
            for elements in itertools.product(range(g.order), repeat=size):
                assert subgroup(0, elements, g.mul)[0] == \
                    brute_closure(g, elements), (name, elements)
        assert g.generating_set() == _ref_generating_set(g), name


def _ref_generating_set(g):
    """Test oracle: each element in turn outside the BFS closure of the
    ones kept before it."""
    gens = []
    for a in range(g.order):
        if a not in closure(0, gens, g.mul):
            gens.append(a)
    return gens


def test_hom_from_generators_matches_brute_force():
    groups = small_groups()
    for (gname, g), (tname, t) in itertools.product(groups.items(), repeat=2):
        if t.order ** g.order > 6 ** 6:
            continue
        homs = brute_homs(g, t)
        gens = g.generating_set()
        # a redundant generator makes the assigned images overdetermined
        for seq in (gens, gens + [g.mul(gens[0], gens[-1])]):
            for images in itertools.product(range(t.order), repeat=len(seq)):
                expect = [phi for phi in homs
                          if all(phi[a] == b for a, b in zip(seq, images))]
                assert len(expect) <= 1
                got = g.hom_from_generators(seq, list(images), t)
                assert got == (expect[0] if expect else None), \
                    (gname, tname, seq, images)


def test_hom_from_generators_rejects_non_generating_sets():
    z4 = FiniteGroup.cyclic(4)
    with pytest.raises(ValueError):
        z4.hom_from_generators([2], [0], z4)
    with pytest.raises(ValueError):
        s3().hom_from_generators([3], [0], FiniteGroup.cyclic(2))


def test_extend_hom_on_fiber_quotient():
    u = build_fiber("z2z4")
    fq = FiberQuotient(u, hom_test_scale(u))
    gens = list(u.generators())
    keys = [fq.reduce(g) for g in gens]
    # the projection to P2 is a homomorphism: the identity assignment extends
    e = fq.key((0,), 0)
    phi = extend_hom(e, keys, [g.y for g in gens], fq.mul,
                     fq.order, u.p2)
    assert phi is not None and len(phi) == fq.order
    assert all(phi[key] == fq.parts(key)[1] for key in fq.keys())
    # sending the order-2 torsion generator to an element of order 4 is not
    tampered = [g.y for g in gens]
    tampered[-1] = 1
    assert extend_hom(e, keys, tampered, fq.mul, fq.order,
                      u.p2) is None


# -- coset tables, onto-Q checks and induced maps -----------------------------


def test_cosets_match_the_brute_partition():
    for name, g in small_groups().items():
        subgroups = {frozenset(g.subgroup_closure(elements))
                     for size in range(3)
                     for elements in itertools.combinations(range(g.order), size)}
        for normal in (n for n in subgroups if _ref_is_normal(g, n)):
            calls = [0]

            def counted(a, b):
                calls[0] += 1
                return g.mul(a, b)

            reps, coset_of = cosets(range(g.order), normal, counted, 0)
            # one product per element outside the reps, none when N = {e}
            assert calls[0] == g.order - len(reps), (name, normal)
            assert len(normal) > 1 or calls[0] == 0, (name, normal)
            brute = []  # the cosets aN, in order of their first element
            for a in range(g.order):
                coset = frozenset(g.mul(a, h) for h in normal)
                if coset not in brute:
                    brute.append(coset)
            assert reps == [min(c) for c in brute], (name, normal)
            assert set(coset_of) == set(range(g.order))
            for i, coset in enumerate(brute):
                assert {b for b, c in coset_of.items() if c == i} == coset
            quo, proj = _ref_quotient(g, normal)
            assert quo.order == len(brute) and quo.validate() == []
            assert all(proj[g.mul(a, b)] == quo.mul(proj[a], proj[b])
                       for a in range(g.order) for b in range(g.order))


def test_cosets_need_the_identity_in_the_subgroup():
    z4 = FiniteGroup.cyclic(4)
    with pytest.raises(ValueError, match="must contain the identity"):
        cosets(range(4), {2}, z4.mul, 0)
    with pytest.raises(ValueError, match="must contain the identity"):
        _ref_quotient(z4, {1, 2, 3})


def test_check_onto():
    z4, z2 = FiniteGroup.cyclic(4), FiniteGroup.cyclic(2)
    check_onto((0, 1, 0, 1), z4.mul, z2, "not a hom", "not onto")
    with pytest.raises(ValueError, match="not a hom"):
        check_onto((0, 1, 1, 0), z4.mul, z2, "not a hom", "not onto")
    with pytest.raises(ValueError, match="not onto"):
        check_onto((0, 0, 0, 0), z4.mul, z2, "not a hom", "not onto")
    with pytest.raises(ValueError, match="value 2 at position 3"):
        check_onto((0, 1, 0, 2), z4.mul, z2, "not a hom", "not onto")
    with pytest.raises(ValueError, match="value -1 at position 1"):
        check_onto((0, -1, 0, 1), z4.mul, z2, "not a hom", "not onto")


def test_induced_map_witness():
    assert induced_map([(0, 0), (1, 1), (0, 0)], 2) == ((0, 1), None)
    # source 1 is sent to 0 and then to 1: the witness is 1
    assert induced_map([(0, 1), (1, 0), (0, 1), (1, 1), (0, 0)], 2) == (None, 1)
