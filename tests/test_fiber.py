import gc
import random
import tracemalloc
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from malcev.autos import (LieAutomorphism, is_ia_star, make_ia_star,
                          matrix_from_adapted)
from malcev.catalog import TORSION_NAMES, build_fiber, build_zz2
from malcev.errors import CapExceeded
from malcev.fiber import (FiberElement, FiberGroup, FiberQuotient, HullSide,
                          _delta_m, _read_mod, _walk_shadow,
                          fiber_product_finite, find_t,
                          free_abelianization_check, hom_test_scale,
                          ia_kernel_enum, level_quotient, lift_automorphism,
                          lift_automorphism_finite, lift_from_level_image,
                          reconstruction_check, torsion_subgroup)
from malcev.finite import FiniteGroup, closure
from malcev.hull import GenGroup, LatticeQuotient, lattice_hull
from malcev.liealg import NilpotentLieAlgebra
from test_autos import _ref_is_lie_aut


def test_fiber_product_finite_direct_product():
    # Q trivial -> direct product
    z2, z3 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(3)
    q = FiniteGroup.trivial()
    grp, pairs = fiber_product_finite(z2, z3, (0, 0), (0, 0, 0), q)
    assert grp.order == 6
    assert grp.element_order(pairs.index((1, 1))) == 6


def test_fiber_product_finite_graph():
    # P2 = Q with pi2 = id -> graph of pi1, isomorphic to P1
    z4, z2 = FiniteGroup.cyclic(4), FiniteGroup.cyclic(2)
    grp, pairs = fiber_product_finite(z4, z2, (0, 1, 0, 1), (0, 1), z2)
    assert grp.order == 4
    assert max(grp.element_order(a) for a in range(4)) == 4


def test_fiber_product_rejects_non_homs():
    z4, z2 = FiniteGroup.cyclic(4), FiniteGroup.cyclic(2)
    with pytest.raises(ValueError):
        fiber_product_finite(z4, z2, (0, 1, 1, 0), (0, 1), z2)
    with pytest.raises(ValueError):
        fiber_product_finite(z4, z2, (0, 0, 0, 0), (0, 1), z2)  # not onto


def z2z4():
    return build_fiber("z2z4")


def test_membership_and_ops():
    u = z2z4()
    assert u.member(FiberElement((F(1),), 1))
    assert not u.member(FiberElement((F(1),), 0))
    assert not u.member(FiberElement((F(1, 2),), 1))
    a = FiberElement((F(1),), 1)
    b = FiberElement((F(0),), 2)
    assert u.mul(a, b) == FiberElement((F(1),), 3)
    assert u.mul(a, u.inverse(a)) == u.identity()
    assert u.power(a, 3) == FiberElement((F(3),), 3)


def test_explicit_isomorphism_with_z_x_z2():
    """(x, y) -> (x, (y - x)/2) is an isomorphism onto Z x Z/2, checked by
    enumeration of the level-8 finite quotient."""
    u = z2z4()
    fq = FiberQuotient(u, 8)
    seen = {}
    for key in fq.keys():
        (x,), y = fq.parts(key)
        image = (x % 8, ((y - x) // 2) % 2 if (y - x) % 2 == 0
                 else None)
        assert image[1] is not None
        assert image not in seen
        seen[image] = key
    assert len(seen) == 16  # (Z/8) x (Z/2)
    # homomorphism property on the quotient
    for k1 in list(fq.keys())[:8]:
        for k2 in list(fq.keys())[:8]:
            (x1,), y1 = fq.parts(k1)
            (x2,), y2 = fq.parts(k2)
            (xp,), yp = fq.parts(fq.mul(k1, k2))
            assert xp == (x1 + x2) % 8
            assert ((yp - xp) // 2) % 2 == \
                (((y1 - x1) // 2) + ((y2 - x2) // 2)) % 2


def test_torsion_subgroup():
    u = z2z4()
    tor, elems = torsion_subgroup(u)
    assert tor.order == 2 and elems == [0, 2]
    u3 = build_fiber("zz3")
    tor3, _ = torsion_subgroup(u3)
    assert tor3.order == 3
    # P2 = Q: graph of pi1, trivial torsion
    line = lattice_hull(GenGroup(NilpotentLieAlgebra.abelian(1),
                                 ((F(1),),), True))
    q = FiniteGroup.cyclic(2)
    graph = FiberGroup(HullSide(line, 2, (0, 1), q), q, (0, 1))
    tor_g, _ = torsion_subgroup(graph)
    assert tor_g.order == 1


def test_find_t_examples():
    assert find_t(z2z4()) == 2
    assert find_t(build_fiber("zz3")) == 3
    line = lattice_hull(GenGroup(NilpotentLieAlgebra.abelian(1),
                                 ((F(1),),), True))
    graph = FiberGroup(HullSide(line, 2, (0, 1), FiniteGroup.cyclic(2)),
                       FiniteGroup.cyclic(2), (0, 1))
    assert find_t(graph) == 1  # torsion free
    # the literal condition holds at the returned t
    u = z2z4()
    lq = level_quotient(u, 2)
    for tau in u.torsion_elements():
        key = lq.fq.reduce(tau)
        assert key == lq.fq.key((0,), 0) or lq.class_of_key(key) != 0


def test_lift_automorphism_examples():
    u = z2z4()
    ident1 = LieAutomorphism(u.hull.algebra, ((F(1),),))
    ident2 = tuple(range(4))
    sig = lift_automorphism(u, ident1, ident2)
    g = FiberElement((F(1),), 1)
    assert sig.apply(g) == g
    neg1 = LieAutomorphism(u.hull.algebra, ((F(-1),),))
    neg2 = tuple((-y) % 4 for y in range(4))
    sig = lift_automorphism(u, neg1, neg2)
    assert sig.apply(g) == FiberElement((F(-1),), 3)
    # torsion is characteristic under lifted automorphisms (setwise)
    tor = set(u.kernel_pi2())
    assert {sig.apply(t).y for t in u.torsion_elements()} == tor
    # incompatible within a nontrivial Q: witness reported
    u39 = build_fiber("z3z9")
    neg = LieAutomorphism(u39.hull.algebra, ((F(-1),),))
    with pytest.raises(ValueError, match="witness"):
        lift_automorphism(u39, neg, tuple(range(9)))
    # the compatible companion works
    neg9 = tuple((-y) % 9 for y in range(9))
    lift_automorphism(u39, neg, neg9)
    # Lie automorphisms of the heis3 hull that are not lattice automorphisms:
    # an adapted entry 3/2, and diag(2, 1, 2), integral of det 4
    heis = build_fiber("heis3")
    ident_p2 = tuple(range(heis.p2.order))
    for A in (((1, 0, 0), (0, 1, 0), (F(3, 2), 0, 1)),
              ((2, 0, 0), (0, 1, 0), (0, 0, 2))):
        A = tuple(tuple(F(x) for x in row) for row in A)
        sigma1 = LieAutomorphism(heis.hull.algebra,
                                 matrix_from_adapted(heis.hull, A))
        assert _ref_is_lie_aut(heis.hull.algebra, sigma1.matrix)[0]
        with pytest.raises(ValueError,
                           match="sigma1 is not a lattice automorphism"):
            lift_automorphism(heis, sigma1, ident_p2)
    singular = LieAutomorphism(heis.hull.algebra, matrix_from_adapted(
        heis.hull, ((F(1), F(0), F(0)), (F(1), F(0), F(0)),
                    (F(0), F(0), F(1)))))
    with pytest.raises(ValueError, match="sigma1 is not a lattice automorphism"):
        lift_automorphism(heis, singular, ident_p2)


def test_lift_automorphism_finite():
    z4 = FiniteGroup.cyclic(4)
    q = FiniteGroup.cyclic(2)
    pi = tuple(a % 2 for a in range(4))
    grp, pairs = fiber_product_finite(z4, z4, pi, pi, q)
    ident = tuple(range(4))
    neg = tuple((-a) % 4 for a in range(4))
    perm = lift_automorphism_finite(z4, z4, q, pi, pi, pairs, neg, neg)
    assert sorted(perm) == list(range(grp.order))
    # both sigmas induce the identity on Q here, so all four pairs lift
    for s1 in (ident, neg):
        for s2 in (ident, neg):
            lift_automorphism_finite(z4, z4, q, pi, pi, pairs, s1, s2)


def test_free_abelianization_examples():
    u = z2z4()
    d, rep = free_abelianization_check(u)
    assert d == 1 and rep["rank_matches"] and rep["maps_identity"]
    assert rep["invariants"] == [2]
    d3, rep3 = free_abelianization_check(build_fiber("heis3"))
    assert d3 == 2 and rep3["rank_matches"] and rep3["maps_identity"]
    # torsion-free: U = graph of pi1 over Z
    line = lattice_hull(GenGroup(NilpotentLieAlgebra.abelian(1),
                                 ((F(1),),), True))
    q = FiniteGroup.cyclic(2)
    graph = FiberGroup(HullSide(line, 2, (0, 1), q), q, (0, 1))
    dg, repg = free_abelianization_check(graph)
    assert dg == 1 and repg["rank_matches"] and repg["invariants"] == []


def test_maps_identity_rejects_a_wrong_first_layer():
    u = build_fiber("heis3")
    # with d = 3 the central basis vector counts as first layer, and the
    # commutator of the two generators has a nonzero coordinate there
    u.hull.d = 3
    _, rep = free_abelianization_check(u)
    assert rep["maps_identity"] is False and rep["rank_matches"] is False


def test_ia_kernel_enum_examples():
    u = z2z4()
    gens = [FiberElement((F(1),), 1), FiberElement((F(0),), 2)]
    K, rep = ia_kernel_enum(u, gens)
    assert rep["order"] == 2 and rep["closed"]
    shifts = {a.shifts for a in K}
    assert shifts == {(0, 0), (2, 0)}  # only g1 can absorb (0, 2)
    u2 = build_zz2()
    K2, rep2 = ia_kernel_enum(u2)
    assert rep2["order"] == 2 and rep2["closed"]
    # torsion-free: trivial kernel
    line = lattice_hull(GenGroup(NilpotentLieAlgebra.abelian(1),
                                 ((F(1),),), True))
    q = FiniteGroup.cyclic(2)
    graph = FiberGroup(HullSide(line, 2, (0, 1), q), q, (0, 1))
    Kg, repg = ia_kernel_enum(graph)
    assert repg["order"] == 1


def test_reconstruction_levels():
    u = z2z4()
    for m in (2, 4, 6):
        r = reconstruction_check(u, m)
        assert r["injective"] and r["surjective"] and r["compatible"]
    r = reconstruction_check(u, 3)  # t = 2 does not divide 3
    assert not r["injective"]


def _ref_element_from_key(fq, key):
    """Test oracle: a fiber element with the given key, in working
    coordinates."""
    rep, y = fq.parts(key)
    return FiberElement(fq.u.hull.to_working(tuple(F(t) for t in rep)), y)


def _ref_class_of_element(lq, el):
    """Test oracle: the Q_m class of an element, through working
    coordinates."""
    return lq.classes[lq.coarse.reduce(el)]


def _ref_induced_on_level_quotient(lq, aut):
    """Test oracle: the permutation induced on Q_m by an automorphism with
    .apply(), checked to be well defined on every fine key."""
    fq = lq.fq
    perm = [None] * lq.order
    for key in fq.keys():
        src = lq.class_of_key(key)
        dst = _ref_class_of_element(lq, aut.apply(_ref_element_from_key(fq, key)))
        if perm[src] is None:
            perm[src] = dst
        elif perm[src] != dst:
            raise ValueError("map does not descend to the level quotient")
    return tuple(perm)


def test_level_lift_identity_and_kernel():
    u = z2z4()
    beta_id = LieAutomorphism(u.hull.algebra, ((F(1),),))
    lq = level_quotient(u, 4)
    ident_perm = tuple(range(lq.order))
    alpha = lift_from_level_image(u, 4, ident_perm, beta_id)
    for g in u.generators():
        assert alpha.apply(g) == g
    # the nontrivial torsion-shift kernel element at m = 4
    gens = [FiberElement((F(1),), 1), FiberElement((F(0),), 2)]
    K, _ = ia_kernel_enum(u, gens)
    knon = next(a for a in K if any(a.shifts))
    alpha_m = _ref_induced_on_level_quotient(lq, knon)
    alpha = lift_from_level_image(u, 4, alpha_m, beta_id)
    for g in u.generators():
        assert alpha.apply(g) == knon.apply(g)
    with pytest.raises(ValueError):
        lift_from_level_image(u, 3, ident_perm, beta_id)  # t does not divide m


def test_level_lift_heisenberg_entry(monkeypatch):
    """heis3 at m = 6 has 17,496 fine keys; reading each through working
    coordinates made 157,880 reduce_working calls."""
    u = build_fiber("heis3")
    beta = make_ia_star(u.hull, {(2, 0): 1})
    ident2 = tuple(range(3))
    sigma = lift_automorphism(u, beta, ident2)
    lq = level_quotient(u, 6)
    alpha_m = _ref_induced_on_level_quotient(lq, sigma)
    calls = [0]
    reduce_working = LatticeQuotient.reduce_working

    def counted(self, v):
        calls[0] += 1
        return reduce_working(self, v)

    monkeypatch.setattr(LatticeQuotient, "reduce_working", counted)
    alpha = lift_from_level_image(u, 6, alpha_m, beta, t=3)
    assert len(lq.fq.keys()) == 17496 and calls[0] < 1000
    for g in u.generators():
        assert alpha.apply(g) == sigma.apply(g)


def test_find_t_cap_and_candidate_cap():
    u = z2z4()
    with pytest.raises(CapExceeded):
        find_t(u, cap=1)
    with pytest.raises(CapExceeded):
        ia_kernel_enum(u, candidate_cap=1)


def test_level_lift_unrealizable_image():
    u = z2z4()
    beta_id = LieAutomorphism(u.hull.algebra, ((F(1),),))
    lq = level_quotient(u, 4)
    # swap the identity coset with a coset having a different hull part
    target = next(i for i, key in enumerate(lq.reps)
                  if any(lq.coarse.parts(key)[0]))
    perm = list(range(lq.order))
    perm[0], perm[target] = perm[target], perm[0]
    with pytest.raises((ValueError, RuntimeError)):
        lift_from_level_image(u, 4, tuple(perm), beta_id)


def reference_lift_from_level_image(u, m, alpha_m, beta, t=None):
    """Test oracle: the transported map that picks alpha's P2 part element
    by element through working coordinates, checked on every fine key."""
    t = t if t is not None else find_t(u)
    if m % t:
        raise ValueError(f"level {m} is not a multiple of t = {t}")
    lq = level_quotient(u, m)
    if not is_ia_star(beta, u.hull):
        raise ValueError("beta must be an IA* element of the hull")

    class Transported:
        def apply(self, el):
            if not u.member(el):
                raise ValueError("element outside the fiber group")
            x_new = beta.apply(el.x)
            target_class = alpha_m[_ref_class_of_element(lq, el)]
            candidates = []
            for y in range(u.p2.order):
                cand = FiberElement(x_new, y)
                if u.member(cand) and \
                        _ref_class_of_element(lq, cand) == target_class:
                    candidates.append(cand)
            if len(candidates) != 1:
                raise ValueError("alpha_m is not realizable over the supplied"
                                 f" beta ({len(candidates)} candidates)")
            return candidates[0]

    alpha = Transported()
    for key in lq.fq.keys():
        got = _ref_class_of_element(
            lq, alpha.apply(_ref_element_from_key(lq.fq, key)))
        if got != alpha_m[lq.class_of_key(key)]:
            raise RuntimeError("transported map does not reduce to alpha_m")
    return alpha


def _level_lift_cases():
    """(u, m, alpha_m, beta, t): z2z4 at m = 2, 4 (identity and the
    nontrivial torsion shift) and an IA* entry of heis3 at m = 3."""
    u = z2z4()
    beta_id = LieAutomorphism(u.hull.algebra, ((F(1),),))
    gens = [FiberElement((F(1),), 1), FiberElement((F(0),), 2)]
    knon = next(a for a in ia_kernel_enum(u, gens)[0] if any(a.shifts))
    for m in (2, 4):
        yield u, m, tuple(range(level_quotient(u, m).order)), beta_id, None
    yield u, 4, _ref_induced_on_level_quotient(level_quotient(u, 4), knon), \
        beta_id, None
    h = build_fiber("heis3")
    beta = make_ia_star(h.hull, {(2, 0): 1})
    sigma = lift_automorphism(h, beta, (0, 1, 2))
    yield h, 3, _ref_induced_on_level_quotient(level_quotient(h, 3), sigma), \
        beta, 3


def test_level_lift_matches_transported_oracle():
    rng = random.Random(0)
    for u, m, alpha_m, beta, t in _level_lift_cases():
        alpha = lift_from_level_image(u, m, alpha_m, beta, t)
        ref = reference_lift_from_level_image(u, m, alpha_m, beta, t)
        # alpha.fq is the coarse quotient; the oracle walks every fine key
        fq = level_quotient(u, m).fq
        k = u.hull.algebra.dim
        for rep, y in map(fq.parts, fq.keys()):
            shift = [fq.s * rng.randint(-3, 3) for _ in range(k)]
            for v in (rep, [a + b for a, b in zip(rep, shift)]):
                el = FiberElement(u.hull.to_working(tuple(map(F, v))), y)
                assert alpha.apply(el) == ref.apply(el), (m, rep, y, v)
    # the swapped-coset permutation of test_level_lift_unrealizable_image
    u = z2z4()
    beta_id = LieAutomorphism(u.hull.algebra, ((F(1),),))
    lq = level_quotient(u, 4)
    target = next(i for i, key in enumerate(lq.reps)
                  if any(lq.coarse.parts(key)[0]))
    perm = list(range(lq.order))
    perm[0], perm[target] = perm[target], perm[0]
    for lift in (lift_from_level_image, reference_lift_from_level_image):
        with pytest.raises(ValueError, match="not realizable"):
            lift(u, 4, tuple(perm), beta_id)


def _ref_cosets(elements, normal, mul):
    """Test oracle: the coset table with one product a*h for every h in N,
    the identity included, per coset rep a."""
    reps = []
    coset_of = {}
    for a in elements:
        if a not in coset_of:
            idx = len(reps)
            reps.append(a)
            for h in normal:
                coset_of[mul(a, h)] = idx
    return reps, coset_of


def _ref_verbal_power_subgroup(fq, t):
    """Test oracle: the closure of the t-th power of every key, one power
    per key."""
    gens = {fq.power(key, t) for key in fq.keys()}
    return set(closure(fq.key((0,) * fq.latq.k, 0), tuple(gens), fq.mul))


def reference_level_quotient(fq, m):
    """Test oracle: the coset table of the closure of every fine m-th power,
    built with one product per fine key."""
    return _ref_cosets(fq.keys(), _ref_verbal_power_subgroup(fq, m), fq.mul)


def reference_reconstruction_check(u, m):
    """Test oracle: reconstruction_check with both coset tables built on the
    fine quotients, and one (rep, class) pair stored per fine key."""
    lq = level_quotient(u, m)
    fq = lq.fq
    reps, coset_of = reference_level_quotient(fq, m)
    normal = {key for key, c in coset_of.items() if c == 0}
    e = fq.key((0,) * fq.latq.k, 0)
    injective = all(key == e or key not in normal
                    for key in map(fq.reduce, u.torsion_elements()))
    hq = fq.latq
    powers = tuple({hq.power(rep, m) for rep in hq.elements()})
    delta_reps, delta_coset = _ref_cosets(
        hq.elements(), closure((0,) * u.hull.algebra.dim, powers, hq.mul),
        hq.mul)
    target_size = hq.order * len(reps) // len(delta_reps)
    seen = {(fq.parts(key)[0], c) for key, c in coset_of.items()}
    return {"m": m, "level": fq.s, "injective": injective,
            "surjective": len(seen) == target_size,
            "compatible": all(delta_coset[rep] ==
                              delta_coset[fq.parts(reps[c])[0]]
                              for rep, c in seen),
            "shadow_pairs": len(seen), "target_size": target_size}


@pytest.mark.parametrize("name", TORSION_NAMES + ("zz2",))
def test_level_quotient_matches_all_keys_oracle(name):
    u = build_zz2() if name == "zz2" else build_fiber(name)
    for m in (1, 2, 3, 4, 5, 6) + ((9,) if name == "heis3" else ()):
        lq = level_quotient(u, m)
        reps, coset_of = reference_level_quotient(lq.fq, m)
        assert lq.order == len(reps), (name, m)
        assert list(map(lq.coarse.parts, lq.reps)) == \
            list(map(lq.fq.parts, reps)), (name, m)
        for key in lq.fq.keys():
            assert lq.class_of_key(key) == coset_of[key], (name, m, key)


@pytest.mark.parametrize("name,levels", [("z2z4", range(2, 13)),
                                         ("heis3", range(3, 10)),
                                         ("zz3", range(2, 7)),
                                         ("z3z9", range(2, 7)),
                                         ("z2z2z4", range(2, 7))])
def test_reconstruction_matches_all_keys_oracle(name, levels):
    u = build_fiber(name)
    for m in levels:
        assert reconstruction_check(u, m) == \
            reference_reconstruction_check(u, m), m


@pytest.mark.parametrize("name", TORSION_NAMES)
def test_coarse_walk_matches_fine_walk(name):
    """Every catalog entry takes the coarse walk, so the fine walk runs only
    here; both must give the same (shadow_pairs, compatible)."""
    u = build_fiber(name)
    for m in range(2, 7):
        lq = level_quotient(u, m)
        hull_q, _order, delta_classes = _delta_m(u, m, lq.fq)
        coarse = lq.coarse.latq
        assert coarse.s < lq.fq.s and coarse.s % hull_q.s == 0, (name, m)
        fine = _walk_shadow(lq, hull_q, delta_classes, lq.fq.latq)
        assert _walk_shadow(lq, hull_q, delta_classes, coarse) == fine, (name, m)
        assert fine[0] == reconstruction_check(u, m)["shadow_pairs"], (name, m)


def test_delta_m_matches_the_coset_oracle():
    """Delta_m against the coset table of the closure of every m-th power,
    on quotients whose scale the level-m scale does not divide, so that the
    powers are not all zero and _delta_m closes them."""
    u = build_fiber("heis3")
    for s, m in ((4, 6), (6, 4), (9, 6), (3, 2)):
        fq = SimpleNamespace(s=s, latq=LatticeQuotient(u.hull, s))
        hull_q, order, classes = _delta_m(u, m, fq)
        assert hull_q is fq.latq, (s, m)
        powers = tuple({hull_q.power(rep, m) for rep in hull_q.elements()})
        normal = closure((0,) * hull_q.k, powers, hull_q.mul)
        reps, coset_of = _ref_cosets(hull_q.elements(), normal, hull_q.mul)
        assert order == len(reps), (s, m)
        assert list(classes) == list(map(coset_of.get, hull_q.elements()))


def test_walk_rejects_a_scale_it_cannot_read():
    u = build_fiber("heis3")
    lq = level_quotient(u, 6)
    hull_q, _order, delta_classes = _delta_m(u, 6, lq.fq)
    with pytest.raises(ValueError, match="walk scale"):
        _walk_shadow(lq, hull_q, delta_classes, u.side.latq)


def test_reconstruction_makes_no_product_per_fine_key(monkeypatch):
    """heis3 at m = 15 has 273,375 fine keys; one product per key would
    take more than 365,000 calls, and reading every fine rep made 313,882
    reduce calls.  Its m-th powers are trivial, so the closures and coset
    tables make no product at all (13,502 with a product per element of
    each table); the one product counted is the pi1 check of build_fiber."""
    calls = {"mul": 0, "reduce": 0}
    mul, reduce = LatticeQuotient.mul, LatticeQuotient.reduce
    keys = FiberQuotient.keys
    listed = []

    def counted_mul(self, a, b):
        calls["mul"] += 1
        return mul(self, a, b)

    def counted_reduce(self, v):
        calls["reduce"] += 1
        return reduce(self, v)

    def recorded_keys(self):
        listed.append(self.s)
        return keys(self)

    monkeypatch.setattr(LatticeQuotient, "mul", counted_mul)
    monkeypatch.setattr(LatticeQuotient, "reduce", counted_reduce)
    monkeypatch.setattr(FiberQuotient, "keys", recorded_keys)
    u = build_fiber("heis3")
    r = reconstruction_check(u, 15)
    assert r["shadow_pairs"] == r["target_size"] == 273375
    assert calls["mul"] <= 2
    assert calls["reduce"] < 100_000
    assert listed and level_quotient(u, 15).fq.s not in listed


def test_reconstruction_peak_memory_is_bounded():
    """reconstruction_check(heis3, 15) holds under 64 KiB at its peak
    (about 12 KiB when the bound was set; 2,048 KiB while the coset tables
    were dicts of (rep, y) tuples, and about 450 KiB with a list per
    coarse rep in the walk), measured warm with tracemalloc."""
    u = build_fiber("heis3")
    reconstruction_check(u, 15)
    gc.collect()
    tracemalloc.start()
    try:
        r = reconstruction_check(u, 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r["surjective"] and r["compatible"]
    assert peak < 64 * 1024, f"{peak / 1024:.0f} KiB"


def _ref_pairs(fq):
    """Test oracle: the (rep, y) pairs of fq in lexicographic order, every
    y over the Q-class of its rep."""
    u = fq.u
    return [(rep, y) for rep in fq.latq.elements() for y in range(u.p2.order)
            if u.pi2[y] == u.side.q_of_rep(rep)]


def _grid_levels(u):
    return (hom_test_scale(u),) + tuple(u.side.scale * m for m in range(1, 7))


@pytest.mark.parametrize("name", TORSION_NAMES + ("zz2",))
def test_fiber_quotient_order_counts_keys(name):
    u = build_zz2() if name == "zz2" else build_fiber(name)
    for level in _grid_levels(u):
        fq = FiberQuotient(u, level)
        assert fq.order == len(fq.keys()) == len(_ref_pairs(fq)), (name, level)


@pytest.mark.parametrize("name", TORSION_NAMES + ("zz2",))
def test_key_grid_round_trips_in_pair_order(name):
    """Key i <-> (rep, y) is a bijection onto the pairs that keeps their
    lexicographic order, and an element reduces to the key of its pair."""
    u = build_zz2() if name == "zz2" else build_fiber(name)
    rng = random.Random(1)
    for level in _grid_levels(u):
        fq = FiberQuotient(u, level)
        pairs = _ref_pairs(fq)
        assert list(map(fq.parts, fq.keys())) == pairs, (name, level)
        assert [fq.key(rep, y) for rep, y in pairs] == list(fq.keys())
        for key, (rep, y) in zip(fq.keys(), pairs):
            v = [x + fq.s * rng.randint(-2, 2) for x in rep]
            el = FiberElement(u.hull.to_working(tuple(map(F, v))), y)
            assert fq.reduce(el) == key, (name, level, rep, y)


@pytest.mark.parametrize("name", TORSION_NAMES + ("zz2",))
def test_verbal_power_subgroup_matches_per_key_oracle(name):
    u = build_zz2() if name == "zz2" else build_fiber(name)
    for level in (u.side.scale, 2 * u.side.scale, hom_test_scale(u)):
        fq = FiberQuotient(u, level)
        for t in range(1, 7):
            assert fq.verbal_power_subgroup(t) == \
                _ref_verbal_power_subgroup(fq, t), (name, level, t)


@pytest.mark.parametrize("name,want", [("z2z4", (172, 1062)),
                                       ("zz3", (100, 459))])
def test_verbal_closure_keeps_only_new_powers(name, want, monkeypatch):
    """The closures of test_verbal_power_subgroup_matches_per_key_oracle
    make want = (Dimino's rule, every distinct power a BFS generator)
    products in total; Dimino's count depends on the order the powers are
    offered in, which is key order."""
    calls = [0]
    mul = FiberQuotient.mul

    def counted(self, a, b):
        calls[0] += 1
        return mul(self, a, b)

    monkeypatch.setattr(FiberQuotient, "mul", counted)
    u = build_fiber(name)
    counts = []
    for closed in (FiberQuotient.verbal_power_subgroup,
                   _ref_verbal_power_subgroup):
        calls[0] = 0
        for level in (u.side.scale, 2 * u.side.scale, hom_test_scale(u)):
            fq = FiberQuotient(u, level)
            for t in range(1, 7):
                closed(fq, t)
        counts.append(calls[0])
    assert tuple(counts) == want


@pytest.mark.parametrize("name,levels", [("z2z4", range(2, 13, 2)),
                                         ("heis3", range(3, 16, 3))])
def test_level_quotient_cosets_match_per_key_powers(name, levels, monkeypatch):
    """QuotientGroup.reps and the class of every fine key at the
    benchmark's reconstruction levels are the ones the per-key powers
    give."""
    u = build_fiber(name)
    got = [level_quotient(u, m) for m in levels]
    monkeypatch.setattr(FiberQuotient, "verbal_power_subgroup",
                        _ref_verbal_power_subgroup)
    for m, lq in zip(levels, got):
        ref = level_quotient(u, m)
        assert list(lq.reps) == list(ref.reps), (name, m)
        # every fine key, read through class_of_key, against the reference
        # classes read at the fine rep's coarse rep by a digit table
        K = ref.fq.width
        want = [ref.classes[b * K + j]
                for b in _read_mod(ref.fq.latq, ref.coarse.s) for j in range(K)]
        assert list(map(lq.class_of_key, lq.fq.keys())) == want, (name, m)
