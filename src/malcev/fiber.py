"""Finitely generated nilpotent groups with torsion, as fiber products.

A group is input as P1 x_Q P2 where P1 = exp(lattice) is a hull group whose
map to Q factors through a congruence quotient, and P2, Q are finite.  All
verification happens on finite quotients: exp(s * lattice) x {e} is killed
by every homomorphism to P2 once exp(P2) * (level scale) divides s, so
hom-extension questions reduce to a finite complete check.

A finite quotient's elements are the ints of a key grid (``FiberQuotient``):
coset tables, homs to P2 and lifted automorphisms are flat tables on it, and
powers, Q-classes and changes of scale are read off per-coordinate tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import linalg
from .autos import LieAutomorphism, _ia_star_matrix, adapted_matrix
from .errors import CapExceeded
from .finite import (FiniteGroup, check_onto, cosets, extend_hom,
                     induced_map, subgroup)
from .hull import HullResult, congruence_quotient
from .liealg import scale_vec


@dataclass(frozen=True)
class FiberElement:
    """(x, y) with x a log vector of the hull group and y a P2 index."""

    x: tuple
    y: int


class HullSide:
    """The torsion-free side: exp(lattice) with pi1 through a finite level."""

    def __init__(self, hull: HullResult, level: int, to_q, q: FiniteGroup):
        self.hull = hull
        self.level = level
        self.scale, self.latq = congruence_quotient(hull, level)
        self.to_q = tuple(to_q)
        self.q = q
        if len(self.to_q) != self.latq.order:
            raise ValueError("pi1 data must cover every level coset")
        lat, rep = self.latq, self.latq.rep_at
        check_onto(self.to_q, lambda a, b: lat.index_of(lat.mul(rep(a), rep(b))),
                   q, "pi1 data is not a homomorphism",
                   "pi1 must be surjective onto Q")

    def q_of_rep(self, rep) -> int:
        """The Q index of an integer adapted vector."""
        return self.to_q[self.latq.index_of(self.latq.reduce(rep))]

    def pi1(self, x) -> int:
        return self.q_of_rep(self.latq.reduce_working(x))


class FiberGroup:
    """U = P1 x_Q P2 with P1 a hull group."""

    def __init__(self, side: HullSide, p2: FiniteGroup, pi2):
        self.side = side
        self.hull = side.hull
        self.p2 = p2
        self.q = side.q
        self.pi2 = tuple(pi2)
        if len(self.pi2) != p2.order:
            raise ValueError("pi2 must be defined on all of P2")
        check_onto(self.pi2, p2.mul, self.q, "pi2 is not a homomorphism",
                   "pi2 must be surjective onto Q")
        # the P2 indices over each Q-class (|ker pi2| each), and their ranks
        self.over = tuple(tuple(y for y in range(p2.order) if self.pi2[y] == q)
                          for q in range(self.q.order))
        self.rank = tuple(self.over[q].index(y) for y, q in enumerate(self.pi2))
        self._gens = None

    # -- elements ----------------------------------------------------------

    def identity(self) -> FiberElement:
        return FiberElement(tuple(Fraction(0) for _ in range(self.hull.algebra.dim)), 0)

    def member(self, el: FiberElement) -> bool:
        return self.hull.lattice.member(el.x) and \
            self.side.pi1(el.x) == self.pi2[el.y]

    def mul(self, a: FiberElement, b: FiberElement) -> FiberElement:
        return FiberElement(self.hull.algebra.bch(a.x, b.x),
                            self.p2.mul(a.y, b.y))

    def inverse(self, a: FiberElement) -> FiberElement:
        return FiberElement(scale_vec(-1, a.x), self.p2.inverse[a.y])

    def power(self, a: FiberElement, n: int) -> FiberElement:
        return FiberElement(scale_vec(n, a.x), self.p2.power(a.y, n))

    def commutator(self, a: FiberElement, b: FiberElement) -> FiberElement:
        return self.mul(self.mul(a, b), self.mul(self.inverse(a), self.inverse(b)))

    # -- canonical generators ------------------------------------------------

    def generators(self):
        """Adapted-basis lifts plus torsion generators; they generate U."""
        if self._gens is None:
            e, over, pi1 = self.identity().x, self.over, self.side.pi1
            self._gens = tuple(
                [FiberElement(b, over[pi1(b)][0]) for b in self.hull.basis] +
                [FiberElement(e, y) for y in self.torsion_generator_indices()])
        return self._gens

    def kernel_pi2(self):
        return list(self.over[0])

    def torsion_generator_indices(self):
        sub, elems = torsion_subgroup(self)
        return [elems[g] for g in sub.generating_set()]

    def torsion_elements(self):
        e = self.identity().x
        return [FiberElement(e, y) for y in self.kernel_pi2()]


def fiber_product_finite(p1: FiniteGroup, p2: FiniteGroup, pi1, pi2,
                         q: FiniteGroup):
    """(group, pairs): the fiber product of two finite groups."""
    pi1, pi2 = tuple(pi1), tuple(pi2)
    for pi, grp in ((pi1, p1), (pi2, p2)):
        if len(pi) != grp.order or set(pi) != set(range(q.order)):
            raise ValueError("projections must be surjective homomorphisms")
        check_onto(pi, grp.mul, q, "projection is not a homomorphism",
                   "projections must be surjective homomorphisms")
    pairs = [(a, b) for a in range(p1.order) for b in range(p2.order)
             if pi1[a] == pi2[b]]
    index = {p: i for i, p in enumerate(pairs)}
    table = [[index[(p1.mul(a, c), p2.mul(b, d))] for (c, d) in pairs]
             for (a, b) in pairs]
    return FiniteGroup(table, check=False), pairs


def torsion_subgroup(u: FiberGroup):
    """tor(U) = {e} x ker(pi2), with its embedding data.

    Returns (group, p2_indices): group is ker(pi2) as a FiniteGroup and
    p2_indices[i] the P2 label of its i-th element.
    """
    return u.p2.subgroup_as_group(set(u.kernel_pi2()))


# ---------------------------------------------------------------------------
# finite quotients of U


class FiberQuotient:
    """U / (exp(s * lattice) x {e}), s the congruence scale of the level,
    on an integer key grid: (rep, y) is the key b*K + j for b =
    latq.index_of(rep), K = |ker pi2| and j the rank of y among the K P2
    indices over the Q-class of rep (pi2 is a checked surjective
    homomorphism).  Key order is (rep, y) order, the keys are range(order),
    0 is the identity, and ``parts`` reads a key back."""

    def __init__(self, u: FiberGroup, level: int):
        if level % u.side.scale:
            raise ValueError("quotient level must refine the pi1 level")
        self.u = u
        self.s, self.latq = congruence_quotient(u.hull, level)
        self.width = len(u.over[0])
        self.order = self.latq.order * self.width

    def keys(self):
        return range(self.order)

    def key(self, rep, y) -> int:
        """The key of (rep, y); y must lie over the Q-class of rep."""
        return self.latq.index_of(rep) * self.width + self.u.rank[y]

    def parts(self, key):
        """(rep, y) of a key."""
        b, j = divmod(key, self.width)
        rep = self.latq.rep_at(b)
        return rep, self.u.over[self.u.side.q_of_rep(rep)][j]

    def reduce(self, el: FiberElement) -> int:
        return self.key(self.latq.reduce_working(el.x), el.y)

    def mul(self, a, b):
        (ra, ya), (rb, yb) = self.parts(a), self.parts(b)
        return self.key(self.latq.mul(ra, rb), self.u.p2.mul(ya, yb))

    def inv(self, a):
        rep, y = self.parts(a)
        return self.key(self.latq.inv(rep), self.u.p2.inverse[y])

    def power(self, a, n: int):
        rep, y = self.parts(a)
        return self.key(self.latq.power(rep, n), self.u.p2.power(y, n))

    def verbal_power_subgroup(self, t: int):
        """Closure of all t-th powers; a normal subgroup, as a key set.

        Powers are componentwise, and t*x mod s per coordinate: the (power
        digit, pi1-level digit) pairs of the coordinates combine to the
        (power rep, Q-class) pairs of all reps, and each takes the powers
        of the P2 indices over its class.  No product if all are trivial.
        """
        u, s, k, s1 = self.u, self.s, self.latq.k, self.u.side.scale
        pairs = {(0, 0)}
        for p in range(k):
            digits = {(t * x % s * s ** p, x % s1 * s1 ** p) for x in range(s)}
            pairs = {(a + d, b + e) for a, b in pairs for d, e in digits}
        y_pow = [{u.rank[u.p2.power(y, t)] for y in ys} for ys in u.over]
        gens = sorted({b * self.width + j for b, side in pairs
                       for j in y_pow[u.side.to_q[side]]})
        return subgroup(0, gens, self.mul)[0]


def _read_mod(q, t: int):
    """The scale-t index of rep mod t for every rep of the congruence
    quotient q, in index order, from one digit table per coordinate."""
    if t == q.s:
        return range(q.order)
    out = [0]
    for p in range(q.k):
        w = t ** (q.k - 1 - p)
        digits = [x % t * w for x in range(q.s)]
        out = [a + d for a in out for d in digits]
    return out


class QuotientGroup:
    """F_s / N for F_s = fq and N the verbal subgroup of its m-th powers.

    N ⊇ exp(g*lattice) x {e} (mod s) for g = gcd(m * s1, s), s1 the pi1
    level scale: each (s1*b, e) is a key, and its m-th power is
    (m*s1*b mod s, e), which runs over all of g*lattice mod s.  So N holds
    the kernel of F_s -> F_c for the coarse quotient F_c = FiberQuotient(u, g)
    (whose scale c is a multiple of g) whenever c | s, and N is the full
    preimage of the verbal subgroup of F_c.  So ``classes`` lists the class
    of each key of F_c (fq itself when c does not divide s), ``class_of_key``
    reads a key of fq at its rep mod c, and ``reps``, the first keys of the
    cosets, are the first fine pairs (with coordinates below c).  A trivial
    N makes no product: every key is its own class.
    """

    def __init__(self, fq: FiberQuotient, m: int):
        self.fq = fq
        coarse = FiberQuotient(fq.u, gcd(m * fq.u.side.scale, fq.s))
        self.coarse = coarse if fq.s % coarse.s == 0 else fq
        keys = self.coarse.keys()
        normal = self.coarse.verbal_power_subgroup(m)
        if len(normal) == 1:
            self.reps = self.classes = keys
        else:
            self.reps, coset_of = cosets(keys, normal, self.coarse.mul, 0)
            self.classes = [coset_of[key] for key in keys]
        self.order = len(self.reps)

    def class_of_key(self, key) -> int:
        rep, y = self.fq.parts(key)
        return self.classes[self.coarse.key(self.coarse.latq.reduce(rep), y)]


def _p2_exponent(u: FiberGroup) -> int:
    return lcm(*map(u.p2.element_order, range(u.p2.order)))


def hom_test_scale(u: FiberGroup) -> int:
    """A level s such that every hom U -> P2 kills exp(s*lattice) x {e}.

    Needs exp(P2) * (pi1 level scale) | s: then any such element is the
    exp(P2)-th power of an element of ker(pi1) x {e}.  Every multiple of s
    qualifies too, so the scale FiberQuotient escalates s to does.
    """
    return _p2_exponent(u) * u.side.scale


def level_quotient(u: FiberGroup, m: int) -> QuotientGroup:
    """Finite stand-in for the level-m quotient: F_s / (m-th powers).

    s is the congruence scale of level m * lcm(exp(P2), s1), so m * s1 | s
    and the m-th powers hold exp(m*s1*lattice) x {e}: the coset table is
    built on FiberQuotient(u, m * s1), which has no BCH product per fine key.
    """
    fq = FiberQuotient(u, m * lcm(_p2_exponent(u), u.side.scale))
    return QuotientGroup(fq, m)


def _separates_torsion(lq: QuotientGroup) -> bool:
    """No non-identity element of tor(U) lies in the verbal subgroup."""
    return all(key == 0 or lq.class_of_key(key) != 0
               for key in map(lq.fq.reduce, lq.fq.u.torsion_elements()))


def find_t(u: FiberGroup, cap: int = 24):
    """Smallest t <= cap whose finite quotient separates tor from t-th powers.

    Sufficient for tor(U) & U^t = {e} (tor embeds in the quotient); not
    always minimal over U itself.
    """
    for t in range(1, cap + 1):
        if _separates_torsion(level_quotient(u, t)):
            return t
    raise CapExceeded(f"no separating exponent t <= {cap}")


# ---------------------------------------------------------------------------
# automorphisms of U


@dataclass(slots=True, eq=False)
class ProductAut:
    """Componentwise automorphism (sigma1 on the hull side, sigma2 on P2)."""

    u: FiberGroup
    sigma1: LieAutomorphism
    sigma2: tuple

    def apply(self, el: FiberElement) -> FiberElement:
        return FiberElement(self.sigma1.apply(el.x), self.sigma2[el.y])


def _induced_on_q_from_hull(u: FiberGroup, A):
    """induced_map on Q of the lattice automorphism with adapted matrix A."""
    side = u.side
    return induced_map(((side.q_of_rep(rep), side.q_of_rep(linalg.mat_apply(A, rep)))
                        for rep in side.latq.elements()), u.q.order)


def lift_automorphism(u: FiberGroup, sigma1: LieAutomorphism, sigma2):
    """Componentwise lift: sigma(x, y) = (sigma1 x, sigma2 y) when compatible.

    sigma1 must be a lattice automorphism (an automorphism whose adapted
    matrix is integral with det +-1) preserving the pi1 fibration, sigma2 a
    P2-automorphism preserving ker(pi2); their induced maps on Q must agree.
    Incompatibility raises with a witness element of Q.
    """
    try:
        A = adapted_matrix(u.hull, sigma1)
    except ValueError:
        raise ValueError("sigma1 is not a lattice automorphism") from None
    if u.p2.hom_from_generators(u.p2.generating_set(),
                                [sigma2[g] for g in u.p2.generating_set()],
                                u.p2) != tuple(sigma2) or \
            len(set(sigma2)) != u.p2.order:
        raise ValueError("sigma2 is not an automorphism of P2")
    kernel = set(u.kernel_pi2())
    if {sigma2[y] for y in kernel} != kernel:
        raise ValueError("sigma2 does not preserve ker(pi2)")
    q1, w1 = _induced_on_q_from_hull(u, A)
    if q1 is None:
        raise ValueError(f"sigma1 does not preserve the pi1 fibration"
                         f" (witness Q-class {w1})")
    q2, w2 = induced_map(((u.pi2[y], u.pi2[sigma2[y]]) for y in range(u.p2.order)),
                         u.q.order)
    if q2 is None:
        raise ValueError(f"sigma2 does not induce a map on Q (witness {w2})")
    if q1 != q2:
        witness = next(q for q in range(u.q.order) if q1[q] != q2[q])
        raise ValueError(f"induced maps on Q disagree (witness Q-class {witness})")
    sigma = ProductAut(u, sigma1, tuple(sigma2))
    # projection identities and membership, literally, on the generators
    for g in u.generators():
        image = sigma.apply(g)
        if not u.member(image):
            raise RuntimeError("lifted map leaves the fiber product")
        if image.x != sigma1.apply(g.x) or image.y != sigma2[g.y]:
            raise RuntimeError("projection identity violated")
    return sigma


def lift_automorphism_finite(p1: FiniteGroup, p2: FiniteGroup, q: FiniteGroup,
                             pi1, pi2, pairs, sigma1, sigma2):
    """The same lift for a materialized finite fiber product.

    Returns the permutation of the pair list; raises with a witness on
    incompatible induced maps.
    """
    maps = []
    for pi, sigma, grp in ((pi1, sigma1, p1), (pi2, sigma2, p2)):
        qmap, witness = induced_map(((pi[a], pi[sigma[a]]) for a in range(grp.order)),
                                    q.order)
        if qmap is None:
            raise ValueError(f"no induced map on Q (witness {witness})")
        maps.append(qmap)
    if maps[0] != maps[1]:
        witness = next(i for i in range(q.order) if maps[0][i] != maps[1][i])
        raise ValueError(f"induced maps on Q disagree (witness Q-class {witness})")
    index = {p: i for i, p in enumerate(pairs)}
    return tuple(index[(sigma1[a], sigma2[b])] for (a, b) in pairs)


# ---------------------------------------------------------------------------
# free abelianization


def _torsion_exponents(u: FiberGroup, y: int, tor_gens):
    """Exponent vector over the torsion generators reaching y, by search."""
    orders = [u.p2.element_order(g) for g in tor_gens]
    for exps in itertools.product(*[range(o) for o in orders]):
        acc = 0
        for g, e in zip(tor_gens, exps):
            acc = u.p2.mul(acc, u.p2.power(g, e))
        if acc == y:
            return list(exps)
    raise RuntimeError("torsion element escapes its generators")


def free_abelianization_check(u: FiberGroup):
    """Free abelianized rank via the Smith form of the relation matrix, plus
    the mutually inverse canonical maps with the hull side.

    ``maps_identity`` holds when every relation row has zero first-layer
    coordinates: then U -> Delta -> Delta* (the first-layer adapted
    coordinates) factors through U^ab, and with ``rank_matches`` the induced
    map U* -> Delta* is an isomorphism.  Returns (d, report).
    """
    hull = u.hull
    k = hull.algebra.dim
    gens = list(u.generators())
    lat_gens = gens[:k]
    tor_gens = [g.y for g in gens[k:]]
    r = len(tor_gens)

    def normal_form(el: FiberElement):
        coords = hull.to_adapted_int(el.x)
        if coords is None:
            raise ValueError("element outside the hull lattice")
        w = u.identity()
        for g, a in zip(lat_gens, coords):
            w = u.mul(w, u.power(g, a))
        tail = u.mul(u.inverse(w), el)
        if any(tail.x):
            raise RuntimeError("normal form must close up to torsion")
        return list(coords) + _torsion_exponents(u, tail.y, tor_gens)

    rows = [normal_form(u.commutator(a, b))
            for a, b in itertools.combinations(gens, 2)]
    rows += [[0] * (k + t) + [u.p2.element_order(y)] + [0] * (r - 1 - t)
             for t, y in enumerate(tor_gens)]
    diag, _, _ = linalg.snf_with_transforms(rows, k + r)
    free_rank = (k + r) - len(diag)
    invariants = [x for x in diag if x != 1]
    d = hull.d
    return d, {"free_rank": free_rank, "d": d, "invariants": invariants,
               "rank_matches": free_rank == d,
               "maps_identity": not any(any(row[:d]) for row in rows)}


# ---------------------------------------------------------------------------
# the finite kernel K-tilde


@dataclass(slots=True, eq=False)
class TorsionShiftAut:
    """Automorphism x_i -> x_i a_i (a_i in tor): identity on the hull side.

    The P2-component is the hom g: U -> P2 with g(x, y) read off a deep
    enough finite quotient, through which every such hom factors: phi is
    its table over the key grid of fq.
    """

    u: FiberGroup
    shifts: tuple
    fq: FiberQuotient
    phi: tuple

    def apply(self, el: FiberElement) -> FiberElement:
        return FiberElement(el.x, self.phi[self.fq.reduce(el)])


def ia_kernel_enum(u: FiberGroup, gens=None, candidate_cap: int = 4096):
    """All torsion-shift maps on the generators that extend to Aut(U).

    Returns (elements, report); elements are TorsionShiftAut.  A candidate
    is accepted iff the induced generator assignment extends to a
    homomorphism U -> P2 (complete check on the factoring quotient) and is
    bijective on the torsion subgroup; that is equivalent to being an
    automorphism for maps of this shape.
    """
    gens = list(gens) if gens is not None else list(u.generators())
    torsion = u.torsion_elements()
    if len(torsion) ** len(gens) > candidate_cap:
        raise CapExceeded(f"{len(torsion) ** len(gens)} candidate maps exceed"
                          f" the cap {candidate_cap}")
    fq = FiberQuotient(u, hom_test_scale(u))
    gen_keys = [fq.reduce(g) for g in gens]
    # extend_hom multiplies by the generators only: one table on the key
    # grid serves every candidate
    steps = {g: [fq.mul(a, g) for a in fq.keys()] for g in gen_keys}

    def extend(ys):
        """The hom FQ -> P2 sending the generator keys to ys, or None."""
        return extend_hom(0, gen_keys, list(ys),
                          lambda a, g: steps[g][a], fq.order, u.p2)

    # the generators must generate U; verify on the finite quotient
    if extend(g.y for g in gens) is None:
        raise ValueError("generators do not generate (or are inconsistent)"
                         " on the factoring quotient")
    kernel = set(u.kernel_pi2())
    tor_keys = [fq.reduce(a) for a in torsion]
    accepted = []
    for shifts in itertools.product(torsion, repeat=len(gens)):
        images = [u.mul(g, a) for g, a in zip(gens, shifts)]
        phi = extend(im.y for im in images)
        if phi is None:
            continue
        # pi2(g(u)) must equal pi1(x): holds iff it holds on generators
        if any(u.pi2[phi[k]] != u.pi2[im.y] for k, im in zip(gen_keys, images)):
            continue
        if {phi[k] for k in tor_keys} != kernel:
            continue
        accepted.append(TorsionShiftAut(u, tuple(a.y for a in shifts), fq,
                                        tuple(map(phi.__getitem__, fq.keys()))))
    # closure under composition: a o b shifts each generator g by the P2
    # part of g^-1 * a(g * b_g) (its hull part is -x + x = 0)
    shift_set = {aut.shifts for aut in accepted}
    p2 = u.p2
    closed = all(tuple(p2.mul(p2.inverse[g.y],
                              a.apply(FiberElement(g.x, p2.mul(g.y, sb))).y)
                       for g, sb in zip(gens, b.shifts)) in shift_set
                 for a in accepted for b in accepted)
    return accepted, {"order": len(accepted), "closed": closed,
                      "candidates": len(torsion) ** len(gens)}


# ---------------------------------------------------------------------------
# reconstruction (rho) and the lifting proposition


def _delta_m(u: FiberGroup, m: int, fq: FiberQuotient):
    """(hull_q, order, classes) of Delta_m = (lattice/s) / (m-th powers),
    with the coset of every rep of the hull_q box in classes.

    The m-th powers hold exp(m*lattice) (mod s), so Delta_m is read off the
    congruence quotient of level m when its scale divides s, and off
    lattice/s itself otherwise.  They are the box of the digits m*x mod s;
    when those are all zero, no product is made.
    """
    hull_s, hull_q = congruence_quotient(u.hull, m)
    if fq.s % hull_s:
        hull_q = fq.latq
    e = (0,) * hull_q.k
    digits = sorted({m * x % hull_q.s for x in range(hull_q.s)})
    closed = subgroup(e, itertools.product(digits, repeat=hull_q.k), hull_q.mul)[0]
    if len(closed) == 1:
        return hull_q, hull_q.order, range(hull_q.order)
    reps, coset_of = cosets(hull_q.elements(), closed, hull_q.mul, e)
    return hull_q, len(reps), list(map(coset_of.__getitem__, hull_q.elements()))


def _walk_shadow(lq: QuotientGroup, hull_q, delta_classes, walk):
    """(shadow_pairs, compatible) of reconstruction_check, read off the reps
    of the congruence quotient ``walk``.

    A fine key (rep, y) of F_s is read through rep mod the scales of
    lq.coarse (its Q_m class), u.side (the y over it) and hull_q (its
    Delta_m leg).  When all three divide walk.s = g and g divides s, each
    rep mod g stands for the (s/g)^k fine reps over it, which give the same
    classes and leg; so it counts with that weight.  walk = fq.latq is the
    plain walk over every fine rep.  Digit tables give each walk rep its
    coarse rep b and its leg; the K keys over b are the slice
    classes[b*K:(b+1)*K], and the reps of their classes must have that leg.
    """
    fq, coarse = lq.fq, lq.coarse
    if fq.s % walk.s or any(walk.s % q.s for q in
                            (coarse.latq, fq.u.side.latq, hull_q)):
        raise ValueError("the walk scale must divide s and be a multiple of"
                         " every scale the walk reads")
    K, classes, reps = fq.width, lq.classes, lq.reps
    rep_hull = _read_mod(coarse.latq, hull_q.s)
    shadow_pairs, compatible = 0, True
    for b, h in zip(_read_mod(walk, coarse.latq.s), _read_mod(walk, hull_q.s)):
        block = set(classes[b * K:b * K + K])
        shadow_pairs += len(block)
        leg = delta_classes[h]
        compatible = compatible and all(
            delta_classes[rep_hull[reps[c] // K]] == leg for c in block)
    return (fq.s // walk.s) ** walk.k * shadow_pairs, compatible


def reconstruction_check(u: FiberGroup, m: int):
    """Is rho: U -> Delta x_{Delta_m} Q_m injective and surjective at level m?

    Injectivity: tor meets the level kernel trivially (exact).  Surjectivity
    is verified on the finite shadow at the same congruence level s: every
    fine key of F_s gives a pair (Delta_s leg, Q_m class), and these pairs
    must fill Delta_s x_{Delta_m} Q_m.  No table is built at scale s: Q_m
    comes from ``level_quotient`` as a class list on the key grid of its
    coarse scale g, Delta_m from ``_delta_m`` as a class list on its box,
    and the pairs are counted over the g^k coarse reps, each standing for
    (s/g)^k fine reps, whenever the Delta_m scale divides g (over the s^k
    fine reps otherwise); see ``_walk_shadow``.
    """
    lq = level_quotient(u, m)
    fq = lq.fq
    # injectivity: ker(rho) = tor & ker(U -> Q_m)
    injective = _separates_torsion(lq)
    hull_q, delta_m_size, delta_classes = _delta_m(u, m, fq)
    # the shadow of Delta is the full congruence quotient at the same level;
    # covering Delta_s x_{Delta_m} Q_m lifts to surjectivity of rho, since
    # exp(s*lattice) x {e} lies in both ker(pi1) and ker(U -> Q_m)
    if (fq.latq.order * lq.order) % delta_m_size:
        raise RuntimeError("|Delta_m| must divide |Delta_s| * |Q_m|")
    target_size = fq.latq.order * lq.order // delta_m_size
    walk = lq.coarse.latq if lq.coarse.s % hull_q.s == 0 else fq.latq
    shadow_pairs, compatible = _walk_shadow(lq, hull_q, delta_classes, walk)
    return {"m": m, "level": fq.s, "injective": injective,
            "surjective": shadow_pairs == target_size, "compatible": compatible,
            "shadow_pairs": shadow_pairs, "target_size": target_size}


@dataclass
class LevelLiftAut:
    """beta on the hull side; the P2 component is a list on the key grid of
    ``fq``, the coarse quotient of the level quotient, read at an element's
    key (see ``lift_from_level_image``)."""

    u: FiberGroup
    beta: LieAutomorphism
    fq: FiberQuotient
    table: list

    def apply(self, el: FiberElement) -> FiberElement:
        if not self.u.member(el):
            raise ValueError("element outside the fiber group")
        return FiberElement(self.beta.apply(el.x), self.table[self.fq.reduce(el)])


def lift_from_level_image(u: FiberGroup, m: int, alpha_m,
                          beta: LieAutomorphism, t: int | None = None):
    """Reconstruct alpha in IA*(U) from its level-m image alpha_m (a
    permutation of the level quotient's cosets) and a hull-side IA* beta.

    beta's adapted matrix A is integral, so it maps g*Z^k into g*Z^k for the
    coarse scale g of the level quotient, and alpha sends a key (rep, y) to
    (A rep mod g, y'), with y' the one P2 index over its Q-class in the
    coset alpha_m assigns.  The Q-class needs rep mod s1 and the coset
    rep mod g (s1 | g), so y' depends only on the coarse key: the table is
    a list on the coarse keys, and y' is read off the K keys over A rep.
    Raises when t does not divide m or alpha_m is not realizable over beta.
    """
    t = t if t is not None else find_t(u)
    if m % t:
        raise ValueError(f"level {m} is not a multiple of t = {t}")
    lq = level_quotient(u, m)
    A = _ia_star_matrix(beta, u.hull)
    if A is None:
        raise ValueError("beta must be an IA* element of the hull")
    coarse, classes, K, latq = lq.coarse, lq.classes, lq.fq.width, lq.coarse.latq
    table = []
    for b, rep in enumerate(latq.elements()):
        image = latq.reduce(linalg.mat_apply(A, rep))
        base, over = latq.index_of(image) * K, u.over[u.side.q_of_rep(image)]
        for key in range(b * K, b * K + K):
            target = alpha_m[classes[key]]
            ys = [y for j, y in enumerate(over) if classes[base + j] == target]
            if len(ys) != 1:
                raise ValueError("alpha_m is not realizable over the supplied"
                                 f" beta ({len(ys)} candidates)")
            table.append(ys[0])
    alpha = LevelLiftAut(u, beta, coarse, table)
    # IA*-ness, literally: the free abelianization reads off the first-layer
    # adapted coordinates of the hull part, and alpha must fix them
    d, gens, to_adapted = u.hull.d, u.generators(), u.hull.to_adapted_int
    if any(to_adapted(g.x)[:d] != to_adapted(alpha.apply(g).x)[:d] for g in gens):
        raise RuntimeError("transported map moves the free abelianization")
    # multiplicativity spot-check on generator pairs
    if any(alpha.apply(u.mul(a, b)) != u.mul(alpha.apply(a), alpha.apply(b))
           for a in gens for b in gens):
        raise RuntimeError("transported map is not multiplicative")
    return alpha
