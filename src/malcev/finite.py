"""Finite groups as Cayley tables: validation, homs, automorphisms.

The module-level helpers take any hashable elements and a ``mul``, so the
finite quotients in ``autos`` and ``fiber`` use them too:
``closure`` (the subgroup generated, as a BFS tree), ``extend_hom`` (a
generator assignment extended to a homomorphism), ``cosets`` (the coset
table of a normal subgroup), ``check_onto`` (a map onto a quotient Q is a
homomorphism) and ``induced_map`` (the map a permutation induces on Q).
Cayley-table elements are indices 0..N-1 with identity 0.  Validation uses
Light's associativity test (a complete check, quadratic instead of cubic) up
to EXHAUSTIVE_BELOW elements and seeded random triple sampling above it.
"""

from __future__ import annotations

import itertools
import random

from .errors import CapExceeded

EXHAUSTIVE_BELOW = 512
SAMPLE_TRIPLES = 10 ** 4


class FiniteGroup:
    """Immutable finite group given by its Cayley table."""

    __slots__ = ("order", "cayley", "inverse")

    def __init__(self, cayley, check: bool = True):
        self.order = len(cayley)
        self.cayley = tuple(tuple(row) for row in cayley)
        inv = [None] * self.order
        for a in range(self.order):
            for b in range(self.order):
                if self.cayley[a][b] == 0:
                    inv[a] = b
                    break
        self.inverse = tuple(inv)
        if check:
            problems = self.validate()
            if problems:
                raise ValueError(f"not a group: {problems[0]}")

    # -- construction --------------------------------------------------------

    @staticmethod
    def cyclic(n: int) -> "FiniteGroup":
        return FiniteGroup(tuple(tuple((a + b) % n for b in range(n))
                                 for a in range(n)), check=False)

    @staticmethod
    def trivial() -> "FiniteGroup":
        return FiniteGroup.cyclic(1)

    @staticmethod
    def direct_product(g: "FiniteGroup", h: "FiniteGroup") -> "FiniteGroup":
        n, m = g.order, h.order
        table = [[0] * (n * m) for _ in range(n * m)]
        for a, b in itertools.product(range(n), range(m)):
            for c, d in itertools.product(range(n), range(m)):
                table[a * m + b][c * m + d] = g.cayley[a][c] * m + h.cayley[b][d]
        return FiniteGroup(table, check=False)

    # -- structure -------------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.cayley[a][b]

    def power(self, a: int, n: int) -> int:
        if n < 0:
            return self.power(self.inverse[a], -n)
        out = 0
        base = a
        while n:
            if n & 1:
                out = self.cayley[out][base]
            base = self.cayley[base][base]
            n >>= 1
        return out

    def element_order(self, a: int) -> int:
        n = 1
        x = a
        while x != 0:
            x = self.cayley[x][a]
            n += 1
        return n

    def validate(self):
        """Group-law check; returns a list of violation descriptions.

        Identity/inverse laws are always checked in full.  Associativity is
        certified with Light's test (complete) up to the exhaustive
        threshold and by seeded random triples above it.
        """
        problems = []
        n = self.order
        for a in range(n):
            if self.cayley[0][a] != a or self.cayley[a][0] != a:
                problems.append(f"identity law fails at {a}")
            if self.inverse[a] is None or \
                    self.cayley[self.inverse[a]][a] != 0:
                problems.append(f"no two-sided inverse for {a}")
        if problems:
            return problems
        if n <= EXHAUSTIVE_BELOW:
            gens = self.generating_set()
            for g in gens:
                for a in range(n):
                    ag = self.cayley[a][g]
                    row_a = self.cayley[a]
                    row_ag = self.cayley[ag]
                    grow = self.cayley[g]
                    for c in range(n):
                        if row_ag[c] != row_a[grow[c]]:
                            problems.append(
                                f"associativity fails at ({a},{g},{c})")
                            return problems
        else:
            rng = random.Random(0)
            for _ in range(SAMPLE_TRIPLES):
                a, b, c = (rng.randrange(n) for _ in range(3))
                if self.cayley[self.cayley[a][b]][c] != \
                        self.cayley[a][self.cayley[b][c]]:
                    problems.append(f"associativity fails at ({a},{b},{c})")
                    return problems
        return problems

    def generating_set(self):
        """A small generating sequence found greedily."""
        gens = []
        known = {0}
        for a in range(self.order):
            if a in known:
                continue
            gens.append(a)
            known = self.subgroup_closure(gens)
            if len(known) == self.order:
                break
        return gens

    def subgroup_closure(self, elements):
        """The subgroup generated by the given elements, as a set."""
        return set(closure(0, list(elements), self.mul))

    def verbal_power_subgroup(self, t: int):
        """Subgroup generated by all t-th powers (normal by construction)."""
        return self.subgroup_closure({self.power(a, t) for a in range(self.order)})

    def quotient(self, normal_set):
        """(quotient group, projection list).  normal_set must be normal."""
        reps, index = cosets(range(self.order), normal_set, self.mul)
        coset_of = [index[a] for a in range(self.order)]
        m = len(reps)
        table = [[coset_of[self.cayley[reps[i]][reps[j]]] for j in range(m)]
                 for i in range(m)]
        return FiniteGroup(table, check=False), coset_of

    def subgroup_as_group(self, subgroup_set):
        """(group on the subgroup, element list) for a subgroup set."""
        elems = sorted(subgroup_set)
        if elems[0] != 0:
            raise ValueError("subgroup must contain the identity 0")
        pos = {e: i for i, e in enumerate(elems)}
        table = [[pos[self.cayley[a][b]] for b in elems] for a in elems]
        return FiniteGroup(table, check=False), elems

    # -- homomorphisms -----------------------------------------------------------

    def hom_from_generators(self, gens, images, target: "FiniteGroup"):
        """Total map extending gens -> images, or None if not a homomorphism.

        Raises ValueError if gens do not generate the group.
        """
        phi = extend_hom(0, gens, images, self.mul, self.order, target)
        return None if phi is None else tuple(phi[a] for a in range(self.order))

    def automorphisms(self, cap: int = 10 ** 5):
        """All automorphisms as permutation tuples, deterministically ordered.

        Candidates send a minimal generating sequence to tuples of elements
        of equal order; each candidate is verified completely.
        """
        gens = self.generating_set()
        if not gens:
            return [tuple(range(self.order))]
        orders = [self.element_order(g) for g in gens]
        pools = [[a for a in range(self.order) if self.element_order(a) == o]
                 for o in orders]
        count = 1
        for p in pools:
            count *= len(p)
        if count > cap:
            raise CapExceeded(f"automorphism search space {count} exceeds {cap}")
        out = []
        for images in itertools.product(*pools):
            phi = self.hom_from_generators(gens, list(images), self)
            if phi is not None and len(set(phi)) == self.order:
                out.append(phi)
        return out


def closure(identity, gens, mul):
    """Breadth-first closure of ``gens`` under ``mul``, starting at ``identity``.

    Returns a dict in BFS order mapping each reached element y to
    (parent, generator index) with y == mul(parent, gens[index]); the
    identity maps to None.  In a finite group this is the subgroup the gens
    generate.
    """
    tree = {identity: None}
    queue = [identity]
    for x in queue:
        for i, g in enumerate(gens):
            y = mul(x, g)
            if y not in tree:
                tree[y] = (x, i)
                queue.append(y)
    return tree


def extend_hom(identity, gens, images, mul, order: int, target: FiniteGroup):
    """Extend gens -> images (target indices) to a homomorphism, or None.

    The candidate map is filled along the closure tree of the gens and then
    verified on all pairs and on the gens themselves, which is a complete
    check.  Raises ValueError if the gens do not generate all ``order``
    elements.
    """
    tree = closure(identity, gens, mul)
    if len(tree) != order:
        raise ValueError("the given elements do not generate the group")
    phi = {identity: 0}
    for y, edge in tree.items():
        if edge is not None:
            x, i = edge
            phi[y] = target.cayley[phi[x]][images[i]]
    if any(phi[g] != im for g, im in zip(gens, images)):
        return None
    for a, pa in phi.items():
        row = target.cayley[pa]
        for b, pb in phi.items():
            if row[pb] != phi[mul(a, b)]:
                return None
    return phi


def cosets(elements, normal, mul):
    """Coset table of a normal subgroup: (reps, coset_of).

    reps[i] is the first element met of the i-th coset aN, in the order of
    ``elements``, and coset_of maps every element of each such coset to i.
    """
    reps = []
    coset_of = {}
    for a in elements:
        if a not in coset_of:
            idx = len(reps)
            reps.append(a)
            for h in normal:
                coset_of[mul(a, h)] = idx
    return reps, coset_of


def check_onto(pi, mul, q: FiniteGroup, not_hom: str, not_onto: str):
    """Raise ValueError unless pi is a homomorphism onto q.

    pi lists the Q index of each element 0..len(pi)-1 of a group whose
    product of indices is ``mul``.  A value outside Q fails first, then a
    product (with message not_hom), then surjectivity (not_onto).
    """
    for i, v in enumerate(pi):
        if not 0 <= v < q.order:
            raise ValueError(f"value {v} at position {i} is not an element"
                             f" of Q (order {q.order})")
    n = len(pi)
    for a in range(n):
        row = q.cayley[pi[a]]
        for b in range(n):
            if pi[mul(a, b)] != row[pi[b]]:
                raise ValueError(not_hom)
    if len(set(pi)) != q.order:
        raise ValueError(not_onto)


def induced_map(pairs, size: int):
    """The map src -> dst read off (src, dst) pairs on 0..size-1.

    Returns (map tuple, None), or (None, src) at the first src given two
    different images.
    """
    out = [None] * size
    for src, dst in pairs:
        if out[src] not in (None, dst):
            return None, src
        out[src] = dst
    return tuple(out), None
