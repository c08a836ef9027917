"""Finite groups as Cayley tables: validation, homs, automorphisms.

The module-level helpers take any hashable elements and a ``mul``, so the
finite quotients in ``autos`` and ``fiber`` use them too:
``closure`` and ``subgroup`` (the subgroup generated, as a BFS tree and as
a set), ``extend_hom`` (a generator assignment extended to a homomorphism),
``cosets`` (the coset table of a normal subgroup), ``check_onto`` (a map
onto a quotient Q is a homomorphism) and ``induced_map`` (the map a
permutation induces on Q).
Cayley-table elements are indices 0..N-1 with identity 0.  Validation runs
Light's associativity test at every order: a complete check that costs
|gens| N^2 products instead of N^3.
"""

from __future__ import annotations

import itertools
from operator import itemgetter

from .errors import CapExceeded


class FiniteGroup:
    """Immutable finite group given by its Cayley table, which the constructor
    checks with ``validate`` (ValueError if it is not a group)."""

    __slots__ = ("order", "cayley", "inverse")

    def __init__(self, cayley):
        self.order = len(cayley)
        self.cayley = tuple(tuple(row) for row in cayley)
        inv = []
        for row in self.cayley:
            try:
                inv.append(row.index(0))
            except ValueError:  # no inverse: validate() reports it
                inv.append(None)
        self.inverse = tuple(inv)
        problems = self.validate()
        if problems:
            raise ValueError(f"not a group: {problems[0]}")

    # -- construction --------------------------------------------------------

    @staticmethod
    def cyclic(n: int) -> "FiniteGroup":
        return FiniteGroup(tuple(tuple((a + b) % n for b in range(n))
                                 for a in range(n)))

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
        return FiniteGroup(table)

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

        Identity and inverse laws are checked in full.  Associativity is
        checked by Light's test, with no sampling: (a g) c == a (g c) for
        every a, c and every g of ``generating_set``.  The g passing the test
        include the identity and are closed under products.  Every element
        the greedy ``generating_set`` skips was reached by real table
        products of the ones it kept, so they generate the table as a magma
        and the test is complete whether or not the table is a group.
        """
        n = self.order
        if not n:
            return ["empty Cayley table: a group has an identity"]
        problems = []
        for a in range(n):
            if self.cayley[0][a] != a or self.cayley[a][0] != a:
                problems.append(f"identity law fails at {a}")
            if self.inverse[a] is None or \
                    self.cayley[self.inverse[a]][a] != 0:
                problems.append(f"no two-sided inverse for {a}")
        if problems:
            return problems
        table = self.cayley
        for g in self.generating_set():
            # a generator exists only when n >= 2, so this picks a tuple
            pick = itemgetter(*table[g])
            for a, row_a in enumerate(table):
                # (a g) c and a (g c) for every c at once
                lhs, rhs = table[row_a[g]], pick(row_a)
                if lhs != rhs:
                    c = next(c for c in range(n) if lhs[c] != rhs[c])
                    problems.append(f"associativity fails at ({a},{g},{c})")
                    return problems
        return problems

    def generating_set(self):
        """A small generating sequence found greedily: each element in turn
        that the ones kept so far do not generate."""
        return subgroup(0, range(self.order), self.mul)[1]

    def subgroup_closure(self, elements):
        """The subgroup generated by the given elements, as a set."""
        return subgroup(0, elements, self.mul)[0]

    def subgroup_as_group(self, subgroup_set):
        """(group on the subgroup, element list) for a subgroup set."""
        elems = sorted(subgroup_set)
        if elems[0] != 0:
            raise ValueError("subgroup must contain the identity 0")
        pos = {e: i for i, e in enumerate(elems)}
        table = [[pos[self.cayley[a][b]] for b in elems] for a in elems]
        return FiniteGroup(table), elems

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


def subgroup(identity, gens, mul):
    """(set, kept gens) of the subgroup of a finite group that ``gens``
    generate, by Dimino's rule: a gen already in the subgroup H so far is
    skipped, and a new one g is kept and adds whole right cosets H*r, for
    r = g and for each product r*g' (g' a kept gen) not yet reached."""
    sub, kept = {identity}, []
    for g in gens:
        if g not in sub:
            kept.append(g)
            block, reps = tuple(sub), [g]
            sub.update(mul(h, g) for h in block)
            for r in reps:
                for x in [mul(r, t) for t in kept]:
                    if x not in sub:
                        reps.append(x)
                        sub.update(mul(h, x) for h in block)
    return sub, kept


def extend_hom(identity, gens, images, mul, order: int, target: FiniteGroup):
    """Extend gens -> images (target indices) to a homomorphism, or None.

    The candidate map is filled along the closure tree of the gens and then
    verified on every edge, phi(a*g) == phi(a)*image(g) for each element a
    and gen g: |G| |gens| products.  That is complete: by induction on word
    length phi(a*w) == phi(a)*phi(w) for every word w in the gens, which
    generate the group, and a = identity gives phi(g) == image(g).  Raises
    ValueError if the gens do not generate all ``order`` elements.
    """
    tree = closure(identity, gens, mul)
    if len(tree) != order:
        raise ValueError("the given elements do not generate the group")
    phi = {identity: 0}
    for y, edge in tree.items():
        if edge is not None:
            x, i = edge
            phi[y] = target.cayley[phi[x]][images[i]]
    for a, pa in phi.items():
        row = target.cayley[pa]
        for g, im in zip(gens, images):
            if phi[mul(a, g)] != row[im]:
                return None
    return phi


def cosets(elements, normal, mul, identity):
    """Coset table of a normal subgroup: (reps, coset_of).

    reps[i] is the first element met of the i-th coset aN, in the order of
    ``elements``, and coset_of maps every element of each such coset to i.
    A new rep costs no product and is multiplied by N minus ``identity``
    only (ValueError if N lacks it): |G| - |G/N| products."""
    if identity not in normal:
        raise ValueError("the normal subgroup must contain the identity")
    others = [h for h in normal if h != identity]
    reps = []
    coset_of = {}
    for a in elements:
        if a not in coset_of:
            coset_of[a] = idx = len(reps)
            reps.append(a)
            for h in others:
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
