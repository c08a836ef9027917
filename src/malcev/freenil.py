"""Free nilpotent groups via Hall bases of the free nilpotent Lie algebra.

Structure constants come from expanding Hall trees in the degree-truncated
free associative algebra and solving the exact linear system per weight.
The Witt/Lyndon counting oracle is independent of the Hall construction and
is used by the tests to cross-check layer dimensions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .errors import CapExceeded
from .hull import GenGroup, HullResult, lattice_hull
from .lattices import (Coordinates, Lattice, hnf_lattice, integer_rows,
                       intersect_subspace)
from .liealg import GroupElement, NilpotentLieAlgebra, vec


def witt_dimension(n: int, w: int) -> int:
    """Dimension of the weight-w layer of the free Lie algebra on n letters."""
    total = 0
    for d in range(1, w + 1):
        if w % d:
            continue
        total += _mobius(d) * n ** (w // d)
    return total // w


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    if n > 1:
        out = -out
    return out


def hall_basis(n: int, c: int, cap: int = 200):
    """The Hall set up to weight c, deterministically ordered.

    Trees are ints (generator leaves) or pairs (a, b) of indices into the
    returned list; a tree [u, v] is admitted when u > v in list order and,
    if u is itself a bracket (u1, u2), u2 <= v.  The list for class c is a
    prefix of the list for class c + 1.
    """
    if n < 1 or c < 1:
        raise ValueError("need n >= 1 and c >= 1")
    trees = list(range(n))
    weight = [1] * n
    for w in range(2, c + 1):
        start = len(trees)
        for v in range(len(trees)):
            if weight[v] >= w:
                continue
            for u in range(len(trees)):
                if weight[u] + weight[v] != w or u <= v:
                    continue
                t = trees[u]
                if isinstance(t, tuple) and t[1] > v:
                    continue
                trees.append((u, v))
                weight.append(w)
        if len(trees) == start and witt_dimension(n, w) > 0:
            raise RuntimeError("Hall generation produced no trees of weight "
                               f"{w}")
        if len(trees) > cap:
            raise CapExceeded(f"Hall basis dimension exceeds cap {cap}")
    return trees, weight


def _commutator(a, b):
    """ab - ba of two associative-word expansions (dict word -> int)."""
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            for w, s in ((w1 + w2, 1), (w2 + w1, -1)):
                v = out.get(w, 0) + s * c1 * c2
                if v:
                    out[w] = v
                elif w in out:
                    del out[w]
    return out


def _expand(trees, idx, cache):
    """Associative-word expansion (dict word -> int) of a Hall tree."""
    if idx in cache:
        return cache[idx]
    t = trees[idx]
    if isinstance(t, int):
        out = {(t,): 1}
    else:
        out = _commutator(_expand(trees, t[0], cache),
                          _expand(trees, t[1], cache))
    cache[idx] = out
    return out


def free_algebra(n: int, c: int, cap: int = 200) -> NilpotentLieAlgebra:
    """Free nilpotent Lie algebra of class c on n generators, Hall basis."""
    trees, weight = hall_basis(n, c, cap)
    k = len(trees)
    cache: dict = {}
    expansions = [_expand(trees, i, cache) for i in range(k)]

    # per weight: express a Lie element (as word dict) in Hall coordinates,
    # with one set of coordinates in the weight's word matrix
    by_weight: dict = {}
    for i, w in enumerate(weight):
        by_weight.setdefault(w, []).append(i)
    solvers = {}
    for w, idxs in by_weight.items():
        words = sorted({wd for i in idxs for wd in expansions[i]})
        col = {wd: t for t, wd in enumerate(words)}
        rows = [[expansions[i].get(wd, 0) for wd in words] for i in idxs]
        solvers[w] = (idxs, col, Coordinates.of_rows(rows, len(words)))

    def to_hall(word_dict, w):
        idxs, col, coords = solvers[w]
        target = [0] * len(col)
        for wd, coeff in word_dict.items():
            target[col[wd]] = coeff
        coeffs = coords(target)
        if coeffs is None:
            raise RuntimeError("bracket expansion escaped the Hall span")
        out = [Fraction(0)] * k
        for i, x in zip(idxs, coeffs):
            out[i] = x
        return tuple(out)

    table = {}
    for i in range(k):
        for j in range(i + 1, k):
            w = weight[i] + weight[j]
            if w > c:
                continue
            prod = _commutator(expansions[i], expansions[j])
            if prod:
                table[(i, j)] = to_hall(prod, w)
    alg = NilpotentLieAlgebra(k, table, c)
    return alg


@dataclass
class FreeNilpotent:
    """The free nilpotent group Psi_{n,c} with its hull and Hall data."""

    n: int
    c: int
    algebra: NilpotentLieAlgebra
    trees: list
    weights: list
    hull: HullResult

    def generator_logs(self):
        return [tuple(Fraction(int(i == t)) for t in range(self.algebra.dim))
                for i in range(self.n)]

    def generators(self):
        return [GroupElement(self.algebra, g) for g in self.generator_logs()]

    def group(self) -> GenGroup:
        return GenGroup(self.algebra, tuple(self.generator_logs()))


def psi_group(n: int, c: int, cap: int = 200) -> FreeNilpotent:
    """Psi_{n,c} = <exp x_1, ..., exp x_n> with its lattice hull."""
    alg = free_algebra(n, c, cap)
    trees, weights = hall_basis(n, c, cap)
    gens = [tuple(Fraction(int(i == t)) for t in range(alg.dim)) for i in range(n)]
    hull = lattice_hull(GenGroup(alg, tuple(gens)))
    if hull.embedding is not None:
        raise RuntimeError("free generators must span the free algebra")
    return FreeNilpotent(n, c, alg, trees, weights, hull)


def center(psi: FreeNilpotent):
    """(center subspace, hull center lattice, group center lattice).

    The center of the algebra is computed as the exact kernel of ad on the
    generators; for a free nilpotent algebra it equals the top layer, which
    is asserted.  The group center lattice is the integer span of the
    weight-c Hall vectors: the top-weight basic commutators of the group
    generators realize it exactly (top-layer BCH commutators have no
    correction terms), and this is the classical description of
    Z(Psi_{n,c}) = gamma_c(Psi_{n,c}).
    """
    alg = psi.algebra
    k = alg.dim
    conditions = []
    for j in range(psi.n):
        cols = [alg.bracket_basis(i, j) for i in range(k)]
        conditions.extend([c[l] for c in cols] for l in range(k))
    z_rows = [tuple(Fraction(x) for x in r)
              for r in linalg.right_kernel(integer_rows(conditions)[1], k)]
    top = [i for i, w in enumerate(psi.weights) if w == psi.c]
    top_span = [tuple(Fraction(int(i == t)) for t in range(k)) for i in top]
    in_top = Coordinates.of_rows(top_span, k)
    if len(z_rows) != len(top) or any(in_top(z) is None for z in z_rows):
        raise RuntimeError("free nilpotent center must be the top layer")
    hull_center = intersect_subspace(psi.hull.lattice, z_rows)
    group_center = hnf_lattice(top_span, k)
    return tuple(z_rows), hull_center, group_center


# ---------------------------------------------------------------------------
# generator-image endomorphisms


def endo_matrix(psi: FreeNilpotent, image_logs):
    """Matrix of the algebra endomorphism sending x_i to the given logs.

    Free nilpotent: any generator assignment extends uniquely; deeper Hall
    basis vectors go to the corresponding brackets of the images.
    """
    alg = psi.algebra
    k = alg.dim
    images = [vec(v) for v in image_logs]
    if len(images) != psi.n:
        raise ValueError("need exactly one image per generator")
    cols = list(images)
    for idx in range(psi.n, k):
        a, b = psi.trees[idx]
        cols.append(alg.bracket(cols[a], cols[b]))
    return tuple(tuple(cols[j][i] for j in range(k)) for i in range(k))


def evaluate_word(psi: FreeNilpotent, word) -> GroupElement:
    """Product of generator powers; word is a list of (gen_index, exponent)."""
    out = GroupElement.identity(psi.algebra)
    gens = psi.generators()
    for idx, e in word:
        out = out * (gens[idx] ** e)
    return out


def word_endo_matrix(psi: FreeNilpotent, words):
    return endo_matrix(psi, [evaluate_word(psi, w).log for w in words])


def is_word_automorphism(psi: FreeNilpotent, words) -> bool:
    """Generator words define an automorphism iff the abelianized matrix is
    in GL_n(Z) (images generating mod the derived subgroup generate, and a
    f.g. nilpotent group is Hopfian)."""
    M = word_endo_matrix(psi, words)
    ab = [[M[i][j] for j in range(psi.n)] for i in range(psi.n)]
    if any(x.denominator != 1 for row in ab for x in row):
        return False
    return linalg.unimodular_inverse(ab) is not None


def aut_restriction(psi_low: FreeNilpotent, psi_high: FreeNilpotent, words):
    """Lift an automorphism of Psi_{n,c} to Psi_{n,c+1} by reusing its words.

    Returns the endomorphism matrix at the higher class; checked to be an
    automorphism whose restriction to the lower class equals the input.
    """
    if psi_low.n != psi_high.n or psi_low.c + 1 != psi_high.c:
        raise ValueError("aut_restriction lifts Psi_{n,c} to Psi_{n,c+1}")
    if not is_word_automorphism(psi_low, words):
        raise ValueError("input words are not an automorphism at the lower class")
    if not is_word_automorphism(psi_high, words):
        raise RuntimeError("lift failed to be an automorphism")
    M_high = word_endo_matrix(psi_high, words)
    M_low = word_endo_matrix(psi_low, words)
    k_low = psi_low.algebra.dim
    # Hall bases are prefix-compatible, so restriction is the leading block
    restriction = tuple(tuple(M_high[i][j] for j in range(k_low))
                        for i in range(k_low))
    if restriction != M_low:
        raise RuntimeError("restriction of the lift differs from the input")
    return M_high


# ---------------------------------------------------------------------------
# the central-tuple isomorphism


@dataclass
class CentralTupleIso:
    """Bidirectional map between central n-tuples and generator-shift maps.

    Forward reads off u_i = x_i^{-1} alpha(x_i), backward builds alpha from
    a tuple; each u_i must lie in the group center, and the center (which
    holds it) is solved only to name a failure.  Composition satisfies
    (beta o alpha)(x_i) = x_i v_i u_i.
    """

    psi: FreeNilpotent
    center_rows: tuple
    group_center: Lattice
    _center: Coordinates = field(init=False, repr=False, compare=False)
    _gens: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._center = Coordinates.of_rows(self.center_rows, self.psi.algebra.dim)
        self._gens = self.psi.generators()

    def backward(self, tuple_logs):
        """Images of the generators for the map x_i -> x_i * u_i."""
        if len(tuple_logs) != self.psi.n:
            raise ValueError("need one central element per generator")
        images = []
        for g, u in zip(self._gens, tuple_logs):
            u = vec(u)
            if not self.group_center.member(u):
                raise ValueError("tuple entry is not central"
                                 if self._center(u) is None else
                                 "tuple entry is not in the group center")
            images.append(g * GroupElement(self.psi.algebra, u))
        return [im.log for im in images]

    def forward(self, image_logs):
        """Recover the central tuple from the images of the generators."""
        out = []
        for g, im in zip(self._gens, image_logs):
            u = (g.inverse() * GroupElement(self.psi.algebra, vec(im))).log
            if not self.group_center.member(u):
                raise ValueError("map is not a central shift of the generators"
                                 if self._center(u) is None else
                                 "central part leaves the group center")
            out.append(u)
        return out

    def compose(self, images_beta, images_alpha):
        """Images of beta o alpha (apply alpha first)."""
        B = endo_matrix(self.psi, images_beta)
        return [linalg.mat_apply(B, im) for im in images_alpha]

    def box_roundtrip(self, bound: int):
        """forward(backward(t)) == t for every tuple in the box [-b, b]^(n r).

        Returns (tuples_checked, injective), r being the top-layer rank.  The
        image of generator i depends only on block i of the tuple, so the
        round trip and injectivity hold on the whole box exactly when they
        hold on every block: n (2b+1)^r blocks are evaluated, each as the
        algebra's compiled BCH with ``eval_int`` on (x_i, u) and then on
        (x_i^-1, image), and the count reported is the (2b+1)^(n r) tuples
        they cover.
        """
        psi = self.psi
        bch = psi.algebra.bch_compiled()
        k = psi.algebra.dim
        top = [i for i, w in enumerate(psi.weights) if w == psi.c]
        width = range(-bound, bound + 1)
        blocks = len(width) ** len(top)
        injective = True
        for i in range(psi.n):
            gen = tuple(int(i == t) for t in range(k))
            gen_inv = tuple(-x for x in gen)
            seen = set()
            for block in itertools.product(width, repeat=len(top)):
                u = [0] * k
                for z, x in zip(top, block):
                    u[z] = x
                image = bch.eval_int(gen + tuple(u))
                rec = bch.eval_int(gen_inv + image)
                if any(x for pos, x in enumerate(rec) if pos not in top):
                    raise RuntimeError("recovered shift is not central")
                if tuple(rec[z] for z in top) != block:
                    raise RuntimeError(
                        f"roundtrip failed for generator {i} at {block}")
                seen.add(image)
            injective = injective and len(seen) == blocks
        return blocks ** psi.n, injective


def central_tuple_iso(psi: FreeNilpotent) -> CentralTupleIso:
    z_rows, _, group_center = center(psi)
    return CentralTupleIso(psi, z_rows, group_center)


def psi_algebra_only(n: int, c: int, cap: int = 200) -> FreeNilpotent:
    """FreeNilpotent without the hull (enough for word/endomorphism work)."""
    alg = free_algebra(n, c, cap)
    trees, weights = hall_basis(n, c, cap)
    return FreeNilpotent(n, c, alg, trees, weights, None)
