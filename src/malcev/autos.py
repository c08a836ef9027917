"""Automorphisms of L, normalizers of the hull lattice, and IA* machinery.

In adapted coordinates the hull lattice is Z^k and an IA* element is I + N
with N supported on strictly-deeper-layer positions, subject to the
automorphism equations.  Those equations are compiled once per hull into
integer polynomials graded by depth: each stratum is affine-linear in its
own unknowns over the earlier ones, which gives exact mod-m solving and
Hensel-style integral lifting.  When every stratum's linear part maps onto
its rows, the solutions form affine space over Z (``free_rank``), and the
mod-m points are counted instead of listed.

Mod-m solution sets are taken, by default, in the torsion-free (saturated)
integral model: each graded stratum's row space is saturated in Z^n before
reduction.  The raw equations can have Z-torsion (e.g. a row 2p - 6a = 0
whose mod-2^j solutions include points no characteristic-zero automorphism
reduces to); the saturated model is the one whose Z_p-points the congruence
arguments actually use.  ``saturate=False`` exposes the raw variety.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import cached_property
from math import gcd, prod

from . import linalg
from .compiled import _int_bracket, _int_structure
from .errors import CapExceeded, DimensionMismatch, IndexMismatch
from .finite import closure
from .hull import HullResult
from .liealg import NilpotentLieAlgebra, vec


class LieAutomorphism:
    """A k x k rational matrix satisfying the automorphism equations.  One
    built from adapted data (``make_ia_star``) keeps its hull and integer
    adapted matrix, and builds the working ``matrix`` on first use."""

    def __init__(self, algebra, matrix=None, hull=None, adapted=None):
        self.algebra, self.hull, self.adapted = algebra, hull, adapted
        if matrix is not None:
            self.matrix = matrix

    @cached_property
    def matrix(self):
        return matrix_from_adapted(self.hull, self.adapted)

    @property
    def adapted_entries(self):
        if self.adapted is not None:
            return tuple(self.adapted[r][c]
                         for r, c in ia_star_positions(self.hull))

    def apply(self, v):
        return linalg.mat_apply(self.matrix, vec(v))

    def compose(self, other: "LieAutomorphism") -> "LieAutomorphism":
        if self.adapted and other.adapted and self.hull is other.hull:
            return LieAutomorphism(self.algebra, hull=self.hull, adapted=(
                linalg.mat_mul(self.adapted, other.adapted)))
        return LieAutomorphism(self.algebra,
                               linalg.mat_mul(self.matrix, other.matrix))


def adapted_matrix(hull: HullResult, aut) -> tuple:
    """The integer matrix of the map w.r.t. the adapted basis, a Z-basis of
    the hull lattice.

    This is the one place that decides whether a map is an automorphism of
    the hull: raises ValueError unless it sends the hull lattice onto itself
    and is a Lie automorphism (DimensionMismatch unless it is k x k).  The
    bracket equations are read on the adapted algebra, which the change of
    basis makes isomorphic to the working one.  An aut that keeps its
    adapted matrix on this hull skips the conversion; otherwise only nonzero
    data is read: M b runs over the nonzero entries of each basis vector b,
    and A [e_i, e_j] sums the columns of A picked by the nonzero structure
    constants of [e_i, e_j].
    """
    own = getattr(aut, "hull", None) is hull
    M = aut.adapted if own else getattr(aut, "matrix", aut)
    k = hull.algebra.dim
    if len(M) != k or any(len(row) != k for row in M):
        raise DimensionMismatch(f"map must be a {k} x {k} matrix")
    cols = list(zip(*M)) if own else [hull.to_adapted_int(
        tuple(sum(row[j] * x for j, x in b) for row in M))
        for b in _nonzero_rows(hull.basis)]
    if None in cols:
        raise ValueError("map does not send the hull lattice into itself")
    A = tuple(zip(*cols))
    if linalg.unimodular_inverse(A) is None:
        raise ValueError("map does not send the hull lattice onto itself")
    alg = hull.adapted_algebra
    sparse_cols = _nonzero_rows(cols)
    for i, j in itertools.combinations(range(k), 2):
        rhs = [0] * k
        for l, c in _nonzero(alg.brackets.get((i, j), ())):
            for r, a in sparse_cols[l]:
                rhs[r] += c * a
        if alg.bracket(cols[i], cols[j]) != tuple(rhs):
            raise ValueError("map is not a Lie automorphism"
                             f" (basis pair {(i, j)})")
    return A


def _nonzero(v):
    """The (index, entry) pairs of the nonzero entries of v."""
    return [(j, x) for j, x in enumerate(v) if x]


def _nonzero_rows(rows):
    return [_nonzero(row) for row in rows]


def matrix_from_adapted(hull: HullResult, adapted) -> tuple:
    """Convert an adapted-coordinates matrix A back to working coordinates:
    B^T A (B^T)^-1, with B the adapted basis as rows."""
    inv = tuple(zip(*map(hull.to_adapted,
                         linalg.mat_identity(hull.algebra.dim))))
    return linalg.mat_mul(linalg.mat_mul(tuple(zip(*hull.basis)), adapted), inv)


def aut_star_image(aut: LieAutomorphism, hull: HullResult):
    """The induced d x d integer matrix on the abelianized lattice.

    The adapted matrix is unimodular and block-triangular by layers, so
    this first diagonal block is unimodular too.
    """
    d = hull.d
    return tuple(row[:d] for row in adapted_matrix(hull, aut)[:d])


def _ia_star_matrix(aut, hull: HullResult):
    """The adapted matrix of aut when it is an IA* element of the hull,
    else None: an automorphism of the hull (``adapted_matrix``) that is the
    identity on L/L', the first d x d adapted block.

    Such an automorphism is trivial on every lcs layer, so its adapted
    matrix is unitriangular w.r.t. the adapted ordering (checked too, as a
    consistency check).
    """
    try:
        A = adapted_matrix(hull, aut)
    except ValueError:
        return None
    d = hull.d
    if any(A[i][j] != int(i == j) for i in range(d) for j in range(d)):
        return None
    k = len(A)
    layers = hull.layers
    if not all(A[i][j] == int(i == j)
               for j in range(k) for i in range(k)
               if layers[i] <= layers[j]):
        raise RuntimeError("IA* element not layer-unitriangular")
    return A


def is_ia_star(aut: LieAutomorphism, hull: HullResult) -> bool:
    """Is aut an automorphism of the hull that is the identity on L/L'?"""
    return _ia_star_matrix(aut, hull) is not None


def ia_star_positions(hull: HullResult):
    """Free matrix positions of IA*: (row, col) with layer(row) > layer(col),
    ordered by (depth, col, row)."""
    k = hull.algebra.dim
    layers = hull.layers
    pos = [(r, c) for c in range(k) for r in range(k) if layers[r] > layers[c]]
    pos.sort(key=lambda rc: (layers[rc[0]] - layers[rc[1]], rc[1], rc[0]))
    return pos


def make_ia_star(hull: HullResult, entries: dict) -> LieAutomorphism:
    """Build the IA* candidate with the given adapted entries (others zero)."""
    k = hull.algebra.dim
    A = [[int(i == j) for j in range(k)] for i in range(k)]
    for (r, c), value in entries.items():
        if hull.layers[r] <= hull.layers[c]:
            raise ValueError(f"position ({r},{c}) is not strictly deeper")
        if Fraction(value).denominator != 1:
            raise ValueError("IA* entries must be integers")
        A[r][c] = int(value)
    return LieAutomorphism(hull.algebra, hull=hull,
                           adapted=tuple(map(tuple, A)))


# ---------------------------------------------------------------------------
# compiled IA* equations


class _Stratum:
    __slots__ = ("depth", "vars", "rows", "snf")

    def __init__(self, depth, var_ids):
        self.depth = depth
        self.vars = var_ids          # global variable ids of this depth
        self.rows = []               # (lin_coeffs tuple, rem_terms tuple)
        self.snf = None              # (diag, U, V) of the lin matrix


class IAStarEquations:
    """The automorphism equations on the IA* positions, graded by depth.

    Variables are the free positions; each stratum gathers equations whose
    depth-w unknowns enter linearly and whose remainder is an integer
    polynomial in earlier variables (monomials as variable-id tuples).
    """

    def __init__(self, hull: HullResult, saturate: bool = True):
        self.hull = hull
        adapted = hull.adapted_algebra
        k = adapted.dim
        layers = hull.layers
        self.positions = ia_star_positions(hull)
        self.var_of = {p: i for i, p in enumerate(self.positions)}
        self.depth_of_var = [layers[r] - layers[c] for (r, c) in self.positions]
        self.nvars = len(self.positions)
        depths = sorted(set(self.depth_of_var))
        self.strata = [
            _Stratum(w, [i for i in range(self.nvars) if self.depth_of_var[i] == w])
            for w in depths]
        stratum_of_depth = {s.depth: s for s in self.strata}

        # symbolic columns of A = I + N, and each equation cleared by D:
        # D [A e_i, A e_j] - sum_c D c_ij^c A e_c, divided by its gcd with D
        cols = [[{(): 1} if r == c else
                 {(self.var_of[(r, c)],): 1} if (r, c) in self.var_of else {}
                 for r in range(k)] for c in range(k)]
        D, brackets = _int_structure(adapted)
        structure = {(i, j): w for i, j, w in brackets}
        for i, j in itertools.combinations(range(k), 2):
            lhs = _int_bracket(brackets, cols[i], cols[j])
            for r in range(k):
                p = dict(lhs[r])
                for c, b in structure.get((i, j), ()):
                    for mono, v in cols[c][r].items():
                        p[mono] = p.get(mono, 0) - b * v
                p = {mono: v for mono, v in p.items() if v}
                if not p:
                    continue
                depth = layers[r] - layers[i] - layers[j]
                if depth < 1:
                    raise RuntimeError(
                        "non-vacuous equation above the grading")
                g = gcd(D, *p.values())
                lin = [0] * len(stratum_of_depth[depth].vars)
                rem = {}
                local = {v: t for t, v in enumerate(stratum_of_depth[depth].vars)}
                for mono, coeff in p.items():
                    coeff //= g
                    mono_depth = sum(self.depth_of_var[v] for v in mono)
                    if mono_depth > depth:
                        raise RuntimeError("grading violation")
                    if mono_depth == depth and len(mono) == 1 and \
                            self.depth_of_var[mono[0]] == depth:
                        lin[local[mono[0]]] += coeff
                    else:
                        if any(self.depth_of_var[v] >= depth for v in mono):
                            raise RuntimeError("grading violation")
                        rem[mono] = rem.get(mono, 0) + coeff
                stratum_of_depth[depth].rows.append(
                    (tuple(lin), tuple(sorted(rem.items()))))

        for s in self.strata:
            if saturate and s.rows:
                s.rows = self._saturate_stratum(s)
            C = [list(lin) for lin, _ in s.rows]
            s.snf = linalg.snf_with_transforms(C, len(s.vars))
        # f when every stratum's linear part maps onto Z^rows (an all-ones
        # Smith diagonal as long as the rows): the system is then affine
        # f-space over Z, so every mod-m point lifts and there are m^f.
        onto = all(len(s.snf[0]) == len(s.rows) and
                   all(d == 1 for d in s.snf[0]) for s in self.strata)
        self.free_rank = sum(len(s.vars) - len(s.rows) for s in self.strata) \
            if onto else None

    def _saturate_stratum(self, s):
        monos = sorted({m for _, rem in s.rows for m, _ in rem})
        mono_col = {m: i for i, m in enumerate(monos)}
        width = len(s.vars) + len(monos)
        mat = []
        for lin, rem in s.rows:
            row = list(lin) + [0] * len(monos)
            for m, c in rem:
                row[len(s.vars) + mono_col[m]] = c
            mat.append(row)
        sat = linalg.saturate_rows(mat, width)
        out = []
        for row in sat:
            lin = tuple(row[:len(s.vars)])
            rem = tuple((m, row[len(s.vars) + i]) for i, m in enumerate(monos)
                        if row[len(s.vars) + i])
            out.append((lin, rem))
        return out

    # -- evaluation helpers -------------------------------------------------

    def _rem_value(self, rem, values):
        total = 0
        for mono, coeff in rem:
            v = coeff
            for var in mono:
                v *= values[var]
            total += v
        return total

    def check_assignment(self, values) -> bool:
        """Exact check of every (saturated) equation on integer values."""
        for s in self.strata:
            for lin, rem in s.rows:
                t = self._rem_value(rem, values)
                t += sum(c * values[v] for c, v in zip(lin, s.vars))
                if t:
                    return False
        return True

    # -- mod-m solving --------------------------------------------------------

    def _search(self, stratum_values):
        """Depth-first search over the strata: ``stratum_values(s, values)``
        yields stratum s's value tuples over the earlier strata's values."""
        values = [0] * self.nvars

        def rec(idx):
            if idx == len(self.strata):
                yield tuple(values)
                return
            s = self.strata[idx]
            for combo in stratum_values(s, values):
                for v, val in zip(s.vars, combo):
                    values[v] = val
                yield from rec(idx + 1)

        return rec(0)

    def solutions_mod(self, m: int, cap: int | None = None):
        """All solutions mod m, as tuples over the variables (values in [0, m));
        CapExceeded past ``cap`` points.  Each stratum is solved through the
        Smith form D = U C V of its linear part; one with no rows has
        ([], [], I), so all its values are free."""
        if m < 1:
            raise ValueError("modulus must be >= 1")

        def stratum_values(s, values):
            b = [-self._rem_value(rem, values) for _, rem in s.rows]
            diag, U, V = s.snf
            c = [sum(x * y for x, y in zip(row, b)) for row in U]
            if any(x % m for x in c[len(diag):]):
                return
            options = []
            for d, x in zip(diag, c):
                g = gcd(d, m)
                if x % g:
                    return
                mg = m // g
                options.append(range(x // g * pow(d // g, -1, mg) % mg, m, mg))
            options += [range(m)] * (len(s.vars) - len(diag))
            for y in itertools.product(*options):
                yield [sum(a * b for a, b in zip(row, y)) % m for row in V]

        out = []
        for point in self._search(stratum_values):
            out.append(point)
            if cap is not None and len(out) > cap:
                raise CapExceeded(f"more than {cap} mod-{m} points")
        return out

    def count_mod(self, m: int, cap: int | None = None) -> int:
        """The number of solutions mod m: m^free_rank when certified, else
        counted by enumeration.  Raises CapExceeded past ``cap`` either way."""
        if self.free_rank is None:
            return len(self.solutions_mod(m, cap))
        if m < 1:
            raise ValueError("modulus must be >= 1")
        count = m ** self.free_rank
        if cap is not None and count > cap:
            raise CapExceeded(f"more than {cap} mod-{m} points")
        return count

    def _back_solve(self, s: _Stratum, b, free):
        """An integer y with (stratum linear part) y = b, or None.

        With the Smith form D = U C V: c = U b must vanish past the rank and
        be divisible by the diagonal, and y = V w, where w is c / D followed
        by the free coordinates, drawn from the iterator ``free`` only once
        the system is known to be solvable.
        """
        diag, U, V = s.snf
        rank = len(diag)
        c = [sum(x * y for x, y in zip(row, b)) for row in U]
        if any(c[rank:]) or any(x % d for x, d in zip(c, diag)):
            return None
        u = len(s.vars)
        w = [x // d for x, d in zip(c, diag)] + \
            [next(free) for _ in range(u - rank)]
        return [sum(V[t][j] * w[j] for j in range(u)) for t in range(u)]

    def lift(self, assignment, m: int):
        """An exact integer solution congruent to the mod-m point, or None.

        Straight-line Hensel: each stratum is solved exactly over Z with the
        congruence constraint; free coordinates of the correction are zero.
        """
        exact = [None] * self.nvars
        for s in self.strata:
            xbar = [assignment[v] % m for v in s.vars]
            resid = []
            for lin, rem in s.rows:
                t = self._rem_value(rem, exact) + \
                    sum(c * x for c, x in zip(lin, xbar))
                if t % m:
                    return None
                resid.append(-(t // m))
            z = self._back_solve(s, resid, itertools.repeat(0))
            if z is None:
                return None
            for v, x, dz in zip(s.vars, xbar, z):
                exact[v] = x + m * dz
        return tuple(exact)

    def enumerate_integral(self, bound: int, cap: int = 10 ** 6):
        """All exact integer solutions with every variable in [-bound, bound];
        CapExceeded once the stratum boxes visited exceed ``cap`` points."""
        box = range(-bound, bound + 1)
        visited = 0

        def stratum_values(s, values):
            nonlocal visited
            visited += len(box) ** len(s.vars)
            if visited > cap:
                raise CapExceeded("integral enumeration box exceeds cap")
            rems = [(lin, self._rem_value(rem, values)) for lin, rem in s.rows]
            for combo in itertools.product(box, repeat=len(s.vars)):
                if not any(t + sum(c * x for c, x in zip(lin, combo))
                           for lin, t in rems):
                    yield combo

        return list(self._search(stratum_values))

    def random_point(self, rng: random.Random, spread: int = 3,
                     multiple: int = 1):
        """A random exact integer solution (free coordinates randomized)."""
        draws = (multiple * rng.randint(-spread, spread)
                 for _ in itertools.count())
        exact = [None] * self.nvars
        for s in self.strata:
            b = [-self._rem_value(rem, exact) for _, rem in s.rows]
            y = self._back_solve(s, b, draws)
            if y is None:
                return None
            for v, val in zip(s.vars, y):
                exact[v] = val
        return tuple(exact)

    # -- matrices ------------------------------------------------------------

    def adapted_matrix(self, values, mod: int | None = None):
        k = self.hull.algebra.dim
        A = [[int(i == j) for j in range(k)] for i in range(k)]
        for (r, c), v in zip(self.positions, values):
            A[r][c] = v
        if mod:
            A = [[x % mod for x in row] for row in A]
        return tuple(tuple(row) for row in A)


def enumerate_ia_star(hull: HullResult, bound: int, cap: int = 10 ** 6,
                      eq: IAStarEquations | None = None):
    """All IA* elements with adapted entries in [-bound, bound], validated.

    The list is deterministically ordered by the entry tuple and every
    element is double-checked with is_ia_star.
    """
    if hull.algebra.dim > 6:
        raise CapExceeded("IA* enumeration is capped at dimension 6")
    if bound < 0:
        raise ValueError("entry bound must be >= 0")
    eq = eq or IAStarEquations(hull)
    sols = sorted(eq.enumerate_integral(bound, cap))
    out = []
    for values in sols:
        aut = make_ia_star(hull, dict(zip(eq.positions, values)))
        if not is_ia_star(aut, hull):
            raise RuntimeError("equation solution failed is_ia_star validation")
        out.append(aut)
    return out


def strong_approx_check(hull: HullResult, m: int,
                        eq: IAStarEquations | None = None,
                        point_cap: int = 500_000, witness_cap: int = 5):
    """Is reduction IA*(Z) -> mod-m points surjective?

    When ``eq.free_rank`` is f, every stratum's linear part maps onto its
    rows, so each mod-m point lifts stratum by stratum and there are m^f of
    them: the result is certified without listing the points.  One seeded
    point is still lifted as a check on that invariant.  Otherwise every
    mod-m point is given an explicit integral lift, and failures (points
    with no straight-line lift) are reported as witnesses that make the
    result inconclusive rather than a refutation.  Either way more than
    ``point_cap`` points raise CapExceeded.
    """
    eq = eq or IAStarEquations(hull)
    if eq.free_rank is not None:
        count = eq.count_mod(m, point_cap)
        point = eq.random_point(random.Random(m), spread=m)
        a = tuple(x % m for x in point)
        _check_lift(eq, a, eq.lift(a, m), m)
        return {"m": m, "solution_count": count, "lifted": count,
                "surjective": True, "failure_witnesses": []}
    sols = eq.solutions_mod(m, cap=point_cap)
    failures = []
    lifted = 0
    for a in sols:
        exact = eq.lift(a, m)
        if exact is None:
            failures.append(a)
            if len(failures) >= witness_cap:
                break
            continue
        _check_lift(eq, a, exact, m)
        lifted += 1
    return {
        "m": m,
        "solution_count": len(sols),
        "lifted": lifted,
        "surjective": not failures,
        "failure_witnesses": failures,
    }


def _check_lift(eq, a, exact, m):
    """RuntimeError unless ``exact`` solves the equations and reduces to the
    mod-m point ``a``."""
    if exact is None or any((e - v) % m for e, v in zip(exact, a)) or \
            not eq.check_assignment(exact):
        raise RuntimeError("lift does not reduce to its point")


def mod_m_group(hull: HullResult, m: int, eq: IAStarEquations | None = None,
                point_cap: int = 200_000):
    """The finite group of mod-m points, as a set of adapted matrices."""
    eq = eq or IAStarEquations(hull)
    sols = eq.solutions_mod(m, cap=point_cap)
    return {eq.adapted_matrix(v, mod=m) for v in sols}


def subgroup_closure_mod(hull: HullResult, mats, m: int):
    """Closure of the reduced integer adapted matrices inside the mod-m
    matrix group, as a set of tuples of row tuples.

    The product with a generator g is x + x E, where E = (g - I) mod m is
    kept as its nonzero entries: it touches k * nnz(E) entries of x instead
    of the k^3 of a dense product.  No generator is assumed unitriangular;
    E holds whatever g - I has, diagonal included.  During the search an
    element is a flat row-major tuple reduced mod m.  The group is finite,
    so products of the generators already contain their inverses.
    """
    k = hull.algebra.dim
    rows = range(0, k * k, k)
    steps = []
    for A in mats:
        E = [(r, c, v) for r in range(k) for c in range(k)
             if (v := (A[r][c] - (r == c)) % m)]
        steps.append(([(i + c, i + r, v) for r, c, v in E for i in rows],
                      {i + c for _, c, _ in E for i in rows}))

    def mul(x, step):
        terms, touched = step
        y = list(x)
        for dst, src, v in terms:
            y[dst] += x[src] * v
        for dst in touched:
            y[dst] %= m
        return tuple(y)

    ident = tuple(int(i == j) % m for i in range(k) for j in range(k))
    return {tuple(x[i:i + k] for i in rows) for x in closure(ident, steps, mul)}


def _abelian_index(eq: IAStarEquations, mats) -> int:
    """[IA* : <gens>] from their adapted matrices, when IA* is Z^positions."""
    if not _visibly_free_abelian(eq):
        raise ValueError("IA* is not visibly free abelian; supply the index")
    H = linalg.hnf([[A[r][c] for (r, c) in eq.positions] for A in mats])
    if len(H) < eq.nvars:
        raise ValueError("generators do not span a finite-index subgroup")
    return prod(row[i] for i, row in enumerate(H))


def _visibly_free_abelian(eq: IAStarEquations) -> bool:
    """No equations and at most one depth: IA* is Z^positions, and products
    add adapted entries."""
    return not any(s.rows for s in eq.strata) and len(eq.strata) <= 1


def csp_witness(hull: HullResult, gens, index: int | None = None,
                level_cap: int = 16, eq: IAStarEquations | None = None,
                point_cap: int = 200_000, seed: int = 0):
    """Smallest m <= cap certifying that <gens> contains the level-m kernel.

    The certificate is index equality: if the image of the subgroup in the
    mod-m point group has index equal to [IA* : <gens>], then the reduction
    kernel is contained in the subgroup.  Returns a report dict; if no level
    works within the cap the result is inconclusive (never a refutation).

    When IA* is visibly free abelian the index is computed, and a supplied
    one that differs raises IndexMismatch.  When the system is not certified
    (``eq.free_rank`` is None) a level counts only if every mod-m point
    lifts to an integral solution.  A level with more than ``point_cap``
    points ends the search as inconclusive, with that level as
    ``capped_at``.

    At the certified level, 100 seeded integral IA* points are drawn
    with multiple-of-m free coordinates; ``kernel_samples`` counts those
    that exist and reduce to the identity mod m (every value 0 mod m).  Each
    is tested for membership in the image, but that test cannot fail: such a
    sample reduces to the identity, which every closure holds.  A sample
    that checks the subgroup is ROADMAP item 2 (sifting).
    """
    eq = eq or IAStarEquations(hull)
    mats = [_ia_star_matrix(g, hull) for g in gens]
    if None in mats:
        raise ValueError("subgroup generators must pass is_ia_star")
    if index is None or _visibly_free_abelian(eq):
        computed = _abelian_index(eq, mats)
        if index not in (None, computed):
            raise IndexMismatch(f"supplied index {index} is not"
                                f" [IA* : <gens>] = {computed}")
        index = computed
    rng = random.Random(seed)
    inconclusive = {"m": None, "index": index, "status": "inconclusive",
                    "level_cap": level_cap}
    for m in range(1, level_cap + 1):
        try:
            if eq.free_rank is None:
                points = eq.solutions_mod(m, point_cap)
                universe = len(points)
            else:
                points, universe = (), eq.count_mod(m, point_cap)
        except CapExceeded:
            return {**inconclusive, "capped_at": m}
        image = subgroup_closure_mod(hull, mats, m)
        if universe % len(image):
            continue
        if universe // len(image) != index:
            continue
        if any(eq.lift(a, m) is None for a in points):
            continue
        kernel_checked = 0
        ident = eq.adapted_matrix((0,) * eq.nvars, mod=m)
        for _ in range(100):
            point = eq.random_point(rng, spread=3, multiple=m)
            # the IA* positions are distinct and off the diagonal, so the
            # point reduces to the identity exactly when it is 0 mod m
            if point is None or any(v % m for v in point):
                continue
            if ident not in image:
                raise RuntimeError("kernel element escapes the image")
            kernel_checked += 1
        return {"m": m, "index": index, "universe": universe,
                "image": len(image), "kernel_samples": kernel_checked,
                "status": "certified"}
    return inconclusive
