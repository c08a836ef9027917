"""Exact output checks, run after the timed phase.

Every check returns a list of problems; an empty list means the output is
correct.  A job that raised fails all of its operations; otherwise each
problem fails one operation, up to the job's count.  The oracles are independent of the code under test
where one exists: the binomial-basis integrality test and matrix products
for the hull, expected counts fixed in advance for the congruence levels,
and exact unitriangular matrix exponentials for the group law.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from malcev import compiled, lattices, unitriangular as ut
from malcev.catalog import EXPECTED_T
from malcev.liealg import GroupElement


@lru_cache(maxsize=None)
def _stirling2(n, k):
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def integer_valued(poly) -> bool:
    """Does the rational polynomial map Z^n into Z?

    A polynomial is integer-valued exactly when its coefficients in the basis
    of products of binomials C(x_v, j_v) are integers.  Each power is
    rewritten with x^e = sum_j S(e, j) j! C(x, j), S the Stirling numbers of
    the second kind.  ``poly`` maps monomials (sorted variable-index tuples)
    to coefficients.
    """
    binomial = {}
    for mono, coeff in poly.items():
        exps = {}
        for v in mono:
            exps[v] = exps.get(v, 0) + 1
        terms = [((), Fraction(coeff))]
        for v, e in sorted(exps.items()):
            expanded = []
            fact = 1
            for j in range(1, e + 1):
                fact *= j
                s = _stirling2(e, j) * fact
                expanded.extend((key + ((v, j),), c * s) for key, c in terms)
            terms = expanded
        for key, c in terms:
            binomial[key] = binomial.get(key, 0) + c
    return all(Fraction(c).denominator == 1 for c in binomial.values())


# -- hull-ladder ---------------------------------------------------------------


def word_log(rung, word):
    """log of the product of generator powers in ``word``, by an oracle.

    UT(n) rungs multiply exact unitriangular matrices; free rungs use the
    group law on exponential coordinates.
    """
    if rung.ut_n is None:
        g = GroupElement.identity(rung.algebra)
        for i, e in word:
            g = g * GroupElement(rung.algebra, rung.gens[i]) ** e
        return g.log
    n = rung.ut_n
    M = ut.identity(n)
    for i, e in word:
        X = ut.matrix_from_coords(n, tuple(e * x for x in rung.gens[i]))
        M = ut.mat_mul(M, ut.matrix_exp(X))
    return ut.coords_from_matrix(n, ut.matrix_log(M))


def hull_problems(rung, h):
    """The hull must be a lattice containing every word in the generators
    whose exponential is closed under products, with the expected layers."""
    if h.embedding is not None:
        return ["hull was restricted to a proper Lie span"]
    k = rung.algebra.dim
    lat = h.lattice
    problems = []
    if lattices.hnf_lattice(h.basis, k) != lat:
        problems.append("adapted basis does not span the lattice")
    if h.layer_sizes != rung.layer_sizes:
        problems.append(f"layer sizes {h.layer_sizes} != {rung.layer_sizes}")
    if not all(lat.member(g) for g in rung.gens):
        problems.append("a generator log is outside the lattice")
    adapted, _, _ = h.algebra.change_basis(h.basis)
    bad = [i for i, p in enumerate(compiled.bch_symbolic(adapted))
           if not integer_valued(p)]
    if bad:
        problems.append(f"BCH in adapted coordinates is not integer-valued"
                        f" in coordinates {bad}")
    outside = sum(not lat.member(word_log(rung, w)) for w in rung.words)
    if outside:
        problems.append(f"{outside} of {len(rung.words)} sampled word logs"
                        f" are outside the lattice")
    return problems


# -- congruence ----------------------------------------------------------------


def strong_approx_problems(eq, free_positions, m, r, rng, samples=16,
                           lift=None):
    """Counts must be exact and every point must lift.

    Besides the reported counts, ``samples`` seeded mod-m points are lifted
    again and each lift is checked to solve the equations exactly and to
    reduce to its point.  ``lift`` defaults to ``eq.lift``.
    """
    lift = lift or eq.lift
    problems = []
    if r["m"] != m:
        problems.append(f"level {r['m']} != {m}")
    if r["solution_count"] != m ** free_positions:
        problems.append(f"{r['solution_count']} points != {m}^{free_positions}")
    if not r["surjective"] or r["failure_witnesses"] or \
            r["lifted"] != r["solution_count"]:
        problems.append(f"{r['lifted']} of {r['solution_count']} points lifted")
    for _ in range(samples):
        point = eq.random_point(rng, spread=m)
        if point is None:
            continue
        a = tuple(x % m for x in point)
        exact = lift(a, m)
        if exact is None or any((e - v) % m for e, v in zip(exact, a)) or \
                not eq.check_assignment(exact):
            problems.append(f"bad lift of the mod-{m} point {a}: {exact}")
    return problems


def csp_problems(index, level_cap, r):
    if r["status"] != "certified":
        return [f"status {r['status']}"]
    problems = []
    if r["index"] != index:
        problems.append(f"index {r['index']} != {index}")
    if r["universe"] % r["image"] or r["universe"] // r["image"] != index:
        problems.append(f"|U|/|image| = {r['universe']}/{r['image']}"
                        f" != {index}")
    if not 1 <= r["m"] <= level_cap:
        problems.append(f"level {r['m']} outside 1..{level_cap}")
    return problems


# -- fiber-levels --------------------------------------------------------------


def find_t_problems(name, t):
    return [] if t == EXPECTED_T[name] else [f"t={t} != {EXPECTED_T[name]}"]


def reconstruction_problems(m, r):
    return [key for key in ("injective", "surjective", "compatible")
            if not r[key]] + ([] if r["m"] == m else [f"level {r['m']}"])


def lifting_problems(u, result):
    """Each lift is multiplicative on generator pairs and fixes torsion."""
    lifts, _rejected = result
    if not lifts:
        return ["no automorphism lifted"]
    gens = u.generators()
    kernel = set(u.kernel_pi2())
    problems = []
    for n, sig in enumerate(lifts):
        if any(sig.apply(u.mul(a, b)) != u.mul(sig.apply(a), sig.apply(b))
               for a in gens for b in gens):
            problems.append(f"lift {n} is not multiplicative")
        if {sig.apply(t).y for t in u.torsion_elements()} != kernel:
            problems.append(f"lift {n} moves the torsion subgroup")
    return problems


def kernel_problems(order, result):
    _elements, report = result
    problems = [] if report["closed"] else ["kernel not closed"]
    if report["order"] != order:
        problems.append(f"kernel order {report['order']} != {order}")
    return problems


def abelianization_problems(result):
    _d, r = result
    return [key for key in ("rank_matches", "maps_identity") if not r[key]]


# -- element-arith -------------------------------------------------------------


def _strict_mul(A, B):
    """Product of strictly upper triangular matrices, skipping the zeros."""
    n = len(A)
    return [[sum((A[i][k] * B[k][j] for k in range(i + 1, j)), Fraction(0))
             for j in range(n)] for i in range(n)]


def _exp_minus_one(n, coords):
    """exp(X) - I for X in Tr_0(n) given by its coordinates: sum X^p / p!."""
    X = [list(row) for row in ut.matrix_from_coords(n, coords)]
    out = [row[:] for row in X]
    power, fact = X, 1
    for p in range(2, n):
        power = _strict_mul(power, X)
        fact *= p
        out = [[a + b / fact for a, b in zip(r, s)] for r, s in zip(out, power)]
    return out


def product_holds(n, x, y, z):
    """exp(X) exp(Y) == exp(Z), with exp(X) = I + A: A + B + AB == C.

    exp is injective on Tr_0(n), so this holds exactly when z is the
    group product of x and y.
    """
    A, B, C = (_exp_minus_one(n, v) for v in (x, y, z))
    AB = _strict_mul(A, B)
    return all(A[i][j] + B[i][j] + AB[i][j] == C[i][j]
               for i in range(n) for j in range(i + 1, n))


def _mismatches(what, expected, got, same):
    """One problem per item that is missing from ``got`` or fails ``same``."""
    return [f"{what} {i} is wrong" for i, e in enumerate(expected)
            if i >= len(got) or not same(e, got[i])]


def product_problems(n, pairs, logs):
    return _mismatches("product", pairs, logs,
                       lambda p, z: product_holds(n, p[0].log, p[1].log, z))


def roundtrip_problems(cases, results):
    return _mismatches("exp/log round trip", cases, results,
                       lambda case, got: tuple(case) == tuple(got))


def box_problems(expected_count, result):
    count, injective = result
    problems = [] if injective else ["box round trip is not injective"]
    if count != expected_count:
        problems.append(f"{count} tuples != {expected_count}")
    return problems


def tuple_sample_problems(tuples, recovered):
    return _mismatches("central tuple", tuples, recovered,
                       lambda t, r: [tuple(v) for v in t] == [tuple(v) for v in r])
