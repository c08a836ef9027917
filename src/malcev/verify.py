"""Verification suites: the end-to-end checks the package certifies.

Each suite re-derives every expected catalog value with an independent
oracle and returns a machine-readable report.  Sampling is always seeded;
bounded searches that hit a cap report "inconclusive", never "refuted".
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg, unitriangular as ut
from .autos import (IAStarEquations, LieAutomorphism, _ia_star_matrix,
                    adapted_matrix, csp_witness, enumerate_ia_star,
                    make_ia_star, matrix_from_adapted, strong_approx_check)
from .catalog import (CATALOG, CSP_SUBGROUPS, EXPECTED_T, TORSION_NAMES,
                      build_fiber, build_group, build_hull, build_zz2,
                      entry_by_name, finite_fiber_example)
from .errors import CapExceeded
from .fiber import (find_t, free_abelianization_check, ia_kernel_enum,
                    lift_automorphism, lift_automorphism_finite,
                    reconstruction_check)
from .freenil import (central_tuple_iso, aut_restriction, endo_matrix,
                      psi_algebra_only, psi_group, witt_dimension)
from .hull import (GenGroup, closure_certificate, hull_of_lattice,
                   lattice_hull)
from .lattices import hnf_lattice, intersect_subspace, lattice_index, lattice_sum
from .liealg import GroupElement, vec

SUITES = ("bch-oracle", "hull", "basis", "ia-structure", "strong-approx",
          "csp", "fiber", "free-iso")


@dataclass
class VerificationReport:
    suite: str
    seed: int
    caps: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)

    def add(self, name: str, status: str, detail: str = "", seconds: float = 0.0):
        self.checks.append({"name": name, "status": status,
                            "detail": detail, "seconds": round(seconds, 3)})

    def record(self, name: str, ok: bool, detail: str = "", seconds: float = 0.0):
        self.add(name, "pass" if ok else "fail", detail, seconds)

    @property
    def passed(self) -> bool:
        return all(c["status"] == "pass" for c in self.checks)

    @property
    def inconclusive(self) -> bool:
        return any(c["status"] == "inconclusive" for c in self.checks)

    @property
    def verdict(self) -> str:
        """One word for the suite: a failed check makes it "fail"; otherwise
        an inconclusive check makes it "inconclusive"; else "pass"."""
        if any(c["status"] == "fail" for c in self.checks):
            return "fail"
        return "inconclusive" if self.inconclusive else "pass"

    def to_doc(self) -> dict:
        return {"suite": self.suite, "seed": self.seed, "caps": self.caps,
                "passed": self.passed, "verdict": self.verdict,
                "checks": self.checks}


def _timer():
    start = time.perf_counter()
    return lambda: time.perf_counter() - start


def _random_rat(rng, bound=3, maxden=4):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, maxden))


# ---------------------------------------------------------------------------


def suite_bch_oracle(seed: int = 0):
    """Structure-constant BCH against the matrix oracle; exp/log inverses."""
    pairs, roundtrips = 200, 500
    rep = VerificationReport("bch-oracle", seed,
                             {"pairs": pairs, "roundtrips": roundtrips})
    rng = random.Random(seed)
    for n in (3, 4, 5):
        t = _timer()
        alg, prs = ut.tr0_algebra(n)
        bad = 0
        for _ in range(pairs):
            x = tuple(_random_rat(rng) for _ in prs)
            y = tuple(_random_rat(rng) for _ in prs)
            X = ut.matrix_from_coords(n, x, prs)
            Y = ut.matrix_from_coords(n, y, prs)
            Z = ut.matrix_log(ut.mat_mul(ut.matrix_exp(X), ut.matrix_exp(Y)))
            if alg.bch(x, y) != ut.coords_from_matrix(n, Z, prs):
                bad += 1
        rep.record(f"bch matrix oracle n={n}", bad == 0,
                   f"{pairs} exact comparisons, {bad} mismatches", t())
    t = _timer()
    bad = 0
    for _ in range(roundtrips):
        n = rng.randint(2, 6)
        N = [[Fraction(0)] * n for _ in range(n)]
        U = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                N[i][j] = _random_rat(rng)
                U[i][j] = _random_rat(rng)
        N = tuple(tuple(r) for r in N)
        U = tuple(tuple(r) for r in U)
        if ut.matrix_log(ut.matrix_exp(N)) != N or \
                ut.matrix_exp(ut.matrix_log(U)) != U:
            bad += 1
    rep.record("exp/log round-trip n<=6", bad == 0,
               f"{roundtrips} exact round trips, {bad} failures", t())
    return rep


def suite_hull(seed: int = 0):
    """The Heisenberg hull with its one-step closure oracle, idempotence,
    monotonicity, and minimality spot-checks."""
    rep = VerificationReport("hull", seed)
    rng = random.Random(seed)
    t = _timer()
    group = build_group(entry_by_name("heisenberg"))
    h = lattice_hull(group)
    expected = hnf_lattice([(1, 0, 0), (0, 1, 0), (0, 0, Fraction(1, 2))])
    rep.record("heisenberg hull lattice", h.lattice == expected,
               f"{h.lattice!r}", t())
    t = _timer()
    # one-step closure oracle: bch(e12, e23) already forces the half entry
    alg = group.algebra
    forced = alg.bch(vec((1, 0, 0)), vec((0, 1, 0)))
    oracle = hnf_lattice(list(group.gen_logs) + [forced], 3)
    rep.record("one-step closure oracle", oracle == expected and
               lattice_index(h.lattice, hnf_lattice(group.gen_logs, 3)) == 2,
               "index 2 over the generator span", t())
    t = _timer()
    again = hull_of_lattice(h.algebra, h.lattice)
    rep.record("idempotence", again.lattice == h.lattice, "", t())
    t = _timer()
    sub = lattice_hull(GenGroup(alg, group.gen_logs[:2]))
    mono = all(h.lattice.member(b) for b in sub.lattice.basis())
    rep.record("monotonicity", mono, "2-generator hull inside full hull", t())
    t = _timer()
    ok = True
    for _ in range(5):
        extra = tuple(Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3)))
                      for _ in range(3))
        enlarged = lattice_sum(h.lattice, hnf_lattice([extra], 3))
        closed = hull_of_lattice(alg, enlarged)
        if not all(closed.lattice.member(b) for b in h.lattice.basis()):
            ok = False
    rep.record("minimality spot-checks", ok,
               "hull contained in 5 random BCH-closed overlattices", t())
    t = _timer()
    certified = all(closure_certificate(build_hull(e)) for e in CATALOG)
    rep.record("full-closure certificate", certified,
               "binomial BCH coefficient vectors lie in every catalog hull"
               " lattice", t())
    return rep


def _layer_rank_oracle(lat, alg):
    """Layer ranks by Smith-form rank of the intersection lattices."""
    gammas = alg.lcs()
    ranks = []
    prev = None
    for j in range(len(gammas)):
        inter = intersect_subspace(lat, gammas[j])
        # rank = number of nonzero invariant factors of the basis matrix
        diag, _, _ = linalg.snf_with_transforms([list(r) for r in inter.rows],
                                                lat.dim)
        rk = len(diag)
        if prev is not None:
            ranks.append(prev - rk)
        prev = rk
    return tuple(r for r in ranks if r)


def _basis_problems(h):
    """The adapted-basis checks on one hull, read off its lattice alone:
    per-layer sublists are Z-bases of the layer quotients (condition (1)),
    layers are non-decreasing (condition (2)), the basis spans the lattice,
    and the Smith rank oracle gives the layer sizes."""
    alg = h.algebra
    gammas = alg.lcs()
    problems = []
    # condition (1): per-layer sublists are Z-bases of the layer quotients
    for j in range(1, len(gammas)):
        upper = intersect_subspace(h.lattice, gammas[j - 1])
        lower = intersect_subspace(h.lattice, gammas[j])
        sub = [b for b, l in zip(h.basis, h.layers) if l == j]
        if any(not upper.member(b) for b in sub):
            problems.append(f"layer {j} vector outside the layer lattice")
        if hnf_lattice(list(sub) + list(lower.basis()), alg.dim) != upper:
            problems.append(f"layer {j} sublist not a basis mod deeper")
    # condition (2): non-decreasing layers
    if any(h.layers[i + 1] < h.layers[i] for i in range(len(h.layers) - 1)):
        problems.append("layer ordering violated")
    if hnf_lattice(h.basis, alg.dim) != h.lattice:
        problems.append("adapted basis is not a lattice basis")
    # independent rank oracle
    ranks = _layer_rank_oracle(h.lattice, alg)
    if ranks != h.layer_sizes:
        problems.append(f"Smith rank oracle {ranks} != {h.layer_sizes}")
    return problems


def suite_basis(seed: int = 0):
    """Adapted bases over the whole catalog: the per-layer basis condition
    and the ordering condition, plus independent Witt / Smith rank oracles."""
    rep = VerificationReport("basis", seed)
    for entry in CATALOG:
        t = _timer()
        h = build_hull(entry)
        alg = h.algebra
        problems = _basis_problems(h)
        for key, (value, _tag) in entry.expected.items():
            if key == "k" and alg.dim != value:
                problems.append(f"k {alg.dim} != {value}")
            if key == "d" and h.d != value:
                problems.append(f"d {h.d} != {value}")
            if key == "layers" and h.layer_sizes != tuple(value):
                problems.append(f"layers {h.layer_sizes} != {value}")
            if key == "hull_index":
                group = build_group(entry)
                span = hnf_lattice(group.gen_logs, alg.dim)
                if span.rank == alg.dim and \
                        lattice_index(h.lattice, span) != value:
                    problems.append("hull index mismatch")
            if key == "denominators":
                dens = {x.denominator for b in h.basis for x in b}
                if not dens <= set(value):
                    problems.append(f"denominators {dens} exceed {value}")
        if entry.recipe.startswith("free"):
            _, n, c = entry.recipe.split()
            witt = tuple(witt_dimension(int(n), w) for w in range(1, int(c) + 1))
            if witt != h.layer_sizes:
                problems.append(f"Witt oracle {witt} != {h.layer_sizes}")
        rep.record(f"adapted basis: {entry.name}", not problems,
                   "; ".join(problems) or f"layers {h.layer_sizes}", t())
    return rep


def suite_ia_structure(seed: int = 0):
    """IA* enumeration: the Heisenberg count, closure, and the abelian case."""
    bound = 3
    rep = VerificationReport("ia-structure", seed, {"bound": bound})
    t = _timer()
    h = build_hull(entry_by_name("heisenberg"))
    eq = IAStarEquations(h)
    lst = enumerate_ia_star(h, bound, eq=eq)
    expected_entries = {(a, b) for a in range(-bound, bound + 1)
                        for b in range(-bound, bound + 1)}
    got = {aut.adapted_entries for aut in lst}
    count_expected = (2 * bound + 1) ** 2
    rep.record(f"heisenberg IA* count at bound {bound}",
               len(lst) == count_expected and got == expected_entries,
               f"{len(lst)} elements", t())
    def closure_ok(hull, eq_, auts, bnd):
        mats = [adapted_matrix(hull, a) for a in auts]
        have = {tuple(M[r][c] for (r, c) in eq_.positions) for M in mats}
        for A in mats:
            inv = linalg.unimodular_inverse(A)
            if inv is None:
                return False
            for P in [inv] + [linalg.mat_mul(A, B) for B in mats]:
                entries = tuple(P[r][c] for (r, c) in eq_.positions)
                if max(map(abs, entries), default=0) <= bnd \
                        and entries not in have:
                    return False
        return True

    t = _timer()
    rep.record("product/inverse closure in bounds",
               closure_ok(h, eq, lst, bound),
               f"all in-bound pairs of {len(lst)} elements", t())
    t = _timer()
    psi = psi_group(2, 3)
    eq23 = IAStarEquations(psi.hull)
    lst23 = enumerate_ia_star(psi.hull, 1, eq=eq23)
    rep.record("psi_{2,3} bound-1 closure",
               closure_ok(psi.hull, eq23, lst23, 1),
               f"{len(lst23)} elements", t())
    t = _timer()
    hab = build_hull(entry_by_name("abelian3"))
    rep.record("abelian IA* trivial",
               len(enumerate_ia_star(hab, 3)) == 1, "", t())
    return rep


def suite_strong_approx(seed: int = 0, point_cap: int = 500_000):
    """Surjectivity of IA* reduction onto the mod-m points, with lifts."""
    levels = range(2, 9)
    rep = VerificationReport("strong-approx", seed,
                             {"levels": list(levels), "point_cap": point_cap})
    for name in ("heisenberg", "psi23"):
        h = build_hull(entry_by_name(name))
        eq = IAStarEquations(h)
        for m in levels:
            t = _timer()
            try:
                r = strong_approx_check(h, m, eq=eq, point_cap=point_cap)
            except CapExceeded as e:
                rep.add(f"{name} m={m}", "inconclusive", str(e), t())
                continue
            rep.record(f"{name} m={m}", r["surjective"],
                       f"{r['solution_count']} points, {r['lifted']} lifted",
                       t())
    t = _timer()
    hab = build_hull(entry_by_name("abelian2"))
    r = strong_approx_check(hab, 5)
    rep.record("abelian vacuous", r["surjective"] and r["solution_count"] == 1,
               "trivial group both sides", t())
    t = _timer()
    h = build_hull(entry_by_name("heisenberg"))
    r = strong_approx_check(h, 1)
    rep.record("m=1 trivial", r["surjective"] and r["solution_count"] == 1,
               "", t())
    return rep


def suite_csp(seed: int = 0, level_cap: int = 16):
    """Certified congruence levels for the shipped subgroup table."""
    rep = VerificationReport("csp", seed, {"level_cap": level_cap})
    hulls = {}
    eqs = {}
    for entry_name, desc, gen_entries, index in CSP_SUBGROUPS:
        t = _timer()
        if entry_name not in hulls:
            hulls[entry_name] = build_hull(entry_by_name(entry_name))
            eqs[entry_name] = IAStarEquations(hulls[entry_name])
        h, eq = hulls[entry_name], eqs[entry_name]
        gens = [make_ia_star(h, e) for e in gen_entries]
        result = csp_witness(h, gens, index=index, level_cap=level_cap,
                             eq=eq, seed=seed)
        if result["status"] != "certified":
            rep.add(f"{entry_name}: {desc}", "inconclusive",
                    f"no witness level <= {level_cap}", t())
        else:
            rep.record(f"{entry_name}: {desc}",
                       result["m"] <= level_cap,
                       f"m={result['m']}, index {index}, "
                       f"|U|={result['universe']}, |image|={result['image']}",
                       t())
    return rep


def _aut_stock_for_hull(h):
    """Small stock of hull-side automorphisms used by the fiber suite."""
    k = h.algebra.dim
    stock = [LieAutomorphism(h.algebra, linalg.mat_identity(k, Fraction(1)))]
    if h.algebra.nilpotency_class == 1:
        stock.append(LieAutomorphism(
            h.algebra, tuple(tuple(Fraction(-int(i == j)) for j in range(k))
                             for i in range(k))))
    elif k == 3:
        # diag(-1,-1,1) in adapted coordinates and an IA* shift
        diag = tuple(tuple(Fraction([-1, -1, 1][i] * int(i == j))
                           for j in range(3)) for i in range(3))
        stock.append(LieAutomorphism(h.algebra, matrix_from_adapted(h, diag)))
        stock.append(make_ia_star(h, {(2, 0): 1}))
    return stock


def suite_fiber(seed: int = 0):
    """Torsion machinery: find_t, reconstruction, lifting, gamma-star."""
    recon_levels = 12
    rep = VerificationReport("fiber", seed, {"recon_levels": recon_levels})
    fibers = {name: build_fiber(name) for name in TORSION_NAMES}
    for name, u in fibers.items():
        t = _timer()
        got = find_t(u)
        rep.record(f"find_t {name}", got == EXPECTED_T[name],
                   f"t={got}", t())
    for name in ("z2z4", "heis3"):
        u = fibers[name]
        tval = EXPECTED_T[name]
        for m in range(tval, recon_levels + 1, tval):
            t = _timer()
            r = reconstruction_check(u, m)
            rep.record(f"reconstruction {name} m={m}",
                       r["injective"] and r["surjective"] and r["compatible"],
                       f"level {r['level']}, {r['shadow_pairs']} shadow pairs",
                       t())
    # componentwise lifting over exhaustive automorphisms of the finite parts
    for name, u in fibers.items():
        t = _timer()
        auts2 = u.p2.automorphisms()
        if len(auts2) > 48:
            rep.add(f"lifting {name}", "inconclusive",
                    f"Aut(P2) order {len(auts2)} above the suite bound", t())
            continue
        stock = _aut_stock_for_hull(u.hull)
        lifted = rejected = 0
        ok = True
        for sigma1 in stock:
            for sigma2 in auts2:
                try:
                    sig = lift_automorphism(u, sigma1, sigma2)
                except ValueError:
                    rejected += 1
                    continue
                lifted += 1
                gens = u.generators()
                for a in gens:
                    for b in gens:
                        if sig.apply(u.mul(a, b)) != \
                                u.mul(sig.apply(a), sig.apply(b)):
                            ok = False
                # torsion is fixed setwise by every lifted automorphism
                kernel = set(u.kernel_pi2())
                if {sig.apply(t_).y for t_ in u.torsion_elements()} != kernel:
                    ok = False
        rep.record(f"lifting {name}", ok and lifted > 0,
                   f"{lifted} lifts, {rejected} rejected "
                   f"(|Aut(P2)|={len(auts2)})", t())
    t = _timer()
    u = fibers["z3z9"]
    neg = LieAutomorphism(u.hull.algebra, ((Fraction(-1),),))
    ident2 = tuple(range(9))
    try:
        lift_automorphism(u, neg, ident2)
        rep.record("incompatible pair rejected", False, "no rejection", t())
    except ValueError as e:
        rep.record("incompatible pair rejected", "witness" in str(e), str(e), t())
    # finite x finite materialization and lifting
    t = _timer()
    grp, pairs, p1, p2, pi1, pi2, q = finite_fiber_example()
    ok = grp.order == 8 and not grp.validate()
    for s1 in p1.automorphisms():
        for s2 in p2.automorphisms():
            try:
                perm = lift_automorphism_finite(p1, p2, q, pi1, pi2, pairs,
                                                s1, s2)
            except ValueError:
                continue
            if grp.hom_from_generators(grp.generating_set(),
                                       [perm[g] for g in grp.generating_set()],
                                       grp) != perm:
                ok = False
    rep.record("finite fiber product", ok,
               f"order {grp.order}, exhaustive finite lifts", t())
    # K-tilde enumerations
    t = _timer()
    u = fibers["z2z4"]
    gens = list(u.generators())
    K, kr = ia_kernel_enum(u, [gens[0], gens[1]])
    rep.record("torsion-shift kernel for z2z4", kr["order"] == 2 and kr["closed"],
               f"order {kr['order']} of {kr['candidates']} candidates", t())
    t = _timer()
    u = build_zz2()
    K2, kr2 = ia_kernel_enum(u)
    rep.record("torsion-shift kernel for Z x Z/2", kr2["order"] == 2 and kr2["closed"],
               f"order {kr2['order']}", t())
    t = _timer()
    u = fibers["zz3"]
    # torsion shifts on (1, y), (0, 1) include the unit twist y -> 2y, so
    # the kernel here has order |tor| * |units| = 6 (exhaustively checked)
    K3, kr3 = ia_kernel_enum(u)
    rep.record("torsion-shift kernel for zz3", kr3["order"] == 6 and kr3["closed"],
               f"order {kr3['order']}", t())
    # gamma-star on every torsion entry
    for name, u in fibers.items():
        t = _timer()
        d, r = free_abelianization_check(u)
        rep.record(f"free abelianization {name}", r["rank_matches"] and r["maps_identity"],
                   f"d={d}, invariants {r['invariants']}", t())
    return rep


def suite_free_iso(seed: int = 0, box: int = 2):
    """The central-tuple isomorphism, its composition law, and the lifts."""
    composition_pairs = 50
    rep = VerificationReport("free-iso", seed,
                             {"box": box, "pairs": composition_pairs})
    rng = random.Random(seed)
    for (n, c) in ((2, 2), (2, 3), (3, 2)):
        t = _timer()
        psi = psi_group(n, c)
        iso = central_tuple_iso(psi)
        count, injective = iso.box_roundtrip(box)
        rep.record(f"bijection box psi({n},{c})", injective,
                   f"{count} tuples round-tripped", t())
        # honest Fraction-path sampling of the same box
        t = _timer()
        top = [i for i, w in enumerate(psi.weights) if w == psi.c]
        ok = True
        for _ in range(100):
            tup = []
            for _i in range(n):
                u = [0] * psi.algebra.dim
                for z in top:
                    u[z] = rng.randint(-box, box)
                tup.append(tuple(Fraction(x) for x in u))
            images = iso.backward(tup)
            if [tuple(map(int, v)) for v in iso.forward(images)] != \
                    [tuple(map(int, v)) for v in tup]:
                ok = False
        rep.record(f"sampled roundtrip psi({n},{c})", ok, "100 samples", t())
        # composition law on random pairs
        t = _timer()
        ok = True
        for _ in range(composition_pairs):
            tu, tv = [], []
            for _i in range(n):
                u = [0] * psi.algebra.dim
                v = [0] * psi.algebra.dim
                for z in top:
                    u[z] = rng.randint(-2, 2)
                    v[z] = rng.randint(-2, 2)
                tu.append(vec(u))
                tv.append(vec(v))
            alpha = iso.backward(tu)
            beta = iso.backward(tv)
            comp = iso.compose(beta, alpha)
            gens = psi.generators()
            for i in range(n):
                expected = (gens[i]
                            * GroupElement(psi.algebra, tv[i])
                            * GroupElement(psi.algebra, tu[i])).log
                if comp[i] != expected:
                    ok = False
        rep.record(f"composition law psi({n},{c})", ok,
                   f"{composition_pairs} random pairs", t())
    # matching against the IA* enumeration on the Heisenberg hull
    t = _timer()
    psi22 = psi_group(2, 2)
    iso22 = central_tuple_iso(psi22)
    eq = IAStarEquations(psi22.hull)
    enumerated = {a.adapted_entries
                  for a in enumerate_ia_star(psi22.hull, 2 * box, eq=eq)}
    matched = set()
    for a in range(-box, box + 1):
        for b in range(-box, box + 1):
            tup = [vec((0, 0, a)), vec((0, 0, b))]
            M = endo_matrix(psi22, iso22.backward(tup))
            aut = LieAutomorphism(psi22.algebra, M)
            am = _ia_star_matrix(aut, psi22.hull)
            if am is None:
                matched = None
                break
            matched.add(tuple(am[r][c2] for (r, c2) in eq.positions))
        if matched is None:
            break
    ok = matched is not None and matched <= enumerated and \
        len(matched) == (2 * box + 1) ** 2
    rep.record("tuple box matches enumerate_ia_star", ok,
               f"{0 if matched is None else len(matched)} matrices inside the"
               f" bound-{2 * box} enumeration", t())
    # word-map lifts: restriction is a section
    for (n, c), words_list in (((2, 2), ([[(0, 1), (1, 1)], [(1, 1)]],
                                         [[(1, 1)], [(0, 1)]])),
                               ((3, 2), ([[(0, 1), (1, 1)], [(1, 1)], [(2, 1)]],
                                         [[(1, 1)], [(2, 1)], [(0, 1)]]))):
        t = _timer()
        low = psi_algebra_only(n, c)
        high = psi_algebra_only(n, c + 1)
        ok = True
        for words in words_list:
            try:
                aut_restriction(low, high, words)
            except (ValueError, RuntimeError):
                ok = False
        rep.record(f"aut_restriction section psi({n},{c})->({n},{c + 1})", ok,
                   f"{len(words_list)} word maps", t())
    return rep


SUITE_FUNCS = {
    "bch-oracle": suite_bch_oracle,
    "hull": suite_hull,
    "basis": suite_basis,
    "ia-structure": suite_ia_structure,
    "strong-approx": suite_strong_approx,
    "csp": suite_csp,
    "fiber": suite_fiber,
    "free-iso": suite_free_iso,
}


def run_suite(name: str, seed: int = 0, **caps):
    if name == "all":
        return [SUITE_FUNCS[s](seed=seed) for s in SUITES]
    if name not in SUITE_FUNCS:
        raise KeyError(f"unknown suite {name!r}")
    return [SUITE_FUNCS[name](seed=seed, **caps)]
