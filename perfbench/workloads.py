"""The four workloads: inputs built from a seed, and a list of timed jobs.

Each workload is a closed loop with one caller: a job starts only after the
previous one has returned.  ``setup(seed)`` builds what a user of the
library treats as given (free algebras, catalog hulls, IA* equations, fiber
groups and seeded inputs); ``jobs(inputs)`` lists the calls into the public
API, each with the exact check that ``gate`` applies to its result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from time import perf_counter_ns
from typing import Callable

from malcev import (autos, catalog, fiber, freenil, hull, linalg,
                    unitriangular as ut)
from malcev.errors import CapExceeded
from malcev.liealg import GroupElement, vec

import gate


@dataclass
class Job:
    name: str
    ops: int                      # operations the result accounts for
    run: Callable[[], object]
    problems: Callable[[object], list]


@dataclass
class Workload:
    name: str
    why: str
    setup: Callable[[int], object]
    jobs: Callable[[object], list]


def _unit(k, i):
    return tuple(Fraction(int(i == t)) for t in range(k))


# -- hull-ladder ---------------------------------------------------------------


@dataclass
class HullRung:
    name: str
    algebra: object
    gens: tuple
    layer_sizes: tuple            # Witt dimensions, or (n-1, ..., 1) for UT(n)
    ut_n: int | None              # matrix size when the word oracle is UT(n)
    words: list                   # seeded words [(generator, +-1), ...]


# (name, (n, c) or "UT", generators, expected layer sizes).  Psi(n, c) is
# generated by the n Hall generators of free_algebra(n, c), with the Witt
# dimensions as layers; UT(n) by the n-1 superdiagonal elementary matrices.
LADDER = (("Psi(2,3)", (2, 3), 2, (2, 1, 2)),
          ("Psi(3,2)", (3, 2), 3, (3, 3)),
          ("Psi(4,2)", (4, 2), 4, (4, 6)),
          ("Psi(2,4)", (2, 4), 2, (2, 1, 2, 3)),
          ("Psi(5,2)", (5, 2), 5, (5, 10)),
          ("Psi(6,2)", (6, 2), 6, (6, 15)))
# Rungs on which lattice_hull returns a lattice that is not BCH-closed: the
# gate fails every one of them.  They form the hull-defects workload, which
# is run on its own; a benchmark workload must not fail.
DEFECTS = (("Psi(3,3)", (3, 3), 3, (3, 3, 8)),
           ("UT(4)", "UT", 3, (3, 2, 1)),
           ("UT(5)", "UT", 4, (4, 3, 2, 1)),
           ("Psi(2,5)", (2, 5), 2, (2, 1, 2, 3, 6)))
WORDS, WORD_LENGTH = 12, 6


def nielsen(algebra, gens, rng, moves=2):
    """Random moves g_i -> g_i * g_j^(+-1), then a shuffle: same group."""
    gens = list(gens)
    for _ in range(moves):
        i, j = rng.sample(range(len(gens)), 2)
        sign = rng.choice((1, -1))
        gens[i] = algebra.bch(gens[i], tuple(sign * x for x in gens[j]))
    rng.shuffle(gens)
    return tuple(gens)


def hull_setup(seed, specs=LADDER):
    rng = random.Random(seed)
    rungs = []
    for name, shape, ngens, sizes in specs:
        if shape == "UT":
            ut_n = ngens + 1
            alg, _ = ut.tr0_algebra(ut_n)
        else:
            ut_n = None
            alg = freenil.free_algebra(*shape)
        gens = nielsen(alg, [_unit(alg.dim, i) for i in range(ngens)], rng)
        words = [[(rng.randrange(ngens), rng.choice((1, -1)))
                  for _ in range(WORD_LENGTH)] for _ in range(WORDS)]
        rungs.append(HullRung(name, alg, gens, sizes, ut_n, words))
    return rungs


def compute_hull(rung):
    return hull.lattice_hull(hull.GenGroup(rung.algebra, rung.gens))


def hull_jobs(rungs):
    return [Job(f"hull {r.name}", 1, partial(compute_hull, r),
                partial(gate.hull_problems, r)) for r in rungs]


# -- congruence ----------------------------------------------------------------

SA_GROUPS = ("heisenberg", "psi23")
SA_LEVELS = range(2, 9)
# IA* points mod m number m^(free positions): Z^2 for the Heisenberg hull,
# and 6 free of the 8 positions for Psi(2,3).
FREE_POSITIONS = {"heisenberg": 2, "psi23": 6}
CSP_LEVEL_CAP = 16


@dataclass
class CongruenceInputs:
    seed: int
    hulls: dict
    eqs: dict
    csp_rows: list                # (entry, description, generators, index)


def congruence_setup(seed):
    hulls = {n: catalog.build_hull(catalog.entry_by_name(n)) for n in SA_GROUPS}
    eqs = {n: autos.IAStarEquations(h) for n, h in hulls.items()}
    rows = [(entry, desc, [autos.make_ia_star(hulls[entry], e) for e in gens],
             index)
            for entry, desc, gens, index in catalog.CSP_SUBGROUPS]
    return CongruenceInputs(seed, hulls, eqs, rows)


def congruence_jobs(inp):
    jobs = []
    for name in SA_GROUPS:
        h, eq = inp.hulls[name], inp.eqs[name]
        for m in SA_LEVELS:
            rng = random.Random(inp.seed * 100 + m)
            jobs.append(Job(
                f"strong-approx {name} m={m}", 1,
                partial(autos.strong_approx_check, h, m, eq=eq,
                        point_cap=500_000),
                partial(gate.strong_approx_problems, eq,
                        FREE_POSITIONS[name], m, rng=rng)))
    for entry, desc, gens, index in inp.csp_rows:
        jobs.append(Job(
            f"csp {entry}: {desc}", 1,
            partial(autos.csp_witness, inp.hulls[entry], gens, index=index,
                    level_cap=CSP_LEVEL_CAP, eq=inp.eqs[entry], seed=inp.seed),
            partial(gate.csp_problems, index, CSP_LEVEL_CAP)))
    return jobs


# -- fiber-levels --------------------------------------------------------------

RECONSTRUCTION = (("z2z4", range(2, 13, 2)), ("heis3", range(3, 16, 3)))
# Orders of the torsion-shift kernels, checked exhaustively by the library's
# fiber suite: the z2z4 kernel on its first two generators, Z x Z/2, zz3.
KERNEL_ORDERS = (("z2z4", 2), ("zz2", 2), ("zz3", 6))
AUT_P2_CAP = 48


@dataclass
class FiberInputs:
    fibers: dict
    stocks: dict                  # hull-side automorphisms per entry
    order: list                   # seeded order of the torsion entries


def aut_stock(h):
    """Identity, and -1 (class 1) or diag(-1,-1,1) and an IA* shift (k=3)."""
    k = h.algebra.dim
    stock = [autos.LieAutomorphism(h.algebra, linalg.mat_identity(k, Fraction(1)))]
    if h.algebra.nilpotency_class == 1:
        neg = tuple(tuple(Fraction(-int(i == j)) for j in range(k))
                    for i in range(k))
        stock.append(autos.LieAutomorphism(h.algebra, neg))
    elif k == 3:
        diag = tuple(tuple(Fraction([-1, -1, 1][i] * int(i == j))
                           for j in range(3)) for i in range(3))
        stock.append(autos.LieAutomorphism(
            h.algebra, autos.matrix_from_adapted(h, diag)))
        stock.append(autos.make_ia_star(h, {(2, 0): 1}))
    return stock


def fiber_setup(seed):
    fibers = {n: catalog.build_fiber(n) for n in catalog.TORSION_NAMES}
    fibers["zz2"] = catalog.build_zz2()
    stocks = {n: aut_stock(fibers[n].hull) for n in catalog.TORSION_NAMES}
    order = list(catalog.TORSION_NAMES)
    random.Random(seed).shuffle(order)
    return FiberInputs(fibers, stocks, order)


def lift_stock(u, stock):
    """Lift every compatible (hull automorphism, P2 automorphism) pair."""
    auts2 = u.p2.automorphisms()
    if len(auts2) > AUT_P2_CAP:
        raise CapExceeded(f"|Aut(P2)| = {len(auts2)} above {AUT_P2_CAP}")
    lifts, rejected = [], 0
    for sigma1 in stock:
        for sigma2 in auts2:
            try:
                lifts.append(fiber.lift_automorphism(u, sigma1, sigma2))
            except ValueError:
                rejected += 1
    return lifts, rejected


def fiber_jobs(inp):
    f = inp.fibers
    jobs = [Job(f"find_t {n}", 1, partial(fiber.find_t, f[n]),
                partial(gate.find_t_problems, n)) for n in inp.order]
    for name, levels in RECONSTRUCTION:
        jobs += [Job(f"reconstruction {name} m={m}", 1,
                     partial(fiber.reconstruction_check, f[name], m),
                     partial(gate.reconstruction_problems, m))
                 for m in levels]
    jobs += [Job(f"lifting {n}", 1, partial(lift_stock, f[n], inp.stocks[n]),
                 partial(gate.lifting_problems, f[n])) for n in inp.order]
    z2z4_gens = list(f["z2z4"].generators())[:2]
    for name, order in KERNEL_ORDERS:
        gens = z2z4_gens if name == "z2z4" else None
        jobs.append(Job(f"ia_kernel_enum {name}", 1,
                        partial(fiber.ia_kernel_enum, f[name], gens),
                        partial(gate.kernel_problems, order)))
    jobs += [Job(f"free_abelianization {n}", 1,
                 partial(fiber.free_abelianization_check, f[n]),
                 gate.abelianization_problems) for n in inp.order]
    return jobs


# -- element-arith -------------------------------------------------------------

PRODUCTS, ROUNDTRIPS, TUPLE_SAMPLES = 1000, 500, 50
MUL_N = 6
# (n, c, box): box_roundtrip covers (2 box + 1)^(n * top-layer rank) tuples.
BOXES = ((2, 3, 2), (3, 2, 1))


@dataclass
class ArithInputs:
    pairs: list                   # (x, y) GroupElements of Tr_0(6)
    roundtrips: list              # (N strictly upper, U unitriangular)
    isos: list                    # (label, CentralTupleIso, box, tuple count)
    samples: list                 # (CentralTupleIso, [central tuples])
    mul_ns: list                  # one latency per timed product, all passes


def _dense(rng):
    """Rational with nonzero numerator in [-4, 4] and denominator <= 6."""
    return Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 6))


def arith_setup(seed):
    rng = random.Random(seed)
    alg, _ = ut.tr0_algebra(MUL_N)
    pairs = [tuple(GroupElement(alg, tuple(_dense(rng) for _ in range(alg.dim)))
                   for _ in range(2)) for _ in range(PRODUCTS)]
    roundtrips = []
    for _ in range(ROUNDTRIPS):
        n = rng.randint(2, 6)
        N = [[Fraction(0)] * n for _ in range(n)]
        U = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                N[i][j] = _dense(rng)
                U[i][j] = _dense(rng)
        roundtrips.append((tuple(map(tuple, N)), tuple(map(tuple, U))))
    isos, samples = [], []
    for n, c, box in BOXES:
        psi = freenil.psi_group(n, c)
        iso = freenil.central_tuple_iso(psi)
        top = [i for i, w in enumerate(psi.weights) if w == psi.c]
        isos.append((f"psi({n},{c}) box {box}", iso, box,
                     (2 * box + 1) ** (n * len(top))))
        tuples = []
        for _ in range(TUPLE_SAMPLES):
            tup = []
            for _i in range(n):
                u = [0] * psi.algebra.dim
                for z in top:
                    u[z] = rng.randint(-box, box)
                tup.append(vec(u))
            tuples.append(tup)
        samples.append((iso, tuples))
    return ArithInputs(pairs, roundtrips, isos, samples, [])


def timed_products(pairs, latencies):
    logs = []
    for x, y in pairs:
        t0 = perf_counter_ns()
        z = x * y
        latencies.append(perf_counter_ns() - t0)
        logs.append(z.log)
    return logs


def exp_log_roundtrips(cases):
    return [(ut.matrix_log(ut.matrix_exp(N)), ut.matrix_exp(ut.matrix_log(U)))
            for N, U in cases]


def tuple_roundtrips(iso, tuples):
    return [iso.forward(iso.backward(t)) for t in tuples]


def arith_jobs(inp):
    jobs = [Job("products Tr_0(6)", PRODUCTS,
                partial(timed_products, inp.pairs, inp.mul_ns),
                partial(gate.product_problems, MUL_N, inp.pairs)),
            Job("exp/log round trips", ROUNDTRIPS,
                partial(exp_log_roundtrips, inp.roundtrips),
                partial(gate.roundtrip_problems, inp.roundtrips))]
    jobs += [Job(f"box_roundtrip {label}", 1, partial(iso.box_roundtrip, box),
                 partial(gate.box_problems, count))
             for label, iso, box, count in inp.isos]
    jobs += [Job(f"central tuples {label}", len(tuples),
                 partial(tuple_roundtrips, iso, tuples),
                 partial(gate.tuple_sample_problems, tuples))
             for (label, *_), (iso, tuples) in zip(inp.isos, inp.samples)]
    return jobs


WORKLOADS = {w.name: w for w in (
    Workload("hull-ladder",
             "Fraction BCH and per-round HNF in lattice_hull on six seeded"
             " generating sets, Psi(2,3) up to Psi(6,2)",
             hull_setup, hull_jobs),
    Workload("congruence",
             "mod-m enumeration and Hensel lifts of the IA* equations with no"
             " BCH or HNF in the timed phase",
             congruence_setup, congruence_jobs),
    Workload("fiber-levels",
             "finite-quotient closures over compiled BCH and finite-group work;"
             " memory grows with the level",
             fiber_setup, fiber_jobs),
    Workload("element-arith",
             "the same BCH layer on dense rationals, plus matrix exp/log and"
             " the central-tuple box",
             arith_setup, arith_jobs),
    Workload("hull-defects",
             "the rungs whose hull is not BCH-closed: Psi(3,3), UT(4), UT(5)"
             " and Psi(2,5); every job fails the gate",
             partial(hull_setup, specs=DEFECTS), hull_jobs),
)}
