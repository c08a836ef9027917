"""The shipped example-group catalog and its expected properties.

Every expected value is re-derived at run time by the verification suites;
the values recorded here act as assertions and carry their provenance tag
(TRIVIAL for identities, DERIVED for values the suites recompute with an
independent oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .fiber import FiberGroup, HullSide, fiber_product_finite
from .finite import FiniteGroup
from .freenil import psi_group
from .hull import GenGroup, HullResult, lattice_hull
from .liealg import NilpotentLieAlgebra
from .unitriangular import tr0_algebra


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    recipe: str
    expected: dict = field(default_factory=dict)  # key -> (value, tag)


CATALOG = (
    CatalogEntry("abelian1", "abelian 1",
                 {"k": (1, "TRIVIAL"), "d": (1, "TRIVIAL"),
                  "layers": ((1,), "TRIVIAL"), "hull_index": (1, "TRIVIAL")}),
    CatalogEntry("abelian2", "abelian 2",
                 {"k": (2, "TRIVIAL"), "d": (2, "TRIVIAL"),
                  "layers": ((2,), "TRIVIAL"), "hull_index": (1, "TRIVIAL")}),
    CatalogEntry("abelian3", "abelian 3",
                 {"k": (3, "TRIVIAL"), "d": (3, "TRIVIAL"),
                  "layers": ((3,), "TRIVIAL"), "hull_index": (1, "TRIVIAL")}),
    CatalogEntry("heisenberg", "heisenberg",
                 {"k": (3, "DERIVED"), "d": (2, "DERIVED"),
                  "layers": ((2, 1), "DERIVED"), "hull_index": (2, "DERIVED"),
                  "ia_count_bound3": (49, "DERIVED")}),
    CatalogEntry("psi22", "free 2 2",
                 {"k": (3, "DERIVED"), "d": (2, "DERIVED"),
                  "layers": ((2, 1), "DERIVED"),
                  "denominators": ((1, 2), "DERIVED")}),
    CatalogEntry("psi23", "free 2 3",
                 {"k": (5, "DERIVED"), "d": (2, "DERIVED"),
                  "layers": ((2, 1, 2), "DERIVED"),
                  "denominators": ((1, 2, 12), "DERIVED")}),
    CatalogEntry("psi32", "free 3 2",
                 {"k": (6, "DERIVED"), "d": (3, "DERIVED"),
                  "layers": ((3, 3), "DERIVED"),
                  "denominators": ((1, 2), "DERIVED")}),
    CatalogEntry("psi22-hull", "hull free 2 2",
                 {"hull_index": (1, "TRIVIAL"), "layers": ((2, 1), "DERIVED")}),
    CatalogEntry("psi23-hull", "hull free 2 3",
                 {"hull_index": (1, "TRIVIAL"),
                  "layers": ((2, 1, 2), "DERIVED")}),
    CatalogEntry("psi32-hull", "hull free 3 2",
                 {"hull_index": (1, "TRIVIAL"), "layers": ((3, 3), "DERIVED")}),
)


def entry_by_name(name: str) -> CatalogEntry:
    for e in CATALOG:
        if e.name == name:
            return e
    raise KeyError(f"no catalog entry named {name!r}")


def build_group(entry: CatalogEntry) -> GenGroup:
    """Reconstruct the generated group from the entry's recipe."""
    parts = entry.recipe.split()
    if parts[0] == "abelian":
        n = int(parts[1])
        alg = NilpotentLieAlgebra.abelian(n)
        gens = [tuple(Fraction(int(i == t)) for t in range(n)) for i in range(n)]
        return GenGroup(alg, tuple(gens), filtered=True)
    if parts[0] == "heisenberg":
        alg, _ = tr0_algebra(3)
        return GenGroup(alg, ((Fraction(1), Fraction(0), Fraction(0)),
                              (Fraction(0), Fraction(1), Fraction(0)),
                              (Fraction(0), Fraction(0), Fraction(1))))
    if parts[0] == "free":
        psi = psi_group(int(parts[1]), int(parts[2]))
        return psi.group()
    if parts[0] == "hull":
        inner = build_group(CatalogEntry("_inner", " ".join(parts[1:])))
        h = lattice_hull(inner)
        return GenGroup(h.algebra, tuple(h.lattice.basis()), filtered=True)
    raise KeyError(f"unknown recipe {entry.recipe!r}")


def build_hull(entry: CatalogEntry) -> HullResult:
    return lattice_hull(build_group(entry))


# ---------------------------------------------------------------------------
# torsion catalog (fiber groups)

TORSION_NAMES = ("z2z4", "zz3", "z3z9", "z2z2z4", "heis3")


def build_fiber(name: str):
    """Named fiber-product groups used by the torsion suites."""
    line = build_hull(entry_by_name("abelian1"))  # the hull of Z
    if name == "z2z4":
        q = FiniteGroup.cyclic(2)
        side = HullSide(line, 2, (0, 1), q)
        return FiberGroup(side, FiniteGroup.cyclic(4), (0, 1, 0, 1))
    if name == "zz3":
        q = FiniteGroup.trivial()
        side = HullSide(line, 1, (0,), q)
        return FiberGroup(side, FiniteGroup.cyclic(3), (0, 0, 0))
    if name == "z3z9":
        q = FiniteGroup.cyclic(3)
        side = HullSide(line, 3, (0, 1, 2), q)
        return FiberGroup(side, FiniteGroup.cyclic(9),
                          tuple(y % 3 for y in range(9)))
    if name == "z2z2z4":
        q = FiniteGroup.cyclic(2)
        side = HullSide(line, 2, (0, 1), q)
        p2 = FiniteGroup.direct_product(FiniteGroup.cyclic(2),
                                        FiniteGroup.cyclic(4))
        # element a*4+b  ->  b mod 2
        return FiberGroup(side, p2, tuple((idx % 4) % 2 for idx in range(8)))
    if name == "heis3":
        q = FiniteGroup.trivial()
        side = HullSide(build_hull(entry_by_name("heisenberg")), 1, (0,), q)
        return FiberGroup(side, FiniteGroup.cyclic(3), (0, 0, 0))
    raise KeyError(f"no fiber entry named {name!r}")


EXPECTED_T = {"z2z4": 2, "zz3": 3, "z3z9": 3, "z2z2z4": 2, "heis3": 3}


def build_zz2():
    """Z x Z/2 (trivial gluing), the smallest K-tilde example."""
    line = build_hull(entry_by_name("abelian1"))
    side = HullSide(line, 1, (0,), FiniteGroup.trivial())
    return FiberGroup(side, FiniteGroup.cyclic(2), (0, 0))


def finite_fiber_example():
    """Z/4 x_{Z/2} Z/4: materialized finite fiber product."""
    z4 = FiniteGroup.cyclic(4)
    q = FiniteGroup.cyclic(2)
    pi = tuple(a % 2 for a in range(4))
    return fiber_product_finite(z4, z4, pi, pi, q) + (z4, z4, pi, pi, q)


# ---------------------------------------------------------------------------
# CSP subgroup table (entry positions refer to ia_star_positions order)

# (catalog entry, subgroup description, generator entry dicts, index)
CSP_SUBGROUPS = (
    ("heisenberg", "alpha even", [{(2, 0): 2}, {(2, 1): 1}], 2),
    ("heisenberg", "beta even", [{(2, 0): 1}, {(2, 1): 2}], 2),
    ("heisenberg", "alpha + beta even", [{(2, 0): 1, (2, 1): 1}, {(2, 1): 2}], 2),
    ("heisenberg", "alpha = 0 mod 3", [{(2, 0): 3}, {(2, 1): 1}], 3),
    ("heisenberg", "beta = 0 mod 4", [{(2, 0): 1}, {(2, 1): 4}], 4),
    ("heisenberg", "both even", [{(2, 0): 2}, {(2, 1): 2}], 4),
    ("heisenberg", "both = 0 mod 4", [{(2, 0): 4}, {(2, 1): 4}], 16),
    ("heisenberg", "det-8 sublattice", [{(2, 0): 2, (2, 1): 1}, {(2, 1): 4}], 8),
    ("heisenberg", "alpha = 0 mod 5", [{(2, 0): 5}, {(2, 1): 1}], 5),
    ("heisenberg", "beta = 0 mod 16", [{(2, 0): 1}, {(2, 1): 16}], 16),
    ("psi23", "a1 even",
     [{(2, 0): 2, (4, 2): -6}, {(2, 1): 1, (3, 2): 3},
      {(3, 0): 1}, {(4, 0): 1}, {(3, 1): 1}, {(4, 1): 1}], 2),
    ("psi23", "a2 = 0 mod 3",
     [{(2, 0): 1, (4, 2): -3}, {(2, 1): 3, (3, 2): 9},
      {(3, 0): 1}, {(4, 0): 1}, {(3, 1): 1}, {(4, 1): 1}], 3),
    ("psi23", "a1 and a2 even",
     [{(2, 0): 2, (4, 2): -6}, {(2, 1): 2, (3, 2): 6},
      {(3, 0): 1}, {(4, 0): 1}, {(3, 1): 1}, {(4, 1): 1}], 4),
)
