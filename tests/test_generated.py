"""Generated algebras off the coordinate flag.

Seeded quotients of ``free_algebra(n, c)`` by a random central ideal, and
Tr_0(n), each in a random rational shear with Nielsen-moved generators.
Their hulls take the general adapted-basis path (the nested
``intersect_subspace`` chain), and their IA* elements convert back to
working coordinates through a basis that is not the HNF basis.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from malcev import unitriangular as ut
from malcev.autos import make_ia_star, matrix_from_adapted
from malcev.freenil import free_algebra, hall_basis
from malcev.hull import GenGroup, lattice_hull
from malcev.lattices import intersect_subspace
from malcev.liealg import NilpotentLieAlgebra
from malcev.verify import _basis_problems
from test_autos import _adapted_entries, _ia_star_points, _ref_matrix_from_adapted
from test_hull import _nielsen, _shear, _unit
from test_lattice_integer import _ref_intersect_subspace


def _central_quotient(n, c, rng):
    """free_algebra(n, c) modulo r random integer rows of its top (central)
    layer, 1 <= r < its dimension, so the class stays c.  Row m is the top
    unit t_m plus a random combination of the last units of the layer;
    those units, then the rows, follow the lower layers in a unimodular
    change of basis, and the quotient drops the rows' coordinates."""
    alg = free_algebra(n, c)
    top = [i for i, w in enumerate(hall_basis(n, c)[1]) if w == c]
    r = rng.randint(1, len(top) - 1)
    rows = [_unit(alg.dim, i) for i in range(alg.dim) if i not in top[:r]]
    for t in top[:r]:
        rows.append(tuple(F(int(i == t)) + (rng.randint(-2, 2) if i in top[r:]
                                            else 0) for i in range(alg.dim)))
    moved = alg.change_basis(rows)[0]
    q = alg.dim - r
    return NilpotentLieAlgebra(q, {key: v[:q] for key, v in moved.brackets.items()
                                   if key[1] < q}, c)


def _case(family, shape, seed):
    """(algebra, Nielsen-moved generators) of one family member, sheared."""
    rng = random.Random(seed)
    if family == "quotient":
        alg, ngens = _central_quotient(*shape, rng), shape[0]
    else:
        alg, ngens = ut.tr0_algebra(shape)[0], shape - 1
    sheared, to_new, _ = alg.change_basis(_shear(alg.dim, rng))
    gens = [to_new(_unit(alg.dim, i)) for i in range(ngens)]
    return sheared, _nielsen(sheared, gens, rng)


# Small shapes only: a sheared Psi(2,5) quotient can take 40 s to close.
FAMILIES = {"quotient": ((2, 3), (3, 2), (2, 4), (3, 3)), "tr0": (3, 4, 5)}
SEEDS = range(3)


@pytest.mark.parametrize("family", FAMILIES)
def test_generated_hulls_off_the_flag(family):
    """On every case: intersect_subspace equals the old two-kernel
    elimination on each lower-central-series layer and on random rational
    subspaces, the adapted basis has no problems, and matrix_from_adapted
    equals the dense conversion on seeded IA* points.  Each family sends a
    case down the general adapted-basis path."""
    off_flag = 0
    for shape, seed in itertools.product(FAMILIES[family], SEEDS):
        alg, gens = _case(family, shape, seed)
        h = lattice_hull(GenGroup(alg, gens))
        assert h.algebra is alg  # the generators span: no restriction
        off_flag += not alg._on_flag
        rng = random.Random(seed)
        k, lat = alg.dim, h.lattice
        spaces = list(alg.lcs())
        spaces += [[tuple(F(rng.randint(-2, 2), rng.randint(1, 3))
                          for _ in range(k)) for _ in range(rng.randint(0, k))]
                   for _ in range(4)]
        for rows in spaces:
            assert intersect_subspace(lat, rows) == \
                _ref_intersect_subspace(lat, rows), (shape, seed, rows)
        assert _basis_problems(h) == [], (shape, seed)
        for e in _ia_star_points(h, rng):
            A = _adapted_entries(h, e)
            want = _ref_matrix_from_adapted(h, A)
            assert matrix_from_adapted(h, A) == want, (shape, seed, e)
            assert make_ia_star(h, e).matrix == want, (shape, seed, e)
    assert off_flag, family
