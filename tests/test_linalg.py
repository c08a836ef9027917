import itertools
import math
import random
from fractions import Fraction

import pytest

from malcev import fiber, linalg
from malcev.autos import IAStarEquations
from malcev.catalog import TORSION_NAMES, build_fiber
from malcev.hull import GenGroup, lattice_hull
from test_hull import _moved_generators


def _ref_det(A):
    """Determinant over Q by Gaussian elimination over Fraction (an oracle)."""
    n = len(A)
    M = [[Fraction(x) for x in row] for row in A]
    result = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if M[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            result = -result
        result *= M[c][c]
        for i in range(c + 1, n):
            f = M[i][c] / M[c][c]
            M[i] = [a - f * b for a, b in zip(M[i], M[c])]
    return result


def test_xgcd():
    for a, b in [(12, 18), (-4, 6), (0, 5), (7, 0), (1, 1), (-3, -9)]:
        x, y, g = linalg.xgcd(a, b)
        assert x * a + y * b == g
        assert g >= 0


def test_hnf_known():
    assert linalg.hnf([[2, 0], [0, 3], [1, 1]]) == [(1, 0), (0, 1)]
    assert linalg.hnf([[2, 4], [1, 2]]) == [(1, 2)]
    assert linalg.hnf([[0, 0], [0, 0]]) == []


def test_hnf_transform_and_kernel():
    rng = random.Random(1)
    for _ in range(50):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        H, U = linalg.hnf(rows, transform=True)
        # U * rows == H padded with zero rows
        for i in range(m):
            combo = [sum(U[i][t] * rows[t][j] for t in range(m))
                     for j in range(n)]
            expected = list(H[i]) if i < len(H) else [0] * n
            assert combo == expected
        for ker in linalg.left_kernel(rows):
            assert all(sum(ker[t] * rows[t][j] for t in range(m)) == 0
                       for j in range(n))


def test_hnf_idempotent():
    rng = random.Random(2)
    for _ in range(30):
        rows = [[rng.randint(-6, 6) for _ in range(4)] for _ in range(3)]
        H = linalg.hnf(rows)
        assert linalg.hnf(H) == H


def test_snf_invariants():
    assert linalg.snf_invariants([[2, 0], [0, 2]]) == [2, 2]
    assert linalg.snf_invariants([[2, 0], [0, 1]]) == [2]
    assert linalg.snf_invariants([[1, 0], [0, 1]]) == []
    # divisibility chain on random matrices
    rng = random.Random(3)
    for _ in range(40):
        rows = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        inv = linalg.snf_invariants(rows)
        for a, b in zip(inv, inv[1:]):
            assert b % a == 0
    # nonsingular square matrices: the invariants multiply to |det|
    rng = random.Random(5)
    checked = 0
    while checked < 60:
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        det = _ref_det(rows)
        if det == 0:
            continue
        prod = 1
        for d in linalg.snf_invariants(rows):
            prod *= d
        assert prod == abs(det)
        checked += 1
    # any shape: the nonzero diagonal has one entry per unit of rank, and
    # the invariants are the quotients of the determinantal divisors
    rng = random.Random(6)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.3:  # force a rank drop
            rows[-1] = [a + b for a, b in zip(rows[0], rows[-1])] if m > 1 \
                else [0] * n
        diag, _, _ = linalg.snf_with_transforms(rows, n)
        _, pivots = linalg.rref(rows)
        assert len([d for d in diag if d]) == len(pivots)
        expect = []
        prev = 1
        for k in range(1, min(m, n) + 1):
            minors = [int(_ref_det([[rows[i][j] for j in cs] for i in rs]))
                      for rs in itertools.combinations(range(m), k)
                      for cs in itertools.combinations(range(n), k)]
            g = math.gcd(*minors)
            if g == 0:
                break
            expect.append(g // prev)
            prev = g
        assert linalg.snf_invariants(rows) == [d for d in expect if d != 1]


def _assert_smith(rows, n, diag, U, V):
    """U * rows * V is diag padded by zeros, diag is a positive divisibility
    chain, and U and V are unimodular."""
    m = len(rows)
    assert all(d > 0 for d in diag)
    assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
    prod = linalg.mat_mul(linalg.mat_mul(U, rows), V) if rows else ()
    for i in range(m):
        for j in range(n):
            assert prod[i][j] == (diag[i] if i == j and i < len(diag) else 0)
    assert len(U) == m and len(V) == n
    assert m == 0 or linalg.unimodular_inverse(U) is not None
    assert n == 0 or linalg.unimodular_inverse(V) is not None


def test_snf_transforms():
    assert linalg.snf_with_transforms([], 3) == \
        ([], [], [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert linalg.snf_with_transforms([[2, 0], [0, 3]])[0] == [1, 6]
    assert linalg.snf_with_transforms([[4, 0, 0], [0, 6, 0], [0, 0, 0]])[0] \
        == [2, 12]
    rng = random.Random(4)
    for _ in range(300):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        rows = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(m)]
        if m > 1 and rng.random() < 0.3:  # force a rank drop
            a, b = rng.sample(range(m), 2)
            rows[b] = [x - 2 * y for x, y in zip(rows[a], rows[b])] \
                if rng.random() < 0.5 else [0] * n
        if rng.random() < 0.3:  # a common factor
            f = rng.randint(2, 6)
            rows = [[f * x for x in r] for r in rows]
        diag, U, V = linalg.snf_with_transforms(rows, n)
        _assert_smith(rows, n, diag, U, V)
        _, pivots = linalg.rref(rows)
        assert len(diag) == len(pivots)


# The Smith diagonals of every IA* stratum, saturated and raw, recorded with
# the elimination routine that the Hermite-form construction replaced.
STRATA_DIAGONALS = {
    "Psi(2,4)": ([[1] * 8, [1] * 3, []], [[2] * 2 + [6] * 6, [2] * 3, []]),
    "Psi(3,3)": ([[1] * 24, []], [[2] * 24, []]),
    "Psi(2,5)": ([[1] * 26, [1] * 15, [1] * 6, []],
                 [[2] * 20 + [6] * 6, [2] * 3 + [6] * 12, [2] * 6, []]),
    "UT(4)": ([[1] * 3, []], [[2, 2, 6], []]),
    "UT(5)": ([[1] * 16, [1] * 6, []],
              [[2] * 6 + [6] * 8 + [12] * 2, [2] * 6, []]),
}


@pytest.mark.parametrize("name", sorted(STRATA_DIAGONALS))
def test_snf_transforms_on_ia_strata(name):
    alg, gens, _ = _moved_generators(name, random.Random(0), moves=0)
    hull = lattice_hull(GenGroup(alg, gens))
    for saturate, expected in zip((True, False), STRATA_DIAGONALS[name]):
        eq = IAStarEquations(hull, saturate=saturate)
        assert [s.snf[0] for s in eq.strata] == expected
        for s in eq.strata:
            rows = [list(lin) for lin, _ in s.rows]
            _assert_smith(rows, len(s.vars), *s.snf)


def test_snf_transforms_on_free_abelianization_relations(monkeypatch):
    seen, snf = [], linalg.snf_with_transforms

    def spy(rows, n_cols=None):
        out = snf(rows, n_cols)
        seen.append((rows, n_cols, out))
        return out

    monkeypatch.setattr(linalg, "snf_with_transforms", spy)
    for name in TORSION_NAMES:
        fiber.free_abelianization_check(build_fiber(name))
    monkeypatch.undo()
    assert [(len(rows), n) for rows, n, _ in seen] == \
        [(2, 2), (2, 2), (2, 2), (5, 3), (7, 4)]
    for rows, n, (diag, U, V) in seen:
        _assert_smith(rows, n, diag, U, V)


def test_saturation():
    # row span of [[2, 0]] saturates to itself; [[2, 4]] saturates to [[1, 2]]
    assert linalg.saturate_rows([[2, 4]], 2) == [[1, 2]]
    sat = linalg.saturate_rows([[2, 0], [0, 2]], 2)
    assert linalg.hnf(sat) == [(1, 0), (0, 1)]
