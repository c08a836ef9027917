import itertools
import math
import random
from fractions import Fraction as F

import pytest

from malcev import bch, compiled, unitriangular as ut
from malcev.catalog import build_hull, entry_by_name
from malcev.errors import AlgebraMismatch
from malcev.freenil import free_algebra, psi_group
from malcev.liealg import (GroupElement, NilpotentLieAlgebra, add_vec,
                           scale_vec, validate_structure_constants, vec,
                           zero_vec)
from malcev.linalg import mat_mul


def _ref_commutator(a, b):
    """The matrix commutator a b - b a."""
    return ut.mat_add(mat_mul(a, b), ut.mat_scale(-1, mat_mul(b, a)))


def _ref_root(g, m):
    """The m-th root of a group element: its log divided by m."""
    return g ** F(1, m)


def reference_bch(alg, x, y):
    """Slow reference: BCH summed term by term on Fraction vectors.

    Each left-normed bracket of ``bch.bch_terms`` is evaluated with the
    algebra's bracket, memoized per prefix, independently of the compiled
    map that ``NilpotentLieAlgebra.bch`` evaluates.
    """
    letters = (vec(x), vec(y))
    memo = {}

    def value(word):
        v = memo.get(word)
        if v is None:
            if len(word) == 1:
                v = letters[word[0]]
            else:
                v = alg.bracket(value(word[:-1]), letters[word[-1]])
            memo[word] = v
        return v

    total = zero_vec(alg.dim)
    for word, coeff in bch.bch_terms(alg.nilpotency_class):
        total = add_vec(total, scale_vec(coeff, value(word)))
    return total


def _ref_exp_letter(letter, cap):
    """exp of one letter as a word series, by cap - 1 series products and a
    factorial loop (the former ``bch._exp_letter``)."""
    out = {(): F(1)}
    term = {(): F(1)}
    x = {(letter,): F(1)}
    for i in range(1, cap + 1):
        term = bch._mul(term, x, cap)
        f = F(1, 1)
        for j in range(1, i + 1):
            f /= j
        for w, c in term.items():
            out[w] = out.get(w, 0) + c * f
    return out


@pytest.mark.parametrize("c", range(8))
def test_bch_terms_match_the_series_product_exponential(c, monkeypatch):
    """The closed form {(l,)^i: 1/i!} is the old series-product exp, and
    bch_terms(c) for c <= 7 is bit-identical with the old one swapped in."""
    for letter in (0, 1):
        assert bch._exp_letter(letter, c) == _ref_exp_letter(letter, c)
    terms = bch.bch_terms(c)
    monkeypatch.setattr(bch, "_exp_letter", _ref_exp_letter)
    assert bch.bch_terms.__wrapped__(c) == terms


def heisenberg():
    return NilpotentLieAlgebra(3, {(0, 1): (0, 0, 1)})


def test_validate_abelian():
    alg = NilpotentLieAlgebra.abelian(3)
    report = alg.validate()
    assert report["valid"] and report["class"] == 1


def test_validate_heisenberg_against_matrix_commutators():
    alg = heisenberg()
    report = alg.validate()
    assert report["valid"] and report["class"] == 2
    # oracle: the same constants arise from 3x3 matrix commutators
    tr0, pairs = ut.tr0_algebra(3)
    for (i, j), v in alg.brackets.items():
        A = ut.matrix_from_coords(3, tuple(int(i == t) for t in range(3)), pairs)
        B = ut.matrix_from_coords(3, tuple(int(j == t) for t in range(3)), pairs)
        assert ut.coords_from_matrix(3, _ref_commutator(A, B), pairs) == v


def test_antisymmetry_violation():
    raw = {(0, 1): (0, 0, 1), (1, 0): (0, 0, 1)}
    report, _ = validate_structure_constants(3, raw)
    assert not report["valid"]
    assert ("antisymmetry", (0, 1)) in report["violations"]


def test_bracket_examples():
    ab = NilpotentLieAlgebra.abelian(2)
    assert ab.bracket((1, 0), (0, 1)) == zero_vec(2)
    alg, pairs = ut.tr0_algebra(3)
    e12 = vec((1, 0, 0))
    e23 = vec((0, 1, 0))
    assert alg.bracket(e12, e23) == vec((0, 0, 1))  # [e12, e23] = e13
    x = vec((2, F(1, 3), 5))
    assert alg.bracket(x, x) == zero_vec(3)


def test_matrix_log_exp_examples():
    ident = ut.identity(3)
    assert ut.matrix_log(ident) == ut.zero(3)
    assert ut.matrix_exp(ut.zero(3)) == ident
    single = ((F(1), F(7, 2), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1)))
    logm = ut.matrix_log(single)
    assert logm[0][1] == F(7, 2) and logm[0][2] == 0
    # superdiagonal (1,1), corner 0: log corner is -1/2
    m = ((F(1), F(1), F(0)), (F(0), F(1), F(1)), (F(0), F(0), F(1)))
    assert ut.matrix_log(m)[0][2] == F(-1, 2)
    # exp(e12 + e23): corner 1/2
    n = ((F(0), F(1), F(0)), (F(0), F(0), F(1)), (F(0), F(0), F(0)))
    e = ut.matrix_exp(n)
    assert e[0][1] == 1 and e[1][2] == 1 and e[0][2] == F(1, 2)
    with pytest.raises(ValueError):
        ut.matrix_log(n)
    with pytest.raises(ValueError):
        ut.matrix_exp(single)


def test_exp_log_roundtrip_random():
    rng = random.Random(0)
    for _ in range(100):
        n = rng.randint(2, 4)
        U = [[F(int(i == j)) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                U[i][j] = F(rng.randint(-3, 3), rng.randint(1, 4))
        U = tuple(tuple(r) for r in U)
        assert ut.matrix_exp(ut.matrix_log(U)) == U


def test_bch_examples():
    ab = NilpotentLieAlgebra.abelian(2)
    assert ab.bch((1, 2), (3, 4)) == vec((4, 6))
    alg, pairs = ut.tr0_algebra(3)
    x = vec((1, 0, 0))
    y = vec((0, 1, 0))
    z = alg.bch(x, y)
    assert z == vec((1, 1, F(1, 2)))  # x + y + [x,y]/2
    X = ut.matrix_from_coords(3, x, pairs)
    Y = ut.matrix_from_coords(3, y, pairs)
    oracle = ut.matrix_log(ut.mat_mul(ut.matrix_exp(X), ut.matrix_exp(Y)))
    assert z == ut.coords_from_matrix(3, oracle, pairs)
    v = vec((2, F(1, 2), -1))
    assert alg.bch(v, tuple(-t for t in v)) == zero_vec(3)
    assert alg.bch(v, zero_vec(3)) == v


def test_lcs():
    ab = NilpotentLieAlgebra.abelian(2)
    assert len(ab.lcs()) == 2  # gamma_1, gamma_2 = 0
    alg = heisenberg()
    chain = alg.lcs()
    assert [len(g) for g in chain] == [3, 1, 0]
    assert chain[1][0] == vec((0, 0, 1))
    psi = psi_group(2, 3)
    assert [len(g) for g in psi.algebra.lcs()] == [5, 3, 2, 0]


def test_group_ops():
    alg = heisenberg()
    rng = random.Random(1)
    for _ in range(20):
        g = GroupElement(alg, vec(F(rng.randint(-4, 4), rng.randint(1, 3))
                                  for _ in range(3)))
        assert not any((g * g.inverse()).log)
        for m in (2, 3, 5):
            assert (_ref_root(g, m) ** m).log == g.log
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        assert ((g ** a) * (g ** b)).log == (g ** (a + b)).log


def test_group_associativity_random_triples():
    psi = psi_group(2, 3)
    alg = psi.algebra
    rng = random.Random(2)
    for _ in range(100):
        g, h, k = (GroupElement(
            alg, vec(F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(5)))
            for _ in range(3))
        assert ((g * h) * k).log == (g * (h * k)).log


def test_algebra_mismatch():
    a = NilpotentLieAlgebra.abelian(2)
    b = NilpotentLieAlgebra.abelian(2)
    with pytest.raises(AlgebraMismatch):
        GroupElement.identity(a) * GroupElement.identity(b)


def test_compiled_bch_matches_generic():
    alg, _ = ut.tr0_algebra(3)
    comp = alg.bch_compiled()
    # on the closed lattice <e12, e23, e13/2> in its own basis the compiled
    # map is integral; compare through the basis change
    hull_basis = [vec((1, 0, 0)), vec((0, 1, 0)), vec((0, 0, F(1, 2)))]
    adapted, to_new, to_old = alg.change_basis(hull_basis)
    comp2 = adapted.bch_compiled()
    rng = random.Random(3)
    for _ in range(50):
        u = tuple(rng.randint(-3, 3) for _ in range(3))
        v = tuple(rng.randint(-3, 3) for _ in range(3))
        got = comp2.eval_int(u + v)
        expect = to_new(reference_bch(alg, to_old(vec(u)), to_old(vec(v))))
        assert vec(got) == vec(expect)
        assert comp2.eval_rat(u + v) == expect


def test_binomial_vectors():
    """x^e = sum_j S(e, j) j! C(x, j): coefficients in the binomial basis."""
    x, y = (0,), (1,)

    def vectors(*polys):
        return sorted(compiled.binomial_vectors(list(polys)))

    # x(x-1)/2 = C(x, 2); x^3/6 - x/6 = C(x, 3) + C(x, 2)
    assert vectors({x + x: F(1, 2), x: F(-1, 2)}) == [(1,)]
    assert vectors({x * 3: F(1, 6), x: F(-1, 6)}) == [(1,), (1,)]
    # x^2/2 = C(x, 2) + C(x, 1)/2 is not integer-valued
    assert vectors({x + x: F(1, 2)}) == [(F(1, 2),), (1,)]
    # (x y, x^2 y): x^2 y = 2 C(x, 2) C(y, 1) + C(x, 1) C(y, 1)
    assert vectors({x + y: F(1)}, {x + x + y: F(1)}) == [(0, 2), (1, 1)]
    assert compiled.binomial_vectors([{}, {}]) == []


def test_bch_symbolic_in_a_basis():
    """Letters written in a basis: the polynomials evaluate to BCH of the
    combinations; the default basis is the algebra's own."""
    alg = free_algebra(2, 3)
    k = alg.dim
    assert compiled.bch_symbolic(alg) == compiled.bch_symbolic(
        alg, [[int(i == t) for t in range(k)] for i in range(k)])
    basis = [(1, 1, 0, 0, 0), (0, 2, F(1, 2), 0, 0), (0, 0, 0, F(1, 3), 1)]
    comp = compiled.compile_polys(compiled.bch_symbolic(alg, basis))
    rng = random.Random(5)
    for _ in range(10):
        a = [rng.randint(-3, 3) for _ in basis]
        b = [rng.randint(-3, 3) for _ in basis]
        u, v = (tuple(sum(c * row[l] for c, row in zip(w, basis))
                      for l in range(k)) for w in (a, b))
        assert comp.eval_rat(tuple(F(t) for t in a + b)) == reference_bch(alg, u, v)


def _scaled_adapted(alg):
    """alg in the basis e_i / (i + 2): non-integer structure constants."""
    k = alg.dim
    adapted, _, _ = alg.change_basis(
        [tuple(F(int(i == t), i + 2) for t in range(k)) for i in range(k)])
    assert any(x.denominator != 1 for w in adapted.brackets.values() for x in w)
    return adapted


# Fraction-coefficient polynomials (monomial -> Fraction), the reference
# arithmetic that the integer core of ``compiled`` replaced.

def _ref_poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        v = out.get(m, 0) + c
        if v:
            out[m] = v
        elif m in out:
            del out[m]
    return out


def _ref_poly_scale(q, a: dict) -> dict:
    q = F(q)
    if not q:
        return {}
    return {m: q * c for m, c in a.items()}


def _ref_poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(sorted(m1 + m2))
            v = out.get(m, 0) + c1 * c2
            if v:
                out[m] = v
            elif m in out:
                del out[m]
    return out


def _ref_poly_sub(a: dict, b: dict) -> dict:
    return _ref_poly_add(a, _ref_poly_scale(-1, b))


def _ref_sym_bracket(alg, x, y):
    """Bracket of two symbolic (poly-coefficient) vectors."""
    out = [dict() for _ in range(alg.dim)]
    for (i, j), w in alg.brackets.items():
        c = _ref_poly_sub(_ref_poly_mul(x[i], y[j]), _ref_poly_mul(x[j], y[i]))
        if not c:
            continue
        for l, coeff in enumerate(w):
            if coeff:
                out[l] = _ref_poly_add(out[l], _ref_poly_scale(coeff, c))
    return out


def _ref_bch_symbolic(alg, basis=None):
    """The Fraction symbolic BCH that ``compiled.bch_symbolic`` replaced:
    every letter, bracket and bch_terms coefficient is a Fraction
    polynomial, and each bracket word is memoized per prefix."""
    k = alg.dim
    if basis is None:
        basis = [[int(i == t) for t in range(k)] for i in range(k)]
    r = len(basis)
    letters = tuple([{(s + i,): F(row[l]) for i, row in enumerate(basis)
                      if row[l]} for l in range(k)] for s in (0, r))
    memo = {}

    def value(word):
        v = memo.get(word)
        if v is None:
            if len(word) == 1:
                v = letters[word[0]]
            else:
                v = _ref_sym_bracket(alg, value(word[:-1]), letters[word[-1]])
            memo[word] = v
        return v

    out = [dict() for _ in range(k)]
    for word, coeff in bch.bch_terms(alg.nilpotency_class):
        for l, p in enumerate(value(word)):
            if p:
                out[l] = _ref_poly_add(out[l], _ref_poly_scale(coeff, p))
    return out


def _sheared_adapted(alg, rng):
    """alg in a seeded lower-triangular rational shear of its basis, with
    diagonal 1/(i+1): non-integer structure constants."""
    k = alg.dim
    rows = [tuple(F(1, i + 1) if t == i else
                  F(rng.randint(-2, 2), rng.randint(1, 3)) if t == i - 1 else 0
                  for t in range(k)) for i in range(k)]
    adapted, _, _ = alg.change_basis(rows)
    assert any(x.denominator != 1 for w in adapted.brackets.values() for x in w)
    return adapted


def _seeded_bases(k, rng):
    """(kind, basis) for a seeded integer, rational and rank-deficient basis:
    each row is a scaled unit vector plus up to two other small entries, and
    the rank-deficient one drops a row and repeats the sum of two others."""
    def row(i, entry):
        out = [0] * k
        out[i] = entry() or 1
        for t in rng.sample(range(k), min(2, k)):
            if t != i:
                out[t] = entry()
        return tuple(out)

    def integer():
        return rng.randint(-3, 3)

    def rational():
        return F(rng.randint(-3, 3), rng.randint(1, 4))

    yield "integer", [row(i, integer) for i in range(k)]
    yield "rational", [row(i, rational) for i in range(k)]
    rows = [row(i, rational) for i in range(k - 1)]
    yield "rank-deficient", rows + [tuple(a + b for a, b in zip(*rows[:2]))
                                    if len(rows) > 1 else (0,) * k]


def _symbolic_algebras():
    """(name, algebra) for the reference comparison: free and Tr_0 algebras,
    every catalog algebra and adapted catalog algebra, and a scaled and a
    sheared adapted algebra with non-integer structure constants."""
    from malcev.catalog import CATALOG, build_group
    for n, c in ((2, 3), (2, 4), (2, 5), (3, 3)):
        yield f"free({n},{c})", free_algebra(n, c)
    yield "tr0(5)", ut.tr0_algebra(5)[0]
    for entry in CATALOG:
        yield entry.name, build_group(entry).algebra
        yield "adapted " + entry.name, build_hull(entry).adapted_algebra
    yield "scaled free(2,3)", _scaled_adapted(free_algebra(2, 3))
    yield "sheared free(2,3)", _sheared_adapted(free_algebra(2, 3),
                                                random.Random(4))


def test_bch_symbolic_matches_the_fraction_reference():
    """The integer symbolic BCH, read back as Fractions, equals the Fraction
    reference dict for dict: in the algebra's own basis and in seeded
    integer, rational and rank-deficient bases.  The compiled map built from
    the integer core equals the one compiled from the reference."""
    rng = random.Random(11)
    kinds = set()
    for name, alg in _symbolic_algebras():
        assert compiled.bch_symbolic(alg) == _ref_bch_symbolic(alg), name
        assert (compiled.compile_bch(alg).coords
                == compiled.compile_polys(_ref_bch_symbolic(alg)).coords), name
        for kind, basis in _seeded_bases(alg.dim, rng):
            kinds.add(kind)
            assert (compiled.bch_symbolic(alg, basis)
                    == _ref_bch_symbolic(alg, basis)), (name, kind)
    assert kinds == {"integer", "rational", "rank-deficient"}


def test_bch_integer_is_over_its_denominator():
    """bch_integer returns int coefficients over bch_denominator.  In the
    basis (e1, e2, e3/2) of the Heisenberg hull, den = 2 and BCH is summed
    as x + y + [x, y]/4 - [y, x]/4, so T = 4 * 2^2 = 16."""
    alg = heisenberg()
    rows = [(2, 0, 0), (0, 2, 0), (0, 0, 1)]
    T, polys = compiled.bch_integer(alg, 2, rows)
    assert T == compiled.bch_denominator(alg, 2) == 16
    assert polys == [{(0,): 16, (3,): 16}, {(1,): 16, (4,): 16},
                     {(2,): 8, (5,): 8, (0, 4): 8, (1, 3): -8}]
    assert all(type(v) is int for p in polys for v in p.values())


@pytest.mark.parametrize("name", ["tr0(4)", "tr0(5)", "tr0(6)", "free(2,4)",
                                  "free(3,3)", "adapted free(2,3)"])
def test_eval_rat_matches_reference(name):
    alg = {"tr0(4)": lambda: ut.tr0_algebra(4)[0],
           "tr0(5)": lambda: ut.tr0_algebra(5)[0],
           "tr0(6)": lambda: ut.tr0_algebra(6)[0],
           "free(2,4)": lambda: free_algebra(2, 4),
           "free(3,3)": lambda: free_algebra(3, 3),
           "adapted free(2,3)": lambda: _scaled_adapted(free_algebra(2, 3))}[name]()
    k = alg.dim
    comp = alg.bch_compiled()
    rng = random.Random(sum(map(ord, name)))
    zero = zero_vec(k)

    def rand_vec():
        return tuple(F(rng.randint(-9, 9), rng.randint(1, 30)) for _ in range(k))

    cases = [(zero, zero), (zero, rand_vec()), (rand_vec(), zero)]
    cases += [(rand_vec(), rand_vec()) for _ in range(6)]
    # integer and negative lattice points: one common denominator of 1
    cases += [(tuple(F(rng.randint(-4, 4)) for _ in range(k)),
               tuple(F(-rng.randint(0, 4)) for _ in range(k)))]
    for x, y in cases:
        expect = reference_bch(alg, x, y)
        assert comp.eval_rat(x + y) == expect
        assert alg.bch(x, y) == expect
    assert alg.bch(zero, zero) == zero


def _outcome_mod(f, *args):
    try:
        return f(*args)
    except ArithmeticError as exc:
        return ArithmeticError, str(exc)


@pytest.mark.parametrize("name", ["tr0(3)", "tr0(4)", "free(2,4)", "free(3,3)",
                                  "heisenberg hull", "psi23 hull"])
def test_eval_mod_matches_eval_int_reduced(name):
    """eval_mod(args, m) is eval_int(args) reduced mod m, and raises the same
    ArithmeticError wherever eval_int finds a value that is not integral:
    the standard-basis BCH of the first four algebras has denominators, the
    adapted BCH of a hull has none."""
    alg = {"tr0(3)": lambda: ut.tr0_algebra(3)[0],
           "tr0(4)": lambda: ut.tr0_algebra(4)[0],
           "free(2,4)": lambda: free_algebra(2, 4),
           "free(3,3)": lambda: free_algebra(3, 3),
           "heisenberg hull": lambda: build_hull(
               entry_by_name("heisenberg")).adapted_algebra,
           "psi23 hull": lambda: build_hull(
               entry_by_name("psi23")).adapted_algebra}[name]()
    comp = alg.bch_compiled()
    rng = random.Random(sum(map(ord, name)))
    points = [tuple(rng.randint(-20, 20) for _ in range(2 * alg.dim))
              for _ in range(60)]
    points.append((0,) * (2 * alg.dim))
    raised = 0
    for args in points:
        ref = _outcome_mod(comp.eval_int, args)
        raised += ref[0] is ArithmeticError
        for m in (1, 2, 15, 10 ** 6):
            want = ref if ref[0] is ArithmeticError else \
                tuple(x % m for x in ref)
            assert _outcome_mod(comp.eval_mod, args, m) == want, (args, m)
    assert (raised > 0) == (name not in ("heisenberg hull", "psi23 hull"))


def test_eval_mod_raises_where_the_heisenberg_bch_has_a_half():
    """[x, y] = z in the standard basis: the z coordinate of bch(u, v) is
    z1 + z2 + (x1 y2 - x2 y1) / 2, not integral when x1 y2 - x2 y1 is odd."""
    alg, _ = ut.tr0_algebra(3)
    assert alg.brackets == {(0, 1): (0, 0, 1)}
    comp = alg.bch_compiled()
    for args in [(1, 0, 0, 0, 1, 0), (3, 2, 5, -1, 1, 4), (-1, 1, 0, 2, -3, 7)]:
        assert (args[0] * args[4] - args[1] * args[3]) % 2 == 1
        for f, extra in ((comp.eval_int, ()), (comp.eval_mod, (15,))):
            with pytest.raises(ArithmeticError, match="not integral"):
                f(args, *extra)
    args = (1, 0, 0, 0, 2, 0)
    assert comp.eval_int(args) == (1, 2, 1)
    assert comp.eval_mod(args, 2) == (1, 0, 1)


def _ref_int_structure(alg):
    """(D, brackets) built afresh: D the lcm of the denominators of the
    structure constants and (i, j, [(l, D * c_ij^l), ...]) per bracket."""
    D = math.lcm(*(x.denominator for w in alg.brackets.values() for x in w))
    return D, [(i, j, [(l, x.numerator * (D // x.denominator))
                       for l, x in enumerate(w) if x])
               for (i, j), w in alg.brackets.items()]


def test_int_structure_is_built_once_per_algebra():
    """On every catalog algebra, Tr_0(n) for n <= 6, Psi(2,5) and a sheared
    free(2,3) with D > 1, the cleared structure constants are built on the
    first call and the same object comes back after it, equal to a fresh
    build; T over den is a multiple of den, as the closure round needs."""
    from malcev.catalog import CATALOG, build_group
    algs = [build_group(e).algebra for e in CATALOG]
    algs += [ut.tr0_algebra(n)[0] for n in range(1, 7)] + [free_algebra(2, 5)]
    algs.append(_sheared_adapted(free_algebra(2, 3), random.Random(3)))
    assert _ref_int_structure(algs[-1])[0] > 1
    for alg in algs:
        first = compiled._int_structure(alg)
        assert compiled._int_structure(alg) is first, alg
        assert first == _ref_int_structure(alg), alg
        if alg.nilpotency_class:
            for den in (1, 2, 6, 35):
                assert compiled.bch_denominator(alg, den) % den == 0, (alg, den)
        fresh = NilpotentLieAlgebra(alg.dim, alg.brackets)
        assert fresh._int_structure is None
        assert compiled._int_structure(fresh) == first, alg


def test_surjections_count_the_onto_maps():
    """S(e, j) j! against the maps of e things onto j things, counted."""
    for e in range(1, 7):
        for j in range(1, e + 1):
            onto = sum(len(set(f)) == j
                       for f in itertools.product(range(j), repeat=e))
            assert compiled._surjections(e, j) == onto, (e, j)
