"""Nilpotent Lie algebras over Q given by explicit structure constants.

Elements are plain tuples of Fractions in the algebra basis.  The group side
(exponential coordinates of the first kind) lives in :class:`GroupElement`,
whose multiplication is the BCH formula, evaluated through the algebra's
compiled BCH map (:mod:`malcev.compiled`); powers and roots are scalar
multiplications of the log vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from . import linalg
from .compiled import compile_bch
from .errors import AlgebraMismatch, DimensionMismatch
from .lattices import Coordinates


def vec(values):
    return tuple(x if type(x) is Fraction else Fraction(x) for x in values)


_ZERO = Fraction(0)


@cache
def _identity(k):
    """The k x k Fraction identity, one shared tuple per dimension."""
    return linalg.mat_identity(k, Fraction(1))


def zero_vec(k):
    return (Fraction(0),) * k


def add_vec(a, b):
    return tuple(x + y for x, y in zip(a, b))


def scale_vec(q, a):
    q = Fraction(q)
    return tuple(q * x for x in a)


class NilpotentLieAlgebra:
    """Structure-constant Lie algebra; brackets stored sparsely for i < j."""

    def __init__(self, dim: int, brackets: dict, nilpotency_class: int | None = None):
        self.dim = dim
        table = {}
        for (i, j), value in brackets.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bracket key ({i},{j}) not in canonical i<j range")
            v = vec(value)
            if len(v) != dim:
                raise DimensionMismatch("bracket value has wrong length")
            if any(v):
                table[(i, j)] = v
        self.brackets = table
        self._lcs = None
        self._compiled_bch = None
        computed = len(self.lcs()) - 1  # raises if not nilpotent
        if nilpotency_class is None:
            nilpotency_class = computed
        elif nilpotency_class != computed:
            raise ValueError(f"declared class {nilpotency_class} but the lower"
                             f" central series vanishes at step {computed}")
        self.nilpotency_class = nilpotency_class

    @staticmethod
    def abelian(n: int) -> "NilpotentLieAlgebra":
        return NilpotentLieAlgebra(n, {}, 1)

    # -- bracket -----------------------------------------------------------

    def bracket_basis(self, i: int, j: int):
        if i == j:
            return zero_vec(self.dim)
        if i < j:
            return self.brackets.get((i, j), zero_vec(self.dim))
        v = self.brackets.get((j, i))
        return scale_vec(-1, v) if v is not None else zero_vec(self.dim)

    def bracket(self, x, y):
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("bracket operand has wrong length")
        out = [_ZERO] * self.dim
        for (i, j), v in self.brackets.items():
            if not ((x[i] and y[j]) or (x[j] and y[i])):
                continue
            c = x[i] * y[j] - x[j] * y[i]
            if c:
                for l, w in enumerate(v):
                    if w:
                        out[l] += c * w
        return tuple(out)

    # -- lower central series ----------------------------------------------

    def lcs(self):
        """Bases of gamma_1 >= gamma_2 >= ... >= gamma_{c+1} = 0.

        The last entry is always the empty basis.  gamma_{j+1} is spanned by
        the [u, e_b] = sum_i u_i [e_i, e_b] over the rows u of gamma_j, read
        from the nonzero ad columns [e_i, e_b] of the bracket table.
        """
        if self._lcs is None:
            k = self.dim
            # ad[b]: the (i, nonzero entries of [e_i, e_b]) with [e_i, e_b] != 0
            ad = [[] for _ in range(k)]
            for (i, j), v in self.brackets.items():
                entries = [(l, x) for l, x in enumerate(v) if x]
                ad[j].append((i, entries))
                ad[i].append((j, [(l, -x) for l, x in entries]))
            chain = [_identity(k)]
            while chain[-1]:
                prev = chain[-1]
                gens = []
                for u in prev:
                    for col in ad:
                        w = [_ZERO] * k
                        for i, entries in col:
                            c = u[i]
                            if c:
                                for l, x in entries:
                                    w[l] += c * x
                        if any(w):
                            gens.append(w)
                nxt = linalg.span_basis(gens)
                if len(nxt) == len(prev):
                    raise ValueError("structure constants are not nilpotent")
                chain.append(nxt)
            self._lcs = chain
        return self._lcs

    def derived_subspace(self):
        """Basis of L' = gamma_2."""
        return self.lcs()[1] if len(self.lcs()) > 1 else ()

    # -- validation ----------------------------------------------------------

    def validate(self):
        """Check antisymmetry (by construction), Jacobi, and the class.

        Returns a report dict with a list of violations (empty if valid) and
        the computed nilpotency class.
        """
        violations = []
        k = self.dim
        basis = _identity(k)
        inner = self.bracket_basis
        for i in range(k):
            for j in range(i + 1, k):
                for l in range(j + 1, k):
                    s = add_vec(
                        add_vec(self.bracket(basis[i], inner(j, l)),
                                self.bracket(basis[j], inner(l, i))),
                        self.bracket(basis[l], inner(i, j)))
                    if any(s):
                        violations.append(("jacobi", (i, j, l)))
        computed_class = len(self.lcs()) - 1
        if computed_class != self.nilpotency_class:
            violations.append(("class mismatch",
                               (self.nilpotency_class, computed_class)))
        return {"valid": not violations, "violations": violations,
                "class": computed_class}

    # -- BCH -----------------------------------------------------------------

    def bch(self, x, y):
        """z with exp(x)exp(y) = exp(z); exact, finite in a nilpotent algebra.

        Evaluated by the compiled BCH map on the rational coordinates.
        """
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("bch operand has wrong length")
        return self.bch_compiled().eval_rat((*x, *y))

    def bch_compiled(self):
        """Compiled integer-monomial form of bch in this basis (cached)."""
        if self._compiled_bch is None:
            self._compiled_bch = compile_bch(self)
        return self._compiled_bch

    # -- basis changes ---------------------------------------------------------

    def change_basis(self, new_basis_rows):
        """Structure constants w.r.t. a new basis given in current coords.

        Returns (algebra, to_new, to_old) where the converters map coordinate
        vectors between the two bases.
        """
        k = self.dim
        B = [vec(r) for r in new_basis_rows]
        if len(B) != k:
            raise DimensionMismatch("new basis must have full size")
        try:
            to_new = Coordinates.of_rows(B, k)
        except ValueError:
            raise ValueError("new basis is singular") from None

        def to_old(u):
            return tuple(sum(u[i] * B[i][j] for i in range(k)) for j in range(k))

        table = {}
        for i in range(k):
            for j in range(i + 1, k):
                w = to_new(self.bracket(B[i], B[j]))
                if any(w):
                    table[(i, j)] = w
        alg = NilpotentLieAlgebra(k, table, self.nilpotency_class)
        return alg, to_new, to_old

    def restrict(self, span_rows):
        """Subalgebra on the echelon basis ``linalg.span_basis(span_rows)``
        of a bracket-closed span."""
        S = linalg.span_basis(span_rows)
        r = len(S)
        coords = Coordinates.of_rows(S, self.dim)
        table = {}
        for i in range(r):
            for j in range(i + 1, r):
                c = coords(self.bracket(S[i], S[j]))
                if c is None:
                    raise ValueError("span is not closed under the bracket")
                if any(c):
                    table[(i, j)] = c
        return NilpotentLieAlgebra(r, table)

    def __repr__(self):
        return (f"NilpotentLieAlgebra(dim={self.dim}, "
                f"class={self.nilpotency_class}, "
                f"brackets={len(self.brackets)})")


def validate_structure_constants(dim: int, raw_brackets: dict):
    """Validate a possibly redundant bracket table (both (i,j) and (j,i)).

    Returns (report, canonical_table).  Antisymmetry violations are reported
    with their witness pair, as are inconsistent duplicate entries.
    """
    violations = []
    canonical = {}
    for (i, j), value in raw_brackets.items():
        if i == j:
            if any(Fraction(x) for x in value):
                violations.append(("antisymmetry", (i, j)))
            continue
        a, b = (i, j) if i < j else (j, i)
        v = vec(value)
        if (i, j) != (a, b):
            v = scale_vec(-1, v)
        if (a, b) in canonical:
            if canonical[(a, b)] != v:
                violations.append(("antisymmetry", (a, b)))
            continue
        canonical[(a, b)] = v
    report = {"valid": not violations, "violations": violations}
    return report, canonical


@dataclass(frozen=True)
class GroupElement:
    """Element of exp(L) in exponential coordinates of the first kind."""

    algebra: NilpotentLieAlgebra
    log: tuple

    @staticmethod
    def identity(algebra) -> "GroupElement":
        return GroupElement(algebra, zero_vec(algebra.dim))

    def _check(self, other):
        if self.algebra is not other.algebra:
            raise AlgebraMismatch("elements of different algebras")

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(self.algebra, self.algebra.bch(self.log, other.log))

    def inverse(self) -> "GroupElement":
        return GroupElement(self.algebra, scale_vec(-1, self.log))

    def __pow__(self, q) -> "GroupElement":
        """g**q for any rational q; roots are exact (q = 1/m)."""
        return GroupElement(self.algebra, scale_vec(Fraction(q), self.log))

