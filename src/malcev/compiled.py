"""Compilation of BCH and automorphism equations to integer monomials.

BCH is expanded once per algebra into polynomials in the 2k coordinates of
its two arguments, with denominators cleared; this compiled map is the only
runtime evaluator of the group law, and it has two evaluators, both in plain
int arithmetic: ``eval_int`` on integer arguments (central tuple boxes, and
through ``eval_mod``, which reduces its value mod m, the product of a
congruence quotient) and ``eval_rat`` on rational ones.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import bch
from .lattices import integer_rows
from .linalg import mat_identity

# A polynomial is a dict: monomial -> coefficient, where a monomial is a
# sorted tuple of variable indices (with repetition); () is the constant
# monomial.  Every polynomial is built with int coefficients over one
# denominator kept beside it: ``_int_structure`` clears the structure
# constants once by D, and ``_int_bracket`` brackets such polynomials.
# Only ``bch_symbolic`` reads its result back as Fractions.


class CompiledPolyMap:
    """A tuple of integer-cleared polynomials, evaluated in int arithmetic.

    ``eval_int`` raises ``ArithmeticError`` at an integer point where some
    coordinate is not integral; ``eval_mod`` is ``eval_int`` reduced mod m,
    so it raises at the same points.
    """

    def __init__(self, coords):
        # coords: list of (den, ((num, mono), ...)) per output coordinate
        self.coords = coords
        self.top = max((len(mono) for _, terms in coords for _, mono in terms),
                       default=0)

    def eval_int(self, args):
        out = []
        for den, terms in self.coords:
            s = 0
            for num, mono in terms:
                v = num
                for idx in mono:
                    v *= args[idx]
                s += v
            if den != 1:
                q, r = divmod(s, den)
                if r:
                    raise ArithmeticError("compiled map value is not integral here")
                s = q
            out.append(s)
        return tuple(out)

    def eval_mod(self, args, m: int):
        """``eval_int`` with every coordinate reduced mod m."""
        return tuple([x % m for x in self.eval_int(args)])

    def eval_rat(self, args):
        """Exact value at rational arguments (Fractions or ints).

        The arguments become integer numerators over one common denominator
        D; a degree-d monomial is scaled by D^(top-d), so each coordinate is
        one int sum over den * D^top, normalized once by ``Fraction``.
        """
        D = math.lcm(*(a.denominator for a in args))
        nums = [a.numerator * (D // a.denominator) for a in args]
        top = self.top
        scale = [D ** (top - d) for d in range(top + 1)]
        out = []
        for den, terms in self.coords:
            s = 0
            for num, mono in terms:
                v = num * scale[len(mono)]
                for idx in mono:
                    v *= nums[idx]
                s += v
            out.append(Fraction(s, den * scale[0]))
        return tuple(out)


def compile_polys(polys, den: int = 1) -> CompiledPolyMap:
    """Compile the polynomials p / den, with int or Fraction coefficients:
    each coordinate keeps its integer numerators over the least denominator
    that clears it."""
    coords = []
    for p in polys:
        monos = sorted(p)
        d, (nums,) = integer_rows([[p[m] for m in monos]])
        g = math.gcd(d * den, *nums)
        coords.append((d * den // g, tuple(zip([n // g for n in nums], monos))))
    return CompiledPolyMap(coords)


def _bracket_den(alg) -> int:
    """D, the lcm of the denominators of the structure constants."""
    return math.lcm(*(x.denominator for w in alg.brackets.values() for x in w))


def bch_denominator(alg, den: int) -> int:
    """T, the common denominator of ``bch_integer(alg, den, rows)``: the lcm
    over the words w of ``bch.bch_terms`` of den^|w| * D^(|w|-1) times the
    denominator of w's coefficient, D as in ``_bracket_den``."""
    D = _bracket_den(alg)
    return math.lcm(*(coeff.denominator * den ** len(w) * D ** (len(w) - 1)
                      for w, coeff in bch.bch_terms(alg.nilpotency_class)))


def _int_structure(alg):
    """(D, brackets): D as in ``_bracket_den`` and the list of
    (i, j, [(l, D * c_ij^l), ...]) over the nonzero constants that
    ``_int_bracket`` reads."""
    D = _bracket_den(alg)
    return D, [(i, j, [(l, x.numerator * (D // x.denominator))
                       for l, x in enumerate(w) if x])
               for (i, j), w in alg.brackets.items()]


def _int_bracket(brackets, x, y):
    """Bracket of two vectors of integer polynomials, times D: ``brackets``
    lists (i, j, [(l, D * c_ij^l), ...]) for the nonzero constants."""
    out = [{} for _ in x]
    for i, j, w in brackets:
        c: dict = {}
        for a, b, sign in ((x[i], y[j], 1), (x[j], y[i], -1)):
            for m1, c1 in a.items():
                for m2, c2 in b.items():
                    m = tuple(sorted(m1 + m2))
                    c[m] = c.get(m, 0) + sign * c1 * c2
        for l, b in w:
            o = out[l]
            for m, v in c.items():
                if v:
                    o[m] = o.get(m, 0) + b * v
    return [{m: v for m, v in o.items() if v} for o in out]


def bch_integer(alg, den: int, rows):
    """(T, polys): BCH(u, v) as integer polynomials over one denominator T.

    u = sum x_i rows[i] / den and v = sum y_i rows[i] / den, for integer
    rows of length k; the variables are x_0..x_{r-1}, y_0..y_{r-1} and
    T = ``bch_denominator(alg, den)``.  The structure constants are cleared
    once by D; the value of each left-normed bracket word of length L is
    memoized per prefix as integer polynomials over den^L * D^(L-1), and
    each word of ``bch.bch_terms`` is added with its coefficient over T.
    """
    k, r = alg.dim, len(rows)
    D, brackets = _int_structure(alg)
    T = bch_denominator(alg, den)
    letters = tuple([{(s + i,): row[l] for i, row in enumerate(rows) if row[l]}
                     for l in range(k)] for s in (0, r))
    memo: dict = {}

    def value(word):
        v = memo.get(word)
        if v is None:
            if len(word) == 1:
                v = letters[word[0]]
            else:
                v = _int_bracket(brackets, value(word[:-1]), letters[word[-1]])
            memo[word] = v
        return v

    out = [{} for _ in range(k)]
    for word, coeff in bch.bch_terms(alg.nilpotency_class):
        L = len(word)
        f = coeff.numerator * (T // (coeff.denominator * den ** L * D ** (L - 1)))
        for o, p in zip(out, value(word)):
            for m, v in p.items():
                o[m] = o.get(m, 0) + f * v
    return T, [{m: v for m, v in o.items() if v} for o in out]


def bch_symbolic(alg, basis=None):
    """BCH(u, v) as Fraction polynomials in x_0..x_{r-1}, y_0..y_{r-1}.

    u = sum x_i basis[i], v = sum y_i basis[i] (default: the algebra's basis).
    The rows are cleared to integers over one denominator and expanded by
    ``bch_integer``; each coefficient is its integer over T.
    """
    den, rows = (1, mat_identity(alg.dim)) if basis is None else integer_rows(basis)
    T, polys = bch_integer(alg, den, rows)
    return [{m: Fraction(v, T) for m, v in p.items()} for p in polys]


def _surjections(e, j):
    """S(e, j) j!, the number of surjections of e things onto j things."""
    return sum((-1) ** (j - i) * math.comb(j, i) * i ** e for i in range(j + 1))


def binomial_vectors(polys):
    """Coefficient vectors of a polynomial map in the basis prod C(x_v, j_v).

    Powers expand as x^e = sum_j S(e, j) j! C(x, j), S the Stirling numbers
    of the second kind.  Each vector is a finite difference of values at
    integer points, so the map sends Z^n into a lattice exactly when every
    vector lies in it (Polya).
    """
    out: dict = {}
    for l, p in enumerate(polys):
        for mono, coeff in p.items():
            powers = [(v, len(list(g))) for v, g in itertools.groupby(mono)]
            for js in itertools.product(*(range(1, e + 1) for _, e in powers)):
                key = tuple(zip((v for v, _ in powers), js))
                row = out.setdefault(key, [0] * len(polys))
                row[l] += coeff * math.prod(_surjections(e, j)
                                            for (_, e), j in zip(powers, js))
    return [tuple(v) for v in out.values() if any(v)]


def compile_bch(alg) -> CompiledPolyMap:
    """bch as a compiled map; args are the 2k concatenated coords.

    ``eval_rat`` is exact on any rational arguments.  ``eval_int``, and so
    ``eval_mod``, its value reduced mod m, is guaranteed integral only on
    inputs from a BCH-closed lattice expressed in a basis of that lattice.
    """
    T, polys = bch_integer(alg, 1, mat_identity(alg.dim))
    return compile_polys(polys, T)
