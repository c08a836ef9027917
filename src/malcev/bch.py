"""Baker-Campbell-Hausdorff data, exact to any nilpotency class.

The coefficients are produced structurally: log(exp(X)exp(Y)) is computed in
the free associative algebra on two letters truncated above the target
degree, and each homogeneous component is rewritten as a combination of
left-normed brackets via the Dynkin map (w -> [[...[w1,w2],...],wn] / n,
which is the identity on Lie elements of degree n).  No coefficient tables
are hardcoded; the matrix exponential oracle cross-checks the result in the
test suite.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

# words are tuples over the alphabet {0, 1}; series are dicts word -> Fraction

def _mul(a: dict, b: dict, cap: int) -> dict:
    out: dict = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            if len(w1) + len(w2) > cap:
                continue
            w = w1 + w2
            c = out.get(w, 0) + c1 * c2
            if c:
                out[w] = c
            elif w in out:
                del out[w]
    return out


def _exp_letter(letter: int, cap: int) -> dict:
    out = {(): Fraction(1)}
    term = {(): Fraction(1)}
    x = {(letter,): Fraction(1)}
    for i in range(1, cap + 1):
        term = _mul(term, x, cap)
        f = Fraction(1, 1)
        for j in range(1, i + 1):
            f /= j
        for w, c in term.items():
            out[w] = out.get(w, 0) + c * f
    return out


def _log(series: dict, cap: int) -> dict:
    w0 = dict(series)
    w0.pop((), None)  # series - 1
    out: dict = {}
    power = {(): Fraction(1)}
    for i in range(1, cap + 1):
        power = _mul(power, w0, cap)
        sign = Fraction((-1) ** (i + 1), i)
        for w, c in power.items():
            v = out.get(w, 0) + sign * c
            if v:
                out[w] = v
            elif w in out:
                del out[w]
    return out


@lru_cache(maxsize=None)
def bch_terms(nilpotency_class: int):
    """BCH as left-normed bracket terms, exact up to the given class.

    Returns a tuple of (word, coefficient) pairs; ``word`` is a tuple over
    {0, 1} (0 = first argument, 1 = second) and the term denotes coefficient
    times the left-normed bracket of the word's letters.
    """
    c = nilpotency_class
    if c < 1:
        return ()
    z = _mul(_exp_letter(0, c), _exp_letter(1, c), c)
    h = _log(z, c)
    terms = []
    for w in sorted(h, key=lambda w: (len(w), w)):
        coeff = h[w] / len(w)  # Dynkin projection
        terms.append((w, coeff))
    return tuple(terms)
