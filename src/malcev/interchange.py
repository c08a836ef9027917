"""JSON interchange formats (bit-exact round trips).

Rationals travel as "num/den" strings (plain "n" accepted on input);
integer fields (dimensions, indices, orders, table entries, levels) must
be JSON integers, so a float, a numeric string or a bool is rejected, and
the optional "filtered" flag must be a JSON bool; bracket indices in
algebra documents are 1-based, matching the usual mathematical labeling;
everything internal is 0-based.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .fiber import FiberGroup, HullSide
from .finite import FiniteGroup
from .hull import GenGroup, lattice_hull
from .lattices import Lattice
from .liealg import NilpotentLieAlgebra, validate_structure_constants


class FormatError(ValueError):
    """Malformed interchange document; carries a location string."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location


def format_rat(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 \
        else str(x.numerator)


def expect_object(doc, where: str):
    """doc itself, if it is a JSON object."""
    if not isinstance(doc, dict):
        raise FormatError(where, "expected a JSON object")
    return doc


def is_square(rows, n: int) -> bool:
    """rows is a list of n lists of length n."""
    return isinstance(rows, list) and len(rows) == n and \
        all(isinstance(r, list) and len(r) == n for r in rows)


def parse_int(x, where: str) -> int:
    """x itself, if it is a JSON integer (not a float, string or bool)."""
    if type(x) is not int:
        raise FormatError(where, f"expected a JSON integer, got {x!r}")
    return x


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rat(s, where: str = "rational") -> Fraction:
    """A JSON integer, or a string "n" or "n/d" in ASCII digits (d > 0)."""
    if type(s) is int:
        return Fraction(s)
    if isinstance(s, str) and _RATIONAL.fullmatch(s):
        num, _, den = s.partition("/")
        try:
            return Fraction(int(num), int(den or 1))
        except ZeroDivisionError as e:
            raise FormatError(where, f"bad rational {s!r}: {e}") from None
    raise FormatError(where, f"bad rational {s!r}")


# -- lattice -----------------------------------------------------------------

def lattice_to_doc(lat: Lattice) -> dict:
    return {"dim": lat.dim, "den": lat.den,
            "rows": [list(r) for r in lat.rows]}


# -- algebra -----------------------------------------------------------------

def algebra_to_doc(alg: NilpotentLieAlgebra) -> dict:
    brackets = []
    for (i, j), v in sorted(alg.brackets.items()):
        brackets.append([i + 1, j + 1, [format_rat(x) for x in v]])
    return {"dim": alg.dim, "class": alg.nilpotency_class, "brackets": brackets}


def algebra_from_doc(doc, where: str = "algebra") -> NilpotentLieAlgebra:
    try:
        dim = parse_int(doc["dim"], where + ".dim")
        cls = parse_int(doc["class"], where + ".class")
        entries = doc["brackets"]
    except (KeyError, TypeError) as e:
        raise FormatError(where, str(e)) from None
    if not isinstance(entries, list):
        raise FormatError(where, "brackets must be a list")
    raw = {}
    for idx, item in enumerate(entries):
        loc = f"{where}.brackets[{idx}]"
        try:
            i, j, value = item
        except (TypeError, ValueError) as e:
            raise FormatError(loc, str(e)) from None
        i, j = parse_int(i, loc) - 1, parse_int(j, loc) - 1
        if not (0 <= i < dim and 0 <= j < dim):
            raise FormatError(loc, "index out of range")
        if not isinstance(value, list) or len(value) != dim:
            raise FormatError(loc, "bracket vector has wrong length")
        raw[(i, j)] = tuple(parse_rat(x, loc) for x in value)
    report, canonical = validate_structure_constants(dim, raw)
    if not report["valid"]:
        raise FormatError(where, f"inconsistent brackets: {report['violations']}")
    try:
        alg = NilpotentLieAlgebra(dim, canonical, cls)
    except ValueError as e:
        raise FormatError(where, str(e)) from None
    report = alg.validate()
    if not report["valid"]:
        raise FormatError(where, f"not a Lie algebra: {report['violations']}")
    return alg


# -- generated group ----------------------------------------------------------

def group_to_doc(group: GenGroup) -> dict:
    return {"algebra": algebra_to_doc(group.algebra),
            "generators": [[format_rat(x) for x in g] for g in group.gen_logs],
            "filtered": bool(group.filtered)}


def group_from_doc(doc, where: str = "group") -> GenGroup:
    alg = algebra_from_doc(expect_object(doc, where).get("algebra", {}),
                           where + ".algebra")
    gens = doc.get("generators")
    if not gens or not isinstance(gens, list):
        raise FormatError(where, "nonempty generators required")
    logs = []
    for idx, g in enumerate(gens):
        if not isinstance(g, list) or len(g) != alg.dim:
            raise FormatError(f"{where}.generators[{idx}]", "wrong length")
        logs.append(tuple(parse_rat(x, f"{where}.generators[{idx}]") for x in g))
    filtered = doc.get("filtered", False)
    if type(filtered) is not bool:
        raise FormatError(f"{where}.filtered", f"expected a JSON bool: {filtered!r}")
    return GenGroup(alg, tuple(logs), filtered)


# -- automorphism ---------------------------------------------------------------

def automorphism_to_doc(matrix) -> dict:
    return {"k": len(matrix),
            "matrix": [[format_rat(x) for x in row] for row in matrix]}


def automorphism_from_doc(doc, where: str = "automorphism"):
    try:
        k = parse_int(doc["k"], where + ".k")
        rows = doc["matrix"]
    except (KeyError, TypeError) as e:
        raise FormatError(where, str(e)) from None
    if not is_square(rows, k):
        raise FormatError(where, "matrix must be k x k")
    return tuple(tuple(parse_rat(x, where) for x in row) for row in rows)


# -- finite group -----------------------------------------------------------------

def finite_group_to_doc(group: FiniteGroup) -> dict:
    return {"order": group.order, "cayley": [list(r) for r in group.cayley]}


def finite_group_from_doc(doc, where: str = "finite group") -> FiniteGroup:
    try:
        order = parse_int(doc["order"], where + ".order")
        table = [[parse_int(x, where + ".cayley") for x in row]
                 for row in doc["cayley"]]
    except (KeyError, TypeError) as e:
        raise FormatError(where, str(e)) from None
    if len(table) != order or any(len(r) != order for r in table):
        raise FormatError(where, "cayley table must be order x order")
    if any(x < 0 or x >= order for row in table for x in row):
        raise FormatError(where, "cayley entries out of range")
    try:
        return FiniteGroup(table)
    except ValueError as e:
        raise FormatError(where, str(e)) from None


# -- fiber groups ------------------------------------------------------------------

def fiber_to_doc(u) -> dict:
    return {
        "hull_group": group_to_doc(GenGroup(u.hull.algebra,
                                            tuple(u.hull.basis), True)),
        "level": u.side.level,
        "pi1": list(u.side.to_q),
        "p2": finite_group_to_doc(u.p2),
        "pi2": list(u.pi2),
        "q": finite_group_to_doc(u.side.q),
    }


def fiber_from_doc(doc, where: str = "fiber"):
    group = group_from_doc(expect_object(doc, where).get("hull_group", {}),
                           where + ".hull_group")
    hull = lattice_hull(group)
    try:
        level = parse_int(doc["level"], where + ".level")
        pi1 = [parse_int(x, where + ".pi1") for x in doc["pi1"]]
        pi2 = [parse_int(x, where + ".pi2") for x in doc["pi2"]]
    except (KeyError, TypeError) as e:
        raise FormatError(where, str(e)) from None
    q = finite_group_from_doc(doc.get("q", {}), where + ".q")
    p2 = finite_group_from_doc(doc.get("p2", {}), where + ".p2")
    try:
        side = HullSide(hull, level, pi1, q)
        return FiberGroup(side, p2, pi2)
    except ValueError as e:
        raise FormatError(where, str(e)) from None


def dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load(text: str, where: str = "document"):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"{where}:{e.lineno}:{e.colno}", e.msg) from None
