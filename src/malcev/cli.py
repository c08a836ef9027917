"""Command-line front end.

Exit codes: 0 success / all checks pass, 1 check failure, 2 usage or input
error, 3 a bounded search was inconclusive (never a refutation).
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import interchange as io
from .autos import (IAStarEquations, csp_witness, enumerate_ia_star,
                    strong_approx_check, LieAutomorphism)
from .catalog import (CATALOG, TORSION_NAMES, build_fiber, build_group,
                      entry_by_name)
from .errors import CapExceeded, IndexMismatch, UnsupportedInputForm
from .fiber import find_t, ia_kernel_enum, lift_automorphism, torsion_subgroup
from .freenil import central_tuple_iso, center, free_algebra, psi_group
from .hull import GenGroup, congruence_quotient, finite_quotient, lattice_hull
from .unitriangular import (is_strictly_upper, is_unitriangular, matrix_exp,
                            matrix_log)
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _read_doc(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return io.load(fh.read(), path)
    except OSError as e:
        raise io.FormatError(path, str(e)) from None


def _emit(doc, fmt: str, text_lines=None):
    if fmt == "json":
        sys.stdout.write(io.dump(doc))
    else:
        for line in (text_lines if text_lines is not None else
                     io.dump(doc).splitlines()):
            print(line)


def _load_group(args) -> GenGroup:
    if getattr(args, "entry", None):
        return build_group(entry_by_name(args.entry))
    if getattr(args, "group", None):
        return io.group_from_doc(_read_doc(args.group), args.group)
    raise io.FormatError("arguments", "need --group FILE or --entry NAME")


def _parse_vector(text: str, dim: int, where: str):
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise io.FormatError(where, e.msg) from None
    if not isinstance(raw, list) or len(raw) != dim:
        raise io.FormatError(where, f"need a JSON list of length {dim}")
    return tuple(io.parse_rat(x, where) for x in raw)


def _parse_matrix_doc(doc, where: str):
    try:
        n = io.parse_int(doc["n"], where + ".n")
        rows = doc["matrix"]
    except (KeyError, TypeError) as e:
        raise io.FormatError(where, str(e)) from None
    if not io.is_square(rows, n):
        raise io.FormatError(where, "matrix must be n x n")
    return tuple(tuple(io.parse_rat(x, where) for x in row) for row in rows)


def _matrix_doc(m):
    return {"n": len(m), "matrix": [[io.format_rat(x) for x in row] for row in m]}


def _hull_doc(hull):
    return {
        "lattice": io.lattice_to_doc(hull.lattice),
        "adapted_basis": [[io.format_rat(x) for x in b] for b in hull.basis],
        "layers": list(hull.layers),
        "layer_sizes": list(hull.layer_sizes),
        "d": hull.d,
        "restricted_dim": hull.algebra.dim,
    }


# ---------------------------------------------------------------------------


def cmd_bch(args) -> int:
    alg = io.algebra_from_doc(_read_doc(args.algebra), args.algebra)
    x = _parse_vector(args.x, alg.dim, "--x")
    y = _parse_vector(args.y, alg.dim, "--y")
    z = alg.bch(x, y)
    _emit({"bch": [io.format_rat(v) for v in z]}, args.format,
          [" ".join(io.format_rat(v) for v in z)])
    return EXIT_OK


def cmd_log(args) -> int:
    m = _parse_matrix_doc(_read_doc(args.matrix), args.matrix)
    if not is_unitriangular(m):
        raise io.FormatError(args.matrix, "log needs a unitriangular matrix")
    _emit(_matrix_doc(matrix_log(m)), args.format)
    return EXIT_OK


def cmd_exp(args) -> int:
    m = _parse_matrix_doc(_read_doc(args.matrix), args.matrix)
    if not is_strictly_upper(m):
        raise io.FormatError(args.matrix,
                             "exp needs a strictly upper triangular matrix")
    _emit(_matrix_doc(matrix_exp(m)), args.format)
    return EXIT_OK


def cmd_hull(args) -> int:
    group = _load_group(args)
    hull = lattice_hull(group, max_rounds=args.cap_rounds)
    _emit(_hull_doc(hull), args.format)
    return EXIT_OK


def cmd_basis(args) -> int:
    group = _load_group(args)
    hull = lattice_hull(group, max_rounds=args.cap_rounds)
    doc = {"adapted_basis": [[io.format_rat(x) for x in b] for b in hull.basis],
           "layers": list(hull.layers), "d": hull.d}
    _emit(doc, args.format)
    return EXIT_OK


def cmd_quotient(args) -> int:
    group = _load_group(args)
    hull = lattice_hull(group, max_rounds=args.cap_rounds)
    _, q = congruence_quotient(hull, args.m)
    grp = finite_quotient(q, cap=args.cap_order)
    doc = io.finite_group_to_doc(grp)
    doc["level"] = args.m
    doc["index"] = q.order
    _emit(doc, args.format, [f"order {grp.order} at level {args.m}"])
    return EXIT_OK


def cmd_ia_enumerate(args) -> int:
    group = _load_group(args)
    hull = lattice_hull(group, max_rounds=args.cap_rounds)
    eq = IAStarEquations(hull)
    lst = enumerate_ia_star(hull, args.bound, cap=args.cap_candidates, eq=eq)
    doc = {"bound": args.bound, "count": len(lst),
           "positions": [list(p) for p in eq.positions],
           "elements": [io.automorphism_to_doc(a.matrix) for a in lst]}
    _emit(doc, args.format,
          [f"{len(lst)} elements at bound {args.bound}"] +
          [str(a.adapted_entries) for a in lst])
    return EXIT_OK


def _verify_single_level(args) -> int:
    """verify strong-approx --m M: one level on a chosen (or default) hull."""
    group = _load_group(args) if (args.group or args.entry) else \
        build_group(entry_by_name("heisenberg"))
    hull = lattice_hull(group)
    r = strong_approx_check(hull, args.m,
                            point_cap=500_000 if args.cap_points is None
                            else args.cap_points)
    lines = [f"m={args.m}: {r['solution_count']} points, "
             f"{r['lifted']} lifted, surjective: {r['surjective']}"]
    _emit(r, args.format, lines)
    return EXIT_OK if r["surjective"] else EXIT_INCONCLUSIVE


def _verify_subgroup(args) -> int:
    """verify csp --subgroup FILE: one subgroup certificate."""
    doc = io.expect_object(_read_doc(args.subgroup), args.subgroup)
    if "entry" in doc:
        try:
            group = build_group(entry_by_name(doc["entry"]))
        except KeyError as e:
            raise io.FormatError(args.subgroup, str(e)) from None
    else:
        group = io.group_from_doc(doc.get("group", {}), args.subgroup)
    hull = lattice_hull(group)
    gens = doc.get("generators")
    if not isinstance(gens, list):
        raise io.FormatError(args.subgroup, "generators must be a list")
    mats = [io.automorphism_from_doc(g, args.subgroup) for g in gens]
    if any(len(mat) != hull.algebra.dim for mat in mats):
        raise io.FormatError(args.subgroup, f"need k = {hull.algebra.dim}")
    gens = [LieAutomorphism(hull.algebra, mat) for mat in mats]
    index = doc.get("index")
    if "index" in doc and (type(index) is not int or index < 1):
        raise io.FormatError(args.subgroup, "index must be a positive integer")
    try:
        rep = csp_witness(hull, gens, index=index, level_cap=16
                          if args.cap_level is None else args.cap_level,
                          seed=args.seed)
    except IndexMismatch as e:
        raise io.FormatError(args.subgroup, str(e)) from None
    _emit(rep, args.format, [f"status {rep['status']}, m={rep.get('m')}"])
    if rep["status"] == "certified":
        return EXIT_OK
    return EXIT_INCONCLUSIVE


def cmd_verify(args) -> int:
    if args.suite == "strong-approx" and args.m is not None:
        return _verify_single_level(args)
    if args.suite == "csp" and args.subgroup is not None:
        return _verify_subgroup(args)
    caps = {}
    if args.suite == "strong-approx" and args.cap_points is not None:
        caps["point_cap"] = args.cap_points
    if args.suite == "csp" and args.cap_level is not None:
        caps["level_cap"] = args.cap_level
    if args.suite == "free-iso" and args.cap_box is not None:
        caps["box"] = args.cap_box
    reports = run_suite(args.suite, seed=args.seed, **caps)
    lines = []
    worst = EXIT_OK
    for rep in reports:
        verdict = rep.verdict
        lines.append(f"suite {rep.suite}: "
                     f"{'FAIL' if verdict == 'fail' else verdict}")
        for c in rep.checks:
            mark = {"pass": "ok  ", "fail": "FAIL", "inconclusive": "inc "}
            lines.append(f"  {mark[c['status']]} {c['name']}"
                         f" [{c['seconds']}s] {c['detail']}")
        if verdict == "fail":
            worst = EXIT_FAIL
        elif verdict == "inconclusive" and worst == EXIT_OK:
            worst = EXIT_INCONCLUSIVE
    _emit({"reports": [r.to_doc() for r in reports]}, args.format, lines)
    return worst


def cmd_free(args) -> int:
    if args.free_cmd == "algebra":
        alg = free_algebra(args.n, args.c, cap=args.cap_dim)
        _emit(io.algebra_to_doc(alg), args.format)
        return EXIT_OK
    psi = psi_group(args.n, args.c, cap=args.cap_dim)
    if args.free_cmd == "psi":
        doc = {"group": io.group_to_doc(psi.group()),
               "hull": _hull_doc(psi.hull)}
        _emit(doc, args.format)
        return EXIT_OK
    if args.free_cmd == "center":
        z_rows, hull_center, group_center = center(psi)
        doc = {"center_dim": len(z_rows),
               "hull_center": io.lattice_to_doc(hull_center),
               "group_center": io.lattice_to_doc(group_center)}
        _emit(doc, args.format)
        return EXIT_OK
    if args.free_cmd == "a-iso":
        iso = central_tuple_iso(psi)
        count, injective = iso.box_roundtrip(args.box)
        doc = {"box": args.box, "tuples": count, "bijective": injective}
        _emit(doc, args.format,
              [f"{count} tuples round-tripped, bijective: {injective}"])
        return EXIT_OK if injective else EXIT_FAIL
    raise io.FormatError("free", f"unknown subcommand {args.free_cmd!r}")


def _load_fiber(args):
    if getattr(args, "entry", None):
        return build_fiber(args.entry)
    if getattr(args, "fiber", None):
        return io.fiber_from_doc(_read_doc(args.fiber), args.fiber)
    raise io.FormatError("arguments", "need --fiber FILE or --entry NAME")


def cmd_fiber(args) -> int:
    u = _load_fiber(args)
    if args.fiber_cmd == "build":
        doc = io.fiber_to_doc(u)
        doc["generators"] = len(u.generators())
        doc["torsion_order"] = len(u.kernel_pi2())
        _emit(doc, args.format)
        return EXIT_OK
    if args.fiber_cmd == "tor":
        tor, elems = torsion_subgroup(u)
        doc = io.finite_group_to_doc(tor)
        doc["p2_labels"] = list(elems)
        _emit(doc, args.format, [f"torsion order {tor.order}"])
        return EXIT_OK
    if args.fiber_cmd == "find-t":
        t = find_t(u, cap=args.cap_t)
        _emit({"t": t}, args.format, [f"t = {t}"])
        return EXIT_OK
    if args.fiber_cmd == "lift":
        if args.sigma1 is None or args.sigma2 is None:
            raise io.FormatError("arguments", "lift needs --sigma1 and --sigma2")
        mat = io.automorphism_from_doc(_read_doc(args.sigma1), args.sigma1)
        if len(mat) != u.hull.algebra.dim:
            raise io.FormatError(args.sigma1, f"need k = {u.hull.algebra.dim}")
        sigma1 = LieAutomorphism(u.hull.algebra, mat)
        try:
            perm = json.loads(args.sigma2)
        except json.JSONDecodeError as e:
            raise io.FormatError("--sigma2", e.msg) from None
        n = u.p2.order
        if not (isinstance(perm, list) and len(perm) == n and
                all(type(y) is int and 0 <= y < n for y in perm)):
            raise io.FormatError("--sigma2", f"need a list of {n} integers in 0..{n - 1}")
        try:
            lift_automorphism(u, sigma1, perm)
        except ValueError as e:
            _emit({"lifted": False, "reason": str(e)}, args.format,
                  [f"rejected: {e}"])
            return EXIT_FAIL
        _emit({"lifted": True}, args.format, ["lifted"])
        return EXIT_OK
    if args.fiber_cmd == "k-tilde":
        K, report = ia_kernel_enum(u)
        doc = {"order": report["order"], "closed": report["closed"],
               "shifts": [list(a.shifts) for a in K]}
        _emit(doc, args.format,
              [f"torsion-shift kernel order {report['order']} (closed: {report['closed']})"])
        return EXIT_OK
    raise io.FormatError("fiber", f"unknown subcommand {args.fiber_cmd!r}")


# ---------------------------------------------------------------------------


def _int_at_least(minimum):
    """argparse type: ASCII digits with an optional minus sign, at least
    minimum (any integer when minimum is None); anything else is exit 2."""
    def parse(text):
        if re.fullmatch("-?[0-9]+", text) and (
                minimum is None or int(text) >= minimum):
            return int(text)
        bound = "" if minimum is None else f" >= {minimum}"
        raise argparse.ArgumentTypeError(
            f"input error: {text!r} is not an integer{bound}")
    return parse


_INT, _COUNT, _POSITIVE = _int_at_least(None), _int_at_least(0), _int_at_least(1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="malcev",
        description="Exact computation with finitely generated nilpotent "
                    "groups via the Mal'cev correspondence.")
    parser.add_argument("--format", choices=("json", "text"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group_opts(p):
        p.add_argument("--group", help="group interchange file")
        p.add_argument("--entry", help="named catalog entry",
                       choices=[e.name for e in CATALOG])
        p.add_argument("--cap-rounds", type=_COUNT, default=64)

    p = sub.add_parser("bch", help="BCH product in an algebra")
    p.add_argument("--algebra", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(func=cmd_bch)

    p = sub.add_parser("log", help="matrix log of a unitriangular matrix")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=cmd_log)

    p = sub.add_parser("exp", help="matrix exp of a strictly upper matrix")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=cmd_exp)

    p = sub.add_parser("hull", help="lattice hull of a generated group")
    add_group_opts(p)
    p.set_defaults(func=cmd_hull)

    p = sub.add_parser("basis", help="adapted basis of the hull")
    add_group_opts(p)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("quotient", help="finite congruence quotient")
    add_group_opts(p)
    p.add_argument("--m", type=_POSITIVE, required=True)
    p.add_argument("--cap-order", type=_COUNT, default=4096)
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("ia-enumerate", help="IA* elements within a bound")
    add_group_opts(p)
    p.add_argument("--bound", type=_COUNT, required=True)
    p.add_argument("--cap-candidates", type=_COUNT, default=10 ** 6)
    p.set_defaults(func=cmd_ia_enumerate)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=SUITES + ("all",))
    p.add_argument("--seed", type=_INT, default=0)
    p.add_argument("--m", type=_POSITIVE, default=None,
                   help="strong-approx: check a single level")
    p.add_argument("--subgroup", default=None,
                   help="csp: certify one subgroup file")
    p.add_argument("--group", help="group file for --m")
    p.add_argument("--entry", help="catalog entry for --m",
                   choices=[e.name for e in CATALOG])
    p.add_argument("--cap-points", type=_COUNT, default=None)
    p.add_argument("--cap-level", type=_COUNT, default=None)
    p.add_argument("--cap-box", type=_COUNT, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("free", help="free nilpotent groups")
    p.add_argument("free_cmd", choices=("algebra", "psi", "center", "a-iso"))
    p.add_argument("--n", type=_POSITIVE, required=True)
    p.add_argument("--c", type=_POSITIVE, required=True)
    p.add_argument("--box", type=_COUNT, default=2)
    p.add_argument("--cap-dim", type=_COUNT, default=200)
    p.set_defaults(func=cmd_free)

    p = sub.add_parser("fiber", help="fiber products with torsion")
    p.add_argument("fiber_cmd", choices=("build", "tor", "find-t", "lift",
                                         "k-tilde"))
    p.add_argument("--fiber", help="fiber interchange file")
    p.add_argument("--entry", help="named torsion catalog entry",
                   choices=TORSION_NAMES)
    p.add_argument("--sigma1", help="hull-side automorphism file (lift)")
    p.add_argument("--sigma2", help="P2 permutation as a JSON list (lift)")
    p.add_argument("--cap-t", type=_COUNT, default=24)
    p.set_defaults(func=cmd_fiber)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except io.FormatError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except UnsupportedInputForm as e:
        print(f"unsupported input form: {e}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceeded as e:
        print(f"inconclusive: {e}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
