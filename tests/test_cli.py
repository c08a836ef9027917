import copy
import json
import random
from pathlib import Path

import pytest

from malcev import interchange as io
from malcev.catalog import build_fiber, build_group, entry_by_name
from malcev.cli import main
from malcev.unitriangular import tr0_algebra
from test_finite import swapped_cyclic_table


@pytest.fixture()
def heis_file(tmp_path):
    group = build_group(entry_by_name("heisenberg"))
    path = tmp_path / "heisenberg.json"
    path.write_text(io.dump(io.group_to_doc(group)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "hull", "--no-such-flag")
    assert code == 2


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "hull", "--group", "/nonexistent.json")
    assert code == 2 and "input error" in err


def test_hull_command(capsys, heis_file):
    code, out, _ = run(capsys, "--format", "json", "hull", "--group", heis_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["lattice"] == {"dim": 3, "den": 2,
                              "rows": [[2, 0, 0], [0, 2, 0], [0, 0, 1]]}
    assert doc["d"] == 2 and doc["layers"] == [1, 1, 2]


def test_basis_and_quotient(capsys, heis_file):
    code, out, _ = run(capsys, "--format", "json", "basis", "--group", heis_file)
    assert code == 0
    assert json.loads(out)["layers"] == [1, 1, 2]
    code, out, _ = run(capsys, "--format", "json", "quotient",
                       "--group", heis_file, "--m", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 8 and doc["index"] == 8
    grp = io.finite_group_from_doc(doc)
    assert grp.validate() == []


def test_ia_enumerate(capsys, heis_file):
    code, out, _ = run(capsys, "--format", "json", "ia-enumerate",
                       "--group", heis_file, "--bound", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 9


def test_bch_log_exp(capsys, tmp_path):
    alg, _ = tr0_algebra(3)
    algfile = tmp_path / "alg.json"
    algfile.write_text(io.dump(io.algebra_to_doc(alg)))
    code, out, _ = run(capsys, "--format", "json", "bch",
                       "--algebra", str(algfile),
                       "--x", '[1, 0, 0]', "--y", '[0, 1, 0]')
    assert code == 0
    assert json.loads(out)["bch"] == ["1", "1", "1/2"]
    mat = tmp_path / "mat.json"
    mat.write_text(io.dump({"n": 2, "matrix": [["0", "3"], ["0", "0"]]}))
    code, out, _ = run(capsys, "--format", "json", "exp", "--matrix", str(mat))
    assert code == 0
    doc = json.loads(out)
    assert doc["matrix"] == [["1", "3"], ["0", "1"]]
    umat = tmp_path / "umat.json"
    umat.write_text(io.dump(doc))
    code, out, _ = run(capsys, "--format", "json", "log", "--matrix", str(umat))
    assert code == 0
    assert json.loads(out)["matrix"] == [["0", "3"], ["0", "0"]]


def test_bch_rejects_algebra_failing_jacobi(capsys, tmp_path):
    # [e1,e2]=e3, [e1,e3]=e4, [e2,e4]=e5 is antisymmetric and nilpotent of
    # class 4, but Jacobi fails on (e1, e2, e3)
    algfile = tmp_path / "nonjacobi.json"
    algfile.write_text(io.dump({"dim": 5, "class": 4, "brackets": [
        [1, 2, ["0", "0", "1", "0", "0"]],
        [1, 3, ["0", "0", "0", "1", "0"]],
        [2, 4, ["0", "0", "0", "0", "1"]]]}))
    code, out, err = run(capsys, "--format", "json", "bch",
                         "--algebra", str(algfile),
                         "--x", "[1, 0, 0, 0, 0]", "--y", "[0, 1, 0, 0, 0]")
    assert code == 2 and out == ""
    assert "input error" in err and "('jacobi', (0, 1, 2))" in err


def test_free_commands(capsys):
    code, out, _ = run(capsys, "--format", "json", "free", "algebra",
                       "--n", "2", "--c", "2")
    assert code == 0
    assert json.loads(out)["dim"] == 3
    code, out, _ = run(capsys, "--format", "json", "free", "center",
                       "--n", "2", "--c", "2")
    assert code == 0
    assert json.loads(out)["group_center"]["rows"] == [[0, 0, 1]]
    code, out, _ = run(capsys, "--format", "json", "free", "a-iso",
                       "--n", "2", "--c", "2", "--box", "1")
    assert code == 0
    assert json.loads(out)["bijective"] is True


def test_fiber_commands(capsys, tmp_path):
    code, out, _ = run(capsys, "--format", "json", "fiber", "find-t",
                       "--entry", "z2z4")
    assert code == 0 and json.loads(out)["t"] == 2
    code, out, _ = run(capsys, "--format", "json", "fiber", "tor",
                       "--entry", "z2z4")
    assert code == 0 and json.loads(out)["order"] == 2
    code, out, _ = run(capsys, "--format", "json", "fiber", "k-tilde",
                       "--entry", "z2z4")
    assert code == 0 and json.loads(out)["order"] == 2
    # fiber build emits a loadable document
    code, out, _ = run(capsys, "--format", "json", "fiber", "build",
                       "--entry", "z2z4")
    assert code == 0
    doc = json.loads(out)
    path = tmp_path / "fiber.json"
    path.write_text(io.dump(doc))
    code, out, _ = run(capsys, "--format", "json", "fiber", "find-t",
                       "--fiber", str(path))
    assert code == 0 and json.loads(out)["t"] == 2
    # lift: sigma1 = -1 on Z, sigma2 = negation on Z/4
    sig = tmp_path / "sigma1.json"
    sig.write_text(io.dump({"k": 1, "matrix": [["-1"]]}))
    code, out, _ = run(capsys, "--format", "json", "fiber", "lift",
                       "--entry", "z2z4", "--sigma1", str(sig),
                       "--sigma2", "[0, 3, 2, 1]")
    assert code == 0 and json.loads(out)["lifted"] is True
    code, out, _ = run(capsys, "--format", "json", "fiber", "lift",
                       "--entry", "z2z4", "--sigma1", str(sig),
                       "--sigma2", "[0, 2, 1, 3]")
    assert code == 1
    code, out, _ = run(capsys, "fiber", "tor", "--entry", "no-such-entry")
    assert code == 2 and out == ""


_HEIS_ALGEBRA = io.algebra_to_doc(tr0_algebra(3)[0])
_SUBGROUP_ARGS = ("verify", "csp", "--subgroup")
_LIFT_ARGS = ("fiber", "lift", "--entry", "z2z4")
_SIGMA1_NEG = {"k": 1, "matrix": [["-1"]]}
_FIND_T_ARGS = ("fiber", "find-t", "--fiber")
_Z2Z4_FIBER = io.fiber_to_doc(build_fiber("z2z4"))
# a heisenberg subgroup of index 2, in working coordinates
_HEIS_SUBGROUP = {
    "entry": "heisenberg",
    "generators": [
        {"k": 3, "matrix": [["1", "0", "0"], ["0", "1", "0"],
                            ["1", "0", "1"]]},
        {"k": 3, "matrix": [["1", "0", "0"], ["0", "1", "0"],
                            ["0", "1/2", "1"]]},
    ],
    "index": 2,
}
_HEIS_GROUP = io.group_to_doc(build_group(entry_by_name("heisenberg")))
# wrong JSON types, by the type of the value they replace
_POISON = {int: (2.5, "1", True, None, [], {}),
           str: ("x", "1/0", "1.5", "", None, True, 1.5, [], {}),
           bool: ("yes", 1, 0, None, [], {}),
           list: (5, "x", None, {}, [[]]),
           dict: (5, "x", None, [1])}


def _slots(node):
    """(container, key) of every value below the root of a JSON document."""
    for key in (node if isinstance(node, dict) else range(len(node))):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _slots(node[key])


def _fuzzed_documents(seed, count):
    """A seeded fuzzer for the interchange loaders: each case is a valid
    document with one value swapped for one of a wrong JSON type, or one
    required key dropped; then a subgroup file for every wrong index."""
    bases = [(("bch", "--x", "[1, 0, 0]", "--y", "[0, 1, 0]", "--algebra"),
              _HEIS_ALGEBRA),
             (("hull", "--group"), _HEIS_GROUP),
             (_FIND_T_ARGS, _Z2Z4_FIBER),
             (_SUBGROUP_ARGS, _HEIS_SUBGROUP),
             (_LIFT_ARGS + ("--sigma2", "[0, 3, 2, 1]", "--sigma1"), _SIGMA1_NEG),
             (("log", "--matrix"), {"n": 2, "matrix": [["1", "1"], ["0", "1"]]})]
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        argv, doc = rng.choice(bases)
        doc = copy.deepcopy(doc)
        node, key = rng.choice(list(_slots(doc)))
        if isinstance(key, str) and key not in ("filtered", "index") and \
                rng.random() < 0.2:
            del node[key]
        else:
            node[key] = rng.choice(_POISON[type(node[key])])
        cases.append((argv, doc))
    return cases + [(_SUBGROUP_ARGS, {**_HEIS_SUBGROUP, "index": index})
                    for index in (0, -2, 3, 64, 2.0, True, None, [2])]


@pytest.mark.parametrize("argv,doc", [
    (("bch", "--x", "[1]", "--y", "[1]", "--algebra"),
     {"dim": 1, "class": 1, "brackets": 7}),
    (("bch", "--x", "[1, 0]", "--y", "[0, 1]", "--algebra"),
     {"dim": 2, "class": 2, "brackets": [[1, 2, 5]]}),
    (("hull", "--group"), {"algebra": _HEIS_ALGEBRA, "generators": [5]}),
    (("hull", "--group"), {"algebra": _HEIS_ALGEBRA, "generators": 5}),
    (("log", "--matrix"), {"n": 2, "matrix": 5}),
    (("exp", "--matrix"), {"n": 2, "matrix": [5, 6]}),
    (("hull", "--group"), [1, 2]),
    (("fiber", "build", "--fiber"), [1, 2]),
    (_SUBGROUP_ARGS, [1, 2]),
    (_SUBGROUP_ARGS, {"entry": "no-such-entry"}),
    (_SUBGROUP_ARGS, {"entry": "heisenberg", "generators": 5}),
    (_SUBGROUP_ARGS, {"entry": "heisenberg", "index": "2"}),
    (("exp", "--matrix"), {"n": 2, "matrix": [["1", "1"], ["0", "1"]]}),
    (("log", "--matrix"), {"n": 2, "matrix": [["1", "1"], ["0", "2"]]}),
    # out-of-range integer flags, with no document
    (("quotient", "--entry", "heisenberg", "--m", "0"), None),
    (("quotient", "--entry", "heisenberg", "--m", "2", "--cap-rounds", "-1"),
     None),
    (("quotient", "--entry", "heisenberg", "--m", "2", "--cap-order", "-1"),
     None),
    (("ia-enumerate", "--entry", "heisenberg", "--bound", "-1"), None),
    (("verify", "csp", "--cap-level", "-1"), None),
    (("verify", "strong-approx", "--m", "0"), None),
    (("free", "psi", "--n", "0", "--c", "2"), None),
    (("free", "algebra", "--n", "2", "--c", "0"), None),
    (("free", "a-iso", "--n", "2", "--c", "2", "--box", "-1"), None),
    (("free", "a-iso", "--n", "2", "--c", "2", "--box", "x"), None),
    # fiber lift with a missing, malformed or mis-sized sigma1 or sigma2
    (_LIFT_ARGS + ("--sigma2", "[0, 3, 2, 1]"), None),
    (_LIFT_ARGS + ("--sigma1",), _SIGMA1_NEG),
    (_LIFT_ARGS + ("--sigma2", "5", "--sigma1"), _SIGMA1_NEG),
    (_LIFT_ARGS + ("--sigma2", "{}", "--sigma1"), _SIGMA1_NEG),
    (_LIFT_ARGS + ("--sigma2", "[0, 3, 2]", "--sigma1"), _SIGMA1_NEG),
    (_LIFT_ARGS + ("--sigma2", "[0, 3, 2, 1.0]", "--sigma1"), _SIGMA1_NEG),
    (_LIFT_ARGS + ("--sigma2", '[0, 3, 2, "1"]', "--sigma1"), _SIGMA1_NEG),
    (_LIFT_ARGS + ("--sigma2", "[0, 3, 2, 4]", "--sigma1"), _SIGMA1_NEG),
    (_LIFT_ARGS + ("--sigma2", "[0, 3, 2, -1]", "--sigma1"), _SIGMA1_NEG),
    (_LIFT_ARGS + ("--sigma2", "[0, 3, 2, 1]", "--sigma1"),
     {"k": 2, "matrix": [["1", "0"], ["0", "1"]]}),
    # integer fields that are floats, numeric strings or bools
    (_FIND_T_ARGS, {**_Z2Z4_FIBER, "level": 2.5}),
    (_FIND_T_ARGS, {**_Z2Z4_FIBER, "pi2": [0.25, 1.25, 0.25, 1.25]}),
    (_FIND_T_ARGS, {**_Z2Z4_FIBER, "pi2": ["0", "1", "0", "1"]}),
    (_FIND_T_ARGS, {**_Z2Z4_FIBER, "pi1": [0, True]}),
    (_FIND_T_ARGS, {**_Z2Z4_FIBER, "q": {
        "order": 2, "cayley": [[0.5, 1.5], [1.5, 0.5]]}}),
    (_FIND_T_ARGS, {**_Z2Z4_FIBER, "p2": {**_Z2Z4_FIBER["p2"],
                                          "order": 4.0}}),
    (("log", "--matrix"), {"n": 2.9, "matrix": [["1", "1"], ["0", "1"]]}),
    (("bch", "--x", "[true, false]", "--y", "[1, 0]", "--algebra"),
     {"dim": 2, "class": 1, "brackets": []}),
    (("bch", "--x", "[1, 0]", "--y", "[1, 0]", "--algebra"),
     {"dim": "2", "class": 1, "brackets": []}),
    (("bch", "--x", "[1, 0, 0]", "--y", "[0, 1, 0]", "--algebra"),
     {**_HEIS_ALGEBRA, "class": 2.0}),
    (("bch", "--x", "[1, 0, 0]", "--y", "[0, 1, 0]", "--algebra"),
     {"dim": 3, "class": 2, "brackets": [[1.0, 2, ["0", "0", "1"]]]}),
    (_LIFT_ARGS + ("--sigma2", "[0, 3, 2, 1]", "--sigma1"),
     {"k": 1.0, "matrix": [["-1"]]}),
    # rationals that int() would accept but the "n" / "n/d" format does not
    (("log", "--matrix"), {"n": 2, "matrix": [["1", "1_0"], ["0", "1"]]}),
    (("log", "--matrix"), {"n": 2, "matrix": [["1", " 3 "], ["0", "1"]]}),
    (("log", "--matrix"), {"n": 2, "matrix": [["1", "1_0/3"], ["0", "1"]]}),
    (("log", "--matrix"), {"n": 2, "matrix": [["1", "\u0663"], ["0", "1"]]}),
    # integer flags take ASCII digits with an optional minus sign only
    (("quotient", "--entry", "heisenberg", "--m", "\u0663"), None),
    (("quotient", "--entry", "heisenberg", "--m", "+2"), None),
    (("quotient", "--entry", "heisenberg", "--m", " 2"), None),
    (("verify", "hull", "--seed", "1_0"), None),
    (("verify", "hull", "--seed", "\u0663"), None),
    # a subgroup generator of the wrong size
    (_SUBGROUP_ARGS, {"entry": "heisenberg", "generators": [
        {"k": 2, "matrix": [["1", "0"], ["0", "1"]]}]}),
    # a supplied index that is not the subgroup's (it has index 2)
    (_SUBGROUP_ARGS, {**_HEIS_SUBGROUP, "index": 1}),
    # a P2 table of order 520 that is not associative, over a trivial Q
    (("fiber", "build", "--fiber"), {
        **_Z2Z4_FIBER, "level": 1, "pi1": [0], "pi2": [0] * 520,
        "q": {"order": 1, "cayley": [[0]]},
        "p2": {"order": 520, "cayley": swapped_cyclic_table()}}),
] + _fuzzed_documents(seed=0, count=64))
def test_malformed_documents_are_input_errors(capsys, tmp_path, argv, doc):
    if doc is not None:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv += (str(path),)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "input error" in err and "Traceback" not in err


@pytest.mark.parametrize("name", ["fiber_z2z4_bad_pi1.json",
                                  "fiber_z2z4_bad_pi2.json"])
def test_fiber_values_outside_q_are_input_errors(capsys, name):
    path = Path(__file__).parent / "data" / name
    code, out, err = run(capsys, "fiber", "build", "--fiber", str(path))
    assert code == 2 and out == ""
    assert "input error" in err and "is not an element of Q" in err
    assert "Traceback" not in err


def test_fiber_with_an_empty_p2_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**_Z2Z4_FIBER,
                                "p2": {"order": 0, "cayley": []}}))
    code, out, err = run(capsys, "fiber", "build", "--fiber", str(path))
    assert code == 2 and out == ""
    assert "input error" in err and "empty Cayley table" in err
    assert "Traceback" not in err


def test_verify_hull_suite(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify", "hull")
    assert code == 0
    doc = json.loads(out)
    assert doc["reports"][0]["passed"] is True


def test_verify_catalog_flag_is_gone(capsys):
    code, out, _ = run(capsys, "verify", "all", "--catalog", "default")
    assert code == 2 and out == ""


def test_verify_text_output(capsys):
    code, out, _ = run(capsys, "verify", "hull", "--seed", "1")
    assert code == 0
    assert "suite hull: pass" in out


def test_verify_strong_approx_single_level(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify", "strong-approx",
                       "--m", "6", "--entry", "heisenberg")
    assert code == 0
    doc = json.loads(out)
    assert doc["solution_count"] == 36 and doc["surjective"] is True


def test_verify_csp_subgroup_file(capsys, tmp_path):
    sub = tmp_path / "subgroup.json"
    sub.write_text(io.dump(_HEIS_SUBGROUP))
    code, out, _ = run(capsys, "--format", "json", "verify", "csp",
                       "--subgroup", str(sub))
    assert code == 0
    assert json.loads(out)["m"] == 2
    # an unreachable cap is inconclusive: exit 3
    code, out, _ = run(capsys, "--format", "json", "verify", "csp",
                       "--subgroup", str(sub), "--cap-level", "1")
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["quotient", "--entry", "heisenberg", "--m", "2", "--cap-rounds", "0"],
    ["ia-enumerate", "--entry", "heisenberg", "--bound", "1",
     "--cap-rounds", "0"],
    ["verify", "strong-approx", "--m", "2", "--cap-points", "0"],
    ["verify", "strong-approx", "--cap-points", "0"],
    ["verify", "csp", "--cap-level", "0"],
])
def test_zero_caps_are_honoured_and_inconclusive(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3, (out, err)
    assert "FAIL" not in out


def test_json_reports_carry_a_verdict(capsys):
    """"inconclusive" is told apart from "fail" without scanning checks."""
    from malcev.verify import VerificationReport

    code, out, _ = run(capsys, "--format", "json", "verify", "csp",
                       "--cap-level", "0")
    assert code == 3
    doc = json.loads(out)["reports"][0]
    assert doc["passed"] is False and doc["verdict"] == "inconclusive"
    rep = VerificationReport("toy", 0)
    verdicts = [rep.verdict]
    for status in ("pass", "inconclusive", "pass", "fail", "inconclusive"):
        rep.add(status, status)
        verdicts.append(rep.to_doc()["verdict"])
    assert verdicts == ["pass", "pass", "inconclusive", "inconclusive",
                        "fail", "fail"]


def test_verify_passes_the_box_cap_through(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify", "free-iso",
                       "--cap-box", "0")
    assert code == 0
    assert json.loads(out)["reports"][0]["caps"]["box"] == 0


def test_reports_deterministic_under_seed():
    from malcev.verify import suite_hull, suite_ia_structure

    def strip(rep):
        return [(c["name"], c["status"], c["detail"]) for c in rep.checks]

    assert strip(suite_hull(seed=7)) == strip(suite_hull(seed=7))
    assert strip(suite_ia_structure(seed=3)) == strip(suite_ia_structure(seed=3))
