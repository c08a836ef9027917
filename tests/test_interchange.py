from fractions import Fraction as F

import pytest

from malcev import interchange as io
from malcev.catalog import build_fiber
from malcev.finite import FiniteGroup
from malcev.lattices import Lattice, hnf_lattice
from malcev.unitriangular import tr0_algebra
from test_hull import _ref_from_elements


def test_rationals():
    assert io.format_rat(F(3, 4)) == "3/4"
    assert io.format_rat(F(5)) == "5"
    assert io.parse_rat("3/4") == F(3, 4)
    assert io.parse_rat("-7") == F(-7)
    assert io.parse_rat(2) == F(2)
    with pytest.raises(io.FormatError):
        io.parse_rat("1/0")
    with pytest.raises(io.FormatError):
        io.parse_rat("x")


def test_lattice_roundtrip_bit_exact():
    lat = hnf_lattice([(1, 0, 0), (0, 1, 0), (0, 0, F(1, 2))])
    doc = io.lattice_to_doc(lat)
    assert doc == {"dim": 3, "den": 2, "rows": [[2, 0, 0], [0, 2, 0], [0, 0, 1]]}
    again = io.load(io.dump(doc))
    assert Lattice.from_den_rows(again["dim"], again["den"], again["rows"]) == lat


def test_algebra_roundtrip():
    alg, _ = tr0_algebra(3)
    doc = io.algebra_to_doc(alg)
    again = io.algebra_from_doc(io.load(io.dump(doc)))
    assert again.dim == alg.dim
    assert again.brackets == alg.brackets
    assert again.nilpotency_class == alg.nilpotency_class
    # antisymmetry violations are rejected at parse time
    bad = {"dim": 3, "class": 2,
           "brackets": [[1, 2, ["0", "0", "1"]], [2, 1, ["0", "0", "1"]]]}
    with pytest.raises(io.FormatError):
        io.algebra_from_doc(bad)
    # non-nilpotent constants are rejected
    sl2ish = {"dim": 2, "class": 1, "brackets": [[1, 2, ["1", "0"]]]}
    with pytest.raises(io.FormatError):
        io.algebra_from_doc(sl2ish)


def test_group_roundtrip():
    alg, _ = tr0_algebra(3)
    g = _ref_from_elements(alg, [(1, 0, 0), (0, 1, 0), (0, 0, F(1, 2))],
                           filtered=True)
    doc = io.group_to_doc(g)
    again = io.group_from_doc(io.load(io.dump(doc)))
    assert again.gen_logs == g.gen_logs
    assert again.filtered
    with pytest.raises(io.FormatError):
        io.group_from_doc({"algebra": io.algebra_to_doc(alg), "generators": []})


def test_automorphism_roundtrip():
    m = ((F(1), F(0)), (F(1, 2), F(1)))
    doc = io.automorphism_to_doc(m)
    assert io.automorphism_from_doc(doc) == m
    with pytest.raises(io.FormatError):
        io.automorphism_from_doc({"k": 2, "matrix": [["1"]]})


def test_finite_group_roundtrip():
    z6 = FiniteGroup.cyclic(6)
    doc = io.finite_group_to_doc(z6)
    again = io.finite_group_from_doc(doc)
    assert again.cayley == z6.cayley
    with pytest.raises(io.FormatError):
        io.finite_group_from_doc({"order": 2, "cayley": [[0, 1], [1, 1]]})


def test_fiber_roundtrip():
    u = build_fiber("z2z4")
    doc = io.fiber_to_doc(u)
    again = io.fiber_from_doc(io.load(io.dump(doc)))
    assert again.pi2 == u.pi2
    assert again.side.to_q == u.side.to_q
    assert again.hull.lattice == u.hull.lattice


def test_load_reports_location():
    with pytest.raises(io.FormatError) as err:
        io.load("{bad json", "file.json")
    assert "file.json" in str(err.value)
