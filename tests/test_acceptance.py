"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Every tolerance is exact (the package never uses floating point); counting
and surjectivity criteria are pinned to their stated values.  Suites are
computed once per session and shared across the criteria they support.
"""

import json
import time
from pathlib import Path

from malcev.verify import (SUITE_FUNCS, suite_basis, suite_bch_oracle,
                           suite_csp, suite_fiber, suite_free_iso, suite_hull,
                           suite_ia_structure, suite_strong_approx)

_CACHE = {}


def _suite(name, func):
    if name not in _CACHE:
        start = time.perf_counter()
        rep = func(seed=0)
        _CACHE[name] = (rep, time.perf_counter() - start)
    return _CACHE[name]


def _report(criterion, rep, names, elapsed):
    selected = [c for c in rep.checks
                if any(c["name"].startswith(n) for n in names)]
    assert selected, f"no checks matched {names}"
    ok = all(c["status"] == "pass" for c in selected)
    line = (f"{'PASS' if ok else 'FAIL'} criterion {criterion} "
            f"[{elapsed:.1f}s suite]: "
            + "; ".join(f"{c['name']} ({c['status']})" for c in selected))
    print(line)
    for c in selected:
        assert c["status"] == "pass", f"{c['name']}: {c['detail']}"


def test_criterion_01_bch_oracle_equivalence():
    rep, dt = _suite("bch-oracle", suite_bch_oracle)
    _report(1, rep, ["bch matrix oracle"], dt)


def test_criterion_02_exp_log_roundtrip():
    rep, dt = _suite("bch-oracle", suite_bch_oracle)
    _report(2, rep, ["exp/log round-trip"], dt)


def test_criterion_03_heisenberg_hull():
    rep, dt = _suite("hull", suite_hull)
    _report(3, rep, ["heisenberg hull lattice", "one-step closure",
                     "idempotence", "monotonicity", "minimality"], dt)


def test_criterion_04_adapted_basis_catalog():
    rep, dt = _suite("basis", suite_basis)
    assert len(rep.checks) == 10
    _report(4, rep, ["adapted basis:"], dt)


def test_criterion_05_ia_star_structure():
    rep, dt = _suite("ia-structure", suite_ia_structure)
    _report(5, rep, ["heisenberg IA* count", "product/inverse closure",
                     "psi_{2,3} bound-1 closure", "abelian IA* trivial"], dt)


def test_criterion_06_strong_approximation():
    rep, dt = _suite("strong-approx", suite_strong_approx)
    heis = [c for c in rep.checks if c["name"].startswith("heisenberg m=")]
    psi = [c for c in rep.checks if c["name"].startswith("psi23 m=")]
    assert len(heis) == 7 and len(psi) == 7  # m in {2..8} on both hulls
    _report(6, rep, ["heisenberg m=", "psi23 m=", "abelian vacuous",
                     "m=1 trivial"], dt)


def test_criterion_07_csp_witnesses():
    rep, dt = _suite("csp", suite_csp)
    assert len(rep.checks) >= 12
    assert not rep.inconclusive, "criterion demands zero inconclusive results"
    _report(7, rep, [""], dt)


def test_criterion_08_fiber_reconstruction():
    rep, dt = _suite("fiber", suite_fiber)
    recon = [c for c in rep.checks if c["name"].startswith("reconstruction")]
    assert len(recon) == 6 + 4  # z2z4 at t|m<=12, heis3 at t|m<=12
    _report(8, rep, ["find_t z2z4", "find_t heis3", "reconstruction"], dt)


def test_criterion_09_lifting():
    rep, dt = _suite("fiber", suite_fiber)
    _report(9, rep, ["lifting", "incompatible pair rejected",
                     "finite fiber product"], dt)


def test_criterion_10_free_isomorphism():
    rep, dt = _suite("free-iso", suite_free_iso)
    boxes = [c for c in rep.checks if c["name"].startswith("bijection box")]
    assert len(boxes) == 3  # (2,2), (2,3), (3,2)
    _report(10, rep, ["bijection box", "sampled roundtrip", "composition law",
                      "tuple box matches", "aut_restriction"], dt)


def test_criterion_11_free_abelianization():
    rep, dt = _suite("fiber", suite_fiber)
    gamma = [c for c in rep.checks if c["name"].startswith("free abelianization")]
    assert len(gamma) == 5  # every torsion catalog entry
    _report(11, rep, ["free abelianization"], dt)


def test_criteria_complete_and_kernel_examples():
    """The torsion-shift kernel enumerations ride with the fiber suite."""
    rep, dt = _suite("fiber", suite_fiber)
    _report("K", rep, ["torsion-shift kernel"], dt)


def test_reports_match_the_pinned_seed0_run():
    """Every suite's report, less its timings, as `malcev verify all` gave it
    when tests/data/verify_all_seed0.json was recorded."""
    pinned = json.loads((Path(__file__).parent / "data"
                         / "verify_all_seed0.json").read_text())
    assert [doc["suite"] for doc in pinned] == list(SUITE_FUNCS)
    for want in pinned:
        rep, _ = _suite(want["suite"], SUITE_FUNCS[want["suite"]])
        got = json.loads(json.dumps(rep.to_doc()))
        for check in got["checks"]:
            del check["seconds"]
        assert got == want
