"""The traced run sees every call, and repeats its counts exactly."""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import spans
from malcev import catalog, freenil, hull, lattices
import malcev

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent


def traced(fn):
    tracer = spans.Tracer()
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return tracer


def test_every_binding_site_is_wrapped_and_restored():
    original = lattices.hnf_lattice
    tracer = spans.Tracer()
    tracer.install()
    try:
        for site in (lattices, hull, freenil, malcev):
            assert site.hnf_lattice is not original
        assert hull.hnf_lattice is lattices.hnf_lattice
    finally:
        tracer.uninstall()
    for site in (lattices, hull, freenil, malcev):
        assert site.hnf_lattice is original


def test_self_time_excludes_children():
    a = lattices.hnf_lattice([(1, 2, 0), (0, 3, Fraction(1, 2))])
    b = lattices.hnf_lattice([(0, 0, 5)])
    tracer = traced(lambda: lattices.lattice_sum(a, b))
    names = [tracer.names[i] for i in tracer.span_name]
    assert names[0] == "lattices.lattice_sum"
    assert "lattices.hnf_lattice" in names and "linalg.hnf" in names
    selfs = tracer.self_times()
    assert all(s >= 0 for s in selfs)
    root = tracer.span_end[0] - tracer.span_start[0]
    assert sum(selfs) == root


def test_psi25_hull_makes_2512_bch_calls():
    alg = freenil.free_algebra(2, 5)
    gens = tuple(tuple(Fraction(int(i == t)) for t in range(alg.dim))
                 for i in range(2))
    tracer = traced(lambda: hull.lattice_hull(hull.GenGroup(alg, gens)))
    assert tracer.counts()["liealg.bch"] == 2512
    assert tracer.counts()["hull.lattice_hull"] == 1


def test_psi23_level8_makes_262144_lifts():
    h = catalog.build_hull(catalog.entry_by_name("psi23"))
    eq = malcev.autos.IAStarEquations(h)
    tracer = traced(lambda: malcev.autos.strong_approx_check(h, 8, eq=eq))
    assert tracer.counts()["autos.lift"] == 8 ** 6 == 262144
    metrics = tracer.layer_metrics()
    assert metrics["autos.solutions_mod.points"] == 262144
    assert metrics["autos.lift.useful_ratio"] == 1.0


def test_benchmark_json_lists_every_per_layer_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(spans.Tracer().layer_metrics())
    names += ["trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"]
    assert [m["name"] for m in doc["per_layer"]] == names
    assert all(m["unit"] == spans.unit(m["name"]) for m in doc["per_layer"])


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", ["hull-ladder", "congruence",
                                      "fiber-levels", "element-arith"])
def test_two_traced_runs_give_identical_counts(workload):
    runs = []
    for _ in range(2):
        proc = bench("--workload", workload, "--seed", "4", "--seconds", "1",
                     "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        runs.append({k: v["value"] for k, v in metrics.items()
                     if v["unit"] != "s"})
    assert runs[0] == runs[1]
    assert runs[0]["liealg.bch.calls"] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "congruence", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
