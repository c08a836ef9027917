"""Every library name the benchmark in ``perfbench/`` binds must resolve,
and one job per workload must pass the benchmark's own gate.

``spans.TRACED`` is loaded from its file, and the ``malcev`` attributes that
``gate.py`` and ``workloads.py`` use are collected from their syntax trees.
A deletion in ``src/`` that would break ``--trace 1`` or the output gate
fails here.  A change of shape behind a name that still resolves (a return
value or an argument) fails the smoke test, which imports ``workloads`` the
way ``perfbench/run.py`` does and runs one small job of each workload.
Memory guards bound what one hull-ladder, fiber-levels or congruence pass
keeps alive.
"""

import ast
import gc
import importlib
import importlib.util
import sys
import tracemalloc
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_traced():
    spec = importlib.util.spec_from_file_location("_bench_spans",
                                                  BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def _library_names(path):
    """(module, attribute) pairs a benchmark file takes from ``malcev``."""
    tree = ast.parse(path.read_text())
    alias, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "malcev":
            for a in node.names:
                full = f"{node.module}.{a.name}"
                if _is_module(full):
                    alias[a.asname or a.name] = full
                else:
                    names.add((node.module, a.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id in alias:
            names.add((alias[node.value.id], node.attr))
    return sorted(names)


def _is_module(name):
    try:
        importlib.import_module(name)
    except ImportError:
        return False
    return True


@pytest.mark.parametrize("modname,attr,span", _load_traced())
def test_traced_name_resolves(modname, attr, span):
    mod = importlib.import_module("malcev." + modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        # the tracer patches the class's own attribute, not an inherited one
        assert meth in vars(getattr(mod, cls_name)), span
    else:
        assert callable(getattr(mod, attr)), span


@pytest.mark.parametrize("filename", ["gate.py", "workloads.py"])
def test_gate_and_workload_names_resolve(filename):
    names = _library_names(BENCH / filename)
    # both files reach matrix exp/log through ``unitriangular as ut``
    assert ("malcev.unitriangular", "matrix_exp") in names
    missing = [(m, a) for m, a in names
               if not hasattr(importlib.import_module(m), a)]
    assert not missing


# One small job of each benchmark workload, by the name the benchmark gives it.
SMOKE_JOBS = (("hull-ladder", "hull Psi(2,3)"),
              ("congruence", "csp psi23: a1 even"),
              ("fiber-levels", "lifting heis3"),
              ("element-arith", "central tuples psi(3,2) box 1"),
              ("congruence", "csp psi23: a2 = 0 mod 3"))


@pytest.fixture
def bench_workloads(monkeypatch):
    """``perfbench/workloads.py``, imported with ``perfbench/`` on the path."""
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("gate", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("workloads")
    for name in ("gate", "workloads"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("workload,job_name", SMOKE_JOBS)
def test_one_job_per_workload_passes_the_gate(bench_workloads, workload,
                                              job_name):
    wl = bench_workloads.WORKLOADS[workload]
    job = next(j for j in wl.jobs(wl.setup(1)) if j.name == job_name)
    assert job.problems(job.run()) == []


def _retained_by_one_pass(jobs):
    """Bytes that one warm pass of ``jobs`` keeps alive through its results."""
    for job in jobs:
        job.run()
    gc.collect()
    tracemalloc.start()
    try:
        kept = [job.run() for job in jobs]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(kept) == len(jobs)
    return retained


def test_a_hull_ladder_pass_keeps_under_32_kib(bench_workloads):
    """The benchmark keeps every pass's results until its run ends, so what
    one pass keeps grows ``peak_rss_mib`` with the number of passes.  One
    seed-1 hull-ladder pass, run after a warm-up pass, keeps under 32 KiB
    (about 27 KiB when the bound was set, once a hull whose adapted basis is
    its lattice's HNF basis stopped storing the identity as its inverse;
    38 KiB before)."""
    wl = bench_workloads.WORKLOADS["hull-ladder"]
    retained = _retained_by_one_pass(wl.jobs(wl.setup(1)))
    assert retained < 32 * 1024, f"{retained / 1024:.1f} KiB"


def test_a_fiber_levels_pass_keeps_under_20_kib(bench_workloads):
    """One warm seed-1 fiber-levels pass keeps under 20 KiB (about 14 KiB
    when the bound was set, once the torsion-shift tables became tuples on
    the key grid and the lifted automorphisms slotted; 28 KiB before): a
    faster pass runs more often in a timed run, so larger results would
    turn a speed-up into a larger ``peak_rss_mib``."""
    wl = bench_workloads.WORKLOADS["fiber-levels"]
    retained = _retained_by_one_pass(wl.jobs(wl.setup(1)))
    assert retained < 20 * 1024, f"{retained / 1024:.1f} KiB"


def test_a_congruence_pass_keeps_under_16_kib(bench_workloads):
    """One warm seed-1 congruence pass keeps under 16 KiB (about 8 KiB when
    the bound was set).  A congruence pass is short, so a faster one runs
    many more times in a timed run, and each keeps its results: that is
    why congruence speed-ups raise ``peak_rss_mib``."""
    wl = bench_workloads.WORKLOADS["congruence"]
    retained = _retained_by_one_pass(wl.jobs(wl.setup(1)))
    assert retained < 16 * 1024, f"{retained / 1024:.1f} KiB"
