"""Span tracing of the library's layers from outside the library.

``Tracer.install`` replaces each traced function at every binding site: the
attribute of the module that defines it, every name bound to it by
``from ... import ...`` in the ``malcev`` modules and the benchmark's own
modules, and class attributes for methods.  Each call records one span
(name, start, end, parent span, job id) in flat in-memory arrays; spans are
written out once, by ``write_spans``.  ``uninstall`` puts the originals back.
The untraced run never constructs a Tracer.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter_ns

# (module, qualified attribute, span name); a dotted attribute is a method.
TRACED = (
    ("liealg", "NilpotentLieAlgebra.bch", "liealg.bch"),
    ("liealg", "NilpotentLieAlgebra.bracket", "liealg.bracket"),
    ("compiled", "CompiledPolyMap.eval_int", "compiled.eval_int"),
    ("compiled", "compile_bch", "compiled.compile_bch"),
    ("linalg", "hnf", "linalg.hnf"),
    ("linalg", "snf_with_transforms", "linalg.snf_with_transforms"),
    ("linalg", "snf_invariants", "linalg.snf_invariants"),
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "saturate_rows", "linalg.saturate_rows"),
    ("lattices", "hnf_lattice", "lattices.hnf_lattice"),
    ("lattices", "lattice_sum", "lattices.lattice_sum"),
    ("lattices", "intersect_subspace", "lattices.intersect_subspace"),
    ("lattices", "Lattice.member", "lattices.Lattice.member"),
    ("hull", "lattice_hull", "hull.lattice_hull"),
    ("hull", "_closure_candidates", "hull.closure"),
    ("hull", "adapted_basis", "hull.adapted_basis"),
    ("hull", "congruence_scale", "hull.congruence_scale"),
    ("hull", "LatticeQuotient.__init__", "hull.LatticeQuotient.init"),
    ("hull", "LatticeQuotient.mul", "hull.LatticeQuotient.mul"),
    ("autos", "IAStarEquations.__init__", "autos.IAStarEquations.init"),
    ("autos", "IAStarEquations.solutions_mod", "autos.solutions_mod"),
    ("autos", "IAStarEquations.lift", "autos.lift"),
    ("autos", "mod_m_group", "autos.mod_m_group"),
    ("autos", "subgroup_closure_mod", "autos.subgroup_closure_mod"),
    ("autos", "csp_witness", "autos.csp_witness"),
    ("fiber", "level_quotient", "fiber.level_quotient"),
    ("fiber", "reconstruction_check", "fiber.reconstruction_check"),
    ("fiber", "find_t", "fiber.find_t"),
    ("fiber", "lift_automorphism", "fiber.lift_automorphism"),
    ("fiber", "ia_kernel_enum", "fiber.ia_kernel_enum"),
    ("fiber", "free_abelianization_check", "fiber.free_abelianization_check"),
    ("fiber", "FiberQuotient.keys", "fiber.FiberQuotient.keys"),
    ("fiber", "FiberQuotient.verbal_power_subgroup",
     "fiber.verbal_power_subgroup"),
    ("fiber", "QuotientGroup.__init__", "fiber.QuotientGroup.init"),
    ("finite", "FiniteGroup.automorphisms", "finite.FiniteGroup.automorphisms"),
    ("finite", "FiniteGroup.subgroup_closure",
     "finite.FiniteGroup.subgroup_closure"),
    ("finite", "FiniteGroup.hom_from_generators",
     "finite.FiniteGroup.hom_from_generators"),
    ("freenil", "CentralTupleIso.box_roundtrip", "freenil.box_roundtrip"),
    ("freenil", "CentralTupleIso.backward", "freenil.CentralTupleIso.backward"),
    ("freenil", "CentralTupleIso.forward", "freenil.CentralTupleIso.forward"),
    ("freenil", "free_algebra", "freenil.free_algebra"),
    ("unitriangular", "matrix_exp", "unitriangular.matrix_exp"),
    ("unitriangular", "matrix_log", "unitriangular.matrix_log"),
    ("unitriangular", "mat_mul", "unitriangular.mat_mul"),
)

# Spans reported as .calls and .self_s, or as .self_s only; the counts of
# liealg.bracket and hull.closure feed the derived metrics instead.
SELF_ONLY = ("fiber.FiberQuotient.keys", "fiber.QuotientGroup.init",
             "freenil.free_algebra")
TIMED = tuple(name for _, _, name in TRACED
              if name not in SELF_ONLY + ("liealg.bracket", "hull.closure"))


def _bits(rows):
    return max((abs(int(x)).bit_length() for r in rows for x in r), default=0)


class _Stats:
    """Counters that observers fill from call arguments and results."""

    def __init__(self):
        self.max_den_bits = 0
        self.hnf_max_bits = 0
        self.hnf_max_rows = 0
        self.snf_max_bits = 0
        self.points = 0
        self.lifts_found = 0
        self.tuples = 0
        self.levels_tried = 0
        self.distinct = 0
        self.verbal = []  # (FiberQuotient, t, |closure|), resolved after the run


def _obs_bch(st, args, kwargs, out):
    st.max_den_bits = max(st.max_den_bits,
                          max(x.denominator.bit_length() for x in out))


def _obs_hnf(st, args, kwargs, out):
    rows = args[0]
    H = out[0] if isinstance(out, tuple) else out  # (H, U) with transform=True
    st.hnf_max_rows = max(st.hnf_max_rows, len(rows))
    st.hnf_max_bits = max(st.hnf_max_bits, _bits(rows), _bits(H))


def _obs_snf(st, args, kwargs, out):
    st.snf_max_bits = max(st.snf_max_bits, _bits(args[0]), _bits([out[0]]))


def _obs_solutions(st, args, kwargs, out):
    st.points += len(out)


def _obs_lift(st, args, kwargs, out):
    st.lifts_found += out is not None


def _obs_box(st, args, kwargs, out):
    st.tuples += out[0]


def _obs_csp(st, args, kwargs, out):
    st.levels_tried += out["m"] if out["status"] == "certified" \
        else out["level_cap"]


def _obs_closure(st, args, kwargs, out):
    st.distinct += len({max(v, tuple(-x for x in v)) for v in out})


def _obs_verbal(st, args, kwargs, out):
    st.verbal.append((args[0], args[1], len(out)))


OBSERVERS = {
    "liealg.bch": _obs_bch,
    "linalg.hnf": _obs_hnf,
    "linalg.snf_with_transforms": _obs_snf,
    "autos.solutions_mod": _obs_solutions,
    "autos.lift": _obs_lift,
    "freenil.box_roundtrip": _obs_box,
    "autos.csp_witness": _obs_csp,
    "hull.closure": _obs_closure,
    "fiber.verbal_power_subgroup": _obs_verbal,
}


class Tracer:
    """Spans of one traced run; ``extra_modules`` get their bindings patched
    too, besides the ``malcev`` modules."""

    def __init__(self, extra_modules=()):
        self.names = [name for _, _, name in TRACED]
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.jobs = ["setup"]
        self.job = 0
        self.stats = _Stats()
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        self._extra = tuple(extra_modules)
        self._cache = []  # bch_terms cache_info at install and uninstall

    # -- installation -------------------------------------------------------

    def _wrap(self, fn, name):
        nid = self.name_id[name]
        observe = OBSERVERS.get(name)
        stats = self.stats
        stack = self._stack
        names, parents, jobs = self.span_name, self.span_parent, self.span_job
        starts, ends = self.span_start, self.span_end
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(tracer.job)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if observe is not None:
                observe(stats, args, kwargs, out)
            return out

        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if n == "malcev" or n.startswith("malcev.")]
        modules += list(self._extra)
        self._cache.append(sys.modules["malcev.bch"].bch_terms.cache_info())
        for modname, attr, name in TRACED:
            mod = sys.modules["malcev." + modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(original, name))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(original, name)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []
        self._cache.append(sys.modules["malcev.bch"].bch_terms.cache_info())

    def start_job(self, name):
        self.jobs.append(name)
        self.job = len(self.jobs) - 1

    # -- aggregation --------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the time covered by its direct children."""
        n = len(self.span_name)
        child = [0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        return [ends[i] - starts[i] - child[i] for i in range(n)]

    def counts(self, job=None):
        """{span name: calls}, over all spans or one job id."""
        out = dict.fromkeys(self.names, 0)
        for nid, j in zip(self.span_name, self.span_job):
            if job is None or j == job:
                out[self.names[nid]] += 1
        return out

    def _under(self, idx, target):
        p = self.span_parent[idx]
        while p >= 0:
            if self.span_name[p] == target:
                return True
            p = self.span_parent[p]
        return False

    def layer_metrics(self):
        """Per-layer metrics over every span recorded (set-up and jobs)."""
        if self._patches:
            raise RuntimeError("uninstall the tracer before aggregating")
        calls = self.counts()
        selfs = dict.fromkeys(self.names, 0)
        for nid, s in zip(self.span_name, self.self_times()):
            selfs[self.names[nid]] += s
        out = {}
        for name in TIMED:
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = selfs[name] / 1e9
        for name in SELF_ONLY:
            out[name + ".self_s"] = selfs[name] / 1e9
        st = self.stats
        bch_id, closure_id = self.name_id["liealg.bch"], self.name_id["hull.closure"]
        hull_id = self.name_id["hull.lattice_hull"]
        bch_spans = [i for i, nid in enumerate(self.span_name) if nid == bch_id]
        in_closure = sum(self._under(i, closure_id) for i in bch_spans)
        in_hull = sum(self._under(i, hull_id) for i in bch_spans)
        rounds = calls["hull.closure"]
        verbal_useful = verbal_tried = 0
        for fq, t, size in st.verbal:
            gens = {fq.power(key, t) for key in fq.keys()}
            gens |= {fq.inv(g) for g in gens}
            verbal_useful += size - 1
            verbal_tried += size * len(gens)
        hits = misses = 0
        if self._cache:
            first, last = self._cache[0], self._cache[-1]
            hits, misses = last.hits - first.hits, last.misses - first.misses
        out.update({
            "bch.bch_terms.hit_ratio": _ratio(hits, hits + misses),
            "liealg.bch.max_den_bits": st.max_den_bits,
            "liealg.bracket.calls": calls["liealg.bracket"],
            "linalg.hnf.max_bits": st.hnf_max_bits,
            "linalg.hnf.max_rows": st.hnf_max_rows,
            "linalg.snf_with_transforms.max_bits": st.snf_max_bits,
            "hull.closure.rounds": rounds,
            "hull.closure.bch_per_round": _ratio(in_closure, rounds),
            "hull.closure.distinct_ratio": _ratio(st.distinct, in_hull),
            "autos.solutions_mod.points": st.points,
            "autos.lift.useful_ratio": _ratio(st.lifts_found, calls["autos.lift"]),
            "autos.csp_witness.levels_tried": st.levels_tried,
            "fiber.verbal_power_subgroup.useful_ratio":
                _ratio(verbal_useful, verbal_tried),
            "freenil.box_roundtrip.tuples": st.tuples,
        })
        return out

    def write_spans(self, path, meta):
        """One JSON header line, then the five span columns as raw arrays."""
        header = dict(meta, names=self.names, jobs=self.jobs,
                      spans=len(self.span_name),
                      columns=[["name", "i"], ["parent", "i"], ["job", "i"],
                               ["start_ns", "q"], ["end_ns", "q"]],
                      byteorder=sys.byteorder)
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for col in (self.span_name, self.span_parent, self.span_job,
                        self.span_start, self.span_end):
                col.tofile(f)


def _ratio(num, den):
    """num / den, or 0 when nothing was attempted."""
    return num / den if den else 0.0


def unit(metric):
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("ratio"):
        return "ratio"
    if metric.endswith("bits"):
        return "bits"
    if metric.endswith("per_round"):
        return "calls/round"
    return "count"
