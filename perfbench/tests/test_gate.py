"""The output gate rejects deliberately corrupted results."""

import dataclasses
import random
from fractions import Fraction
from functools import partial

import pytest

import gate
import run
import workloads
from malcev import lattices


def failed_ops(job, result):
    return run.check([job], [result])[0]


def test_integer_valued_polynomials():
    x = (0,)
    assert gate.integer_valued({x + x: Fraction(1, 2), x: Fraction(-1, 2)})
    assert gate.integer_valued({x * 3: Fraction(1, 6), x: Fraction(-1, 6)})
    assert not gate.integer_valued({x: Fraction(1, 2)})
    assert not gate.integer_valued({x + x: Fraction(1, 2)})
    # x*y/2 is not integer-valued although x(x-1)/2 and y(y-1)/2 are
    assert not gate.integer_valued({(0, 1): Fraction(1, 2)})


@pytest.fixture(scope="module")
def rung_and_hull():
    rung = next(r for r in workloads.hull_setup(5) if r.name == "Psi(2,4)")
    return rung, workloads.compute_hull(rung)


def test_correct_hull_passes(rung_and_hull):
    rung, h = rung_and_hull
    assert gate.hull_problems(rung, h) == []


@pytest.mark.parametrize("which", [0, 3, -1])
def test_hull_with_a_doubled_basis_vector_fails(rung_and_hull, which):
    rung, h = rung_and_hull
    basis = list(h.basis)
    basis[which] = tuple(2 * x for x in basis[which])
    bad = dataclasses.replace(h, basis=tuple(basis),
                              lattice=lattices.hnf_lattice(basis, len(basis)))
    job = workloads.hull_jobs([rung])[0]
    assert failed_ops(job, bad) == 1


@pytest.fixture(scope="module")
def congruence():
    return workloads.congruence_setup(2)


def test_lift_shifted_by_one_fails(congruence):
    eq, m = congruence.eqs["psi23"], 3
    result = workloads.autos.strong_approx_check(congruence.hulls["psi23"], m, eq=eq)

    def job(lift):
        return workloads.Job("sa", 1, None, partial(
            gate.strong_approx_problems, eq, 6, m, rng=random.Random(0),
            lift=lift))

    assert failed_ops(job(eq.lift), result) == 0

    def shifted(a, level):
        exact = list(eq.lift(a, level))
        exact[0] += 1
        return tuple(exact)

    assert failed_ops(job(shifted), result) == 1


def test_wrong_point_count_fails(congruence):
    job = workloads.congruence_jobs(congruence)[0]
    result = job.run()
    assert failed_ops(job, result) == 0
    assert failed_ops(job, dict(result, solution_count=result["solution_count"] - 1)) == 1


def test_wrong_t_fails():
    inputs = workloads.fiber_setup(0)
    job = next(j for j in workloads.fiber_jobs(inputs) if j.name == "find_t z2z4")
    t = job.run()
    assert failed_ops(job, t) == 0
    assert failed_ops(job, t + 1) == 1


def test_product_off_in_one_coordinate_fails():
    inputs = workloads.arith_setup(3)
    job = workloads.Job("products", 20, None, partial(
        gate.product_problems, workloads.MUL_N, inputs.pairs[:20]))
    logs = [(x * y).log for x, y in inputs.pairs[:20]]
    assert failed_ops(job, logs) == 0
    logs[7] = logs[7][:4] + (logs[7][4] + 1,) + logs[7][5:]
    assert failed_ops(job, logs) == 1


def test_raised_job_fails_all_its_operations():
    def boom():
        raise workloads.CapExceeded("cap")

    job = workloads.Job("batch", 7, boom, lambda out: [])
    results, _ = run.run_pass([job])
    assert failed_ops(job, results[0]) == 7
