"""Tests of the benchmark itself: seeded inputs, the output checker and
the tracer.  Run with ``python3 -m pytest bench``."""

import json
import os
import sys
import types
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import basis as B  # noqa: E402
import checker  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402

nliealg = run.load_program()


def _inputs(workload, seed):
    jobs, files = W.jobs_for(workload, seed)
    return [job.argv for job in jobs], json.dumps(files, sort_keys=True)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert _inputs(workload, 7) == _inputs(workload, 7)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_other_seed_moves_inputs_but_not_answers(workload):
    assert _inputs(workload, 7)[1] != _inputs(workload, 8)[1]
    answers = [sorted((job.key, job.expect) for job in W.jobs_for(workload, seed)[0]) for seed in (7, 8)]
    assert answers[0] == answers[1]


def test_verify_fails_about_a_quarter_by_construction():
    jobs, _ = W.jobs_for("verify", 1)
    share = sum(job.expect.code == 1 for job in jobs) / len(jobs)
    assert 0.2 <= share <= 0.3


def test_anchor_table_is_the_published_one():
    expected = checker.load_expected()
    assert expected["tables"]["lie3/family1/3"] == [
        [0, 2, 0, 2], [1, 6, 1, 5], [2, 13, 3, 10], [3, 34, 14, 20]]


def test_change_of_basis_round_trips():
    import random

    phi, phi_inv = B.unimodular_change(random.Random(3), 5, 4)
    assert B.mat_mul(phi, phi_inv) == B.identity(5)
    alg = W.simple(4)
    there = W.transform(alg, phi, phi_inv)
    assert there.table != alg.table
    assert W.transform(there, phi_inv, phi).table == alg.table


def test_wedge_of_signs():
    e = [B.unit(3, i) for i in (1, 2, 3)]
    assert B.wedge_of([e[1], e[0]]) == {(1, 2): -1}
    assert B.wedge_of([e[0], e[0]]) == {}
    assert B.wedge_of([e[2], e[0], e[1]]) == {(1, 2, 3): 1}


@pytest.fixture
def small_jobs(tmp_path):
    """A cohomology, a failing check and a conjugated construction."""
    picked = []
    for workload, key in (("cohomology", "lie3/family1/1#conjugate1"),
                          ("verify", "reynolds/a4/1id#conjugate1"),
                          ("construct", "construct induced/lie3/family1#conjugate1")):
        jobs, files = W.jobs_for(workload, 5)
        W.write_jobs(jobs, files, str(tmp_path / workload))
        picked.append(next(job for job in jobs if job.key == key))
    return picked


def _fail_count(jobs, results):
    verdicts = run.Verdicts(jobs, checker.load_expected())
    verdicts.add(results)
    return len(verdicts.failures)


def test_checker_accepts_the_program_outputs(small_jobs):
    results = [run.run_job(nliealg, job) for job in small_jobs]
    assert _fail_count(small_jobs, results) == 0


def _tamper(report, job):
    doc = json.loads(report)
    if job.expect.table:
        doc["artifacts"][0]["rows"][1]["cocycles"] += 1
        doc["artifacts"][0]["rows"][1]["dimension"] += 1
    elif job.expect.artifact:
        entry = doc["artifacts"][-1]["brackets"][0]
        entry["value"][0] = str(Fraction(entry["value"][0]) + 1)
    else:
        doc["verdicts"][0]["passed"] = not doc["verdicts"][0]["passed"]
    return json.dumps(doc)


def test_wrong_answers_raise_fail_ratio(small_jobs):
    for job in small_jobs:
        code, out, error, seconds = run.run_job(nliealg, job)
        assert _fail_count([job], [(code, _tamper(out, job), error, seconds)]) == 1
        assert _fail_count([job], [(1 - code, out, error, seconds)]) == 1


def test_malformed_report_counts_as_failed(small_jobs):
    job = small_jobs[2]
    code, out, error, seconds = run.run_job(nliealg, job)
    doc = json.loads(out)
    doc["artifacts"][-1] = {"kind": "n_lie_algebra"}
    assert _fail_count([job], [(code, json.dumps(doc), error, seconds)]) == 1


def test_internal_consistency_error_counts_as_failed(small_jobs):
    def boom(argv):
        raise nliealg.errors.InternalConsistencyError("two routes disagree")

    fake = types.SimpleNamespace(cli=types.SimpleNamespace(main=boom), errors=nliealg.errors)
    job = small_jobs[1]
    result = run.run_job(fake, job)
    assert result[2].startswith("InternalConsistencyError")
    assert _fail_count([job], [result]) == 1


def test_changed_bytes_between_runs_count_as_failed(small_jobs):
    job = small_jobs[1]
    code, out, error, seconds = run.run_job(nliealg, job)
    verdicts = run.Verdicts([job], checker.load_expected())
    verdicts.add([(code, out, error, seconds)])
    verdicts.add([(code, out + " ", error, seconds)])
    assert len(verdicts.failures) == 1


def test_tracer_keeps_bytes_and_restores_the_program(small_jobs):
    from tracer import Tracer

    before = {name: getattr(nliealg.reynolds, name) for name in vars(nliealg.reynolds)}
    matmul = nliealg.linalg.Matrix.__dict__["__matmul__"]
    plain = [run.run_job(nliealg, job)[:2] for job in small_jobs]
    tracer = Tracer(nliealg)
    tracer.install()
    try:
        assert nliealg.cohomology.check_reynolds is nliealg.reynolds.check_reynolds
        assert nliealg.cohomology.check_reynolds is not before["check_reynolds"]
        _, traced = run.run_pass(nliealg, small_jobs, tracer)
    finally:
        tracer.uninstall()
    assert [r[:2] for r in traced] == plain
    assert {name: getattr(nliealg.reynolds, name) for name in vars(nliealg.reynolds)} == before
    assert nliealg.linalg.Matrix.__dict__["__matmul__"] is matmul
    metrics = tracer.metrics()
    assert metrics["cohomology.coboundary_calls"] > 0
    assert metrics["reynolds.check_calls"] > 0
    assert metrics["documents.parse_calls"] == sum(job.argv.count("--algebra") + job.argv.count("--operator")
                                                   + job.argv.count("--reynolds") for job in small_jobs)
    assert 0 < metrics["cohomology.differential_density"] < 1
    assert metrics["cli.self_s"] > 0
