"""Tests of the benchmark's own generator and verifier.

    python3 -m pytest bench
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

run.import_semimod()
from semimod import cli  # noqa: E402

import verify  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def workdir():
    path = f"{run.WORKDIR}/test-{os.getpid()}"
    yield path
    shutil.rmtree(os.path.join(run.ROOT, path), ignore_errors=True)


def _files(workdir, queries):
    out = {}
    for q in queries:
        with open(os.path.join(run.ROOT, q.path), encoding="utf-8") as handle:
            out[q.path.replace(workdir, "")] = handle.read()
    return out


def _signature(queries):
    return [(q.category, q.command, q.flags, q.expect, q.twin) for q in queries]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workdir, workload):
    first = workloads.build_pool(workload, 7, run.ROOT, workdir + "/a")
    again = workloads.build_pool(workload, 7, run.ROOT, workdir + "/b")
    other = workloads.build_pool(workload, 8, run.ROOT, workdir + "/c")
    assert _signature(first) == _signature(again)
    assert _files(workdir + "/a", first) == _files(workdir + "/b", again)
    assert _files(workdir + "/a", first) != _files(workdir + "/c", other)


def _report(query):
    os.chdir(run.ROOT)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(query.argv())
    return code, json.loads(buf.getvalue())


def _first(queries, category, predicate=lambda report: True):
    for q in queries:
        if q.category == category:
            code, report = _report(q)
            if predicate(report):
                return q, code, report
    raise AssertionError(f"no {category} query fits")


@pytest.fixture
def mixed(workdir):
    return workloads.build_pool("mixed-small", 3, run.ROOT, workdir)


def test_verifier_accepts_untouched_reports(mixed):
    for q in mixed[:40]:
        code, report = _report(q)
        assert verify.check_report(q, code, report)[1] == [], q.path


def test_verifier_rejects_a_tampered_certificate(mixed):
    q, code, report = _first(mixed, "member-vec-combo")
    assert verify.check_report(q, code, report)[1] == []
    cofactors = report["certificate"]["cofactors"]
    cofactors[0] = f"({cofactors[0]}) + x"
    assert verify.check_report(q, code, report)[1]


def test_verifier_rejects_a_wrong_verdict(mixed):
    q, code, report = _first(mixed, "semiprime-closure-law")
    report["member"] = False
    assert verify.check_report(q, 1, report)[1]


def test_verifier_rejects_a_bad_witness(mixed):
    q, code, report = _first(mixed, "semiprime-random",
                             lambda r: r.get("witness") is not None)
    assert verify.check_report(q, code, report)[1] == []
    witness = report["witness"]
    field = q.problem.ring.field
    vec = [verify.Arith(field).parse(v) for v in witness["vector"]]
    gens = [q.problem.objects[g][1] for g in q.problem.queries[0].args["generators"]]

    def pairing(g, point):
        values = g.evaluate(point)
        return sum((x * v for x, v in zip(values, vec)), field.zero)

    # a point where, by semimod's own evaluation, some generator does not vanish
    bad = next(
        (a, b) for a in range(3) for b in range(3)
        if any(not pairing(g, (a, b)).is_zero() for g in gens)
    )
    witness["point"] = [str(c) for c in bad]
    assert verify.check_report(q, code, report)[1]
    witness["vector"] = ["0"] * len(vec)
    assert verify.check_report(q, code, report)[1]


def test_verifier_rejects_a_bad_oracle_counterexample(workdir):
    queries = workloads.build_pool("oracle-sweep", 3, run.ROOT, workdir)
    q, code, report = _first(queries, "oracle-random", lambda r: not r["pass"])
    assert verify.check_report(q, code, report)[1] == []
    sweep = report["reports"][0]
    sweep["counterexample"]["vector"] = ["0"] * len(sweep["counterexample"]["vector"])
    assert verify.check_report(q, code, report)[1]


def test_verifier_rejects_a_bad_k_of_span(mixed):
    q, code, report = _first(mixed, "k-of",
                             lambda r: len(r["span"]) == 1 and len(r["span"][0]) == 2)
    assert verify.check_report(q, code, report)[1] == []
    arith = verify.Arith(q.problem.ring.field)
    row = [arith.parse(x) for x in report["span"][0]]
    free = next(i for i, x in enumerate(row) if arith.is_zero(x) or i > 0)
    # the same pivot entries with a changed free entry leave the row space
    row[free] = arith.add(row[free], arith.one)
    report["span"] = [[str(x) for x in row]]
    assert verify.check_report(q, code, report)[1]
    report["span"] = []
    assert verify.check_report(q, code, report)[1]


def test_a_query_without_a_verified_verdict_is_wrong_on_the_default_seed(mixed):
    queries = mixed[:2]
    error = {"error": {"type": "ResourceLimitExceeded", "message": "cap reached"}}

    def tallies():
        return {0: run.Tally(runs=3, code=2, report=dict(error)), 1: run.Tally(runs=3)}

    # without a record an error report is a failure, not a wrong answer
    found = tallies()
    failures, incorrect = run.verify_tallies(verify, queries, found, None)
    assert not incorrect and [f["failed_runs"] for f in failures] == [3, 3]
    assert not found[0].verified and not found[1].verified
    # against the record, a query that gave no verdict is wrong
    failures, incorrect = run.verify_tallies(verify, queries, tallies(), "10")
    assert incorrect and len(failures) == 2
