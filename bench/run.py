#!/usr/bin/env python3
"""semimod benchmark: one seeded workload of CLI queries in a closed loop.

    python3 bench/run.py --workload mixed-small --seed 1 --seconds 30 --trace 0

One client, one process, no threads.  Each query is one in-process call
``semimod.cli.main([command, file, flags...])`` with stdout captured; the
next query starts when the previous one returns.  Interpreter start and
``import semimod`` are paid once and reported in ``setup_s`` together with
generating the workload and writing its ``.sm`` files; set-up is repeated
and its median reported.

``--trace 0`` reports the end-to-end metrics of an untraced timed phase of
whole passes over the pool.  ``queries_per_s`` is the runs that completed
and verified divided by the phase's wall time; ``query_p50_ms`` and
``query_p90_ms`` are percentiles over every run in the phase.  A failed run
(an error report, an exception, an overrun deadline, a report that does not
verify) is not completed, and its latency counts as the deadline.  Times,
``setup_s`` included, are scaled to a nominal host speed by a reference
timed around them (see hostspeed.py); the info line keeps them unscaled.
``--trace 1`` runs passes over the pool for half the time untraced
(collecting only the determinism counters), then one pass with spans on
every layer, and reports the per-layer metrics; the counts of the traced
and untraced passes must agree.

Every report is verified after the timed phase (see verify.py).  The last
line of stdout is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it and ``.bench_work/result-*.json`` hold the provenance, the
workload mix and each failure.  Sources are imported from ``src/`` of the
checkout this file sits in; without them the benchmark exits with status 1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field

from hostspeed import REFERENCE_NOMINAL_S, HostSpeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = ".bench_work"
VERDICTS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "verdicts-seed1.json")
DEFAULT_SEED = 1
SETUP_REPEATS = 7
WARMUP_QUERIES = 8
QUERY_DEADLINE_S = 30.0
LOOP_LIMIT_S = 100.0


class QueryDeadline(Exception):
    """Raised by SIGALRM inside a query that overran its deadline."""


def _on_alarm(signum, frame):
    raise QueryDeadline


@dataclass
class Tally:
    """What a run keeps of one pool query however often it runs, so that
    the benchmark's own memory, and peak_rss_mb, do not grow with passes."""

    runs: int = 0
    code: int | None = None
    report: dict | None = None  # first report, without its timing
    failed_runs: int = 0
    verified: bool = False  # set after the timed phase: report and verdict checked
    wrong: bool = False  # an output was shown to be wrong
    reasons: list = field(default_factory=list)

    def fail(self, reason, wrong=False):
        self.failed_runs += 1
        self.note(reason, wrong)

    def note(self, reason, wrong=False):
        self.wrong = self.wrong or wrong
        if reason not in self.reasons:
            self.reasons.append(reason)


@dataclass
class Pass:
    """One pass over the pool, with one entry per query in each array."""

    wall: float  # seconds, less the time spent timing the host reference
    elapsed: array  # seconds in semimod.cli.main
    ok: bytearray  # 0 for a run that failed
    marks: array  # index of the last host reference sample before the run


def import_semimod():
    """Import semimod from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "semimod", "__init__.py")):
        sys.exit(f"bench: no semimod sources under {SRC}")
    sys.path.insert(0, SRC)
    import semimod

    if not os.path.abspath(semimod.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: semimod was imported from {semimod.__file__}, not {SRC}")
    return semimod


def run_one(cli, query, tally, tracer=None):
    """Run one query; returns its elapsed seconds and whether it ran well
    (did not raise or overrun its deadline, and printed the same report as
    its earlier runs)."""
    buf = io.StringIO()
    if tracer is not None:
        tracer.begin(query.qid)
    signal.setitimer(signal.ITIMER_REAL, QUERY_DEADLINE_S)
    start = time.perf_counter()
    code, error = None, None
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(query.argv())
    except QueryDeadline:
        error = f"deadline of {QUERY_DEADLINE_S:g} s overrun"
    except Exception as exc:  # a raising query is a failed query, not a crash
        error = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            tracer.end()
    tally.runs += 1
    if error is not None:
        tally.fail(error)
        return elapsed, False
    try:
        report = json.loads(buf.getvalue())
    except json.JSONDecodeError:
        tally.fail("stdout is not JSON", wrong=True)
        return elapsed, False
    report.pop("timing_ms", None)
    if tally.report is None:
        tally.report, tally.code = report, code
    elif (report, code) != (tally.report, tally.code):
        tally.fail("report differs from an earlier run of the same query", wrong=True)
        return elapsed, False
    return elapsed, True


def closed_loop(cli, queries, seconds, tallies, host, tracer=None):
    """Run whole passes over the pool until about ``seconds`` have passed.

    A run ends only at a pass boundary, so every pass does the same work and
    one slow query cannot fall in or out of the measurement by a hair; it
    stops once a further pass would overshoot ``seconds`` by more than
    stopping now falls short.  Past LOOP_LIMIT_S the rest of the pool is
    not run, and counts as failed.  ``host`` samples the speed reference
    between queries.  Returns the passes."""
    passes = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if passes and elapsed + 0.5 * elapsed / len(passes) >= seconds:
            break
        pass_start = time.perf_counter()
        first_sample = len(host.samples)
        current = Pass(0.0, array("d"), bytearray(), array("i"))
        for query in queries:
            tally = tallies[query.qid]
            if time.perf_counter() - start < LOOP_LIMIT_S:
                host.poll()
                elapsed, ok = run_one(cli, query, tally, tracer)
            else:
                tally.runs += 1
                tally.fail(f"not run: the timed phase passed {LOOP_LIMIT_S:g} s")
                elapsed, ok = 0.0, False
            current.elapsed.append(elapsed)
            current.ok.append(ok)
            current.marks.append(len(host.samples) - 1)
        current.wall = (time.perf_counter() - pass_start
                        - math.fsum(host.samples[first_sample:]))
        passes.append(current)
        if time.perf_counter() - start >= LOOP_LIMIT_S:
            break
    return passes


def setup(workloads, workload, seed, workdir, host):
    """Interpreter start plus import in a fresh process, then generation and
    writing of the pool; repeated, and the median reported.  Each repetition
    is scaled to nominal host speed by the reference samples taken before,
    during and after it (see hostspeed.py), less the time they took.
    Returns the queries and the scaled and unscaled medians."""
    probe = f"import sys; sys.path.insert(0, {SRC!r}); import semimod"
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        host.sample()
        first = len(host.samples)
        start = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-c", probe], check=True)
        queries = workloads.build_pool(workload, seed, ROOT, workdir, tick=host.poll)
        spent = time.perf_counter() - start - math.fsum(host.samples[first:])
        host.sample()
        raw.append(spent)
        scaled.append(spent * REFERENCE_NOMINAL_S / statistics.median(host.samples[first - 1:]))
    return queries, statistics.median(scaled), statistics.median(raw)


def verify_tallies(verify, queries, tallies, golden):
    """Check each query's report once; returns (failures, incorrect).

    Beyond verify.check_report, ``--order top``/``pot`` twins must agree
    and, on the default seed, every query must reach its recorded verdict:
    there a query with no verified verdict (an error report, an exception,
    an overrun deadline) is wrong.  A query that does not pass all of this
    has every run failed; the others are marked ``verified``."""
    if golden is not None and len(golden) != len(queries):
        raise SystemExit(f"bench: {len(golden)} recorded verdicts for a pool of "
                         f"{len(queries)}; re-record with record_verdicts.py")
    verdicts = {}
    for qid, tally in tallies.items():
        if tally.report is None:
            continue
        verdict, problems = verify.check_report(queries[qid], tally.code, tally.report)
        if problems:
            tally.wrong = tally.wrong or "error" not in tally.report
            tally.reasons.extend(problems)
        else:
            verdicts[qid] = verdict
    for qid, verdict in verdicts.items():
        twin = queries[qid].twin
        if twin in verdicts and verdicts[twin] != verdict:
            tallies[qid].note(f"verdict differs from query {twin} under the other order", wrong=True)
    for qid, tally in tallies.items():
        if golden is not None:
            if qid not in verdicts:
                tally.note(f"no verified verdict where {golden[qid]} is recorded", wrong=True)
            elif golden[qid] != "01"[verdicts[qid]]:
                tally.note(f"verdict {verdicts[qid]:d} differs from the recorded {golden[qid]}",
                           wrong=True)
        tally.verified = qid in verdicts and not tally.wrong
        if not tally.verified:
            tally.failed_runs = tally.runs
    failures = [
        {"query": qid, "path": queries[qid].path, "runs": t.runs,
         "failed_runs": t.failed_runs, "reasons": t.reasons}
        for qid, t in tallies.items() if t.failed_runs
    ]
    return failures, any(t.wrong for t in tallies.values())


def git_commit():
    """HEAD of the checkout when it is a git repository, else None."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def scaled_wall(p, scale):
    """A pass's wall time scaled by its queries' host speed factors, their
    mean weighted by elapsed time."""
    busy = math.fsum(p.elapsed)
    return p.wall * (math.fsum(t * s for t, s in zip(p.elapsed, scale)) / busy if busy else 1.0)


def latency_metrics(passes, queries, tallies, scales):
    """``queries_per_s`` is the runs that completed and verified over the
    timed phase's wall time; the percentiles are over every run of the
    phase, a failed run (or any run of a query that did not verify) counting
    at the query deadline.  ``scales[i][j]`` is the host speed factor of
    query ``j`` in pass ``i`` (see hostspeed.py)."""
    completed, wall, latencies = 0, 0.0, []
    for p, scale in zip(passes, scales):
        wall += scaled_wall(p, scale)
        for q, t, ok, s in zip(queries, p.elapsed, p.ok, scale):
            if ok and tallies[q.qid].verified:
                completed += 1
                latencies.append(t * 1000.0 * s)
            else:
                latencies.append(QUERY_DEADLINE_S * 1000.0)
    return {
        "queries_per_s": (completed / wall, "1/s"),
        "query_p50_ms": (statistics.median(latencies), "ms"),
        "query_p90_ms": (statistics.quantiles(latencies, n=10)[8], "ms"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["mixed-small", "radical-q", "oracle-sweep"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    os.chdir(ROOT)
    import_semimod()
    from semimod import cli
    import tracing
    import verify
    import workloads

    host = HostSpeed()
    workdir = f"{WORKDIR}/{args.workload}-seed{args.seed}-trace{args.trace}"
    queries, setup_s, setup_unscaled_s = setup(workloads, args.workload, args.seed, workdir, host)
    golden = None
    if args.seed == DEFAULT_SEED:
        with open(VERDICTS_FILE, encoding="utf-8") as handle:
            golden = json.load(handle)[args.workload]

    signal.signal(signal.SIGALRM, _on_alarm)
    for query in queries[:WARMUP_QUERIES]:
        run_one(cli, query, Tally())

    tallies = {q.qid: Tally() for q in queries}
    metrics = {}
    info = {}
    if args.trace == 0:
        passes = closed_loop(cli, queries, args.seconds, tallies, host)
    else:
        with tracing.Tracer(spans=False) as counting:
            passes = closed_loop(cli, queries, args.seconds / 2, tallies, host, counting)
        with tracing.Tracer(spans=True) as tracer:
            traced = closed_loop(cli, queries, 0, tallies, host, tracer)[0]
        for qid, counts in counting.counts.items():
            if counts != tracer.counts[qid]:
                tallies[qid].fail(f"counts {counts} untraced vs {tracer.counts[qid]} traced",
                                  wrong=True)
    failures, incorrect = verify_tallies(verify, queries, tallies, golden)

    if args.trace == 0:
        scales = [host.local_scales(p.marks) for p in passes]
        metrics.update(latency_metrics(passes, queries, tallies, scales))
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        unscaled = [[1.0] * len(queries) for _ in passes]
        info["unscaled"] = {
            k: v for k, (v, _) in latency_metrics(passes, queries, tallies, unscaled).items()
        }
        info["unscaled"]["setup_s"] = setup_unscaled_s
        info["mean_scale"] = statistics.fmean(x for scale in scales for x in scale)
    else:
        metrics.update(tracer.layer_metrics(len(queries)))
        metrics["groebner.buchberger_share"] = (
            metrics["groebner.buchberger_self_s"][0] / traced.wall, "ratio")
        metrics.update(tracing.field_kernel_metrics(args.seed))
        untraced = statistics.median(scaled_wall(p, host.local_scales(p.marks)) for p in passes)
        metrics["trace.overhead_frac"] = (
            scaled_wall(traced, host.local_scales(traced.marks)) / untraced - 1.0, "ratio")
        metrics["trace.wall_s"] = (traced.wall, "s")
        spans_path = f"{WORKDIR}/spans-{args.workload}-seed{args.seed}.jsonl"
        info["spans"] = {"path": spans_path, "count": tracer.write_spans(spans_path)}

    attempted = sum(t.runs for t in tallies.values())
    failed = sum(t.failed_runs for t in tallies.values())
    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "pool": workloads.describe_pool(queries),
        "pass_seconds": [p.wall for p in passes],
        "reference_samples": len(host.samples),
        "failed_frac": failed / attempted,
        "failures": failures[:50],
        "verdicts_checked_against_record": golden is not None,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    })
    result = {
        "correct": not incorrect,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(f"{WORKDIR}/result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as handle:
        json.dump({"info": info, "result": result}, handle, indent=1)
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
