#!/usr/bin/env python3
"""Record the verdict of every pool query on the default seed.

    python3 bench/record_verdicts.py

Runs each workload's whole pool once for seed 1, verifies every report, and
writes ``bench/verdicts-seed1.json``: one string per workload with one
character per query, ``1`` or ``0`` for its verdict.  ``run.py`` compares
the verdicts of a default-seed run against this record.  Re-record only
when a change to the program is meant to change a verdict, and say so.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import sys

import run


def main():
    os.chdir(run.ROOT)
    run.import_semimod()
    from semimod import cli
    import verify
    import workloads

    signal.signal(signal.SIGALRM, run._on_alarm)
    record = {}
    for workload in workloads.WORKLOADS:
        workdir = f"{run.WORKDIR}/record-{workload}"
        queries = workloads.build_pool(workload, run.DEFAULT_SEED, run.ROOT, workdir)
        tallies = {q.qid: run.Tally() for q in queries}
        for query in queries:
            run.run_one(cli, query, tallies[query.qid])
        failures, _ = run.verify_tallies(verify, queries, tallies, None)
        shutil.rmtree(workdir, ignore_errors=True)
        if failures:
            sys.exit(f"{workload}: {len(failures)} failures, first {failures[:3]}")
        record[workload] = "".join(
            "01"[verify.verdict_of(q.command, tallies[q.qid].report)] for q in queries
        )
        print(f"{workload}: {len(queries)} verdicts, {record[workload].count('1')} true")
    with open(run.VERDICTS_FILE, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
