"""Command-line interface: parse a problem file, run its query, emit JSON.

Exit codes: 0 for member/pass, 1 for non-member/counterexample, 2 for any
error.  The report schema is versioned ("schema": 1) and documented in
docs/schema.json.  Dispatch is single-threaded; one query runs per typed
invocation, and ``run`` executes a file's queries in order (batch mode).
Reports only print the evidence a verdict carries: the decisions attach
every certificate and witness, and this module searches for none.  Each
query builds one ``SubmodulePresentation``: a ``poly`` query and its
generators are first lifted to vectors of rank 1, so ``member`` asks
``groebner.submodule_member`` for ideals and vectors alike, and the three
closure commands share one decision, ``closure.semiprime_member``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from .closure import semiprime_member
from .errors import ProblemSyntaxError, SemimodError
from .fields import field_from_flag
from .groebner import GroebnerLimits, SubmodulePresentation, submodule_member
from .oracle import DEFAULT_CAP, default_field, oracle_check, oracle_check_escalating
from .parser import QUERY_KINDS, Query, parse_problem
from .poly import OrderSpec, VectorPoly
from .submodules import (
    prime_closure_at,
    semiprime_refutation,
    weakly_semiprime_refutation,
)
from .verdicts import guarantee_for

SCHEMA_VERSION = 1


def _certificate_json(cofactors):
    if cofactors is None:
        return None
    return {"cofactors": [str(c) for c in cofactors]}


def run_query(problem, query: Query, options) -> tuple[dict, int]:
    """Execute one query; returns the JSON-ready report and the exit code.
    The parser has already checked every name the query uses and its kind."""
    order = options.order
    limits = options.limits
    report = {
        "schema": SCHEMA_VERSION,
        "command": query.kind,
        "order": {"scalar": order.scalar, "module": order.module},
    }
    started = time.perf_counter()
    code = 0
    args = query.args
    objects = problem.objects
    gens = [objects[name][1] for name in args["generators"]]
    kind, value = objects[args["query"]] if "query" in args else (None, None)
    if kind == "poly":  # an ideal is a submodule of rank 1
        value = VectorPoly(problem.ring, [value])
        gens = [VectorPoly(problem.ring, [g]) for g in gens]
    submodule = SubmodulePresentation(problem.ring, len(gens[0]), gens)

    if query.kind == "member":
        verdict = submodule_member(value, submodule, order, limits)
        report["member"] = verdict.member
        report["certificate"] = _certificate_json(verdict.certificate)
        report["counters"] = verdict.stats
        code = 0 if verdict.member else 1

    elif query.kind in ("semiprime-member", "matrix-semiprime-member", "radical-member"):
        verdict = semiprime_member(value, submodule, order, limits)
        report["member"] = verdict.member
        report["guarantee"] = guarantee_for(problem.ring.field)
        report["method"] = verdict.method
        report["certificate"] = _certificate_json(verdict.certificate)
        witness = verdict.witness
        report["witness"] = witness.as_json() if witness else None
        report["counters"] = verdict.stats
        code = 0 if verdict.member else 1
        if options.cross_check:
            oracle_field = options.field or default_field(problem.ring.field)
            report["oracle"] = oracle_check(value, gens, oracle_field, options.cap).as_json()

    elif query.kind == "refute-semiprime":
        witness = semiprime_refutation(submodule, value, order, limits)
        report["witness_found"] = witness is not None
        report["witness"] = {"candidate": str(witness.candidate)} if witness else None
        code = 1 if witness else 0

    elif query.kind == "refute-weak":
        scalar = objects[args["scalar"]][1]
        vector = objects[args["vector"]][1]
        witness = weakly_semiprime_refutation(submodule, scalar, vector, order, limits)
        report["witness_found"] = witness is not None
        report["witness"] = (
            {"scalar": str(witness.scalar), "vector": str(witness.vector)}
            if witness
            else None
        )
        code = 1 if witness else 0

    elif query.kind == "k-of":
        closure = prime_closure_at(submodule, args["point"])
        field = problem.ring.field
        report["point"] = [str(c) for c in args["point"]]
        report["improper"] = closure.improper
        report["span"] = [[field.format(x) for x in row] for row in closure.span]
        report["generators"] = [str(g) for g in closure.submodule.generators]
        code = 0

    elif query.kind == "oracle":
        if options.field is not None:
            reports = [oracle_check(value, gens, options.field, options.cap)]
        else:
            reports = oracle_check_escalating(value, gens, cap=options.cap)
        passed = all(r.passed for r in reports)
        report["pass"] = passed
        report["reports"] = [r.as_json() for r in reports]
        report["counters"] = {
            "points": sum(r.points for r in reports),
            "evaluations": sum(r.evaluations for r in reports),
        }
        code = 0 if passed else 1

    else:  # pragma: no cover - the parser rejects unknown kinds
        raise SemimodError(f"unsupported query kind {query.kind!r}")

    report["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    return report, code


def _error_report(exc: Exception) -> dict:
    error = {"type": getattr(exc, "code", "Error"), "message": str(exc)}
    if isinstance(exc, ProblemSyntaxError):
        error["line"] = exc.line
        error["column"] = exc.column
    return {"schema": SCHEMA_VERSION, "error": error}


class _Options:
    def __init__(self, args):
        if args.cap < 0:
            raise ValueError(f"--cap must be non-negative, got {args.cap}")
        self.order = OrderSpec(module=args.order)
        self.limits = GroebnerLimits(
            max_pairs=args.max_pairs, max_degree=args.max_degree
        )
        self.field = field_from_flag(args.field) if args.field else None
        self.cap = args.cap
        self.cross_check = args.oracle


COMMANDS = {name: summary for name, (_, summary) in QUERY_KINDS.items()}
COMMANDS["run"] = "run every query in the file (batch mode)"


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semimod",
        description=(
            "Exact membership decisions for submodules of R^n, semiprime\n"
            "closures, and left ideals of matrix rings over polynomial rings."
        ),
        epilog="commands:\n"
        + "\n".join(f"  {name:<25}{text}" for name, text in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "command",
        choices=COMMANDS,
        metavar="command",
        help="the kind of the file's query, or run (listed below)",
    )
    parser.add_argument("file", help="problem file (see docs/format.md)")
    parser.add_argument(
        "--order",
        choices=["top", "pot"],
        default="top",
        help="module order extension over grevlex (default: top)",
    )
    parser.add_argument("--max-pairs", type=int, default=10_000)
    parser.add_argument("--max-degree", type=int, default=40)
    parser.add_argument(
        "--field",
        default=None,
        metavar="P[^2]",
        help="finite field for the oracle, e.g. 3 or 3^2",
    )
    parser.add_argument("--cap", type=int, default=DEFAULT_CAP)
    parser.add_argument(
        "--oracle",
        action="store_true",
        help="attach an advisory oracle cross-check to closure verdicts",
    )
    return parser


@functools.cache
def _arg_parser() -> argparse.ArgumentParser:
    """The parser, built on first use: parsing neither changes it nor
    depends on an earlier call, so one serves every ``main`` call."""
    return build_arg_parser()


def main(argv=None) -> int:
    args = _arg_parser().parse_args(argv)
    try:
        with open(args.file, encoding="utf-8") as handle:
            text = handle.read()
        problem = parse_problem(text)
        options = _Options(args)
        queries = problem.queries
        if args.command == "run":
            if not queries:
                raise SemimodError("problem file declares no query")
        elif len(queries) != 1:
            raise SemimodError("typed subcommands need exactly one query in the file")
        elif queries[0].kind != args.command:
            raise SemimodError(
                f"file declares a {queries[0].kind!r} query, "
                f"but the {args.command!r} subcommand was invoked"
            )
        reports = []
        code = 0
        for query in queries:
            report, query_code = run_query(problem, query, options)
            reports.append(report)
            code = max(code, query_code)
        payload = reports[0] if len(reports) == 1 else reports
    except (SemimodError, OSError, ValueError) as exc:
        payload, code = _error_report(exc), 2
    try:
        print(json.dumps(payload, indent=2), flush=True)
    except BrokenPipeError:
        # the reader went away: send what is still buffered nowhere, so the
        # interpreter's final flush raises no second error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
