"""Span recording around semimod's layers, and the per-layer metrics.

Tracing replaces a public function at every module attribute that is bound
to it (``semimod.closure.submodule_member`` as well as
``semimod.groebner.submodule_member``; ``semimod.oracle._kernel_basis`` as
well as ``semimod.linalg.kernel_basis``), so calls made through any import
are seen.  Spans (name, start, end, parent, query id) stay in memory and are
written when the run ends.  Hot leaf calls (point evaluation, kernels) are
summed into their enclosing span instead of getting a span each, which keeps
memory flat on oracle sweeps.  A span's self time is its duration minus its
child spans and the leaf time charged to it.

Counters come from the objects the layers return (``GroebnerBasis.stats``
and elements, ``OracleReport``), not from the CLI's ``counters`` field.
"""

from __future__ import annotations

import functools
import json
import random
import sys
import time
from fractions import Fraction

from semimod.fields import QQ, PrimeField, QuadraticField
from semimod.poly import PolyMatrix, VectorPoly

# (module, function) pairs that get a span each.
SPAN_TARGETS = (
    ("parser", "parse_problem"),
    ("closure", "semiprime_member"),
    ("closure", "_radical_member"),
    ("closure", "bilinear_encoding"),
    ("closure", "find_vanishing_witness"),
    ("matrixideals", "matrix_semiprime_member"),
    ("submodules", "prime_closure_at"),
    ("submodules", "semiprime_refutation"),
    ("submodules", "weakly_semiprime_refutation"),
    ("groebner", "buchberger"),
    ("groebner", "normal_form"),
    ("groebner", "submodule_member"),
    ("groebner", "ideal_member"),
    ("oracle", "oracle_check"),
    ("oracle", "oracle_check_escalating"),
)
# Leaf calls: counted and timed in aggregate, charged to the enclosing span.
LEAF_TARGETS = (
    ("linalg", "kernel_basis", "linalg.kernel"),
    (VectorPoly, "evaluate_raw", "poly.evaluate"),
    (PolyMatrix, "evaluate_raw", "poly.evaluate"),
)
# Functions whose results feed the determinism counters in both passes.
COUNT_TARGETS = (("groebner", "buchberger"), ("oracle", "oracle_check"))

NAME, START, END, PARENT, QID, LEAF = range(6)


def _semimod_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "semimod" or name.startswith("semimod.")]


def _coeff_bits(c):
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    if isinstance(c, tuple):
        return max(x.bit_length() for x in c)
    return c.bit_length()


class Tracer:
    """Installs wrappers on entry and restores every binding on exit.

    With ``spans=False`` only the determinism counters are collected, from
    the two functions in COUNT_TARGETS, which run a handful of times per
    query; the pass then costs what an untraced pass costs.
    """

    def __init__(self, spans=True):
        self.record_spans = spans
        self.spans = []
        self.stack = []
        self.qid = None
        self.leaf = {}
        self.counts = {}  # qid -> [pairs, zero reductions, basis sizes, points, evaluations]
        self.groebner = []  # per basis: (pairs, zero reductions, size, terms, bits, unit)
        self.sweeps = []  # per oracle sweep: (points, evaluations, nontrivial)
        self.semiprime_methods = []
        self.witness_results = []
        self._restore = []

    # -- installation --------------------------------------------------------
    def __enter__(self):
        modules = _semimod_modules()
        on_result = {
            ("groebner", "buchberger"): self._on_basis,
            ("oracle", "oracle_check"): self._on_sweep,
            ("closure", "semiprime_member"): self._on_semiprime,
            ("closure", "find_vanishing_witness"): self._on_witness,
        }
        targets = SPAN_TARGETS if self.record_spans else COUNT_TARGETS
        for modname, fname in targets:
            original = getattr(sys.modules[f"semimod.{modname}"], fname)
            name = f"{modname}.{fname}"
            hook = on_result.get((modname, fname))
            if self.record_spans:
                wrapper = self._span_wrapper(name, original, hook)
            else:
                wrapper = self._count_wrapper(original, hook)
            self._patch_bindings(modules, original, wrapper)
        if self.record_spans:
            for owner, fname, name in LEAF_TARGETS:
                if isinstance(owner, str):
                    original = getattr(sys.modules[f"semimod.{owner}"], fname)
                    self._patch_bindings(modules, original, self._leaf_wrapper(name, original))
                else:
                    original = owner.__dict__[fname]
                    setattr(owner, fname, self._leaf_wrapper(name, original))
                    self._restore.append((owner, fname, original))
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        return False

    def _patch_bindings(self, modules, original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    # -- wrappers --------------------------------------------------------------
    def _span_wrapper(self, name, fn, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.qid, 0.0]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if hook is not None:
                hook(result)
            return result

        return wrapped

    def _count_wrapper(self, fn, hook):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(result)
            return result

        return wrapped

    def _leaf_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        totals = self.leaf.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                totals[0] += 1
                totals[1] += elapsed
                if stack:
                    spans[stack[-1]][LEAF] += elapsed

        return wrapped

    # -- query scope -------------------------------------------------------------
    def begin(self, qid):
        """Open the root span of one CLI query (the ``cli`` layer)."""
        self.qid = qid
        self.counts[qid] = [0, 0, [], 0, 0]
        if self.record_spans:
            self.spans.append(["cli.main", time.perf_counter(), 0.0, None, qid, 0.0])
            self.stack.append(len(self.spans) - 1)

    def end(self):
        if self.record_spans:
            # a query aborted by its deadline may leave inner spans open
            root = next(i for i in self.stack if self.spans[i][NAME] == "cli.main")
            now = time.perf_counter()
            for i in self.stack:
                if not self.spans[i][END]:
                    self.spans[i][END] = now
            del self.stack[self.stack.index(root):]
        self.qid = None

    # -- result hooks ------------------------------------------------------------
    def _on_basis(self, gb):
        stats = gb.stats
        pairs, zeros = stats.get("pairs_processed", 0), stats.get("zero_reductions", 0)
        count = self.counts.get(self.qid)
        if count is not None:
            count[0] += pairs
            count[1] += zeros
            count[2].append(len(gb.elements))
        if not self.record_spans:
            return
        terms = max((sum(len(e.terms) for e in g.entries) for g in gb.elements), default=0)
        bits = max(
            (_coeff_bits(c) for g in gb.elements for e in g.entries for c in e.terms.values()),
            default=0,
        )
        unit = len(gb.elements) == gb.rank and all(
            all(sum(m) == 0 for e in g.entries for m in e.terms) for g in gb.elements
        )
        self.groebner.append((pairs, zeros, len(gb.elements), terms, bits, unit))

    def _on_sweep(self, report):
        count = self.counts.get(self.qid)
        if count is not None:
            count[3] += report.points
            count[4] += report.evaluations
        self.sweeps.append((report.points, report.evaluations, report.nontrivial_kernels))

    def _on_semiprime(self, verdict):
        self.semiprime_methods.append(verdict.method)

    def _on_witness(self, witness):
        self.witness_results.append(witness is not None)

    # -- output --------------------------------------------------------------------
    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, qid, leaf) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "query": qid, "leaf_s": leaf,
                }) + "\n")
        return len(self.spans)

    def layer_metrics(self, queries):
        """Per-layer metrics over the traced pass; ``*_ms`` are per query."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] is not None:
                child_time[span[PARENT]] += span[END] - span[START]
        self_by_name, total_by_name, calls_by_name = {}, {}, {}
        for i, (name, start, end, parent, qid, leaf) in enumerate(spans):
            duration = end - start
            self_by_name[name] = self_by_name.get(name, 0.0) + duration - child_time[i] - leaf
            total_by_name[name] = total_by_name.get(name, 0.0) + duration
            calls_by_name[name] = calls_by_name.get(name, 0) + 1
        matrix_rows = sum(
            1 for s in spans
            if s[NAME] == "closure.semiprime_member" and s[PARENT] is not None
            and spans[s[PARENT]][NAME] == "matrixideals.matrix_semiprime_member"
        )

        def self_of(prefix):
            return sum(v for k, v in self_by_name.items() if k.startswith(prefix + "."))

        def per_query_ms(seconds):
            return 1000.0 * seconds / max(queries, 1)

        def ratio(a, b):
            return a / b if b else 0.0

        bases = self.groebner
        pairs = sum(b[0] for b in bases)
        zeros = sum(b[1] for b in bases)
        bb_self = self_by_name.get("groebner.buchberger", 0.0)
        points = sum(s[0] for s in self.sweeps)
        oracle_inclusive = total_by_name.get("oracle.oracle_check", 0.0)
        kernel = self.leaf.get("linalg.kernel", [0, 0.0])
        evaluate = self.leaf.get("poly.evaluate", [0, 0.0])
        witness_calls = len(self.witness_results)
        return {
            "cli.self_ms": (per_query_ms(self_by_name.get("cli.main", 0.0)), "ms"),
            "parser.parse_ms": (per_query_ms(total_by_name.get("parser.parse_problem", 0.0)), "ms"),
            "closure.self_ms": (per_query_ms(self_of("closure")), "ms"),
            "closure.encoding_ms": (per_query_ms(total_by_name.get("closure.bilinear_encoding", 0.0)), "ms"),
            "closure.witness_calls": (witness_calls, "count"),
            "closure.witness_ms": (per_query_ms(total_by_name.get("closure.find_vanishing_witness", 0.0)), "ms"),
            "closure.witness_found_frac": (ratio(sum(self.witness_results), witness_calls), "ratio"),
            "closure.cofactor_frac": (ratio(self.semiprime_methods.count("cofactor"), len(self.semiprime_methods)), "ratio"),
            "matrixideals.self_ms": (per_query_ms(self_of("matrixideals")), "ms"),
            "matrixideals.rows": (matrix_rows, "count"),
            "submodules.prime_closure_ms": (per_query_ms(total_by_name.get("submodules.prime_closure_at", 0.0)), "ms"),
            "submodules.refutation_ms": (per_query_ms(
                total_by_name.get("submodules.semiprime_refutation", 0.0)
                + total_by_name.get("submodules.weakly_semiprime_refutation", 0.0)), "ms"),
            "groebner.buchberger_calls": (len(bases), "count"),
            "groebner.buchberger_self_s": (bb_self, "s"),
            "groebner.pairs": (pairs, "count"),
            "groebner.zero_reductions": (zeros, "count"),
            "groebner.zero_reduction_frac": (ratio(zeros, pairs), "ratio"),
            "groebner.pairs_per_s": (ratio(pairs, bb_self), "1/s"),
            "groebner.basis_size_max": (max((b[2] for b in bases), default=0), "count"),
            "groebner.basis_terms_max": (max((b[3] for b in bases), default=0), "count"),
            "groebner.coeff_bits_max": (max((b[4] for b in bases), default=0), "bits"),
            "groebner.unit_ideal_frac": (ratio(sum(b[5] for b in bases), len(bases)), "ratio"),
            "groebner.normal_form_calls": (calls_by_name.get("groebner.normal_form", 0), "count"),
            "groebner.normal_form_self_s": (self_by_name.get("groebner.normal_form", 0.0), "s"),
            "oracle.sweeps": (len(self.sweeps), "count"),
            "oracle.points": (points, "count"),
            "oracle.evaluations": (sum(s[1] for s in self.sweeps), "count"),
            "oracle.nontrivial_kernel_frac": (ratio(sum(s[2] for s in self.sweeps), points), "ratio"),
            "oracle.self_s": (self_of("oracle"), "s"),
            "oracle.points_per_s": (ratio(points, oracle_inclusive), "1/s"),
            "linalg.kernel_calls": (kernel[0], "count"),
            "linalg.kernel_self_s": (kernel[1], "s"),
            "poly.evaluate_calls": (evaluate[0], "count"),
            "poly.evaluate_self_s": (evaluate[1], "s"),
        }


# ---------------------------------------------------------------------------
# field kernels
# ---------------------------------------------------------------------------

# Q operands get numerators and denominators of this many bits: the mean
# size of the coefficients in radical-q's reduced bases (seed 5, first 60
# queries: median 7 bits, mean 17, p90 42, max 140).
Q_OPERAND_BITS = 17
FIELD_KERNELS = (
    ("q", QQ),
    ("fp", PrimeField(31)),
    ("fp2", QuadraticField(5)),
)


def _operand(rng, label, field):
    if label == "q":
        while True:
            num = rng.getrandbits(Q_OPERAND_BITS) - (1 << (Q_OPERAND_BITS - 1))
            if num:
                return Fraction(num, rng.getrandbits(Q_OPERAND_BITS) | 1)
    if label == "fp":
        return rng.randrange(1, field.p)
    while True:
        value = (rng.randrange(field.p), rng.randrange(field.p))
        if value != (0, 0):
            return value


def field_kernel_metrics(seed, operands=512, rounds=40, repeats=5):
    """ns per add, mul and inv call over seeded nonzero operands, the fastest
    of ``repeats`` timings (host contention only ever slows a loop down)."""
    rng = random.Random(f"fields:{seed}")
    out = {}
    for label, field in FIELD_KERNELS:
        xs = [_operand(rng, label, field) for _ in range(operands)]
        ys = [_operand(rng, label, field) for _ in range(operands)]
        pairs = list(zip(xs, ys))
        for op in ("add", "mul", "inv"):
            fn = getattr(field, op)
            samples = []
            for _ in range(repeats):
                start = time.perf_counter()
                for _ in range(rounds):
                    if op == "inv":
                        for x in xs:
                            fn(x)
                    else:
                        for x, y in pairs:
                            fn(x, y)
                samples.append((time.perf_counter() - start) / (rounds * operands))
            out[f"fields.{label}.{op}_ns"] = (min(samples) * 1e9, "ns")
    return out

