"""Seeded query pools for the three benchmark workloads.

Each workload is a list of ``BenchQuery`` records drawn from the seed: the
same seed gives the same problems and the same ``.sm`` files.  The
random-polynomial distribution is the one the test suite draws from (up to
three terms, coefficients in {-2, -1, 1, 2}, a quarter of vector entries
zero), written out here so that the benchmark imports no test code; which
parts of a pool the seed draws is explained at ``_draw``.

The mix inside a pool is stratified rather than drawn: every block of queries
holds a fixed number of each category, and fields rotate across blocks.  A run therefore
sees the same share of each category on every seed, and only the polynomials
change, which keeps run-to-run spread down without choosing easy instances.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from dataclasses import dataclass

from semimod.fields import QQ, PrimeField, field_from_flag
from semimod.parser import ProblemFile, Query, field_name, format_problem, parse_problem
from semimod.poly import Polynomial, PolyMatrix, PolyRing, VectorPoly

COEFFS = (-2, -1, 1, 2)
WORKLOADS = ("mixed-small", "radical-q", "oracle-sweep")

# Verdicts of the shipped examples, as their comments state them.
EXAMPLES = (
    ("matrix-identity.sm", "matrix-semiprime-member", False),
    ("oracle-f3.sm", "oracle", True),
    ("radical.sm", "radical-member", True),
    ("twisted-pair.sm", "semiprime-member", True),
)


@dataclass
class BenchQuery:
    """One CLI invocation: ``semimod <command> <path> <flags...>``.

    ``expect`` is the verdict known by construction (None when unknown).
    ``twin`` names an earlier query on the same file that must reach the same
    verdict (the ``--order top`` / ``--order pot`` pairs).
    """

    qid: int
    category: str
    command: str
    path: str
    flags: tuple
    problem: ProblemFile
    expect: bool | None
    twin: int | None = None
    oracle_field: object = None

    def argv(self):
        return [self.command, self.path, *self.flags]


# ---------------------------------------------------------------------------
# random objects (the test suite's distribution)
# ---------------------------------------------------------------------------

class Draw:
    """Random objects from the test suite's distribution.

    Supports (how many terms and generators, which monomials, which entries
    are zero) come from the ``shape`` generator and coefficients from
    ``coeff``; with one generator for both, the draws interleave exactly as
    in the test suite."""

    def __init__(self, shape, coeff=None, coeffs=COEFFS):
        self.shape = shape
        self.coeff = coeff or shape
        self.coeffs = coeffs

    def randint(self, a, b):
        return self.shape.randint(a, b)

    def polynomial(self, ring, max_degree=2, max_terms=3):
        terms = {}
        for _ in range(self.shape.randint(1, max_terms)):
            exps = [0] * ring.num_vars
            for _ in range(self.shape.randint(0, max_degree)):
                exps[self.shape.randrange(ring.nx)] += 1
            terms[tuple(exps)] = ring.field.coerce(self.coeff.choice(self.coeffs))
        return Polynomial(ring, terms)

    def vector(self, ring, rank, max_degree=2):
        while True:
            entries = []
            for _ in range(rank):
                if self.shape.random() < 0.25:
                    entries.append(ring.zero())
                else:
                    entries.append(self.polynomial(ring, max_degree))
            vec = VectorPoly(ring, entries)
            if not vec.is_zero():
                return vec

    def generators(self, ring, rank, count=None, max_degree=2):
        count = count or self.shape.randint(1, 3)
        return [self.vector(ring, rank, max_degree) for _ in range(count)]

    def matrix(self, ring, size, max_degree=1):
        return PolyMatrix(ring, [
            [self.polynomial(ring, max_degree) for _ in range(size)] for _ in range(size)
        ])

    def combination(self, gens, cofactor_degree=1):
        """A nonzero sum of random multiples of the generators (a member)."""
        ring = gens[0].ring
        while True:
            total = None
            for g in gens:
                piece = self.polynomial(ring, cofactor_degree) * g
                total = piece if total is None else total + piece
            if not total.is_zero():
                return total

    def point(self):
        return (self.coeff.randint(-2, 2), self.coeff.randint(-2, 2))

    def vanishing_linear_form(self, ring, point):
        """A nonzero c1 (x - a) + c2 (y - b): it vanishes at the point."""
        x, y = ring.variables()
        a, b = point
        while True:
            form = (x - a).scale(self.coeff.choice((0,) + COEFFS)) + (y - b).scale(
                self.coeff.choice((0,) + COEFFS)
            )
            if not form.is_zero():
                return form


def closure_law_generators(gens, f):
    """Adjoin f_i * f for every nonzero entry: f then lies in the semiprime
    closure (if f_i(a) f(a).v = 0 for all i, then f(a) = 0 or f(a).v = 0)."""
    return list(gens) + [entry * f for entry in f.entries if not entry.is_zero()]


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------

def _problem(ring, objects, kind, args):
    problem = ProblemFile(ring=ring)
    for name, (okind, value) in objects.items():
        problem.objects[name] = (okind, value)
        if okind == "vec":
            problem.rank = len(value)
        elif okind == "mat":
            problem.rank = value.size
    problem.queries.append(Query(kind, args))
    return problem


def _named(prefix, values):
    return {f"{prefix}{j + 1}": v for j, v in enumerate(values)}


def membership_problem(kind, f, gens):
    okind = "mat" if isinstance(f, PolyMatrix) else "vec" if isinstance(f, VectorPoly) else "poly"
    gnames = _named("g", gens)
    objects = {name: (okind, g) for name, g in gnames.items()}
    objects["f"] = (okind, f)
    return _problem(f.ring, objects, kind, {"query": "f", "generators": list(gnames)})


def refute_weak_problem(r, m, gens):
    gnames = _named("g", gens)
    objects = {name: ("vec", g) for name, g in gnames.items()}
    objects["r"] = ("poly", r)
    objects["m"] = ("vec", m)
    args = {"scalar": "r", "vector": "m", "generators": list(gnames)}
    return _problem(r.ring, objects, "refute-weak", args)


def k_of_problem(gens, point):
    ring = gens[0].ring
    gnames = _named("g", gens)
    objects = {name: ("vec", g) for name, g in gnames.items()}
    coords = [ring.field.element(ring.field.coerce(c)) for c in point]
    return _problem(ring, objects, "k-of", {"generators": list(gnames), "point": coords})


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

MIXED_FIELDS = (QQ, PrimeField(7), PrimeField(101))


def _mixed_block(draw, field):
    """One query of every mixed-small category over one field; entries of
    the generators have degree <= 1 and the rank is 1 or 2."""
    ring = PolyRing(field, ("x", "y"))
    out = []

    def add(category, command, problem, expect=None, flags=(), twin=None):
        out.append(dict(category=category, command=command, problem=problem,
                        expect=expect, flags=flags, twin=twin))

    def rank():
        return draw.randint(1, 2)

    def polys(lo, hi):
        return [draw.polynomial(ring, 1) for _ in range(draw.randint(lo, hi))]

    n = rank()
    gens = draw.generators(ring, n, max_degree=1)
    add("member-vec-combo", "member",
        membership_problem("member", draw.combination(gens), gens), True, ("--order", "top"))

    n = rank()
    gens = draw.generators(ring, n, max_degree=1)
    problem = membership_problem("member", draw.vector(ring, n, 1), gens)
    add("member-vec-random", "member", problem, None, ("--order", "top"))
    add("member-vec-random", "member", problem, None, ("--order", "pot"), twin=-1)

    pgens = polys(1, 3)
    poly_f = draw.combination([VectorPoly(ring, [g]) for g in pgens]).entries[0]
    add("member-poly-combo", "member",
        membership_problem("member", poly_f, pgens), True, ("--order", "pot"))

    pgens = polys(1, 3)
    add("member-poly-random", "member",
        membership_problem("member", draw.polynomial(ring, 1), pgens), None, ("--order", "top"))

    n = rank()
    gens = draw.generators(ring, n, max_degree=1)
    f = draw.vector(ring, n, 1)
    add("semiprime-closure-law", "semiprime-member",
        membership_problem("semiprime-member", f, closure_law_generators(gens, f)), True)

    n = rank()
    gens = draw.generators(ring, n, max_degree=1)
    add("semiprime-random", "semiprime-member",
        membership_problem("semiprime-member", draw.vector(ring, n, 1), gens))

    # p^2 = (p^2 - h*w) + w*h lies in the ideal, so p lies in its radical
    p, h, w = polys(3, 3)
    add("radical-power", "radical-member",
        membership_problem("radical-member", p, [p * p - h * w, h]), True)

    pgens = polys(1, 2)
    add("radical-random", "radical-member",
        membership_problem("radical-member", draw.polynomial(ring, 1), pgens))

    n = rank()
    mgens = [draw.matrix(ring, n) for _ in range(draw.randint(1, 2))]
    while True:
        left = None
        for g in mgens:
            piece = draw.matrix(ring, n) @ g
            left = piece if left is None else left + piece
        if not left.is_zero():
            break
    add("matrix-combo", "matrix-semiprime-member",
        membership_problem("matrix-semiprime-member", left, mgens), True)

    n = rank()
    mgens = [draw.matrix(ring, n) for _ in range(draw.randint(1, 2))]
    add("matrix-random", "matrix-semiprime-member",
        membership_problem("matrix-semiprime-member", draw.matrix(ring, n), mgens))

    # N = <f_i * f>: f_i f lies in N, and f does not because the entries of
    # f all vanish at one point, so they generate a proper ideal
    n = rank()
    point = draw.point()
    f = VectorPoly(ring, [draw.vanishing_linear_form(ring, point) for _ in range(n)])
    add("refute-semiprime-construct", "refute-semiprime",
        membership_problem("refute-semiprime", f, closure_law_generators([], f)), True)

    n = rank()
    gens = draw.generators(ring, n, max_degree=1)
    add("refute-semiprime-random", "refute-semiprime",
        membership_problem("refute-semiprime", draw.vector(ring, n, 1), gens))

    # N = <r^2 m> holds r^2 m but not r m when r is not constant
    n = rank()
    r = draw.vanishing_linear_form(ring, draw.point())
    m = draw.vector(ring, n, 1)
    add("refute-weak-construct", "refute-weak", refute_weak_problem(r, m, [(r * r) * m]), True)

    n = rank()
    r, m = draw.polynomial(ring, 1), draw.vector(ring, n, 1)
    add("refute-weak-random", "refute-weak",
        refute_weak_problem(r, m, draw.generators(ring, n, max_degree=1)))

    n = rank()
    add("k-of", "k-of", k_of_problem(draw.generators(ring, n, max_degree=1), draw.point()))
    return out


def _radical_block(draw):
    """Three random queries, one closure-law member and one combination, over
    Q[x, y] at rank 2 with 2-3 generators of entry degree <= 2.  Three random
    queries in five rather than one in two keep the median latency inside
    the random population instead of on the gap between it and the cheaper
    constructed members, where it would jump from run to run."""
    ring = PolyRing(QQ, ("x", "y"))

    def gens():
        return draw.generators(ring, 2, count=draw.randint(2, 3), max_degree=2)

    out = []
    for _ in range(3):
        g = gens()
        out.append(("radical-random", membership_problem(
            "semiprime-member", draw.vector(ring, 2, 2), g), None))
    g = gens()
    f = draw.vector(ring, 2, 2)
    out.append(("radical-closure-law", membership_problem(
        "semiprime-member", f, closure_law_generators(g, f)), True))
    g = gens()
    out.append(("radical-combo", membership_problem(
        "semiprime-member", draw.combination(g), g), True))
    draw.shape.shuffle(out)
    return [dict(category=category, command="semiprime-member", problem=problem, expect=expect)
            for category, problem, expect in out]


# (ring field, --field flag, variables); the extension fields are reached
# by transporting base-field coefficients, as the CLI does.
ORACLE_FIELDS = (
    (PrimeField(3), "3", ("x", "y", "z")),
    (PrimeField(3), "3^2", ("x", "y", "z")),
    (PrimeField(31), "31", ("x", "y")),
    (PrimeField(5), "5^2", ("x", "y")),
)
ORACLE_CATEGORIES = ("oracle-combo", "oracle-closure-law", "oracle-combo", "oracle-random")


def _oracle_block(draw, block):
    """One query per oracle field; three in four are closure members, whose
    sweeps run over every point, and one in four is random."""
    out = []
    for k, (base, flag, names) in enumerate(ORACLE_FIELDS):
        category = ORACLE_CATEGORIES[(k + block) % len(ORACLE_CATEGORIES)]
        ring = PolyRing(base, names)
        g = draw.generators(ring, 2, count=draw.randint(2, 3), max_degree=2)
        if category == "oracle-combo":
            f, expect = draw.combination(g), True
        elif category == "oracle-closure-law":
            f = draw.vector(ring, 2, 2)
            g, expect = closure_law_generators(g, f), True
        else:
            f, expect = draw.vector(ring, 2, 2), None
        out.append(dict(category=category, command="oracle",
                        problem=membership_problem("oracle", f, g), expect=expect,
                        flags=("--field", flag), oracle_field=field_from_flag(flag)))
    return out


# Coefficients of radical-q: with a wider range the inputs are generic for
# their supports, so a query's cost depends on its supports far more than on
# its coefficients (see _draw).
WIDE_COEFFS = tuple(c for c in range(-9, 10) if c)
# A run is whole passes over the pool (see run.closed_loop).  radical-q has
# at least 100 queries so that its p90 has ten beyond it.  mixed-small's
# time is dominated by a handful of witness searches that scan all of F_101^2
# (a non-member with no rational witness); how many a pool holds varies with
# the seed, so its pool is large enough (about one 30-second pass) for that
# count to average out.
POOL_BLOCKS = {"mixed-small": 288, "radical-q": 21, "oracle-sweep": 40}


def _draw(workload, seed):
    """The random source of a workload's pool.

    Each workload's cost is heavy-tailed in the supports of its queries (a
    few rational bases take seconds, a few witness searches scan every
    point), so a pool drawn wholly from the seed varies by tens of percent
    from seed to seed.  So the supports, the generator counts and the query
    order come from one fixed catalog drawn from the same distribution, and
    the seed draws the coefficients: every run meets the same shapes, hard
    ones included, with new numbers.
    """
    rng = random.Random(f"{workload}:{seed}")
    shape = random.Random(f"{workload}:shapes")
    return Draw(shape, rng, WIDE_COEFFS if workload == "radical-q" else COEFFS)


def build_pool(workload, seed, root, workdir, tick=lambda: None):
    """Generate the workload's queries, write one .sm file per problem under
    ``workdir`` (relative to ``root``), and return the list of queries.
    ``tick`` is called between blocks and between files."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    draw = _draw(workload, seed)
    entries = []
    for b in range(POOL_BLOCKS[workload]):
        tick()
        if workload == "mixed-small":
            entries.extend(_mixed_block(draw, MIXED_FIELDS[b % len(MIXED_FIELDS)]))
        elif workload == "radical-q":
            entries.extend(_radical_block(draw))
        else:
            entries.extend(_oracle_block(draw, b))

    os.makedirs(os.path.join(root, workdir), exist_ok=True)
    queries = []
    written = {}
    for qid, entry in enumerate(entries):
        problem = entry["problem"]
        if id(problem) not in written:
            tick()
            path = f"{workdir}/q{len(written):04d}.sm"
            with open(os.path.join(root, path), "w", encoding="utf-8") as handle:
                handle.write(format_problem(problem))
            written[id(problem)] = path
        twin = entry.get("twin")
        queries.append(BenchQuery(
            qid, entry["category"], entry["command"], written[id(problem)],
            entry.get("flags", ()), problem, entry["expect"],
            None if twin is None else qid + twin, entry.get("oracle_field"),
        ))
    if workload == "mixed-small":
        for name, command, expect in EXAMPLES:
            path = f"docs/examples/{name}"
            with open(os.path.join(root, path), encoding="utf-8") as handle:
                problem = parse_problem(handle.read())
            queries.append(BenchQuery(len(queries), "example", command, path, (), problem, expect))
    return queries


def describe_pool(queries):
    """Query count and the mix of command, field and rank."""
    def ring_field(q):
        base = field_name(q.problem.ring.field)
        return f"{base} -> {q.oracle_field!r}" if q.oracle_field else base

    return {
        "queries": len(queries),
        "files": len({q.path for q in queries}),
        "command": dict(sorted(Counter(q.command for q in queries).items())),
        "category": dict(sorted(Counter(q.category for q in queries).items())),
        "field": dict(sorted(Counter(ring_field(q) for q in queries).items())),
        "rank": dict(sorted(Counter(str(q.problem.rank or 1) for q in queries).items())),
    }
