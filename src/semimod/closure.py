"""Membership in radical ideals and in semiprime closures of submodules.

The bridge: a vector f lies in the smallest semiprime submodule of R^n
containing g_1..g_m iff the scalar polynomial f.v lies in the radical of
the ideal generated by the g_j.v inside k[x, v], where v is a block of
fresh linear variables.  Proof sketch, both directions over an
algebraically closed field: membership in the semiprime closure is
equivalent to "g_j(a)v = 0 for all j implies f(a)v = 0 at every point
(a, v)", which is exactly the statement that f.v vanishes on the zero set
of the g_j.v, i.e. classical radical membership.  Radical membership
itself is decided with one extra tag variable: f is in the radical of I
iff 1 lies in I + <1 - t*f>, which the radical test asks of
``submodule_member`` on that ideal's rank-1 presentation, as any
membership is asked.  The tag is the first variable of that ring,
k[t, x, v], and the ring's own variables keep their order after it: so t
is the largest variable under grevlex and lex alike, and under lex the
basis eliminates t.  With t appended last, the smallest variable, the lex
basis of a full encoding can grow its coefficients past the cap, and the
grevlex bases of the radical benchmark's charts ran more pairs.

The charts: every g_j.v is linear in v, so the zero set of the g_j.v is a
cone in v, and f.v vanishes wherever v = 0.  Every nonzero v is a scalar
multiple of exactly one v whose last nonzero coordinate v_k is 1.  So f.v
lies in the radical iff, for every k, the chart query h_k = f.v at
v = (v_1..v_{k-1}, 1, 0..0) lies in the radical of the g_j.v at the same v,
in k[x, v_1..v_{k-1}] (``BilinearEncoding.chart``).  The radical path runs
one Rabinowitsch basis per chart, k = 1..n in ascending order, each with
k - 1 v-variables where the full encoding has n.  The charts' verdict
equals the full encoding's over any field and under any order, since both
decide membership over the algebraic closure.

An ideal is the rank-1 case: a semiprime submodule of R^1 is a radical
ideal, so p lies in the closure of (p_1..p_m) iff p lies in their radical,
and ``semiprime_member`` decides it on the vectors [p] and [p_j].  Its one
chart sets v_1 = 1 in the problem's own ring, where the radical test is
the Rabinowitsch test of p itself.

A matrix F lies in the smallest semiprime left ideal of M_n(R) containing
G_1..G_k iff every row of F lies in the closure of the rows of the G_i, so
``semiprime_member`` decides a vector and a matrix in one loop over the
query's rows (a vector is its own single row), and the vanishing test
reads G_i(a)v = 0 for all i implies F(a)v = 0.

Verdicts computed over Q agree with the verdicts over the algebraic
closure, because basis computations never leave the base field and "1 in
the ideal" is preserved under field extension.  Over a finite base field a
positive verdict stays sound for every extension point, while a negative
one may have no base-field witness; ``verdicts.guarantee_for`` names the
case that applies to a field.

A decision reads no monic basis and no cofactor: the radical test asks
only whether 1 is a member, and reads the presentation's cached basis
only to re-check a unit ideal.  Each query is scanned for a witness at
most once, and every witness is the query's own first violation.  Over Q a
negative closure verdict is decided by a re-verified grid witness, when
the scan finds one, before any radical basis is built; over a finite field
the scan decorates a negative the radical test has decided, on first read
(see ``semiprime_member``).  Over Q the search evaluates in integers.

Everything here is pure; long computations are bounded by the resource
caps and independent queries may run in parallel.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import EnumerationCapExceededError, InvariantViolationError
from .groebner import (
    DEFAULT_LIMITS,
    GroebnerLimits,
    SubmodulePresentation,
    ideal_presentation,
    submodule_member,
)
from .oracle import odometer, vanishing_scan
from .poly import DEFAULT_ORDER, OrderSpec, Polynomial, PolyRing, VectorPoly, check_operands
from .submodules import prime_closure_at
from .verdicts import Verdict


@dataclass(frozen=True)
class BilinearEncoding:
    """Generators and query of a submodule problem of rank ``rank``,
    rewritten as scalar polynomials in k[x, v_1..v_rank]; every encoded
    polynomial is homogeneous of degree 1 in the v-block."""

    ring: PolyRing
    encoded_generators: tuple
    encoded_query: Polynomial
    rank: int

    def chart(self, k: int):
        """The query and the nonzero generators on the k-th chart of the
        v-block, 1 <= k <= rank: v_k = 1 and v_{k+1} = ... = v_rank = 0, in
        k[x, v_1..v_{k-1}], which keeps this ring's variable names and
        x-block.  Returns ``(query, generators)``."""
        ring = self.ring
        cut = ring.num_vars - self.rank + k - 1  # x-block and v_1..v_{k-1}
        chart_ring = PolyRing(ring.field, ring.names[:cut], nx=ring.nx)

        def restrict(p):
            # each term carries one v-variable to the first power: v_k
            # becomes 1, and a term in v_{k+1}..v_rank vanishes
            kept = {e[:cut]: c for e, c in p.terms.items() if not any(e[cut + 1 :])}
            return Polynomial(chart_ring, kept)

        gens = tuple(g for g in map(restrict, self.encoded_generators) if not g.is_zero())
        return restrict(self.encoded_query), gens


def bilinear_encoding(f: VectorPoly, generators) -> BilinearEncoding:
    base = f.ring
    rank = len(f)
    check_operands(base, rank, generators, "generator")
    ext = base.extended(f"v{i}" for i in range(1, rank + 1))
    v = [(0,) * i + (1,) + (0,) * (rank - 1 - i) for i in range(rank)]  # v_1..v_rank

    def encode(g):
        # g.v = sum of g_i * v_i: every term of g_i * v_i carries v_i alone
        # of the v-block, so no two terms of the sum share a monomial
        return Polynomial(
            ext, {e + vi: c for entry, vi in zip(g.entries, v) for e, c in entry.terms.items()}
        )

    return BilinearEncoding(ext, tuple(map(encode, generators)), encode(f), rank)


def _radical_member(f, gens, order, limits) -> Verdict:
    """The radical test with its evidence: whether 1 lies in I + <1 - t*f>,
    with the counters of that ideal's basis.  The basis is computed in
    ``ring.tagged()``, the tag first and the ring's own variables after it
    in their order (see the module docstring), on the generators of I and
    then 1 - t*f.  Both are written as term maps there: a monomial of the
    ring with t's exponent put in front, 0 for a generator's terms and 1
    for those of t*f."""
    ring = f.ring
    check_operands(ring, None, gens, "generator")
    field = ring.field
    neg = field.neg
    tagged = ring.tagged()
    aug = [Polynomial(tagged, {(0, *e): c for e, c in g.terms.items()}) for g in gens]
    last = {(0,) * tagged.num_vars: field.one_raw}  # 1 - t*f
    last.update({(1, *e): neg(c) for e, c in f.terms.items()})
    aug.append(Polynomial(tagged, last))
    ideal = ideal_presentation(tagged, aug)
    one = VectorPoly(tagged, [tagged.one()])
    verdict = submodule_member(one, ideal, order, limits)
    # soundness re-check: the reduced basis of the unit ideal is exactly {1}
    if verdict.member and ideal.groebner(order, limits).elements != [one]:
        raise InvariantViolationError("unit ideal without the reduced basis {1}")
    return Verdict(member=verdict.member, method="radical", stats=verdict.stats)


def _radical_member_by_charts(enc: BilinearEncoding, order, limits) -> Verdict:
    """The radical test of the encoded query, one chart of the v-block at a
    time in ascending order: the query lies in the radical iff it does on
    every chart.  A chart whose query is 0 passes without a basis; the
    counters are summed over the charts run, and the first negative ends
    the test."""
    stats = Counter()
    for k in range(1, enc.rank + 1):
        h, gens = enc.chart(k)
        if h.is_zero():
            continue
        verdict = _radical_member(h, gens, order, limits)
        stats.update(verdict.stats)
        if not verdict.member:
            return Verdict(False, method="radical", stats=dict(stats))
    return Verdict(True, method="radical", stats=dict(stats))


def radical_member(
    f: Polynomial,
    gens,
    order: OrderSpec = DEFAULT_ORDER,
    limits: GroebnerLimits = DEFAULT_LIMITS,
) -> bool:
    """True iff f lies in the radical of the ideal generated by ``gens``,
    decided by whether 1 - t*f together with the generators produce the
    unit ideal in one extra variable.  This is the bare test, with no plain
    membership and no witness search first, on any ring: the rings k[x, v]
    of an encoding too, whose v-variables the grid scan cannot evaluate.
    For a verdict with evidence, decide the rank-1 vectors [f] and [g_j]
    by ``semiprime_member``, as ``radical-member`` does."""
    return _radical_member(f, gens, order, limits).member


# ---------------------------------------------------------------------------
# witness search
# ---------------------------------------------------------------------------

# The search runs before the radical test over Q and after it over a finite
# field, so its budget is its own, far below the oracle's.
WITNESS_CAP = 1 << 16
WITNESS_RADIUS = 2


def _grid_values():
    """Small integer coordinates, nearest to zero first, so the first
    witness found is the smallest one.  Plain ints, so the scan over Q
    evaluates its integral rows in integers."""
    yield 0
    for k in range(1, WITNESS_RADIUS + 1):
        yield k
        yield -k


def find_vanishing_witness(f, generators):
    """Search for a point a and direction v with g(a).v = 0 for every
    generator while f(a).v != 0, using the oracle's vanishing scan.  The
    query and the generators may be vectors or matrices; for matrices the
    test is G(a)v = 0 for every generator while F(a)v != 0.  Over Q the
    points form the integer grid {-WITNESS_RADIUS..WITNESS_RADIUS}^d, as
    plain ints, so the scan's rows, cleared of denominators, evaluate in
    integers; over a finite field they are every point of the field, in the
    oracle's order.  Points are enumerated lazily, and the search gives up
    after WITNESS_CAP points or kernel-vector evaluations.  Returns a verified
    Witness or None; absence of a witness proves nothing."""
    field = f.ring.field
    if field.char == 0:
        values = _grid_values()
    else:
        values = field.elements()
    lines = odometer(values, f.ring.nx)
    try:
        scan = vanishing_scan(f, generators, field, lines, WITNESS_CAP)
    except EnumerationCapExceededError:
        return None
    return scan.counterexample


# ---------------------------------------------------------------------------
# semiprime closure membership
# ---------------------------------------------------------------------------

def semiprime_member(
    query,
    submodule: SubmodulePresentation,
    order: OrderSpec = DEFAULT_ORDER,
    limits: GroebnerLimits = DEFAULT_LIMITS,
) -> Verdict:
    """Decide whether the query, a vector or a matrix, lies in the smallest
    semiprime submodule containing the presented one; a matrix does iff
    every one of its rows does.

    Each row first tries plain membership, which yields cofactors.  Over Q,
    at the first row that fails it, the whole query is searched once for a
    grid witness, a point a and direction v with g(a).v = 0 for every
    generator while the query does not vanish at (a, v): by the
    Nullstellensatz one proves the query outside the closure over Q-bar
    too, so a re-verified witness decides the negative (method "witness").
    Otherwise, and always over a finite field, whose scan may enumerate
    every point, the bilinear encoding reduces the row to radical
    membership in k[x, v], decided one chart of the v-block at a time (see
    the module docstring): chart k sets v_k = 1 and the later v to 0, and
    the row passes iff it passes on every chart.  A radical negative ends
    the loop.

    Counters are summed over every phase of every row run, and over every
    chart basis of a radical test.  ``method`` is "cofactor" when every row
    passed by cofactors, and a vector's verdict then carries them as its
    certificate; a matrix verdict carries none.  A negative's witness is the
    query's first violation: attached over Q, None for a radical negative,
    whose grid has been searched, and over a finite field searched on first
    read."""
    generators = submodule.generators
    rational = query.ring.field.char == 0
    stats = Counter()  # each counter summed over the phases and rows run
    method = "cofactor"
    for row in query.rows:
        direct = submodule_member(row, submodule, order, limits)
        stats.update(direct.stats)
        if direct.member:
            continue
        if rational and method == "cofactor":  # the first row outside the submodule
            witness = find_vanishing_witness(query, generators)
            if witness is not None:
                return Verdict(False, method="witness", stats=dict(stats), witness=witness)
        enc = bilinear_encoding(row, generators)
        radical = _radical_member_by_charts(enc, order, limits)
        stats.update(radical.stats)
        method = "radical"
        if not radical.member:
            witness = None if rational else lambda: find_vanishing_witness(query, generators)
            return Verdict(False, method=method, stats=dict(stats), witness=witness)
    certificate = None
    if method == "cofactor" and isinstance(query, VectorPoly):
        certificate = lambda: direct.certificate
    return Verdict(True, certificate=certificate, method=method, stats=dict(stats))


def closure_law_check(
    submodule: SubmodulePresentation,
    f: VectorPoly,
    order: OrderSpec = DEFAULT_ORDER,
    limits: GroebnerLimits = DEFAULT_LIMITS,
) -> bool:
    """Law: after adjoining f_i * f for every i, f itself must land in the
    semiprime closure.  Always true mathematically; exposed as an operation
    so the property suite can exercise the full pipeline."""
    augmented = submodule.with_extra([entry * f for entry in f.entries])
    return semiprime_member(f, augmented, order, limits).member


def radical_intersection_check(
    submodule: SubmodulePresentation,
    f: VectorPoly,
    points,
    order: OrderSpec = DEFAULT_ORDER,
    limits: GroebnerLimits = DEFAULT_LIMITS,
) -> bool:
    """Necessary-condition sampling of the description of the closure as an
    intersection of prime submodules: a member of the closure must lie in
    the point-prime closure at every sampled point.  Vacuously true for
    non-members."""
    if not semiprime_member(f, submodule, order, limits).member:
        return True
    for point in points:
        closure = prime_closure_at(submodule, point)
        if closure.improper:
            continue  # the whole of R^n contains everything
        if not submodule_member(f, closure.submodule, order, limits).member:
            return False
    return True
