"""The vanishing-implication engine, and the finite-field oracle built on it.

The semiprime Nullstellensatz reduces closure membership to one test: if
G_i(a)v = 0 for every generator, then F(a)v = 0.  ``vanishing_scan`` runs
that test line by line over any lazy source of lines: a line is a prefix
a[:-1] with the last coordinates of its points, the coordinate the
odometer varies fastest.  Once per call it compiles every entry of
the query and the generators into coefficient lists in the last
coordinate, each coefficient nested the same way in the coordinates before
it.  Each row is first multiplied by the least common denominator of its
coefficients (``Field.split``): that keeps every kernel and every zero, and
over Q, at the integer points of the witness grid, the scan's kernels and
the echelon form run on ints.  The re-check of a violation evaluates the
original rational rows.

Each piece of a line goes through one ordered list of tests, built lazily:
a row block B, its minor and, one rank down, its bordered determinants.
Every test is a determinant of the integral rows, each entry an integral
polynomial built once per scan; the 0 x 0 one is 1.  First come the n x n
minors of the generator rows (n the module rank), up to n = MINOR_MAX_RANK,
of row blocks in itertools.combinations order; a cofactor expansion costs
n! products, so at larger ranks the scan goes straight to the echelon form
below.  When every n x n minor of the m generator rows is among those
tried (C(m, n) <= MINOR_MAX_COUNT, zero minors counting as tried), the
points they leave have rank at most n - 1, and the first such point of
rank n - 1 to reach the echelon form appends the (n - 1) x (n - 1) minors
M_{B,C}, of the rows B and the columns C, B first.  A test is built only
when the tests before it leave points on some line, at most MINOR_MAX_COUNT
of each size are tried, and zero minors are skipped.  On each line a minor
is specialized at the prefix, its trailing zeros trimmed, and the field's
batched kernel, ``Field.roots_among``, keeps the points of the piece where
it vanishes, in one call: a nonzero constant keeps none, a zero all.  Where
the first minor that does not vanish is n x n, those n rows are
independent, the joint kernel is trivial and the point passes, so such
points are never visited one by one; each is still counted against the
cap.  Where it is M_{B,C}, the rank is exactly n - 1, the row space is that
of the rows B, and the one kernel direction is killed by every query row f
exactly when the bordered determinant det[G_B; f] vanishes, each decided by
one ``roots_among`` call on the points still in question.  Such a point
passes where they all vanish; it counts the nontrivial kernel and the one
evaluation it would have made, the evaluation cap checked at that point.
Every other point (a violation, rank n - 2 or less, or no nonzero tried
minor) takes the per-point path below, so witnesses and counts are those of
testing every point.  Bordered determinants are built when a point of rank
n - 1 first needs them, and specialized on a line only when points are left
on it, so a search that meets its violation first builds none of them.
Specialization is the field's Horner kernel, ``Field.horner``, coordinate
by coordinate; a one-coordinate prefix takes one call per coefficient list.

Lines are read in pieces, each decided before the next is read.  The
scan's first piece is one point, and a piece that fills up doubles the
next, so the work before any point stays within a constant factor of the
points before it: a huge field costs little before its first points,
while short lines soon take one piece each.

At the points no minor passes, or above MINOR_MAX_RANK, the generator rows
are specialized at the prefix when first needed and evaluated one at a time
by Horner in the last coordinate, into an echelon form; once its rank
reaches n the remaining generators, the kernel and the query are skipped.
Only where the rank stays below n does the scan compute a basis of the
joint kernel from that echelon form, evaluate the query, and check that it
annihilates every kernel basis vector (linearity makes basis vectors
sufficient).  The echelon form's one step is ``Field.eliminate``.  A
skipped point has full rank, so the points, evaluations and nontrivial
kernels counted are those of testing every point.  The first violation in
enumeration order is re-verified on an independent path,
``Polynomial.evaluate_raw`` and a dot product, and returned, so results are
fully deterministic; a parallel implementation would have to reconcile to
the same minimal index.  That path keeps plain ``add`` and ``mul`` and
calls none of the kernels, so a wrong kernel ends in an
InvariantViolationError, never in a reported counterexample.  The witness
search in ``closure`` and the oracle below are thin wrappers over this one
loop.

The oracle enumerates every point of the field's d-fold product.
Finite-field points are not points of the characteristic-0 variety, so
over Q-based problems the oracle is advisory only; agreement tests run the
whole pipeline over one finite field instead.  Coefficients move between
fields only within one characteristic, or out of Q.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import (
    DimensionMismatchError,
    EnumerationCapExceededError,
    InfiniteFieldError,
    InvariantViolationError,
)
from .fields import Field, FieldElement, PrimeField, QuadraticField, is_prime
from .linalg import dot_raw, echelon_insert, kernel_basis as _kernel_basis
from .poly import Polynomial, check_operands
from .verdicts import Witness

DEFAULT_CAP = 1_000_000

# the largest rank whose minors the scan expands: 4! = 24 products each
MINOR_MAX_RANK = 4
# the most row blocks whose minor the scan takes, in combinations order
MINOR_MAX_COUNT = 6


@dataclass
class OracleReport:
    field: Field
    points: int
    evaluations: int
    nontrivial_kernels: int
    counterexample: Witness | None

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    @property
    def vacuous(self) -> bool:
        """A pass with every kernel trivial checked nothing of substance."""
        return self.passed and self.nontrivial_kernels == 0

    def as_json(self):
        out = {
            "field": repr(self.field),
            "points": self.points,
            "evaluations": self.evaluations,
            "nontrivial_kernels": self.nontrivial_kernels,
            "result": "pass" if self.passed else "counterexample",
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample.as_json()
        return out


def odometer(values, dim: int):
    """Every dim-tuple of coordinate values in the order of
    itertools.product, as lines (prefix, last coordinates): the points
    prefix + (x,) for each x of the line, the last coordinate fastest.  The
    first line, where every coordinate but the last holds the first value,
    reads ``values`` only as far as it is itself read, so a huge field
    costs no more than the scan reads of it; the rest of ``values`` is read
    before the second line.  Without coordinates the one point () is the line
    ((), [None])."""
    if dim == 0:
        yield (), [None]
        return
    values = iter(values)
    for first in values:
        break
    else:
        return
    line, rest = itertools.tee(itertools.chain((first,), values))
    yield (first,) * (dim - 1), line
    seen = list(rest)
    for prefix in itertools.islice(itertools.product(seen, repeat=dim - 1), 1, None):
        yield prefix, seen


def _det(rows, one):
    """Determinant of a square block of polynomial rows, by cofactor
    expansion along the first row: ``one`` for the 0 x 0 block, the entry for
    a 1 x 1 block."""
    if len(rows) < 2:
        return rows[0][0] if rows else one
    total = rows[0][0].ring.zero()
    for j, a in enumerate(rows[0]):
        if not a.is_zero():
            term = a * _det([row[:j] + row[j + 1 :] for row in rows[1:]], one)
            total = total - term if j % 2 else total + term
    return total


def _nest(terms, d, zero):
    """Dense coefficient lists of (exponents, coefficient) terms in the first
    d variables: indexed by the exponent of variable d - 1, each coefficient
    nested the same way in the variables before it, raw values innermost."""
    if d == 0:
        return terms[0][1] if terms else zero
    groups = {}
    for term in terms:
        groups.setdefault(term[0][d - 1], []).append(term)
    top = max(groups, default=-1)
    return [_nest(groups.get(e, []), d - 1, zero) for e in range(top + 1)]


def _integral(polys, field):
    """``polys``, the entries of one row, as polynomials times the least
    common denominator of all their coefficients (``field.split``).  One
    factor for the whole row keeps its kernel, its products with any vector
    vanish where the row's did, and the minors of such rows vanish where
    those of the rows did, so over Q the scan runs on ints; over a finite
    field the coefficients are unchanged."""
    nums, _ = field.split(
        {(i, exps): c for i, p in enumerate(polys) for exps, c in p.terms.items()}
    )
    out = [{} for _ in polys]
    for (i, exps), c in nums.items():
        out[i][exps] = c
    return [Polynomial(p.ring, terms) for p, terms in zip(polys, out)]


def _compile(poly, nx, zero):
    """An integral polynomial as coefficient lists in the last x-variable,
    the scan's fastest coordinate; without x-variables, a list of its one
    constant."""
    terms = list(poly.terms.items())
    if any(any(exps[nx:]) for exps, _ in terms):
        raise DimensionMismatchError("polynomial involves variables outside the x-block")
    return _nest(terms, nx, zero) if nx else [_nest(terms, 0, zero)]


def _specialize(nested, coords, horner):
    """The value of nested coefficient lists at ``coords``, by the field's
    Horner kernel in each coordinate, last first; one coordinate is one
    call."""
    if len(coords) == 1:
        return horner(nested, coords[0])
    if not coords:
        return nested
    rest = coords[:-1]
    return horner([_specialize(c, rest, horner) for c in nested], coords[-1])


def _minors(rows, rank, n, one, nx, zero):
    """The nonzero rank x rank minors of ``rows``, integral polynomial rows
    of n entries each, as pairs (row block, minor compiled as ``_compile``
    does): ``_det`` of the columns C of the rows B, for the first
    MINOR_MAX_COUNT pairs (B, C) in itertools.combinations order, B before
    C, built one at a time as they are asked for; none when n is above
    MINOR_MAX_RANK.  At rank n the one C is every column, and the 0 x 0
    minor is ``one``.  Over Q the rows are ints, so the minors are too."""
    if n > MINOR_MAX_RANK:
        return
    pairs = (
        (block, cols)
        for block in itertools.combinations(range(len(rows)), rank)
        for cols in itertools.combinations(range(n), rank)
    )
    for block, cols in itertools.islice(pairs, MINOR_MAX_COUNT):
        minor = _det([[rows[i][j] for j in cols] for i in block], one)
        if not minor.is_zero():
            yield block, _compile(minor, nx, zero)


def _bordered(one, rows, block, queries, nx, zero):
    """The determinants det[G_B; f], compiled, for each query row f: ``_det``
    of the rows of ``block`` bordered below by f, all integral polynomial
    rows.  Where the rows of the block have rank n - 1 and so has G, f lies
    in the row space of G exactly where its determinant vanishes."""
    block = [rows[i] for i in block]
    return [_compile(_det(block + [f], one), nx, zero) for f in queries]


def vanishing_scan(query, generators, field: Field, lines, cap: int) -> OracleReport:
    """Test the vanishing implication at the points of ``lines`` until the
    first violation.  A line is a pair (prefix, last coordinates) of raw
    values, standing for the points prefix + (x,) in the order of the
    coordinates (``odometer``); without x-variables a line's one coordinate
    is None and its point is ().  The query and the generators may be
    vectors or matrices over ``field``, of one ring and one rank; other
    generators raise MismatchedRingError or DimensionMismatchError.

    Each piece of a line goes through one ordered list of tests, each a row
    block, its minor and, one rank down, its bordered determinants.  Up to
    rank MINOR_MAX_RANK the list starts with n x n minors of the generator
    rows, and a point where one does not vanish passes at once.  Where every
    n x n minor is among those tried (C(m, n) <= MINOR_MAX_COUNT for m
    generator rows), the first point of rank n - 1 to reach the echelon form
    appends the first MINOR_MAX_COUNT (n - 1) x (n - 1) minors.  A point
    where such a minor, of rows B, is the first not to vanish has rank
    n - 1, and passes where every query row bordered below the rows B has a
    zero determinant, since the query rows then lie in the row space.  It
    counts the nontrivial kernel and the one kernel-vector evaluation that
    the echelon path would have, so the counts are unchanged; every
    violation is found and re-verified on the echelon path.  The tests and
    the rows are specialized at a line's prefix, and only the latest prefix
    is kept, so memory stays flat on large fields; any order of lines is
    correct, and the odometer's specializes each prefix once.  A line is
    read in pieces that double from one point, each tested before the next
    is read, and no further than the cap allows, one coordinate past it.
    Raises EnumerationCapExceededError once more than ``cap`` points or
    kernel-vector evaluations are needed."""
    n = len(query)
    check_operands(query.ring, n, generators, "generator")
    nx, is_zero = query.ring.nx, field.is_zero
    zero = field.split({0: field.zero_raw})[0][0]  # over Q the int 0
    (one,) = _integral([query.ring.one()], field)
    gen_rows = [row for g in generators for row in g.rows]
    gen_count = len(gen_rows)
    integral = [_integral(row.entries, field) for row in gen_rows + list(query.rows)]
    compiled = [[_compile(p, nx, zero) for p in row] for row in integral]
    horner, roots_among = field.horner, field.roots_among
    tests = _minors(integral[:gen_count], n, n, one, nx, zero)
    # the tests built and those at the prefix, each [row block, minor,
    # bordered determinants or None until a rank n - 1 point needs them]
    built, at = [], []
    one_down = n <= MINOR_MAX_RANK and math.comb(gen_count, n) <= MINOR_MAX_COUNT
    prefix = cache = None

    def at_prefix(nested):
        """Compiled coefficient lists at the prefix, trailing zeros trimmed."""
        coeffs = [_specialize(c, prefix, horner) for c in nested]
        while coeffs and is_zero(coeffs[-1]):
            coeffs.pop()
        return coeffs

    def values(i, last):
        """Row i of ``compiled`` at the point prefix + (last,), from the row
        at the prefix."""
        coeffs = cache[i]
        if coeffs is None:
            coeffs = cache[i] = [at_prefix(entry) for entry in compiled[i]]
        return [horner(c, last) for c in coeffs]

    def test_at(k):
        """Test k at the prefix, or None when there are no more tests."""
        if k == len(at):
            if k == len(built):
                if (minor := next(tests, None)) is None:
                    return None
                built.append([*minor, None])
            at.append([built[k][0], at_prefix(built[k][1]), None])
        return at[k]

    def borders_at(k):
        """The bordered determinants of the block of test k at the prefix,
        kept on the block's first test: a block's tests are adjacent."""
        while k and built[k - 1][0] == built[k][0]:
            k -= 1
        test, entry = built[k], at[k]
        if entry[2] is None:
            if test[2] is None:
                test[2] = _bordered(one, integral, test[0], integral[gen_count:], nx, zero)
            entry[2] = [at_prefix(c) for c in test[2]]
        return entry[2]

    count = evaluations = nontrivial = 0
    size = 1  # the points of the next piece, doubled after each full piece
    for line_prefix, line in lines:
        if line_prefix != prefix:
            prefix, cache = line_prefix, [None] * len(compiled)
            at.clear()
        line = iter(line)
        while xs := list(itertools.islice(line, min(size, cap - count + 1))):
            if len(xs) == size:
                size *= 2
            crossed = len(xs) > cap - count
            if crossed:
                xs.pop()
            # the points of the piece at which every test so far vanishes,
            # their last coordinates, and the points a test showed to be of
            # rank n - 1: whether the query rows lie in the row space there
            left, lasts, ranked = range(len(xs)), xs, {}
            k = 0
            while left and (test := test_at(k)) is not None:
                if len(roots := roots_among(test[1], lasts)) < len(left):
                    if len(test[0]) < n:
                        vanish = set(roots)
                        ids = [j for i, j in enumerate(left) if i not in vanish]
                        ranked.update(dict.fromkeys(ids, False))
                        for border in borders_at(k):
                            ids = [ids[i] for i in roots_among(border, [xs[j] for j in ids])]
                        ranked.update(dict.fromkeys(ids, True))
                    left, lasts = [left[i] for i in roots], [lasts[i] for i in roots]
                k += 1
            for j in sorted(itertools.chain(left, ranked)) if ranked else left:
                last = xs[j]
                if ranked.get(j):
                    nontrivial += 1
                    evaluations += 1
                    if evaluations > cap:
                        raise EnumerationCapExceededError(f"evaluation cap of {cap} crossed")
                    continue
                echelon = []
                for i in range(gen_count):
                    if echelon_insert(echelon, values(i, last), field) == n:
                        break
                else:
                    # the rank stayed below n, so the kernel is nontrivial
                    if one_down and len(echelon) == n - 1:
                        one_down = False
                        lower = _minors(integral[:gen_count], n - 1, n, one, nx, zero)
                        tests = itertools.chain(tests, lower)  # after every n x n minor
                    kernel = _kernel_basis([row for _, row in echelon], n, field)
                    nontrivial += 1
                    query_values = [values(i, last) for i in range(gen_count, len(compiled))]
                    for v in kernel:
                        evaluations += 1
                        if evaluations > cap:
                            raise EnumerationCapExceededError(
                                f"evaluation cap of {cap} crossed"
                            )
                        if any(not is_zero(dot_raw(field, row, v)) for row in query_values):
                            point = prefix + (last,) if nx else prefix
                            _verify_violation(query, generators, field, point, v)
                            violation = Witness(
                                tuple(map(field.element, point)),
                                tuple(FieldElement(field, x) for x in v),
                            )
                            return OracleReport(
                                field, count + j + 1, evaluations, nontrivial, violation
                            )
            count += len(xs)
            if crossed:
                raise EnumerationCapExceededError(f"point cap of {cap} crossed")
    return OracleReport(field, count, evaluations, nontrivial, None)


def _verify_violation(query, generators, field, point, vector):
    """Re-evaluate a violation before it is returned; a bad one is a bug."""

    def vanishes(obj):
        return all(
            field.is_zero(dot_raw(field, row.evaluate_raw(point), vector)) for row in obj.rows
        )

    if not all(vanishes(g) for g in generators) or vanishes(query):
        raise InvariantViolationError(
            f"violation at {point} with vector {vector} does not re-verify"
        )


def oracle_check(query, generators, field: Field, cap: int = DEFAULT_CAP) -> OracleReport:
    """Enumerate every point of field^d in odometer order and test the
    vanishing implication on kernel basis vectors.  The query and the
    generators may be vectors or matrices; coefficients are transported
    into ``field`` when needed."""
    if field.size is None:
        raise InfiniteFieldError("the oracle enumerates finite fields only")
    query = query.map_coefficients(field)
    generators = [g.map_coefficients(field) for g in generators]
    d = query.ring.nx
    if field.size**d > cap:
        raise EnumerationCapExceededError(
            f"{field.size}^{d} points exceed the cap of {cap}"
        )
    return vanishing_scan(query, generators, field, odometer(field.elements(), d), cap)


def _next_prime(p: int) -> int:
    q = p + 1
    while not is_prime(q):
        q += 1
    return q


def default_field(field: Field) -> Field:
    """The oracle's field for a problem over ``field`` when none is given:
    ``field`` itself when it is finite, else F3."""
    return field if field.size else PrimeField(3)


def oracle_check_escalating(query, generators, cap: int = DEFAULT_CAP):
    """Run the oracle, escalating while the pass stays vacuous (every kernel
    trivial): a rational problem goes on to the next prime field and then to
    the quadratic extension, a problem over F_p only to F_{p^2}, since its
    coefficients have no image in another characteristic.  It starts in the
    query's field if finite, else in F3 (see ``default_field``).  Returns
    the reports in the order they were run."""
    field = default_field(query.ring.field)
    reports = [oracle_check(query, generators, field, cap)]
    if isinstance(field, PrimeField):
        ladder = [QuadraticField(field.p)]
        if query.ring.field.char == 0:
            ladder.insert(0, PrimeField(_next_prime(field.p)))
        for bigger in ladder:
            if not reports[-1].vacuous:
                break
            reports.append(oracle_check(query, generators, bigger, cap))
    return reports
