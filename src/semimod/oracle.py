"""The vanishing-implication engine, and the finite-field oracle built on it.

The semiprime Nullstellensatz reduces closure membership to one test: if
G_i(a)v = 0 for every generator, then F(a)v = 0.  ``vanishing_scan`` runs
that test over any lazy source of points.  Once per scan it compiles every
entry of the query and the generators into coefficient lists in the last
coordinate, which the odometer varies fastest, each coefficient nested the
same way in the coordinates before it.  Each row, and the minor below, is
first multiplied by the least common denominator of its coefficients
(``Field.split``): that keeps every kernel and every zero, and over Q, at
the integer points of the witness grid, Horner and the echelon form run on
ints.  The re-check of a violation evaluates the original rational rows.
Up to rank n = MINOR_MAX_RANK the scan also takes the minor D, the
determinant of the first n generator rows (n the module rank), with
polynomial arithmetic; its cofactor expansion costs n! products, so at
larger ranks the scan goes straight to the echelon form below.  When the
prefix a[:-1] of a point changes, D is specialized at the new prefix, and
the rows are specialized at it when first needed; each value at a point is
then one Horner evaluation in a[-1].  Horner is the scan's one evaluator,
in the specialization as at the points, and it is the field's own kernel,
``Field.horner``, with inline arithmetic per field; a one-coordinate
prefix is specialized with one call per coefficient list.

Where D(a) != 0 the first n rows are independent, the joint kernel is
trivial and the point passes.  The specialized D has its trailing zeros
trimmed, so where a nonzero constant is left, every point of the line
passes with no evaluation at all; each point is still counted against the
cap.  Where nothing is left, D vanishes on the whole line and every point
of it goes to the echelon form.  Where D(a) = 0, or above MINOR_MAX_RANK,
the generator rows are evaluated one at a time into an echelon form; once its rank reaches n the remaining
generators, the kernel and the query are skipped.  Only where the rank
stays below n does the scan compute a basis of the joint kernel from that
echelon form, evaluate the query, and check that it annihilates every
kernel basis vector (linearity makes basis vectors sufficient).  The
echelon form's one step is the field's elimination kernel,
``Field.eliminate``.  The first violation in enumeration order is
re-verified on an independent path, ``Polynomial.evaluate_raw`` and a dot
product, and returned, so results are fully deterministic; a parallel
implementation would have to reconcile to the same minimal index.  That
path keeps plain ``add`` and ``mul`` and calls neither kernel, so a wrong
kernel ends in an InvariantViolationError, never in a reported
counterexample.  The witness search in ``closure`` and the oracle below
are thin wrappers over this one loop.

The oracle enumerates every point of the field's d-fold product.
Finite-field points are not points of the characteristic-0 variety, so
over Q-based problems the oracle is advisory only; agreement tests run the
whole pipeline over one finite field instead.  Coefficients move between
fields only within one characteristic, or out of Q.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    DimensionMismatchError,
    EnumerationCapExceededError,
    InfiniteFieldError,
    InvariantViolationError,
)
from .fields import Field, FieldElement, PrimeField, QuadraticField, is_prime
from .linalg import dot_raw, echelon_insert, kernel_basis as _kernel_basis
from .poly import check_operands
from .verdicts import Witness

DEFAULT_CAP = 1_000_000

# the largest rank whose minor the scan expands: 4! = 24 products
MINOR_MAX_RANK = 4


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
    """Every dim-tuple of coordinate values, last coordinate fastest (the
    order of itertools.product).  Only the first row, where every coordinate
    but the last holds the first value, is produced while ``values`` is
    still being read, so a huge field costs nothing before its first
    points."""
    if dim == 0:
        yield ()
        return
    seen = []
    for value in values:
        seen.append(value)
        yield (seen[0],) * (dim - 1) + (value,)
    yield from itertools.islice(itertools.product(seen, repeat=dim), len(seen), None)


def _det(rows):
    """Determinant of a square block of polynomial rows, by cofactor
    expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    total = rows[0][0].ring.zero()
    for j, a in enumerate(rows[0]):
        if not a.is_zero():
            term = a * _det([row[:j] + row[j + 1 :] for row in rows[1:]])
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
    """The term lists of ``polys``, one row or one minor, times the least
    common denominator of all their coefficients (``field.split``).  One
    factor for the whole row keeps its kernel, and its products with any
    vector vanish where the row's did, so over Q the scan runs on ints; over
    a finite field the terms are unchanged."""
    nums, _ = field.split(
        {(i, exps): c for i, p in enumerate(polys) for exps, c in p.terms.items()}
    )
    out = [[] for _ in polys]
    for (i, exps), c in nums.items():
        out[i].append((exps, c))
    return out


def _compile(terms, nx, zero):
    """One entry's terms as coefficient lists in the last x-variable, the
    scan's fastest coordinate; without x-variables, a list of its one
    constant."""
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


def vanishing_scan(query, generators, field: Field, points, cap: int) -> OracleReport:
    """Test the vanishing implication at each of ``points`` (raw coordinate
    tuples) until the first violation.  The query and the generators may be
    vectors or matrices over ``field``, of one ring and one rank; other
    generators raise MismatchedRingError or DimensionMismatchError.

    Up to rank MINOR_MAX_RANK, a point passes at once where the minor of
    the first n generator rows does not vanish.  The minor and the rows are specialized at a point's
    prefix, and only the latest prefix is kept, so memory stays flat on
    large fields; any order of points is correct, and the odometer's, with
    the last coordinate fastest, specializes each prefix once.  Raises
    EnumerationCapExceededError once more than ``cap`` points or
    kernel-vector evaluations are needed."""
    n = len(query)
    check_operands(query.ring, n, generators, "generator")
    nx, is_zero = query.ring.nx, field.is_zero
    zero = field.split({0: field.zero_raw})[0][0]  # over Q the int 0
    gen_rows = [row for g in generators for row in g.rows]
    gen_count = len(gen_rows)
    compiled = [
        [_compile(terms, nx, zero) for terms in _integral(row.entries, field)]
        for row in gen_rows + list(query.rows)
    ]
    minor = _det(gen_rows[:n]) if n <= MINOR_MAX_RANK and gen_count >= n else None
    if minor is not None:
        minor = None if minor.is_zero() else _compile(_integral([minor], field)[0], nx, zero)
    horner = field.horner
    prefix = cache = None
    minor_at = ()  # the minor on the current line, trailing zeros trimmed

    def values(i):
        """Row i of ``compiled`` at the current point, from the rows
        specialized at its prefix."""
        coeffs = cache[i]
        if coeffs is None:
            coeffs = cache[i] = [
                [_specialize(c, prefix, horner) for c in entry] for entry in compiled[i]
            ]
        return [horner(c, last) for c in coeffs]

    count = evaluations = nontrivial = 0
    for point in points:
        count += 1
        if count > cap:
            raise EnumerationCapExceededError(f"point cap of {cap} crossed")
        if point[:-1] != prefix:
            prefix, cache = point[:-1], [None] * len(compiled)
            if minor is not None:
                minor_at = [_specialize(c, prefix, horner) for c in minor]
                while minor_at and is_zero(minor_at[-1]):
                    minor_at.pop()
        last = point[-1] if point else None
        if minor_at and (len(minor_at) == 1 or not is_zero(horner(minor_at, last))):
            continue  # the first n generator rows are independent here
        echelon = []
        for i in range(gen_count):
            if echelon_insert(echelon, values(i), field) == n:
                break
        else:
            # the rank stayed below n, so the kernel is nontrivial
            kernel = _kernel_basis([row for _, row in echelon], n, field)
            nontrivial += 1
            query_values = [values(i) for i in range(gen_count, len(compiled))]
            for v in kernel:
                evaluations += 1
                if evaluations > cap:
                    raise EnumerationCapExceededError(
                        f"evaluation cap of {cap} crossed"
                    )
                if any(not is_zero(dot_raw(field, row, v)) for row in query_values):
                    _verify_violation(query, generators, field, point, v)
                    violation = Witness(
                        tuple(map(field.element, point)),
                        tuple(FieldElement(field, x) for x in v),
                    )
                    return OracleReport(
                        field, count, evaluations, nontrivial, violation
                    )
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
    points = odometer(field.elements(), d)
    return vanishing_scan(query, generators, field, points, cap)


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
