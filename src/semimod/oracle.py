"""The vanishing-implication engine, and the finite-field oracle built on it.

The semiprime Nullstellensatz reduces closure membership to one test: if
G_i(a)v = 0 for every generator, then F(a)v = 0.  ``vanishing_scan`` runs
that test over any lazy source of points.  It compiles the query and the
generators once per scan into flat (coefficient, ((variable, exponent),
...)) terms over the x-block, and at each point builds one power table per
coordinate that every entry shares.  Generator rows are evaluated one at a
time into an echelon form; once its rank reaches n the joint kernel is
trivial, so the remaining generators, the kernel and the query are skipped.
Only where the rank stays below n does the scan compute a basis of the joint
kernel from that echelon form, evaluate the query, and check that it
annihilates every kernel basis vector (linearity makes basis vectors
sufficient).  The first violation in enumeration order is re-verified on an
independent path, ``Polynomial.evaluate_raw`` and a dot product, and
returned, so results are fully deterministic; a parallel implementation
would have to reconcile to the same minimal index.  The witness search in
``closure`` and the oracle below are thin wrappers over this one loop.

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
from .poly import PolyMatrix
from .verdicts import Witness

DEFAULT_CAP = 1_000_000


@dataclass
class OracleReport:
    field: Field
    points: int
    evaluations: int
    nontrivial_kernels: int
    counterexample: tuple | None  # (point, vector) of FieldElement tuples

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
            out["counterexample"] = Witness(*self.counterexample).as_json()
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


def _rows_at(obj, point):
    """A vector evaluates to one row, a matrix to its rows."""
    if isinstance(obj, PolyMatrix):
        return obj.evaluate_raw(point)
    return [obj.evaluate_raw(point)]


def _compile(obj, degrees):
    """The rows of a vector (one row) or a matrix, each entry flattened to
    (coefficient, ((variable, exponent), ...)) terms over the x-block.
    ``degrees`` is raised to the largest exponent of each variable."""
    rows = obj.rows if isinstance(obj, PolyMatrix) else (obj.entries,)
    nx = obj.ring.nx
    compiled = []
    for row in rows:
        entries = []
        for poly in row:
            terms = []
            for exps, c in poly.terms.items():
                if any(exps[nx:]):
                    raise DimensionMismatchError(
                        "polynomial involves variables outside the x-block"
                    )
                mono = tuple((i, e) for i, e in enumerate(exps) if e)
                for i, e in mono:
                    if e > degrees[i]:
                        degrees[i] = e
                terms.append((c, mono))
            entries.append(terms)
        compiled.append(entries)
    return compiled


def _evaluate_row(entries, powers, field):
    """Evaluate one compiled row, given powers[i][e] = a_i ** e."""
    add, mul = field.add, field.mul
    values = []
    for terms in entries:
        total = field.zero_raw
        for c, mono in terms:
            for i, e in mono:
                c = mul(c, powers[i][e])
            total = add(total, c)
        values.append(total)
    return values


def vanishing_scan(query, generators, field: Field, points, cap: int) -> OracleReport:
    """Test the vanishing implication at each of ``points`` (raw coordinate
    tuples) until the first violation.  The query and the generators may be
    vectors or matrices over ``field``.  Raises EnumerationCapExceededError
    once more than ``cap`` points or kernel-vector evaluations are needed."""
    n = query.size if isinstance(query, PolyMatrix) else len(query)
    degrees = [0] * query.ring.nx
    compiled_query = _compile(query, degrees)
    compiled_rows = [row for g in generators for row in _compile(g, degrees)]
    mul = field.mul
    count = evaluations = nontrivial = 0
    for point in points:
        count += 1
        if count > cap:
            raise EnumerationCapExceededError(f"point cap of {cap} crossed")
        powers = []
        for a, top in zip(point, degrees):
            table = [field.one_raw, a]
            for _ in range(top - 1):
                table.append(mul(table[-1], a))
            powers.append(table)
        echelon = []
        for row in compiled_rows:
            if echelon_insert(echelon, _evaluate_row(row, powers, field), field) == n:
                break
        else:
            # the rank stayed below n, so the kernel is nontrivial
            kernel = _kernel_basis([row for _, row in echelon], n, field)
            nontrivial += 1
            values = [_evaluate_row(row, powers, field) for row in compiled_query]
            for v in kernel:
                evaluations += 1
                if evaluations > cap:
                    raise EnumerationCapExceededError(
                        f"evaluation cap of {cap} crossed"
                    )
                if any(not field.is_zero(dot_raw(field, row, v)) for row in values):
                    _verify_violation(query, generators, field, point, v)
                    violation = (
                        tuple(FieldElement(field, x) for x in point),
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
            field.is_zero(dot_raw(field, row, vector)) for row in _rows_at(obj, point)
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
    points = odometer((e.value for e in field.elements()), d)
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


def oracle_check_escalating(
    query, generators, field: Field | None = None, cap: int = DEFAULT_CAP
):
    """Run the oracle, escalating while the pass stays vacuous (every kernel
    trivial): a rational problem goes on to the next prime field and then to
    the quadratic extension, a problem over F_p only to F_{p^2}, since its
    coefficients have no image in another characteristic.  Without a
    ``field`` it starts in the query's field if finite, else in F3 (see
    ``default_field``).  Returns the reports in the order they were run."""
    if field is None:
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


def agreement_check(query, generators, field: Field, cap: int = DEFAULT_CAP) -> bool:
    """Run the full algebraic pipeline and the oracle over the same finite
    base field (and its quadratic extension) and check the implication: a
    positive algebraic verdict forces an oracle pass.  Equivalently, any
    base-field counterexample forces a negative verdict."""
    from .closure import semiprime_member
    from .groebner import SubmodulePresentation
    from .matrixideals import matrix_semiprime_member

    if field.size is None:
        raise InfiniteFieldError("agreement checks need a finite base field")
    query = query.map_coefficients(field)
    generators = [g.map_coefficients(field) for g in generators]
    if isinstance(query, PolyMatrix):
        verdict = matrix_semiprime_member(
            query, generators, search_witness=False
        )
    else:
        presentation = SubmodulePresentation(query.ring, len(query), generators)
        verdict = semiprime_member(query, presentation, search_witness=False)
    if not verdict.member:
        return True
    fields = [field]
    if isinstance(field, PrimeField):
        fields.append(QuadraticField(field.p))
    return all(oracle_check(query, generators, k, cap).passed for k in fields)
