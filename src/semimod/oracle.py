"""The vanishing-implication engine, and the finite-field oracle built on it.

The semiprime Nullstellensatz reduces closure membership to one test: if
G_i(a)v = 0 for every generator, then F(a)v = 0.  ``vanishing_scan`` runs
that test over any lazy source of points.  At each point it stacks the
evaluated generators, computes a basis of the joint kernel, evaluates the
query once, and checks that the query annihilates every kernel basis vector
(linearity makes basis vectors sufficient).  The first violation in
enumeration order is re-verified and returned, so results are fully
deterministic; a parallel implementation would have to reconcile to the same
minimal index.  The witness search in ``closure`` and the oracle below are
thin wrappers over this one loop.

The oracle enumerates every point of the field's d-fold product.
Finite-field points are not points of the characteristic-0 variety, so
over Q-based problems the oracle is advisory only; agreement tests run the
whole pipeline over one finite field instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    EnumerationCapExceededError,
    InfiniteFieldError,
    InvariantViolationError,
)
from .fields import Field, FieldElement, PrimeField, QuadraticField, is_prime
from .linalg import dot_raw, kernel_basis as _kernel_basis
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


def vanishing_scan(query, generators, field: Field, points, cap: int) -> OracleReport:
    """Test the vanishing implication at each of ``points`` (raw coordinate
    tuples) until the first violation.  The query and the generators may be
    vectors or matrices over ``field``.  Raises EnumerationCapExceededError
    once more than ``cap`` points or kernel-vector evaluations are needed."""
    n = query.size if isinstance(query, PolyMatrix) else len(query)
    count = evaluations = nontrivial = 0
    for point in points:
        count += 1
        if count > cap:
            raise EnumerationCapExceededError(f"point cap of {cap} crossed")
        rows = []
        for g in generators:
            rows.extend(_rows_at(g, point))
        kernel = _kernel_basis(rows, n, field)
        if not kernel:
            continue
        nontrivial += 1
        values = _rows_at(query, point)
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
                return OracleReport(field, count, evaluations, nontrivial, violation)
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


def oracle_check_escalating(
    query, generators, field: Field | None = None, cap: int = DEFAULT_CAP
):
    """Run the oracle, escalating to the next prime field and then to the
    quadratic extension while the pass stays vacuous (every kernel
    trivial).  Returns the list of reports in the order they were run."""
    if field is None:
        field = PrimeField(3)
    reports = [oracle_check(query, generators, field, cap)]
    if isinstance(field, PrimeField):
        ladder = [PrimeField(_next_prime(field.p)), QuadraticField(field.p)]
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
