"""Left ideals of M_n(R) handled through their row modules.

A left ideal corresponds one-to-one with the submodule of R^n holding all
rows of all its elements, and a matrix lies in the ideal iff every one of
its rows lies in that submodule.  All decisions below reduce to the module
engine through that correspondence; matrices are never divided directly.
A ``PolyMatrix`` holds its rows as vectors (``rows``), so they go to the
module engine as they are, and the semiprime closure of a left ideal is
decided by the module's own closure decision, which loops over the rows
of a matrix query as it does over the single row of a vector.  Only
commutative polynomial base rings are supported.

``agreement_check`` sets the whole pipeline, for a vector or a matrix,
against the finite-field oracle over one field.

Operations are pure; the per-row checks of one query are independent and
could run concurrently, with the verdict their deterministic conjunction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .closure import semiprime_member
from .errors import InfiniteFieldError
from .fields import Field, PrimeField, QuadraticField
from .groebner import (
    DEFAULT_LIMITS,
    GroebnerLimits,
    SubmodulePresentation,
    submodule_member,
)
from .oracle import DEFAULT_CAP, oracle_check
from .poly import DEFAULT_ORDER, OrderSpec, PolyMatrix, PolyRing, VectorPoly, check_operands
from .submodules import HyperplaneSubmodule, hyperplane_member
from .verdicts import Verdict


@dataclass
class LeftIdealPresentation:
    """Finite generator list for a left ideal of M_n(R)."""

    ring: PolyRing
    size: int
    generators: list

    def __post_init__(self):
        for g in self.generators:
            if not isinstance(g, PolyMatrix):
                raise TypeError("left ideal generators must be matrices")
        check_operands(self.ring, self.size, self.generators, "generator")


def row_module(ideal: LeftIdealPresentation) -> SubmodulePresentation:
    """The submodule of R^n generated by every row of every generator."""
    return SubmodulePresentation(ideal.ring, ideal.size, ideal.generators)


def ideal_with_rows_in(submodule: SubmodulePresentation) -> LeftIdealPresentation:
    """The left ideal of all matrices whose rows all lie in the submodule,
    presented by placing each generator in the first row: left
    multiplication by a matrix unit moves it to any other row."""
    ring, n = submodule.ring, submodule.rank
    zero = VectorPoly(ring, [ring.zero()] * n)
    gens = [PolyMatrix(ring, [g] + [zero] * (n - 1)) for g in submodule.generators]
    return LeftIdealPresentation(ring, n, gens)


def matrix_member(
    x: PolyMatrix,
    ideal: LeftIdealPresentation,
    order: OrderSpec = DEFAULT_ORDER,
    limits: GroebnerLimits = DEFAULT_LIMITS,
) -> Verdict:
    """Left-ideal membership: every row must lie in the row module.  On
    membership the certificate holds one cofactor list per row."""
    check_operands(ideal.ring, ideal.size, [x], "query")
    module = row_module(ideal)
    verdicts = []
    for row in x.rows:
        verdict = submodule_member(row, module, order, limits)
        if not verdict.member:
            return Verdict(member=False)
        verdicts.append(verdict)
    return Verdict(member=True, certificate=lambda: [v.certificate for v in verdicts])


def matrix_semiprime_member(
    f: PolyMatrix,
    generators,
    order: OrderSpec = DEFAULT_ORDER,
    limits: GroebnerLimits = DEFAULT_LIMITS,
) -> Verdict:
    """Decide whether F lies in the smallest semiprime left ideal containing
    the generators: ``closure.semiprime_member`` of F against the
    generators' row module, which checks F row by row until one fails.  The
    verdict carries no certificate and counters summed over the rows run;
    a negative's witness is F's own first violation against the generator
    matrices."""
    ideal = LeftIdealPresentation(f.ring, f.size, list(generators))
    return semiprime_member(f, row_module(ideal), order, limits)


def max_left_ideal_member(x: PolyMatrix, point, covector) -> bool:
    """Membership in the maximal left ideal of matrices annihilating the
    covector at the point: true iff X(a) u = 0, that is, iff every row lies
    in the hyperplane submodule of the point and covector."""
    hyperplane = HyperplaneSubmodule(x.ring, point, covector)
    return all(hyperplane_member(row, hyperplane) for row in x.rows)


def agreement_check(query, generators, field: Field, cap: int = DEFAULT_CAP) -> bool:
    """Run the full algebraic pipeline and the oracle over the same finite
    base field (and its quadratic extension) and check the implication: a
    positive algebraic verdict forces an oracle pass.  Equivalently, any
    base-field counterexample forces a negative verdict.  The query and the
    generators may be vectors or matrices: the query is decided against the
    rows of the generators."""
    if field.size is None:
        raise InfiniteFieldError("agreement checks need a finite base field")
    query = query.map_coefficients(field)
    generators = [g.map_coefficients(field) for g in generators]
    verdict = semiprime_member(query, SubmodulePresentation(query.ring, len(query), generators))
    if not verdict.member:
        return True
    fields = [field]
    if isinstance(field, PrimeField):
        fields.append(QuadraticField(field.p))
    return all(oracle_check(query, generators, k, cap).passed for k in fields)
