"""Left ideals of M_n(R) handled through their row modules.

A left ideal corresponds one-to-one with the submodule of R^n holding all
rows of all its elements, and a matrix lies in the ideal iff every one of
its rows lies in that submodule.  All decisions below reduce to the module
engine through that correspondence; matrices are never divided directly.
Only commutative polynomial base rings are supported.

Operations are pure; the per-row checks of one query are independent and
could run concurrently, with the verdict their deterministic conjunction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dataclass_field

from .closure import semiprime_member
from .errors import (
    DimensionMismatchError,
    MismatchedRingError,
    ZeroCovectorError,
)
from .groebner import (
    DEFAULT_LIMITS,
    GroebnerLimits,
    SubmodulePresentation,
    submodule_member,
)
from .linalg import dot_raw
from .poly import DEFAULT_ORDER, OrderSpec, PolyMatrix, PolyRing, _coerce_point
from .verdicts import Verdict, guarantee_for


@dataclass
class LeftIdealPresentation:
    """Finite generator list for a left ideal of M_n(R)."""

    ring: PolyRing
    size: int
    generators: list
    _row_module: SubmodulePresentation | None = dataclass_field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        for g in self.generators:
            if not isinstance(g, PolyMatrix):
                raise TypeError("left ideal generators must be matrices")
            if g.ring != self.ring:
                raise MismatchedRingError("generator from a different ring")
            if g.size != self.size:
                raise DimensionMismatchError("generator of a different size")

    def row_module(self) -> SubmodulePresentation:
        if self._row_module is None:
            self._row_module = row_module(self)
        return self._row_module


def row_module(ideal: LeftIdealPresentation) -> SubmodulePresentation:
    """The submodule of R^n generated by every row of every generator."""
    rows = []
    for g in ideal.generators:
        rows.extend(g.row_vectors())
    return SubmodulePresentation(ideal.ring, ideal.size, rows)


def ideal_with_rows_in(submodule: SubmodulePresentation) -> LeftIdealPresentation:
    """The left ideal of all matrices whose rows all lie in the submodule,
    presented by placing each generator in each row position."""
    ring, n = submodule.ring, submodule.rank
    gens = []
    for g in submodule.generators:
        for i in range(n):
            rows = [
                list(g.entries) if i == j else [ring.zero()] * n for j in range(n)
            ]
            gens.append(PolyMatrix(ring, rows))
    return LeftIdealPresentation(ring, n, gens)


def matrix_member(
    x: PolyMatrix,
    ideal: LeftIdealPresentation,
    order: OrderSpec = DEFAULT_ORDER,
    limits: GroebnerLimits = DEFAULT_LIMITS,
) -> Verdict:
    """Left-ideal membership: every row must lie in the row module.  On
    membership the certificate holds one cofactor list per row."""
    if x.ring != ideal.ring or x.size != ideal.size:
        raise MismatchedRingError("matrix does not match the ideal's ring/size")
    module = ideal.row_module()
    row_certificates = []
    for row in x.row_vectors():
        verdict = submodule_member(row, module, order, limits)
        if not verdict.member:
            return Verdict(member=False)
        row_certificates.append(verdict.certificate)
    return Verdict(member=True, certificate=row_certificates)


def matrix_semiprime_member(
    f: PolyMatrix,
    generators,
    order: OrderSpec = DEFAULT_ORDER,
    limits: GroebnerLimits = DEFAULT_LIMITS,
    search_witness: bool = True,
    witness_radius: int = 2,
) -> Verdict:
    """Decide whether F lies in the smallest semiprime left ideal containing
    the generators: every row of F must lie in the semiprime closure of the
    generators' row module.  A witness, when found, is a point a and
    direction v with G(a)v = 0 for every generator while F(a)v != 0."""
    generators = list(generators)
    ideal = LeftIdealPresentation(f.ring, f.size, generators)
    module = ideal.row_module()
    guarantee = guarantee_for(f.ring.field)
    stats = Counter()  # each counter summed over the rows checked
    for row in f.row_vectors():
        verdict = semiprime_member(
            row, module, order, limits, search_witness, witness_radius
        )
        stats.update(verdict.stats)
        if not verdict.member:
            return Verdict(
                member=False,
                witness=verdict.witness,
                guarantee=guarantee,
                method="radical",
                stats=stats,
            )
    return Verdict(member=True, guarantee=guarantee, method="radical", stats=stats)


def max_left_ideal_member(x: PolyMatrix, point, covector) -> bool:
    """Membership in the maximal left ideal of matrices annihilating the
    covector at the point: true iff X(a) u = 0."""
    field = x.ring.field
    raw_u = [field.coerce(u) for u in covector]
    if len(raw_u) != x.size:
        raise DimensionMismatchError("covector length does not match matrix size")
    if all(field.is_zero(u) for u in raw_u):
        raise ZeroCovectorError("covector must be nonzero")
    values = x.evaluate_raw(_coerce_point(x.ring, point))
    return all(field.is_zero(dot_raw(field, row, raw_u)) for row in values)
