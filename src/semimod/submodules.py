"""Structural submodules of R^n over k[x_1..x_d]: hyperplane submodules at a
point (the maximal submodules), the smallest point-prime submodule containing
a given one, and refutation checks for the two semiprimality notions.

Point-prime closures are computed only at maximal ideals given by a point;
for a general prime the construction needs saturation by the prime's
complement, which has no finite recipe here and is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import ZeroCovectorError
from .groebner import (
    DEFAULT_LIMITS,
    GroebnerLimits,
    SubmodulePresentation,
    submodule_member,
)
from .linalg import dot_raw, kernel_basis, row_space_basis
from .poly import (
    DEFAULT_ORDER,
    OrderSpec,
    Polynomial,
    PolyRing,
    VectorPoly,
    _coerce_point,
    check_operands,
    unit_vector,
)


def point_ideal_generators(ring: PolyRing, point):
    """Generators x_j - a_j of the maximal ideal of functions vanishing at a."""
    raw = _coerce_point(ring, point)
    return [ring.variable(j) - ring.const(a) for j, a in enumerate(raw)]


@dataclass(frozen=True)
class HyperplaneSubmodule:
    """C = {f in R^n : sum_i f_i(a) u_i = 0} for a point a and covector u != 0.

    These are exactly the maximal submodules of R^n.
    """

    ring: PolyRing
    point: tuple
    covector: tuple

    def __post_init__(self):
        field = self.ring.field
        object.__setattr__(self, "point", _coerce_point(self.ring, self.point))
        object.__setattr__(
            self, "covector", tuple(field.coerce(x) for x in self.covector)
        )
        if all(field.is_zero(u) for u in self.covector):
            raise ZeroCovectorError("covector must be nonzero")

    @property
    def rank(self) -> int:
        return len(self.covector)


def hyperplane_member(f: VectorPoly, hyperplane: HyperplaneSubmodule) -> bool:
    """Evaluate the defining equation sum f_i(a) u_i = 0 exactly."""
    check_operands(hyperplane.ring, hyperplane.rank, [f], "query")
    field = f.ring.field
    values = f.evaluate_raw(hyperplane.point)
    return field.is_zero(dot_raw(field, values, hyperplane.covector))


def _pullback(ring: PolyRing, n: int, point, span) -> SubmodulePresentation:
    """The vectors whose value at the point lies in the span of the given
    constant vectors: generated by (x_j - a_j) e_i for all i, j and the
    span vectors."""
    field = ring.field
    point_gens = point_ideal_generators(ring, point)
    gens = [p * unit_vector(ring, n, i) for i in range(n) for p in point_gens]
    for w in span:
        # each span vector in the canonical scaling: primitive integers with
        # a positive lead over Q, monic over a finite field
        lead = next(c for c in w if not field.is_zero(c))
        scaled, _ = field.normalize(dict(enumerate(w)), lead)
        gens.append(VectorPoly(ring, [ring.const(c) for c in scaled.values()]))
    return SubmodulePresentation(ring, n, gens)


def hyperplane_generators(hyperplane: HyperplaneSubmodule) -> SubmodulePresentation:
    """A finite presentation of a hyperplane submodule: (x_j - a_j) e_i for
    all i, j plus constant vectors spanning the covector's orthogonal
    complement.  Membership against the result agrees with
    hyperplane_member."""
    ring, n = hyperplane.ring, hyperplane.rank
    complement = kernel_basis([list(hyperplane.covector)], n, ring.field)
    return _pullback(ring, n, hyperplane.point, complement)


@dataclass
class PrimeClosure:
    """Result of closing a submodule at a point: the presentation, the
    evaluated span it came from, and whether the span was all of k^n (in
    which case the closure is the whole of R^n and carries no primality).
    Callers must check ``improper``; it is a first-class outcome, not an
    error."""

    submodule: SubmodulePresentation
    span: list
    improper: bool


def prime_closure_at(submodule: SubmodulePresentation, point) -> PrimeClosure:
    """Smallest point-prime submodule containing the given one: evaluate the
    generators at the point, span them in k^n, and pull the span back."""
    ring, n = submodule.ring, submodule.rank
    raw = _coerce_point(ring, point)
    span = row_space_basis([g.evaluate_raw(raw) for g in submodule.generators], ring.field)
    if len(span) == n:
        return PrimeClosure(SubmodulePresentation.unit(ring, n), span, improper=True)
    return PrimeClosure(_pullback(ring, n, raw, span), span, improper=False)


# ---------------------------------------------------------------------------
# refutation checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SemiprimeRefutation:
    """A vector f with f_i * f in N for every i while f is not in N."""

    candidate: VectorPoly


@dataclass(frozen=True)
class WeakRefutation:
    """A scalar r and vector m with r^2 m in N while r m is not in N."""

    scalar: Polynomial
    vector: VectorPoly


def semiprime_refutation(
    submodule: SubmodulePresentation,
    f: VectorPoly,
    order: OrderSpec = DEFAULT_ORDER,
    limits: GroebnerLimits = DEFAULT_LIMITS,
):
    """Check one candidate against the closure rule; returns a refutation
    witness when f_i*f lies in N for every i yet f itself does not."""
    if submodule_member(f, submodule, order, limits).member:
        return None
    for entry in f.entries:
        if not submodule_member(entry * f, submodule, order, limits).member:
            return None
    return SemiprimeRefutation(f)


def weakly_semiprime_refutation(
    submodule: SubmodulePresentation,
    r: Polynomial,
    m: VectorPoly,
    order: OrderSpec = DEFAULT_ORDER,
    limits: GroebnerLimits = DEFAULT_LIMITS,
):
    """Check one candidate pair against the classical rule r^2 m in N =>
    r m in N."""
    if not submodule_member((r * r) * m, submodule, order, limits).member:
        return None
    if submodule_member(r * m, submodule, order, limits).member:
        return None
    return WeakRefutation(r, m)


def _monomials_up_to(ring: PolyRing, max_degree: int):
    """All monomials of the x-block with total degree <= max_degree."""
    seen = {ring._zero_exps}
    out = [ring._zero_exps]
    frontier = [ring._zero_exps]
    for _ in range(max_degree):
        nxt = []
        for exps in frontier:
            for j in range(ring.nx):
                e = list(exps)
                e[j] += 1
                t = tuple(e)
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        out.extend(nxt)
        frontier = nxt
    return out


def _candidate_vectors(ring: PolyRing, rank: int, max_degree: int, coeffs):
    """Vectors whose entries are 0 or c * monomial with c in ``coeffs``."""
    monos = _monomials_up_to(ring, max_degree)
    options = [ring.zero()]
    for m in monos:
        for c in coeffs:
            options.append(Polynomial(ring, {m: ring.field.coerce(c)}))
    # reversed, so the first entry varies fastest
    for entries in product(options, repeat=rank):
        vec = VectorPoly(ring, entries[::-1])
        if not vec.is_zero():
            yield vec


def scan_weakly_semiprime_refutation(
    submodule: SubmodulePresentation, max_degree: int = 2, coeffs=(1, -1)
):
    """Bounded exhaustive search for a classical-rule refutation, scanning
    monomial scalars r and single-monomial-entry vectors m."""
    ring = submodule.ring
    monos = [m for m in _monomials_up_to(ring, max_degree) if any(m)]
    scalars = [Polynomial(ring, {m: ring.field.one_raw}) for m in monos]
    for r in scalars:
        for m in _candidate_vectors(ring, submodule.rank, max_degree, coeffs):
            witness = weakly_semiprime_refutation(submodule, r, m)
            if witness is not None:
                return witness
    return None
