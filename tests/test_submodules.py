import random
from fractions import Fraction

import pytest

from conftest import random_vector

from semimod import submodules
from semimod.errors import MismatchedRingError, ZeroCovectorError
from semimod.fields import QQ, PrimeField
from semimod.groebner import GroebnerLimits, SubmodulePresentation, submodule_member
from semimod.poly import OrderSpec, PolyRing, VectorPoly, unit_vector
from semimod.submodules import (
    HyperplaneSubmodule,
    hyperplane_generators,
    hyperplane_member,
    point_ideal_generators,
    prime_closure_at,
    scan_weakly_semiprime_refutation,
    semiprime_refutation,
    weakly_semiprime_refutation,
)


# ---------------------------------------------------------------------------
# hyperplane submodules
# ---------------------------------------------------------------------------

def test_hyperplane_member_examples(R):
    x, y = R.variables()
    C = HyperplaneSubmodule(R, (1, 2), (2, -1))
    assert hyperplane_member(VectorPoly(R, [x, y]), C)  # 2*1 - 1*2 = 0
    C10 = HyperplaneSubmodule(R, (0, 0), (1, 0))
    assert not hyperplane_member(unit_vector(R, 2, 0), C10)
    assert hyperplane_member(VectorPoly(R, [R.zero(), R.zero()]), C10)


def test_hyperplane_member_rejects_a_vector_of_another_ring():
    # the same vector over Q and over F5 once gave opposite answers, the
    # first computed in the wrong field
    F5 = PolyRing(PrimeField(5), ("x", "y"))
    C = HyperplaneSubmodule(F5, (1, 2), (1, 0))
    x, y = F5.variables()
    assert hyperplane_member(VectorPoly(F5, [x - 6, y]), C)
    Q = PolyRing(QQ, ("x", "y"))
    qx, qy = Q.variables()
    with pytest.raises(MismatchedRingError):
        hyperplane_member(VectorPoly(Q, [qx - 6, qy]), C)


def test_zero_covector_rejected(R):
    with pytest.raises(ZeroCovectorError):
        HyperplaneSubmodule(R, (0, 0), (0, 0))


def test_hyperplane_generators_at_origin(R):
    x, y = R.variables()
    C = HyperplaneSubmodule(R, (0, 0), (1, 0))
    gens = hyperplane_generators(C).generators
    e1 = unit_vector(R, 2, 0)
    e2 = unit_vector(R, 2, 1)
    assert gens == [x * e1, y * e1, x * e2, y * e2, e2]


def test_hyperplane_generators_include_orthogonal_constant(R):
    C = HyperplaneSubmodule(R, (1, 2), (2, -1))
    gens = hyperplane_generators(C).generators
    const = VectorPoly(R, [R.one(), R.const(2)])  # (1, 2) spans the complement
    assert const in gens
    assert all(hyperplane_member(g, C) for g in gens)


def test_hyperplane_presentation_matches_defining_equation(R):
    rng = random.Random(67)
    for _ in range(8):
        point = (rng.randint(-2, 2), rng.randint(-2, 2))
        covector = (rng.randint(-2, 2), rng.choice([1, -1, 2]))
        C = HyperplaneSubmodule(R, point, covector)
        presentation = hyperplane_generators(C)
        for _ in range(6):
            f = random_vector(rng, R, 2)
            assert hyperplane_member(f, C) == submodule_member(f, presentation).member


def test_point_ideal_generators(R):
    gens = point_ideal_generators(R, (1, 2))
    assert [str(g) for g in gens] == ["x - 1", "y - 2"]


# ---------------------------------------------------------------------------
# point-prime closures
# ---------------------------------------------------------------------------

def test_prime_closure_of_twisted_pair(R, twisted):
    x, y = R.variables()
    closure = prime_closure_at(twisted, (1, 2))
    # both generators evaluate onto the line through (1, 2)
    assert closure.span == [(Fraction(1), Fraction(2))]
    assert not closure.improper
    C = HyperplaneSubmodule(R, (1, 2), (2, -1))
    f = VectorPoly(R, [x, y])
    assert hyperplane_member(f, C)
    assert submodule_member(f, closure.submodule).member
    # closure membership agrees with the hyperplane at its defining point
    rng = random.Random(71)
    for _ in range(8):
        probe = random_vector(rng, R, 2)
        assert (
            submodule_member(probe, closure.submodule).member
            == hyperplane_member(probe, C)
        )


def test_prime_closure_of_unit_is_improper(R):
    closure = prime_closure_at(SubmodulePresentation.unit(R, 2), (3, -1))
    assert closure.improper
    rng = random.Random(73)
    assert submodule_member(random_vector(rng, R, 2), closure.submodule).member


def test_prime_closure_of_zero_is_point_ideal_power(R):
    x, y = R.variables()
    closure = prime_closure_at(SubmodulePresentation(R, 2), (0, 0))
    assert closure.span == []
    e1, e2 = unit_vector(R, 2, 0), unit_vector(R, 2, 1)
    assert closure.submodule.generators == [x * e1, y * e1, x * e2, y * e2]


def test_closure_contains_the_submodule(R):
    rng = random.Random(79)
    for _ in range(10):
        gens = [random_vector(rng, R, 2) for _ in range(rng.randint(1, 3))]
        N = SubmodulePresentation(R, 2, gens)
        point = (rng.randint(-2, 2), rng.randint(-2, 2))
        closure = prime_closure_at(N, point)
        for g in N.generators:
            assert submodule_member(g, closure.submodule).member


def test_closure_fixes_hyperplane_presentations(R):
    # hyperplane submodules are point-prime, so closing them at their own
    # point gives them back (membership-equivalent)
    rng = random.Random(83)
    C = HyperplaneSubmodule(R, (1, -1), (1, 1))
    presentation = hyperplane_generators(C)
    closure = prime_closure_at(presentation, (1, -1))
    assert not closure.improper
    for _ in range(8):
        f = random_vector(rng, R, 2)
        assert (
            submodule_member(f, presentation).member
            == submodule_member(f, closure.submodule).member
        )


# ---------------------------------------------------------------------------
# refutations
# ---------------------------------------------------------------------------

def test_semiprime_refutation_found(R, twisted):
    x, y = R.variables()
    witness = semiprime_refutation(twisted, VectorPoly(R, [x, y]))
    assert witness is not None
    assert witness.candidate == VectorPoly(R, [x, y])


def test_semiprime_refutation_none_for_members(R, twisted):
    assert semiprime_refutation(twisted, twisted.generators[0]) is None


def test_prime_submodules_resist_refutation(R):
    # hyperplane submodules are prime, hence closed under the rule
    rng = random.Random(89)
    for point, covector in [((0, 0), (1, 0)), ((1, 2), (2, -1)), ((-1, 1), (1, 1))]:
        presentation = hyperplane_generators(
            HyperplaneSubmodule(R, point, covector)
        )
        for _ in range(12):
            f = random_vector(rng, R, 2, max_degree=1)
            assert semiprime_refutation(presentation, f) is None


def test_weak_refutation_trivial_scalar(R, twisted):
    rng = random.Random(97)
    m = random_vector(rng, R, 2)
    # with r = 1 a witness would need m in N and m not in N at once
    assert weakly_semiprime_refutation(twisted, R.one(), m) is None


def test_weak_refutation_found(R):
    x, _ = R.variables()
    N = SubmodulePresentation(R, 2, [VectorPoly(R, [x * x, R.zero()])])
    witness = weakly_semiprime_refutation(N, x, unit_vector(R, 2, 0))
    assert witness is not None
    assert str(witness.scalar) == "x"


def test_twisted_pair_is_weakly_semiprime_at_desk_scale(R, twisted):
    # the fixture refutes the closure rule but resists the classical rule;
    # scan all monomial candidates of degree <= 2
    assert scan_weakly_semiprime_refutation(twisted, max_degree=2) is None


def test_refutations_pass_on_their_order_and_limits(R, twisted, monkeypatch):
    seen = []

    def recording(f, submodule, *args, **kwargs):
        seen.append(args + tuple(kwargs.values()))
        return submodule_member(f, submodule, *args, **kwargs)

    monkeypatch.setattr(submodules, "submodule_member", recording)
    x, y = R.variables()
    pot, limits = OrderSpec(module="pot"), GroebnerLimits(max_pairs=500)
    assert semiprime_refutation(twisted, VectorPoly(R, [x, y]), pot, limits)
    assert weakly_semiprime_refutation(twisted, x, VectorPoly(R, [x, y]), pot, limits) is None
    assert len(seen) == 5
    assert set(seen) == {(pot, limits)}
