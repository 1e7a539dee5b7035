import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import check_witness_verdict, random_generators, random_vector

import semimod.closure
from semimod.closure import (
    bilinear_encoding,
    closure_law_check,
    find_vanishing_witness,
    radical_intersection_check,
    radical_member,
    semiprime_member,
)
from semimod.errors import DimensionMismatchError, InvariantViolationError
from semimod.fields import QQ, PrimeField
from semimod.groebner import (
    DEFAULT_LIMITS,
    SubmodulePresentation,
    ideal_presentation,
    submodule_member,
)
from semimod.poly import DEFAULT_ORDER, PolyRing, VectorPoly, unit_vector
from semimod.verdicts import EXTENSION_STABLE, SOUND_ONLY, Verdict, guarantee_for


# ---------------------------------------------------------------------------
# radical membership
# ---------------------------------------------------------------------------

def test_radical_member_of_square():
    R1 = PolyRing(QQ, ("x",))
    x = R1.variable(0)
    assert radical_member(x, [x * x])


def test_radical_member_negative(R):
    x, y = R.variables()
    # y does not vanish on the zero set of x^2 (e.g. at (0, 1))
    assert not radical_member(y, [x * x])


def test_radical_member_classic_origin_ideal(R):
    # x^3 = x(x^2 + y^2) - y(xy), so x is in the radical of (x^2 + y^2, xy),
    # while x + 1 does not vanish at the origin
    x, y = R.variables()
    gens = [x * x + y * y, x * y]
    assert radical_member(x, gens)
    assert radical_member(y, gens)
    assert not radical_member(x + R.one(), gens)


def test_radical_of_squarefree_ideal_is_itself():
    R1 = PolyRing(QQ, ("x",))
    x = R1.variable(0)
    gen = (x - R1.one()) * (x - R1.const(2))
    assert radical_member(gen, [gen])
    assert not radical_member(x - R1.one(), [gen])
    assert radical_member((x - R1.one()) * (x - R1.const(2)) * x, [gen])


@pytest.mark.parametrize(
    "field, guarantee",
    [(QQ, EXTENSION_STABLE), (PrimeField(7), SOUND_ONLY)],
    ids=["Q", "F7"],
)
def test_radical_test_returns_a_verdict(field, guarantee):
    ring = PolyRing(field, ("x", "y"))
    x, y = ring.variables()
    gens = [x * x + y * y, x * y]
    ext = ring.extended(["t"])
    t = ext.variable("t")
    assert guarantee_for(field) == guarantee
    for f, member in ((x, True), (x + ring.one(), False)):
        verdict = semimod.closure._radical_member(f, gens, DEFAULT_ORDER, DEFAULT_LIMITS)
        assert verdict.member is member
        assert verdict.method == "radical"
        # the counters are those of the basis of I + <1 - t*f>
        aug = [ext.embed(g) for g in gens]
        aug.append(ext.one() - t * ext.embed(f))
        basis = ideal_presentation(ext, aug).groebner(DEFAULT_ORDER, DEFAULT_LIMITS)
        assert verdict.stats == basis.stats
        assert radical_member(f, gens) is member


def test_radical_member_of_encoded_twisted_pair(R, twisted):
    x, y = R.variables()
    f = VectorPoly(R, [x, y])
    enc = bilinear_encoding(f, twisted.generators)
    assert radical_member(enc.encoded_query, list(enc.encoded_generators))


def test_encoding_is_linear_in_the_new_block(R, twisted):
    rng = random.Random(101)
    f = random_vector(rng, R, 2)
    enc = bilinear_encoding(f, twisted.generators)
    nx = enc.ring.nx
    for poly in (enc.encoded_query, *enc.encoded_generators):
        for exps in poly.terms:
            assert sum(exps[nx:]) == 1


def test_chart_k_sets_v_k_to_one_and_the_later_v_to_zero(R):
    x, y = R.variables()
    f = VectorPoly(R, [x, y, x * y])
    gens = [VectorPoly(R, [x, R.zero(), R.zero()]),
            VectorPoly(R, [R.zero(), R.zero(), y]),
            VectorPoly(R, [R.zero()] * 3)]
    enc = bilinear_encoding(f, gens)
    assert enc.rank == 3
    for k in (1, 2, 3):
        h, chart_gens = enc.chart(k)
        ring = h.ring
        assert ring == R.extended(f"v{i}" for i in range(1, k))
        assert ring.names == enc.ring.names[: R.num_vars + k - 1]
        assert ring.nx == enc.ring.nx == R.nx
        for poly in (h, *chart_gens):
            assert poly.ring == ring and not poly.is_zero()
            assert all(sum(exps[ring.nx :]) <= 1 for exps in poly.terms)
        # f.v and the generators' g.v at v = (v_1..v_{k-1}, 1, 0..0); the
        # generators that vanish there, the zero one always, are dropped
        point = ring.variables()[R.num_vars :] + [ring.one(), ring.zero(), ring.zero()]
        v = VectorPoly(ring, point[:3])
        assert h == f.embed_into(ring).dot(v)
        substituted = [g.embed_into(ring).dot(v) for g in gens]
        assert list(chart_gens) == [p for p in substituted if not p.is_zero()]
        assert len(chart_gens) == [1, 1, 2][k - 1]


# ---------------------------------------------------------------------------
# semiprime membership
# ---------------------------------------------------------------------------

def test_twisted_pair_query_is_semiprime_member(R, twisted):
    x, y = R.variables()
    verdict = semiprime_member(VectorPoly(R, [x, y]), twisted)
    assert verdict.member
    assert verdict.method == "radical"
    assert guarantee_for(R.field) == EXTENSION_STABLE


def test_query_of_the_wrong_rank_is_rejected(R, twisted):
    x, y = R.variables()
    message = "query of rank or size 3, expected 2"
    with pytest.raises(DimensionMismatchError, match=message):
        semiprime_member(VectorPoly(R, [x, y, x]), twisted)


def test_semiprime_counters_sum_the_direct_and_radical_phases(R, twisted):
    # over F101, where the radical test decides negatives; over Q the grid
    # witness at (0, 1) decides (y^2, x^2) first.  The radical test runs on
    # the charts v1 = 1, v2 = 0 (query f_1) and v2 = 1 (query f_1*v1 + f_2),
    # chart 1 first: (y^2, x^2) fails on chart 1, so its chart 2 never runs,
    # and (x, y) passes both
    gens = [g.map_coefficients(PrimeField(101)) for g in twisted.generators]
    twisted = SubmodulePresentation(gens[0].ring, 2, gens)
    ring = twisted.ring
    x, y = ring.variables()
    chart2 = ring.extended(["v1"])
    v1 = chart2.variable("v1")
    x2, y2 = (chart2.embed(p) for p in (x, y))
    cases = [
        (VectorPoly(ring, [y * y, x * x]), False, [(y * y, [x * x, x * y])]),
        (VectorPoly(ring, [x, y]), True, [
            (x, [x * x, x * y]),
            (x2 * v1 + y2, [x2 * x2 * v1 + x2 * y2, x2 * y2 * v1 + y2 * y2]),
        ]),
    ]
    for f, member, charts in cases:
        direct = submodule_member(f, twisted)
        assert not direct.member and direct.stats["pairs_processed"] == 1
        verdict = semiprime_member(f, twisted)
        assert verdict.member is member and verdict.method == "radical"
        expected = Counter(direct.stats)
        for h, chart_gens in charts:
            ext = h.ring.extended(["t"])
            t = ext.variable("t")
            aug = [ext.embed(g) for g in chart_gens]
            aug.append(ext.one() - t * ext.embed(h))
            basis = ideal_presentation(ext, aug).groebner(DEFAULT_ORDER, DEFAULT_LIMITS)
            expected.update(basis.stats)
        assert verdict.stats == dict(expected)


def test_generators_are_members_with_certificates(R, twisted):
    verdict = semiprime_member(twisted.generators[0], twisted)
    assert verdict.member
    assert verdict.method == "cofactor"
    total = None
    for c, g in zip(verdict.certificate, twisted.generators):
        piece = c * g
        total = piece if total is None else total + piece
    assert total == twisted.generators[0]


def test_witness_verdicts_agree_with_the_radical_test():
    # a seeded corpus over Q[x, y] and Q[x, y, z]; half the problems adjoin
    # f_i * f, so members, witness negatives and radical verdicts all occur
    methods = Counter()
    for nvars, rank in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        ring = PolyRing(QQ, ("x", "y", "z")[:nvars])
        rng = random.Random(21)
        for _ in range(40):
            gens = random_generators(rng, ring, rank)
            f = random_vector(rng, ring, rank)
            if rng.random() < 0.5:
                gens += [e * f for e in f.entries if not e.is_zero()]
            methods[check_witness_verdict(f, gens)] += 1
    assert min(methods[m] for m in ("cofactor", "witness", "radical")) >= 20


def test_constant_vector_is_not_member_and_witness_verified(R, twisted):
    verdict = semiprime_member(unit_vector(R, 2, 0), twisted)
    assert not verdict.member
    witness = find_vanishing_witness(unit_vector(R, 2, 0), twisted.generators)
    assert witness is not None
    assert [str(c) for c in witness.point] == ["0", "0"]
    assert [str(c) for c in witness.vector] == ["1", "0"]
    # the grid witness decides it: the counters are those of the direct
    # phase alone, and no radical basis is built
    assert verdict.method == "witness" and verdict.witness == witness
    assert verdict.certificate is None
    assert verdict.stats == {
        "pairs_processed": 1, "pairs_skipped": 0, "zero_reductions": 1, "basis_size": 2,
    }


def test_membership_implies_semiprime_membership(R):
    rng = random.Random(103)
    for _ in range(15):
        gens = random_generators(rng, R, 2)
        N = SubmodulePresentation(R, 2, gens)
        f = random_vector(rng, R, 2)
        if submodule_member(f, N).member:
            assert semiprime_member(f, N).member


def test_semiprime_member_scaling_invariance(R, twisted):
    rng = random.Random(107)
    for _ in range(8):
        f = random_vector(rng, R, 2)
        base = semiprime_member(f, twisted).member
        scaled = semiprime_member(Fraction(-7, 3) * f, twisted).member
        assert base == scaled


def test_semiprime_member_coordinate_permutation_invariance(R):
    rng = random.Random(109)
    for _ in range(8):
        gens = random_generators(rng, R, 2, count=2)
        f = random_vector(rng, R, 2)
        swapped_gens = [VectorPoly(R, list(reversed(g.entries))) for g in gens]
        swapped_f = VectorPoly(R, list(reversed(f.entries)))
        lhs = semiprime_member(f, SubmodulePresentation(R, 2, gens)).member
        rhs = semiprime_member(
            swapped_f, SubmodulePresentation(R, 2, swapped_gens)
        ).member
        assert lhs == rhs


def test_guarantee_label_over_finite_fields():
    R3 = PolyRing(PrimeField(3), ("x",))
    x = R3.variable(0)
    N = SubmodulePresentation(R3, 1, [VectorPoly(R3, [x * x])])
    verdict = semiprime_member(VectorPoly(R3, [x]), N)
    assert verdict.member
    assert guarantee_for(R3.field) == SOUND_ONLY


def test_witness_search_over_finite_field():
    R3 = PolyRing(PrimeField(3), ("x",))
    x = R3.variable(0)
    one = VectorPoly(R3, [R3.one()])
    witness = find_vanishing_witness(one, [VectorPoly(R3, [x])])
    assert witness is not None
    assert str(witness.point[0]) == "0"


def test_witness_search_gives_up_at_the_cap(R, monkeypatch):
    # the kernel is nontrivial only where x = 2, first reached at the 16th
    # grid point (2, 0); a cap of 10 points ends the search without a witness
    x, _ = R.variables()
    one = VectorPoly(R, [R.one()])
    gens = [VectorPoly(R, [x - R.const(2)])]
    witness = find_vanishing_witness(one, gens)
    assert [str(c) for c in witness.point] == ["2", "0"]
    monkeypatch.setattr(semimod.closure, "WITNESS_CAP", 10)
    assert find_vanishing_witness(one, gens) is None


def test_radical_unit_ideal_recheck_raises(R, monkeypatch):
    # a membership test that claims 1 lies in an ideal whose basis is not {1}
    x, y = R.variables()
    monkeypatch.setattr(semimod.closure, "submodule_member", lambda *args: Verdict(True))
    with pytest.raises(InvariantViolationError):
        radical_member(y, [x * x])


# ---------------------------------------------------------------------------
# closure law
# ---------------------------------------------------------------------------

def test_closure_law_on_twisted_pair_data(R):
    x, y = R.variables()
    f = VectorPoly(R, [x, y])
    assert closure_law_check(SubmodulePresentation(R, 2), f)


def test_closure_law_unit_coordinate(R):
    assert closure_law_check(SubmodulePresentation(R, 2), unit_vector(R, 2, 0))


def test_closure_law_random(R):
    rng = random.Random(113)
    for _ in range(25):
        d = rng.randint(1, 2)
        n = rng.randint(1, 3)
        ring = PolyRing(QQ, ("x", "y")[:d])
        gens = random_generators(rng, ring, n)
        f = random_vector(rng, ring, n)
        assert closure_law_check(SubmodulePresentation(ring, n, gens), f)


# ---------------------------------------------------------------------------
# intersection sampling
# ---------------------------------------------------------------------------

def sample_points(rng, count=25):
    pts = []
    for _ in range(count):
        pts.append(
            (
                Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3])),
                Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3])),
            )
        )
    return pts


def test_intersection_check_on_twisted_pair(R, twisted):
    rng = random.Random(127)
    x, y = R.variables()
    assert radical_intersection_check(twisted, VectorPoly(R, [x, y]), sample_points(rng))


def test_intersection_check_on_generator(R, twisted):
    rng = random.Random(131)
    assert radical_intersection_check(
        twisted, twisted.generators[0], sample_points(rng, 10)
    )


def test_intersection_check_vacuous_for_non_members(R, twisted):
    rng = random.Random(137)
    assert radical_intersection_check(
        twisted, unit_vector(R, 2, 0), sample_points(rng, 10)
    )
