import random

import pytest

from conftest import random_polynomial, random_vector

from semimod import closure
from semimod.closure import find_vanishing_witness, semiprime_member
from semimod.errors import DimensionMismatchError, ZeroCovectorError
from semimod.fields import QQ, PrimeField
from semimod.groebner import SubmodulePresentation, submodule_member
from semimod.matrixideals import (
    LeftIdealPresentation,
    agreement_check,
    ideal_with_rows_in,
    matrix_member,
    matrix_semiprime_member,
    max_left_ideal_member,
    row_module,
)
from semimod.poly import PolyMatrix, PolyRing, VectorPoly, identity_matrix
from semimod.submodules import HyperplaneSubmodule, hyperplane_member


@pytest.fixture
def twisted_matrix_ideal(R):
    x, y = R.variables()
    G = PolyMatrix(R, [[x * x, x * y], [x * y, y * y]])
    return LeftIdealPresentation(R, 2, [G])


def random_matrix(rng, ring, n, max_degree=2):
    return PolyMatrix(
        ring,
        [
            [random_polynomial(rng, ring, max_degree) for _ in range(n)]
            for _ in range(n)
        ],
    )


# ---------------------------------------------------------------------------
# row-module correspondence
# ---------------------------------------------------------------------------

def test_row_module_generators(R, twisted_matrix_ideal):
    x, y = R.variables()
    N = row_module(twisted_matrix_ideal)
    assert N.generators == [
        VectorPoly(R, [x * x, x * y]),
        VectorPoly(R, [x * y, y * y]),
    ]


def test_row_module_of_identity_is_unit(R):
    rng = random.Random(139)
    ideal = LeftIdealPresentation(R, 2, [identity_matrix(R, 2)])
    N = row_module(ideal)
    for _ in range(5):
        assert submodule_member(random_vector(rng, R, 2), N).member


def test_row_module_of_zero_matrix_is_zero(R):
    zero = PolyMatrix(R, [[R.zero(), R.zero()], [R.zero(), R.zero()]])
    N = row_module(LeftIdealPresentation(R, 2, [zero]))
    assert N.generators == []


def test_ideal_with_rows_in_zero_module(R):
    zero_module = SubmodulePresentation(R, 2)
    ideal = ideal_with_rows_in(zero_module)
    zero = PolyMatrix(R, [[R.zero(), R.zero()], [R.zero(), R.zero()]])
    assert matrix_member(zero, ideal).member
    assert not matrix_member(identity_matrix(R, 2), ideal).member


def test_stacked_generator_is_member(R, twisted_matrix_ideal):
    x, y = R.variables()
    N = row_module(twisted_matrix_ideal)
    X = PolyMatrix(R, [[x * x, x * y], [x * y, y * y]])
    assert matrix_member(X, ideal_with_rows_in(N)).member


def test_round_trips_on_random_ideals(R):
    rng = random.Random(149)
    for _ in range(10):
        n = rng.choice([2, 3])
        gens = [random_matrix(rng, R, n) for _ in range(rng.randint(1, 2))]
        ideal = LeftIdealPresentation(R, n, gens)
        back = ideal_with_rows_in(row_module(ideal))
        for _ in range(4):
            probe = random_matrix(rng, R, n, max_degree=1)
            assert matrix_member(probe, ideal).member == matrix_member(probe, back).member
        module = row_module(ideal)
        module_back = row_module(ideal_with_rows_in(module))
        for _ in range(4):
            probe_vec = random_vector(rng, R, n)
            assert (
                submodule_member(probe_vec, module).member
                == submodule_member(probe_vec, module_back).member
            )


def test_ideal_with_rows_in_presents_each_generator_once(R):
    # each generator sits in the first row only, so the row module of the
    # ideal is presented by N's own generators and computes N's basis
    rng = random.Random(151)
    for _ in range(4):
        n = rng.choice([2, 3])
        N = SubmodulePresentation(R, n, [random_vector(rng, R, n) for _ in range(3)])
        back = row_module(ideal_with_rows_in(N))
        assert back.generators == N.generators
        assert back.groebner().stats == N.groebner().stats


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def test_generator_is_member(R, twisted_matrix_ideal):
    G = twisted_matrix_ideal.generators[0]
    assert matrix_member(G, twisted_matrix_ideal).member


def test_left_multiples_are_members(R, twisted_matrix_ideal):
    rng = random.Random(151)
    G = twisted_matrix_ideal.generators[0]
    for _ in range(6):
        A = random_matrix(rng, R, 2, max_degree=1)
        assert matrix_member(A @ G, twisted_matrix_ideal).member


def test_identity_not_in_diagonal_ideal():
    R1 = PolyRing(QQ, ("x",))
    x = R1.variable(0)
    ideal = LeftIdealPresentation(
        R1, 2, [PolyMatrix(R1, [[x, R1.zero()], [R1.zero(), x]])]
    )
    assert not matrix_member(identity_matrix(R1, 2), ideal).member


# ---------------------------------------------------------------------------
# semiprime closure of left ideals
# ---------------------------------------------------------------------------

def test_matrix_semiprime_member_positive(R, twisted_matrix_ideal):
    x, y = R.variables()
    F = PolyMatrix(R, [[x, y], [R.zero(), R.zero()]])
    verdict = matrix_semiprime_member(F, twisted_matrix_ideal.generators)
    assert verdict.member


def test_matrix_semiprime_member_sums_row_counters(R, twisted_matrix_ideal):
    # over F7, where no grid witness decides before the radical test (over
    # Q, F's own witness decides at the first row outside the submodule)
    F7 = PrimeField(7)
    x, y = R.variables()
    F = PolyMatrix(R, [[x, y], [y * y, x * x]]).map_coefficients(F7)
    gens = [g.map_coefficients(F7) for g in twisted_matrix_ideal.generators]
    verdict = matrix_semiprime_member(F, gens)
    assert not verdict.member
    # the first row is a member, the second is not: both rows ran
    module = row_module(LeftIdealPresentation(F.ring, 2, gens))
    rows = [semiprime_member(row, module) for row in F.rows]
    assert [r.member for r in rows] == [True, False]
    for key in ("pairs_processed", "pairs_skipped", "zero_reductions", "basis_size"):
        assert verdict.stats[key] == sum(r.stats[key] for r in rows)
    assert verdict.stats["pairs_processed"] > 0


def test_matrix_semiprime_member_names_its_method(R, twisted_matrix_ideal):
    # "cofactor" only when every row passed by cofactors
    I = identity_matrix(R, 2)
    verdict = matrix_semiprime_member(I, [I])
    assert verdict.member and verdict.method == "cofactor"
    assert verdict.certificate is None
    x, y = R.variables()
    # the second row, (x, y), lies in the closure only by the radical test
    F = PolyMatrix(R, [[x * x, x * y], [x, y]])
    verdict = matrix_semiprime_member(F, twisted_matrix_ideal.generators)
    assert verdict.member and verdict.method == "radical"
    # over Q a negative is decided by the query's grid witness, searched
    # once at the first row outside the submodule
    verdict = matrix_semiprime_member(identity_matrix(R, 2), twisted_matrix_ideal.generators)
    assert not verdict.member and verdict.method == "witness"
    G = twisted_matrix_ideal.generators[0]
    assert verdict.witness is not None and find_vanishing_witness(I, [G]) is not None
    # (x^2 - 2)*I vanishes at no rational point, so the radical test decides
    c = x * x - R.const(2)
    verdict = matrix_semiprime_member(I, [PolyMatrix(R, [[c, R.zero()], [R.zero(), c]])])
    assert not verdict.member and verdict.method == "radical"
    assert verdict.witness is None


def test_witnesses_are_searched_only_when_read(R, twisted_matrix_ideal, monkeypatch):
    # a caller that reads only ``member`` scans no point over a finite
    # field, where a radical negative, vector or matrix, searches on first
    # read; over Q the query is searched once while deciding and not again
    # on read
    F7 = PrimeField(7)
    G = twisted_matrix_ideal.generators[0]
    I = identity_matrix(R, 2)
    G7, I7 = G.map_coefficients(F7), I.map_coefficients(F7)
    e1 = I7.rows[0]
    N7 = SubmodulePresentation(e1.ring, 2, list(G7.rows))
    original = find_vanishing_witness
    searches = []

    def search(*args):
        searches.append(args)
        return original(*args)

    def refuse(*args):
        raise AssertionError("a witness was searched")

    with monkeypatch.context() as m:
        m.setattr(closure, "find_vanishing_witness", refuse)
        vector = semiprime_member(e1, N7)
        assert not vector.member and vector.method == "radical"
        matrix = matrix_semiprime_member(I7, [G7])
        assert not matrix.member
        assert agreement_check(I, [G], F7) and agreement_check(I.rows[0], list(G.rows), F7)
        m.setattr(closure, "find_vanishing_witness", search)
        rational = matrix_semiprime_member(I, [G])
        assert not rational.member and len(searches) == 1
    monkeypatch.setattr(closure, "find_vanishing_witness", search)
    for verdict, query, gens, on_read in (
        (vector, e1, N7.generators, 1), (matrix, I7, [G7], 1), (rational, I, [G], 0)
    ):
        searches.clear()
        assert verdict.witness == original(query, gens) is not None
        assert verdict.witness is verdict.witness
        assert len(searches) == on_read


def test_matrix_semiprime_member_generator(R, twisted_matrix_ideal):
    G = twisted_matrix_ideal.generators[0]
    assert matrix_semiprime_member(G, [G]).member


def test_matrix_semiprime_member_negative_with_witness():
    R1 = PolyRing(QQ, ("x",))
    x = R1.variable(0)
    G = PolyMatrix(R1, [[x, R1.zero()], [R1.zero(), x]])
    verdict = matrix_semiprime_member(identity_matrix(R1, 2), [G])
    assert not verdict.member
    witness = find_vanishing_witness(identity_matrix(R1, 2), [G])
    assert witness is not None
    assert [str(c) for c in witness.point] == ["0"]


def test_matrix_semiprime_member_swapped_row_fails(R, twisted_matrix_ideal):
    # the swapped row (y, x) pairs to a1^2 - a2^2 on the kernel direction
    # (-a2, a1), so it does not vanish everywhere; expect the first small
    # witness (0, 1) with direction (1, 0)
    x, y = R.variables()
    F = PolyMatrix(R, [[y, x], [R.zero(), R.zero()]])
    verdict = matrix_semiprime_member(F, twisted_matrix_ideal.generators)
    assert not verdict.member
    witness = find_vanishing_witness(F, twisted_matrix_ideal.generators)
    assert witness is not None
    assert [str(c) for c in witness.point] == ["0", "1"]
    assert [str(c) for c in witness.vector] == ["1", "0"]


def test_rowwise_equivalence(R):
    # independent computation of both sides of the correspondence
    rng = random.Random(157)
    from semimod.closure import semiprime_member

    for _ in range(6):
        gens = [random_matrix(rng, R, 2, max_degree=1)]
        F = random_matrix(rng, R, 2, max_degree=1)
        module = row_module(LeftIdealPresentation(R, 2, gens))
        rows_ok = all(
            semiprime_member(row, module).member
            for row in F.rows
        )
        assert matrix_semiprime_member(F, gens).member == rows_ok


def corpus_problem(rng, ring, n):
    """A matrix query of size n and its generator matrices, some of whose
    rows are zero.  Each query row is a generator row (a member by
    cofactors), a vector f of linear forms whose products f_i * f are the
    rows of an added generator (a member, often only by the radical test),
    or, in half of the queries, possibly a random row."""
    x, y = ring.variables()
    zero = [ring.zero()] * n

    def row():
        return [random_polynomial(rng, ring, 1) for _ in range(n)]

    gens = [
        PolyMatrix(ring, [row() if rng.random() < 0.7 else zero for _ in range(n)])
        for _ in range(rng.randint(1, 2))
    ]
    rows = []
    spread = 0.5 if rng.random() < 0.5 else 1.0
    for _ in range(n):
        pick = rng.random() * spread
        if pick < 0.3:
            rows.append(gens[0].rows[rng.randrange(n)])
        elif pick < 0.5:
            f = [x.scale(rng.randint(-2, 2)) + y.scale(rng.randint(-2, 2)) for _ in range(n)]
            gens.append(PolyMatrix(ring, [[a * b for b in f] for a in f]))
            rows.append(f)
        else:
            rows.append(row())
    return PolyMatrix(ring, rows), gens


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(101)], ids=["Q", "F7", "F101"])
def test_matrix_verdicts_are_their_rows_and_witnesses_the_querys_own(field, monkeypatch):
    # one closure decision for a matrix: its verdict is the conjunction of
    # its rows' vector verdicts, its witness the first violation of F
    # against the generator matrices themselves (not their row module,
    # which drops the zero rows), and it searches at most once per query
    rng = random.Random(2300 + field.char)
    ring = PolyRing(field, ("x", "y"))
    original = find_vanishing_witness
    searches = []

    def search(*args):
        searches.append(args)
        return original(*args)

    monkeypatch.setattr(closure, "find_vanishing_witness", search)
    seen = set()
    for _ in range(30):
        n = rng.randint(1, 3)
        F, gens = corpus_problem(rng, ring, n)
        searches.clear()
        verdict = matrix_semiprime_member(F, gens)
        witness = verdict.witness
        assert len(searches) <= 1
        module = row_module(LeftIdealPresentation(ring, n, gens))
        assert verdict.member == all(semiprime_member(row, module).member for row in F.rows)
        assert witness == original(F, gens)
        assert (witness is not None) <= (not verdict.member)
        seen.add((verdict.member, verdict.method))
    # over Q the grid decides the corpus's negatives
    negative = (False, "witness" if field.char == 0 else "radical")
    assert {(True, "cofactor"), (True, "radical"), negative} <= seen


# ---------------------------------------------------------------------------
# maximal left ideals from a point and covector
# ---------------------------------------------------------------------------

def test_max_left_ideal_member_vanishing_matrix(R):
    x, y = R.variables()
    X = PolyMatrix(R, [[x, R.zero()], [R.zero(), y]])
    assert max_left_ideal_member(X, (0, 0), (1, 1))
    assert max_left_ideal_member(X, (0, 0), (2, -1))


def test_max_left_ideal_member_identity(R):
    assert not max_left_ideal_member(identity_matrix(R, 2), (1, 1), (1, 0))
    with pytest.raises(ZeroCovectorError):
        max_left_ideal_member(identity_matrix(R, 2), (1, 1), (0, 0))
    with pytest.raises(DimensionMismatchError):
        max_left_ideal_member(identity_matrix(R, 2), (1, 1), (1, 0, 0))


def test_max_left_ideal_matches_rowwise_hyperplanes(R):
    rng = random.Random(163)
    for _ in range(10):
        point = (rng.randint(-2, 2), rng.randint(-2, 2))
        covector = (rng.randint(-2, 2), rng.choice([1, -1]))
        C = HyperplaneSubmodule(R, point, covector)
        X = random_matrix(rng, R, 2, max_degree=1)
        rowwise = all(hyperplane_member(row, C) for row in X.rows)
        assert max_left_ideal_member(X, point, covector) == rowwise


def test_prime_intersection_sampling(R, twisted_matrix_ideal):
    # a member of the semiprime closure lies in every sampled maximal left
    # ideal that contains the generators
    rng = random.Random(167)
    x, y = R.variables()
    F = PolyMatrix(R, [[x, y], [R.zero(), R.zero()]])
    gens = twisted_matrix_ideal.generators
    assert matrix_semiprime_member(F, gens).member
    for _ in range(30):
        point = (rng.randint(-2, 2), rng.randint(-2, 2))
        covector = (rng.randint(-2, 2), rng.choice([1, -1, 2]))
        if all(max_left_ideal_member(g, point, covector) for g in gens):
            assert max_left_ideal_member(F, point, covector)
