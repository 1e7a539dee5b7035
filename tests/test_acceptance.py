"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  Every assertion is exact; the only tolerances are wall-clock
budgets.
"""

import contextlib
import random
import time
from fractions import Fraction

from conftest import combine, random_generators, random_polynomial, random_vector

from semimod.closure import (
    closure_law_check,
    find_vanishing_witness,
    radical_intersection_check,
    semiprime_member,
)
from semimod.fields import QQ, PrimeField
from semimod.groebner import (
    SubmodulePresentation,
    buchberger,
    normal_form,
    s_vector,
    submodule_member,
)
from semimod.matrixideals import (
    LeftIdealPresentation,
    agreement_check,
    ideal_with_rows_in,
    matrix_member,
    matrix_semiprime_member,
    row_module,
)
from semimod.oracle import oracle_check
from semimod.poly import (
    OrderSpec,
    PolyMatrix,
    PolyRing,
    VectorPoly,
    identity_matrix,
    unit_vector,
)
from semimod.submodules import (
    HyperplaneSubmodule,
    hyperplane_generators,
    semiprime_refutation,
)

POT = OrderSpec(module="pot")
F3 = PrimeField(3)


@contextlib.contextmanager
def criterion(name, budget_s=None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget_s is not None and elapsed >= budget_s:
            raise AssertionError(
                f"runtime {elapsed:.2f}s exceeded the {budget_s}s budget"
            )
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s)")


def twisted_pair(ring):
    x, y = ring.variables()
    return [VectorPoly(ring, [x * x, x * y]), VectorPoly(ring, [x * y, y * y])]


def test_criterion_1_twisted_pair_fixture():
    with criterion("1 twisted-pair fixture", budget_s=1.0):
        R = PolyRing(QQ, ("x", "y"))
        x, y = R.variables()
        N = SubmodulePresentation(R, 2, twisted_pair(R))
        f = VectorPoly(R, [x, y])

        assert submodule_member(f, N).member is False
        assert submodule_member(x * f, N).member is True
        assert submodule_member(y * f, N).member is True
        assert semiprime_refutation(N, f) is not None
        assert semiprime_member(f, N).member is True

        e1 = unit_vector(R, 2, 0)
        verdict = semiprime_member(e1, N)
        assert verdict.member is False
        witness = find_vanishing_witness(e1, N.generators)
        assert witness is not None
        # independent re-verification of the witness by direct evaluation
        a = [w.value for w in witness.point]
        v = [w.value for w in witness.vector]
        for g in N.generators:
            assert sum(gv * vv for gv, vv in zip(g.evaluate_raw(a), v)) == 0
        assert sum(fv * vv for fv, vv in zip(e1.evaluate_raw(a), v)) != 0


def test_criterion_2_closure_law():
    with criterion("2 closure law 200/200", budget_s=120.0):
        rng = random.Random(2024)
        failures = 0
        for field in (QQ, F3):
            for _ in range(100):
                d = rng.randint(1, 2)
                n = rng.randint(1, 3)
                ring = PolyRing(field, ("x", "y")[:d])
                gens = random_generators(rng, ring, n)
                f = random_vector(rng, ring, n)
                N = SubmodulePresentation(ring, n, gens)
                if not closure_law_check(N, f):
                    failures += 1
        assert failures == 0


def _fixture_generator_sets():
    R = PolyRing(QQ, ("x", "y"))
    x, y = R.variables()
    sets = [
        twisted_pair(R),
        [unit_vector(R, 2, 0), unit_vector(R, 2, 1)],
        [VectorPoly(R, [x, R.one()]), VectorPoly(R, [y, R.zero()])],
        hyperplane_generators(HyperplaneSubmodule(R, (1, 2), (2, -1))).generators,
        [VectorPoly(R, [x, R.zero()]), VectorPoly(R, [R.zero(), x])],
        [VectorPoly(R, [x * x + y, x * y - R.one()])],
    ]
    return sets


def test_criterion_3_groebner_soundness():
    with criterion("3 basis soundness and order robustness", budget_s=120.0):
        rng = random.Random(4096)
        R = PolyRing(QQ, ("x", "y"))
        cases = [(gens, None) for gens in _fixture_generator_sets()]
        while len(cases) < len(_fixture_generator_sets()) + 200:
            rank = rng.randint(1, 3)
            gens = random_generators(rng, R, rank)
            cases.append((gens, rank))

        for gens, rank in cases:
            rank = rank or len(gens[0])
            gb = buchberger(gens)
            # every S-vector of basis pairs reduces to zero
            for i in range(len(gb.elements)):
                for j in range(i + 1, len(gb.elements)):
                    s = s_vector(gb.elements[i], gb.elements[j], gb.order)
                    if s is not None and not s.is_zero():
                        assert normal_form(s, gb.elements, gb.order).remainder.is_zero()
            # cofactor certificates reproduce membership inputs exactly
            N_top = SubmodulePresentation(R, rank, gens)
            coeffs = [random_polynomial(rng, R) for _ in N_top.generators]
            member = combine(coeffs, N_top.generators)
            verdict = submodule_member(member, N_top)
            assert verdict.member
            assert combine(verdict.certificate, N_top.generators) == member
            # TOP and POT agree on verdicts
            probe = random_vector(rng, R, rank)
            N_pot = SubmodulePresentation(R, rank, gens)
            assert (
                submodule_member(probe, N_top).member
                == submodule_member(probe, N_pot, POT).member
            )
            assert (
                submodule_member(member, N_pot, POT).member is True
            )


def test_criterion_4_oracle_agreement():
    with criterion("4 oracle agreement 50/50", budget_s=60.0):
        rng = random.Random(8192)
        agreements = 0
        for _ in range(50):
            d = rng.randint(1, 2)
            n = rng.randint(1, 2)
            ring = PolyRing(F3, ("x", "y")[:d])
            gens = random_generators(rng, ring, n, coeffs=(1, 2))
            query = random_vector(rng, ring, n, coeffs=(1, 2))
            if agreement_check(query, gens, F3):
                agreements += 1
            # contrapositive spelled out: a base-field counterexample
            # forces a negative algebraic verdict
            report = oracle_check(query, gens, F3)
            if not report.passed:
                verdict = semiprime_member(
                    query, SubmodulePresentation(ring, n, gens)
                )
                assert not verdict.member
        assert agreements == 50


def test_criterion_5_correspondence_round_trips():
    with criterion("5 correspondence round trips 50 ideals"):
        rng = random.Random(16384)
        R = PolyRing(QQ, ("x", "y"))
        for _ in range(50):
            n = rng.choice([2, 3])
            gens = [
                PolyMatrix(
                    R,
                    [
                        [random_polynomial(rng, R, max_degree=1) for _ in range(n)]
                        for _ in range(n)
                    ],
                )
                for _ in range(rng.randint(1, 2))
            ]
            ideal = LeftIdealPresentation(R, n, gens)
            back = ideal_with_rows_in(row_module(ideal))
            module = row_module(ideal)
            module_back = row_module(ideal_with_rows_in(module))
            for _ in range(10):
                probe = PolyMatrix(
                    R,
                    [
                        [random_polynomial(rng, R, max_degree=1) for _ in range(n)]
                        for _ in range(n)
                    ],
                )
                assert (
                    matrix_member(probe, ideal).member
                    == matrix_member(probe, back).member
                )
                probe_vec = random_vector(rng, R, n, max_degree=1)
                assert (
                    submodule_member(probe_vec, module).member
                    == submodule_member(probe_vec, module_back).member
                )


def test_criterion_6_radical_intersection_sampling():
    with criterion("6 intersection sampling at rational points"):
        rng = random.Random(32768)
        R = PolyRing(QQ, ("x", "y"))

        def points(count=25):
            return [
                (
                    Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3])),
                    Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3])),
                )
                for _ in range(count)
            ]

        x, y = R.variables()
        N = SubmodulePresentation(R, 2, twisted_pair(R))
        assert radical_intersection_check(N, VectorPoly(R, [x, y]), points())

        for _ in range(20):
            n = rng.randint(1, 3)
            gens = random_generators(rng, R, n)
            N = SubmodulePresentation(R, n, gens)
            if rng.random() < 0.5:
                f = random_vector(rng, R, n)
            else:
                coeffs = [random_polynomial(rng, R, max_degree=1) for _ in gens]
                f = combine(coeffs, gens)
            pts = [p[:2] for p in points()]
            assert radical_intersection_check(N, f, pts)


def test_criterion_7_matrix_decisions():
    with criterion("7 matrix closure fixtures", budget_s=5.0):
        R = PolyRing(QQ, ("x", "y"))
        x, y = R.variables()
        G = PolyMatrix(R, [[x * x, x * y], [x * y, y * y]])
        F = PolyMatrix(R, [[x, y], [R.zero(), R.zero()]])
        assert matrix_semiprime_member(F, [G]).member is True

        R1 = PolyRing(QQ, ("x",))
        x1 = R1.variable(0)
        G1 = x1 * identity_matrix(R1, 2)
        verdict = matrix_semiprime_member(identity_matrix(R1, 2), [G1])
        assert verdict.member is False
        witness = find_vanishing_witness(identity_matrix(R1, 2), [G1])
        assert witness is not None
        assert [str(c) for c in witness.point] == ["0"]
