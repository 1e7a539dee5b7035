import itertools
import operator
import random
from fractions import Fraction

import pytest

from conftest import random_generators, random_polynomial, random_vector

import semimod.oracle
from semimod.closure import _grid_values, find_vanishing_witness
from semimod.errors import (
    DimensionMismatchError,
    EnumerationCapExceededError,
    InfiniteFieldError,
    InvariantViolationError,
    MismatchedRingError,
)
from semimod.fields import QQ, FieldElement, PrimeField, QuadraticField, RationalField
from semimod.linalg import dot_raw, kernel_basis
from semimod.matrixideals import agreement_check, matrix_semiprime_member
from semimod.oracle import (
    OracleReport,
    odometer,
    oracle_check,
    oracle_check_escalating,
    vanishing_scan,
)
from semimod.poly import (
    Polynomial,
    PolyMatrix,
    PolyRing,
    VectorPoly,
    identity_matrix,
    unit_vector,
)
from semimod.verdicts import Witness


@pytest.fixture
def twisted_gens(R):
    x, y = R.variables()
    return [VectorPoly(R, [x * x, x * y]), VectorPoly(R, [x * y, y * y])]


F3 = PrimeField(3)


def test_oracle_pass_on_twisted_pair(R, twisted_gens):
    x, y = R.variables()
    report = oracle_check(VectorPoly(R, [x, y]), twisted_gens, F3)
    assert report.passed
    assert report.points == 9
    assert report.nontrivial_kernels > 0


def test_oracle_counterexample_on_constant(R, twisted_gens):
    report = oracle_check(unit_vector(R, 2, 0), twisted_gens, F3)
    assert not report.passed
    a, v = report.counterexample
    assert [str(c) for c in a] == ["0", "0"]
    assert [str(c) for c in v] == ["1", "0"]
    assert report.as_json()["counterexample"] == Witness(a, v).as_json()


def test_counterexample_is_the_witness_the_search_returns(twisted_gens):
    F3R = PolyRing(F3, ("x", "y"))
    query = unit_vector(F3R, 2, 0)
    gens = [g.map_coefficients(F3) for g in twisted_gens]
    report = oracle_check(query, gens, F3)
    assert isinstance(report.counterexample, Witness)
    assert find_vanishing_witness(query, gens) == report.counterexample


def test_oracle_trivial_kernels_pass(R, twisted_gens):
    rng = random.Random(173)
    gens = twisted_gens + [unit_vector(R, 2, 0), unit_vector(R, 2, 1)]
    query = random_vector(rng, R, 2)
    report = oracle_check(query, gens, F3)
    assert report.passed
    assert report.vacuous


def test_oracle_identity_generator_passes_everything():
    rng = random.Random(257)
    R1 = PolyRing(QQ, ("x",))
    x = R1.variable(0)
    gens = [identity_matrix(R1, 2), PolyMatrix(R1, [[x, R1.zero()], [R1.zero(), x]])]
    for _ in range(5):
        query = PolyMatrix(
            R1,
            [[x ** rng.randint(0, 2), R1.const(rng.randint(-2, 2))] for _ in range(2)],
        )
        report = oracle_check(query, gens, F3)
        assert report.passed and report.vacuous


def test_oracle_requires_finite_field(R, twisted_gens):
    with pytest.raises(InfiniteFieldError):
        oracle_check(twisted_gens[0], twisted_gens, QQ)


def test_oracle_cap(R, twisted_gens):
    with pytest.raises(EnumerationCapExceededError):
        oracle_check(twisted_gens[0], twisted_gens, F3, cap=4)


def test_oracle_determinism(R, twisted_gens):
    r1 = oracle_check(unit_vector(R, 2, 0), twisted_gens, F3)
    r2 = oracle_check(unit_vector(R, 2, 0), twisted_gens, F3)
    assert r1.counterexample == r2.counterexample
    assert r1.points == r2.points


def test_oracle_matrix_queries():
    R1 = PolyRing(QQ, ("x",))
    x = R1.variable(0)
    G = PolyMatrix(R1, [[x, R1.zero()], [R1.zero(), x]])
    report = oracle_check(identity_matrix(R1, 2), [G], F3)
    assert not report.passed
    a, v = report.counterexample
    assert [str(c) for c in a] == ["0"]


def test_escalation_on_vacuous_pass(R):
    gens = [unit_vector(R, 2, 0), unit_vector(R, 2, 1)]
    reports = oracle_check_escalating(unit_vector(R, 2, 0), gens)
    assert [repr(r.field) for r in reports] == ["F3", "F5", "F3^2"]
    assert all(r.vacuous for r in reports)


def test_escalation_over_a_prime_field_stays_in_its_characteristic():
    R3 = PolyRing(F3, ("x", "y"))
    gens = [unit_vector(R3, 2, 0), unit_vector(R3, 2, 1)]
    reports = oracle_check_escalating(unit_vector(R3, 2, 0), gens)
    assert [repr(r.field) for r in reports] == ["F3", "F3^2"]


def test_escalation_without_a_field_starts_in_the_problem_field():
    R7 = PolyRing(PrimeField(7), ("x", "y"))
    gens = [unit_vector(R7, 2, 0), unit_vector(R7, 2, 1)]
    reports = oracle_check_escalating(unit_vector(R7, 2, 0), gens)
    assert [repr(r.field) for r in reports] == ["F7", "F7^2"]
    assert all(r.vacuous for r in reports)
    x, y = R7.variables()
    twisted = [VectorPoly(R7, [x * x, x * y]), VectorPoly(R7, [x * y, y * y])]
    reports = oracle_check_escalating(VectorPoly(R7, [x, y]), twisted)
    assert [repr(r.field) for r in reports] == ["F7"]


def test_default_field_is_the_problem_field_when_finite():
    fields = (QQ, PrimeField(7), QuadraticField(5))
    assert [repr(semimod.oracle.default_field(k)) for k in fields] == ["F3", "F7", "F5^2"]


def test_no_escalation_when_kernels_appear(R, twisted_gens):
    x, y = R.variables()
    reports = oracle_check_escalating(VectorPoly(R, [x, y]), twisted_gens)
    assert len(reports) == 1


def test_kernel_combinations_also_vanish(R, twisted_gens):
    # linearity: checking basis vectors is as strong as checking all of the
    # kernel; verify on random combinations
    rng = random.Random(179)
    x, y = R.variables()
    query = VectorPoly(R, [x, y]).map_coefficients(F3)
    gens = [g.map_coefficients(F3) for g in twisted_gens]
    elements = list(F3.elements())
    for a0 in elements:
        for a1 in elements:
            point = (a0, a1)
            rows = [list(g.evaluate_raw(point)) for g in gens]
            basis = kernel_basis(rows, 2, F3)
            if not basis:
                continue
            qvals = query.evaluate_raw(point)
            for _ in range(10):
                coeffs = [rng.randrange(3) for _ in basis]
                combo = [
                    sum(c * v[i] for c, v in zip(coeffs, basis)) % 3
                    for i in range(2)
                ]
                s = sum(q * c for q, c in zip(qvals, combo)) % 3
                assert s == 0


def test_agreement_on_explicit_combination(R, twisted_gens):
    x, y = R.variables()
    f = x * twisted_gens[0] + (y - R.const(2)) * twisted_gens[1]
    assert agreement_check(f, twisted_gens, F3)


def test_agreement_on_random_instances():
    rng = random.Random(181)
    coeffs = (1, 2)
    for _ in range(30):
        d = rng.randint(1, 2)
        ring = PolyRing(F3, ("x", "y")[:d])
        n = rng.randint(1, 2)
        gens = random_generators(rng, ring, n, max_degree=2, coeffs=coeffs)
        query = random_vector(rng, ring, n, coeffs=coeffs)
        assert agreement_check(query, gens, F3)


def test_agreement_on_random_matrix_instances():
    # odd problems are left combinations sum C_i G_i, members by definition
    rng = random.Random(199)
    ring = PolyRing(F3, ("x", "y"))

    def matrix(n, max_degree):
        return PolyMatrix(ring, [
            [random_polynomial(rng, ring, max_degree, coeffs=(1, 2)) for _ in range(n)]
            for _ in range(n)
        ])

    members = []
    for i in range(30):
        n = rng.randint(1, 2)
        gens = [matrix(n, 2) for _ in range(rng.randint(1, 2))]
        query = matrix(n, 2)
        if i % 2:
            query = PolyMatrix(ring, [[0] * n] * n)
            for g in gens:
                query = query + matrix(n, 1) @ g
        assert agreement_check(query, gens, F3)
        members.append(matrix_semiprime_member(query, gens).member)
        assert members[-1] or not i % 2
    assert 15 <= sum(members) < 30


def test_oracle_counterexample_forces_negative_verdict(R, twisted_gens):
    from semimod.closure import semiprime_member
    from semimod.groebner import SubmodulePresentation

    query = unit_vector(R, 2, 0).map_coefficients(F3)
    gens = [g.map_coefficients(F3) for g in twisted_gens]
    report = oracle_check(query, gens, F3)
    assert not report.passed
    ring = query.ring
    verdict = semiprime_member(query, SubmodulePresentation(ring, 2, gens))
    assert not verdict.member


def test_violation_outside_the_kernel_raises(R, monkeypatch):
    # a kernel routine that returns a vector the generator does not kill
    # must be caught by the re-verification, never reported
    monkeypatch.setattr(semimod.oracle, "_kernel_basis", lambda rows, n, field: [(1, 0)])
    e1 = unit_vector(R, 2, 0)
    with pytest.raises(InvariantViolationError):
        oracle_check(e1, [e1], F3)


@pytest.mark.parametrize("p", [3, 5])
def test_witness_search_and_oracle_find_the_same_violation(p):
    # both run the one vanishing scan in the one point order, so the first
    # witness is the oracle's first counterexample
    rng = random.Random(191 + p)
    field = PrimeField(p)
    coeffs = tuple(range(1, p))
    found = 0
    for _ in range(40):
        ring = PolyRing(field, ("x", "y")[: rng.randint(1, 2)])
        n = rng.randint(1, 2)
        gens = random_generators(rng, ring, n, max_degree=2, coeffs=coeffs)
        query = random_vector(rng, ring, n, coeffs=coeffs)
        report = oracle_check(query, gens, field)
        if report.passed:
            continue
        found += 1
        witness = find_vanishing_witness(query, gens)
        assert (witness.point, witness.vector) == report.counterexample
    assert found >= 10


# ---------------------------------------------------------------------------
# the compiled scan against the plain loop it replaced
# ---------------------------------------------------------------------------

def reference_scan(query, generators, field, points, cap):
    """The scan without compilation or early exit: evaluate every generator
    through ``evaluate_raw``, take the kernel of all rows, test the query."""
    n = query.size if isinstance(query, PolyMatrix) else len(query)
    count = evaluations = nontrivial = 0
    for point in points:
        count += 1
        if count > cap:
            raise EnumerationCapExceededError(f"point cap of {cap} crossed")
        rows = [row.evaluate_raw(point) for g in generators for row in g.rows]
        kernel = kernel_basis(rows, n, field)
        if not kernel:
            continue
        nontrivial += 1
        values = [row.evaluate_raw(point) for row in query.rows]
        for v in kernel:
            evaluations += 1
            if evaluations > cap:
                raise EnumerationCapExceededError(f"evaluation cap of {cap} crossed")
            if any(not field.is_zero(dot_raw(field, row, v)) for row in values):
                violation = (
                    tuple(FieldElement(field, x) for x in point),
                    tuple(FieldElement(field, x) for x in v),
                )
                return OracleReport(field, count, evaluations, nontrivial, violation)
    return OracleReport(field, count, evaluations, nontrivial, None)


def scan_outcome(scan, query, gens, field, points, cap):
    try:
        r = scan(query, gens, field, points, cap)
    except EnumerationCapExceededError as exc:
        return ("cap", str(exc))
    return (r.points, r.evaluations, r.nontrivial_kernels, r.counterexample)


def lines_of(values, d):
    """The odometer's lines, each line's coordinates read into a list."""
    return [(prefix, list(xs)) for prefix, xs in odometer(values, d)]


def points_of(lines):
    return [prefix + (x,) for prefix, xs in lines for x in xs]


def one_point_lines(points):
    return [(point[:-1], [point[-1]]) for point in points]


def both_outcomes(query, gens, field, lines, cap):
    """The reference loop over the points of ``lines`` and the scan over the
    lines themselves; they must agree."""
    expected = scan_outcome(reference_scan, query, gens, field, points_of(lines), cap)
    assert scan_outcome(vanishing_scan, query, gens, field, lines, cap) == expected
    return expected


@pytest.mark.parametrize("d", [1, 2, 3])
def test_odometer_lines_hold_the_points_in_product_order(d):
    values = [0, 2, 1]
    assert points_of(lines_of(values, d)) == list(itertools.product(values, repeat=d))
    assert [prefix for prefix, _ in lines_of(values, d)] == list(
        itertools.product(values, repeat=d - 1)
    )


def test_odometer_without_coordinates_is_one_line_of_one_point():
    assert lines_of([0, 1], 0) == [((), [None])]
    ring = PolyRing(F3, ())
    report = oracle_check(unit_vector(ring, 2, 1), [unit_vector(ring, 2, 0)], F3)
    assert (report.points, report.evaluations, report.nontrivial_kernels) == (1, 1, 1)
    assert report.counterexample == Witness((), (F3.zero, F3.one))


def random_entry(rng, ring, coeffs):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        exps = [0] * ring.nx
        for _ in range(rng.randint(0, 3)):
            exps[rng.randrange(ring.nx)] += 1
        terms[tuple(exps)] = rng.choice(coeffs)
    return Polynomial(ring, terms)


def random_problem(rng, ring, coeffs, matrix):
    """A query and one to three generators of rank or size 1..3.  Half the
    queries are combinations of the generators, so scans meet passes with
    nontrivial kernels as well as counterexamples; some generators repeat a
    multiple of another, so the rank stays low at many points.  In some
    problems the first n generator rows are dependent everywhere, so their
    minor is zero and decides no point."""
    n = rng.randint(1, 3)

    def row():
        return [random_entry(rng, ring, coeffs) for _ in range(n)]

    def draw():
        if matrix:
            return PolyMatrix(ring, [row() for _ in range(n)])
        return VectorPoly(ring, row())

    gens = [draw() for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.3:
        gens.append(random_entry(rng, ring, coeffs) * gens[0])
    if rng.random() < 0.25:
        # a multiple of the first row among the first n; for n = 1 its zero
        c = random_entry(rng, ring, coeffs) if n > 1 else 0
        if matrix:
            rows = list(gens[0].rows)
            rows[-1] = [c * e for e in rows[0]]
            gens[0] = PolyMatrix(ring, rows)
        else:
            gens.insert(1 if n > 1 else 0, c * gens[0])
    if rng.random() < 0.5:
        query = draw()
    elif matrix:
        query = draw() @ gens[0]
        for g in gens[1:]:
            query = query + draw() @ g
    else:
        query = random_entry(rng, ring, coeffs) * gens[0]
        for g in gens[1:]:
            query = query + random_entry(rng, ring, coeffs) * g
    return query, gens


def _raw_values(field):
    if field.size is None:
        return [Fraction(k) for k in (0, 1, -1, 2, -2)]  # the grid of radius 2
    return list(field.elements())


SCAN_FIELDS = [PrimeField(3), PrimeField(5), QuadraticField(3), QuadraticField(5), QQ]


@pytest.mark.parametrize("matrix", [False, True], ids=["vector", "matrix"])
@pytest.mark.parametrize("field", SCAN_FIELDS, ids=repr)
def test_scan_matches_the_reference_loop(field, matrix):
    rng = random.Random(f"scan:{field!r}:{matrix}")
    values = _raw_values(field)
    coeffs = [v for v in values if v] + (
        [Fraction(1, 2), Fraction(-3, 4)] if field.size is None else []
    )
    outcomes = set()
    for _ in range(30):
        # three coordinates, as the F3 and F9 sweeps over x, y, z have, put
        # two in the prefix the scan specializes the rows at
        d = rng.randint(1, 3 if len(values) <= 9 else 2)
        ring = PolyRing(field, ("x", "y", "z")[:d])
        query, gens = random_problem(rng, ring, coeffs, matrix)
        in_order = lines_of(values, d)
        points = points_of(in_order)
        shuffled = one_point_lines(rng.sample(points, len(points)))

        def both(cap, lines=in_order):
            return both_outcomes(query, gens, field, lines, cap)

        full = both(10**6)
        outcomes.add("pass" if full[3] is None else "counterexample")
        # prefixes revisited out of odometer order, one point per line
        both(10**6, shuffled)
        # a cap crossed part way, by points or by kernel-vector evaluations
        for cap in {max(1, full[0] // 2), max(1, full[1] - 1)}:
            if both(cap)[0] == "cap":
                outcomes.add("cap")
    assert {"pass", "counterexample", "cap"} <= outcomes


def test_integer_rows_over_q_match_the_reference_and_print_the_same_witnesses(monkeypatch):
    # the witness grid is plain ints and the scan clears each row and minor
    # of its denominators, so over Q both kernels of the scan run on ints;
    # the reference evaluates the rational rows at Fraction points
    results, seen = [], []
    plain, plain_roots = RationalField.horner, RationalField.roots_among

    def recorded(self, coeffs, x):
        value = plain(self, coeffs, x)
        results.append(type(value))
        return value

    def recorded_roots(self, coeffs, xs):
        seen.extend(type(v) for v in list(coeffs) + list(xs))
        return plain_roots(self, coeffs, xs)

    monkeypatch.setattr(RationalField, "horner", recorded)
    monkeypatch.setattr(RationalField, "roots_among", recorded_roots)
    rng = random.Random("integer-rows")
    values = list(_grid_values())
    assert all(type(v) is int for v in values)
    coeffs = [Fraction(c) for c in (Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3), 2, -1)]
    witnesses = 0
    for matrix in (False, True):
        for _ in range(20):
            d = rng.randint(1, 2)
            ring = PolyRing(QQ, ("x", "y")[:d])
            query, gens = random_problem(rng, ring, coeffs, matrix)
            lines = lines_of(values, d)
            rational = [tuple(map(Fraction, point)) for point in points_of(lines)]
            expected = scan_outcome(reference_scan, query, gens, QQ, rational, 10**6)
            assert scan_outcome(vanishing_scan, query, gens, QQ, lines, 10**6) == expected
            if expected[3] is not None:
                witnesses += 1
                printed = Witness(*expected[3]).as_json()
                assert find_vanishing_witness(query, gens).as_json() == printed
    assert witnesses > 0
    assert results and set(results) == {int}
    assert seen and set(seen) == {int}


@pytest.mark.parametrize("field", [PrimeField(3), QuadraticField(3)], ids=repr)
def test_scan_without_the_minor_matches_the_reference_loop(field, monkeypatch):
    # above MINOR_MAX_RANK every point goes to the echelon form
    monkeypatch.setattr(semimod.oracle, "MINOR_MAX_RANK", 0)
    rng = random.Random(f"no-minor:{field!r}")
    values = _raw_values(field)
    coeffs = [v for v in values if v]
    for matrix in (False, True):
        for _ in range(15):
            ring = PolyRing(field, ("x", "y")[: rng.randint(1, 2)])
            query, gens = random_problem(rng, ring, coeffs, matrix)
            both_outcomes(query, gens, field, lines_of(values, ring.nx), 10**6)


F5 = PrimeField(5)
R5 = PolyRing(F5, ("x", "y"))


def x_only_minor_problems():
    """Generators over F5[x, y] whose minor, x(x - 3), depends on x only:
    the lines x = 0 and x = 3 reach the echelon form, every other line
    passes on the minor alone.  The first query is a combination of the
    generators and passes; the second fails first at (3, 1), the 17th
    point in odometer order."""
    x, y = R5.variables()
    gens = [VectorPoly(R5, [x, y]), VectorPoly(R5, [0, x - 3])]
    combination = x * gens[0] + (y + 1) * gens[1]
    return gens, [combination, VectorPoly(R5, [x, 0])]


def y_minor_problems():
    """The generators of ``x_only_minor_problems`` with x and y swapped:
    the minor y(y - 3) leaves the points y = 0 and y = 3 of every line, and
    the batched kernel finds them.  The first query passes; the second
    fails first at (3, 3), the 19th point in odometer order."""
    x, y = R5.variables()
    gens = [VectorPoly(R5, [y, x]), VectorPoly(R5, [0, y - 3])]
    combination = y * gens[0] + (x + 1) * gens[1]
    return gens, [combination, VectorPoly(R5, [0, x * (x - 1) * (x - 2)])]


def one_minor_outcomes(problems, query_index):
    """Both scans on a problem of one minor, over the lines in order and
    shuffled into one-point lines, at caps 3, 7, 12 and 10**6."""
    gens, queries = problems()
    query = queries[query_index]
    in_order = lines_of(F5.elements(), 2)
    points = points_of(in_order)
    shuffled = one_point_lines(random.Random(5).sample(points, len(points)))
    outcomes = []
    for lines in (in_order, shuffled):
        # caps 3, 7 and 12 cross the lines x = 0, 1 and 2 part way
        for cap in (3, 7, 12, 10**6):
            outcomes.append(both_outcomes(query, gens, F5, lines, cap))
    assert outcomes[:3] == [("cap", "point cap of 3 crossed"),
                            ("cap", "point cap of 7 crossed"),
                            ("cap", "point cap of 12 crossed")]
    if not query_index:
        assert outcomes[3][:3] == (25, 10, 10) and outcomes[3][3] is None
    return outcomes[3]


@pytest.mark.parametrize("query_index", [0, 1], ids=["pass", "counterexample"])
def test_scan_with_a_constant_minor_on_each_line_matches_the_reference(query_index):
    full = one_minor_outcomes(x_only_minor_problems, query_index)
    if query_index:
        assert full[0] == 17
        assert full[3] == Witness(
            (FieldElement(F5, 3), FieldElement(F5, 1)),
            (FieldElement(F5, 3), FieldElement(F5, 1)),
        )


@pytest.mark.parametrize("query_index", [0, 1], ids=["pass", "counterexample"])
def test_scan_with_the_batched_minor_on_each_line_matches_the_reference(query_index):
    full = one_minor_outcomes(y_minor_problems, query_index)
    if query_index:
        assert full[0] == 19
        assert full[3] == Witness(
            (FieldElement(F5, 3), FieldElement(F5, 3)),
            (FieldElement(F5, 4), FieldElement(F5, 1)),
        )


def test_lines_with_a_constant_minor_pass_without_evaluation(monkeypatch):
    # on x = 1, 2, 4 the minor is a nonzero constant: one Horner call
    # specializes it per line, and no point of the line evaluates anything
    gens, queries = x_only_minor_problems()
    calls = []
    plain = PrimeField.horner

    def counted(self, coeffs, x):
        calls.append(x)
        return plain(self, coeffs, x)

    monkeypatch.setattr(PrimeField, "horner", counted)
    lines = [((a,), range(5)) for a in (1, 2, 4)]
    report = vanishing_scan(queries[1], gens, F5, lines, 10**6)
    assert (report.points, report.evaluations, report.passed) == (15, 0, True)
    assert calls == [1, 2, 4]


def counted_echelon(monkeypatch):
    """A list that grows by one entry per echelon step of the scan."""
    calls = []
    plain = semimod.oracle.echelon_insert

    def counted(echelon, row, field):
        calls.append(row)
        return plain(echelon, row, field)

    monkeypatch.setattr(semimod.oracle, "echelon_insert", counted)
    return calls


def test_a_later_minor_skips_the_points_where_the_first_vanishes(monkeypatch):
    # the minor of the first two rows, y, vanishes at y = 0 on every line;
    # the next one in combinations order, of rows 1 and 3, is 1, so those
    # points pass with no echelon step, as they do once the bound admits the
    # first minor only
    x, y = R5.variables()
    gens = [VectorPoly(R5, [1, 0]), VectorPoly(R5, [0, y]), VectorPoly(R5, [0, 1])]
    query = VectorPoly(R5, [x, y])
    lines = lines_of(F5.elements(), 2)
    calls = counted_echelon(monkeypatch)
    assert both_outcomes(query, gens, F5, lines, 10**6) == (25, 0, 0, None)
    assert calls == []
    monkeypatch.setattr(semimod.oracle, "MINOR_MAX_COUNT", 1)
    assert both_outcomes(query, gens, F5, lines, 10**6) == (25, 0, 0, None)
    assert len(calls) == 5 * 3  # at y = 0 of each line, all three rows


def test_beyond_the_minor_bound_the_echelon_decides_the_rank(monkeypatch):
    # the first generator rows are multiples of e1, so every minor within
    # the bound is zero, and only the last row, e2, gives full rank: the
    # echelon form has to find it at every point
    x, y = R5.variables()
    # in combinations order the block of rows 0 and m is number m
    m = semimod.oracle.MINOR_MAX_COUNT + 1
    gens = [VectorPoly(R5, [x**i + 1, 0]) for i in range(m)] + [VectorPoly(R5, [0, 1])]
    query = VectorPoly(R5, [x, y])
    lines = lines_of(F5.elements(), 2)
    calls = counted_echelon(monkeypatch)
    assert both_outcomes(query, gens, F5, lines, 10**6) == (25, 0, 0, None)
    assert len(calls) == 25 * (m + 1)


def test_the_scan_reads_a_huge_field_lazily():
    # the witness sits at the first point of 2147483629^2, and the scan
    # reads one value to find it; a later witness costs fewer than twice
    # its points, and the scan reads at most cap + 1 values of the field,
    # also where no point fails
    field = PrimeField(2147483629)
    read = []

    def counting():
        for value in field.elements():
            read.append(value)
            yield value

    ring = PolyRing(field, ("x", "y"))
    x, _ = ring.variables()
    cap = 1000
    report = vanishing_scan(
        VectorPoly(ring, [0, 1]), [VectorPoly(ring, [x, 0])], field, odometer(counting(), 2), cap
    )
    assert report.counterexample == Witness(
        (field.zero, field.zero), (field.zero, field.one)
    )
    assert report.points == 1 and len(read) == 1
    read.clear()
    x, y = ring.variables()
    gens = [VectorPoly(ring, [y - 600, 0]), VectorPoly(ring, [0, 1])]
    report = vanishing_scan(
        VectorPoly(ring, [1, 0]), gens, field, odometer(counting(), 2), cap
    )
    assert report.counterexample.point == (field.zero, field.element(600))
    assert report.points == 601 and len(read) < 2 * 601
    read.clear()
    line = PolyRing(field, ("x",))
    far = VectorPoly(line, [line.variable(0) - 5_000_000])
    with pytest.raises(EnumerationCapExceededError, match="point cap of 1000 crossed"):
        vanishing_scan(VectorPoly(line, [1]), [far], field, odometer(counting(), 1), cap)
    assert len(read) == cap + 1


def test_a_wrong_horner_kernel_is_caught_by_the_re_verification(monkeypatch):
    # the re-check of a violation evaluates with plain add and mul, so a
    # kernel that is off by one ends in an invariant error, never in a
    # reported counterexample
    gens, queries = x_only_minor_problems()
    assert oracle_check(queries[0], gens, F5).passed
    plain = PrimeField.horner
    monkeypatch.setattr(
        PrimeField, "horner", lambda self, coeffs, x: (plain(self, coeffs, x) + 1) % self.p
    )
    with pytest.raises(InvariantViolationError):
        oracle_check(queries[0], gens, F5)
    with pytest.raises(InvariantViolationError):
        find_vanishing_witness(queries[0], gens)


@pytest.mark.parametrize("field", SCAN_FIELDS, ids=repr)
def test_scan_crosses_the_evaluation_cap_where_the_reference_does(field):
    # a zero generator of rank 3 leaves a three-dimensional kernel at every
    # point, so kernel-vector evaluations outrun points
    values = _raw_values(field)
    ring = PolyRing(field, ("x",))
    x = ring.variable(0)
    gens = [VectorPoly(ring, [0, 0, 0]), VectorPoly(ring, [x, 0, 0])]
    query = VectorPoly(ring, [x * x, 0, 0])
    lines = lines_of(values, 1)
    full = both_outcomes(query, gens, field, lines, 10**6)
    expected = both_outcomes(query, gens, field, lines, full[0] + 1)
    assert expected[0] == "cap" and expected[1].startswith("evaluation")


# ---------------------------------------------------------------------------
# the stratum one rank down: rank n - 1 points passed by bordered minors
# ---------------------------------------------------------------------------

DEFICIENT_SHAPES = ("one", "parallel", "zero-row", "closure-law")


def spoiler(ring, values):
    """A polynomial in the first coordinate that vanishes at every value of
    ``values`` but the last."""
    h = ring.one()
    for v in values[:-1]:
        h = h * (ring.variable(0) - ring.field.element(v))
    return h


def deficient_problem(rng, ring, coeffs, matrix, shape, values):
    """A query and generators of rank or size 1..3 whose rows have rank
    below n at many points: one generator, parallel generators (as
    matrices, rows that are multiples of one row), a zero row beside n - 1
    others, or the closure-law set g + f_i * f with f the query.  For the
    other shapes the query is random, a combination of the generators, or
    such a combination spoiled on the last line of the first coordinate
    only, so that the scan passes most points before its violation."""
    n = rng.randint(1, 3)

    def row():
        return [random_entry(rng, ring, coeffs) for _ in range(n)]

    def draw(rows=None):
        rows = rows or [row() for _ in range(n if matrix else 1)]
        return PolyMatrix(ring, rows) if matrix else VectorPoly(ring, rows[0])

    def multiples(r, count):
        return [[random_entry(rng, ring, coeffs) * e for e in r] for _ in range(count)]

    if shape == "closure-law":
        query = draw()
        gens = [draw() for _ in range(rng.randint(1, 2))]
        gens += [e * query for r in query.rows for e in r.entries if not e.is_zero()]
        return query, gens
    if shape == "one":
        gens = [draw(multiples(row(), n) if matrix else None)]
    elif shape == "parallel":
        r = row()
        gens = [draw(multiples(r, n if matrix else 1)) for _ in range(rng.randint(2, 3))]
    else:
        rows = [row() for _ in range(n - 1)] + [[0] * n]
        rng.shuffle(rows)
        gens = [draw(rows)] if matrix else [draw([r]) for r in rows]
    kind = rng.choice(["random", "combination", "spoiled"])
    if kind == "random":
        return draw(), gens
    query = draw([[0] * n for _ in range(n if matrix else 1)])
    for g in gens:
        query = query + (draw() @ g if matrix else random_entry(rng, ring, coeffs) * g)
    if kind == "spoiled":
        query = query + spoiler(ring, values) * draw()
    return query, gens


def deficient_problems(field, matrix, count, seed):
    """``count`` problems of every shape over ``field``, with the raw
    values of a scan's coordinates."""
    rng = random.Random(f"{seed}:{field!r}:{matrix}")
    values = _raw_values(field)
    coeffs = [v for v in values if v] + (
        [Fraction(1, 2), Fraction(-3, 4)] if field.size is None else []
    )
    for shape in DEFICIENT_SHAPES:
        for _ in range(count):
            ring = PolyRing(field, ("x", "y")[: rng.randint(1, 2)])
            yield deficient_problem(rng, ring, coeffs, matrix, shape, values), ring.nx, values


def counted_kernels(monkeypatch):
    """A list that grows by one entry per kernel basis the scan builds."""
    calls = []
    plain = semimod.oracle._kernel_basis

    def counted(rows, n, field):
        calls.append(n)
        return plain(rows, n, field)

    monkeypatch.setattr(semimod.oracle, "_kernel_basis", counted)
    return calls


@pytest.mark.parametrize("matrix", [False, True], ids=["vector", "matrix"])
@pytest.mark.parametrize("field", [PrimeField(3), PrimeField(5), QuadraticField(3), QQ], ids=repr)
def test_scan_one_rank_down_matches_the_reference_loop(field, matrix, monkeypatch):
    # rank-deficient generator sets put most points on the stratum rank
    # n - 1, where the scan passes points by bordered minors; every count
    # and every witness must still be the reference loop's, in order and
    # shuffled into one-point lines, with caps crossed part way
    kernels = counted_kernels(monkeypatch)
    rng = random.Random(f"one-down:{field!r}:{matrix}")
    outcomes, nontrivial, built = set(), 0, 0
    for (query, gens), d, values in deficient_problems(field, matrix, 6, "one-down"):
        in_order = lines_of(values, d)
        points = points_of(in_order)
        shuffled = one_point_lines(rng.sample(points, len(points)))

        def both(cap, lines=in_order):
            return both_outcomes(query, gens, field, lines, cap)

        built -= len(kernels)
        full = both(10**6)
        built += len(kernels)
        nontrivial += full[2]
        outcomes.add("pass" if full[3] is None else "counterexample")
        both(10**6, shuffled)
        for cap in (max(1, full[0] // 2), max(1, full[1] - 1)):
            if (out := both(cap))[0] == "cap":
                outcomes.add(out[1].split()[0])
    assert outcomes == {"pass", "counterexample", "point", "evaluation"}
    # the stratum did the work: most nontrivial kernels were never built
    assert built < nontrivial


@pytest.mark.parametrize("field", [PrimeField(5), QQ], ids=repr)
def test_minors_built_over_several_lines_then_one_rank_down_match_the_reference(
    field, monkeypatch
):
    # three generator rows at n = 2: on the first line the first 2 x 2 minor
    # passes every point, the other two are first asked for on the second
    # line, where every minor vanishes and a point of rank 1 appends the
    # 1 x 1 minors; the fourth line is passed by them, and queries spoiled at
    # one point of the second or fourth line violate after or among passes
    kernels = counted_kernels(monkeypatch)
    values = _raw_values(field)
    a, c, b, last = values[1], values[2], values[3], values[-1]
    ring = PolyRing(field, ("x", "y"))
    x, y = ring.variables()

    def at(v):
        return ring.field.element(v)

    def spoiled_at(u, w):
        """(0, s) with s vanishing at every point of the grid but (u, w)."""
        s = ring.one()
        for v in values:
            s = s * (x - at(v) if v != u else ring.one()) * (y - at(v) if v != w else ring.one())
        return VectorPoly(ring, [ring.zero(), s])

    g1 = VectorPoly(ring, [ring.one(), y])
    g2 = VectorPoly(ring, [ring.zero(), (x - at(a)) * (x - at(b))])
    g3 = VectorPoly(ring, [x + y, y * (x + y) + (x - at(a)) * (x - at(b)) * (x - at(c))])
    gens = [g1, g2, g3]
    combination = x * g1 + y * g2 + (y + 1) * g3
    queries = [
        combination,
        combination + spoiled_at(a, last),
        combination + spoiled_at(b, last),
        VectorPoly(ring, [x, y * y]),
    ]
    in_order = lines_of(values, 2)
    points = points_of(in_order)
    rng = random.Random(f"minors-over-lines:{field!r}")
    outcomes, built = [], []
    for query in queries:
        built.append(-len(kernels))
        full = both_outcomes(query, gens, field, in_order, 10**6)
        built[-1] += len(kernels)
        outcomes.append(full)
        both_outcomes(query, gens, field, one_point_lines(rng.sample(points, len(points))), 10**6)
        for cap in (max(1, full[0] - 1), max(1, full[1] - 1)):
            both_outcomes(query, gens, field, in_order, cap)
    # the pass counts the ten rank-1 points of the second and fourth lines,
    # and the spoiled queries fail at their spoiled points
    assert outcomes[0][:3] == (25, 10, 10) and outcomes[0][3] is None
    assert [out[3][0] for out in outcomes[1:3]] == [
        tuple(map(field.element, p)) for p in [(a, last), (b, last)]
    ]
    assert outcomes[3][3] is not None
    # in order, the pass builds kernels only on the second line's first
    # piece of four points
    assert built[0] == 4


def re_verified(report_outcome, query, gens, field):
    """Whether a scan's reported counterexample, if any, passes the
    independent re-check."""
    if report_outcome[0] == "cap" or report_outcome[3] is None:
        return True
    point, vector = report_outcome[3]
    try:
        semimod.oracle._verify_violation(
            query, gens, field, tuple(a.value for a in point), tuple(v.value for v in vector)
        )
    except InvariantViolationError:
        return False
    return True


def faulty_outcomes(field, fault_ids):
    """The scan's and the reference loop's outcomes on the rank-deficient
    problems over ``field``; a fault may raise the invariant error of the
    re-verification, which stands for no counterexample reported."""
    out = []
    for matrix in (False, True):
        for (query, gens), d, values in deficient_problems(field, matrix, 4, fault_ids):
            lines = lines_of(values, d)
            expected = scan_outcome(reference_scan, query, gens, field, points_of(lines), 10**6)
            try:
                got = scan_outcome(vanishing_scan, query, gens, field, lines, 10**6)
            except InvariantViolationError:
                continue
            assert re_verified(got, query, gens, field)
            out.append((got, expected))
    return out


@pytest.mark.parametrize("fault", ["drop", "add"])
def test_a_wrong_root_kernel_never_reports_a_false_counterexample(fault, monkeypatch):
    # a batched kernel that drops a root, or adds one, passes wrong points
    # or sends them to the echelon form; every counterexample still comes
    # from the kernel path and its re-verification
    plain = PrimeField.roots_among

    def wrong(self, coeffs, xs):
        roots = plain(self, coeffs, xs)
        if fault == "drop":
            return roots[:-1]
        extra = [j for j in range(len(xs)) if j not in set(roots)][:1]
        return sorted(roots + extra)

    monkeypatch.setattr(PrimeField, "roots_among", wrong)
    out = faulty_outcomes(F5, f"fault-{fault}")
    assert any(got != expected for got, expected in out)


@pytest.mark.parametrize("fault", ["generator-border", "shifted-block"])
def test_a_wrong_bordered_determinant_never_reports_a_false_counterexample(fault, monkeypatch):
    # bordered determinants built from the wrong rows pass wrong points;
    # they may hide a violation, never invent one
    plain = semimod.oracle._bordered

    def wrong(ring, rows, block, queries, nx, zero):
        if fault == "generator-border":
            return plain(ring, rows, block, [rows[0]] * len(queries), nx, zero)
        shifted = tuple((i + 1) % (len(rows) - len(queries)) for i in block)
        return plain(ring, rows, shifted, queries, nx, zero)

    monkeypatch.setattr(semimod.oracle, "_bordered", wrong)
    out = faulty_outcomes(F5, f"fault-{fault}")
    assert any(got != expected for got, expected in out)


def leibniz(matrix, one, add, mul, neg):
    """The determinant of a square matrix by the Leibniz formula, with the
    given arithmetic; ``one`` for the 0 x 0 matrix."""
    total = None
    for perm in itertools.permutations(range(len(matrix))):
        term = one
        for i, j in enumerate(perm):
            term = mul(term, matrix[i][j])
        odd = sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
        term = neg(term) if odd else term
        total = term if total is None else add(total, term)
    return total


def builder_rows(rng, ring, field, n, count):
    """``count`` integral rows of n entries: random rows of nonzero entries,
    a multiple of the first and a zero row among them, so that some minors
    vanish and others do not."""
    coeffs = [c for c in _raw_values(field) if not field.is_zero(c)]
    if field.size is None:
        coeffs += [Fraction(1, 2), Fraction(-2, 3)]

    def entry():
        while (e := random_entry(rng, ring, coeffs)).is_zero():
            pass
        return e

    rows = [[entry() for _ in range(n)] for _ in range(count - 2)]
    c = entry()
    rows[1:1] = [[c * e for e in rows[0]]]
    rows[3:3] = [[ring.zero()] * n]
    return [semimod.oracle._integral(row, field) for row in rows]


def flatten(nested):
    if not isinstance(nested, list):
        return [nested]
    return [c for item in nested for c in flatten(item)]


@pytest.mark.parametrize("field", [PrimeField(5), QuadraticField(3), QQ], ids=repr)
def test_minors_and_bordered_determinants_are_the_determinants_of_the_integral_rows(field):
    # every test the scan makes is _det of the integral rows, compiled: each
    # must equal a Leibniz determinant of the evaluated rows, come in
    # combinations order with zero minors skipped, and stay within the caps
    oracle = semimod.oracle
    rng = random.Random(3001)
    ring = PolyRing(field, ("x", "y"))
    zero = field.split({0: field.zero_raw})[0][0]
    (one,) = oracle._integral([ring.one()], field)
    points = [tuple(rng.choice(_raw_values(field)) for _ in range(2)) for _ in range(4)]

    def det_at(matrix, point):
        values = [[e.evaluate_raw(point) for e in row] for row in matrix]
        return leibniz(values, field.one_raw, field.add, field.mul, field.neg)

    def check_compiled(compiled, matrix):
        if field.size is None:
            assert all(type(c) is int for c in flatten(compiled))
        for point in points:
            assert oracle._specialize(compiled, point, field.horner) == det_at(matrix, point)

    capped = skipped = 0
    for n in (1, 2, 3):
        rows = builder_rows(rng, ring, field, n, 5)
        for rank in range(n + 1):
            pairs = [
                (block, cols)
                for block in itertools.combinations(range(len(rows)), rank)
                for cols in itertools.combinations(range(n), rank)
            ]

            def block_of(pair):
                block, cols = pair
                return [[rows[i][j] for j in cols] for i in block]

            nonzero = [
                pair for pair in pairs
                if not leibniz(block_of(pair), one, operator.add, operator.mul,
                               operator.neg).is_zero()
            ]
            first = pairs[: oracle.MINOR_MAX_COUNT]
            expected = [pair for pair in first if pair in nonzero]
            capped += len(nonzero) > len(first)
            skipped += len(expected) < len(first)
            minors = list(oracle._minors(rows, rank, n, one, 2, zero))
            assert [block for block, _ in minors] == [block for block, _ in expected]
            assert len(minors) <= oracle.MINOR_MAX_COUNT
            for (_, compiled), pair in zip(minors, expected):
                check_compiled(compiled, block_of(pair))  # at rank 0 the value 1
        queries = builder_rows(rng, ring, field, n, 4)[:2]
        for block in itertools.combinations(range(len(rows)), n - 1):
            bordered = oracle._bordered(one, rows + queries, block, queries, 2, zero)
            assert len(bordered) == len(queries)
            for compiled, f in zip(bordered, queries):
                check_compiled(compiled, [rows[i] for i in block] + [f])
    assert capped and skipped
    wide = builder_rows(rng, ring, field, oracle.MINOR_MAX_RANK + 1, 6)
    for rank in (0, 1, oracle.MINOR_MAX_RANK + 1):
        assert list(oracle._minors(wide, rank, oracle.MINOR_MAX_RANK + 1, one, 2, zero)) == []


def test_a_scan_of_rank_n_minus_one_everywhere_builds_a_handful_of_kernels(monkeypatch):
    # one generator of rank 2 over F101 and a query in its closure: the
    # generator has rank 1 wherever it does not vanish, and no 2 x 2 minor,
    # so without the stratum one rank down the scan builds a kernel at each
    # of the 10,201 points
    field = PrimeField(101)
    ring = PolyRing(field, ("x", "y"))
    x, y = ring.variables()
    g = VectorPoly(ring, [x * y - 1, y * y + x])
    query = (x + y * y - 3) * g
    lines = lines_of(field.elements(), 2)
    kernels = counted_kernels(monkeypatch)
    report = vanishing_scan(query, [g], field, lines, 10**6)
    assert len(kernels) <= 3
    expected = reference_scan(query, [g], field, points_of(lines), 10**6)
    assert report == expected
    assert report.points == report.nontrivial_kernels == 101**2


@pytest.mark.parametrize("where", ["query", "generator"])
def test_scan_rejects_variables_outside_the_x_block(where):
    ring = PolyRing(F3, ("x", "v"), nx=1)
    x, v = ring.variables()
    inside, outside = VectorPoly(ring, [x]), VectorPoly(ring, [v])
    query, gens = (outside, [inside]) if where == "query" else (inside, [outside])
    with pytest.raises(DimensionMismatchError):
        oracle_check(query, gens, F3)


RXY = PolyRing(F3, ("x", "y"))
RXYZ = PolyRing(F3, ("x", "y", "z"))
RYX = PolyRing(F3, ("y", "x"))
XY = VectorPoly(RXY, RXY.variables())


@pytest.mark.parametrize(
    "query, generator, error",
    [
        (XY, VectorPoly(RXY, [RXY.variable(0), 0, 1]), DimensionMismatchError),
        (XY, VectorPoly(RXY, [RXY.variable(0)]), DimensionMismatchError),
        (XY, identity_matrix(RXY, 3), DimensionMismatchError),
        (VectorPoly(RXYZ, RXYZ.variables()[:2]), XY, MismatchedRingError),
        (XY, VectorPoly(RYX, RYX.variables()), MismatchedRingError),
    ],
    ids=["longer", "shorter", "larger-matrix", "smaller-ring", "renamed-ring"],
)
def test_scan_rejects_generators_of_another_ring_or_rank(query, generator, error):
    # the scan serves the oracle and the witness search alike; a generator
    # of another rank once raised a bare IndexError or gave a bogus
    # counterexample, one of another ring a counterexample too
    with pytest.raises(error):
        oracle_check(query, [query, generator], F3)
    with pytest.raises(error):
        find_vanishing_witness(query, [generator])
