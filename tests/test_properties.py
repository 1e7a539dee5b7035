"""Property-based differential tests of the semiprime-closure pipeline.

Inputs are small rank-2 problems over Q[x, y], and over F3[x, y] and
F5[x, y] against the finite-field oracle; the chart decision is compared
with the full encoding on ranks 1-3 over Q[x, y] and F7[x, y].  Half of
the problems adjoin f_i * f to the generators, which puts f in the
semiprime closure, so both verdicts occur.  Examples are derandomized and bounded, so every run checks the same
cases.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import settings, strategies as st

try:
    import sympy
except ImportError:
    sympy = None

from conftest import ORDERS, check_witness_verdict

from semimod.closure import (
    _radical_member_by_charts,
    bilinear_encoding,
    find_vanishing_witness,
    radical_member,
    semiprime_member,
)
from semimod.fields import QQ, PrimeField, QuadraticField
from semimod.groebner import DEFAULT_LIMITS, SubmodulePresentation
from semimod.oracle import oracle_check
from semimod.poly import OrderSpec, Polynomial, PolyRing, VectorPoly

R = PolyRing(QQ, ("x", "y"))
BOUNDED = settings(derandomize=True, database=None, deadline=None, max_examples=30)

exponents = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda e: sum(e) <= 2)


def vectors(ring, rank=2):
    polynomials = st.dictionaries(exponents, st.integers(-2, 2), max_size=2).map(
        lambda terms: Polynomial(
            ring, {e: ring.field.coerce(c) for e, c in terms.items()}
        )
    )
    return st.lists(polynomials, min_size=rank, max_size=rank).filter(
        lambda entries: any(not e.is_zero() for e in entries)
    ).map(lambda entries: VectorPoly(ring, entries))


@st.composite
def problems(draw, ring=R, rank=2):
    """(f, generators) with f in the closure whenever f_i * f are adjoined."""
    gens = draw(st.lists(vectors(ring, rank), min_size=1, max_size=2))
    f = draw(vectors(ring, rank))
    if draw(st.booleans()):
        gens += [entry * f for entry in f.entries if not entry.is_zero()]
    return f, gens


@pytest.mark.skipif(sympy is None, reason="needs sympy")
@BOUNDED
@hypothesis.given(problems())
def test_radical_member_matches_sympy_rabinowitsch(problem):
    f, gens = problem
    enc = bilinear_encoding(f, gens)
    syms = sympy.symbols(enc.ring.names)
    t = sympy.Symbol("t_tag")

    def to_sympy(poly):
        return sum(
            sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(s**e for s, e in zip(syms, m)))
            for m, c in poly.terms.items()
        )

    ideal = [to_sympy(g) for g in enc.encoded_generators]
    ideal.append(1 - t * to_sympy(enc.encoded_query))
    theirs = list(sympy.groebner(ideal, *syms, t, order="grevlex").exprs) == [1]
    assert radical_member(enc.encoded_query, enc.encoded_generators) == theirs
    # a negative decided by a grid witness agrees with the radical test
    check_witness_verdict(f, gens)


# The chart decision over Q and F7 under grevlex, and over F7 under lex too;
# lex over Q is left out, since its full-encoding bases can run to the
# coefficient cap (see test_lex_radical_basis_ends_at_the_coefficient_cap)
CHART_CASES = [
    (field, OrderSpec(scalar, module))
    for field, scalars in ((QQ, ("grevlex",)), (PrimeField(7), ("grevlex", "lex")))
    for scalar in scalars
    for module in ("top", "pot")
]


@st.composite
def chart_problems(draw):
    field, order = draw(st.sampled_from(CHART_CASES))
    rank = draw(st.integers(1, 3))
    f, gens = draw(problems(PolyRing(field, ("x", "y")), rank))
    return f, gens, order


@settings(BOUNDED, max_examples=200)
@hypothesis.given(chart_problems())
def test_chart_decision_equals_the_radical_test_on_the_full_encoding(problem):
    # f.v is in the radical of (g.v) iff it is on every chart of the v-block;
    # a ResourceLimitExceededError on either side fails the test
    f, gens, order = problem
    enc = bilinear_encoding(f, gens)
    charts = _radical_member_by_charts(enc, order, DEFAULT_LIMITS)
    assert charts.method == "radical"
    assert charts.member == radical_member(enc.encoded_query, enc.encoded_generators, order)


# ``derandomize`` seeds a test from its source text.  The two tests below
# pin the seeds of their earlier text, so they draw the examples they always
# drew.  Some other seeds draw a problem whose lex radical basis runs for
# minutes without crossing a cap (see ROADMAP, the term cap).
ACROSS_ORDERS_SEED = int(
    "25711355743057615061312602612543210207956221803833298931788080870979833"
    "546741135303132089338203746825166505875475943"
)
ORACLE_AGREEMENT_SEED = int(
    "22426586052255535033383430336348859312995795220812563529490979326379138"
    "061226426675936196819068129712784057616279707"
)


@BOUNDED
@hypothesis.seed(ACROSS_ORDERS_SEED)
@hypothesis.given(problems())
def test_semiprime_verdicts_agree_across_orders(problem):
    f, gens = problem
    verdicts = {
        semiprime_member(f, SubmodulePresentation(R, 2, gens), order).member
        for order in ORDERS
    }
    assert len(verdicts) == 1
    # a negative decided by a grid witness agrees with the radical test
    check_witness_verdict(f, gens)


finite_problems = st.sampled_from([3, 5]).flatmap(
    lambda p: problems(PolyRing(PrimeField(p), ("x", "y")))
)


@BOUNDED
@hypothesis.seed(ORACLE_AGREEMENT_SEED)
@hypothesis.given(finite_problems)
def test_closure_verdicts_agree_with_the_oracle(problem):
    # over F_p a member satisfies the vanishing implication at every point
    # of every extension; a base-field witness of a non-member is a point
    # of the oracle's sweep
    f, gens = problem
    field = f.ring.field
    verdict = semiprime_member(f, SubmodulePresentation(f.ring, 2, gens))
    if verdict.member:
        assert oracle_check(f, gens, field).passed
        assert oracle_check(f, gens, QuadraticField(field.p)).passed
    elif (witness := find_vanishing_witness(f, gens)) is not None:
        report = oracle_check(f, gens, field)
        assert not report.passed
        assert report.counterexample == (witness.point, witness.vector)
