import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from heapq import heapify, heappop, heappush

import pytest

from conftest import ORDERS, combine, random_generators, random_vector

from semimod import closure, groebner
from semimod.cli import main
from semimod.closure import radical_member, semiprime_member
from semimod.errors import ResourceLimitExceededError
from semimod.fields import QQ, PrimeField, field_from_name
from semimod.groebner import (
    MAX_COEFFICIENT_BITS,
    GroebnerBasis,
    GroebnerLimits,
    NormalFormResult,
    SubmodulePresentation,
    _vector_degree,
    buchberger,
    ideal_member,
    normal_form,
    s_vector,
    submodule_member,
)
from semimod.matrixideals import matrix_semiprime_member
from semimod.parser import parse_polynomial
from semimod.poly import (
    GREVLEX,
    TOP,
    OrderSpec,
    PolyMatrix,
    Polynomial,
    PolyRing,
    VectorPoly,
    mono_div,
    mono_mul,
    unit_vector,
)
from semimod.submodules import semiprime_refutation, weakly_semiprime_refutation

POT = OrderSpec(module="pot")

# rational coefficients with denominators, a large prime numerator and
# non-unit integers, so leads are rarely 1 and contents are nontrivial
RATIONAL_COEFFS = (
    Fraction(7, 3), Fraction(-12, 5), Fraction(1000003, 2), 3, -4, Fraction(-1, 6),
)


@pytest.fixture
def pair_basis(R):
    x, y = R.variables()
    return [VectorPoly(R, [x * x, x * y]), VectorPoly(R, [x * y, y * y])]


def mono_divides(a, b):
    """True when x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def tuple_map(v):
    """A vector as the flattened {(component, exponents): coefficient} map
    the reference reducer reads."""
    return {(comp, exps): c for comp, e in enumerate(v.entries) for exps, c in e.terms.items()}


def tuple_heap_key(order: OrderSpec):
    """Key under which a min-heap pops the largest module monomial first:
    ``order.module_key`` flattened, with every entry negated."""
    if order.scalar == GREVLEX:
        if order.module == TOP:
            return lambda mm: (-sum(mm[1]), *mm[1][::-1], mm[0])
        return lambda mm: (mm[0], -sum(mm[1]), *mm[1][::-1])
    if order.module == TOP:
        return lambda mm: (*[-e for e in mm[1]], mm[0])
    return lambda mm: (mm[0], *[-e for e in mm[1]])


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------

def test_normal_form_of_generator(pair_basis):
    nf = normal_form(pair_basis[0], pair_basis)
    assert nf.remainder.is_zero()
    assert [str(c) for c in nf.cofactors] == ["1", "0"]


def test_normal_form_of_low_degree_vector(R, pair_basis):
    # hand division: every basis leading module-monomial has degree 2, so
    # the degree-1 input is already irreducible
    x, y = R.variables()
    f = VectorPoly(R, [x, y])
    nf = normal_form(f, pair_basis)
    assert nf.remainder == f
    assert all(c.is_zero() for c in nf.cofactors)


def test_normal_form_of_zero(R, pair_basis):
    zero = VectorPoly(R, [R.zero(), R.zero()])
    nf = normal_form(zero, pair_basis)
    assert nf.remainder.is_zero()
    assert all(c.is_zero() for c in nf.cofactors)


def test_normal_form_identity_holds(R):
    rng = random.Random(29)
    for _ in range(30):
        basis = random_generators(rng, R, 2)
        f = random_vector(rng, R, 2)
        nf = normal_form(f, basis)
        assert combine(nf.cofactors, basis) + nf.remainder == f


def test_normal_form_is_idempotent(R):
    rng = random.Random(31)
    for _ in range(20):
        basis = random_generators(rng, R, 2)
        f = random_vector(rng, R, 2)
        rem = normal_form(f, basis).remainder
        if not rem.is_zero():
            assert normal_form(rem, basis).remainder == rem


def reference_reduce(fmap, infos, hkey, field):
    """The field-division reducer that fraction-free reduction replaced,
    kept as the reference: infos holds (lead, lead coefficient, map), and
    input = sum(cofactor_k * basis_k) + remainder."""
    add, mul, neg, div = field.add, field.mul, field.neg, field.div
    is_zero = field.is_zero
    p = dict(fmap)
    heap = [(hkey(mm), mm) for mm in p]
    heapify(heap)
    rem = {}
    cofs = [dict() for _ in infos]
    while heap:
        cm = heappop(heap)[1]
        c = p.get(cm)
        if c is None:
            continue
        comp, exps = cm
        for k, (bmm, blc, bmap) in enumerate(infos):
            if bmm[0] == comp and mono_divides(bmm[1], exps):
                t = mono_div(exps, bmm[1])
                q = div(c, blc)
                cofs[k][t] = add(cofs[k].get(t, field.zero_raw), q)
                qn = neg(q)
                for (bc, be), bco in bmap.items():
                    mm = (bc, mono_mul(t, be))
                    val = mul(qn, bco)
                    cur = p.get(mm)
                    if cur is None:
                        p[mm] = val
                        heappush(heap, (hkey(mm), mm))
                    else:
                        val = add(cur, val)
                        if is_zero(val):
                            del p[mm]
                        else:
                            p[mm] = val
                break
        else:
            rem[cm] = c
            del p[cm]
    return rem, cofs


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("order", ORDERS, ids=lambda o: f"{o.scalar}-{o.module}")
def test_normal_form_matches_the_field_division_reference(order, rank):
    R = PolyRing(QQ, ("x", "y"))
    hkey = tuple_heap_key(order)
    rng = random.Random(83 + rank)
    for _ in range(25):
        basis = random_generators(rng, R, rank, coeffs=RATIONAL_COEFFS)
        f = random_vector(rng, R, rank, max_degree=3, coeffs=RATIONAL_COEFFS)
        infos = []
        for g in basis:
            m = tuple_map(g)
            lead = min(m, key=hkey)
            infos.append((lead, m[lead], m))
        rem, cofs = reference_reduce(tuple_map(f), infos, hkey, QQ)
        nf = normal_form(f, basis, order)
        assert tuple_map(nf.remainder) == rem
        assert [c.terms for c in nf.cofactors] == cofs
        assert combine(nf.cofactors, basis) + nf.remainder == f
        assert all(type(c) is Fraction for c in tuple_map(nf.remainder).values())


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: f"{o.scalar}-{o.module}")
def test_packing_matches_tuple_monomials(order):
    # the packed int sorts, divides and multiplies exactly as the
    # (component, exponent tuple) it encodes, and unpacks back to it
    rng = random.Random(89)
    divisible = 0
    for nvars in range(1, 9):
        for rank in (1, 2, 3):
            pk = groebner._packing(nvars, rank, order, 7)
            mms = {
                (rng.randrange(rank), tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(nvars)))
                for _ in range(40)
            }
            packed = {mm: pk.pack(*mm) for mm in mms}
            for (comp, exps), m in packed.items():
                assert (pk.comp(m), pk.exps(m)) == (comp, exps)
                assert m & pk.mask == sum(exps)
            assert sorted(mms, key=packed.get) == sorted(mms, key=order.module_key)
            for a in mms:
                for b in mms:
                    diff = packed[b] - packed[a]
                    divides = a[0] == b[0] and mono_divides(a[1], b[1])
                    assert (not diff & pk.guard) == divides
                    if divides:
                        divisible += 1
                        assert diff == pk.pack(None, mono_div(b[1], a[1]))
            t = tuple(rng.randrange(3) for _ in range(nvars))
            for comp, exps in mms:
                assert packed[(comp, exps)] + pk.pack(None, t) == pk.pack(comp, mono_mul(exps, t))
            with pytest.raises(groebner._Overflow):
                pk.pack(0, (pk.limit,) + (0,) * (nvars - 1))
    assert divisible > 1000


LEX = OrderSpec(scalar="lex")


def test_lex_normal_form_widens_its_packing(R):
    # the remainder of x^3 + xy by x - y^50 has degree 150, past the first
    # packing, whose digits hold 2*50; values recorded with tuple monomials
    x, y = R.variables()
    assert groebner._first_packing(R, 1, LEX, 2 * 50).limit <= 150
    nf = normal_form(VectorPoly(R, [x**3 + x * y]), [VectorPoly(R, [x - y**50])], LEX)
    assert str(nf.remainder) == "[y^150 + y^51]"
    assert [str(c) for c in nf.cofactors] == ["y^100 + x*y^50 + x^2 + y"]


def test_lex_buchberger_widens_its_packing(R):
    # the S-vector of x - y^6 and x^6 - 1 reduces through x^4*y^12 up to
    # y^36, past the first packing, whose digits hold 2*max_degree = 12;
    # values recorded with tuple monomials
    x, y = R.variables()
    gens = [x - y**6, x**6 - R.one(), y - R.one()]
    assert groebner._first_packing(R, 1, LEX, 2 * 6).limit <= 16
    gb = buchberger([VectorPoly(R, [p]) for p in gens], LEX, GroebnerLimits(max_degree=6))
    assert [str(e) for e in gb.elements] == ["[y - 1]", "[x - 1]"]
    assert gb.stats == {
        "pairs_processed": 3, "pairs_skipped": 2, "zero_reductions": 1, "basis_size": 2,
    }


def test_every_basis_reports_the_same_four_counters(R, pair_basis):
    # the empty basis comes from buchberger too, so an empty presentation,
    # a query against it and an all-zero generator list count like any basis
    empty = {"pairs_processed": 0, "pairs_skipped": 0, "zero_reductions": 0, "basis_size": 0}
    zero = VectorPoly(R, [R.zero(), R.zero()])
    assert buchberger([zero, zero]).stats == empty
    presentation = SubmodulePresentation(R, 2, [])
    gb = presentation.groebner()
    assert gb.stats == empty and gb.elements == []
    x, y = R.variables()
    f = VectorPoly(R, [x, y**3])
    verdict = submodule_member(f, presentation)
    assert not verdict.member and verdict.stats == empty
    assert normal_form(f, gb).remainder == f
    assert submodule_member(zero, presentation).certificate == []
    assert list(buchberger(pair_basis).stats) == list(empty)


def test_normal_form_by_a_basis_uses_its_divisors(R, pair_basis, monkeypatch):
    # a GroebnerBasis lends its packed divisors, so only the query is
    # normalized, and it divides exactly as the list of its elements does
    rng = random.Random(107)
    normalized = []
    real = groebner._normalized
    monkeypatch.setattr(
        groebner, "_normalized", lambda m, field: normalized.append(1) or real(m, field)
    )
    for order in ORDERS:
        for _ in range(5):
            gb = buchberger(random_generators(rng, R, 2, coeffs=RATIONAL_COEFFS), order)
            f = random_vector(rng, R, 2, max_degree=3, coeffs=RATIONAL_COEFFS)
            normalized.clear()
            by_basis = normal_form(f, gb, order)
            assert len(normalized) == 1
            by_list = normal_form(f, gb.elements, order)
            assert by_basis.remainder == by_list.remainder
            assert by_basis.cofactors == by_list.cofactors
    # a query past the basis's packing is divided by its elements, repacked
    x, y = R.variables()
    gb = buchberger(pair_basis)
    f = VectorPoly(R, [x**200 + y, x * y**199])
    assert _vector_degree(f) >= gb._packing.limit
    by_basis, by_list = normal_form(f, gb), normal_form(f, gb.elements)
    assert by_basis.remainder == by_list.remainder
    assert by_basis.cofactors == by_list.cofactors
    assert combine(by_basis.cofactors, gb.elements) + by_basis.remainder == f


# ---------------------------------------------------------------------------
# buchberger
# ---------------------------------------------------------------------------

def test_unit_submodule_basis(R):
    basis = buchberger([unit_vector(R, 2, 0), unit_vector(R, 2, 1)])
    assert basis.elements == [unit_vector(R, 2, 1), unit_vector(R, 2, 0)]


def test_twisted_pair_basis_membership(R, pair_basis):
    x, y = R.variables()
    gb = buchberger(pair_basis)
    f = VectorPoly(R, [x, y])
    assert not normal_form(f, gb.elements).remainder.is_zero()
    assert normal_form(x * f, gb.elements).remainder.is_zero()
    assert normal_form(y * f, gb.elements).remainder.is_zero()


def assert_is_groebner(gb):
    """Independent oracle: every S-vector of basis pairs reduces to zero."""
    for i in range(len(gb.elements)):
        for j in range(i + 1, len(gb.elements)):
            s = s_vector(gb.elements[i], gb.elements[j], gb.order)
            if s is None or s.is_zero():
                continue
            assert normal_form(s, gb.elements, gb.order).remainder.is_zero()


def input_reps(gb):
    """Per element of ``gb``, its combination of the inputs as Polynomials."""
    join = gb.ring.field.join
    return [[Polynomial(gb.ring, join(m, den)) for m in maps] for maps, den in gb._element_reps]


def assert_provenance(gb):
    """Each basis element is an explicit combination of the kept inputs and
    each input reduces to zero against the basis."""
    for elem, rep in zip(gb.elements, input_reps(gb)):
        assert combine(rep, gb.inputs) == elem
    for g in gb.inputs:
        assert normal_form(g, gb.elements, gb.order).remainder.is_zero()


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("order", ORDERS, ids=lambda o: f"{o.scalar}-{o.module}")
def test_random_bases_satisfy_s_vector_oracle(order, field, rank):
    R = PolyRing(field, ("x", "y"))
    rng = random.Random(37)
    for _ in range(40):
        gens = random_generators(rng, R, rank)
        gb = buchberger(gens, order)
        assert_is_groebner(gb)
        assert_provenance(gb)


def assert_monic_over_fractions(gb):
    for g in gb.elements:
        lead = max(
            ((i, m) for i, e in enumerate(g.entries) for m in e.terms),
            key=gb.order.module_key,
        )
        assert g.entries[lead[0]].terms[lead[1]] == 1
        assert all(type(c) is Fraction for e in g.entries for c in e.terms.values())


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("order", ORDERS, ids=lambda o: f"{o.scalar}-{o.module}")
def test_rational_bases_satisfy_s_vector_oracle(order, rank):
    R = PolyRing(QQ, ("x", "y"))
    rng = random.Random(97 + rank)
    for _ in range(25):
        gens = random_generators(rng, R, rank, coeffs=RATIONAL_COEFFS)
        gb = buchberger(gens, order)
        assert_is_groebner(gb)
        assert_provenance(gb)
        assert_monic_over_fractions(gb)


def test_chain_criterion_skips_pairs_of_a_known_basis():
    # every element of x*(y^2 - z, yz - x, z^2 - y) is a multiple of x, so
    # no two leads are coprime and every skipped pair is a chain skip;
    # basis frozen from an independent computer algebra system
    R = PolyRing(QQ, ("x", "y", "z"))
    x, y, z = R.variables()
    gens = [x * (y * y - z), x * (y * z - x), x * (z * z - y)]
    gb = buchberger([VectorPoly(R, [g]) for g in gens])
    assert gb.stats["pairs_skipped"] > 0
    expected = {
        x**3 - x * x,
        x * x * y - x * y,
        x * y * y - x * z,
        x * x * z - x * z,
        x * y * z - x * x,
        x * z * z - x * y,
    }
    assert {e.entries[0] for e in gb.elements} == expected
    assert_is_groebner(gb)


def test_basis_is_reduced_and_monic(R):
    rng = random.Random(41)
    for _ in range(20):
        gens = random_generators(rng, R, 2)
        gb = buchberger(gens)
        for k, g in enumerate(gb.elements):
            lead = max(
                ((i, m) for i, e in enumerate(g.entries) for m in e.terms),
                key=gb.order.module_key,
            )
            assert g.entries[lead[0]].terms[lead[1]] == QQ.one_raw
            others = gb.elements[:k] + gb.elements[k + 1 :]
            if others:
                assert normal_form(g, others, gb.order).remainder == g


def test_mixed_component_pair_is_not_skipped(R):
    # classic trap: coprime leading monomials in the same component, but the
    # elements straddle components, so the pair still matters
    x, y = R.variables()
    gens = [VectorPoly(R, [x, R.one()]), VectorPoly(R, [y, R.zero()])]
    gb = buchberger(gens)
    probe = VectorPoly(R, [R.zero(), y])
    assert normal_form(probe, gb.elements).remainder.is_zero()
    assert_is_groebner(gb)


def test_zero_generators_dropped(R):
    zero = VectorPoly(R, [R.zero(), R.zero()])
    gb = buchberger([zero, unit_vector(R, 2, 0)])
    assert len(gb.elements) == 1
    gb_zero = buchberger([zero])
    assert gb_zero.elements == []


def test_resource_limits_raise(R):
    x, y = R.variables()
    gens = [VectorPoly(R, [x * x + y, x]), VectorPoly(R, [x * y + x, y])]
    with pytest.raises(ResourceLimitExceededError):
        buchberger(gens, limits=GroebnerLimits(max_pairs=1, max_degree=40))
    with pytest.raises(ResourceLimitExceededError):
        buchberger(
            [VectorPoly(R, [x**5, y]), VectorPoly(R, [y**5, x])],
            limits=GroebnerLimits(max_pairs=1000, max_degree=3),
        )


_LEX_CASE = """\
from semimod.closure import bilinear_encoding
from semimod.errors import ResourceLimitExceededError
from semimod.fields import QQ
from semimod.groebner import DEFAULT_LIMITS, buchberger
from semimod.poly import OrderSpec, PolyRing, VectorPoly
R = PolyRing(QQ, ("x", "y"))
x, y = R.variables()
f = VectorPoly(R, [x * y + 2 * y * y, x * x + 2 * x])
gens = [VectorPoly(R, [2 * x * x + x, y * y]), VectorPoly(R, [-x * x - x * y, 2 * x * x + 2 * y])]
enc = bilinear_encoding(f, gens)
lex = OrderSpec(scalar="lex", module="top")
"""

# I + <1 - t*h> on the full encoding with the tag appended last, the
# smallest variable under lex
_LEX_TAG_LAST = _LEX_CASE + """\
ext = enc.ring.extended(["t"])
t = ext.variable("t")
ideal = [ext.embed(g) for g in enc.encoded_generators]
ideal.append(ext.one() - t * ext.embed(enc.encoded_query))
try:
    buchberger([VectorPoly(ext, [p]) for p in ideal], lex, DEFAULT_LIMITS)
except ResourceLimitExceededError as exc:
    print(exc)
"""

_LEX_TAG_FIRST = _LEX_CASE + """\
from semimod.closure import _radical_member
verdict = _radical_member(enc.encoded_query, enc.encoded_generators, lex, DEFAULT_LIMITS)
print(verdict.member, verdict.method)
"""


def _run_lex_case(source):
    src = os.path.dirname(os.path.dirname(groebner.__file__))
    done = subprocess.run(
        [sys.executable, "-c", source],
        capture_output=True, text=True, timeout=20, env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_lex_radical_basis_ends_at_the_coefficient_cap():
    # under grevlex this problem is decided in 0.02 s; under lex top the
    # basis of its full encoding's I + <1 - t*h>, with t the last and
    # smallest variable, grows integer coefficients past 10^5 bits inside
    # every pair and degree cap, and once ran for minutes
    out = _run_lex_case(_LEX_TAG_LAST)
    assert out.startswith(f"coefficient cap of {MAX_COEFFICIENT_BITS} bits crossed")


def test_lex_radical_test_with_the_tag_first_decides_the_full_encoding():
    # the radical test puts t first, the largest variable under lex, and
    # decides the same ideal negative in milliseconds (1,326 pairs), far
    # inside the coefficient cap.  semiprime_member never runs it: its grid
    # witness at (0, 1) decides the query first
    assert _run_lex_case(_LEX_TAG_FIRST) == "False radical\n"


def test_lex_case_is_decided_on_its_first_chart():
    # the problem of _LEX_CASE, decided chart by chart as semiprime_member
    # decides a radical row: chart 1 (v1 = 1, v2 = 0) is the radical test of
    # f_1 over the first entries of the generators in Q[x, y], negative
    # after 21 pairs
    R = PolyRing(QQ, ("x", "y"))
    x, y = R.variables()
    f = VectorPoly(R, [x * y + 2 * y * y, x * x + 2 * x])
    gens = [VectorPoly(R, [2 * x * x + x, y * y]),
            VectorPoly(R, [-x * x - x * y, 2 * x * x + 2 * y])]
    enc = closure.bilinear_encoding(f, gens)
    lex = OrderSpec(scalar="lex", module="top")
    verdict = closure._radical_member_by_charts(enc, lex, groebner.DEFAULT_LIMITS)
    assert not verdict.member and verdict.method == "radical"
    assert verdict.stats["pairs_processed"] == 21
    h, chart_gens = enc.chart(1)
    assert h.ring == R and h == f[0] and list(chart_gens) == [g[0] for g in gens]


def test_coefficient_cap_counts_the_bits_of_each_new_element(R, monkeypatch):
    # 1000003/2 and its kin put 20-bit integers into the working elements;
    # over F7 every value stays below 7, so no cap applies
    x, y = R.variables()
    gens = [VectorPoly(R, [x * x + R.const(Fraction(1000003, 2)) * y]),
            VectorPoly(R, [x * y - R.const(3)])]
    monkeypatch.setattr(groebner, "MAX_COEFFICIENT_BITS", 20)
    buchberger(gens)
    monkeypatch.setattr(groebner, "MAX_COEFFICIENT_BITS", 19)
    with pytest.raises(ResourceLimitExceededError, match="coefficient cap of 19 bits"):
        buchberger(gens)
    monkeypatch.setattr(groebner, "MAX_COEFFICIENT_BITS", 0)
    R7 = PolyRing(PrimeField(7), ("x", "y"))
    buchberger([g.map_coefficients(R7.field) for g in gens])


def test_coefficient_cap_bounds_the_reduction_scale(monkeypatch):
    # dividing x^6 by 3x + 1 scales the input by 3 at each of six steps, so
    # the scale is 3^6, 10 bits; over F7 the scale stays 1
    R1 = PolyRing(QQ, ("x",))
    x = R1.variable(0)
    f, g = VectorPoly(R1, [x**6]), VectorPoly(R1, [R1.const(3) * x + R1.one()])
    monkeypatch.setattr(groebner, "MAX_COEFFICIENT_BITS", 9)
    with pytest.raises(ResourceLimitExceededError, match="coefficient cap of 9 bits crossed .10 bits"):
        normal_form(f, [g])
    monkeypatch.setattr(groebner, "MAX_COEFFICIENT_BITS", 10)
    assert normal_form(f, [g]).remainder == VectorPoly(R1, [R1.const(Fraction(1, 729))])
    monkeypatch.setattr(groebner, "MAX_COEFFICIENT_BITS", 0)
    F7 = PrimeField(7)
    normal_form(f.map_coefficients(F7), [g.map_coefficients(F7)])


def test_presentation_caches_a_basis_per_order_and_limits(R):
    # a basis computed under generous caps must not answer a query that a
    # tighter cap would stop on a fresh presentation
    x, y = R.variables()
    gens = [
        VectorPoly(R, [x * x + y, x * y]),
        VectorPoly(R, [x * y, y * y + x]),
        VectorPoly(R, [x * y * y, x + 1]),
    ]
    f = VectorPoly(R, [x, y])
    tight = GroebnerLimits(max_pairs=2)
    with pytest.raises(ResourceLimitExceededError):
        submodule_member(f, SubmodulePresentation(R, 2, gens), limits=tight)
    queried = SubmodulePresentation(R, 2, gens)
    submodule_member(f, queried)
    with pytest.raises(ResourceLimitExceededError):
        submodule_member(f, queried, limits=tight)


def test_determinism(R):
    rng = random.Random(43)
    gens = random_generators(rng, R, 2, count=3)
    gb1 = buchberger(gens)
    gb2 = buchberger(gens)
    assert gb1.elements == gb2.elements


def test_negative_limits_are_rejected():
    for bad in ({"max_pairs": -3}, {"max_degree": -1}):
        with pytest.raises(ValueError, match="must be non-negative"):
            GroebnerLimits(**bad)
    GroebnerLimits(max_pairs=0, max_degree=0)


def test_rational_recipes_hold_integers_until_the_boundary(R):
    # recipe scalars over Q are the integers of fraction-free reduction;
    # only the step scaling a final element by 1/L is a Fraction
    rng = random.Random(103)
    boundary = 0
    for _ in range(10):
        gb = buchberger(random_generators(rng, R, 2, coeffs=RATIONAL_COEFFS))
        for idx, (scale, steps) in enumerate(gb._recipes):
            values = [c for m, _ in steps for c in m.values()]
            if all(type(c) is int for c in values):
                continue
            boundary += 1
            assert idx in gb._final and scale == 1
            assert len(steps) == 1 and list(steps[0][0]) == [0]
            assert type(values[0]) is Fraction
    assert boundary > 0


def pinned_problem(rng, ring, rank):
    """Three rank-``rank`` vectors over k[x, y, z] whose entries have one to
    three terms of degree one to three."""
    gens = []
    for _ in range(3):
        entries = []
        for _ in range(rank):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                exps = [0, 0, 0]
                for _ in range(rng.randint(1, 3)):
                    exps[rng.randrange(3)] += 1
                terms[tuple(exps)] = ring.field.coerce(rng.choice((-3, -2, -1, 1, 2, 3)))
            entries.append(Polynomial(ring, terms))
        gens.append(VectorPoly(ring, entries))
    return gens


# (pairs_processed, pairs_skipped, zero_reductions, basis_size, first 16 hex
# digits of the sha256 of the printed basis), recorded with tuple monomials
PINNED_BASES = {
    ("Q", "grevlex-top", 1): (45, 32, 6, 8, "544086f4486d5b28"),
    ("Q", "grevlex-top", 2): (16, 8, 2, 7, "fb60d9f74a315d3b"),
    ("Q", "grevlex-pot", 1): (45, 32, 6, 8, "544086f4486d5b28"),
    ("Q", "grevlex-pot", 2): (39, 25, 5, 11, "c1aae5bcde98fe1d"),
    ("Q", "lex-top", 1): (28, 22, 1, 5, "9b159d0b9229e5b2"),
    ("Q", "lex-top", 2): (11, 6, 1, 5, "26e0b3b23e0b41cf"),
    ("Q", "lex-pot", 1): (28, 22, 1, 5, "9b159d0b9229e5b2"),
    ("Q", "lex-pot", 2): (58, 39, 8, 9, "dd3dc3a948d803e3"),
    ("F7", "grevlex-top", 1): (45, 32, 6, 8, "532941bf3e72a218"),
    ("F7", "grevlex-top", 2): (16, 8, 2, 7, "9525937248f59a93"),
    ("F7", "grevlex-pot", 1): (45, 32, 6, 8, "532941bf3e72a218"),
    ("F7", "grevlex-pot", 2): (39, 25, 5, 11, "c710816db7d7532d"),
    ("F7", "lex-top", 1): (28, 22, 1, 5, "2175330a97b2112e"),
    ("F7", "lex-top", 2): (11, 6, 1, 5, "191b4fc4edc11985"),
    ("F7", "lex-pot", 1): (28, 22, 1, 5, "2175330a97b2112e"),
    ("F7", "lex-pot", 2): (31, 17, 6, 9, "867f7e6e55aad4bd"),
    ("F101", "grevlex-top", 1): (45, 32, 6, 8, "0dc75d58ff77d21a"),
    ("F101", "grevlex-top", 2): (16, 8, 2, 7, "6533c4ffd06bb860"),
    ("F101", "grevlex-pot", 1): (45, 32, 6, 8, "0dc75d58ff77d21a"),
    ("F101", "grevlex-pot", 2): (39, 25, 5, 11, "f53fd9214c814f71"),
    ("F101", "lex-top", 1): (28, 22, 1, 5, "f5398e888143f2d9"),
    ("F101", "lex-top", 2): (11, 6, 1, 5, "478507b90d44ab39"),
    ("F101", "lex-pot", 1): (28, 22, 1, 5, "f5398e888143f2d9"),
    ("F101", "lex-pot", 2): (58, 39, 8, 9, "216af0a954ff6666"),
    ("F3^2", "grevlex-top", 1): (36, 24, 6, 8, "6e26d1e8ecbba187"),
    ("F3^2", "grevlex-top", 2): (11, 6, 1, 5, "19fa2aa0b70249ab"),
    ("F3^2", "grevlex-pot", 1): (36, 24, 6, 8, "6e26d1e8ecbba187"),
    ("F3^2", "grevlex-pot", 2): (7, 3, 1, 6, "f5f99b0fc5ac07ad"),
    ("F3^2", "lex-top", 1): (21, 16, 1, 4, "1865967f922b545e"),
    ("F3^2", "lex-top", 2): (11, 6, 1, 5, "9a943753168a9109"),
    ("F3^2", "lex-pot", 1): (21, 16, 1, 4, "1865967f922b545e"),
    ("F3^2", "lex-pot", 2): (11, 5, 2, 7, "c41102c01860823f"),
}


@pytest.mark.parametrize("name", ["Q", "F7", "F101", "F3^2"])
def test_pinned_counters_and_bases(name):
    # a changed pair order, criterion or reduction shows here, not only in
    # the traced benchmark
    R3 = PolyRing(QQ if name == "Q" else field_from_name(name), ("x", "y", "z"))
    for order in ORDERS:
        for rank in (1, 2):
            gb = buchberger(pinned_problem(random.Random(11 * rank), R3, rank), order)
            stats = gb.stats
            digest = hashlib.sha256("\n".join(map(str, gb.elements)).encode()).hexdigest()
            got = (stats["pairs_processed"], stats["pairs_skipped"],
                   stats["zero_reductions"], stats["basis_size"], digest[:16])
            assert got == PINNED_BASES[(name, f"{order.scalar}-{order.module}", rank)]


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def test_twisted_pair_membership(R, pair_basis):
    x, y = R.variables()
    N = SubmodulePresentation(R, 2, pair_basis)
    assert not submodule_member(VectorPoly(R, [x, y]), N).member
    verdict = submodule_member(pair_basis[0], N)
    assert verdict.member
    assert [str(c) for c in verdict.certificate] == ["1", "0"]


def test_a_non_member_is_decided_on_the_packed_remainder(monkeypatch):
    # the decision asks whether the reducer's remainder map is empty, so a
    # non-member builds no remainder vector (over Q, no Fractions either)
    R = PolyRing(QQ, ("x", "y"))
    x, y = R.variables()
    N = SubmodulePresentation(R, 2, [VectorPoly(R, [x * x - Fraction(1, 3), y])])
    f = VectorPoly(R, [x, Fraction(2, 5) * y])
    calls = []
    plain = groebner._map_to_vec

    def counted(*args):
        calls.append(args)
        return plain(*args)

    monkeypatch.setattr(groebner, "_map_to_vec", counted)
    assert not submodule_member(f, N).member
    assert calls == []
    # the remainder stays readable, and is the one vector built
    assert not normal_form(f, N.groebner()).remainder.is_zero()
    assert len(calls) == 1


def test_membership_certificates_reproduce(R):
    rng = random.Random(47)
    for _ in range(25):
        gens = random_generators(rng, R, 2)
        N = SubmodulePresentation(R, 2, gens)
        coeffs = [random_vector(rng, R, 1)[0] for _ in gens]
        f = combine(coeffs, gens)
        verdict = submodule_member(f, N)
        assert verdict.member
        assert combine(verdict.certificate, N.generators) == f


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("order", ORDERS, ids=lambda o: f"{o.scalar}-{o.module}")
def test_rational_certificates_recombine_exactly(order, rank):
    R = PolyRing(QQ, ("x", "y"))
    rng = random.Random(101 + rank)
    for _ in range(15):
        gens = random_generators(rng, R, rank, coeffs=RATIONAL_COEFFS)
        coeffs = [random_vector(rng, R, 1, coeffs=RATIONAL_COEFFS)[0] for _ in gens]
        f = combine(coeffs, gens)
        verdict = submodule_member(f, SubmodulePresentation(R, rank, gens), order)
        assert verdict.member
        assert combine(verdict.certificate, gens) == f
        assert all(type(c) is Fraction for q in verdict.certificate for c in q.terms.values())


def test_representations_are_built_only_for_certificates(R, pair_basis, monkeypatch):
    x, y = R.variables()
    gens = [VectorPoly(R, [x * x, x * y]), VectorPoly(R, [x * y, y * y + x])]
    f = combine([y, x + y], gens)
    # the basis has elements made from S-pairs, so the certificate must
    # expand recipes beyond the inputs
    assert len(buchberger(gens).elements) > len(gens)

    def refuse(*args):
        raise AssertionError("a representation was built")

    with monkeypatch.context() as m:
        m.setattr(groebner, "_combine", refuse)
        assert radical_member(x, [x * x, x * y])
        assert not radical_member(y, [x * x])
        # not a direct member, so the verdict comes from the radical test
        verdict = semiprime_member(
            VectorPoly(R, [x, y]), SubmodulePresentation(R, 2, pair_basis)
        )
        assert verdict.member and verdict.method == "radical"
        N = SubmodulePresentation(R, 2, gens)
        assert not submodule_member(VectorPoly(R, [x, y]), N).member
    verdict = submodule_member(f, SubmodulePresentation(R, 2, gens))
    assert verdict.member
    assert combine(verdict.certificate, gens) == f


def test_monic_bases_and_cofactors_are_built_only_when_read(R, pair_basis, monkeypatch):
    # deciding reads the packed divisors; only a positive radical test reads
    # monic elements, those of its one-element unit basis, for its re-check
    x, y = R.variables()
    reads = []
    monic = GroebnerBasis.elements.func

    def counted(gb):
        reads.append(len(gb._divisors))
        return monic(gb)

    def refuse(nf):
        raise AssertionError("normal-form cofactors were built")

    with monkeypatch.context() as m:
        m.setattr(GroebnerBasis, "elements", property(counted))
        m.setattr(NormalFormResult, "cofactors", property(refuse))
        assert not radical_member(y, [x * x])
        assert radical_member(x, [x * x, x * y])
        assert reads and set(reads) == {1}
        reads.clear()
        N = SubmodulePresentation(R, 2, pair_basis)
        verdict = semiprime_member(VectorPoly(R, [x, R.one()]), N)
        assert not verdict.member and verdict.method == "witness"
        # (x^2 - 2)*R^2 vanishes at no rational point, so no grid witness
        # decides this query and the radical test runs
        c = x * x - R.const(2)
        M = SubmodulePresentation(R, 2, [VectorPoly(R, [c, 0]), VectorPoly(R, [0, c])])
        verdict = semiprime_member(VectorPoly(R, [x, R.one()]), M)
        assert not verdict.member and verdict.method == "radical"
        assert not submodule_member(VectorPoly(R, [x, y]), N).member
        assert reads == []


def test_certificates_are_expanded_only_when_read(R, pair_basis, tmp_path, capsys, monkeypatch):
    # refutation checks and matrix rows read only whether a query is a
    # member, so their positive verdicts expand no recipe
    x, y = R.variables()
    N = SubmodulePresentation(R, 2, pair_basis)
    G = PolyMatrix(R, [g.entries for g in pair_basis])

    def refuse(*args):
        raise AssertionError("a certificate was expanded")

    with monkeypatch.context() as m:
        m.setattr(groebner, "_combine", refuse)
        assert semiprime_refutation(N, VectorPoly(R, [x, y])) is not None
        assert weakly_semiprime_refutation(N, x, VectorPoly(R, [x, y])) is None
        verdict = matrix_semiprime_member(G, [G])
        assert verdict.member and verdict.method == "cofactor"
        verdict = submodule_member(pair_basis[0], N)
        assert verdict.member
        with pytest.raises(AssertionError, match="certificate was expanded"):
            verdict.certificate
    # a member report still prints a certificate, and it recombines
    path = tmp_path / "member.sm"
    path.write_text("ring Q[x, y];\nvec g1 = [x^2, x*y];\nvec g2 = [x*y, y^2];\n"
                    "vec f = [x^3 + x*y, x^2*y + y^2];\nquery member f in {g1, g2};")
    assert main(["member", str(path)]) == 0
    cofactors = json.loads(capsys.readouterr().out)["certificate"]["cofactors"]
    f = VectorPoly(R, [x**3 + x * y, x * x * y + y * y])
    assert combine([parse_polynomial(c, R) for c in cofactors], pair_basis) == f


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: f"{o.scalar}-{o.module}")
def test_lazy_elements_are_the_monic_divisors(R, order):
    rng = random.Random(109)
    for _ in range(10):
        gb = buchberger(random_generators(rng, R, 2, coeffs=RATIONAL_COEFFS), order)
        assert "elements" not in vars(gb)
        pk, expected = gb._packing, []
        for _, lc, m in gb._divisors:
            entries = [dict() for _ in range(gb.rank)]
            for key, c in m.items():
                entries[pk.comp(key)][pk.exps(key)] = Fraction(c, lc)
            expected.append(VectorPoly(R, [Polynomial(R, e) for e in entries]))
        assert gb.elements == expected
        assert gb.elements is gb.elements  # built once
        for g in gb.elements:
            values = [c for e in g.entries for c in e.terms.values()]
            assert all(type(c) is Fraction for c in values)
            lead = max(((comp, exps) for comp, e in enumerate(g.entries) for exps in e.terms),
                       key=order.module_key)
            assert g.entries[lead[0]].terms[lead[1]] == 1


def fraction_combine(recipe, reps, nin):
    """Certificate expansion as it was before integer maps: scale * sum of
    c * reps[k] over a recipe, in Fraction arithmetic throughout."""
    scale, steps = recipe
    out = [dict() for _ in range(nin)]
    for c, k in steps:
        for dst, src in zip(out, reps[k]):
            for m1, c1 in c.items():
                for m2, c2 in src.items():
                    m = mono_mul(m1, m2)
                    dst[m] = dst.get(m, 0) + Fraction(c1) * c2
    return [{m: scale * v for m, v in d.items() if v} for d in out]


def fraction_reps(gb):
    """Per element, its Fraction combination of the inputs."""
    nin, pk, zero = len(gb.inputs), gb._packing, gb.ring._zero_exps
    work = [[{zero: Fraction(1)} if jj == j else {} for jj in range(nin)] for j in range(nin)]
    work += [None] * (len(gb._recipes) - nin)
    for idx, (scale, steps) in enumerate(gb._recipes):
        steps = [({pk.exps(t): c for t, c in m.items()}, k) for m, k in steps]
        work[idx] = fraction_combine((scale, steps), work, nin)
    return [work[k] for k in gb._final]


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("order", ORDERS, ids=lambda o: f"{o.scalar}-{o.module}")
def test_integer_certificate_expansion_matches_fractions(order, rank):
    R = PolyRing(QQ, ("x", "y"))
    rng = random.Random(113 + rank)
    boundary = 0
    for _ in range(8):
        gens = random_generators(rng, R, rank, coeffs=RATIONAL_COEFFS)
        gb = buchberger(gens, order)
        boundary += sum(
            type(c) is Fraction for k in gb._final for c in gb._recipes[k][1][0][0].values()
        )
        reference = fraction_reps(gb)
        reps = input_reps(gb)
        assert reps == [[Polynomial(R, m) for m in rep] for rep in reference]
        cofactors = [random_vector(rng, R, 1, coeffs=RATIONAL_COEFFS)[0] for _ in gb.elements]
        certificate = gb.certificate(cofactors)
        steps = [(q.terms, k) for k, q in enumerate(cofactors)]
        expected = fraction_combine((1, steps), reference, len(gb.inputs))
        assert certificate == [Polynomial(R, m) for m in expected]
        values = [c for rep in reps for q in rep + certificate for c in q.terms.values()]
        assert values and all(type(c) is Fraction for c in values)
    # elements whose recipe ends in the 1/lc step were among them
    assert boundary > 0


def test_membership_invariances(R):
    rng = random.Random(53)
    for _ in range(10):
        gens = random_generators(rng, R, 2, count=2)
        f = random_vector(rng, R, 2)
        base = submodule_member(f, SubmodulePresentation(R, 2, gens)).member
        permuted = submodule_member(
            f, SubmodulePresentation(R, 2, list(reversed(gens)))
        ).member
        scaled = submodule_member(
            f, SubmodulePresentation(R, 2, [g.entries[0].ring.const(3) * g for g in gens])
        ).member
        assert base == permuted == scaled


def test_zero_vector_is_member_everywhere(R):
    zero = VectorPoly(R, [R.zero(), R.zero()])
    assert submodule_member(zero, SubmodulePresentation(R, 2)).member
    assert submodule_member(zero, SubmodulePresentation.unit(R, 2)).member


def test_unit_submodule_contains_everything(R):
    rng = random.Random(59)
    N = SubmodulePresentation.unit(R, 2)
    for _ in range(10):
        assert submodule_member(random_vector(rng, R, 2), N).member


def test_top_and_pot_verdicts_agree(R):
    rng = random.Random(61)
    for _ in range(20):
        gens = random_generators(rng, R, 2)
        f = random_vector(rng, R, 2)
        top = submodule_member(f, SubmodulePresentation(R, 2, gens)).member
        pot = submodule_member(f, SubmodulePresentation(R, 2, gens), POT).member
        assert top == pot


# ---------------------------------------------------------------------------
# ideals (rank 1)
# ---------------------------------------------------------------------------

def test_ideal_membership_examples(R):
    x, y = R.variables()
    # every element of (x^2, xy) vanishes to order >= 2 at the origin
    assert not ideal_member(x, [x * x, x * y]).member
    assert ideal_member(x**3, [x * x]).member
    assert ideal_member(R.one(), [x, R.one() - x]).member


def test_known_lex_basis():
    # frozen from an independent computer algebra system:
    # lex basis of (x^2 + 2xy^2, xy + 2y^3 - 1) is {x, y^3 - 1/2}
    from fractions import Fraction

    lex = OrderSpec(scalar="lex")
    R = PolyRing(QQ, ("x", "y"))
    x, y = R.variables()
    f = x**2 + (x * y * y).scale(2)
    g = x * y + (y**3).scale(2) - R.one()
    gb = buchberger([VectorPoly(R, [p]) for p in (f, g)], lex)
    expected = {x, y**3 - R.const(Fraction(1, 2))}
    assert {e.entries[0] for e in gb.elements} == expected


def test_known_graded_basis():
    # graded basis of (x^3 - 2xy, x^2 y + x - 2y^2) is {x^2, xy, y^2 - x/2}
    from fractions import Fraction

    R = PolyRing(QQ, ("x", "y"))
    x, y = R.variables()
    f = x**3 - (x * y).scale(2)
    g = x * x * y + x - (y * y).scale(2)
    gb = buchberger([VectorPoly(R, [p]) for p in (f, g)])
    expected = {x * x, x * y, y * y - x.scale(Fraction(1, 2))}
    assert {e.entries[0] for e in gb.elements} == expected


def test_ideal_membership_over_f5():
    R5 = PolyRing(PrimeField(5), ("x", "y"))
    x, y = R5.variables()
    assert ideal_member(x * y + x, [x]).member
    assert not ideal_member(y, [x]).member
