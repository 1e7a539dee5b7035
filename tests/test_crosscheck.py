"""Cross-validation of the basis engine against an independent system.

The reduced monic basis of an ideal is unique for a fixed order, so exact
comparison with sympy is a strong end-to-end check.  Module membership is
cross-checked through an independent encoding: working in R[e_1..e_n] with
all products e_i*e_j adjoined to the ideal, a vector f lies in the
submodule generated by g_1..g_m iff f.e lies in the ideal generated by the
g_k.e and the e_i*e_j (match the degree-1 parts in e of any representation).
"""

import random
from fractions import Fraction

import pytest

from conftest import random_generators, random_polynomial, random_vector

sympy = pytest.importorskip("sympy")

from semimod.fields import QQ
from semimod.groebner import OrderSpec, SubmodulePresentation, buchberger, submodule_member
from semimod.poly import PolyRing, VectorPoly


def to_sympy(poly, syms):
    expr = sympy.Integer(0)
    for exps, c in poly.terms.items():
        term = sympy.Rational(c)
        for s, e in zip(syms, exps):
            if e:
                term *= s**e
        expr += term
    return expr


def assert_ideal_bases_match_sympy(rng, order_name, coeffs, count):
    R = PolyRing(QQ, ("x", "y"))
    syms = sympy.symbols("x y")
    order = OrderSpec(scalar=order_name)
    for _ in range(count):
        gens = [
            random_polynomial(rng, R, max_degree=3, max_terms=3, coeffs=coeffs)
            for _ in range(rng.randint(1, 3))
        ]
        mine = buchberger([VectorPoly(R, [g]) for g in gens], order)

        def monic(expr):
            # sympy emits primitive integer coefficients; compare monic forms
            return sympy.expand(expr / sympy.LC(expr, *syms, order=order_name))

        ours = sorted(
            (monic(to_sympy(e.entries[0], syms)) for e in mine.elements),
            key=sympy.default_sort_key,
        )
        theirs = sorted(
            (monic(g.as_expr()) for g in sympy.groebner(
                [to_sympy(g, syms) for g in gens], *syms, order=order_name
            ).polys),
            key=sympy.default_sort_key,
        )
        assert len(ours) == len(theirs)
        for a, b in zip(ours, theirs):
            assert sympy.expand(a - b) == 0


@pytest.mark.parametrize("order_name", ["grevlex", "lex"])
def test_ideal_bases_match_sympy(order_name):
    assert_ideal_bases_match_sympy(random.Random(211), order_name, (-2, -1, 1, 2), 25)


@pytest.mark.parametrize("order_name", ["grevlex", "lex"])
def test_rational_ideal_bases_match_sympy(order_name):
    # denominators, a large prime numerator and non-unit leads exercise the
    # integer reduction and the monic boundary
    coeffs = (Fraction(7, 3), Fraction(-12, 5), Fraction(1000003, 2), 3, -4)
    assert_ideal_bases_match_sympy(random.Random(227), order_name, coeffs, 20)


def test_module_membership_matches_sympy_encoding():
    rng = random.Random(223)
    R = PolyRing(QQ, ("x", "y"))
    xy = sympy.symbols("x y")
    for _ in range(20):
        n = rng.randint(1, 3)
        es = sympy.symbols(f"e1:{n + 1}")
        gens = random_generators(rng, R, n)
        if rng.random() < 0.5:
            f = random_vector(rng, R, n)
        else:
            coeffs = [random_polynomial(rng, R, max_degree=1) for _ in gens]
            total = None
            for c, g in zip(coeffs, gens):
                piece = c * g
                total = piece if total is None else total + piece
            f = total
        ideal = [
            sum(to_sympy(entry, xy) * e for entry, e in zip(g.entries, es))
            for g in gens
        ]
        ideal += [es[i] * es[j] for i in range(n) for j in range(i, n)]
        query = sum(to_sympy(entry, xy) * e for entry, e in zip(f.entries, es))
        gb = sympy.groebner(ideal, *xy, *es, order="grevlex")
        _, remainder = sympy.reduced(query, gb.exprs, *xy, *es, order="grevlex")
        sympy_member = sympy.expand(remainder) == 0
        mine = submodule_member(f, SubmodulePresentation(R, n, gens)).member
        assert mine == sympy_member
