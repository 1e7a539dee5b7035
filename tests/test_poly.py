import random
from fractions import Fraction

import pytest

from conftest import random_polynomial, random_vector

import semimod.closure
from semimod.closure import bilinear_encoding
from semimod.errors import (
    DimensionMismatchError,
    MismatchedFieldError,
    MismatchedRingError,
)
from semimod.fields import QQ, PrimeField, QuadraticField
from semimod.groebner import DEFAULT_LIMITS, buchberger
from semimod.poly import (
    DEFAULT_ORDER,
    LEX,
    OrderSpec,
    PolyMatrix,
    PolyRing,
    VectorPoly,
    identity_matrix,
    unit_vector,
)


def test_product_of_sum_and_difference(R):
    x, y = R.variables()
    assert (x + y) * (x - y) == x * x - y * y


def test_add_zero_is_identity(R):
    rng = random.Random(1)
    f = random_polynomial(rng, R)
    assert f + R.zero() == f


def test_monomial_product(R):
    x, y = R.variables()
    assert (x**2) * (x * y) == x**3 * y


def test_ring_axioms_random(R):
    rng = random.Random(5)
    for _ in range(40):
        f = random_polynomial(rng, R)
        g = random_polynomial(rng, R)
        h = random_polynomial(rng, R)
        assert (f + g) * h == f * h + g * h
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f - f == R.zero()


def test_evaluate_simple(R):
    x, y = R.variables()
    f = x * x + y
    assert f.evaluate((1, 2)) == QQ.element(3)


def test_evaluate_vector():
    # direct-substitution oracle: g = (x^2, xy) at (1, 2) gives (1, 2)
    R = PolyRing(QQ, ("x", "y"))
    x, y = R.variables()
    g = VectorPoly(R, [x * x, x * y])
    assert g.evaluate((1, 2)) == (QQ.element(1), QQ.element(2))


def test_evaluate_matrix_at_origin():
    R = PolyRing(QQ, ("x",))
    x = R.variable(0)
    m = PolyMatrix(R, [[x, R.zero()], [R.zero(), x]])
    values = m.evaluate((0,))
    assert all(v == QQ.zero for row in values for v in row)


def test_evaluate_is_ring_homomorphism(R):
    rng = random.Random(11)
    for _ in range(25):
        f = random_polynomial(rng, R)
        g = random_polynomial(rng, R)
        a = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        assert (f * g).evaluate(a) == f.evaluate(a) * g.evaluate(a)
        assert (f + g).evaluate(a) == f.evaluate(a) + g.evaluate(a)


def test_evaluate_wrong_dimension(R):
    x, _ = R.variables()
    with pytest.raises(DimensionMismatchError):
        x.evaluate((1,))


def test_dot_definition(R):
    ext = R.extended(["v1", "v2"])
    x, y, v1, v2 = ext.variables()
    f = VectorPoly(ext, [x * x, x * y])
    vblock = VectorPoly(ext, [v1, v2])
    assert f.dot(vblock) == x * x * v1 + x * y * v2


def test_dot_unit_vector(R):
    ext = R.extended(["v1", "v2"])
    _, _, v1, v2 = ext.variables()
    e1 = unit_vector(ext, 2, 0)
    assert e1.dot(VectorPoly(ext, [v1, v2])) == v1


def test_dot_orthogonal(R):
    x, y = R.variables()
    assert VectorPoly(R, [x, y]).dot(VectorPoly(R, [y, -x])) == R.zero()


def test_dot_is_bilinear(R):
    rng = random.Random(13)
    for _ in range(20):
        f = random_vector(rng, R, 3)
        fp = random_vector(rng, R, 3)
        v = random_vector(rng, R, 3)
        assert (f + fp).dot(v) == f.dot(v) + fp.dot(v)


def test_mismatched_rings_raise(R):
    other = PolyRing(QQ, ("z",))
    with pytest.raises(MismatchedRingError):
        R.variable(0) + other.variable(0)


def test_grevlex_compare():
    # same degree: x^2*y beats x*y^2
    key = DEFAULT_ORDER.mono_key
    assert key((2, 1)) > key((1, 2))
    assert key((1, 2)) < key((2, 1))
    assert key((1, 1)) == key((1, 1))


def test_lex_compare():
    key = OrderSpec(scalar=LEX).mono_key
    assert key((1, 0)) > key((0, 5))


def test_top_module_compare():
    key = DEFAULT_ORDER.module_key
    # degree first: y^2 e_1 beats x e_2
    assert key((0, (0, 2))) > key((1, (1, 0)))
    # equal monomials: lower component wins
    assert key((0, (1, 0))) > key((1, (1, 0)))
    assert key((0, (1, 0))) == key((0, (1, 0)))


def test_pot_module_compare():
    key = OrderSpec(module="pot").module_key
    # position first, regardless of degree
    assert key((0, (0, 0))) > key((1, (5, 5)))


def test_order_keys_are_multiplicative(R):
    rng = random.Random(17)
    key = DEFAULT_ORDER.mono_key
    for _ in range(100):
        a = (rng.randint(0, 4), rng.randint(0, 4))
        b = (rng.randint(0, 4), rng.randint(0, 4))
        t = (rng.randint(0, 4), rng.randint(0, 4))
        if key(a) < key(b):
            ta = tuple(u + v for u, v in zip(t, a))
            tb = tuple(u + v for u, v in zip(t, b))
            assert key(ta) < key(tb)


def test_leading_monomial_of_product(R):
    rng = random.Random(19)
    for _ in range(30):
        f = random_polynomial(rng, R)
        g = random_polynomial(rng, R)
        lm_fg, lm_f, lm_g = (max(h.terms, key=DEFAULT_ORDER.mono_key) for h in (f * g, f, g))
        assert lm_fg == tuple(a + b for a, b in zip(lm_f, lm_g))


def test_matrix_vector_product(R):
    x, y = R.variables()
    m = PolyMatrix(R, [[x, R.zero()], [R.zero(), y]])
    v = VectorPoly(R, [R.one(), R.one()])
    assert m @ v == VectorPoly(R, [x, y])
    assert identity_matrix(R, 2) @ m == m


def test_matrix_products_match_a_triple_loop():
    rng = random.Random(189)
    for field in (QQ, PrimeField(5)):
        ring = PolyRing(field, ("x", "y"))
        for _ in range(20):
            n = rng.randint(1, 3)
            a, b = (
                PolyMatrix(ring, [random_vector(rng, ring, n).entries for _ in range(n)])
                for _ in range(2)
            )
            v = random_vector(rng, ring, n)
            ab = [[ring.zero()] * n for _ in range(n)]
            av = [ring.zero()] * n
            for i in range(n):
                for k in range(n):
                    for j in range(n):
                        ab[i][j] = ab[i][j] + a.rows[i][k] * b.rows[k][j]
                    av[i] = av[i] + a.rows[i][k] * v[k]
            assert a @ b == PolyMatrix(ring, ab)
            assert a @ v == VectorPoly(ring, av)
            assert (a @ b) @ v == a @ (b @ v)


def test_dot_takes_only_a_vector(R):
    x, y = R.variables()
    with pytest.raises(TypeError):
        VectorPoly(R, [x, y]).dot([1, 2])


def test_matrix_requires_square(R):
    with pytest.raises(DimensionMismatchError):
        PolyMatrix(R, [[R.one(), R.zero()]])


def test_matrix_constructor_checks_vector_rows_alike(R):
    x, y = R.variables()
    other = PolyRing(QQ, ("z",))
    with pytest.raises(DimensionMismatchError):
        PolyMatrix(R, [VectorPoly(R, [x, y])])
    with pytest.raises(DimensionMismatchError):
        PolyMatrix(R, [])
    with pytest.raises(MismatchedRingError):
        PolyMatrix(R, [VectorPoly(other, [other.one()])])
    with pytest.raises(MismatchedRingError):
        PolyMatrix(R, [[other.one()]])


def test_matrix_rows_are_vectors_and_operations_act_row_by_row():
    rng = random.Random(227)
    for field in (QQ, PrimeField(5)):
        ring = PolyRing(field, ("x", "y"))
        for _ in range(20):
            n = rng.randint(1, 3)
            ra, rb = ([random_vector(rng, ring, n) for _ in range(n)] for _ in range(2))
            # entry sequences and vector rows build the same matrix
            a = PolyMatrix(ring, [row.entries for row in ra])
            b = PolyMatrix(ring, rb)
            assert a == PolyMatrix(ring, ra)
            assert all(isinstance(row, VectorPoly) for row in a.rows + b.rows)
            assert a.rows == tuple(ra)
            r = random_polynomial(rng, ring)
            v = random_vector(rng, ring, n)
            assert (a + b).rows == tuple(p + q for p, q in zip(ra, rb))
            assert (a - b).rows == tuple(p - q for p, q in zip(ra, rb))
            assert (r * a).rows == tuple(r * p for p in ra)
            assert (3 * a).rows == tuple(3 * p for p in ra)
            assert (a @ v).entries == tuple(p.dot(v) for p in ra)
            assert a.is_zero() == all(p.is_zero() for p in ra)
            assert str(a) == "[" + ", ".join(str(p) for p in ra) + "]"


def test_printer_descending_grevlex(R):
    x, y = R.variables()
    f = y + x * x + R.const(Fraction(1, 2)) * x * y - R.one()
    assert str(f) == "x^2 + 1/2*x*y + y - 1"
    assert str(R.zero()) == "0"
    assert str(-x) == "-x"


def test_printer_finite_field():
    F3 = PolyRing(PrimeField(3), ("x",))
    x = F3.variable(0)
    assert str(x.scale(2) + F3.one()) == "2*x + 1"


def test_printer_quadratic_coefficients():
    ring = PolyRing(QuadraticField(3), ("x",))
    x = ring.variable(0)
    f = x.scale((1, 2)) + ring.const((0, 1))
    assert str(f) == "(1+2*t)*x + t"


def test_linear_block_and_tag_rings(R):
    ext = R.extended(["v1", "v2"])
    assert ext.names == ("x", "y", "v1", "v2")
    assert ext.nx == 2
    assert ext == PolyRing(QQ, ("x", "y", "v1", "v2"), nx=2)
    assert hash(ext) == hash(PolyRing(QQ, ("x", "y", "v1", "v2"), nx=2))
    assert ext != PolyRing(QQ, ("x", "y", "v1", "v2"))
    tagged = ext.extended(["t"])
    assert tagged.names == ("x", "y", "v1", "v2", "t") and tagged.nx == 2
    # a base taken by the ring, or earlier in the same call, gets "_"s
    clash = PolyRing(QQ, ("t", "v1"))
    assert clash.extended(["v1"]).names == ("t", "v1", "v1_")
    assert clash.extended(["v1"]).extended(["t"]).names == ("t", "v1", "v1_", "t_")
    assert R.extended(["v", "v", "v"]).names == ("x", "y", "v", "v_", "v__")
    for nx in (-1, 3):
        with pytest.raises(ValueError):
            PolyRing(QQ, ("x", "y"), nx=nx)


def test_encoding_rings_are_named_x_v_t(monkeypatch):
    # the ring the radical test of a bilinear encoding computes its basis
    # in: the tag first, with no x-block, then the encoding ring's variables
    rings = []

    def recording_buchberger(gens, order, limits):
        rings.append(gens[0].ring)
        return buchberger(gens, order, limits)

    monkeypatch.setattr(semimod.groebner, "buchberger", recording_buchberger)
    for names, expected in (
        (("x", "y"), ("t", "x", "y", "v1", "v2")),
        (("t", "v1"), ("t_", "t", "v1", "v1_", "v2")),
        (("t", "t_"), ("t__", "t", "t_", "v1", "v2")),
    ):
        ring = PolyRing(QQ, names)
        f = VectorPoly(ring, ring.variables())
        enc = bilinear_encoding(f, [f])
        assert enc.ring == PolyRing(QQ, expected[1:], nx=2)
        semimod.closure._radical_member(
            enc.encoded_query, enc.encoded_generators, DEFAULT_ORDER, DEFAULT_LIMITS
        )
        assert rings.pop() == PolyRing(QQ, expected, nx=0)


def test_embedding_preserves_arithmetic(R):
    rng = random.Random(23)
    ext = R.extended(["v1", "v2"])
    for _ in range(10):
        f = random_polynomial(rng, R)
        g = random_polynomial(rng, R)
        assert ext.embed(f * g) == ext.embed(f) * ext.embed(g)
        assert ext.embed(f + g) == ext.embed(f) + ext.embed(g)


def test_coefficient_transport():
    R = PolyRing(QQ, ("x",))
    x = R.variable(0)
    f = x.scale(Fraction(1, 2)) + R.const(4)
    g = f.map_coefficients(PrimeField(3))
    # 1/2 = 2 mod 3, 4 = 1 mod 3
    assert str(g) == "2*x + 1"


def test_coefficient_transport_keeps_the_characteristic():
    f = PolyRing(PrimeField(3), ("x",)).variable(0) + 2
    assert str(f.map_coefficients(QuadraticField(3))) == "x + 2"
    for target in (PrimeField(5), QuadraticField(5), QQ):
        with pytest.raises(MismatchedFieldError):
            f.map_coefficients(target)
    with pytest.raises(MismatchedFieldError):
        f.map_coefficients(QuadraticField(3)).map_coefficients(PrimeField(3))
