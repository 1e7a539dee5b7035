import random
from fractions import Fraction

import pytest

from semimod.errors import (
    DivisionByZeroError,
    InfiniteFieldError,
    MismatchedFieldError,
)
from semimod.fields import (
    QQ,
    PrimeField,
    QuadraticField,
    _irreducible_quadratic,
    field_from_flag,
    field_from_name,
    quadratic_modulus,
)


def test_rational_addition():
    # 1/2 + 1/3 = 5/6
    assert QQ.element(Fraction(1, 2)) + QQ.element(Fraction(1, 3)) == QQ.element(Fraction(5, 6))


def test_prime_inverse():
    F5 = PrimeField(5)
    assert F5.element(2).inverse() == F5.element(3)


def test_rational_inverse_is_an_exact_fraction():
    for value in (3, Fraction(3), Fraction(-2, 7)):
        inverse = QQ.inv(value)
        assert type(inverse) is Fraction
        assert inverse * value == 1
    assert QQ.inv(3) == Fraction(1, 3)
    assert QQ.div(Fraction(1), 3) == Fraction(1, 3)
    with pytest.raises(DivisionByZeroError):
        QQ.inv(0)


def test_inverse_of_zero_raises():
    with pytest.raises(DivisionByZeroError):
        QQ.element(0).inverse()
    with pytest.raises(DivisionByZeroError):
        PrimeField(5).element(0).inverse()
    with pytest.raises(DivisionByZeroError):
        QuadraticField(3).element((0, 0)).inverse()


def test_enumerate_prime_field():
    F3 = PrimeField(3)
    elems = list(F3.elements())
    assert len(elems) == 3
    assert elems == [0, 1, 2]


def test_enumerate_quadratic_extension_of_f2():
    F4 = QuadraticField(2)
    elems = list(F4.elements())
    assert len(elems) == 4
    assert len(set(elems)) == 4


def test_enumerate_rationals_raises():
    with pytest.raises(InfiniteFieldError):
        list(QQ.elements())


def test_mismatched_fields_raise():
    with pytest.raises(MismatchedFieldError):
        PrimeField(3).element(1) + PrimeField(5).element(1)


@pytest.mark.parametrize(
    "field",
    [QQ, PrimeField(2), PrimeField(5), PrimeField(7), QuadraticField(3)],
    ids=repr,
)
def test_field_axioms_on_random_triples(field):
    rng = random.Random(7)

    def pick():
        if field is QQ:
            return QQ.element(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        return field.element(rng.randrange(field.size))

    # QuadraticField elements need two coordinates
    def pick_elem():
        if isinstance(field, QuadraticField):
            return field.element((rng.randrange(field.p), rng.randrange(field.p)))
        return pick()

    for _ in range(60):
        a, b, c = pick_elem(), pick_elem(), pick_elem()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a + field.zero == a
        assert a * field.one == a
        if a:
            assert a * a.inverse() == field.one


@pytest.mark.parametrize(
    "field", [QQ, PrimeField(5), QuadraticField(3)], ids=repr
)
def test_canonical_zero(field):
    rng = random.Random(3)
    for _ in range(30):
        if isinstance(field, QuadraticField):
            a = field.element((rng.randrange(field.p), rng.randrange(field.p)))
        elif field is QQ:
            a = field.element(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        else:
            a = field.element(rng.randrange(field.size))
        total = a + (-a)
        assert total.value == field.zero_raw
        assert hash(total) == hash(field.zero)


# F4's modulus, t^2 + t + 1, is the one with a linear term (b != 0)
KERNEL_FIELDS = [
    QQ,
    PrimeField(2),
    PrimeField(3),
    PrimeField(2**31 - 1),
    QuadraticField(2),
    QuadraticField(3),
    QuadraticField(5),
]


def _raw(field, rng):
    """A random raw value, zero one time in five."""
    if rng.random() < 0.2:
        return field.zero_raw
    if field is QQ:
        return Fraction(rng.randint(-99, 99), rng.randint(1, 99))
    if isinstance(field, QuadraticField):
        return (rng.randrange(field.p), rng.randrange(field.p))
    return rng.randrange(field.p)


def plain_horner(field, coeffs, x):
    value = field.zero_raw
    for c in reversed(coeffs):
        value = field.add(field.mul(value, x), c)
    return value


def plain_eliminate(field, lead, row, c, prow):
    return [
        field.add(field.mul(lead, a), field.neg(field.mul(c, b)))
        for a, b in zip(row, prow)
    ]


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_kernels_agree_with_plain_arithmetic(field):
    # the scan's horner and eliminate against add and mul, on lists of
    # every length from empty up, with zero leads, points and entries
    rng = random.Random(f"kernels:{field!r}")
    for length in list(range(8)) * 25 + [40]:
        coeffs = [_raw(field, rng) for _ in range(length)]
        x = _raw(field, rng)
        assert field.horner(coeffs, x) == plain_horner(field, coeffs, x)
        row = [_raw(field, rng) for _ in range(length)]
        prow = [_raw(field, rng) for _ in range(length)]
        lead, c = _raw(field, rng), _raw(field, rng)
        assert field.eliminate(lead, row, c, prow) == plain_eliminate(
            field, lead, row, c, prow
        )
        assert field.eliminate(field.zero_raw, row, c, prow) == plain_eliminate(
            field, field.zero_raw, row, c, prow
        )
    # x is not read when there is at most one coefficient
    assert field.horner([], None) == field.zero_raw
    assert field.horner([field.one_raw], None) == field.one_raw


def _with_roots(field, roots, lead):
    """Coefficients, lowest degree first, of lead * prod (x - r), by plain
    arithmetic."""
    coeffs = [lead]
    for r in roots:
        shifted = [field.zero_raw] + coeffs
        coeffs = [
            field.add(a, field.neg(field.mul(r, b)))
            for a, b in zip(shifted, coeffs + [field.zero_raw])
        ]
    return coeffs


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_roots_among_agrees_with_horner_point_by_point(field):
    # the batched kernel of a line against one Horner value per point, on
    # lists of zero and one coefficients too, with roots among the points
    rng = random.Random(f"roots:{field!r}")
    for length in list(range(6)) * 30:
        if length and rng.random() < 0.5:
            roots = [_raw(field, rng) for _ in range(length - 1)]
            coeffs = _with_roots(field, roots, _raw(field, rng))
        else:
            roots, coeffs = [], [_raw(field, rng) for _ in range(length)]
        xs = roots + [_raw(field, rng) for _ in range(rng.randint(0, 6))]
        rng.shuffle(xs)
        expected = [
            j for j, x in enumerate(xs) if field.is_zero(plain_horner(field, coeffs, x))
        ]
        assert field.roots_among(coeffs, xs) == expected
    # no x is read when there is at most one coefficient
    assert field.roots_among([], [None, None]) == [0, 1]
    assert field.roots_among([field.zero_raw], [None]) == [0]
    assert field.roots_among([field.one_raw], [None, None]) == []


@pytest.mark.parametrize("p", [2, 3, 5])
def test_quadratic_extension_satisfies_frobenius(p):
    field = QuadraticField(p)
    elems = [field.element(v) for v in field.elements()]
    assert len(elems) == p * p
    assert len(set(elems)) == p * p
    for e in elems:
        assert e ** (p * p) == e


def test_quadratic_modulus_is_smallest():
    # exhaustively verified smallest irreducible monic quadratics
    assert quadratic_modulus(2) == (1, 1)  # t^2 + t + 1
    assert quadratic_modulus(3) == (0, 1)  # t^2 + 1


def _exhaustive_quadratic_modulus(p):
    # reference: the smallest (b, c) such that t^2 + b*t + c has no root,
    # found by trying every root
    for b in range(p):
        for c in range(p):
            if all((a * a + b * a + c) % p for a in range(p)):
                return (b, c)
    return None


def test_quadratic_modulus_matches_exhaustive_search():
    primes = [p for p in range(2, 300) if all(p % d for d in range(2, p))]
    assert len(primes) == 62
    for p in primes:
        assert quadratic_modulus(p) == _exhaustive_quadratic_modulus(p), p


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_modulus_check_matches_root_search(p):
    for b in range(p):
        for c in range(p):
            has_root = any((a * a + b * a + c) % p == 0 for a in range(p))
            assert _irreducible_quadratic(p, b, c) == (not has_root), (b, c)


def test_nonprime_rejected():
    with pytest.raises(ValueError):
        PrimeField(6)


def test_field_names():
    assert field_from_name("Q") is QQ or field_from_name("Q") == QQ
    assert field_from_name("F7") == PrimeField(7)
    assert field_from_name("F3^2") == QuadraticField(3)
    assert field_from_flag("3") == PrimeField(3)
    assert field_from_flag("3^2") == QuadraticField(3)


def test_extension_scalar_formatting():
    F9 = QuadraticField(3)
    assert str(F9.element((0, 0))) == "0"
    assert str(F9.element((2, 0))) == "2"
    assert str(F9.element((0, 1))) == "t"
    assert str(F9.element((1, 2))) == "1+2*t"


def test_negative_field_negation():
    assert -QQ.element(Fraction(3, 4)) == QQ.element(Fraction(-3, 4))
    assert QQ.element(2) * QQ.element(Fraction(1, 2)) == QQ.one
