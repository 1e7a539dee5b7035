import random
from fractions import Fraction

from semimod.fields import QQ, PrimeField
from semimod.linalg import kernel_basis, row_space_basis, rref


def F(a, b=1):
    return Fraction(a, b)


def test_kernel_of_identity_is_empty():
    rows = [[F(1), F(0)], [F(0), F(1)]]
    assert kernel_basis(rows, 2, QQ) == []


def test_kernel_of_zero_matrix_is_full():
    rows = [[F(0), F(0)], [F(0), F(0)]]
    basis = kernel_basis(rows, 2, QQ)
    assert basis == [(F(1), F(0)), (F(0), F(1))]


def test_kernel_of_rank_one_matrix():
    rows = [[F(1), F(2)], [F(2), F(4)]]
    assert kernel_basis(rows, 2, QQ) == [(F(-2), F(1))]


def test_kernel_with_no_rows():
    assert kernel_basis([], 3, QQ) == [
        (F(1), F(0), F(0)),
        (F(0), F(1), F(0)),
        (F(0), F(0), F(1)),
    ]


def test_kernel_vectors_annihilate(someseed=71):
    rng = random.Random(someseed)
    for field in (QQ, PrimeField(5)):
        for _ in range(40):
            nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
            rows = [
                [field.coerce(rng.randint(-3, 3)) for _ in range(ncols)]
                for _ in range(nrows)
            ]
            basis = kernel_basis(rows, ncols, field)
            _, pivots = rref(rows, field)
            assert len(basis) == ncols - len(pivots)
            for v in basis:
                for row in rows:
                    s = field.zero_raw
                    for a, b in zip(row, v):
                        s = field.add(s, field.mul(a, b))
                    assert field.is_zero(s)


def test_row_space_basis_is_canonical():
    rows = [[F(2), F(4)], [F(1), F(2)], [F(0), F(0)]]
    assert row_space_basis(rows, QQ) == [(F(1), F(2))]


def _normalized(vec, field):
    """``field.normalize`` of a constant vector, led by its first nonzero
    entry, as the prime closure scales its span vectors."""
    lead = next(c for c in vec if not field.is_zero(c))
    scaled, _ = field.normalize(dict(enumerate(vec)), lead)
    return tuple(scaled.values())


def test_primitive_scale_clears_denominators():
    assert _normalized((F(1, 2), F(1)), QQ) == (F(1), F(2))
    assert _normalized((F(-2), F(-4)), QQ) == (F(1), F(2))
    F5 = PrimeField(5)
    assert _normalized((2, 4), F5) == (1, 2)
