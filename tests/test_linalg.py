import random
from fractions import Fraction

from semimod.fields import QQ, PrimeField, QuadraticField
from semimod.linalg import kernel_basis, row_space_basis


def F(a, b=1):
    return Fraction(a, b)


def rref(rows, field):
    """Reference reduced row echelon form by inverse-based Gauss-Jordan
    elimination, kept apart from the package's fraction-free one.  Returns
    (rows, pivot_columns)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if not field.is_zero(m[i][c])), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(nrows):
            if i != r and not field.is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


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


def test_bases_match_the_reference_elimination(someseed=73):
    # the RREF rows and the free-column kernel basis are unique for a row
    # space, so the fraction-free elimination must give exactly the
    # reference's; sparse entries make rank drops and zero rows common
    rng = random.Random(someseed)
    for field in (QQ, PrimeField(5), QuadraticField(3)):
        values = list(field.elements()) if field.size else [-2, -1, 1, F(1, 2), F(-2, 3), 3]
        values = [field.coerce(v) for v in [0] * 3 + values]
        for _ in range(100):
            nrows, ncols = rng.randint(0, 4), rng.randint(1, 4)
            rows = [[rng.choice(values) for _ in range(ncols)] for _ in range(nrows)]
            m, pivots = rref(rows, field)
            assert row_space_basis(rows, field) == [tuple(m[i]) for i in range(len(pivots))]
            kernel = []
            for free in (c for c in range(ncols) if c not in pivots):
                v = [field.zero_raw] * ncols
                v[free] = field.one_raw
                for r, pc in enumerate(pivots):
                    v[pc] = field.neg(m[r][free])
                kernel.append(tuple(v))
            assert kernel_basis(rows, ncols, field) == kernel


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
