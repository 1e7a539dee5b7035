"""Exact dense linear algebra over the coefficient fields.

Matrices are lists of row lists holding raw field values.  Dimensions are
tiny (the module rank n), so plain Gaussian elimination is all that is
needed.  Pivoting is deterministic: columns left to right, first row with a
nonzero entry.
"""

from __future__ import annotations

from bisect import insort

from .fields import Field


def dot_raw(field: Field, xs, ys):
    """Sum of x * y over paired raw values."""
    s = field.zero_raw
    for x, y in zip(xs, ys):
        s = field.add(s, field.mul(x, y))
    return s


def rref(rows, field: Field):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
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


def echelon_insert(echelon, row, field: Field) -> int:
    """Add ``row`` to ``echelon``, a list of (pivot column, row) pairs sorted
    by pivot column, each row zero before its nonzero pivot.  The row is
    reduced fraction-free, row <- pivot * row - row[pc] * pivot_row, by every
    pivot in column order, and kept if anything is left.  Returns the rank
    of the rows seen so far."""
    is_zero, sub, mul = field.is_zero, field.sub, field.mul
    for pc, prow in echelon:
        c = row[pc]
        if not is_zero(c):
            lead = prow[pc]
            row = [sub(mul(lead, x), mul(c, y)) for x, y in zip(row, prow)]
    for col, x in enumerate(row):
        if not is_zero(x):
            insort(echelon, (col, row))
            break
    return len(echelon)


def row_space_basis(rows, field: Field):
    """Canonical basis of the span of the given row vectors."""
    m, pivots = rref(rows, field)
    return [tuple(m[i]) for i in range(len(pivots))]


def kernel_basis(rows, ncols: int, field: Field):
    """Basis of the right null space {v : M v = 0}.

    One basis vector per free column, with a 1 in that column; this makes
    the output deterministic and reproducible.  Returns ncols - rank
    vectors (all of them for an empty matrix).
    """
    m, pivots = rref(rows, field) if rows else ([], [])
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [field.zero_raw] * ncols
        v[free] = field.one_raw
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(m[r][free])
        basis.append(tuple(v))
    return basis

