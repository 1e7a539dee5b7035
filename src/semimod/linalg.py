"""Exact dense linear algebra over the coefficient fields.

Matrices are lists of row lists holding raw field values.  Dimensions are
tiny (the module rank n), so one fraction-free elimination, ``echelon_insert``,
serves every use.  Its one step is ``Field.eliminate``, lead*row -
c*prow, which the back substitution of the reduced form uses with lead 1.
The reduced row echelon form and the free-column kernel basis built from it
are unique for a given row space.  ``dot_raw`` keeps plain ``add`` and
``mul``: with ``Polynomial.evaluate_raw`` it re-checks the scan's
violations apart from the kernels.
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


def echelon_insert(echelon, row, field: Field) -> int:
    """Add ``row`` to ``echelon``, a list of (pivot column, row) pairs sorted
    by pivot column, each row zero before its nonzero pivot.  The row is
    reduced fraction-free, row <- pivot * row - row[pc] * pivot_row, by every
    pivot in column order, and kept if anything is left.  Returns the rank
    of the rows seen so far."""
    is_zero, eliminate = field.is_zero, field.eliminate
    for pc, prow in echelon:
        c = row[pc]
        if not is_zero(c):
            row = eliminate(prow[pc], row, c, prow)
    for col, x in enumerate(row):
        if not is_zero(x):
            insort(echelon, (col, row))
            break
    return len(echelon)


def _reduced_echelon(rows, field: Field):
    """The reduced row echelon form of ``rows`` as (pivot column, row)
    pairs: the rows go through ``echelon_insert``, then, last pivot first,
    each pivot is scaled to 1 and the columns of the later pivots cleared."""
    echelon = []
    for row in rows:
        echelon_insert(echelon, row, field)
    reduced = []
    for pc, row in reversed(echelon):
        inv = field.inv(row[pc])
        row = [field.mul(inv, x) for x in row]
        for qc, qrow in reduced:
            c = row[qc]
            if not field.is_zero(c):
                row = field.eliminate(field.one_raw, row, c, qrow)
        reduced.insert(0, (pc, row))
    return reduced


def row_space_basis(rows, field: Field):
    """Canonical basis of the span of the given row vectors: the nonzero
    rows of its reduced row echelon form."""
    return [tuple(row) for _, row in _reduced_echelon(rows, field)]


def kernel_basis(rows, ncols: int, field: Field):
    """Basis of the right null space {v : M v = 0}.

    One basis vector per free column, with a 1 in that column and 0 in the
    other free columns, so the output is unique.  Returns ncols - rank
    vectors (all of them for an empty matrix).
    """
    reduced = dict(_reduced_echelon(rows, field))
    basis = []
    for free in range(ncols):
        if free in reduced:
            continue
        v = [field.zero_raw] * ncols
        v[free] = field.one_raw
        for pc, row in reduced.items():
            v[pc] = field.neg(row[free])
        basis.append(tuple(v))
    return basis
