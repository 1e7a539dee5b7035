"""Sparse multivariate polynomials, vectors and square matrices over them,
and the monomial / module-monomial orders.

A monomial is an exponent tuple, one entry per ring variable.  A polynomial
is a dict from exponent tuples to nonzero raw field values; the zero
polynomial is the empty dict.  A vector is a tuple of polynomials, and a
matrix a tuple of its rows, each a vector; both have ``rows``, a vector
being its own single row.  Module monomials pair a
component index with an exponent tuple.  All values are immutable once
constructed, so they are safe to share between threads.

Variable blocks: a ring remembers how many leading variables form the
x-block, the only variables points evaluate; by default that is all of
them.  ``PolyRing.extended`` appends fresh variables after the existing
ones and keeps the x-block, so the encoding ring k[x, v] is the problem
ring extended by the v-block, a chart ring k[x, v_1..v_{k-1}] is a prefix
of it, and a radical test extends its ring by the tag; callers find the
new variables by position.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DimensionMismatchError,
    MismatchedFieldError,
    MismatchedRingError,
)
from .fields import Field, FieldElement

GREVLEX = "grevlex"
LEX = "lex"
TOP = "top"  # term over position
POT = "pot"  # position over term


# ---------------------------------------------------------------------------
# monomials (exponent tuples)
# ---------------------------------------------------------------------------

def mono_mul(a, b):
    return tuple(map(operator.add, a, b))


def mono_div(b, a):
    """Exponent tuple of x^b / x^a; caller guarantees divisibility."""
    return tuple(map(operator.sub, b, a))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


@dataclass(frozen=True)
class OrderSpec:
    """A total multiplicative well-order on monomials and module monomials.

    ``module`` extends the scalar order to module monomials: "top" compares
    the monomial first, "pot" the position first.  Ties on either side go
    to the lower component index.
    """

    scalar: str = GREVLEX
    module: str = TOP

    def __post_init__(self):
        if self.scalar not in (GREVLEX, LEX):
            raise ValueError(f"unknown scalar order {self.scalar!r}")
        if self.module not in (TOP, POT):
            raise ValueError(f"unknown module extension {self.module!r}")

    def mono_key(self, exps):
        """Sort key; larger key means larger monomial."""
        if self.scalar == GREVLEX:
            return (sum(exps), tuple(-e for e in reversed(exps)))
        return exps

    def module_key(self, mm):
        comp, exps = mm
        if self.module == TOP:
            return (self.mono_key(exps), -comp)
        return (-comp, self.mono_key(exps))


DEFAULT_ORDER = OrderSpec()


# ---------------------------------------------------------------------------
# rings
# ---------------------------------------------------------------------------

class PolyRing:
    """k[x_1..x_d], whose first ``nx`` variables form the x-block."""

    __slots__ = ("field", "names", "nx", "_zero_exps")

    def __init__(self, field: Field, names, nx=None):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        if nx is None:
            nx = len(names)
        if not 0 <= nx <= len(names):
            raise ValueError(f"an x-block of {nx} variables in a ring of {len(names)}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "nx", nx)
        object.__setattr__(self, "_zero_exps", (0,) * len(names))

    def __setattr__(self, name, value):
        raise AttributeError("PolyRing is immutable")

    @property
    def num_vars(self) -> int:
        return len(self.names)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {self._zero_exps: self.field.one_raw})

    def const(self, value) -> "Polynomial":
        return Polynomial(self, {self._zero_exps: self.field.coerce(value)})

    def variable(self, index) -> "Polynomial":
        if isinstance(index, str):
            index = self.names.index(index)
        exps = [0] * len(self.names)
        exps[index] = 1
        return Polynomial(self, {tuple(exps): self.field.one_raw})

    def variables(self):
        return [self.variable(i) for i in range(len(self.names))]

    def extended(self, bases) -> "PolyRing":
        """This ring with one fresh variable appended per base name, in
        order, and the same x-block.  A base already taken, by this ring or
        by a name appended before it, gets ``_`` suffixes until it is free."""
        names = list(self.names)
        for name in bases:
            while name in names:
                name += "_"
            names.append(name)
        return PolyRing(self.field, names, nx=self.nx)

    def embed(self, f: "Polynomial") -> "Polynomial":
        """Lift a polynomial from a prefix ring into this ring."""
        src = f.ring
        if src == self:
            return f
        if src.field != self.field or src.names != self.names[: len(src.names)]:
            raise MismatchedRingError(f"{src} is not a prefix of {self}")
        pad = (0,) * (len(self.names) - len(src.names))
        return Polynomial(self, {exps + pad: c for exps, c in f.terms.items()})

    def __eq__(self, other):
        return self is other or (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.names == other.names
            and self.nx == other.nx
        )

    def __hash__(self):
        return hash((self.field, self.names, self.nx))

    def __repr__(self):
        return f"{self.field!r}[{','.join(self.names)}]"


def _check_ring(a, b):
    if a.ring != b.ring:
        raise MismatchedRingError(f"{a.ring} vs {b.ring}")


def check_operands(ring: PolyRing, rank, objects, what: str):
    """The operand rule of every decision: each of ``objects`` lies over
    ``ring`` (else MismatchedRingError) and, unless ``rank`` is None as for
    polynomials, has length ``rank`` (else DimensionMismatchError), the
    rank of a vector and the size of a matrix alike.  ``what`` names the
    objects in the message."""
    for obj in objects:
        if obj.ring != ring:
            raise MismatchedRingError(f"{what} over {obj.ring!r}, expected {ring!r}")
        if rank is not None and len(obj) != rank:
            raise DimensionMismatchError(
                f"{what} of rank or size {len(obj)}, expected {rank}"
            )


def _coerce_point(ring: PolyRing, point):
    if len(point) != ring.nx:
        raise DimensionMismatchError(
            f"point has {len(point)} coordinates, ring has {ring.nx} x-variables"
        )
    return tuple(ring.field.coerce(x) for x in point)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Polynomial:
    """Sparse polynomial; ``terms`` maps exponent tuples to raw coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms):
        object.__setattr__(self, "ring", ring)
        is_zero = ring.field.is_zero
        object.__setattr__(
            self, "terms", {m: c for m, c in terms.items() if not is_zero(c)}
        )

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        _check_ring(self, other)
        add = self.ring.field.add
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                out[m] = add(out[m], c)
            else:
                out[m] = c
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        neg = self.ring.field.neg
        return Polynomial(self.ring, {m: neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (VectorPoly, PolyMatrix)):
            return NotImplemented
        if not isinstance(other, Polynomial):
            return self.scale(other)
        _check_ring(self, other)
        field = self.ring.field
        add, mul = field.add, field.mul
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                c = mul(c1, c2)
                if m in out:
                    out[m] = add(out[m], c)
                else:
                    out[m] = c
        return Polynomial(self.ring, out)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Polynomial":
        c = self.ring.field.coerce(c)
        mul = self.ring.field.mul
        return Polynomial(self.ring, {m: mul(c, v) for m, v in self.terms.items()})

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            if k > 1:
                base = base * base
            k >>= 1
        return result

    def evaluate_raw(self, point):
        """Evaluate at raw x-block values; rejects terms outside the x-block."""
        ring = self.ring
        field = ring.field
        nx = ring.nx
        total = field.zero_raw
        for exps, c in self.terms.items():
            if any(exps[nx:]):
                raise DimensionMismatchError(
                    "polynomial involves variables outside the x-block"
                )
            val = c
            for i in range(nx):
                if exps[i]:
                    val = field.mul(val, field.power(point[i], exps[i]))
            total = field.add(total, val)
        return total

    def evaluate(self, point) -> FieldElement:
        raw = _coerce_point(self.ring, point)
        return FieldElement(self.ring.field, self.evaluate_raw(raw))

    def constant_value(self):
        """Raw value of a constant polynomial."""
        if not self.terms:
            return self.ring.field.zero_raw
        ((m, c),) = self.terms.items()
        if any(m):
            raise ValueError("polynomial is not constant")
        return c

    def map_coefficients(self, target: Field) -> "Polynomial":
        """Transport into another coefficient field (e.g. Q -> F_p).

        Raises DivisionByZero when a denominator vanishes in the target, and
        MismatchedField when the target of a finite source is not an
        extension of it: a residue mod p is no element of F_q, and an element
        of F_{p^2} none of F_p.
        """
        source = self.ring.field
        if target == source:
            return self
        if source.char and (target.char != source.char or target.size < source.size):
            raise MismatchedFieldError(
                f"cannot carry coefficients of {source!r} into {target!r}"
            )
        ring = PolyRing(target, self.ring.names, nx=self.ring.nx)
        return Polynomial(ring, {m: target.coerce(c) for m, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction)):
                return self == self.ring.const(other)
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"<{self} over {self.ring!r}>"


# ---------------------------------------------------------------------------
# vectors and matrices
# ---------------------------------------------------------------------------

def _sum_of_products(ring: PolyRing, xs, ys) -> Polynomial:
    """Sum of x * y over two sequences of polynomials."""
    return sum((x * y for x, y in zip(xs, ys)), ring.zero())


class VectorPoly:
    """Element of the free module R^n, stored as a tuple of polynomials."""

    __slots__ = ("ring", "entries")

    def __init__(self, ring: PolyRing, entries):
        entries = tuple(
            e if isinstance(e, Polynomial) else ring.const(e) for e in entries
        )
        if not entries:
            raise DimensionMismatchError("vector rank must be at least 1")
        check_operands(ring, None, entries, "vector entry")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("VectorPoly is immutable")

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    @property
    def rows(self):
        """A vector as a one-row matrix: itself, its single row."""
        return (self,)

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def __add__(self, other):
        self._check(other)
        return VectorPoly(self.ring, [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._check(other)
        return VectorPoly(self.ring, [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self):
        return VectorPoly(self.ring, [-a for a in self.entries])

    def __rmul__(self, r):
        """Module action r*f for a ring element or scalar r."""
        if isinstance(r, Polynomial):
            _check_ring(r, self)
            return VectorPoly(self.ring, [r * a for a in self.entries])
        return VectorPoly(self.ring, [a.scale(r) for a in self.entries])

    def _check(self, other):
        if not isinstance(other, VectorPoly):
            raise TypeError("expected a vector")
        check_operands(self.ring, len(self), [other], "vector")

    def dot(self, other) -> Polynomial:
        """Sum of entrywise products with a vector of the same ring and rank."""
        self._check(other)
        return _sum_of_products(self.ring, self.entries, other.entries)

    def evaluate_raw(self, point):
        return tuple(e.evaluate_raw(point) for e in self.entries)

    def evaluate(self, point):
        raw = _coerce_point(self.ring, point)
        field = self.ring.field
        return tuple(FieldElement(field, v) for v in self.evaluate_raw(raw))

    def embed_into(self, ring: PolyRing) -> "VectorPoly":
        return VectorPoly(ring, [ring.embed(e) for e in self.entries])

    def map_coefficients(self, target: Field) -> "VectorPoly":
        entries = [e.map_coefficients(target) for e in self.entries]
        return VectorPoly(entries[0].ring, entries)

    def __eq__(self, other):
        return (
            isinstance(other, VectorPoly)
            and self.ring == other.ring
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ring, self.entries))

    def __str__(self):
        return "[" + ", ".join(str(e) for e in self.entries) + "]"

    def __repr__(self):
        return f"<{self}>"


def unit_vector(ring: PolyRing, rank: int, i: int) -> VectorPoly:
    return VectorPoly(ring, [ring.one() if j == i else ring.zero() for j in range(rank)])


class PolyMatrix:
    """Square matrix over R, stored as a tuple of its rows, each a VectorPoly;
    the operations below act row by row through the vector operations.  Its
    ``len`` is its size, the rank of its rows."""

    __slots__ = ("ring", "rows")

    def __init__(self, ring: PolyRing, rows):
        rows = tuple(r if isinstance(r, VectorPoly) else VectorPoly(ring, r) for r in rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise DimensionMismatchError("matrix must be square and nonempty")
        check_operands(ring, n, rows, "matrix row")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    @property
    def size(self) -> int:
        return len(self.rows)

    def __len__(self):
        return len(self.rows)

    def is_zero(self) -> bool:
        return all(row.is_zero() for row in self.rows)

    def __add__(self, other):
        self._check(other)
        return PolyMatrix(self.ring, [a + b for a, b in zip(self.rows, other.rows)])

    def __sub__(self, other):
        self._check(other)
        return PolyMatrix(self.ring, [a - b for a, b in zip(self.rows, other.rows)])

    def _check(self, other):
        if not isinstance(other, PolyMatrix):
            raise TypeError("expected a matrix")
        check_operands(self.ring, len(self), [other], "matrix")

    def __matmul__(self, other):
        if isinstance(other, PolyMatrix):
            self._check(other)
            columns = list(zip(*other.rows))
            return PolyMatrix(
                self.ring,
                [[_sum_of_products(self.ring, row, col) for col in columns] for row in self.rows],
            )
        if isinstance(other, VectorPoly):
            return VectorPoly(self.ring, [row.dot(other) for row in self.rows])
        raise TypeError("expected a matrix or vector")

    def __rmul__(self, r):
        """Left action r*X for a ring element or scalar r."""
        return PolyMatrix(self.ring, [row.__rmul__(r) for row in self.rows])

    def evaluate_raw(self, point):
        return [[e.evaluate_raw(point) for e in row] for row in self.rows]

    def evaluate(self, point):
        """The value at a point, one tuple of field elements per row."""
        return [row.evaluate(point) for row in self.rows]

    def map_coefficients(self, target: Field) -> "PolyMatrix":
        rows = [row.map_coefficients(target) for row in self.rows]
        return PolyMatrix(rows[0].ring, rows)

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.ring == other.ring
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ring, self.rows))

    def __str__(self):
        return "[" + ", ".join(str(row) for row in self.rows) + "]"

    def __repr__(self):
        return f"<{self}>"


def identity_matrix(ring: PolyRing, n: int) -> PolyMatrix:
    return PolyMatrix(ring, [unit_vector(ring, n, i) for i in range(n)])


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def _format_monomial(ring: PolyRing, exps) -> str:
    parts = []
    for name, e in zip(ring.names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_polynomial(f: Polynomial) -> str:
    """Render terms in descending grevlex order; the CLI parser reads this
    back to an identical polynomial.
    """
    if not f.terms:
        return "0"
    field = f.ring.field
    rational = field.char == 0
    key = DEFAULT_ORDER.mono_key
    pieces = []
    for exps in sorted(f.terms, key=key, reverse=True):
        c = f.terms[exps]
        mono = _format_monomial(f.ring, exps)
        negative = rational and c < 0
        mag = -c if negative else c
        if not mono:
            body = field.format(mag)
        elif mag == field.one_raw:
            body = mono
        else:
            coeff = field.format(mag)
            if "+" in coeff:
                coeff = f"({coeff})"
            body = f"{coeff}*{mono}"
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f" - {body}" if negative else f" + {body}")
    return "".join(pieces)
