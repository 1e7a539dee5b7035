"""Exact coefficient arithmetic: the rationals, prime fields, and their
quadratic extensions.

A ``Field`` owns the raw canonical representation of its elements and does
all arithmetic on those raw values (``Fraction`` for the rationals, an int
in ``[0, p)`` for a prime field, a pair of such ints for a quadratic
extension).  Polynomials store raw values directly for speed;
``FieldElement`` is the boxed form used at API boundaries.  Everything here
is immutable and pure, so values can be shared freely across threads.

Two kernels serve the vanishing scan: ``horner`` evaluates a coefficient
list at a point, and ``roots_among`` finds the points of a line where a
coefficient list vanishes, one call for the whole line.  ``Field`` declares
them as hooks beside ``add`` and ``mul``, and each field implements them
with inline arithmetic, reducing mod p at every step over a finite field,
so a whole list costs one call instead of one method call per ``add`` and
``mul``; they are hot, with tens of thousands of calls in one pass over an
oracle sweep.  The echelon form's step ``eliminate``, lead*row - c*prow,
has one body on ``Field``, written with ``add``, ``mul`` and ``neg``: the
scan passes most points by minors, so it runs a few hundred times in such
a pass.
Polynomial evaluation (``Polynomial.evaluate_raw``) and ``linalg.dot_raw``
keep plain ``add`` and ``mul``: they re-check every violation the scan
reports, independently of the kernels.

``split`` takes a coefficient map to its numerators over one common
denominator and ``join`` takes it back.  Over Q the numerators are ints, so
certificate expansion and the vanishing scan run on integers and Fractions
are made only for what a report prints; over a finite field both are the
identity.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import (
    DivisionByZeroError,
    InfiniteFieldError,
    InvariantViolationError,
    MismatchedFieldError,
    ResourceLimitExceededError,
)

# The longest integer the problem format reads or prints, the default
# limit of int() and str() on decimal strings.  The parser checks literals
# against it, and ``RationalField.format`` checks numerators and
# denominators against _PRINT_BOUND, the least integer with more digits.
MAX_INTEGER_DIGITS = 4_300
_PRINT_BOUND = 10**MAX_INTEGER_DIGITS


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _irreducible_quadratic(p: int, b: int, c: int) -> bool:
    """Whether t^2 + b*t + c has no root in F_p.

    For odd p this is Euler's criterion on the discriminant: the quadratic
    is irreducible iff b^2 - 4c is a non-residue mod p.  In characteristic
    2 the discriminant says nothing, so both elements of F_2 are tried.
    """
    if p == 2:
        return all((a * a + b * a + c) % p for a in range(p))
    return pow((b * b - 4 * c) % p, (p - 1) // 2, p) == p - 1


def quadratic_modulus(p: int) -> tuple[int, int]:
    """Coefficients (b, c) of the lexicographically smallest monic
    irreducible quadratic t^2 + b*t + c over F_p.

    For odd p the search ends at b = 0, at the smallest c for which -c is
    a non-residue.
    """
    for b in range(p):
        for c in range(p):
            if _irreducible_quadratic(p, b, c):
                return (b, c)
    # unreachable: F_p has (p^2 - p)/2 monic irreducible quadratics
    raise InvariantViolationError(f"no irreducible quadratic over F_{p}")


class Field:
    """Abstract field; subclasses implement arithmetic on raw values."""

    char: int
    size: int | None  # None for infinite fields

    # subclasses set these raw constants
    zero_raw = None
    one_raw = None

    def element(self, value) -> "FieldElement":
        return FieldElement(self, self.coerce(value))

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, self.zero_raw)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, self.one_raw)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == self.zero_raw

    def power(self, a, k: int):
        if k < 0:
            a, k = self.inv(a), -k
        result = self.one_raw
        while k:
            if k & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            k >>= 1
        return result

    def elements(self):
        """Iterate the raw value of every element exactly once, in canonical
        order."""
        raise InfiniteFieldError(f"{self} is infinite")

    # -- Groebner hooks: the reducer's division steps ----------------------
    def normalize(self, m, lc):
        """``(scale * m, scale)`` for a nonzero ``scale``, where ``m`` is a
        coefficient map led by the coefficient ``lc``.  Here scale = 1/lc,
        so the map comes back monic."""
        one = self.one_raw
        if lc == one:
            return m, one
        inv = self.inv(lc)
        mul = self.mul
        return {k: mul(inv, v) for k, v in m.items()}, inv

    def pseudo_quotient(self, c, lead):
        """``(a, q)`` with ``a * c == q * lead`` and ``a`` nonzero, for a
        division step p <- a*p - q*t*b that cancels the term c against the
        lead coefficient of b.  Over a field ``a`` is 1."""
        one = self.one_raw
        return one, (c if lead == one else self.div(c, lead))

    # -- common denominators: certificate expansion and the vanishing scan --
    def split(self, m):
        """``(numerators, d)`` for a coefficient map ``m``: the map of
        numerators over one denominator d, a positive int, with m equal to
        numerators / d.  Over a finite field every value is its own
        numerator and d is 1."""
        return m, 1

    def join(self, m, d):
        """The coefficient map of the numerators ``m`` over the int ``d``;
        undoes ``split``.  Over a finite field d is 1."""
        return m

    # -- hooks -----------------------------------------------------------
    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def horner(self, coeffs, x):
        """Kernel of the vanishing scan: the value at x of the polynomial
        with coefficients ``coeffs``, lowest degree first; x is not read
        when there is at most one coefficient."""
        raise NotImplementedError

    def roots_among(self, coeffs, xs):
        """Kernel of the vanishing scan on a line: the indices j, in order,
        at which the polynomial with coefficients ``coeffs`` vanishes at
        xs[j]; no x is read when there is at most one coefficient."""
        raise NotImplementedError

    def eliminate(self, lead, row, c, prow):
        """The echelon form's one step: the row lead*row - c*prow, entry by
        entry."""
        add, mul, neg = self.add, self.mul, self.neg
        return [add(mul(lead, a), neg(mul(c, b))) for a, b in zip(row, prow)]

    def coerce(self, value):
        raise NotImplementedError

    def format(self, a) -> str:
        raise NotImplementedError


class RationalField(Field):
    char = 0
    size = None
    zero_raw = Fraction(0)
    one_raw = Fraction(1)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a) -> bool:
        # also takes the integers of fraction-free reduction, which an
        # equality test against Fraction(0) would route through Fraction
        return not a

    def inv(self, a):
        if a == 0:
            raise DivisionByZeroError("inverse of 0")
        return Fraction(1) / a

    def horner(self, coeffs, x):
        if not coeffs:
            return 0  # the scan's rows are integral over Q (``split``)
        acc = coeffs[-1]
        for c in coeffs[-2::-1]:
            acc = acc * x + c
        return acc

    def roots_among(self, coeffs, xs):
        if len(coeffs) < 2:
            return [] if coeffs and coeffs[0] else list(range(len(xs)))
        top, rest = coeffs[-1], coeffs[-2::-1]
        out = []
        for j, x in enumerate(xs):
            acc = top
            for c in rest:
                acc = acc * x + c
            if not acc:
                out.append(j)
        return out

    def split(self, m):
        """Integer numerators over the least common denominator; takes ints
        as well as Fractions."""
        den = lcm(*[v.denominator for v in m.values()])
        return {k: v.numerator * (den // v.denominator) for k, v in m.items()}, den

    def join(self, m, d):
        return {k: Fraction(v, d) for k, v in m.items()}

    def normalize(self, m, lc):
        """The primitive integer multiple of ``m`` whose coefficient ``lc``
        is positive: denominators cleared, content divided out."""
        ints, den = self.split(m)
        content = gcd(*ints.values())
        if lc < 0:
            content = -content
        if content != 1:
            ints = {k: v // content for k, v in ints.items()}
        return ints, Fraction(den, content)

    def pseudo_quotient(self, c, lead):
        """Integer (a, q) with a > 0, for an integer c and the positive lead
        that ``normalize`` leaves."""
        g = gcd(c, lead)
        return lead // g, c // g

    def coerce(self, value):
        if isinstance(value, FieldElement):
            if value.field != self:
                raise MismatchedFieldError(f"cannot coerce {value.field} into {self}")
            return value.value
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into {self}")

    def format(self, a) -> str:
        if abs(a.numerator) >= _PRINT_BOUND or a.denominator >= _PRINT_BOUND:
            raise ResourceLimitExceededError(
                f"a coefficient of more than {MAX_INTEGER_DIGITS} digits cannot be printed"
            )
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField(Field):
    """F_p for a prime p < 2**31; raw values are ints in [0, p)."""

    def __init__(self, p: int):
        if not (2 <= p < 2**31) or not is_prime(p):
            raise ValueError(f"{p} is not a supported prime")
        self.p = p
        self.char = p
        self.size = p
        self.zero_raw = 0
        self.one_raw = 1

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a == 0:
            raise DivisionByZeroError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def horner(self, coeffs, x):
        # reduced at every step, so the accumulator stays below p^2 + p
        if not coeffs:
            return 0
        p = self.p
        acc = coeffs[-1]
        for c in coeffs[-2::-1]:
            acc = (acc * x + c) % p
        return acc

    def roots_among(self, coeffs, xs):
        if len(coeffs) < 2:
            return [] if coeffs and coeffs[0] else list(range(len(xs)))
        p = self.p
        top, rest = coeffs[-1], coeffs[-2::-1]
        out = []
        for j, x in enumerate(xs):
            acc = top
            for c in rest:
                acc = (acc * x + c) % p
            if not acc:
                out.append(j)
        return out

    def coerce(self, value):
        if isinstance(value, FieldElement):
            if value.field != self:
                raise MismatchedFieldError(f"cannot coerce {value.field} into {self}")
            return value.value
        if isinstance(value, bool):
            raise TypeError("bool is not a field value")
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise DivisionByZeroError(f"denominator of {value} vanishes mod {self.p}")
            return value.numerator * pow(den, self.p - 2, self.p) % self.p
        raise TypeError(f"cannot coerce {value!r} into {self}")

    def elements(self):
        return range(self.p)

    def format(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"F{self.p}"


class QuadraticField(Field):
    """F_{p^2} = F_p[t] / (t^2 + b*t + c); raw values are pairs (a0, a1)
    standing for a0 + a1*t with a0, a1 in [0, p).
    """

    def __init__(self, p: int):
        self.base = PrimeField(p)
        self.p = p
        self.modulus = quadratic_modulus(p)
        self.char = p
        self.size = p * p
        self.zero_raw = (0, 0)
        self.one_raw = (1, 0)

    @property
    def generator(self) -> "FieldElement":
        return FieldElement(self, (0, 1))

    def add(self, a, b):
        p = self.p
        return ((a[0] + b[0]) % p, (a[1] + b[1]) % p)

    def mul(self, a, b):
        p = self.p
        mb, mc = self.modulus
        # (a0 + a1 t)(b0 + b1 t) with t^2 = -mb*t - mc
        t2 = a[1] * b[1]
        return ((a[0] * b[0] - mc * t2) % p, (a[0] * b[1] + a[1] * b[0] - mb * t2) % p)

    def neg(self, a):
        p = self.p
        return ((-a[0]) % p, (-a[1]) % p)

    def inv(self, a):
        if a == (0, 0):
            raise DivisionByZeroError("inverse of 0")
        p = self.p
        mb, mc = self.modulus
        # the norm a * conj(a) with conj(a0 + a1 t) = (a0 - a1*b) - a1 t
        norm = (a[0] * a[0] - a[0] * a[1] * mb + a[1] * a[1] * mc) % p
        ninv = pow(norm, p - 2, p)
        return ((a[0] - a[1] * mb) * ninv % p, (-a[1]) * ninv % p)

    def horner(self, coeffs, x):
        if len(coeffs) < 2:
            return coeffs[0] if coeffs else self.zero_raw
        p = self.p
        mb, mc = self.modulus
        # acc * x = (a0 x0 - a1 mc x1) + (a0 x1 + a1 (x0 - mb x1)) t
        x0, x1 = x
        u, w = mc * x1, x0 - mb * x1
        a0, a1 = coeffs[-1]
        for c0, c1 in coeffs[-2::-1]:
            a0, a1 = (a0 * x0 - a1 * u + c0) % p, (a0 * x1 + a1 * w + c1) % p
        return (a0, a1)

    def roots_among(self, coeffs, xs):
        if len(coeffs) < 2:
            return [] if coeffs and any(coeffs[0]) else list(range(len(xs)))
        p = self.p
        mb, mc = self.modulus
        top, rest = coeffs[-1], coeffs[-2::-1]
        out = []
        for j, (x0, x1) in enumerate(xs):
            # Horner as in ``horner``, one x at a time
            u, w = mc * x1, x0 - mb * x1
            a0, a1 = top
            for c0, c1 in rest:
                a0, a1 = (a0 * x0 - a1 * u + c0) % p, (a0 * x1 + a1 * w + c1) % p
            if not (a0 or a1):
                out.append(j)
        return out

    def coerce(self, value):
        if isinstance(value, FieldElement):
            if value.field == self:
                return value.value
            if value.field == self.base:
                return (value.value, 0)
            raise MismatchedFieldError(f"cannot coerce {value.field} into {self}")
        if isinstance(value, tuple) and len(value) == 2:
            return (value[0] % self.p, value[1] % self.p)
        if isinstance(value, (int, Fraction)):
            return (self.base.coerce(value), 0)
        raise TypeError(f"cannot coerce {value!r} into {self}")

    def elements(self):
        for a1 in range(self.p):
            for a0 in range(self.p):
                yield (a0, a1)

    def format(self, a) -> str:
        a0, a1 = a
        if a1 == 0:
            return str(a0)
        tpart = "t" if a1 == 1 else f"{a1}*t"
        if a0 == 0:
            return tpart
        return f"{a0}+{tpart}"

    def __eq__(self, other):
        return isinstance(other, QuadraticField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp2", self.p))

    def __repr__(self):
        return f"F{self.p}^2"


QQ = RationalField()


class FieldElement:
    """Boxed field value; immutable, with exact operator arithmetic."""

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def _coerce_other(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise MismatchedFieldError(f"{self.field} vs {other.field}")
            return other.value
        return self.field.coerce(other)

    def __add__(self, other):
        return FieldElement(self.field, self.field.add(self.value, self._coerce_other(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return FieldElement(self.field, self.field.sub(self.value, self._coerce_other(other)))

    def __rsub__(self, other):
        return FieldElement(self.field, self.field.sub(self._coerce_other(other), self.value))

    def __mul__(self, other):
        return FieldElement(self.field, self.field.mul(self.value, self._coerce_other(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return FieldElement(self.field, self.field.div(self.value, self._coerce_other(other)))

    def __rtruediv__(self, other):
        return FieldElement(self.field, self.field.div(self._coerce_other(other), self.value))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.value))

    def __pow__(self, k: int):
        return FieldElement(self.field, self.field.power(self.value, k))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv(self.value))

    def is_zero(self) -> bool:
        return self.field.is_zero(self.value)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.value == other.value
        try:
            return self.value == self.field.coerce(other)
        except (TypeError, MismatchedFieldError, DivisionByZeroError):
            return NotImplemented

    def __hash__(self):
        return hash((self.field, self.value))

    def __str__(self):
        return self.field.format(self.value)

    def __repr__(self):
        return f"{self.field!r}({self})"


def field_from_name(name: str) -> Field:
    """Resolve a field name as written in problem files: Q (or QQ), F<p>
    and F<p>^2."""
    if name in ("Q", "QQ"):
        return QQ
    squared = name.endswith("^2")
    body = name[:-2] if squared else name
    if not (body.startswith("F") and body[1:].isdecimal()):
        raise ValueError(f"unknown field name {name!r}")
    p = int(body[1:])
    return QuadraticField(p) if squared else PrimeField(p)


def field_from_flag(text: str) -> Field:
    """Resolve the --field flag syntax: "p" or "p^2" (also accepts field
    names)."""
    text = text.strip()
    return field_from_name("F" + text if text[:1].isdecimal() else text)
