"""Parser and printer for the problem text format.

A problem file declares one ring, then named polynomials, vectors and
matrices over it, then queries.  The printer emits the same format back;
printing and re-parsing reproduces every object exactly.  The full grammar
lives in docs/format.md.

One regex states the token grammar (``_TEXT_RE``: a name, an integer or a
punctuation mark, with comments skipped).  The parser reads tokens as bare
texts from one ``findall`` of it (``token_texts``), after one match of
``_CLEAN_RE`` finds the first character that no token, blank or comment
takes; that match's end is the offset of a bad character.  Any other error
takes its token's offset from one ``finditer`` of the same regex
(``token_offsets``), and ``line_column`` turns an offset into a line and
column.

Expressions become term maps.  A product of numbers, variables, powers and
``t`` over F_{p^2} folds into one exponent list and one coefficient, and a
sum of products into one dict from exponent tuples to coefficients, so one
``Polynomial`` is built per expression.  Only parenthesized factors and
their powers take the ``Polynomial`` arithmetic path, and each product
there is checked against ``MAX_PRODUCT_TERMS`` before it is formed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dataclass_field

from .errors import (
    DimensionMismatchError,
    ProblemSyntaxError,
    UndefinedNameError,
)
from .fields import (
    MAX_INTEGER_DIGITS,
    QQ,
    Field,
    FieldElement,
    PrimeField,
    QuadraticField,
    field_from_name,
)
from .poly import Polynomial, PolyMatrix, PolyRing, VectorPoly, mono_mul

KEYWORDS = {"ring", "poly", "vec", "mat", "query", "in", "at"}

# Each level of parentheses costs the recursive descent two frames, so a
# bound well under the interpreter's recursion limit turns deep nesting into
# a syntax error instead of a RecursionError.
MAX_PAREN_DEPTH = 100

# Bounds on the work a short text can ask of ring arithmetic: the exponent
# after any '^', and the number of term pairs one product of parenthesized
# factors multiplies, checked before the product is formed.  Without them
# a one-line power such as (x + y + z + 1)^80 runs for minutes.
MAX_EXPONENT = 10_000
MAX_PRODUCT_TERMS = 10_000

# the punctuation marks, one character each
_PUNCT = r";=,\[\](){}^*+\-/"

# the token grammar: group 1 matches a name, an integer or a punctuation
# mark; a comment matches with group 1 empty, and blanks between matches
# are skipped
_TEXT_RE = re.compile(rf"\#[^\n]*|([A-Za-z_][A-Za-z0-9_]*|\d+|[{_PUNCT}])")

# the longest prefix of blanks, comments and the characters tokens are made
# of: when it is not the whole text, the next character is the first bad
# one.  A run of one character class is several times faster here than
# repeating _TEXT_RE's alternatives.
_CLEAN_RE = re.compile(rf"(?:[\s\dA-Za-z_{_PUNCT}]+|\#[^\n]*)*")

# tokens after a factor that end its term: every punctuation mark but '('
# and '*', and the end of input
_ENDS_TERM = frozenset(";=,[]){}^+-/") | {""}


def line_column(text: str, offset: int) -> tuple[int, int]:
    """The 1-based (line, column) of ``text[offset]``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def token_texts(text: str) -> list[str]:
    """The token texts of ``text``, then "" for the end of input; raises a
    positioned syntax error at the first character no token, blank or
    comment takes."""
    end = _CLEAN_RE.match(text).end()
    if end != len(text):
        raise ProblemSyntaxError(
            f"unexpected character {text[end]!r}", *line_column(text, end)
        )
    texts = list(filter(None, _TEXT_RE.findall(text)))
    texts.append("")
    return texts


def token_offsets(text: str) -> list[int]:
    """The offset of each token ``token_texts`` lists, the end of input's
    included."""
    offsets = [m.start(1) for m in _TEXT_RE.finditer(text) if m.lastindex]
    offsets.append(len(text))
    return offsets


@dataclass(frozen=True)
class Query:
    kind: str
    args: dict


@dataclass
class ProblemFile:
    ring: PolyRing
    objects: dict = dataclass_field(default_factory=dict)  # name -> (kind, value)
    queries: list = dataclass_field(default_factory=list)
    rank: int | None = None  # fixed by the first vector or matrix

    def get(self, name: str, wanted_kinds):
        if name not in self.objects:
            raise UndefinedNameError(f"name {name!r} is not declared")
        kind, value = self.objects[name]
        if kind not in wanted_kinds:
            raise UndefinedNameError(
                f"{name!r} is a {kind}, expected one of {sorted(wanted_kinds)}"
            )
        return value


# each query kind: the kinds of its named operands, checked in this order,
# and its one-line summary, as ``semimod --help`` lists it.  The generators
# take the query's declared kind, or are vectors in a query without one.
QUERY_KINDS = {
    "member": ({"query": {"vec", "poly"}},
               "submodule or ideal membership with a cofactor certificate"),
    "semiprime-member": ({"query": {"vec"}},
                         "membership in the smallest semiprime submodule"),
    "radical-member": ({"query": {"poly"}},
                       "radical ideal membership: semiprime-member at rank 1"),
    "matrix-semiprime-member": ({"query": {"mat"}},
                                "membership in the smallest semiprime left ideal"),
    "refute-semiprime": ({"query": {"vec"}},
                         "check a candidate refutation of the closure rule"),
    "refute-weak": ({"scalar": {"poly"}, "vector": {"vec"}},
                    "check a candidate refutation of the classical rule"),
    "k-of": ({}, "smallest point-prime submodule containing the generators"),
    "oracle": ({"query": {"vec", "mat"}},
               "finite-field point enumeration of the vanishing implication"),
}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = token_texts(text)
        self.pos = 0
        self.depth = 0  # open parentheses around the current factor

    # -- token helpers -----------------------------------------------------
    def fail(self, message: str, index: int | None = None):
        """Raise a syntax error at token ``index``, by default the next one."""
        raise ProblemSyntaxError(message, *self.position(index))

    def position(self, index: int | None = None) -> tuple[int, int]:
        """The (line, column) of token ``index``, by default the next one."""
        offset = token_offsets(self.text)[self.pos if index is None else index]
        return line_column(self.text, offset)

    def wanted(self, what: str):
        found = self.tokens[self.pos] or "end of input"
        self.fail(f"expected {what!r}, found {found!r}")

    def expect(self, text: str):
        if self.tokens[self.pos] != text:
            self.wanted(text)
        self.pos += 1

    def at(self, text: str) -> bool:
        return self.tokens[self.pos] == text

    def name(self) -> str:
        tok = self.tokens[self.pos]
        if not tok.isidentifier():
            self.wanted("name")
        self.pos += 1
        return tok

    def integer(self) -> str:
        """The next token, an integer literal of at most
        ``MAX_INTEGER_DIGITS`` digits."""
        tok = self.tokens[self.pos]
        if not tok.isdecimal():
            self.wanted("int")
        if len(tok) > MAX_INTEGER_DIGITS:
            self.fail(f"integer literal of more than {MAX_INTEGER_DIGITS} digits")
        self.pos += 1
        return tok

    def comma_list(self, open_: str, item, close: str) -> list:
        """``open_ item (, item)* close``; returns the items."""
        self.expect(open_)
        items = [item()]
        while self.at(","):
            self.pos += 1
            items.append(item())
        self.expect(close)
        return items

    # -- problem structure ---------------------------------------------------
    def parse_problem(self) -> ProblemFile:
        problem = None
        while self.tokens[self.pos]:
            tok = self.tokens[self.pos]
            if not tok.isidentifier():
                self.fail("expected a statement keyword")
            if tok == "ring":
                if problem is not None:
                    self.fail("only one ring declaration per problem")
                problem = self.parse_ring()
            elif tok in ("poly", "vec", "mat"):
                if problem is None:
                    self.fail("declare the ring before any objects")
                self.parse_object(problem)
            elif tok == "query":
                if problem is None:
                    self.fail("declare the ring before any queries")
                self.parse_query(problem)
            else:
                self.fail(f"unknown statement {tok!r}")
        if problem is None:
            self.fail("problem has no ring declaration")
        return problem

    def parse_ring(self) -> ProblemFile:
        self.expect("ring")
        field = self.parse_field_name()
        names = self.comma_list("[", self.name, "]")
        self.expect(";")
        for name in names:
            if name in KEYWORDS:
                self.fail(f"variable name {name!r} is reserved")
        try:
            ring = PolyRing(field, names)
        except ValueError as exc:
            self.fail(str(exc))
        return ProblemFile(ring=ring)

    def parse_field_name(self) -> Field:
        start = self.pos
        name = self.name()
        if self.at("^"):
            self.pos += 1
            name += "^" + self.integer()
        try:
            return field_from_name(name)
        except ValueError as exc:
            self.fail(str(exc), start)

    def parse_object(self, problem: ProblemFile):
        kind = self.tokens[self.pos]
        self.pos += 1
        name_index = self.pos
        name = self.name()
        if name in KEYWORDS:
            self.fail(f"name {name!r} is reserved", name_index)
        if name in problem.objects:
            self.fail(f"name {name!r} is already declared", name_index)
        self.expect("=")
        if kind == "poly":
            value = self.parse_expression(problem.ring)
        elif kind == "vec":
            value = self.parse_vector(problem.ring)
            self._fix_rank(problem, len(value), name_index)
        else:
            value = self.parse_matrix(problem.ring)
            self._fix_rank(problem, value.size, name_index)
        self.expect(";")
        problem.objects[name] = (kind, value)

    def _fix_rank(self, problem: ProblemFile, rank: int, index: int):
        if problem.rank is None:
            problem.rank = rank
        elif problem.rank != rank:
            line = self.position(index)[0]
            raise DimensionMismatchError(
                f"rank {rank} at line {line} conflicts with earlier rank {problem.rank}"
            )

    # -- queries -------------------------------------------------------------
    def parse_query(self, problem: ProblemFile):
        self.expect("query")
        kind = self.name()
        while self.at("-"):
            self.pos += 1
            kind += "-" + self.name()
        if kind not in QUERY_KINDS:
            self.fail(f"unknown query kind {kind!r}")
        if kind == "k-of":
            gens = self.parse_name_set()
            self.expect("at")
            point = self.parse_point(problem.ring)
            args = {"generators": gens, "point": point}
        elif kind == "refute-weak":
            scalar = self.name()
            self.expect(",")
            vector = self.name()
            self.expect("in")
            args = {
                "scalar": scalar,
                "vector": vector,
                "generators": self.parse_name_set(),
            }
        else:
            query_name = self.name()
            self.expect("in")
            args = {"query": query_name, "generators": self.parse_name_set()}
        self.expect(";")
        self._check_query(problem, kind, args)
        problem.queries.append(Query(kind, args))

    def parse_name_set(self):
        return self.comma_list("{", self.name, "}")

    def parse_point(self, ring: PolyRing):
        coords = self.comma_list("(", lambda: self.parse_scalar(ring), ")")
        if len(coords) != ring.nx:
            raise DimensionMismatchError(
                f"point has {len(coords)} coordinates, ring has {ring.nx} variables"
            )
        return coords

    def parse_scalar(self, ring: PolyRing):
        start = self.pos
        value = self.parse_expression(ring)
        try:
            return FieldElement(ring.field, value.constant_value())
        except ValueError:
            self.fail("expected a constant scalar", start)

    def _check_query(self, problem: ProblemFile, kind: str, args: dict):
        operands, _ = QUERY_KINDS[kind]
        for role, kinds in operands.items():
            problem.get(args[role], kinds)
        declared = {problem.objects[args["query"]][0] if "query" in args else "vec"}
        for g in args["generators"]:
            problem.get(g, declared)

    # -- expressions -----------------------------------------------------------
    def parse_expression(self, ring: PolyRing) -> Polynomial:
        """A sum of terms, collected into one term map.  A monomial whose
        coefficient cancels leaves the map at once, so one that comes back
        goes last, as in a chain of ``Polynomial`` additions."""
        field = ring.field
        add, neg, is_zero = field.add, field.neg, field.is_zero
        tokens = self.tokens
        negate = tokens[self.pos] == "-"
        if negate:
            self.pos += 1
        terms = {}
        while True:
            for m, c in self.parse_term(ring):
                if negate:
                    c = neg(c)
                if m in terms:
                    c = add(terms[m], c)
                    if is_zero(c):
                        del terms[m]
                        continue
                elif is_zero(c):
                    continue
                terms[m] = c
            tok = tokens[self.pos]
            if tok != "+" and tok != "-":
                return Polynomial(ring, terms)
            negate = tok == "-"
            self.pos += 1

    def parse_term(self, ring: PolyRing):
        """A product of factors, as (exponent tuple, coefficient) pairs.
        Numbers, variables and ``t`` over F_{p^2}, each with its power, fold
        into one exponent list and one coefficient.  Parenthesized factors
        and their powers multiply as polynomials, and the monomial scales
        their product once at the end; a monomial only shifts and scales
        terms, so the pairs come in the order left-to-right multiplication
        gives."""
        field = ring.field
        mul, names, tokens = field.mul, ring.names, self.tokens
        exps = [0] * len(names)
        coef = None  # None stands for 1
        product = None  # of the parenthesized factors
        while True:
            index = self.pos
            tok = tokens[index]
            self.pos += 1
            inner = value = None  # a parenthesized factor, or a number or t
            if tok == "(":
                if self.depth == MAX_PAREN_DEPTH:
                    self.fail(
                        f"parentheses nested deeper than {MAX_PAREN_DEPTH} levels", index
                    )
                self.depth += 1
                inner = self.parse_expression(ring)
                self.depth -= 1
                self.expect(")")
            elif tok in names:
                pass  # a variable, whose power goes into exps below
            elif tok.isidentifier():
                if tok != "t" or not isinstance(field, QuadraticField):
                    line = self.position(index)[0]
                    raise UndefinedNameError(f"{tok!r} is not a ring variable (line {line})")
                value = field.generator.value
            elif tok.isdecimal():
                self.pos = index
                value = field.coerce(int(self.integer()))
                if tokens[self.pos] == "/":
                    self.pos += 1
                    den_index = self.pos
                    den = field.coerce(int(self.integer()))
                    if field.is_zero(den):
                        self.fail("zero denominator", den_index)
                    value = field.div(value, den)
            else:
                self.pos = index
                self.fail("expected a polynomial factor")
            power = 1
            caret = self.pos
            if tokens[caret] == "^":
                self.pos += 1
                power = int(self.integer())
                if power > MAX_EXPONENT:
                    self.fail(f"exponent above {MAX_EXPONENT}", caret)
            if inner is not None:
                if power != 1:
                    inner = self.power(inner, power, caret)
                product = inner if product is None else self.multiply(product, inner, index)
            elif value is None:
                exps[names.index(tok)] += power
            else:
                if power != 1:
                    value = field.power(value, power)
                coef = value if coef is None else mul(coef, value)
            # an explicit '*' or juxtaposition: the next factor multiplies
            tok = tokens[self.pos]
            if tok == "*":
                self.pos += 1
            elif tok in _ENDS_TERM:
                break
        mono = tuple(exps)
        if coef is None:
            coef = field.one_raw
        if product is None:
            return ((mono, coef),)
        return [(mono_mul(m, mono), mul(c, coef)) for m, c in product.terms.items()]

    def multiply(self, a: Polynomial, b: Polynomial, index: int) -> Polynomial:
        """``a * b``, or a syntax error at token ``index`` when the product
        would multiply more than ``MAX_PRODUCT_TERMS`` pairs of terms."""
        if len(a.terms) * len(b.terms) > MAX_PRODUCT_TERMS:
            self.fail(f"product of more than {MAX_PRODUCT_TERMS} term pairs", index)
        return a * b

    def power(self, f: Polynomial, k: int, index: int) -> Polynomial:
        """``f**k`` by ``Polynomial.__pow__``'s square-and-multiply, so the
        terms come in its order, with each product checked by ``multiply``."""
        result = f.ring.one()
        while k:
            if k & 1:
                result = self.multiply(result, f, index)
            if k > 1:
                f = self.multiply(f, f, index)
            k >>= 1
        return result

    def parse_vector(self, ring: PolyRing) -> VectorPoly:
        return VectorPoly(ring, self.comma_list("[", lambda: self.parse_expression(ring), "]"))

    def parse_matrix(self, ring: PolyRing) -> PolyMatrix:
        return PolyMatrix(ring, self.comma_list("[", lambda: self.parse_vector(ring), "]"))


def parse_problem(text: str) -> ProblemFile:
    """Parse problem text; raises ProblemSyntaxError with position info,
    UndefinedName for undeclared references, DimensionMismatch for
    inconsistent ranks."""
    return _Parser(text).parse_problem()


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    """Parse a single polynomial expression over a given ring."""
    parser = _Parser(text)
    value = parser.parse_expression(ring)
    if parser.tokens[parser.pos]:
        parser.wanted("eof")
    return value


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def field_name(field: Field) -> str:
    if field == QQ:
        return "Q"
    if isinstance(field, QuadraticField):
        return f"F{field.p}^2"
    if isinstance(field, PrimeField):
        return f"F{field.p}"
    raise ValueError(f"cannot name field {field!r}")


def format_query(query: Query) -> str:
    if query.kind == "k-of":
        gens = ", ".join(query.args["generators"])
        point = ", ".join(str(c) for c in query.args["point"])
        return f"query k-of {{{gens}}} at ({point});"
    if query.kind == "refute-weak":
        gens = ", ".join(query.args["generators"])
        return (
            f"query refute-weak {query.args['scalar']}, {query.args['vector']}"
            f" in {{{gens}}};"
        )
    gens = ", ".join(query.args["generators"])
    return f"query {query.kind} {query.args['query']} in {{{gens}}};"


def format_problem(problem: ProblemFile) -> str:
    """Render a problem back to text; parsing the output reproduces every
    declared object bit-exactly."""
    lines = [f"ring {field_name(problem.ring.field)}[{', '.join(problem.ring.names)}];"]
    for name, (kind, value) in problem.objects.items():
        lines.append(f"{kind} {name} = {value};")
    for query in problem.queries:
        lines.append(format_query(query))
    return "\n".join(lines) + "\n"
