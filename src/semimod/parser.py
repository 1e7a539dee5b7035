"""Parser and printer for the problem text format.

A problem file declares one ring, then named polynomials, vectors and
matrices over it, then queries.  The printer emits the same format back;
printing and re-parsing reproduces every object exactly.  The full grammar
lives in docs/format.md.

Tokens keep only their offset into the text.  A line and column are
computed from it only when an error needs one (``line_column``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dataclass_field
from typing import NamedTuple

from .errors import (
    DimensionMismatchError,
    ProblemSyntaxError,
    UndefinedNameError,
)
from .fields import QQ, Field, FieldElement, PrimeField, QuadraticField, field_from_name
from .poly import Polynomial, PolyMatrix, PolyRing, VectorPoly

KEYWORDS = {"ring", "poly", "vec", "mat", "query", "in", "at"}

# Each level of parentheses costs the recursive descent four frames, so a
# bound well under the interpreter's recursion limit turns deep nesting into
# a syntax error instead of a RecursionError.
MAX_PAREN_DEPTH = 100

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>\d+)
  | (?P<punct>[;=,\[\](){}^*+\-/])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # "name" | "int" | "punct" | "eof"
    text: str
    offset: int  # index of the token's first character in the text


def line_column(text: str, offset: int) -> tuple[int, int]:
    """The 1-based (line, column) of ``text[offset]``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ProblemSyntaxError(
                f"unexpected character {m.group()!r}", *line_column(text, m.start())
            )
        if kind != "ws" and kind != "comment":
            tokens.append(Token(kind, m.group(), m.start()))
    tokens.append(Token("eof", "", len(text)))
    return tokens


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


# each query kind with its one-line summary, as ``semimod --help`` lists it
QUERY_KINDS = {
    "member": "submodule or ideal membership with a cofactor certificate",
    "semiprime-member": "membership in the smallest semiprime submodule",
    "radical-member": "radical ideal membership via one tag variable",
    "matrix-semiprime-member": "membership in the smallest semiprime left ideal",
    "refute-semiprime": "check a candidate refutation of the closure rule",
    "refute-weak": "check a candidate refutation of the classical rule",
    "k-of": "smallest point-prime submodule containing the generators",
    "oracle": "finite-field point enumeration of the vanishing implication",
}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0  # open parentheses around the current atom

    # -- token helpers -----------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None):
        offset = (tok or self.peek()).offset
        raise ProblemSyntaxError(message, *line_column(self.text, offset))

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            wanted = text if text is not None else kind
            found = tok.text if tok.kind != "eof" else "end of input"
            self.fail(f"expected {wanted!r}, found {found!r}")
        return self.advance()

    def at_punct(self, text: str) -> bool:
        # no name, int or eof token has the text of a punctuation mark
        return self.tokens[self.pos].text == text

    def name(self) -> str:
        return self.expect("name").text

    def comma_list(self, open_: str, item, close: str) -> list:
        """``open_ item (, item)* close``; returns the items."""
        self.expect("punct", open_)
        items = [item()]
        while self.at_punct(","):
            self.advance()
            items.append(item())
        self.expect("punct", close)
        return items

    # -- problem structure ---------------------------------------------------
    def parse_problem(self) -> ProblemFile:
        problem = None
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "name":
                self.fail("expected a statement keyword")
            if tok.text == "ring":
                if problem is not None:
                    self.fail("only one ring declaration per problem")
                problem = self.parse_ring()
            elif tok.text in ("poly", "vec", "mat"):
                if problem is None:
                    self.fail("declare the ring before any objects")
                self.parse_object(problem)
            elif tok.text == "query":
                if problem is None:
                    self.fail("declare the ring before any queries")
                self.parse_query(problem)
            else:
                self.fail(f"unknown statement {tok.text!r}")
        if problem is None:
            self.fail("problem has no ring declaration")
        return problem

    def parse_ring(self) -> ProblemFile:
        self.expect("name", "ring")
        field = self.parse_field_name()
        names = self.comma_list("[", self.name, "]")
        self.expect("punct", ";")
        for name in names:
            if name in KEYWORDS:
                self.fail(f"variable name {name!r} is reserved")
        try:
            ring = PolyRing(field, names)
        except ValueError as exc:
            self.fail(str(exc))
        return ProblemFile(ring=ring)

    def parse_field_name(self) -> Field:
        tok = self.expect("name")
        name = tok.text
        if self.at_punct("^"):
            self.advance()
            name += "^" + self.expect("int").text
        try:
            return field_from_name(name)
        except ValueError as exc:
            self.fail(str(exc), tok)

    def parse_object(self, problem: ProblemFile):
        kind = self.advance().text
        name_tok = self.expect("name")
        name = name_tok.text
        if name in KEYWORDS:
            self.fail(f"name {name!r} is reserved", name_tok)
        if name in problem.objects:
            self.fail(f"name {name!r} is already declared", name_tok)
        self.expect("punct", "=")
        if kind == "poly":
            value = self.parse_expression(problem.ring)
        elif kind == "vec":
            value = self.parse_vector(problem.ring)
            self._fix_rank(problem, len(value), name_tok)
        else:
            value = self.parse_matrix(problem.ring)
            self._fix_rank(problem, value.size, name_tok)
        self.expect("punct", ";")
        problem.objects[name] = (kind, value)

    def _fix_rank(self, problem: ProblemFile, rank: int, tok: Token):
        if problem.rank is None:
            problem.rank = rank
        elif problem.rank != rank:
            line = line_column(self.text, tok.offset)[0]
            raise DimensionMismatchError(
                f"rank {rank} at line {line} conflicts with earlier rank {problem.rank}"
            )

    # -- queries -------------------------------------------------------------
    def parse_query(self, problem: ProblemFile):
        self.expect("name", "query")
        kind = self.name()
        while self.at_punct("-"):
            self.advance()
            kind += "-" + self.name()
        if kind not in QUERY_KINDS:
            self.fail(f"unknown query kind {kind!r}")
        if kind == "k-of":
            gens = self.parse_name_set()
            self.expect("name", "at")
            point = self.parse_point(problem.ring)
            args = {"generators": gens, "point": point}
        elif kind == "refute-weak":
            scalar = self.name()
            self.expect("punct", ",")
            vector = self.name()
            self.expect("name", "in")
            args = {
                "scalar": scalar,
                "vector": vector,
                "generators": self.parse_name_set(),
            }
        else:
            query_name = self.name()
            self.expect("name", "in")
            args = {"query": query_name, "generators": self.parse_name_set()}
        self.expect("punct", ";")
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
        tok = self.peek()
        value = self.parse_expression(ring)
        try:
            return FieldElement(ring.field, value.constant_value())
        except ValueError:
            self.fail("expected a constant scalar", tok)

    def _check_query(self, problem: ProblemFile, kind: str, args: dict):
        by_kind = {
            "member": {"vec", "poly"},
            "semiprime-member": {"vec"},
            "radical-member": {"poly"},
            "matrix-semiprime-member": {"mat"},
            "refute-semiprime": {"vec"},
            "oracle": {"vec", "mat"},
        }
        if kind in by_kind:
            problem.get(args["query"], by_kind[kind])
            # every generator is of the query's declared kind
            declared = {problem.objects[args["query"]][0]}
            for g in args["generators"]:
                problem.get(g, declared)
        elif kind == "refute-weak":
            problem.get(args["scalar"], {"poly"})
            problem.get(args["vector"], {"vec"})
            for g in args["generators"]:
                problem.get(g, {"vec"})
        elif kind == "k-of":
            for g in args["generators"]:
                problem.get(g, {"vec"})

    # -- expressions -----------------------------------------------------------
    def parse_expression(self, ring: PolyRing) -> Polynomial:
        negate = False
        if self.at_punct("-"):
            self.advance()
            negate = True
        total = self.parse_term(ring)
        if negate:
            total = -total
        while self.at_punct("+") or self.at_punct("-"):
            op = self.advance().text
            term = self.parse_term(ring)
            total = total - term if op == "-" else total + term
        return total

    def parse_term(self, ring: PolyRing) -> Polynomial:
        product = self.parse_factor(ring)
        while True:
            tok = self.peek()
            if tok.text == "*":
                self.advance()
            elif tok.kind != "name" and tok.kind != "int" and tok.text != "(":
                return product
            # an explicit '*' or juxtaposition: the next factor multiplies
            product = product * self.parse_factor(ring)

    def parse_factor(self, ring: PolyRing) -> Polynomial:
        base = self.parse_atom(ring)
        if self.at_punct("^"):
            self.advance()
            power = int(self.expect("int").text)
            base = base**power
        return base

    def parse_atom(self, ring: PolyRing) -> Polynomial:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            value = int(tok.text)
            if self.at_punct("/"):
                self.advance()
                den_tok = self.expect("int")
                field = ring.field
                den = field.coerce(int(den_tok.text))
                if field.is_zero(den):
                    self.fail("zero denominator", den_tok)
                return ring.const(field.div(field.coerce(value), den))
            return ring.const(value)
        if tok.kind == "name":
            self.advance()
            if tok.text in ring.names:
                return ring.variable(tok.text)
            if tok.text == "t" and isinstance(ring.field, QuadraticField):
                return ring.const(ring.field.generator)
            raise UndefinedNameError(
                f"{tok.text!r} is not a ring variable "
                f"(line {line_column(self.text, tok.offset)[0]})"
            )
        if tok.text == "(":
            if self.depth == MAX_PAREN_DEPTH:
                self.fail(f"parentheses nested deeper than {MAX_PAREN_DEPTH} levels")
            self.advance()
            self.depth += 1
            inner = self.parse_expression(ring)
            self.depth -= 1
            self.expect("punct", ")")
            return inner
        self.fail("expected a polynomial factor")

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
    parser.expect("eof")
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
