"""The parser's token texts and offsets against the earlier line-tracking
tokenizer, error positions, round trips of the shipped examples, the bounds
on nesting and powers, and its term maps against ring arithmetic."""

import ast
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

from conftest import random_generators, random_vector

import semimod
from semimod.errors import ProblemSyntaxError, UndefinedNameError
from semimod.fields import QQ, PrimeField, QuadraticField
from semimod.parser import (
    MAX_EXPONENT,
    MAX_PAREN_DEPTH,
    MAX_PRODUCT_TERMS,
    ProblemFile,
    Query,
    _Parser,
    format_problem,
    line_column,
    parse_polynomial,
    parse_problem,
    token_offsets,
    token_texts,
)
from semimod.poly import Polynomial, PolyRing

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "docs" / "examples").glob("*.sm"))


# ---------------------------------------------------------------------------
# reference tokenizer: the match loop that tracked line and column per token
# ---------------------------------------------------------------------------

_REFERENCE_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>\d+)
  | (?P<punct>[;=,\[\](){}^*+\-/])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class ReferenceToken:
    text: str
    line: int
    column: int


def reference_tokenize(text: str):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _REFERENCE_RE.match(text, pos)
        if m is None:
            raise ProblemSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        chunk = m.group()
        if m.lastgroup not in ("ws", "comment"):
            tokens.append(ReferenceToken(chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(ReferenceToken("", line, col))
    return tokens


def _outcome(tokenizer, text):
    try:
        return tokenizer(text), None
    except ProblemSyntaxError as exc:
        return None, (str(exc), exc.line, exc.column)


def _tokens(text):
    """The parser's token texts, and the line and column of each offset."""
    return token_texts(text), [line_column(text, o) for o in token_offsets(text)]


def assert_same_tokens(text):
    """Asserts the parser's tokens and error equal the reference's; returns
    whether the text was rejected."""
    ref, ref_error = _outcome(reference_tokenize, text)
    new, new_error = _outcome(_tokens, text)
    assert new_error == ref_error, text
    if ref is not None:
        assert new == ([t.text for t in ref], [(t.line, t.column) for t in ref]), text
    return ref is None


def _test_file_texts():
    """Every string literal in the test files that mentions a ring."""
    texts = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and "ring" in node.value:
                texts.append(node.value)
    return texts


def _printed_problems(twisted_pairs):
    """Problems printed with format_problem: the twisted-pair fixtures and
    seeded random generators over each kind of field."""
    rng = random.Random(719)
    presentations = list(twisted_pairs)
    for field in (QQ, PrimeField(5), QuadraticField(3)):
        ring = PolyRing(field, ("x", "y"))
        for _ in range(4):
            presentations.append((ring, random_generators(rng, ring, 2)))
    texts = []
    for ring, gens in presentations:
        objects = {f"g{i}": ("vec", g) for i, g in enumerate(gens)}
        query = Query("semiprime-member", {"query": "f", "generators": list(objects)})
        objects["f"] = ("vec", random_vector(rng, ring, 2))
        texts.append(format_problem(ProblemFile(ring, objects, [query], rank=2)))
    return texts


def _mutations(texts, count, seed):
    """Seeded one-character insertions, deletions and replacements, some of
    them with CRLF line endings."""
    rng = random.Random(seed)
    alphabet = "axyt0129;=,[](){}^*+-/#\n\r\t \x0b$@!.~é"
    for _ in range(count):
        text = rng.choice(texts)
        pos = rng.randrange(len(text) + 1)
        ch = rng.choice(alphabet)
        op = rng.randrange(3)
        if op == 0:
            text = text[:pos] + ch + text[pos:]
        elif op == 1:
            text = text[:pos] + text[pos + 1:]
        else:
            text = text[:pos] + ch + text[pos + 1:]
        if rng.random() < 0.2:
            text = text.replace("\n", "\r\n")
        yield text


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_tokenize_matches_reference_on_examples(path):
    assert_same_tokens(path.read_text(encoding="utf-8"))


def test_tokenize_matches_reference_on_test_problem_texts(twisted, twisted_pair_f3):
    pairs = [(p.ring, p.generators) for p in (twisted, twisted_pair_f3)]
    texts = _test_file_texts() + _printed_problems(pairs)
    assert len(texts) > 40
    for text in texts:
        assert_same_tokens(text)


def test_tokenize_matches_reference_on_mutations(twisted):
    texts = [p.read_text(encoding="utf-8") for p in EXAMPLES]
    texts += _printed_problems([(twisted.ring, twisted.generators)])
    rejected = sum(assert_same_tokens(text) for text in _mutations(texts, 2000, seed=7))
    assert rejected > 100


# ---------------------------------------------------------------------------
# error positions, frozen from the line-tracking tokenizer
# ---------------------------------------------------------------------------

# (text, error type, message, line, column); the last two are None for
# errors that carry no position beyond a "line N" in their message.
PINNED_ERRORS = [
    ("ring Q[x, y]$;",
     "ProblemSyntaxError", "unexpected character '$' (line 1, column 13)", 1, 13),
    ("ring Q[x, y];\nvec f = [x, y];\nvec g = [x @ y];",
     "ProblemSyntaxError", "unexpected character '@' (line 3, column 12)", 3, 12),
    ("# a comment line\nring Q[x]; # trailing note\npoly p = x ! 2;",
     "ProblemSyntaxError", "unexpected character '!' (line 3, column 12)", 3, 12),
    ("ring Q[x];\n\tpoly p = x;\n\tpoly q = ?;",
     "ProblemSyntaxError", "unexpected character '?' (line 3, column 11)", 3, 11),
    ("ring Q[x, y];\r\nvec f = [x, y];\r\nvec g = [x; y];\r\n",
     "ProblemSyntaxError", "expected ']', found ';' (line 3, column 11)", 3, 11),
    ("ring Q[x, y];\nvec f = [x, y",
     "ProblemSyntaxError", "expected ']', found 'end of input' (line 2, column 14)", 2, 14),
    ("ring Q[x, y];\nvec f = [x, y\n",
     "ProblemSyntaxError", "expected ']', found 'end of input' (line 3, column 1)", 3, 1),
    ("ring Q[x];\nvec f = [x];\n\npoly p = x + z;",
     "UndefinedNameError", "'z' is not a ring variable (line 4)", None, None),
    ("ring Q[x];\nvec f = [x];\nvec g = [x, x];",
     "DimensionMismatchError", "rank 2 at line 3 conflicts with earlier rank 1", None, None),
    ("ring Q[x];\r\nmat M = [[x]];\r\nvec g = [x, 1];\r\n",
     "DimensionMismatchError", "rank 2 at line 3 conflicts with earlier rank 1", None, None),
    ("ring Q[x];\nvec f = [x];\nquery member f in {g};",
     "UndefinedNameError", "name 'g' is not declared", None, None),
    ("ring Q[x];\npoly p = 1/0;",
     "ProblemSyntaxError", "zero denominator (line 2, column 12)", 2, 12),
    ("ring Q[x];\npoly p = x^;",
     "ProblemSyntaxError", "expected 'int', found ';' (line 2, column 12)", 2, 12),
    ("ring Q[x, y];\nquery k-of {g} at (1);",
     "DimensionMismatchError", "point has 1 coordinates, ring has 2 variables", None, None),
]


PINNED_IDS = [
    "bad-char-line-1", "bad-char-line-3", "bad-char-after-comment", "tab-before-token",
    "crlf", "missing-bracket-at-end", "missing-bracket-before-newline", "undefined-variable",
    "rank-conflict", "rank-conflict-crlf", "undeclared-name", "zero-denominator",
    "missing-exponent", "point-length",
]


@pytest.mark.parametrize("text, kind, message, line, column", PINNED_ERRORS, ids=PINNED_IDS)
def test_error_positions_are_pinned(text, kind, message, line, column):
    with pytest.raises(Exception) as err:
        parse_problem(text)
    exc = err.value
    assert (type(exc).__name__, str(exc)) == (kind, message)
    assert (getattr(exc, "line", None), getattr(exc, "column", None)) == (line, column)


@pytest.mark.parametrize("ring, den", [
    ("F7[x]", "7"), ("F7[x]", "14"), ("F3^2[x]", "3"), ("F3^2[x]", "6"),
])
def test_a_denominator_zero_in_the_field_is_a_positioned_syntax_error(ring, den):
    # one rule for every field: the denominator's image in the field is zero
    with pytest.raises(ProblemSyntaxError) as err:
        parse_problem(f"ring {ring};\npoly p = 1/{den}*x;")
    assert str(err.value) == "zero denominator (line 2, column 12)"
    assert (err.value.line, err.value.column) == (2, 12)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_examples_parse_and_round_trip(path):
    problem = parse_problem(path.read_text(encoding="utf-8"))
    assert len(problem.queries) == 1
    printed = format_problem(problem)
    again = parse_problem(printed)
    assert again == problem
    assert format_problem(again) == printed


def _nested(depth):
    return "(" * depth + "x" + ")" * depth


def test_parenthesis_nesting_is_bounded_by_a_positioned_syntax_error():
    # deep nesting once overflowed the recursive descent with a RecursionError
    ring = PolyRing(QQ, ("x",))
    x = ring.variable(0)
    assert parse_polynomial(_nested(100), ring) == x
    assert parse_polynomial("*".join(["(x)"] * 150), ring) == x**150
    assert parse_problem(f"ring Q[x];\npoly f = {_nested(100)};").objects["f"][1] == x
    message = "parentheses nested deeper than 100 levels"
    for depth in (101, 247):
        with pytest.raises(ProblemSyntaxError) as err:
            parse_polynomial(_nested(depth), ring)
        assert str(err.value) == f"{message} (line 1, column 101)"
        with pytest.raises(ProblemSyntaxError) as err:
            parse_problem(f"ring Q[x];\npoly f = {_nested(depth)};")
        assert (err.value.line, err.value.column) == (2, 110)


def test_exponents_and_products_are_bounded_by_positioned_syntax_errors():
    ring = PolyRing(QQ, ("x", "y"))
    x, y = ring.variables()
    at_bound = parse_polynomial(f"2^{MAX_EXPONENT} x^{MAX_EXPONENT}", ring)
    assert at_bound == 2**MAX_EXPONENT * x**MAX_EXPONENT
    with pytest.raises(ProblemSyntaxError) as err:
        parse_polynomial(f"x + 2^{MAX_EXPONENT + 1}", ring)
    assert str(err.value) == f"exponent above {MAX_EXPONENT} (line 1, column 6)"
    # the texts below reach 100 * 100 term pairs, the bound, and cross it
    assert MAX_PRODUCT_TERMS == 10_000
    assert parse_polynomial("(x + 1)^99 (y + 1)^99", ring) == (x + 1) ** 99 * (y + 1) ** 99
    message = f"product of more than {MAX_PRODUCT_TERMS} term pairs"
    # a product of two factors fails at the second factor, a power at its '^'
    for text, column in [("(x + 1)^99 (y + 1)^100", 12), ("(x + y + 1)^40 y", 12)]:
        with pytest.raises(ProblemSyntaxError) as err:
            parse_polynomial(text, ring)
        assert str(err.value) == f"{message} (line 1, column {column})"


# each took from seconds to minutes to parse before powers were bounded;
# (text, error message)
_PRODUCT_ERROR = "product of more than 10000 term pairs (line 2, column {})"
UNBOUNDED_POWERS = [
    ("ring Q[x, y, z];\npoly p = (x + y + z + 1)^40;", _PRODUCT_ERROR.format(25)),
    ("ring Q[x, y, z];\npoly p = (x + y + z + 1)^80;", _PRODUCT_ERROR.format(25)),
    ("ring Q[x, y];\npoly p = " + "(" * 60 + "x + y + 1" + ")^2" * 60 + ";",
     _PRODUCT_ERROR.format(92)),
    ("ring Q[x];\npoly p = 2^1000000000;", "exponent above 10000 (line 2, column 11)"),
]

_TIMED_PARSE = """
import json, sys, time
from semimod.errors import ProblemSyntaxError
from semimod.parser import parse_problem
for text in json.loads(sys.stdin.read()):
    start = time.perf_counter()
    try:
        parse_problem(text)
        outcome = None
    except ProblemSyntaxError as exc:
        outcome = str(exc)
    print(json.dumps([outcome, time.perf_counter() - start]))
"""


def test_unbounded_powers_end_within_a_second_in_a_syntax_error():
    # in a subprocess, so that a parser without the bounds fails the test at
    # the timeout instead of hanging the suite
    src = os.path.dirname(os.path.dirname(semimod.__file__))
    done = subprocess.run(
        [sys.executable, "-c", _TIMED_PARSE],
        input=json.dumps([text for text, _ in UNBOUNDED_POWERS]),
        capture_output=True, text=True, timeout=10, env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 0, done.stderr
    outcomes = [json.loads(line) for line in done.stdout.splitlines()]
    assert [message for message, _ in outcomes] == [message for _, message in UNBOUNDED_POWERS]
    assert all(seconds < 1.0 for _, seconds in outcomes), outcomes


# ---------------------------------------------------------------------------
# term maps against ring arithmetic
# ---------------------------------------------------------------------------

def reference_expression(parser, ring):
    """The expression grammar evaluated with ring arithmetic: every atom is a
    Polynomial and every factor one ``Polynomial.__mul__``.  Patched in for
    ``_Parser.parse_expression``, it reads the parser's token texts and
    raises its errors at the same tokens."""
    tokens = parser.tokens

    def expression():
        negate = parser.at("-")
        if negate:
            parser.pos += 1
        total = term()
        if negate:
            total = -total
        while parser.at("+") or parser.at("-"):
            op = tokens[parser.pos]
            parser.pos += 1
            total = total - term() if op == "-" else total + term()
        return total

    def term():
        product = factor()
        while True:
            tok = tokens[parser.pos]
            if tok == "*":
                parser.pos += 1
            elif not (tok.isidentifier() or tok.isdecimal() or tok == "("):
                return product
            product = product * factor()

    def factor():
        base = atom()
        if parser.at("^"):
            parser.pos += 1
            base = base ** int(parser.integer())
        return base

    def atom():
        index = parser.pos
        tok = tokens[index]
        field = ring.field
        if tok.isdecimal():
            parser.pos += 1
            if not parser.at("/"):
                return ring.const(int(tok))
            parser.pos += 1
            den = field.coerce(int(parser.integer()))
            if field.is_zero(den):
                parser.fail("zero denominator", parser.pos - 1)
            return ring.const(field.div(field.coerce(int(tok)), den))
        if tok.isidentifier():
            parser.pos += 1
            if tok in ring.names:
                return ring.variable(tok)
            if tok == "t" and isinstance(field, QuadraticField):
                return ring.const(field.generator)
            line = parser.position(index)[0]
            raise UndefinedNameError(f"{tok!r} is not a ring variable (line {line})")
        if tok == "(":
            if parser.depth == MAX_PAREN_DEPTH:
                parser.fail(f"parentheses nested deeper than {MAX_PAREN_DEPTH} levels")
            parser.pos += 1
            parser.depth += 1
            inner = expression()
            parser.depth -= 1
            parser.expect(")")
            return inner
        parser.fail("expected a polynomial factor")

    return expression()


def _parse_outcome(text):
    """The parsed objects with their terms in dict order, or the error's
    type, message, line and column."""
    try:
        problem = parse_problem(text)
    except Exception as exc:
        position = getattr(exc, "line", None), getattr(exc, "column", None)
        return type(exc).__name__, str(exc), position

    def terms(value):
        if isinstance(value, Polynomial):
            return list(value.terms.items())
        return [terms(part) for part in value]

    objects = {name: (kind, terms(value)) for name, (kind, value) in problem.objects.items()}
    return problem, objects


def _random_expression(rng, names, depth=0):
    """Sums with unary minus and chained + and -, of products written with
    '*' or by juxtaposition, of numbers, fractions, names and parenthesized
    sums, each maybe with a power."""
    text = "-" if rng.random() < 0.3 else ""
    for i in range(rng.randint(1, 3)):
        if i:
            text += rng.choice([" + ", " - ", "+", "-"])
        for j in range(rng.randint(1, 3)):
            if j:
                text += rng.choice(["*", " * ", " ", " "])
            r = rng.random()
            if r < 0.35:
                factor = str(rng.randint(0, 12))
                if rng.random() < 0.3:
                    factor += f"/{rng.randint(1, 5)}"
            elif r < 0.8 or depth == 3:
                factor = rng.choice(names)
            else:
                factor = f"({_random_expression(rng, names, depth + 1)})"
            if rng.random() < 0.3:
                factor += f"^{rng.randint(0, 3)}"
            text += factor
    return text


def _nested_expression(rng, depth):
    """``depth`` levels of parentheses, each maybe with a power or a factor."""
    text = "x - 1"
    for _ in range(depth):
        wrap = rng.choice(["({})", "({})^1", "y({})", "({})*2", "(-{} + 1)", "(2/3{})"])
        text = wrap.format(text)
    return text


def _expression_problems(rng, count):
    texts = []
    # over F3^2[x, y] the name t is the field generator, over F3^2[x, t] a
    # variable
    for ring in ("Q[x, y]", "F7[x, y]", "F3^2[x, y]", "F3^2[x, t]"):
        names = ["x", "y", "t"] if ring == "F3^2[x, y]" else ["x", ring[-2]]
        for _ in range(count):
            exprs = [_random_expression(rng, names) for _ in range(3)]
            texts.append(
                f"ring {ring};\npoly p = {exprs[0]};\nvec v = [{exprs[1]}, {exprs[2]}];\n"
                "query member v in {v};\n"
            )
    return texts


def test_term_maps_match_ring_arithmetic(monkeypatch):
    rng = random.Random(16)
    texts = _expression_problems(rng, 60)
    texts += list(_mutations(texts, 1000, seed=16))
    texts += [
        f"ring Q[x, y];\npoly p = {_nested_expression(rng, depth)};\n"
        for depth in (1, 7, MAX_PAREN_DEPTH - 1, MAX_PAREN_DEPTH, MAX_PAREN_DEPTH + 1)
    ]
    # a monomial that cancels and comes back goes last
    texts += [
        "ring Q[x, y];\npoly p = x + y - x + x;",
        "ring F7[x, y];\npoly p = (x + y)(x - y) + y^2 + 2x y + y^2;",
    ]
    parsed = [_parse_outcome(text) for text in texts]
    monkeypatch.setattr(_Parser, "parse_expression", reference_expression)
    kinds = set()
    for text, outcome in zip(texts, parsed):
        expected = _parse_outcome(text)
        assert outcome == expected, text
        kinds.add("parsed" if isinstance(expected[0], ProblemFile) else expected[0])
    assert {"parsed", "ProblemSyntaxError", "UndefinedNameError"} <= kinds
