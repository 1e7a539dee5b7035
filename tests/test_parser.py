"""The tokenizer against its earlier line-tracking form, error positions, and
round trips of the shipped examples."""

import ast
import random
import re
from dataclasses import dataclass
from pathlib import Path

import pytest

from conftest import random_generators, random_vector

from semimod.errors import ProblemSyntaxError
from semimod.fields import QQ, PrimeField, QuadraticField
from semimod.parser import (
    ProblemFile,
    Query,
    format_problem,
    line_column,
    parse_polynomial,
    parse_problem,
    tokenize,
)
from semimod.poly import PolyRing

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
    kind: str
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
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(ReferenceToken(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(ReferenceToken("eof", "", line, col))
    return tokens


def _outcome(tokenizer, text):
    try:
        return tokenizer(text), None
    except ProblemSyntaxError as exc:
        return None, (str(exc), exc.line, exc.column)


def assert_same_tokens(text):
    ref, ref_error = _outcome(reference_tokenize, text)
    new, new_error = _outcome(tokenize, text)
    assert new_error == ref_error, text
    if ref is None:
        return
    assert [(t.kind, t.text) for t in new] == [(t.kind, t.text) for t in ref], text
    assert [line_column(text, t.offset) for t in new] == [(t.line, t.column) for t in ref], text


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


def test_tokenize_matches_reference_on_test_problem_texts(twisted_pair, twisted_pair_f3):
    pairs = [(p.ring, p.generators) for p in (twisted_pair, twisted_pair_f3)]
    texts = _test_file_texts() + _printed_problems(pairs)
    assert len(texts) > 40
    for text in texts:
        assert_same_tokens(text)


def test_tokenize_matches_reference_on_mutations(twisted_pair):
    texts = [p.read_text(encoding="utf-8") for p in EXAMPLES]
    texts += _printed_problems([(twisted_pair.ring, twisted_pair.generators)])
    for text in _mutations(texts, 2000, seed=7):
        assert_same_tokens(text)


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
