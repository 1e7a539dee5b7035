import json
import os
import random
import subprocess
import sys

import pytest

from conftest import random_polynomial, random_vector

import semimod
from semimod.cli import build_arg_parser, main
from semimod.closure import radical_member
from semimod.errors import (
    DimensionMismatchError,
    ProblemSyntaxError,
    UndefinedNameError,
)
from semimod.fields import QQ, PrimeField, QuadraticField
from semimod.groebner import ideal_member
from semimod.matrixideals import matrix_semiprime_member
from semimod.oracle import oracle_check
from semimod.parser import (
    MAX_INTEGER_DIGITS,
    QUERY_KINDS,
    format_problem,
    parse_polynomial,
    parse_problem,
)
from semimod.poly import PolyRing

TWISTED_PAIR_PROBLEM = """\
# submodule generated by (x^2, xy) and (xy, y^2) over Q[x, y]
ring Q[x, y];
vec g1 = [x^2, x*y];
vec g2 = [x*y, y^2];
vec f = [x, y];
query {query} f in {{g1, g2}};
"""

REFUTE_WEAK_PROBLEM = (
    "ring Q[x, y];\n"
    "vec g1 = [x^2, 0];\n"
    "poly r = x;\n"
    "vec m = [1, 0];\n"
    "query refute-weak r, m in {g1};"
)

# G(a)v = 0 needs a = 0 and v = (1, 0), or a = 1 and v = (0, 1); F swaps
# the coordinates, so F(a)v != 0 at both, and the first in scan order is 0
MATRIX_F5_PROBLEM = """\
ring F5[x];
mat G = [[x, 0], [0, x - 1]];
mat F = [[0, 1], [1, 0]];
query matrix-semiprime-member F in {G};
"""


def write(tmp_path, text, name="problem.sm"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_twisted_pair_fixture():
    problem = parse_problem(TWISTED_PAIR_PROBLEM.format(query="semiprime-member"))
    assert set(problem.objects) == {"g1", "g2", "f"}
    assert len(problem.queries) == 1
    assert problem.queries[0].kind == "semiprime-member"
    assert problem.rank == 2


def test_parse_error_carries_position():
    with pytest.raises(ProblemSyntaxError) as err:
        parse_problem("ring Q[x, y];\nvec f = [x, y")
    assert err.value.line == 2


def test_undefined_name():
    with pytest.raises(UndefinedNameError):
        parse_problem("ring Q[x];\nvec f = [x];\nquery member f in {g};")


def test_rank_mismatch():
    with pytest.raises(DimensionMismatchError):
        parse_problem("ring Q[x];\nvec f = [x];\nvec g = [x, x];")


def test_juxtaposition_and_fractions():
    from fractions import Fraction

    ring = PolyRing(QQ, ("x", "y"))
    f = parse_polynomial("2x^2y - 1/2", ring)
    x, y = ring.variables()
    assert f == (x**2 * y).scale(2) - ring.const(Fraction(1, 2))


def test_extension_scalars_parse():
    ring = PolyRing(QuadraticField(3), ("x",))
    f = parse_polynomial("(1+2*t)*x + t", ring)
    assert str(f) == "(1+2*t)*x + t"


def test_finite_field_ring_roundtrip():
    problem = parse_problem("ring F3[x]; vec f = [x^3];")
    text = format_problem(problem)
    again = parse_problem(text)
    assert again.objects["f"][1] == problem.objects["f"][1]
    assert format_problem(again) == text


def test_print_parse_fixpoint_on_random_objects():
    rng = random.Random(191)
    for field in (QQ, PrimeField(5), QuadraticField(3)):
        ring = PolyRing(field, ("x", "y"))
        for _ in range(25):
            f = random_polynomial(rng, ring, max_degree=3, max_terms=4)
            assert parse_polynomial(str(f), ring) == f
        for _ in range(10):
            v = random_vector(rng, ring, 3)
            problem = parse_problem(f"ring {'Q' if field is QQ else repr(field)}[x, y];\nvec v = {v};")
            assert problem.objects["v"][1] == v


def test_quadratic_extension_random_roundtrip():
    rng = random.Random(193)
    field = QuadraticField(3)
    ring = PolyRing(field, ("x", "y"))
    for _ in range(25):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = (rng.randint(0, 2), rng.randint(0, 2))
            terms[exps] = (rng.randrange(3), rng.randrange(3))
        from semimod.poly import Polynomial

        f = Polynomial(ring, {m: c for m, c in terms.items() if c != (0, 0)})
        assert parse_polynomial(str(f), ring) == f


# ---------------------------------------------------------------------------
# CLI runs
# ---------------------------------------------------------------------------

def test_cli_member_non_member(tmp_path, capsys):
    path = write(tmp_path, TWISTED_PAIR_PROBLEM.format(query="member"))
    code, report = run(capsys, "member", path)
    assert code == 1
    assert report["schema"] == 1
    assert report["member"] is False


def test_cli_semiprime_member(tmp_path, capsys):
    path = write(tmp_path, TWISTED_PAIR_PROBLEM.format(query="semiprime-member"))
    code, report = run(capsys, "semiprime-member", path)
    assert code == 0
    assert report["member"] is True
    assert report["guarantee"] == "extension-stable"


def test_cli_malformed_file(tmp_path, capsys):
    path = write(tmp_path, "ring Q[x];\nvec f = [x")
    code, report = run(capsys, "member", path)
    assert code == 2
    assert report["error"]["type"] == "SyntaxError"


def test_cli_deep_nesting_is_a_syntax_error(tmp_path, capsys):
    # 400 levels once escaped as a RecursionError with exit code 1
    nested = "(" * 400 + "x" + ")" * 400
    path = write(tmp_path, f"ring Q[x];\npoly f = {nested};\nquery member f in {{f}};\n")
    code, report = run(capsys, "member", path)
    assert code == 2
    assert report["error"]["type"] == "SyntaxError"
    assert (report["error"]["line"], report["error"]["column"]) == (2, 110)


_DIGITS = "7" * 5000


@pytest.mark.parametrize(
    "body, column",
    [
        (f"poly p = x^{_DIGITS};\nquery radical-member p in {{p}};", 12),
        (f"poly p = {_DIGITS} x;\nquery radical-member p in {{p}};", 10),
        (f"poly p = 1/{_DIGITS} x;\nquery radical-member p in {{p}};", 12),
        (f"vec g = [x];\nquery k-of {{g}} at ({_DIGITS});", None),
    ],
    ids=["exponent", "coefficient", "denominator", "point"],
)
def test_cli_overlong_integer_literal_is_a_syntax_error(tmp_path, capsys, body, column):
    # int() refuses more than 4,300 digits, which once escaped as an
    # untyped "Error" report
    path = write(tmp_path, f"ring Q[x];\n{body}\n")
    command = body.split("query ")[1].split()[0]
    code, report = run(capsys, command, path)
    assert code == 2
    assert report["error"]["type"] == "SyntaxError"
    assert report["error"]["message"].startswith(
        f"integer literal of more than {MAX_INTEGER_DIGITS} digits"
    )
    # at the literal: in the problem's second line, or the point's in its third
    where = (2, column) if column else (3, 20)
    assert (report["error"]["line"], report["error"]["column"]) == where


@pytest.mark.parametrize(
    "command, body",
    [
        ("member", "poly p = 9^10000 x;\npoly q = x;\nquery member p in {q};"),
        (
            "semiprime-member",
            "vec p = [9^10000 x, 0];\nvec q = [x, 0];\nquery semiprime-member p in {q};",
        ),
    ],
    ids=["member", "semiprime-member"],
)
def test_cli_overlong_printed_coefficient_is_a_resource_limit(tmp_path, capsys, command, body):
    # str() refuses more than 4,300 digits, so a certificate cofactor of
    # 9^10000 (9,543 digits) once escaped as an untyped "Error" report
    code, report = run(capsys, command, write(tmp_path, f"ring Q[x];\n{body}\n"))
    assert code == 2
    assert report["error"] == {
        "type": "ResourceLimitExceeded",
        "message": f"a coefficient of more than {MAX_INTEGER_DIGITS} digits cannot be printed",
    }


@pytest.mark.parametrize("exponent, prints", [(4299, True), (4300, False)])
def test_cli_printing_bound_is_the_literal_bound(tmp_path, capsys, exponent, prints):
    # 10^4299 has 4,300 digits, the longest literal the parser reads back
    body = f"poly p = 10^{exponent} x;\npoly q = x;\nquery member p in {{q}};"
    code, report = run(capsys, "member", write(tmp_path, f"ring Q[x];\n{body}\n"))
    if prints:
        assert code == 0
        assert report["certificate"]["cofactors"] == [str(10**exponent)]
    else:
        assert code == 2
        assert report["error"]["type"] == "ResourceLimitExceeded"


def test_cli_missing_file(capsys):
    code, report = run(capsys, "member", "/nonexistent/problem.sm")
    assert code == 2


def test_cli_wrong_subcommand_for_query(tmp_path, capsys):
    path = write(tmp_path, TWISTED_PAIR_PROBLEM.format(query="member"))
    code, report = run(capsys, "semiprime-member", path)
    assert code == 2


def test_cli_order_flag_does_not_change_verdicts(tmp_path, capsys):
    for query in ("member", "semiprime-member"):
        path = write(tmp_path, TWISTED_PAIR_PROBLEM.format(query=query))
        code_top, report_top = run(capsys, query, path, "--order", "top")
        code_pot, report_pot = run(capsys, query, path, "--order", "pot")
        assert code_top == code_pot
        assert report_top["member"] == report_pot["member"]


def test_cli_radical_member(tmp_path, capsys):
    text = "ring Q[x, y];\npoly p = x;\npoly q = x^2;\nquery radical-member p in {q};"
    path = write(tmp_path, text)
    code, report = run(capsys, "radical-member", path)
    assert code == 0 and report["member"] is True


def _radical_corpus(rng, ring, rounds=6):
    """Seeded ideal problems ``(p, generators)`` over ``ring``: zero
    generators, p = 0, p in I as a combination, p in the radical as
    bench's radical-power category builds it (p^2 = (p^2 - h*w) + w*h), and
    random p."""
    zero = ring.zero()
    corpus = []
    for _ in range(rounds):
        g1, g2, a, b, h, w, p, q = (random_polynomial(rng, ring) for _ in range(8))
        corpus += [
            (q, [zero]),
            (zero, [g1, g2]),
            (a * g1 + b * g2, [g1, zero, g2]),
            (p, [p * p - h * w, h]),
            (q, [g1, g2]),
        ]
    return corpus


@pytest.mark.parametrize(
    "name, field", [("Q", QQ), ("F7", PrimeField(7)), ("F101", PrimeField(101))],
    ids=["Q", "F7", "F101"],
)
def test_cli_radical_member_reports_carry_checked_evidence(tmp_path, capsys, name, field):
    # a radical-member report is the rank-1 closure decision's: its verdict
    # is the Rabinowitsch test's, its cofactors recombine to p over the
    # nonzero generators, and its witness is a zero of every generator
    # where p does not vanish, each re-checked with Polynomial arithmetic
    ring = PolyRing(field, ("x", "y"))
    seen = set()
    for p, gens in _radical_corpus(random.Random(f"radical:{name}"), ring):
        names = [f"g{j}" for j in range(1, len(gens) + 1)]
        text = (
            f"ring {name}[x, y];\n"
            + "".join(f"poly {n} = {g};\n" for n, g in zip(names, gens))
            + f"poly p = {p};\nquery radical-member p in {{{', '.join(names)}}};"
        )
        code, report = run(capsys, "radical-member", write(tmp_path, text))
        member, method = report["member"], report["method"]
        assert member is radical_member(p, gens) and code == (0 if member else 1)
        certificate, witness = report["certificate"], report["witness"]
        assert (certificate is not None) == (method == "cofactor")
        if certificate is not None:
            nonzero = [g for g in gens if not g.is_zero()]
            cofactors = [parse_polynomial(c, ring) for c in certificate["cofactors"]]
            assert len(cofactors) == len(nonzero)
            assert sum((c * g for c, g in zip(cofactors, nonzero)), ring.zero()) == p
        if witness is not None:
            assert not member
            point = [field.coerce(int(c)) for c in witness["point"]]
            assert all(field.is_zero(g.evaluate_raw(point)) for g in gens)
            assert not field.is_zero(p.evaluate_raw(point))
            assert [field.is_zero(field.coerce(int(c))) for c in witness["vector"]] == [False]
        if field.char == 0:  # a rational witness decides; none is searched after
            assert (witness is not None) == (method == "witness")
        seen.add((member, method, witness is not None))
    negative = (False, "witness", True) if field.char == 0 else (False, "radical", True)
    assert {(True, "cofactor", False), (True, "radical", False), negative} <= seen


def test_cli_refute_semiprime(tmp_path, capsys):
    path = write(tmp_path, TWISTED_PAIR_PROBLEM.format(query="refute-semiprime"))
    code, report = run(capsys, "refute-semiprime", path)
    assert code == 1
    assert report["witness_found"] is True


def test_cli_refute_weak(tmp_path, capsys):
    text = (
        "ring Q[x, y];\n"
        "vec g1 = [x^2, 0];\n"
        "poly r = x;\n"
        "vec m = [1, 0];\n"
        "query refute-weak r, m in {g1};"
    )
    path = write(tmp_path, text)
    code, report = run(capsys, "refute-weak", path)
    assert code == 1
    assert report["witness"]["scalar"] == "x"


def test_cli_k_of(tmp_path, capsys):
    text = (
        "ring Q[x, y];\n"
        "vec g1 = [x^2, x*y];\n"
        "vec g2 = [x*y, y^2];\n"
        "query k-of {g1, g2} at (1, 2);"
    )
    path = write(tmp_path, text)
    code, report = run(capsys, "k-of", path)
    assert code == 0
    assert report["improper"] is False
    assert report["span"] == [["1", "2"]]


@pytest.mark.parametrize(
    "text, span, scaled",
    [
        (
            "ring Q[x, y];\nvec g = [x, 3/2*y];\nquery k-of {g} at (2, 1);",
            [["1", "3/4"]],
            ["[4, 3]"],
        ),
        (
            "ring Q[x, y];\nvec g1 = [x, 1/3, y];\nvec g2 = [-x, 1/2, 0];\n"
            "query k-of {g1, g2} at (1, 1);",
            [["1", "0", "3/5"], ["0", "1", "6/5"]],
            ["[5, 0, 3]", "[0, 5, 6]"],
        ),
    ],
    ids=["rank-2", "rank-3"],
)
def test_cli_k_of_scales_fractional_spans(tmp_path, capsys, text, span, scaled):
    # the span is the echelon basis; its pullback generators are primitive
    # integer vectors with a positive lead
    code, report = run(capsys, "k-of", write(tmp_path, text))
    assert code == 0
    assert report["span"] == span
    rank = len(span[0])
    assert report["generators"][2 * rank:] == scaled


def test_cli_oracle(tmp_path, capsys):
    path = write(tmp_path, TWISTED_PAIR_PROBLEM.format(query="oracle"))
    code, report = run(capsys, "oracle", path, "--field", "3")
    assert code == 0
    assert report["pass"] is True
    assert report["reports"][0]["field"] == "F3"


def test_cli_matrix_semiprime(tmp_path, capsys):
    # over F7 the failing row reaches the radical test, whose pairs the
    # counters include; over Q the query's grid witness decides it first,
    # so the counters are those of plain membership alone
    for ring, radical in [("F7", True), ("Q", False)]:
        text = (
            f"ring {ring}[x];\n"
            "mat G = [[x, 0], [0, x]];\n"
            "mat F = [[1, 0], [0, 1]];\n"
            "query matrix-semiprime-member F in {G};"
        )
        path = write(tmp_path, text)
        code, report = run(capsys, "matrix-semiprime-member", path)
        assert code == 1
        assert report["member"] is False
        assert report["witness"]["point"] == ["0"]
        assert (report["counters"]["pairs_processed"] > 0) == radical


def test_cli_matrix_witness_is_the_oracles_first_counterexample(tmp_path, capsys):
    # the witness is F's first violation, not the first of the row that
    # failed the decision: row 1 of F alone first fails at a = 1
    problem = parse_problem(MATRIX_F5_PROBLEM)
    F, G = problem.objects["F"][1], problem.objects["G"][1]
    expected = oracle_check(F, [G], PrimeField(5)).counterexample
    assert expected.as_json() == {"point": ["0"], "vector": ["1", "0"]}
    code, report = run(capsys, "matrix-semiprime-member", write(tmp_path, MATRIX_F5_PROBLEM))
    assert code == 1 and report["member"] is False
    assert report["witness"] == expected.as_json()
    # the library's verdict carries the same point the report prints
    assert matrix_semiprime_member(F, [G]).witness == expected


def test_cli_quadratic_extension_pipeline(tmp_path, capsys):
    text = (
        "ring F3^2[x];\n"
        "vec g = [(1+2*t)*x^2];\n"
        "vec f = [t*x];\n"
        "query semiprime-member f in {g};"
    )
    path = write(tmp_path, text)
    code, report = run(capsys, "semiprime-member", path)
    assert code == 0
    assert report["member"] is True
    assert report["guarantee"] == "sound-only"


def test_query_formats_round_trip():
    text = (
        "ring Q[x, y];\n"
        "vec g1 = [x^2, x*y];\n"
        "poly r = x;\n"
        "vec m = [1, 0];\n"
        "query k-of {g1} at (-1, 1/2);\n"
        "query refute-weak r, m in {g1};\n"
    )
    problem = parse_problem(text)
    printed = format_problem(problem)
    again = parse_problem(printed)
    assert [q.kind for q in again.queries] == ["k-of", "refute-weak"]
    assert [str(c) for c in again.queries[0].args["point"]] == ["-1", "1/2"]
    assert format_problem(again) == printed


def test_cli_run_batch(tmp_path, capsys):
    text = (
        "ring Q[x, y];\n"
        "vec g1 = [x^2, x*y];\n"
        "vec g2 = [x*y, y^2];\n"
        "vec f = [x, y];\n"
        "query member f in {g1, g2};\n"
        "query semiprime-member f in {g1, g2};\n"
    )
    path = write(tmp_path, text)
    code = main(["run", path])
    out = json.loads(capsys.readouterr().out)
    assert isinstance(out, list) and len(out) == 2
    assert out[0]["member"] is False
    assert out[1]["member"] is True
    assert code == 1  # worst of the two


def test_cli_oracle_cross_check_flag(tmp_path, capsys):
    path = write(tmp_path, TWISTED_PAIR_PROBLEM.format(query="semiprime-member"))
    code, report = run(capsys, "semiprime-member", path, "--oracle")
    assert code == 0
    assert report["oracle"]["result"] == "pass"


def test_cli_ideal_membership(tmp_path, capsys):
    text = "ring Q[x];\npoly f = x^3;\npoly g = x^2;\nquery member f in {g};"
    path = write(tmp_path, text)
    code, report = run(capsys, "member", path)
    assert code == 0 and report["member"] is True
    assert report["certificate"]["cofactors"] == ["x"]
    # an ideal query is decided as its rank-1 vectors: the verdict and the
    # counters are ideal_member's, and the cofactors recombine to p over
    # the nonzero generators
    for name, field in [("Q", QQ), ("F7", PrimeField(7)), ("F101", PrimeField(101))]:
        ring = PolyRing(field, ("x", "y"))
        seen = set()
        for p, gens in _radical_corpus(random.Random(f"member:{name}"), ring, rounds=3):
            names = [f"g{j}" for j in range(1, len(gens) + 1)]
            text = (
                f"ring {name}[x, y];\n"
                + "".join(f"poly {n} = {g};\n" for n, g in zip(names, gens))
                + f"poly p = {p};\nquery member p in {{{', '.join(names)}}};"
            )
            code, report = run(capsys, "member", write(tmp_path, text))
            expected = ideal_member(p, gens)
            assert report["member"] is expected.member and code == (0 if expected.member else 1)
            assert report["counters"] == expected.stats
            certificate = report["certificate"]
            assert (certificate is not None) == expected.member
            if certificate is not None:
                nonzero = [g for g in gens if not g.is_zero()]
                cofactors = [parse_polynomial(c, ring) for c in certificate["cofactors"]]
                assert len(cofactors) == len(nonzero)
                assert sum((c * g for c, g in zip(cofactors, nonzero)), ring.zero()) == p
            seen.add(expected.member)
        assert seen == {True, False}


def test_cli_invalid_field_flag(tmp_path, capsys):
    path = write(tmp_path, TWISTED_PAIR_PROBLEM.format(query="oracle"))
    code, report = run(capsys, "oracle", path, "--field", "4")
    assert code == 2
    assert "prime" in report["error"]["message"]


def test_cli_oracle_keeps_the_characteristic_of_a_prime_field_problem(tmp_path, capsys):
    # f = (x^2 + 1)(x^2 + x + 2) over F3; read as integers in F5 it is no
    # multiple of g1, which once gave a false counterexample at x = 2
    text = (
        "ring F3[x];\n"
        "vec g1 = [x^2 + 1];\n"
        "vec f = [x^4 + x^3 + x + 2];\n"
        "query {query} f in {{g1}};"
    )
    path = write(tmp_path, text.format(query="semiprime-member"))
    code, report = run(capsys, "semiprime-member", path)
    assert code == 0 and report["certificate"]["cofactors"] == ["x^2 + x + 2"]
    path = write(tmp_path, text.format(query="oracle"), name="oracle.sm")
    code, report = run(capsys, "oracle", path)
    assert code == 0 and report["pass"] is True
    assert [r["field"] for r in report["reports"]] == ["F3", "F3^2"]
    code, report = run(capsys, "oracle", path, "--field", "5")
    assert code == 2 and report["error"]["type"] == "MismatchedField"


def test_cli_oracle_field_of_a_subfield_is_an_error(tmp_path, capsys):
    text = (
        "ring F3^2[x];\nvec g1 = [x + t];\nvec f = [x^2 + 1];\n"
        "query oracle f in {g1};"
    )
    code, report = run(capsys, "oracle", write(tmp_path, text), "--field", "3")
    assert code == 2 and report["error"]["type"] == "MismatchedField"


def test_cli_cross_check_runs_in_the_problem_field(tmp_path, capsys):
    text = (
        "ring F7[x];\nvec g1 = [x + 1];\nvec f = [x^2 + 6];\n"
        "query semiprime-member f in {g1};"
    )
    path = write(tmp_path, text)
    code, report = run(capsys, "semiprime-member", path, "--oracle")
    assert code == 0 and report["certificate"]["cofactors"] == ["x + 6"]
    assert report["oracle"]["field"] == "F7"
    assert report["oracle"]["result"] == "pass"


@pytest.mark.parametrize(
    "command, basis_size", [("member", 0), ("semiprime-member", 1)]
)
def test_cli_counts_all_zero_generators_like_any_basis(tmp_path, capsys, command, basis_size):
    # the empty basis reports the four counters; semiprime-member adds its
    # radical phase, the one-element basis of 1 - t*f.v (over F7, where the
    # radical test decides negatives; over Q a grid witness would)
    text = f"ring F7[x, y];\nvec z = [0, 0];\nvec f = [x, y];\nquery {command} f in {{z}};"
    code, report = run(capsys, command, write(tmp_path, text))
    assert code == 1 and report["member"] is False
    assert report["counters"] == {
        "pairs_processed": 0, "pairs_skipped": 0, "zero_reductions": 0,
        "basis_size": basis_size,
    }


def test_cli_resource_cap_is_an_error(tmp_path, capsys):
    path = write(tmp_path, TWISTED_PAIR_PROBLEM.format(query="semiprime-member"))
    code, report = run(capsys, "semiprime-member", path, "--max-pairs", "1")
    assert code == 2
    assert report["error"]["type"] == "ResourceLimitExceeded"


@pytest.mark.parametrize(
    "command, query", [("refute-semiprime", "refute-semiprime"), ("refute-weak", "refute-weak r,")]
)
def test_cli_refutations_run_under_the_caps(tmp_path, capsys, command, query):
    # under the default caps refute-semiprime exits 1 and refute-weak 0
    text = TWISTED_PAIR_PROBLEM.format(query=query).replace("vec f", "poly r = x;\nvec f")
    code, report = run(capsys, command, write(tmp_path, text), "--max-pairs", "0")
    assert code == 2
    assert report["error"]["type"] == "ResourceLimitExceeded"


@pytest.mark.parametrize("flag", ["--max-pairs", "--max-degree", "--cap"])
def test_cli_rejects_a_negative_cap(tmp_path, capsys, flag):
    path = write(tmp_path, TWISTED_PAIR_PROBLEM.format(query="semiprime-member"))
    code, report = run(capsys, "semiprime-member", path, flag, "-1")
    assert code == 2
    assert report["error"]["type"] == "Error"
    assert "must be non-negative, got -1" in report["error"]["message"]


def test_reports_validate_against_schema(tmp_path, capsys):
    # one report of every command, positive and negative closure verdicts
    # with their witnesses, a batch and an error
    jsonschema = pytest.importorskip("jsonschema")
    import pathlib

    schema = json.loads(
        (pathlib.Path(__file__).parent.parent / "docs" / "schema.json").read_text()
    )
    negative = TWISTED_PAIR_PROBLEM.format(query="semiprime-member").replace(
        "vec f = [x, y]", "vec f = [1, 0]"
    )
    batch = TWISTED_PAIR_PROBLEM.format(query="member") + (
        "query semiprime-member f in {g1, g2};\nquery k-of {g1, g2} at (1, 2);\n"
    )
    cases = [
        ("member", TWISTED_PAIR_PROBLEM.format(query="member"), ()),
        ("semiprime-member", TWISTED_PAIR_PROBLEM.format(query="semiprime-member"), ("--oracle",)),
        ("semiprime-member", negative, ("--oracle",)),
        ("radical-member", "ring Q[x, y];\npoly p = x;\npoly q = x^2;\nquery radical-member p in {q};",
         ("--oracle",)),
        ("matrix-semiprime-member", MATRIX_F5_PROBLEM, ("--oracle",)),
        ("refute-semiprime", TWISTED_PAIR_PROBLEM.format(query="refute-semiprime"), ()),
        ("refute-weak", REFUTE_WEAK_PROBLEM, ()),
        ("k-of", "ring Q[x, y];\nvec g1 = [x^2, x*y];\nquery k-of {g1} at (1, 2);", ()),
        ("oracle", TWISTED_PAIR_PROBLEM.format(query="oracle"), ()),
        ("run", batch, ()),
        ("member", "ring Q[x];\nvec broken = [x", ()),
    ]
    witnesses = 0
    for command, text, extra in cases:
        _, report = run(capsys, command, write(tmp_path, text), *extra)
        jsonschema.validate(report, schema)
        witnesses += isinstance(report, dict) and bool(report.get("witness"))
    # the point witnesses of both closure negatives and the two refutations
    assert witnesses == 4


def test_report_schema_is_stable(tmp_path, capsys):
    path = write(tmp_path, TWISTED_PAIR_PROBLEM.format(query="semiprime-member"))
    _, report = run(capsys, "semiprime-member", path)
    assert sorted(report) == [
        "certificate",
        "command",
        "counters",
        "guarantee",
        "member",
        "method",
        "order",
        "schema",
        "timing_ms",
        "witness",
    ]
    # a matrix query is decided by the same closure decision, so its report
    # has the same fields; a matrix verdict carries no flat cofactor list
    _, matrix = run(capsys, "matrix-semiprime-member", write(tmp_path, MATRIX_F5_PROBLEM))
    assert sorted(matrix) == sorted(report)
    assert matrix["method"] == "radical" and matrix["certificate"] is None
    # an ideal is the rank-1 case: a radical-member report has them too
    text = "ring Q[x, y];\npoly p = x;\npoly q = x^2;\nquery radical-member p in {q};"
    _, radical = run(capsys, "radical-member", write(tmp_path, text))
    assert sorted(radical) == sorted(report)


def test_cli_witness_search_is_lazy_over_a_huge_field(tmp_path):
    # the witness sits at the first of 2147483629^2 points; listing the
    # field before the first point would never finish
    path = write(tmp_path, """\
ring F2147483629[x, y];
vec g = [x, 0];
vec f = [0, 1];
query semiprime-member f in {g};
""")
    src = os.path.dirname(os.path.dirname(semimod.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "semimod", "semiprime-member", path],
        capture_output=True, text=True, timeout=20, env=env,
    )
    assert done.returncode == 1
    report = json.loads(done.stdout)
    assert report["member"] is False
    assert report["witness"] == {"point": ["0", "0"], "vector": ["0", "1"]}


def test_cli_witness_search_stops_at_its_own_budget(tmp_path):
    # no witness exists before x = 5000000; the search must give up after
    # its own small budget rather than the oracle's 10^6 points
    path = write(tmp_path, """\
ring F2147483629[x];
vec g = [x - 5000000];
vec f = [1];
query semiprime-member f in {g};
""")
    src = os.path.dirname(os.path.dirname(semimod.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "semimod", "semiprime-member", path],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert done.returncode == 1
    report = json.loads(done.stdout)
    assert report["member"] is False
    assert report["witness"] is None


def test_cli_quadratic_extension_of_a_large_prime_answers(tmp_path):
    # declaring F_{p^2} must not try every element of F_p as a root
    path = write(tmp_path, """\
ring F2147483629^2[x];
vec g = [x + t];
vec f = [x^2 - t^2];
query member f in {g};
""")
    src = os.path.dirname(os.path.dirname(semimod.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "semimod", "member", path],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert done.returncode == 0
    report = json.loads(done.stdout)
    assert report["member"] is True
    assert report["certificate"]["cofactors"] == ["x + 2147483628*t"]


_TIMED_MAIN = """\
import sys, time
from semimod.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(time.perf_counter() - start, file=sys.stderr)
sys.exit(code)
"""


def test_cli_rank_10_oracle_ends_within_a_second(tmp_path):
    # the minor of the first 10 generator rows once took 156 s to expand by
    # cofactors before the first of the 49 points; --cap does not bound it
    rng = random.Random(10)

    def linear():
        return f"{rng.randrange(7)}*x + {rng.randrange(7)}*y + {rng.randrange(7)}"

    rows = [", ".join(linear() for _ in range(10)) for _ in range(10)]
    # f = g0 holds at every point, so the scan visits all 49
    lines = ["ring F7[x, y];", f"vec f = [{rows[0]}];"]
    lines += [f"vec g{i} = [{row}];" for i, row in enumerate(rows)]
    lines.append(f"query oracle f in {{{', '.join(f'g{i}' for i in range(10))}}};")
    path = write(tmp_path, "\n".join(lines) + "\n")
    src = os.path.dirname(os.path.dirname(semimod.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _TIMED_MAIN, "oracle", path, "--cap", "100"],
        capture_output=True, text=True, timeout=10, env=env,
    )
    report = json.loads(done.stdout)
    if done.returncode == 2:
        assert report["error"]["type"] == "EnumerationCapExceeded"
    else:
        assert report["reports"][0]["points"] == 49
    assert float(done.stderr) < 1.0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", sorted(QUERY_KINDS) + ["run"])
def test_every_query_kind_is_a_command(command):
    args = build_arg_parser().parse_args([command, "problem.sm"])
    assert args.command == command and args.file == "problem.sm"


def test_flags_may_come_before_or_after_the_command():
    parser = build_arg_parser()
    before = parser.parse_args(["--order", "pot", "member", "problem.sm"])
    after = parser.parse_args(["member", "problem.sm", "--order", "pot"])
    assert vars(before) == vars(after)
    assert before.order == "pot"


def test_main_builds_the_parser_once(tmp_path, capsys, monkeypatch):
    built = []

    def counting():
        built.append(1)
        return build_arg_parser()

    path = write(tmp_path, TWISTED_PAIR_PROBLEM.format(query="member"))
    monkeypatch.setattr(semimod.cli, "build_arg_parser", counting)
    semimod.cli._arg_parser.cache_clear()
    try:
        assert run(capsys, "member", path)[0] == 1
        assert run(capsys, "member", path, "--order", "pot")[0] == 1
    finally:
        semimod.cli._arg_parser.cache_clear()
    assert built == [1]


def test_unknown_command_exits_with_status_2(tmp_path, capsys):
    path = write(tmp_path, TWISTED_PAIR_PROBLEM.format(query="member"))
    with pytest.raises(SystemExit) as exit_info:
        main(["membership", path])
    assert exit_info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    for command in sorted(QUERY_KINDS) + ["run"]:
        assert f"\n  {command} " in out


def test_cli_closed_stdout_exits_2_without_a_traceback(tmp_path):
    # a reader that goes away (`semimod run FILE | head -1`) must not turn
    # into a second report, a traceback and the non-member exit code
    # two negative queries: f = (x, y) is not in N
    path = write(tmp_path, TWISTED_PAIR_PROBLEM.format(query="member")
                 + "query member f in {g1};\n")
    src = os.path.dirname(os.path.dirname(semimod.__file__))
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child starts, so before it writes
    try:
        child = subprocess.Popen(
            [sys.executable, "-m", "semimod", "run", path],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
    finally:
        os.close(write_end)
    _, stderr = child.communicate(timeout=20)
    assert child.returncode == 2, stderr
    assert "Traceback" not in stderr


TWISTED = "vec g1 = [x^2, x*y];\nvec g2 = [x*y, y^2];\n"
# (x^2 - 2)*Q[x, y]^2 vanishes at no rational point, so no grid witness
IRRATIONAL = "vec g1 = [x^2 - 2, 0];\nvec g2 = [0, x^2 - 2];\n"
# the left ideal of the matrices whose rows lie in the twisted submodule;
# the first row of E11 = [[1, 0], [0, 0]] is (1, 0), outside its closure
TWISTED_MATRICES = "mat g1 = [[x^2, x*y], [0, 0]];\nmat g2 = [[x*y, y^2], [0, 0]];\n"
E11 = "mat f = [[1, 0], [0, 0]];"
# an ideal is the rank-1 case of the same decision: x is in the radical of
# (x^2, x*y), y is not, and x^2 - 2, y^2 - 2 share no rational zero
IDEAL = "poly g1 = x^2;\npoly g2 = x*y;\n"
IRRATIONAL_IDEAL = "poly g1 = x^2 - 2;\npoly g2 = y^2 - 2;\n"


@pytest.mark.parametrize(
    "ring, kind, gens, f, member, method, bases, searches, witness",
    [
        ("Q", "semiprime-member", TWISTED, "vec f = [x^2, x*y];", True, "cofactor", 1, 0, False),
        ("Q", "semiprime-member", TWISTED, "vec f = [x, y];", True, "radical", 1 + 2, 1, False),
        ("Q", "semiprime-member", TWISTED, "vec f = [1, 0];", False, "witness", 1, 1, True),
        ("Q", "semiprime-member", IRRATIONAL, "vec f = [1, 0];", False, "radical", 2, 1, False),
        ("F7", "semiprime-member", TWISTED, "vec f = [1, 0];", False, "radical", 2, 1, True),
        ("F7", "matrix-semiprime-member", TWISTED_MATRICES, E11, False, "radical", 2, 1, True),
        ("Q", "matrix-semiprime-member", TWISTED_MATRICES, E11, False, "witness", 1, 1, True),
        ("Q", "radical-member", IDEAL, "poly f = x^2;", True, "cofactor", 1, 0, False),
        ("Q", "radical-member", IDEAL, "poly f = x;", True, "radical", 2, 1, False),
        ("Q", "radical-member", IDEAL, "poly f = y;", False, "witness", 1, 1, True),
        ("F7", "radical-member", IDEAL, "poly f = y;", False, "radical", 2, 1, True),
        ("Q", "radical-member", IRRATIONAL_IDEAL, "poly f = 1;", False, "radical", 2, 1, False),
    ],
    ids=["cofactor", "radical-member", "witness", "radical-nonmember",
         "F7-radical-nonmember", "F7-matrix-nonmember", "Q-matrix-nonmember",
         "ideal-cofactor", "ideal-radical", "ideal-witness", "F7-ideal-radical-nonmember",
         "ideal-radical-nonmember"],
)
def test_cli_rational_closure_query_searches_the_grid_at_most_once(
    tmp_path, capsys, monkeypatch, ring, kind, gens, f, member, method, bases, searches, witness
):
    # the verdict's own search is the report's: the CLI searches for no
    # point, and a witness negative builds only the direct basis.  A radical
    # verdict adds one basis per chart run: (x, y) passes both charts, and
    # (1, 0) fails on the first; an ideal has one chart, in its own ring.
    # Over F7 the radical negative's witness is searched once, when the
    # report reads it; a matrix query is scanned once, as a whole, like a
    # vector
    calls = {"find_vanishing_witness": 0, "buchberger": 0}

    def count(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    count(semimod.closure, "find_vanishing_witness")
    count(semimod.groebner, "buchberger")  # every basis is a presentation's
    text = f"ring {ring}[x, y];\n{gens}{f}\nquery {kind} f in {{g1, g2}};"
    code, report = run(capsys, kind, write(tmp_path, text))
    assert report["member"] is member and code == (0 if member else 1)
    assert report["method"] == method
    assert calls["find_vanishing_witness"] == searches
    assert calls["buchberger"] == bases
    assert (report["witness"] is not None) == witness
